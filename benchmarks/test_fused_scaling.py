"""Response-basis scaling: the default engine against the opt-out.

By default the engine runs each single-fault site on the linear
response basis: a fault is a single-qubit unitary and everything after
it is linear, so the tail runs once per distinct superoperator matrix
unit on the fault qubit (10 density-matrix responses) and each fault
combines them, whatever the grid. The ``bit_identical: true`` opt-out
(``response_basis=False``) runs every branch's tail as the exact
compiled plan, one segment per primitive operation, so its records
stay bit-identical to the naive per-injection sweep — and every fault
branch pays for the whole tail.

This bench pins the acceptance number on the deep-tail workload — the
QFT(6) density-matrix campaign under the full 15-degree,
312-configuration grid — requiring >= 5x from the default over the
opt-out, with QVF within 1e-10. On a 2-core host the opt-out runs this
campaign in about 19 s. The bench archives the measured timings as
``fused_timings.json`` (uploaded by the bench-smoke CI job, kept out of
git like the other timing artifacts).
"""

import json
import time

import numpy as np

from repro.algorithms import qft
from repro.faults import BatchedExecutor, QuFI, SerialExecutor, fault_grid
from repro.scenarios.factory import light_noise_model
from repro.simulators import DensityMatrixSimulator

from .speedup import best_speedup

# Written at the repo root (the CI working directory) so the bench-smoke
# job can archive it next to the aggregation and suite timings.
TIMINGS_PATH = "fused_timings.json"

NUM_QUBITS = 6

# The acceptance pin: the default over the opt-out on the full grid.
BASIS_PIN = 5.0


def make_backend():
    return DensityMatrixSimulator(light_noise_model(NUM_QUBITS))


def timed_campaign(executor, spec, faults):
    qufi = QuFI(make_backend(), executor=executor)
    start = time.perf_counter()
    result = qufi.run_campaign(spec, faults=faults)
    return result, time.perf_counter() - start


class TestResponseBasisSpeedup:
    """Acceptance: the default >= 5x the opt-out on the QFT(6) full-grid
    DM campaign."""

    def test_qft6_full_grid_density(self, benchmark):
        spec = qft(NUM_QUBITS)
        faults = fault_grid()  # the paper's full 312-configuration grid
        outputs = {}

        def measure():
            baseline, t_base = timed_campaign(
                BatchedExecutor(response_basis=False), spec, faults
            )
            basis, t_basis = timed_campaign(BatchedExecutor(), spec, faults)
            outputs.update(baseline=baseline, basis=basis)
            outputs["seconds"] = {
                "opt_out": t_base,
                "response_basis": t_basis,
            }
            print(
                f"\nbasis sweep, {spec.name}(6) DM, full grid: "
                f"{len(baseline.records)} injections, opt-out "
                f"{t_base:.2f}s vs default {t_basis:.2f}s "
                f"({t_base / t_basis:.2f}x)"
            )
            return t_base / t_basis

        speedup = benchmark.pedantic(
            lambda: best_speedup(measure, BASIS_PIN),
            rounds=1,
            iterations=1,
        )

        baseline = outputs["baseline"]
        # The basis trades bit-identity for a different summation
        # order, not for accuracy.
        np.testing.assert_allclose(
            outputs["basis"].qvf_values(),
            baseline.qvf_values(),
            rtol=0,
            atol=1e-10,
        )

        timings = {
            "workload": f"qft{NUM_QUBITS}-dm-light-full-grid",
            "injections": len(baseline.records),
            "seconds": outputs["seconds"],
            "speedups": {"response_basis": speedup},
            "pins": {"response_basis": BASIS_PIN},
        }
        with open(TIMINGS_PATH, "w") as handle:
            json.dump(timings, handle, indent=2)

        assert speedup >= BASIS_PIN

    def test_default_engine_stays_bit_identical(self):
        """The opt-out's exact plans trade speed for a hard guarantee:
        records bit-identical to the naive reference path.
        ``tests/faults/test_batched.py`` sweeps this exhaustively at
        width 3 — this is the paper-scale spot check."""
        spec = qft(NUM_QUBITS)
        faults = fault_grid(step_deg=90)
        naive, _ = timed_campaign(
            SerialExecutor(prefix_reuse=False), spec, faults
        )
        engine, _ = timed_campaign(
            BatchedExecutor(response_basis=False), spec, faults
        )
        assert engine.table.data.tobytes() == naive.table.data.tobytes()
