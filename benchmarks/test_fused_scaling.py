"""Waiver scaling: the linear response basis against the default engine.

The engine runs every branch batch's tail as a compiled segment plan,
one segment per primitive operation, so records stay bit-identical to
the naive per-injection sweep — and every fault branch pays for the
whole tail. The ``bit_identical=False`` waiver runs each single-fault
site on the linear response basis instead: a fault is a single-qubit
unitary and everything after it is linear, so the tail runs once per
superoperator matrix unit on the fault qubit (16 density-matrix
responses) and each fault combines them, whatever the grid.

This bench pins the acceptance number on the deep-tail workload — the
QFT(6) density-matrix campaign under the full 15-degree,
312-configuration grid — requiring >= 3x from the basis over the
default engine, with QVF within 1e-10. On a 2-core host the default
engine runs this campaign in about 19 s and the basis in about 1.7 s.
The bench archives the measured timings as ``fused_timings.json``
(uploaded by the bench-smoke CI job, kept out of git like the other
timing artifacts).
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

# The acceptance pin: the basis over the default engine on the full grid.
BASIS_PIN = 3.0


def make_backend():
    return DensityMatrixSimulator(light_noise_model(NUM_QUBITS))


def timed_campaign(executor, spec, faults):
    qufi = QuFI(make_backend(), executor=executor)
    start = time.perf_counter()
    result = qufi.run_campaign(spec, faults=faults)
    return result, time.perf_counter() - start


class TestResponseBasisSpeedup:
    """Acceptance: the basis >= 3x on the QFT(6) full-grid DM campaign."""

    def test_qft6_full_grid_density(self, benchmark):
        spec = qft(NUM_QUBITS)
        faults = fault_grid()  # the paper's full 312-configuration grid
        outputs = {}

        def measure():
            baseline, t_base = timed_campaign(BatchedExecutor(), spec, faults)
            basis, t_basis = timed_campaign(
                BatchedExecutor(response_basis=True), spec, faults
            )
            outputs.update(baseline=baseline, basis=basis)
            outputs["seconds"] = {
                "default_engine": t_base,
                "response_basis": t_basis,
            }
            print(
                f"\nwaiver sweep, {spec.name}(6) DM, full grid: "
                f"{len(baseline.records)} injections, default "
                f"{t_base:.2f}s vs basis {t_basis:.2f}s "
                f"({t_base / t_basis:.2f}x)"
            )
            return t_base / t_basis

        speedup = benchmark.pedantic(
            lambda: best_speedup(measure, BASIS_PIN),
            rounds=1,
            iterations=1,
        )

        baseline = outputs["baseline"]
        # The waiver trades bit-identity for a different summation
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
        """The default plans trade speed for a hard guarantee: records
        bit-identical to the naive reference path.
        ``tests/faults/test_batched.py`` sweeps this exhaustively at
        width 3 — this is the paper-scale spot check."""
        spec = qft(NUM_QUBITS)
        faults = fault_grid(step_deg=90)
        naive, _ = timed_campaign(
            SerialExecutor(prefix_reuse=False), spec, faults
        )
        engine, _ = timed_campaign(BatchedExecutor(), spec, faults)
        assert engine.table.data.tobytes() == naive.table.data.tobytes()
