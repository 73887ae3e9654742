"""Engine scaling: the theta-phi sweep as one array, against naive.

The naive sweep re-simulates every faulty circuit from |0...0>. The
engine simulates each shared prefix once, stacks the fault branches of
an injection point into a single ``(B, 2**n)`` array, applies every
rotation and the compiled tail across the whole batch, and scores QVF
with the vectorized Michelson contrast.

This bench pins the acceptance number on the paper-scale workloads —
GHZ(8) and QFT(6) under the full 15-degree, 312-configuration grid —
requiring >= 3x over the naive reference path
(``SerialExecutor(prefix_reuse=False)``) from the exact per-branch plans
(``response_basis=False``), whose records stay bit-identical to it.
"""

import time

from repro.algorithms import ghz, qft
from repro.faults import BatchedExecutor, QuFI, SerialExecutor, fault_grid
from repro.simulators import StatevectorSimulator

from .speedup import best_speedup


def timed_campaign(executor, spec, faults):
    qufi = QuFI(StatevectorSimulator(), executor=executor)
    start = time.perf_counter()
    result = qufi.run_campaign(spec, faults=faults)
    return result, time.perf_counter() - start


class TestBatchedSpeedup:
    """Acceptance: >= 3x over naive on the GHZ(8)/QFT(6) full grid."""

    def _compare(self, spec):
        faults = fault_grid()  # the paper's full 312-configuration grid
        outputs = {}

        def measure():
            naive, t_naive = timed_campaign(
                SerialExecutor(prefix_reuse=False), spec, faults
            )
            batched, t_batched = timed_campaign(
                BatchedExecutor(response_basis=False), spec, faults
            )
            outputs["naive"], outputs["batched"] = naive, batched
            print(
                f"\nbatched sweep, {spec.name}, full grid: "
                f"{len(naive.records)} injections, "
                f"naive {t_naive:.2f}s vs engine {t_batched:.2f}s "
                f"-> {t_naive / t_batched:.2f}x"
            )
            return t_naive / t_batched

        return measure, outputs

    def test_ghz8_full_grid(self, benchmark):
        spec = ghz(8)
        measure, outputs = self._compare(spec)
        speedup = benchmark.pedantic(
            lambda: best_speedup(measure, 3.0), rounds=1, iterations=1
        )
        # Identical physics, different wall-clock: bit-identical records.
        assert all(
            a.qvf == b.qvf and a.point == b.point and a.fault == b.fault
            for a, b in zip(
                outputs["naive"].records, outputs["batched"].records
            )
        )
        assert speedup >= 3.0

    def test_qft6_full_grid(self, benchmark):
        spec = qft(6)
        measure, outputs = self._compare(spec)
        speedup = benchmark.pedantic(
            lambda: best_speedup(measure, 3.0), rounds=1, iterations=1
        )
        assert all(
            a.qvf == b.qvf and a.point == b.point and a.fault == b.fault
            for a, b in zip(
                outputs["naive"].records, outputs["batched"].records
            )
        )
        assert speedup >= 3.0
