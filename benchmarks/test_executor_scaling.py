"""Campaign engine scaling: prefix reuse and parallel execution.

The naive sweep re-simulates every faulty circuit from |0...0>, costing
``O(points x faults x depth)``. Prefix reuse simulates each circuit prefix
once and branches every fault from the frozen state, leaving only the
suffix per injection. The expected gain is ``depth / mean(suffix)``:

* ~2x asymptotically on a uniform full-circuit sweep (mean suffix is half
  the depth);
* well above 2x on deep injection sites, whose suffixes are short — the
  regime that dominates deep circuits.

This bench pins both numbers on a depth >= 20 circuit and checks the two
paths agree bit-for-bit while disagreeing on wall-clock. Both run the
exact per-branch plans (``response_basis=False``): the bench measures
prefix reuse, not the response basis.
"""

import time

from repro.faults import (
    ParallelExecutor,
    QuFI,
    SerialExecutor,
    enumerate_injection_points,
    fault_grid,
)
from repro.quantum import QuantumCircuit
from repro.simulators import StatevectorSimulator

from .speedup import best_speedup


def deep_circuit(num_qubits: int = 6, layers: int = 5) -> QuantumCircuit:
    """Layered entangling circuit, depth ~5x layers (>= 20 at 5 layers)."""
    qc = QuantumCircuit(num_qubits, num_qubits, name="deep-bench")
    for _ in range(layers):
        for qubit in range(num_qubits):
            qc.h(qubit)
        for qubit in range(num_qubits - 1):
            qc.cx(qubit, qubit + 1)
        for qubit in range(num_qubits):
            qc.t(qubit)
    qc.measure_all()
    return qc


CORRECT = ["0" * 6]


def timed_campaign(executor, circuit, points, faults):
    qufi = QuFI(StatevectorSimulator(), executor=executor)
    start = time.perf_counter()
    result = qufi.run_campaign(
        circuit, correct_states=CORRECT, faults=faults, points=points
    )
    return result, time.perf_counter() - start


class TestPrefixReuseSpeedup:
    """Acceptance: >= 2x wall-clock from prefix reuse, depth >= 20."""

    def test_deep_injection_sites(self, benchmark):
        circuit = deep_circuit()
        assert circuit.depth() >= 20
        deep_positions = [
            index
            for index, inst in enumerate(circuit)
            if inst.is_unitary() and index >= circuit.size() // 2
        ]
        points = enumerate_injection_points(
            circuit, positions=deep_positions
        )
        faults = fault_grid(step_deg=45)

        outputs = {}

        def compare():
            reused, t_fast = timed_campaign(
                SerialExecutor(response_basis=False), circuit, points, faults
            )
            naive, t_slow = timed_campaign(
                SerialExecutor(prefix_reuse=False), circuit, points, faults
            )
            outputs["reused"], outputs["naive"] = reused, naive
            print(
                f"\nprefix reuse, deep half of depth-{circuit.depth()} "
                f"circuit: {len(reused.records)} injections, "
                f"naive {t_slow:.2f}s vs reused {t_fast:.2f}s "
                f"-> {t_slow / t_fast:.2f}x"
            )
            return t_slow / t_fast

        speedup = benchmark.pedantic(
            lambda: best_speedup(compare, 2.0), rounds=1, iterations=1
        )
        # Identical physics, different wall-clock.
        assert all(
            a.qvf == b.qvf
            for a, b in zip(outputs["reused"].records, outputs["naive"].records)
        )
        assert speedup >= 2.0

    def test_full_sweep(self, benchmark):
        """Uniform full-circuit sweep: gain approaches the 2x asymptote."""
        circuit = deep_circuit()
        points = enumerate_injection_points(circuit)
        faults = fault_grid(step_deg=45)

        def compare():
            _, t_fast = timed_campaign(
                SerialExecutor(response_basis=False), circuit, points, faults
            )
            _, t_slow = timed_campaign(
                SerialExecutor(prefix_reuse=False), circuit, points, faults
            )
            print(
                f"\nprefix reuse, full sweep of depth-{circuit.depth()} "
                f"circuit: naive {t_slow:.2f}s vs reused {t_fast:.2f}s "
                f"-> {t_slow / t_fast:.2f}x"
            )
            return t_slow / t_fast

        speedup = benchmark.pedantic(
            lambda: best_speedup(compare, 1.4), rounds=1, iterations=1
        )
        # Theoretical asymptote is 2x; demand a healthy fraction of it.
        assert speedup >= 1.4


class TestParallelExecutor:
    """Process-pool execution agrees with serial and reports its timing.

    No speedup assertion: CI machines may expose a single core, and small
    campaigns are dominated by process startup. The equivalence check is
    the load-bearing part; timings are printed for the curious.
    """

    def test_parallel_matches_serial(self, benchmark):
        circuit = deep_circuit(layers=3)
        points = enumerate_injection_points(circuit)
        faults = fault_grid(step_deg=90)

        def compare():
            serial, t_serial = timed_campaign(
                SerialExecutor(), circuit, points, faults
            )
            parallel, t_parallel = timed_campaign(
                ParallelExecutor(workers=4), circuit, points, faults
            )
            return serial, parallel, t_serial, t_parallel

        serial, parallel, t_serial, t_parallel = benchmark.pedantic(
            compare, rounds=1, iterations=1
        )
        print(
            f"\nparallel(4) vs serial on {len(serial.records)} injections: "
            f"serial {t_serial:.2f}s, parallel {t_parallel:.2f}s"
        )
        assert len(parallel.records) == len(serial.records)
        assert all(
            a.qvf == b.qvf
            for a, b in zip(serial.records, parallel.records)
        )
