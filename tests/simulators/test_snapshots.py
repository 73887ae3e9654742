"""Prefix snapshots and branching from them on the exact backends.

A branch from a snapshot is one row of ``run_branches_from_snapshot``;
its reference is ``run`` on the whole (faulty) circuit, the naive loop's
execution.
"""

import numpy as np
import pytest

from repro.algorithms import bernstein_vazirani
from repro.quantum import QuantumCircuit
from repro.quantum.circuit import Instruction
from repro.quantum.gates import HGate
from repro.simulators import (
    DensityMatrixSimulator,
    NoiseModel,
    StatevectorSimulator,
    depolarizing_channel,
    supports_batched_branches,
)
from repro.simulators.backend import uniform_head_slots


@pytest.fixture(params=["statevector", "density"])
def backend(request):
    if request.param == "statevector":
        return StatevectorSimulator()
    model = NoiseModel("snap")
    model.add_all_qubit_error(depolarizing_channel(0.01), ["h", "x"])
    return DensityMatrixSimulator(model)


@pytest.fixture
def circuit():
    qc = QuantumCircuit(3, 3)
    qc.h(0).cx(0, 1).x(2).h(1).cx(1, 2)
    qc.measure_all()
    return qc


def branch(backend, snapshot, circuit, head=()):
    """The one branch of ``snapshot`` whose head is ``head``, as a Result."""
    return backend.run_branches_from_snapshot(
        snapshot, circuit, uniform_head_slots([list(head)])
    ).result(0)


class TestProtocol:
    def test_exact_backends_support_snapshots(self):
        assert supports_batched_branches(StatevectorSimulator())
        assert supports_batched_branches(DensityMatrixSimulator())

    def test_plain_objects_do_not(self):
        assert not supports_batched_branches(object())

    def test_snapshot_branch_equals_full_run(self, backend, circuit):
        full = backend.run(circuit).get_probabilities()
        for stop in range(len(circuit) + 1):
            snapshot = backend.prefix_snapshot(circuit, stop=stop)
            branched = branch(backend, snapshot, circuit).get_probabilities()
            assert branched == full  # bit-identical, not approx

    def test_chained_prefix_equals_scratch(self, backend, circuit):
        base = None
        for stop in range(len(circuit) + 1):
            base = backend.prefix_snapshot(circuit, stop=stop, base=base)
            scratch = backend.prefix_snapshot(circuit, stop=stop)
            assert np.array_equal(base.state.data, scratch.state.data)
            assert base.position == scratch.position == stop

    def test_stale_base_is_ignored(self, backend, circuit):
        late = backend.prefix_snapshot(circuit, stop=len(circuit))
        early = backend.prefix_snapshot(circuit, stop=1, base=late)
        scratch = backend.prefix_snapshot(circuit, stop=1)
        assert np.array_equal(early.state.data, scratch.state.data)

    def test_branching_does_not_mutate_snapshot(self, backend, circuit):
        snapshot = backend.prefix_snapshot(circuit, stop=2)
        before = snapshot.state.data.copy()
        head = [Instruction(HGate(), (2,))]
        faulty = circuit.copy()
        faulty.insert(2, HGate(), [2])
        first = branch(backend, snapshot, circuit, head)
        second = branch(backend, snapshot, circuit, head)
        assert np.array_equal(snapshot.state.data, before)
        assert snapshot.position == 2
        expected = backend.run(faulty).probabilities
        assert first.probabilities == second.probabilities == expected

    def test_custom_tail(self, backend):
        """A custom continuation is a branch head: an H after the
        snapshot undoes the prefix H, as ``run`` on the whole circuit."""
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        snapshot = backend.prefix_snapshot(qc, stop=1)
        result = branch(backend, snapshot, qc, [Instruction(HGate(), (0,))])
        whole = QuantumCircuit(1, 1)
        whole.h(0).h(0)
        whole.measure(0, 0)
        assert result.probabilities == backend.run(whole).probabilities
        assert result.probability_of("0") == pytest.approx(1.0, abs=0.05)

    def test_out_of_range_stop_rejected(self, backend, circuit):
        with pytest.raises(ValueError):
            backend.prefix_snapshot(circuit, stop=len(circuit) + 1)
        with pytest.raises(ValueError):
            backend.prefix_snapshot(circuit, stop=-1)


class TestBVWalkthrough:
    def test_branched_bv_matches_paper_output(self):
        """Branch mid-BV and finish: the 101 secret still dominates."""
        spec = bernstein_vazirani(4)
        backend = StatevectorSimulator()
        snapshot = backend.prefix_snapshot(spec.circuit, stop=3)
        result = branch(backend, snapshot, spec.circuit)
        assert result.most_probable() == spec.correct_states[0]
        assert (
            result.probabilities == backend.run(spec.circuit).probabilities
        )
