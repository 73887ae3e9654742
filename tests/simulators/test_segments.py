"""Unit tests for the gate-segment compiler and the plan runner.

The campaign-level guarantees (engine == naive records, tiling
invariance) live in ``tests/faults/test_batched.py``; this module pins
the compiler machinery itself — one segment per primitive operation,
superoperators, caching, determinism, the validation errors that must
match the per-task advance loop word for word — the runner: every row
of a batched plan application equals the scalar kernels on that row,
byte for byte, and a density plan makes at most one gather per
contraction — the folded plans, one superoperator per noisy gate,
against the exact ones — and the response-basis combination, whose rows
do not depend on the rows combined with them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import qft
from repro.quantum import QuantumCircuit
from repro.quantum.linalg import (
    apply_superop_to_density,
    apply_unitary_to_density,
    apply_unitary_to_statevector,
)
from repro.quantum.random import random_statevector, random_unitary
from repro.scenarios.factory import light_noise_model
from repro.simulators import (
    BatchedSnapshotBackend,
    DensityMatrixSimulator,
    SegmentCompiler,
    StatevectorSimulator,
    depolarizing_channel,
    supports_batched_branches,
)
from repro.simulators.backend import BranchSlots, uniform_head_slots
from repro.simulators.noise import NoiseModel, amplitude_damping_channel
from repro.simulators.segments import (
    RESET_SUPEROP,
    apply_plan,
    combine_responses,
    fold_ops,
    gate_ops,
)


def _bell_tail_circuit():
    qc = QuantumCircuit(3, 3)
    qc.h(0).cx(0, 1).rz(0.3, 2).cx(1, 2).h(2)
    qc.measure_all()
    return qc


class TestProtocol:
    def test_exact_backends_compile_their_tails(self):
        assert supports_batched_branches(StatevectorSimulator())
        assert supports_batched_branches(DensityMatrixSimulator())

    def test_plain_objects_do_not(self):
        assert not supports_batched_branches(object())

    def test_protocol_is_runtime_checkable(self):
        assert isinstance(StatevectorSimulator(), BatchedSnapshotBackend)

    def test_branch_state_nbytes(self):
        assert StatevectorSimulator().branch_state_nbytes(3) == 16 * 8
        assert DensityMatrixSimulator().branch_state_nbytes(3) == 16 * 64


class TestComposition:
    def test_plan_is_one_segment_per_primitive(self):
        circuit = _bell_tail_circuit()
        compiler = SegmentCompiler(circuit, superop=False)
        plan = compiler.tail_plan(0)
        assert len(plan.segments) == 5  # the five non-measure gates
        assert all(s.matrix.dtype == np.complex128 for s in plan.segments)

    def test_application_is_bitwise_per_gate(self):
        """Plans replay exactly the per-gate kernel calls."""
        circuit = _bell_tail_circuit()
        compiler = SegmentCompiler(circuit, superop=False)
        plan = compiler.tail_plan(0)
        batch = np.stack(
            [random_statevector(3, seed=s).data for s in range(4)]
        )
        fused = apply_plan(batch.copy(), plan)
        for index, row in enumerate(batch):
            for inst in circuit.instructions:
                if inst.name == "measure":
                    continue
                row = apply_unitary_to_statevector(
                    row, inst.gate.matrix, tuple(inst.qubits), 3
                )
            assert fused[index].tobytes() == row.tobytes()


class TestSuperoperators:
    def test_folded_unitary_matches_conjugation(self):
        u = random_unitary(1, seed=5)
        rho = np.outer(
            random_statevector(1, seed=6).data,
            random_statevector(1, seed=6).data.conj(),
        )
        folded = fold_ops([("unitary", (3,), u)], (3,))
        np.testing.assert_allclose(
            folded, np.kron(u, u.conj()), rtol=0, atol=1e-15
        )
        via_superop = apply_superop_to_density(rho, folded, (0,), 1)
        np.testing.assert_allclose(via_superop, u @ rho @ u.conj().T, atol=1e-12)

    def test_noise_channels_fold_into_superop_plans(self):
        model = NoiseModel("seg")
        model.add_all_qubit_error(depolarizing_channel(0.02), ["h"])
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1)
        qc.measure_all()
        compiler = SegmentCompiler(qc, superop=True, noise_model=model)
        plan = compiler.tail_plan(0)
        # h, its channel, cx: three primitives; the channel is a superop.
        assert [s.kind for s in plan.segments] == [
            "unitary",
            "superop",
            "unitary",
        ]

    def test_reset_compiles_to_its_superop(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.reset(0)
        compiler = SegmentCompiler(qc, superop=True)
        plan = compiler.tail_plan(0)
        assert plan.segments[-1].kind == "superop"
        np.testing.assert_array_equal(plan.segments[-1].matrix, RESET_SUPEROP)


class TestCachingAndDeterminism:
    def test_tail_plans_are_cached(self):
        circuit = _bell_tail_circuit()
        compiler = SegmentCompiler(circuit, superop=False)
        assert compiler.compiled_positions == ()
        plan = compiler.tail_plan(2)
        assert compiler.tail_plan(2) is plan
        assert compiler.compiled_positions == (2,)

    def test_compilation_is_deterministic(self):
        """Two compilers over the same inputs agree bit for bit — the
        property that lets parallel workers rebuild their own compiler."""
        circuit = _bell_tail_circuit()
        a = SegmentCompiler(circuit, superop=False)
        b = SegmentCompiler(circuit, superop=False)
        for start in range(len(circuit.instructions) + 1):
            pa, pb = a.tail_plan(start), b.tail_plan(start)
            assert len(pa.segments) == len(pb.segments)
            for sa, sb in zip(pa.segments, pb.segments):
                assert sa.targets == sb.targets
                assert sa.matrix.tobytes() == sb.matrix.tobytes()

    def test_measures_defer_to_plan_bookkeeping(self):
        circuit = _bell_tail_circuit()
        compiler = SegmentCompiler(circuit, superop=False)
        plan = compiler.tail_plan(len(circuit.instructions) - 3)
        assert plan.measures == ((0, 0), (1, 1), (2, 2))


class TestValidation:
    def test_rejects_out_of_range_start(self):
        compiler = SegmentCompiler(_bell_tail_circuit(), superop=False)
        with pytest.raises(ValueError, match="outside"):
            compiler.tail_plan(99)

    def test_gate_after_measure_matches_serial_message(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(0)
        compiler = SegmentCompiler(qc, superop=False)
        with pytest.raises(
            ValueError, match="only terminal measurements are supported"
        ):
            compiler.tail_plan(0)

    def test_slot_on_measured_qubit_matches_serial_message(self):
        """A branch slot on an already-measured qubit is refused, once
        per slot, with the serial advance loop's message."""
        from repro.quantum.gates import FaultUGate

        qc = QuantumCircuit(2, 2)
        qc.h(0).h(1)
        qc.measure(0, 0)
        slots = BranchSlots(
            3, (((0,), FaultUGate.name, np.stack([np.eye(2)] * 3)),)
        )
        for backend in (StatevectorSimulator(), DensityMatrixSimulator()):
            snapshot = backend.prefix_snapshot(qc, stop=3)
            with pytest.raises(
                ValueError, match="only terminal measurements are supported"
            ):
                backend.run_branches_from_snapshot(snapshot, qc, slots)

    def test_reset_rejected_in_unitary_mode(self):
        qc = QuantumCircuit(1, 1)
        qc.reset(0)
        compiler = SegmentCompiler(qc, superop=False)
        with pytest.raises(
            ValueError, match="reset requires the density-matrix simulator"
        ):
            compiler.tail_plan(0)

    def test_plan_start_must_match_snapshot(self):
        circuit = _bell_tail_circuit()
        backend = StatevectorSimulator()
        compiler = backend.tail_compiler(circuit)
        snapshot = backend.prefix_snapshot(circuit, stop=1)
        with pytest.raises(ValueError, match="cannot run from a snapshot"):
            backend.run_branches_from_snapshot(
                snapshot,
                circuit,
                uniform_head_slots([()]),
                plan=compiler.tail_plan(3),
            )

    def test_plan_path_matches_plain_snapshot_run(self):
        circuit = _bell_tail_circuit()
        for backend in (StatevectorSimulator(), DensityMatrixSimulator()):
            compiler = backend.tail_compiler(circuit)
            plain = backend.run(circuit)
            for stop in range(len(circuit.instructions) + 1):
                snapshot = backend.prefix_snapshot(circuit, stop=stop)
                planned = backend.run_branches_from_snapshot(
                    snapshot,
                    circuit,
                    uniform_head_slots([()]),
                    plan=compiler.tail_plan(stop),
                ).result(0)
                assert (
                    plain.get_probabilities() == planned.get_probabilities()
                )


# ----------------------------------------------------------------------
# The plan runner against the scalar kernels
# ----------------------------------------------------------------------
def _runner_noise():
    """1- and 2-qubit channels, including a 1-qubit channel on a 2-qubit
    gate (applied per qubit) and one on the injector-style ``u`` head."""
    model = NoiseModel("runner")
    model.add_all_qubit_error(amplitude_damping_channel(0.05), ["h", "u"])
    model.add_all_qubit_error(depolarizing_channel(0.02), ["rz"])
    model.add_all_qubit_error(depolarizing_channel(0.04, 2), ["cx"])
    model.add_all_qubit_error(amplitude_damping_channel(0.03), ["cp"])
    return model


def _runner_circuit(num_qubits, depth, rng, resets):
    """Random 1- and 2-qubit gates (both orientations), optional resets,
    then terminal measures on a random subset of the qubits."""
    qc = QuantumCircuit(num_qubits, num_qubits)
    kinds = 5 if resets else 4
    for _ in range(depth):
        kind = int(rng.integers(kinds))
        qubit = int(rng.integers(num_qubits))
        angle = float(rng.uniform(0.0, 2 * np.pi))
        if 2 <= kind < 4 and num_qubits > 1:
            a, b = (int(q) for q in rng.choice(num_qubits, 2, replace=False))
            if kind == 2:
                qc.cx(a, b)
            else:
                qc.cp(angle, a, b)
        elif kind == 4:
            qc.reset(qubit)
        elif kind == 0:
            qc.h(qubit)
        else:
            qc.rz(angle, qubit)
    measured = rng.permutation(num_qubits)[: int(rng.integers(num_qubits + 1))]
    for clbit, qubit in enumerate(measured):
        qc.measure(int(qubit), clbit)
    return qc


def _random_batch(rng, size, num_qubits, density):
    shape = (size,) + (2**num_qubits,) * (2 if density else 1)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _scalar_row(row, heads, index, plan, num_qubits, density):
    """One branch through the scalar kernels, op by op: its head (the
    ``index``-th matrix of each stacked unitary), then the plan's
    segments."""

    def apply(state, kind, matrix, targets):
        if kind == "superop":
            return apply_superop_to_density(state, matrix, targets, num_qubits)
        if density:
            return apply_unitary_to_density(state, matrix, targets, num_qubits)
        return apply_unitary_to_statevector(state, matrix, targets, num_qubits)

    for kind, targets, matrix in heads:
        stacked = kind == "unitary"
        row = apply(row, kind, matrix[index] if stacked else matrix, targets)
    for segment in plan.segments:
        row = apply(row, segment.kind, segment.matrix, segment.targets)
    return row


def _bits(array):
    """The raw bytes of a complex array, read as its real components."""
    return np.ascontiguousarray(array).view(array.real.dtype).tobytes()


class TestRunnerAgainstScalarKernels:
    @given(
        num_qubits=st.integers(min_value=1, max_value=4),
        depth=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.sampled_from([1, 3, 8]),
        density=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_rows_equal_scalar_kernels(
        self, num_qubits, depth, seed, size, density
    ):
        """Every tail start, with and without aligned heads: row ``b`` of
        the runner's output is byte-equal to the scalar kernels applied
        segment by segment to row ``b``."""
        rng = np.random.default_rng(seed)
        circuit = _runner_circuit(num_qubits, depth, rng, resets=density)
        noise = _runner_noise() if density else None
        qubit = int(rng.integers(num_qubits))
        stack = np.stack(
            [random_unitary(1, seed=seed + b) for b in range(size)]
        )
        head_cases = ([], gate_ops("u", (qubit,), stack, noise))
        compiler = SegmentCompiler(circuit, superop=density, noise_model=noise)
        for start in range(len(circuit.instructions) + 1):
            plan = compiler.tail_plan(start)
            for heads in head_cases:
                batch = _random_batch(rng, size, num_qubits, density)
                out = apply_plan(batch.copy(), plan, heads)
                assert out.shape == batch.shape
                assert out.dtype == np.complex128
                for b in range(size):
                    expected = _scalar_row(
                        batch[b], heads, b, plan, num_qubits, density
                    )
                    assert _bits(out[b]) == _bits(expected)


class TestStepStructure:
    """The compiled axis bookkeeping: the passes a plan makes over the
    full branch batch."""

    @staticmethod
    def _noisy_qft_compiler(num_qubits=4):
        backend = DensityMatrixSimulator(light_noise_model(num_qubits))
        circuit = qft(num_qubits).circuit
        return circuit, backend.tail_compiler(circuit)

    def test_density_plan_contractions_and_gathers(self):
        circuit, compiler = self._noisy_qft_compiler()
        canonical = tuple(range(2 * circuit.num_qubits))
        skipped = 0
        for start in range(len(circuit.instructions) + 1):
            plan = compiler.tail_plan(start)
            *contractions, closing = plan.steps
            unitaries = sum(s.kind == "unitary" for s in plan.segments)
            superops = len(plan.segments) - unitaries
            assert len(contractions) == 2 * unitaries + superops
            assert all(step.matrix is not None for step in contractions)
            # The closing gather returns the batch to canonical order.
            assert closing.matrix is None
            assert closing.layout == canonical and not closing.conjugated
            # One GEMM and at most one gather per contraction, plus the
            # closing gather: a unitary costs at most 4 full-batch
            # passes, a superoperator at most 2.
            passes = sum(
                1 + (step.gather is not None) for step in contractions
            ) + (closing.gather is not None)
            assert passes <= 4 * unitaries + 2 * superops + 1
            skipped += sum(step.gather is None for step in contractions)
        assert skipped > 0  # some contractions find their axes in front

    def test_steps_share_segment_matrices(self):
        """Steps reference the segments' matrices; they copy none."""
        _, compiler = self._noisy_qft_compiler(3)
        plan = compiler.tail_plan(0)
        matrices = {id(s.matrix) for s in plan.segments}
        assert all(
            id(step.matrix) in matrices
            for step in plan.steps
            if step.matrix is not None
        )

    def test_statevector_plan_is_one_contraction_per_segment(self):
        circuit = _bell_tail_circuit()
        plan = SegmentCompiler(circuit, superop=False).tail_plan(0)
        *contractions, closing = plan.steps
        assert len(contractions) == len(plan.segments)
        assert not any(step.conjugated for step in plan.steps)
        assert closing.layout == tuple(range(circuit.num_qubits))


def _fold_circuit(num_qubits, depth, rng):
    """A random circuit holding, under :func:`_runner_noise`, a 1-qubit
    channel on a 2-qubit gate (``cp``), a 2-qubit channel (``cx``), a
    reset and a gate with no channel (``x``), then terminal measures."""
    qc = QuantumCircuit(num_qubits, num_qubits)
    kinds = ["cp", "cx", "reset", "x"] + [
        str(kind)
        for kind in rng.choice(["h", "rz", "cx", "cp", "reset", "x"], depth)
    ]
    for kind in rng.permutation(kinds):
        a, b = (int(q) for q in rng.choice(num_qubits, 2, replace=False))
        angle = float(rng.uniform(0.0, 2 * np.pi))
        if kind == "cx":
            qc.cx(a, b)
        elif kind == "cp":
            qc.cp(angle, a, b)
        elif kind == "reset":
            qc.reset(a)
        elif kind == "rz":
            qc.rz(angle, a)
        else:
            getattr(qc, kind)(a)
    qc.measure_all()
    return qc


def _random_density_batch(rng, size, num_qubits):
    """``size`` random full-rank density matrices."""
    dim = 2**num_qubits
    a = rng.normal(size=(size, dim, dim)) + 1j * rng.normal(size=(size, dim, dim))
    rho = a @ a.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


class TestFoldedTails:
    """The folded plans the response basis runs: each gate with a noise
    channel is one superoperator, within rounding of the exact plan."""

    @pytest.mark.parametrize("seed", range(4))
    def test_folded_tail_equals_the_exact_tail(self, seed):
        rng = np.random.default_rng(seed)
        circuit = _fold_circuit(3, 8, rng)
        compiler = SegmentCompiler(
            circuit, superop=True, noise_model=_runner_noise()
        )
        batch = _random_density_batch(rng, 5, 3)
        for start in range(0, len(circuit.instructions) + 1, 3):
            exact = apply_plan(batch.copy(), compiler.tail_plan(start))
            folded = apply_plan(
                batch.copy(), compiler.tail_plan(start, folded=True)
            )
            np.testing.assert_allclose(folded, exact, rtol=0, atol=1e-14)

    def test_one_gemm_per_noisy_gate_or_reset(self):
        rng = np.random.default_rng(11)
        circuit = _fold_circuit(3, 10, rng)
        noise = _runner_noise()
        compiler = SegmentCompiler(circuit, superop=True, noise_model=noise)
        plan = compiler.tail_plan(0, folded=True)
        gates = [
            inst for inst in circuit.instructions if inst.name != "measure"
        ]
        folded = [
            inst for inst in gates
            if inst.name == "reset"
            or noise.channel_for(inst.name, inst.qubits) is not None
        ]
        bare = len(gates) - len(folded)
        assert 0 < bare < len(gates)
        assert [s.kind for s in plan.segments].count("superop") == len(folded)
        assert len(plan.segments) == len(gates)
        # A bare density-matrix unitary is two GEMMs (rows, then columns).
        *contractions, closing = plan.steps
        assert closing.matrix is None
        assert len(contractions) == len(folded) + 2 * bare
        exact = compiler.tail_plan(0)
        assert len(exact.steps) > len(plan.steps)

    def test_compilers_fold_byte_equal_matrices(self, monkeypatch):
        """Pool workers rebuild their own compiler: two compilers fold
        every tail to the same bytes, each noisy gate once, whatever
        number of tails contain it."""
        import repro.simulators.segments as segments

        folds = []
        monkeypatch.setattr(
            segments, "fold_ops",
            lambda ops, qubits, _fold=segments.fold_ops: (
                folds.append(qubits) or _fold(ops, qubits)
            ),
        )
        circuit = _fold_circuit(3, 8, np.random.default_rng(5))
        noise = _runner_noise()
        a = SegmentCompiler(circuit, superop=True, noise_model=noise)
        b = SegmentCompiler(circuit, superop=True, noise_model=noise)
        for start in range(len(circuit.instructions) + 1):
            pa = a.tail_plan(start, folded=True)
            pb = b.tail_plan(start, folded=True)
            assert pa is a.tail_plan(start, folded=True)
            assert [s.targets for s in pa.segments] == [
                s.targets for s in pb.segments
            ]
            for sa, sb in zip(pa.segments, pb.segments):
                assert sa.matrix.tobytes() == sb.matrix.tobytes()
        noisy = sum(
            noise.channel_for(inst.name, inst.qubits) is not None
            for inst in circuit.instructions
        )
        assert len(folds) == 2 * noisy > 0

    def test_unitary_compilers_serve_the_exact_plan(self):
        compiler = SegmentCompiler(_bell_tail_circuit(), superop=False)
        assert compiler.tail_plan(1, folded=True) is compiler.tail_plan(1)


class TestEmptyHeads:
    @pytest.mark.parametrize("density", [False, True], ids=["sv", "dm"])
    def test_empty_head_list_returns_empty_batch(self, density):
        circuit = qft(3).circuit
        backend = (
            DensityMatrixSimulator(light_noise_model(3))
            if density
            else StatevectorSimulator()
        )
        snapshot = backend.prefix_snapshot(circuit, stop=2)
        batch = backend.run_branches_from_snapshot(
            snapshot, circuit, uniform_head_slots([])
        )
        assert batch.size == 0
        assert batch.probabilities.shape == (0, 2**batch.key_width)


class TestResponseBasis:
    """The linear response basis: responses and their combination."""

    def test_combination_is_the_real_part_of_the_product(self):
        rng = np.random.default_rng(3)
        weights = rng.normal(size=(9, 16)) + 1j * rng.normal(size=(9, 16))
        responses = rng.normal(size=(16, 32)) + 1j * rng.normal(size=(16, 32))
        np.testing.assert_allclose(
            combine_responses(weights, responses),
            (weights @ responses).real,
            rtol=0,
            atol=1e-12,
        )

    @staticmethod
    def density_site():
        """A noisy QFT-3 site's snapshot, plan and 45-degree fault heads,
        as one slot stack."""
        from repro.faults import fault_grid
        from repro.quantum.circuit import Instruction

        circuit = qft(3).circuit
        backend = DensityMatrixSimulator(light_noise_model(3))
        snapshot = backend.prefix_snapshot(circuit, stop=3)
        plan = backend.tail_compiler(circuit).tail_plan(3)
        heads = uniform_head_slots([
            [Instruction(fault.as_gate(), (1,))]
            for fault in fault_grid(step_deg=45)
        ])
        return circuit, backend, snapshot, plan, heads

    def test_ten_responses_match_sixteen(self):
        """Hermitian symmetry: the 10-response diagonals equal the
        combination of all 16 matrix units' responses within 1e-14."""
        _, backend, snapshot, plan, heads = self.density_site()
        units = np.eye(16, dtype=complex).reshape(16, 4, 4)
        (_, name, matrices), = heads.slots
        _, *noise = gate_ops(name, (1,), units, backend.noise_model)
        batch = np.repeat(snapshot.state.data[np.newaxis], 16, axis=0)
        responses = np.diagonal(
            apply_plan(batch, plan, [("superop", (1,), units), *noise]),
            axis1=-2,
            axis2=-1,
        )
        weights = np.stack(
            [np.kron(m, m.conj()).reshape(-1) for m in matrices]
        )
        sixteen = combine_responses(weights, responses)
        ten = backend._basis_diagonals(snapshot, heads, plan, 16)
        assert ten.shape == sixteen.shape == (len(heads), 8)
        np.testing.assert_allclose(ten, sixteen, rtol=0, atol=1e-14)

    def test_combined_rows_do_not_depend_on_their_neighbours(self):
        """Each row's bits come from its own fault alone: a site's heads
        combined in chunks of 7, or one by one, give the same bytes."""
        circuit, backend, snapshot, plan, heads = self.density_site()

        def rows(part):
            return backend.run_branches_from_snapshot(
                snapshot, circuit, part, plan=plan, basis_tile=4
            ).probabilities

        (qubits, name, matrices), = heads.slots

        def stack(start, stop):
            return BranchSlots(
                stop - start, ((qubits, name, matrices[start:stop]),)
            )

        whole = rows(heads)
        for size in (7, 1):
            chunked = np.concatenate([
                rows(stack(i, min(i + size, len(heads))))
                for i in range(0, len(heads), size)
            ])
            assert chunked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("folded", [False, True], ids=["exact", "folded"])
    def test_responses_do_not_depend_on_their_tile(self, folded):
        """Responses built in tiles of 10, 3 and 1 give byte-equal rows,
        on the exact tail and on the folded one the engine runs."""
        circuit, backend, snapshot, plan, heads = self.density_site()
        if folded:
            plan = backend.tail_compiler(circuit).tail_plan(3, folded=True)

        def rows(tile):
            return backend.run_branches_from_snapshot(
                snapshot, circuit, heads, plan=plan, basis_tile=tile
            ).probabilities

        whole = rows(10)
        for tile in (3, 1):
            assert rows(tile).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("density", [False, True], ids=["sv", "dm"])
    def test_basis_rows_match_direct_rows(self, density):
        """A site's branches on the basis equal the direct batch's to
        rounding, and the basis rejects pair heads."""
        from repro.faults import fault_grid
        from repro.quantum.circuit import Instruction

        circuit = qft(3).circuit
        backend = (
            DensityMatrixSimulator(light_noise_model(3))
            if density
            else StatevectorSimulator()
        )
        snapshot = backend.prefix_snapshot(circuit, stop=3)
        heads = [
            [Instruction(fault.as_gate(), (1,))]
            for fault in fault_grid(step_deg=45)
        ]
        slots = uniform_head_slots(heads)
        direct = backend.run_branches_from_snapshot(snapshot, circuit, slots)
        basis = backend.run_branches_from_snapshot(
            snapshot, circuit, slots, basis_tile=5
        )
        np.testing.assert_allclose(
            basis.probabilities, direct.probabilities, rtol=0, atol=1e-14
        )
        pairs = [head + [Instruction(head[0].gate, (2,))] for head in heads]
        with pytest.raises(ValueError, match="single-fault sites only"):
            backend.run_branches_from_snapshot(
                snapshot, circuit, uniform_head_slots(pairs), basis_tile=5
            )
