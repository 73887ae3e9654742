"""Unit tests for the gate-segment compiler and plan kernels.

The campaign-level guarantees (engine == naive records, tiling
invariance) live in ``tests/faults/test_batched.py``; this module pins
the compiler machinery itself — composition correctness, superoperator
embedding, caching, determinism, and the validation errors that must
match the per-task advance loop word for word.
"""

import numpy as np
import pytest

from repro.quantum import QuantumCircuit
from repro.quantum.linalg import (
    apply_superop_to_density,
    apply_unitary_to_statevector_batch,
    expand_unitary,
)
from repro.quantum.random import random_statevector, random_unitary
from repro.simulators import (
    BatchedSnapshotBackend,
    DensityMatrixSimulator,
    SegmentCompiler,
    StatevectorSimulator,
    depolarizing_channel,
    supports_batched_branches,
)
from repro.simulators.noise import NoiseModel
from repro.simulators.segments import (
    RESET_SUPEROP,
    apply_plan_to_statevector_batch,
    embed_superop,
    embed_unitary,
    unitary_to_superoperator,
)


def _bell_tail_circuit():
    qc = QuantumCircuit(3, 3)
    qc.h(0).cx(0, 1).rz(0.3, 2).cx(1, 2).h(2)
    qc.measure_all()
    return qc


def _full_unitary(circuit):
    """The circuit's unitary (measurements dropped), via matrix products."""
    dim = 2**circuit.num_qubits
    total = np.eye(dim, dtype=complex)
    for inst in circuit.instructions:
        if inst.name in ("measure", "barrier"):
            continue
        total = (
            expand_unitary(
                inst.gate.matrix,
                tuple(inst.qubits),
                circuit.num_qubits,
            )
            @ total
        )
    return total


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
    def test_packed_plan_equals_circuit_unitary(self):
        circuit = _bell_tail_circuit()
        compiler = SegmentCompiler(circuit, superop=False, pack=True)
        plan = compiler.tail_plan(0)
        dim = 2**circuit.num_qubits
        total = np.eye(dim, dtype=complex)
        for segment in plan.segments:
            total = (
                expand_unitary(
                    segment.matrix, segment.targets, circuit.num_qubits
                )
                @ total
            )
        np.testing.assert_allclose(
            total, _full_unitary(circuit), atol=1e-12
        )

    def test_packed_plan_folds_every_primitive(self):
        circuit = _bell_tail_circuit()
        compiler = SegmentCompiler(circuit, superop=False, pack=True)
        plan = compiler.tail_plan(0)
        assert plan.num_operations == 5  # the five non-measure gates
        # A 3-qubit circuit under the 10-qubit cap packs into one segment.
        assert len(plan.segments) == 1

    def test_unpacked_plan_is_one_segment_per_primitive(self):
        circuit = _bell_tail_circuit()
        compiler = SegmentCompiler(circuit, superop=False)
        plan = compiler.tail_plan(0)
        assert compiler.pack is False  # unpacked is the default
        assert len(plan.segments) == 5
        assert all(s.count == 1 for s in plan.segments)

    def test_support_cap_splits_segments(self):
        circuit = _bell_tail_circuit()
        compiler = SegmentCompiler(
            circuit, superop=False, pack=True, max_unitary_qubits=2
        )
        plan = compiler.tail_plan(0)
        assert len(plan.segments) > 1
        assert all(len(s.targets) <= 2 for s in plan.segments)
        total = np.eye(8, dtype=complex)
        for segment in plan.segments:
            total = expand_unitary(segment.matrix, segment.targets, 3) @ total
        np.testing.assert_allclose(total, _full_unitary(circuit), atol=1e-12)

    def test_unpacked_application_is_bitwise_per_gate(self):
        """pack=False plans replay exactly the unfused kernel calls."""
        circuit = _bell_tail_circuit()
        compiler = SegmentCompiler(circuit, superop=False)
        plan = compiler.tail_plan(0)
        batch = np.stack(
            [random_statevector(3, seed=s).data for s in range(4)]
        )
        fused = apply_plan_to_statevector_batch(batch.copy(), plan, 3)
        manual = batch.copy()
        for inst in circuit.instructions:
            if inst.name == "measure":
                continue
            manual = apply_unitary_to_statevector_batch(
                manual, inst.gate.matrix, tuple(inst.qubits), 3
            )
        assert fused.tobytes() == manual.tobytes()


class TestSuperopEmbedding:
    def test_unitary_to_superoperator_matches_conjugation(self):
        u = random_unitary(1, seed=5)
        rho = np.outer(
            random_statevector(1, seed=6).data,
            random_statevector(1, seed=6).data.conj(),
        )
        via_superop = apply_superop_to_density(
            rho, unitary_to_superoperator(u), (0,), 1
        )
        np.testing.assert_allclose(via_superop, u @ rho @ u.conj().T, atol=1e-12)

    def test_embed_superop_matches_direct_application(self):
        """Embedding onto a wider support commutes with application."""
        channel = depolarizing_channel(0.1)
        rho = np.outer(
            random_statevector(2, seed=9).data,
            random_statevector(2, seed=9).data.conj(),
        )
        direct = apply_superop_to_density(
            rho, channel.superoperator, (1,), 2
        )
        embedded = embed_superop(channel.superoperator, (1,), (0, 1))
        via_embed = apply_superop_to_density(rho, embedded, (0, 1), 2)
        np.testing.assert_allclose(via_embed, direct, atol=1e-12)

    def test_embed_unitary_respects_gate_orientation(self):
        """A CX declared on (1, 0) embeds differently from (0, 1)."""
        qc = QuantumCircuit(2)
        qc.cx(1, 0)
        cx = qc.instructions[0].gate.matrix
        flipped = embed_unitary(cx, (1, 0), (0, 1))
        straight = embed_unitary(cx, (0, 1), (0, 1))
        assert not np.allclose(flipped, straight)
        # |01> (qubit 0 = 1) leaves control qubit 1 untouched.
        state = np.zeros(4, dtype=complex)
        state[0b01] = 1.0
        np.testing.assert_allclose(flipped @ state, state, atol=1e-12)

    def test_noise_channels_fold_into_superop_plans(self):
        model = NoiseModel("seg")
        model.add_all_qubit_error(depolarizing_channel(0.02), ["h"])
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1)
        qc.measure_all()
        compiler = SegmentCompiler(qc, superop=True, noise_model=model)
        plan = compiler.tail_plan(0)
        # h, its channel, cx: three primitives; the channel is a superop.
        assert plan.num_operations == 3
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
        for pack in (False, True):
            a = SegmentCompiler(circuit, superop=False, pack=pack)
            b = SegmentCompiler(circuit, superop=False, pack=pack)
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

    def test_float32_plans_compile_narrow(self):
        circuit = _bell_tail_circuit()
        compiler = SegmentCompiler(
            circuit, superop=False, dtype=np.complex64, pack=True
        )
        plan = compiler.tail_plan(0)
        assert plan.dtype == np.dtype(np.complex64)
        assert all(s.matrix.dtype == np.complex64 for s in plan.segments)


class TestValidation:
    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError, match="complex64 or complex128"):
            SegmentCompiler(
                _bell_tail_circuit(), superop=False, dtype=np.float64
            )

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
                snapshot, circuit, [()], plan=compiler.tail_plan(3)
            )

    def test_plan_path_matches_plain_snapshot_run(self):
        circuit = _bell_tail_circuit()
        for backend in (StatevectorSimulator(), DensityMatrixSimulator()):
            compiler = backend.tail_compiler(circuit)
            for stop in range(len(circuit.instructions) + 1):
                snapshot = backend.prefix_snapshot(circuit, stop=stop)
                plain = backend.run_from_snapshot(snapshot, circuit)
                planned = backend.run_branches_from_snapshot(
                    snapshot, circuit, [()], plan=compiler.tail_plan(stop)
                ).result(0)
                assert (
                    plain.get_probabilities() == planned.get_probabilities()
                )
