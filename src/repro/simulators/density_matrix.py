"""Exact noisy simulator — the paper's scenario (2).

Evolves the full density matrix, applying the ideal unitary of every gate
followed by the noise channel the :class:`~repro.simulators.noise.NoiseModel`
attaches to it, then folds per-qubit readout confusion into the final
distribution. The diagonal of the final state is the exact limit of the
1,024-shot sampling the paper performs, which lets campaigns trade shot noise
for determinism.

``run`` advances the state gate by gate, channel by channel, through the
whole circuit (:meth:`DensityMatrixSimulator.prefix_snapshot`, the naive
loop's evolution) and reads its diagonal as a one-row
:class:`~repro.simulators.backend.BranchBatch`: readout confusion folds in
and the row maps onto the classical register on the path
``run_branches_from_snapshot`` takes for ``B`` fault branches.

Like the statevector engine, this backend implements the batched branch
protocol (:class:`~repro.simulators.backend.BatchedSnapshotBackend`): the
mixed state after a circuit prefix — noise channels included — is frozen
once and every fault branch of it evaluates as one row of a stacked
array, bit-identical to ``run`` on the whole faulty circuit. A
single-fault site can run on the linear response basis instead
(``basis_tile``, the campaign engine's default): 10 tail runs on the
superoperator matrix units that Hermitian symmetry leaves distinct,
combined per fault, within rounding of the direct rows. Those runs take
the folded tail plan, each noisy gate one superoperator, and fold the
injector gate's noise into the matrix units, so a site's head is one op
too.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

import numpy as np

from ..quantum.circuit import Instruction, QuantumCircuit
from ..quantum.gates import Barrier, Measure, Reset
from ..quantum.states import DensityMatrix
from .backend import (
    BranchBatch,
    BranchSlots,
    SimulationSnapshot,
    single_fault_slot,
)
from .noise import NoiseModel
from .sampler import Result

# The channel plan and the Reset superoperator live in the segments
# module, which must apply exactly these operators when it folds noise
# and resets into superoperator segments. The per-task advance loop
# applies the Reset channel in superoperator form too (reset_qubit ->
# apply_kraus_to_density converts multi-operator channels to a
# superoperator) — same matrix, same contraction per slice, hence
# bit-identical.
from .segments import (
    SegmentCompiler,
    TailPlan,
    apply_plan,
    channel_superop_plan as _channel_superop_plan,
    combine_responses,
    fold_ops,
    gate_ops,
)

__all__ = ["DensityMatrixSimulator"]

# The superoperator matrix units of one qubit, in row-major order: a
# single-qubit channel's superoperator S is sum_k S.flat[k] * _UNITS[k].
# Unit k = 8r + 4c + 2r' + c' maps entry (r', c') of the fault qubit's
# block to entry (r, c); unit 8c + 4r + 2c' + r' maps the adjoint input.
# The noise and the tail preserve Hermiticity, so that unit's response
# is the adjoint of unit k's, and its weight in U (x) U* the conjugate:
# the pair contributes 2 Re(c_k d_k). The basis keeps the four
# self-adjoint units (0, 3, 12, 15) and one unit of each of the six
# adjoint pairs, whose weights it doubles.
_UNITS = np.eye(16, dtype=complex).reshape(16, 4, 4)
_KEPT = np.array([0, 1, 3, 4, 5, 6, 7, 12, 13, 15])
_BASIS_UNITS = _UNITS[_KEPT]
_PAIR_FACTOR = np.where(np.isin(_KEPT, (0, 3, 12, 15)), 1.0, 2.0)


class DensityMatrixSimulator:
    """Density-matrix execution with an optional instruction-level noise model."""

    name = "density_matrix_simulator"
    #: Tail runs of a site on the linear response basis: the
    #: superoperator matrix units Hermitian symmetry leaves distinct.
    basis_responses = len(_KEPT)

    def __init__(self, noise_model: Optional[NoiseModel] = None) -> None:
        self.noise_model = noise_model

    def run(
        self,
        circuit: QuantumCircuit,
        shots: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Result:
        """The exact outcome distribution of ``circuit``, readout
        confusion included: its final state's diagonal as a one-row
        batch. ``seed`` is only recorded in the metadata."""
        snapshot = self.prefix_snapshot(circuit)
        result = self._batch(
            _diagonals(snapshot.state.data[np.newaxis]),
            snapshot.measure_map,
            circuit,
            shots,
        ).result(0)
        if seed is not None:
            result.metadata["seed"] = seed
        return result

    # ------------------------------------------------------------------
    # Batched branch protocol
    # ------------------------------------------------------------------
    def prefix_snapshot(
        self,
        circuit: QuantumCircuit,
        stop: Optional[int] = None,
        base: Optional[SimulationSnapshot] = None,
    ) -> SimulationSnapshot:
        """Mixed state after instructions ``[0, stop)``, noise applied.

        ``base`` (an earlier snapshot of the same circuit, position not past
        ``stop``) lets a position sweep extend one running prefix instead of
        re-simulating from |0...0> per injection point.
        """
        instructions = circuit.instructions
        stop = len(instructions) if stop is None else int(stop)
        if not 0 <= stop <= len(instructions):
            raise ValueError(f"stop {stop} outside [0, {len(instructions)}]")
        if base is not None and base.position <= stop:
            state = base.state
            measure_map = dict(base.measure_map)
            measured = set(base.measured)
            start = base.position
        else:
            state = DensityMatrix.zero_state(circuit.num_qubits)
            measure_map = {}
            measured = set()
            start = 0
        state = self._advance(
            state, instructions[start:stop], measure_map, measured
        )
        return SimulationSnapshot(
            state=state,
            measure_map=measure_map,
            measured=frozenset(measured),
            position=stop,
        )

    def run_branches_from_snapshot(
        self,
        snapshot: SimulationSnapshot,
        circuit: QuantumCircuit,
        slots: BranchSlots,
        shots: Optional[int] = None,
        plan: Optional[TailPlan] = None,
        basis_tile: Optional[int] = None,
    ) -> BranchBatch:
        """Evaluate one fault branch per branch of ``slots`` as a
        density-matrix batch.

        The frozen mixed state is stacked into a ``(B, 2**n, 2**n)`` array;
        each slot's injector rotations (with their noise channel, if the
        model attaches one to the injector gate) apply as stacked
        contractions, and the shared tail — gates, channels, resets —
        applies across the whole batch as ``plan``, the tail compiled for
        ``snapshot.position`` with this backend's noise model folded in
        (compiled here when the caller passes none). Slots and tail run
        through :func:`~repro.simulators.segments.apply_plan`; readout
        confusion follows. Row ``b`` is bit-identical to :meth:`run` on
        the whole circuit with branch ``b``'s gates spliced in at
        ``snapshot.position``.

        With ``basis_tile`` set, a single-fault site runs on the linear
        response basis instead: the tail, preceded by the injector
        gate's noise, runs on 10 operators ``E_k rho`` (``E_k`` the
        superoperator matrix units on the fault qubit that Hermitian
        symmetry leaves distinct, at most ``basis_tile`` at a time),
        only each response's diagonal is kept, and branch ``U`` takes
        the diagonal ``Re sum_k c_k d_k`` with ``c`` the flattened
        superoperator of ``U``, doubled on the units that stand for an
        adjoint pair. Compiled here, that tail is the folded plan.
        """
        if plan is None:
            plan = self.tail_compiler(circuit).tail_plan(
                snapshot.position, folded=basis_tile is not None
            )
        plan.check_start(snapshot.position)
        slots.check_live(snapshot.measured)
        measure_map = dict(snapshot.measure_map)
        measure_map.update(plan.measures)
        if basis_tile is None:
            batch = np.repeat(
                snapshot.state.data[np.newaxis, :, :], len(slots), axis=0
            )
            # A slot's noise channel is shared by construction, so its
            # superoperators follow the stacked unitary as plain ops.
            head_ops = [
                op
                for qubits, name, matrices in slots.slots
                for op in gate_ops(name, qubits, matrices, self.noise_model)
            ]
            probs = _diagonals(apply_plan(batch, plan, head_ops))
        else:
            probs = self._basis_diagonals(snapshot, slots, plan, basis_tile)
        return self._batch(probs, measure_map, circuit, shots)

    def _batch(
        self,
        diagonals: np.ndarray,
        measure_map: Dict[int, int],
        circuit: QuantumCircuit,
        shots: Optional[int],
    ) -> BranchBatch:
        """``(B, 2**n)`` final-state diagonals as a branch batch: clipped
        and normalised, then this model's readout confusion folds in."""
        return BranchBatch.from_rows(
            _clip_and_normalise(diagonals),
            measure_map,
            circuit,
            shots,
            {
                "backend": self.name,
                "noise_model": (
                    self.noise_model.name if self.noise_model else None
                ),
            },
            noise_model=self.noise_model,
        )

    def _basis_diagonals(
        self,
        snapshot: SimulationSnapshot,
        slots: BranchSlots,
        plan: TailPlan,
        tile: int,
    ) -> np.ndarray:
        """Real diagonals of a single-fault site's final states, from the
        tail's responses to the 10 distinct superoperator matrix units."""
        qubits, name, matrices = single_fault_slot(slots)
        _, *noise = gate_ops(name, qubits, _BASIS_UNITS, self.noise_model)
        # The injector gate's noise folds into each unit (a noiseless
        # gate folds to the identity): one head op.
        units = fold_ops(noise, qubits) @ _BASIS_UNITS
        state = snapshot.state.data[np.newaxis, :, :]
        responses = np.concatenate(
            [
                np.diagonal(
                    apply_plan(
                        np.repeat(state, len(part), axis=0),
                        plan,
                        [("superop", qubits, part)],
                    ),
                    axis1=-2,
                    axis2=-1,
                ).copy()
                for part in np.split(units, range(tile, len(units), tile))
            ]
        )
        # Row b is U_b (x) conj(U_b) flattened, the products np.kron forms.
        weights = (
            matrices[:, :, np.newaxis, :, np.newaxis]
            * matrices.conj()[:, np.newaxis, :, np.newaxis, :]
        ).reshape(len(matrices), len(_UNITS))
        return combine_responses(weights[:, _KEPT] * _PAIR_FACTOR, responses)

    def tail_compiler(self, circuit: QuantumCircuit) -> SegmentCompiler:
        """A superoperator segment compiler for ``circuit`` with this
        backend's noise model folded into the segments."""
        return SegmentCompiler(
            circuit, superop=True, noise_model=self.noise_model
        )

    def branch_state_nbytes(self, num_qubits: int) -> int:
        """Bytes per branch in an exact batch: a full complex128 density
        matrix."""
        return 16 * 4**num_qubits

    # ------------------------------------------------------------------
    def density_matrix(self, circuit: QuantumCircuit) -> DensityMatrix:
        """Final mixed state (measurements skipped, noise applied)."""
        return self.prefix_snapshot(circuit).state

    def _advance(
        self,
        state: DensityMatrix,
        instructions: Iterable[Instruction],
        measure_map: Dict[int, int],
        measured: Set[int],
    ) -> DensityMatrix:
        """Evolve ``state`` through ``instructions`` with noise channels.

        ``measure_map`` and ``measured`` are mutated in place; the state is
        immutable and each operation returns a fresh object.
        """
        noise = self.noise_model
        for inst in instructions:
            if isinstance(inst.gate, Barrier):
                continue
            if isinstance(inst.gate, Measure):
                measure_map[inst.clbits[0]] = inst.qubits[0]
                measured.add(inst.qubits[0])
                continue
            touched = set(inst.qubits) & measured
            if touched:
                raise ValueError(
                    f"gate {inst.name} on already-measured qubit(s) {touched}; "
                    "only terminal measurements are supported"
                )
            if isinstance(inst.gate, Reset):
                state = state.reset_qubit(inst.qubits[0])
                continue
            state = state.evolve(inst.gate, inst.qubits)
            if noise is not None:
                channel = noise.channel_for(inst.name, inst.qubits)
                if channel is not None:
                    for superop, targets in _channel_superop_plan(
                        channel, inst.qubits, inst.name
                    ):
                        state = state.apply_superop(superop, targets)
        return state


def _diagonals(states: np.ndarray) -> np.ndarray:
    """The real diagonals of a ``(B, 2**n, 2**n)`` density-matrix stack,
    as a writable ``(B, 2**n)`` array."""
    return np.real(np.diagonal(states, axis1=-2, axis2=-1)).copy()


def _clip_and_normalise(probs: np.ndarray) -> np.ndarray:
    """Diagonal distributions, row by row exactly as
    :meth:`~repro.quantum.states.DensityMatrix.probabilities` computes
    them: clip negatives, normalise (in place)."""
    probs[probs < 0] = 0.0
    totals = probs.sum(axis=-1)
    positive = totals > 0
    probs[positive] /= totals[positive, np.newaxis]
    return probs
