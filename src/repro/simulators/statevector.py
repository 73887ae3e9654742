"""Ideal (noise-free) statevector simulator — the paper's scenario (1).

``run`` advances the state gate by gate through the whole circuit
(:meth:`StatevectorSimulator.prefix_snapshot`, the naive loop's
evolution) and reads its probabilities as a one-row
:class:`~repro.simulators.backend.BranchBatch`, the distribution path
``run_branches_from_snapshot`` takes for ``B`` fault branches.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

import numpy as np

from ..quantum.circuit import Instruction, QuantumCircuit
from ..quantum.gates import Barrier, Measure, Reset
from ..quantum.states import Statevector
from .backend import (
    BranchBatch,
    BranchSlots,
    SimulationSnapshot,
    single_fault_slot,
)
from .sampler import Result
from .segments import SegmentCompiler, TailPlan, apply_plan, combine_responses

__all__ = ["StatevectorSimulator"]


class StatevectorSimulator:
    """Exact pure-state simulation.

    Measurements must be terminal (no gate may follow a measurement on the
    same qubit); the result is the exact outcome distribution over the
    classical register, optionally sub-sampled at a shot budget.

    Implements the batched branch protocol of
    :class:`~repro.simulators.backend.BatchedSnapshotBackend`: campaigns
    freeze the state after a circuit prefix once and evaluate every fault
    branch of it as one row of a ``(B, 2**n)`` array, skipping the
    redundant prefix re-simulation of the naive sweep.

    Sampling is opt-in and per-run: without a run ``seed`` the exact
    distribution is returned even at a shot budget (campaign code owns
    re-sampling and its random stream), while ``run(..., shots, seed)``
    samples from ``default_rng(seed)`` — never from instance state — so
    two simulator instances given the same run seed agree exactly. The
    constructor ``seed`` only primes ``self._rng``, which exists for
    protocol symmetry with the stateful backends (parallel campaign
    workers reseed it); no execution path draws from it.
    """

    name = "statevector_simulator"
    #: Tail runs of a site on the linear response basis: the matrix
    #: units ``|a><b|`` on the fault qubit.
    basis_responses = 4

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = np.random.default_rng(seed)

    def run(
        self,
        circuit: QuantumCircuit,
        shots: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Result:
        """The outcome distribution of ``circuit``: its final state's
        probabilities as a one-row batch.

        Without a ``seed`` the exact distribution is returned even when
        ``shots`` is set, leaving re-sampling to the caller (campaign code
        owns the random stream). With both ``shots`` and ``seed`` the
        distribution is sampled here from ``default_rng(seed)`` — the
        per-run seed fully overrides the instance stream, so two simulator
        instances given the same run seed agree exactly.
        """
        snapshot = self.prefix_snapshot(circuit)
        result = self._batch(
            snapshot.state.probabilities()[np.newaxis],
            snapshot.measure_map,
            circuit,
            shots,
        ).result(0)
        if seed is None:
            return result
        result.metadata["seed"] = seed
        if shots is None:
            return result
        counts = result.sample_counts(shots, np.random.default_rng(seed))
        return Result(
            counts.probabilities(),
            num_clbits=result.num_clbits,
            shots=shots,
            # Shot noise: no longer the exact distribution.
            metadata={**result.metadata, "sampled": True, "ideal": False},
        )

    # ------------------------------------------------------------------
    # Batched branch protocol
    # ------------------------------------------------------------------
    def prefix_snapshot(
        self,
        circuit: QuantumCircuit,
        stop: Optional[int] = None,
        base: Optional[SimulationSnapshot] = None,
    ) -> SimulationSnapshot:
        """State after instructions ``[0, stop)`` of ``circuit``.

        When ``base`` is an earlier snapshot of the same circuit (its
        position not past ``stop``), simulation resumes from it instead of
        restarting at |0...0>.
        """
        instructions = circuit.instructions
        stop = len(instructions) if stop is None else int(stop)
        if not 0 <= stop <= len(instructions):
            raise ValueError(
                f"stop {stop} outside [0, {len(instructions)}]"
            )
        if base is not None and base.position <= stop:
            state = base.state
            measure_map = dict(base.measure_map)
            measured = set(base.measured)
            start = base.position
        else:
            state = Statevector.zero_state(circuit.num_qubits)
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
        """Evaluate one fault branch per branch of ``slots`` as a single
        statevector batch.

        The frozen prefix state is stacked ``B`` times into a ``(B, 2**n)``
        array; each slot's injector rotations apply as one stacked
        contraction over the batch axis, and the shared tail
        ``circuit.instructions[snapshot.position:]`` applies to the whole
        batch as ``plan`` — the tail compiled for ``snapshot.position``,
        compiled here when the caller passes none. Slots and tail run
        through :func:`~repro.simulators.segments.apply_plan`. Row ``b``
        is bit-identical to :meth:`run` on the whole circuit with branch
        ``b``'s gates spliced in at ``snapshot.position``.

        With ``basis_tile`` set, a single-fault site runs on the linear
        response basis instead: the tail runs on the four states
        ``|a><b|_q psi`` (at most ``basis_tile`` at a time), and branch
        ``U`` takes the amplitudes ``sum_ab U_ab R_ab``.
        """
        if plan is None:
            plan = self.tail_compiler(circuit).tail_plan(snapshot.position)
        plan.check_start(snapshot.position)
        slots.check_live(snapshot.measured)
        measure_map = dict(snapshot.measure_map)
        measure_map.update(plan.measures)
        if basis_tile is None:
            batch = np.repeat(
                snapshot.state.data[np.newaxis, :], len(slots), axis=0
            )
            head_ops = [
                ("unitary", qubits, matrices)
                for qubits, _, matrices in slots.slots
            ]
            qubit_probs = np.abs(apply_plan(batch, plan, head_ops)) ** 2
        else:
            qubit_probs = _basis_probabilities(
                snapshot, slots, plan, basis_tile
            )
        return self._batch(qubit_probs, measure_map, circuit, shots)

    def _batch(
        self,
        qubit_probs: np.ndarray,
        measure_map: Dict[int, int],
        circuit: QuantumCircuit,
        shots: Optional[int],
    ) -> BranchBatch:
        """``(B, 2**n)`` final-state probabilities as a branch batch."""
        return BranchBatch.from_rows(
            qubit_probs,
            measure_map,
            circuit,
            shots,
            {"backend": self.name, "ideal": True},
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _advance(
        state: Statevector,
        instructions: Iterable[Instruction],
        measure_map: Dict[int, int],
        measured: Set[int],
    ) -> Statevector:
        """Evolve ``state`` through ``instructions``, tracking measurements.

        ``measure_map`` and ``measured`` are mutated in place; the state is
        immutable and each gate application returns a fresh object.
        """
        for inst in instructions:
            if isinstance(inst.gate, Barrier):
                continue
            if isinstance(inst.gate, Measure):
                measure_map[inst.clbits[0]] = inst.qubits[0]
                measured.add(inst.qubits[0])
                continue
            if isinstance(inst.gate, Reset):
                raise ValueError(
                    "reset requires the density-matrix simulator"
                )
            touched = set(inst.qubits) & measured
            if touched:
                raise ValueError(
                    f"gate {inst.name} on already-measured qubit(s) {touched}; "
                    "only terminal measurements are supported"
                )
            state = state.evolve(inst.gate, inst.qubits)
        return state

    def tail_compiler(self, circuit: QuantumCircuit) -> SegmentCompiler:
        """A unitary segment compiler for ``circuit`` (pure states carry
        no noise, so segments are plain unitaries)."""
        return SegmentCompiler(circuit, superop=False)

    def branch_state_nbytes(self, num_qubits: int) -> int:
        """Bytes per branch in an exact batch: one complex128 amplitude
        per basis state."""
        return 16 * 2**num_qubits


# The matrix units |a><b| of one qubit, in row-major order: a single-qubit
# unitary is sum_k U.flat[k] * _UNITS[k].
_UNITS = np.eye(4, dtype=complex).reshape(4, 2, 2)


def _basis_probabilities(
    snapshot: SimulationSnapshot,
    slots: BranchSlots,
    plan: TailPlan,
    tile: int,
) -> np.ndarray:
    """Qubit-basis probabilities of a single-fault site's branches, from
    the tail's responses to the matrix units on the fault qubit."""
    qubits, _, matrices = single_fault_slot(slots)
    state = snapshot.state.data[np.newaxis, :]
    responses = np.concatenate(
        [
            apply_plan(
                np.repeat(state, len(units), axis=0),
                plan,
                [("unitary", qubits, units)],
            )
            for units in np.split(_UNITS, range(tile, len(_UNITS), tile))
        ]
    )
    weights = matrices.reshape(len(matrices), len(_UNITS))
    real = combine_responses(weights, responses)
    # -1j * w swaps and negates w's components exactly: Re of the
    # combination with it is the imaginary part of the amplitudes.
    imag = combine_responses(-1j * weights, responses)
    return real * real + imag * imag

