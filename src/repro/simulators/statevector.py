"""Ideal (noise-free) statevector simulator — the paper's scenario (1)."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set

import numpy as np

from ..quantum.circuit import Instruction, QuantumCircuit
from ..quantum.gates import Barrier, Measure, Reset
from ..quantum.states import Statevector, format_bitstring
from .backend import (
    BranchBatch,
    BranchSlots,
    SimulationSnapshot,
    batched_clbit_marginals,
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

    Implements the snapshot/branch protocol of
    :class:`~repro.simulators.backend.SnapshotBackend`: campaigns freeze the
    state after a circuit prefix once and branch every fault continuation
    from it, skipping the redundant prefix re-simulation of the naive sweep.
    Also implements the batched extension
    (:class:`~repro.simulators.backend.BatchedSnapshotBackend`): many fault
    branches of one snapshot evaluate as a single ``(B, 2**n)`` array.

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
        snapshot = self.prefix_snapshot(circuit, stop=0)
        return self.run_from_snapshot(
            snapshot, circuit, circuit.instructions, shots=shots, seed=seed
        )

    # ------------------------------------------------------------------
    # Snapshot protocol
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

    def run_from_snapshot(
        self,
        snapshot: SimulationSnapshot,
        circuit: QuantumCircuit,
        tail: Optional[Sequence[Instruction]] = None,
        shots: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Result:
        """Branch from ``snapshot``, apply ``tail``, return the Result.

        ``tail`` defaults to the rest of ``circuit``; the fault injector
        passes the spliced continuation instead. The snapshot itself is
        never mutated, so many branches may share it.

        Without a ``seed`` the exact distribution is returned even when
        ``shots`` is set, leaving re-sampling to the caller (campaign code
        owns the random stream). With both ``shots`` and ``seed`` the
        distribution is sampled here from ``default_rng(seed)`` — the
        per-run seed fully overrides the instance stream, so two simulator
        instances given the same run seed agree exactly.
        """
        measure_map = dict(snapshot.measure_map)
        measured = set(snapshot.measured)
        if tail is None:
            tail = circuit.instructions[snapshot.position :]
        state = self._advance(snapshot.state, tail, measure_map, measured)
        probabilities = _marginal_clbit_distribution(
            state.probabilities(), measure_map, circuit
        )
        num_clbits = circuit.num_clbits or circuit.num_qubits
        metadata: Dict[str, object] = {"backend": self.name, "ideal": True}
        if seed is not None:
            metadata["seed"] = seed
            if shots is not None:
                exact = Result(probabilities, num_clbits=num_clbits)
                counts = exact.sample_counts(
                    shots, np.random.default_rng(seed)
                )
                metadata["sampled"] = True
                metadata["ideal"] = False  # shot noise, no longer exact
                return Result(
                    counts.probabilities(),
                    num_clbits=num_clbits,
                    shots=shots,
                    metadata=metadata,
                )
        return Result(
            probabilities,
            num_clbits=num_clbits,
            shots=shots,
            metadata=metadata,
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
        is bit-identical to :meth:`run_from_snapshot` with branch ``b``'s
        gates followed by ``circuit.instructions[snapshot.position:]``.

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
        probabilities, present, key_width = batched_clbit_marginals(
            qubit_probs, measure_map, circuit
        )
        return BranchBatch(
            probabilities=probabilities,
            present=present,
            key_width=key_width,
            num_clbits=circuit.num_clbits or circuit.num_qubits,
            shots=shots,
            metadata={"backend": self.name, "ideal": True},
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

    def statevector(self, circuit: QuantumCircuit) -> Statevector:
        """Final pure state of the measurement-free part of ``circuit``."""
        return Statevector.from_circuit(circuit)

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


def _marginal_clbit_distribution(
    qubit_probs: np.ndarray,
    measure_map: Dict[int, int],
    circuit: QuantumCircuit,
) -> Dict[str, float]:
    """Project a qubit-basis distribution onto the classical register.

    When the circuit has no measurements the full qubit distribution is
    returned (the convention campaign code relies on: exact-probability mode
    strips measurements and reads the state directly).
    """
    num_qubits = circuit.num_qubits
    if not measure_map:
        return {
            format_bitstring(i, num_qubits): float(p)
            for i, p in enumerate(qubit_probs)
            if p > 1e-14
        }
    num_clbits = circuit.num_clbits
    out: Dict[str, float] = {}
    for index, prob in enumerate(qubit_probs):
        if prob <= 1e-14:
            continue
        bits = ["0"] * num_clbits
        for clbit, qubit in measure_map.items():
            bits[num_clbits - 1 - clbit] = str(index >> qubit & 1)
        key = "".join(bits)
        out[key] = out.get(key, 0.0) + float(prob)
    return out
