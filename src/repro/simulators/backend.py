"""Backend protocols and the one distribution path of the simulators.

Anything with a ``run(circuit, shots=...) -> Result`` method can execute a
QuFI campaign; the injector never needs to know whether the target is the
ideal simulator (scenario 1), the noisy simulator (scenario 2), or the
physical-machine emulator (scenario 3).

Exact backends additionally implement the *batched branch* protocol
(:class:`BatchedSnapshotBackend`): simulate a circuit prefix once, freeze
the resulting state in a :class:`SimulationSnapshot`, and evaluate many
fault branches of it as a single stacked array — ``(B, 2**n)``
statevectors or ``(B, 2**n, 2**n)`` density matrices. The campaign
executor (:mod:`repro.faults.executor`) uses this to amortise the shared
prefix of every fault spliced at the same injection point, which is where
campaign wall-clock time goes. The branches' private heads arrive as
:class:`BranchSlots`, one ``(qubits, gate name, (B, 2**k, 2**k))``
matrix stack per injector slot, and each slot applies as one contraction
across the batch; the shared tail runs as a compiled segment plan. The
result is a :class:`BranchBatch` of clbit-basis probability rows ready
for vectorized QVF scoring. Batched evaluation is a wall-clock
optimisation only: every row is bit-identical to ``run`` on that
branch's whole faulty circuit. The ``basis_tile`` keyword runs a
single-fault site on the linear response basis instead: the tail runs
once per matrix unit on the fault qubit (4 statevector or 10
density-matrix responses, whatever the number of branches) and each
branch combines them. The rows then agree with the direct ones to
rounding, not bit for bit; the campaign engine takes this path by
default, and a spec's ``bit_identical: true`` opts out of it.

The readout-mitigation wrapper over an exact backend implements the
protocol by delegation; a calibrated machine is the density matrix
under its noise model, so it needs nothing of its own. Backends that
sample inside ``run`` (the machine emulator, the trajectory simulator)
do not implement it, and campaigns run them per task on whole circuits;
the trajectory simulator batches a task's trajectories inside ``run``.

Every simulator builds its distributions on one path: qubit-basis rows
go through :func:`fold_readout_confusion` and then
:func:`batched_clbit_marginals` (:meth:`BranchBatch.from_rows` chains
the two). An exact ``run`` is a one-row batch of the state
``prefix_snapshot`` reaches at the end of the circuit, the trajectory
simulator's ``run`` a one-row batch of its averaged trajectories, and
``run_branches_from_snapshot`` a ``B``-row batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from ..quantum.circuit import Instruction, QuantumCircuit
from .sampler import Result

__all__ = [
    "Backend",
    "BatchedSnapshotBackend",
    "SimulationSnapshot",
    "BranchSlots",
    "BranchBatch",
    "supports_batched_branches",
    "uniform_head_slots",
    "single_fault_slot",
    "fold_readout_confusion",
    "batched_clbit_marginals",
]


@runtime_checkable
class Backend(Protocol):
    """Minimal execution interface."""

    name: str

    def run(
        self,
        circuit: QuantumCircuit,
        shots: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Result:
        """Execute ``circuit`` and return its outcome distribution."""
        ...


@dataclass(frozen=True)
class SimulationSnapshot:
    """Frozen mid-circuit simulator state, safe to branch from many times.

    ``state`` is the backend's state object (:class:`~repro.quantum.states.
    Statevector` or :class:`~repro.quantum.states.DensityMatrix`) after the
    first ``position`` instructions of the circuit; ``measure_map`` and
    ``measured`` carry the classical-register bookkeeping accumulated so
    far. Branching never mutates a snapshot: state evolution returns new
    state objects and the bookkeeping containers are copied per branch.
    """

    state: object
    measure_map: Dict[int, int]
    measured: FrozenSet[int]
    position: int


#: One injector slot of a branch batch: ``(qubits, gate name, (B, 2**k,
#: 2**k) matrix stack)``.
Slot = Tuple[Tuple[int, ...], str, np.ndarray]


@dataclass(frozen=True)
class BranchSlots:
    """The private heads of ``size`` fault branches, slot by slot.

    Every branch of a batch carries the same injector gates on the same
    qubits (campaigns batch one injection site at a time), so the heads
    travel as one :data:`Slot` per gate position: its qubits, its gate
    name (what noise models key channels on) and the ``(B, 2**k,
    2**k)`` stack of the branches' matrices, in branch order. ``len()``
    is the number of branches; branches with no head have no slots.
    """

    size: int
    slots: Tuple[Slot, ...] = ()

    def __post_init__(self) -> None:
        for qubits, name, matrices in self.slots:
            dim = 2 ** len(qubits)
            if np.shape(matrices) != (self.size, dim, dim):
                raise ValueError(
                    f"slot {name} on {qubits} holds a stack of shape "
                    f"{np.shape(matrices)}, not ({self.size}, {dim}, {dim})"
                )

    def __len__(self) -> int:
        return self.size

    def check_live(self, measured: AbstractSet[int]) -> None:
        """Slots must avoid already-measured qubits — the constraint the
        backends' serial advance loops enforce."""
        for qubits, name, _ in self.slots:
            touched = set(qubits) & set(measured)
            if touched:
                raise ValueError(
                    f"gate {name} on already-measured qubit(s) {touched}; "
                    "only terminal measurements are supported"
                )


@dataclass
class BranchBatch:
    """Outcome distributions of a batch of executions, as arrays.

    ``probabilities`` holds one clbit-basis distribution row per branch,
    shape ``(B, 2**key_width)``; column ``k`` is the probability of the
    bitstring ``format(k, f"0{key_width}b")``. ``present`` marks the
    columns a row's :class:`Result` holds: those some qubit-basis entry
    above ``1e-14`` reached (absent columns hold exactly 0.0). Build it
    with :meth:`from_rows`, the one distribution path every simulator's
    ``run`` and ``run_branches_from_snapshot`` takes.
    """

    probabilities: np.ndarray
    present: np.ndarray
    key_width: int
    num_clbits: int
    shots: Optional[int]
    metadata: Dict[str, object]

    @classmethod
    def from_rows(
        cls,
        rows: np.ndarray,
        measure_map: Dict[int, int],
        circuit: QuantumCircuit,
        shots: Optional[int],
        metadata: Dict[str, object],
        noise_model=None,
    ) -> "BranchBatch":
        """The batch of ``(B, 2**n)`` final qubit-basis distributions.

        ``noise_model``'s readout confusion folds into the rows
        (:func:`fold_readout_confusion`), and the rows then map onto
        ``circuit``'s classical register through ``measure_map``
        (:func:`batched_clbit_marginals`).
        """
        probabilities, present, key_width = batched_clbit_marginals(
            fold_readout_confusion(rows, measure_map, noise_model),
            measure_map,
            circuit,
        )
        return cls(
            probabilities=probabilities,
            present=present,
            key_width=key_width,
            num_clbits=circuit.num_clbits or circuit.num_qubits,
            shots=shots,
            metadata=metadata,
        )

    @property
    def size(self) -> int:
        """The number of rows (branches) in the batch."""
        return int(self.probabilities.shape[0])

    def result_probabilities(self) -> np.ndarray:
        """``probabilities`` as each row's :class:`Result` holds them.

        ``Result`` renormalises a distribution whose total drifts from 1
        by more than 1e-6; the same guard applies here, row by row. It
        never fires for the exact backends.
        """
        probabilities = self.probabilities
        totals = probabilities.sum(axis=-1)
        off = (totals > 0) & (np.abs(totals - 1.0) > 1e-6)
        if np.any(off):
            probabilities = probabilities.copy()
            probabilities[off] /= totals[off, np.newaxis]
        return probabilities

    def result(self, index: int) -> Result:
        """Materialise row ``index`` as a :class:`Result`.

        Sampled-mode scoring reads branches through it, one at a time in
        task order, to consume the campaign's random stream as the
        per-task loop does; every simulator's ``run`` returns its one
        row through it.
        """
        row = self.probabilities[index]
        keys = np.nonzero(self.present[index])[0]
        probabilities = {
            format(int(key), f"0{self.key_width}b"): float(row[key])
            for key in keys
        }
        return Result(
            probabilities,
            num_clbits=self.num_clbits,
            shots=self.shots,
            metadata=dict(self.metadata),
        )


@runtime_checkable
class BatchedSnapshotBackend(Backend, Protocol):
    """Exact backend that snapshots circuit prefixes and evaluates many
    branches of a snapshot as one array.

    :meth:`prefix_snapshot` freezes the state after a circuit prefix. A
    batched backend hands out a
    :class:`~repro.simulators.segments.SegmentCompiler` for a circuit via
    :meth:`tail_compiler`; the campaign engine passes the compiler's
    :class:`~repro.simulators.segments.TailPlan` for a snapshot position
    to :meth:`run_branches_from_snapshot`, with the branches' heads as
    :class:`BranchSlots` — one ``(qubits, gate name, (B, 2**k, 2**k))``
    stack per injector slot, gathered from the plan's table of fault
    matrices, never one instruction per branch — and the backend applies
    each slot as one stacked contraction and the shared tail as that
    plan's segments. :meth:`branch_state_nbytes` reports the
    bytes one branch's state occupies in a batch, which is what
    memory-budgeted tiling divides against. A backend that runs the
    linear response basis (``basis_tile``) names its number of tail runs
    a site in a ``basis_responses`` attribute; the campaign engine takes
    the basis only at sites holding at least that many faults.
    """

    def prefix_snapshot(
        self,
        circuit: QuantumCircuit,
        stop: Optional[int] = None,
        base: Optional[SimulationSnapshot] = None,
    ) -> SimulationSnapshot:
        """State after the first ``stop`` instructions of ``circuit``
        (all of them when ``None``).

        ``base`` may hold an earlier snapshot of the same circuit; when its
        position does not exceed ``stop`` the simulation continues from it
        instead of restarting at |0...0>, so a sweep over increasing
        injection positions pays for each circuit prefix exactly once.
        """
        ...

    def run_branches_from_snapshot(
        self,
        snapshot: SimulationSnapshot,
        circuit: QuantumCircuit,
        slots: BranchSlots,
        shots: Optional[int] = None,
        plan: Optional[object] = None,
        basis_tile: Optional[int] = None,
    ) -> BranchBatch:
        """Branch from ``snapshot`` once per branch of ``slots``, batched.

        Branch ``b``'s private continuation prefix is its matrix in each
        slot, applied slot by slot (unitary injector gates, on qubits not
        yet measured — checked once per slot); all branches then share
        the tail ``circuit.instructions[snapshot.position:]``, applied as
        ``plan`` (the tail compiled for ``snapshot.position``; compiled
        here when ``None``). Row ``b`` of the returned batch is
        bit-identical to :meth:`Backend.run` on the whole circuit with
        branch ``b``'s gates spliced in at ``snapshot.position``. With
        ``basis_tile`` set, there must be one slot, on one qubit, and the
        rows come from the linear response basis instead, its responses
        built at most ``basis_tile`` at a time; the engine then passes
        the folded plan (``tail_plan(position, folded=True)``).
        """
        ...

    def tail_compiler(self, circuit: QuantumCircuit):
        """A segment compiler for ``circuit`` matching this backend's
        state representation (unitary segments for statevectors,
        superoperator segments with the noise channels for density
        matrices)."""
        ...

    def branch_state_nbytes(self, num_qubits: int) -> int:
        """Bytes one branch's exact (complex128) state occupies in a
        batch: ``16 * 2**n`` for statevectors, ``16 * 4**n`` for density
        matrices."""
        ...


def supports_batched_branches(backend: object) -> bool:
    """True when ``backend`` implements the batched branch protocol."""
    return isinstance(backend, BatchedSnapshotBackend)


def single_fault_slot(slots: BranchSlots) -> Slot:
    """The one slot of a single-fault site: ``(qubits, gate name, (B, 2,
    2) matrix stack)``.

    The response basis needs every branch to be one single-qubit gate on
    the same qubit; anything else raises.
    """
    if len(slots.slots) != 1 or len(slots.slots[0][0]) != 1:
        raise ValueError(
            "the response basis runs single-fault sites only: every head "
            "must be one single-qubit gate on the same qubit"
        )
    return slots.slots[0]


def fold_readout_confusion(
    rows: np.ndarray,
    measure_map: Dict[int, int],
    noise_model=None,
) -> np.ndarray:
    """Fold per-qubit readout confusion into ``(B, 2**n)`` qubit-basis
    distribution rows.

    Readout acts on the classical outcome of each measured qubit
    independently: its ``2 x 2`` confusion matrix contracts with that
    qubit's axis of every row, one ``tensordot`` a qubit. Without a
    noise model or measurements the rows come back unchanged.
    """
    if noise_model is None or not measure_map:
        return rows
    num_qubits = rows.shape[1].bit_length() - 1
    tensor = rows.reshape([rows.shape[0]] + [2] * num_qubits)
    for qubit in set(measure_map.values()):
        confusion = noise_model.readout_confusion(qubit)
        if confusion is None:
            continue
        axis = num_qubits - qubit  # qubit q is bit q; axis 0 is the row
        tensor = np.moveaxis(
            np.tensordot(confusion, tensor, axes=([1], [axis])), 0, axis
        )
    return tensor.reshape(rows.shape)


@functools.lru_cache(maxsize=64)
def _clbit_keys(
    num_qubits: int, measure_items: Tuple[Tuple[int, int], ...]
) -> np.ndarray:
    """The classical-register key of every qubit-basis index, for the
    ``(clbit, qubit)`` pairs of a measure map (read-only)."""
    indices = np.arange(2**num_qubits)
    key_of = np.zeros(2**num_qubits, dtype=np.intp)
    for clbit, qubit in measure_items:
        key_of |= ((indices >> qubit) & 1) << clbit
    key_of.flags.writeable = False
    return key_of


def batched_clbit_marginals(
    qubit_probs: np.ndarray,
    measure_map: Dict[int, int],
    circuit: QuantumCircuit,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Project a batch of qubit-basis distributions onto the classical
    register: ``(B, 2**n)`` rows in, ``(probabilities, present,
    key_width)`` out.

    Entries above ``1e-14`` contribute; each adds to its clbit key in
    ascending basis-index order, starting from 0.0 (``np.bincount``
    accumulates in input order), so a sum's bits depend on its row
    alone. ``present`` marks the keys some entry reached. Without
    measurements the full qubit distribution is returned (the
    exact-probability-mode convention).
    """
    num_qubits = circuit.num_qubits
    if not measure_map:
        present = qubit_probs > 1e-14
        return np.where(present, qubit_probs, 0.0), present, num_qubits
    num_clbits = circuit.num_clbits
    width = 2**num_clbits
    key_of = _clbit_keys(num_qubits, tuple(sorted(measure_map.items())))
    rows, cols = np.nonzero(qubit_probs > 1e-14)
    flat = rows * width + key_of[cols]
    size = qubit_probs.shape[0] * width
    probabilities = np.bincount(
        flat, weights=qubit_probs[rows, cols], minlength=size
    )
    present = np.zeros(size, dtype=bool)
    present[flat] = True
    return (
        probabilities.reshape(-1, width),
        present.reshape(-1, width),
        num_clbits,
    )


def uniform_head_slots(
    heads: Sequence[Sequence[Instruction]],
) -> BranchSlots:
    """The :class:`BranchSlots` of explicit per-branch heads.

    Each element of ``heads`` is one branch's injector gates. Heads must
    align: the same number of unitary gates, slot by slot on the same
    qubits with the same gate name, only the angles differing — how a
    campaign batches one injection site. Anything else raises.
    """
    length = len(heads[0]) if heads else 0
    if any(len(head) != length for head in heads):
        raise ValueError("branch heads must have one gate per slot")
    slots = []
    for slot in range(length):
        qubits, name = heads[0][slot].qubits, heads[0][slot].name
        for head in heads:
            inst = head[slot]
            if not inst.is_unitary():
                raise ValueError(
                    f"branch heads must be unitary instructions, got "
                    f"{inst.name}"
                )
            if inst.qubits != qubits or inst.name != name:
                raise ValueError(
                    "branch heads must align slot-wise: same qubits and "
                    "gate name in every branch"
                )
        matrices = np.stack([head[slot].gate.matrix for head in heads])
        slots.append((qubits, name, matrices))
    return BranchSlots(len(heads), tuple(slots))
