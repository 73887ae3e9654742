"""Backend protocols shared by simulators and machine emulators.

Anything with a ``run(circuit, shots=...) -> Result`` method can execute a
QuFI campaign; the injector never needs to know whether the target is the
ideal simulator (scenario 1), the noisy simulator (scenario 2), or the
physical-machine emulator (scenario 3).

Exact backends can additionally implement the *snapshot* protocol
(:class:`SnapshotBackend`): simulate a circuit prefix once, freeze the
resulting state in a :class:`SimulationSnapshot`, and branch many
continuations from it. The campaign executor
(:mod:`repro.faults.executor`) uses this to amortise the shared prefix of
every fault spliced at the same injection point, which is where campaign
wall-clock time goes. The readout-mitigation wrapper over an exact
backend implements it by delegation; a calibrated machine is the density
matrix under its noise model, so it needs nothing of its own. Backends
that sample inside ``run`` (the machine emulator, the trajectory
simulator) do not implement it, and campaigns run them per task on whole
circuits; the trajectory simulator batches a task's trajectories inside
``run``.

On top of snapshots sits the *batched branch* protocol
(:class:`BatchedSnapshotBackend`): evaluate many fault branches of one
snapshot as a single stacked array — ``(B, 2**n)`` statevectors or
``(B, 2**n, 2**n)`` density matrices. The branches' private heads
arrive as :class:`BranchSlots`, one ``(qubits, gate name, (B, 2**k,
2**k))`` matrix stack per injector slot, and each slot applies as one
contraction across the batch; the shared tail runs as a compiled
segment plan. The result is a :class:`BranchBatch` of
clbit-basis probability rows ready for vectorized QVF scoring. Batched
evaluation is a wall-clock optimisation only: every row is
bit-identical to what :meth:`SnapshotBackend.run_from_snapshot` would
produce for that branch. The ``basis_tile`` keyword runs a single-fault
site on the linear response basis instead: the tail runs once per
matrix unit on the fault qubit (4 statevector or 10 density-matrix
responses, whatever the number of branches) and each branch combines
them. The rows then agree with the direct ones to rounding, not bit for
bit; the campaign engine takes this path by default, and a spec's
``bit_identical: true`` opts out of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "SnapshotBackend",
    "BatchedSnapshotBackend",
    "SimulationSnapshot",
    "BranchSlots",
    "BranchBatch",
    "supports_snapshots",
    "supports_batched_branches",
    "uniform_head_slots",
    "single_fault_slot",
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


@runtime_checkable
class SnapshotBackend(Backend, Protocol):
    """Exact backend that supports prefix snapshots and branching."""

    def prefix_snapshot(
        self,
        circuit: QuantumCircuit,
        stop: Optional[int] = None,
        base: Optional[SimulationSnapshot] = None,
    ) -> SimulationSnapshot:
        """State after the first ``stop`` instructions of ``circuit``.

        ``base`` may hold an earlier snapshot of the same circuit; when its
        position does not exceed ``stop`` the simulation continues from it
        instead of restarting at |0...0>, so a sweep over increasing
        injection positions pays for each circuit prefix exactly once.
        """
        ...

    def run_from_snapshot(
        self,
        snapshot: SimulationSnapshot,
        circuit: QuantumCircuit,
        tail: Optional[Sequence[Instruction]] = None,
        shots: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Result:
        """Branch from ``snapshot``, apply ``tail``, and score the output.

        ``tail`` defaults to the remaining instructions of ``circuit``;
        fault injection passes the spliced continuation (injector gate(s)
        plus the original suffix) instead. The returned :class:`Result` is
        bit-identical to running the equivalent full circuit through
        :meth:`Backend.run`.
        """
        ...


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
    """Outcome distributions of a batch of fault branches, as arrays.

    ``probabilities`` holds one clbit-basis distribution row per branch,
    shape ``(B, 2**key_width)``; column ``k`` is the probability of the
    bitstring ``format(k, f"0{key_width}b")``. Rows are accumulated with
    the same ``> 1e-14`` threshold and the same ascending-basis-index
    order as the serial marginalisation, so a row is numerically *the*
    dictionary :meth:`SnapshotBackend.run_from_snapshot` would return —
    ``present`` marks which columns that dictionary would actually
    contain (absent columns hold exactly 0.0).
    """

    probabilities: np.ndarray
    present: np.ndarray
    key_width: int
    num_clbits: int
    shots: Optional[int]
    metadata: Dict[str, object]

    @property
    def size(self) -> int:
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
        """Materialise branch ``index`` as the equivalent serial Result.

        Used by sampled-mode scoring, which must consume the campaign's
        random stream one branch at a time in task order.
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
class BatchedSnapshotBackend(SnapshotBackend, Protocol):
    """Snapshot backend that evaluates many branches as one array.

    A batched backend hands out a
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
        bit-identical to :meth:`SnapshotBackend.run_from_snapshot` on
        branch ``b``'s gates followed by that tail. With ``basis_tile``
        set, there must be one slot, on one qubit, and the rows come
        from the linear response basis instead, its responses built at
        most ``basis_tile`` at a time; the engine then passes the folded
        plan (``tail_plan(position, folded=True)``).
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


def supports_snapshots(backend: object) -> bool:
    """True when ``backend`` implements the snapshot/branch protocol."""
    return isinstance(backend, SnapshotBackend)


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


def batched_clbit_marginals(
    qubit_probs: np.ndarray,
    measure_map: Dict[int, int],
    circuit: QuantumCircuit,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Project a batch of qubit-basis distributions onto the classical
    register: ``(B, 2**n)`` rows in, ``(probabilities, present,
    key_width)`` out.

    Row ``b`` reproduces the serial per-branch marginal dictionary
    exactly: the same ``> 1e-14`` threshold decides which entries exist,
    and ``np.add.at`` accumulates contributions in the same
    ascending-basis-index order as the serial loop, so the sums are
    bit-identical, not merely close. Without measurements the full qubit
    distribution is returned (the exact-probability-mode convention).
    """
    num_qubits = circuit.num_qubits
    if not measure_map:
        present = qubit_probs > 1e-14
        return np.where(present, qubit_probs, 0.0), present, num_qubits
    num_clbits = circuit.num_clbits
    indices = np.arange(2**num_qubits)
    key_of = np.zeros(2**num_qubits, dtype=np.intp)
    for clbit, qubit in measure_map.items():
        key_of |= ((indices >> qubit) & 1) << clbit
    rows, cols = np.nonzero(qubit_probs > 1e-14)
    probabilities = np.zeros((qubit_probs.shape[0], 2**num_clbits))
    np.add.at(probabilities, (rows, key_of[cols]), qubit_probs[rows, cols])
    present = np.zeros(probabilities.shape, dtype=bool)
    present[rows, key_of[cols]] = True
    return probabilities, present, num_clbits


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
