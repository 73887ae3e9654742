"""Gate-segment compilation for campaign tails.

A fault campaign replays the *same* circuit suffix once per fault branch:
after prefix reuse and branch batching, the remaining cost of a sweep is
applying every shared tail operation to every branch. This module
compiles the operations between an injection position and the end of the
circuit into a :class:`TailPlan` of **segments** — unitaries
(statevector) or superoperators (density matrix, noise channels folded
in) — and a branch batch's tail always runs as such a plan: the matrix
construction is hoisted out of the sweep, and packed plans apply one
contraction per composed segment instead of one per gate.

Compilation is a pure function of ``(circuit, noise model, options)``:
two compilers over the same inputs produce bit-identical segment
matrices, which is what lets the in-process engine and its pool workers
(which rebuild their own compiler) agree bit for bit.

Bit-identity fine print
-----------------------
With ``pack=False`` — the default — the compiler emits one segment per
primitive operation: exactly the matrices, targets and order the
per-task advance loops use, so campaign records are bit-identical to
the naive per-injection re-simulation. Floating-point matrix composition
is not associative, so a *packed* plan agrees with it to ~1e-12 only,
while staying bit-identical across strategies and tile sizes; packing is
only reachable through the same explicit waiver as the fast path
(``ScenarioSpec.bit_identical = False``). The engine-versus-naive
equivalence tests in ``tests/faults/test_batched.py`` lock both
guarantees down.

The opt-in ``float32`` fast path compiles segments in ``complex64`` and,
when the optional ``opt_einsum`` package is installed, routes the
batched contractions through it; without it the standard kernels run on
the narrow dtype. Either way the fast path waives bit-identity and is
only reachable through an explicit waiver
(``ScenarioSpec.bit_identical = False``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..quantum.circuit import QuantumCircuit
from ..quantum.gates import Barrier, Measure, Reset
from ..quantum.linalg import (
    _front_axes,
    apply_superop_to_density_batch,
    apply_unitary_to_density_batch,
    apply_unitary_to_statevector_batch,
    expand_unitary,
    kraus_to_superoperator,
)

try:  # pragma: no cover - exercised only where opt_einsum is installed
    from opt_einsum import contract as _oe_contract

    HAVE_OPT_EINSUM = True
except ImportError:  # the supported baseline: plain numpy
    _oe_contract = None
    HAVE_OPT_EINSUM = False

__all__ = [
    "HAVE_OPT_EINSUM",
    "RESET_KRAUS",
    "RESET_SUPEROP",
    "FusedSegment",
    "TailPlan",
    "SegmentCompiler",
    "channel_superop_plan",
    "unitary_to_superoperator",
    "embed_unitary",
    "embed_superop",
    "apply_plan_to_statevector_batch",
    "apply_plan_to_density_batch",
]

# Widest support a fused *unitary* segment may grow to: a (2**m, 2**m)
# matrix applied per branch stays cheap up to the ~10-qubit circuits the
# exact backends handle.
DEFAULT_UNITARY_QUBITS = 10

# Widest support a fused *superoperator* segment may grow to. A superop
# on m qubits is (4**m, 4**m): m=4 is 65536 entries (1 MB complex), m=6
# would be 4 GB — composition cost explodes long before application
# wins, so noisy tails fuse in support-bounded runs.
DEFAULT_SUPEROP_QUBITS = 4


def channel_superop_plan(
    channel, qubits: Sequence[int], gate_name: str
) -> List[Tuple[np.ndarray, Tuple[int, ...]]]:
    """How a noise channel lands on a gate's qubits: (superop, targets) list.

    A channel matching the gate's arity acts once on all its qubits; a
    one-qubit channel on a multi-qubit gate acts on each participating
    qubit independently. Shared by the per-task advance loop, the
    batched head application *and* the segment compiler, so every
    execution path applies exactly the same superoperators in the same
    order.
    """
    if channel.num_qubits == len(qubits):
        return [(channel.superoperator, tuple(qubits))]
    if channel.num_qubits == 1:
        return [(channel.superoperator, (qubit,)) for qubit in qubits]
    raise ValueError(
        f"channel {channel.name!r} arity "
        f"{channel.num_qubits} does not match gate "
        f"{gate_name} on {len(qubits)} qubit(s)"
    )


# Reset re-prepares |0> through this fixed two-operator Kraus channel.
# Every execution path — per-task, batched heads, segment plans —
# applies it in superoperator form: same matrix, same contraction per
# slice, hence bit-identical.
RESET_KRAUS = (
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[0, 1], [0, 0]], dtype=complex),
)
RESET_SUPEROP = kraus_to_superoperator(RESET_KRAUS)


def unitary_to_superoperator(matrix: np.ndarray) -> np.ndarray:
    """The superoperator ``U (.) U^dagger`` of a unitary: ``U otimes U*``.

    Uses the same combined-index convention as
    :func:`~repro.quantum.linalg.kraus_to_superoperator`: ``(r, c) =
    r * 2**k + c`` with the row (ket) index in the high bits.
    """
    matrix = np.asarray(matrix, dtype=complex)
    return np.kron(matrix, matrix.conj())


def embed_unitary(
    matrix: np.ndarray, qubits: Sequence[int], support: Sequence[int]
) -> np.ndarray:
    """Embed a gate on ``qubits`` into the space spanned by ``support``.

    ``support`` is an ascending tuple of circuit qubits defining a local
    little-endian space (circuit qubit ``support[i]`` is local qubit
    ``i``); ``qubits`` keeps the gate's own qubit order, so arbitrary
    gate orientations embed correctly.
    """
    support = tuple(support)
    local = tuple(support.index(q) for q in qubits)
    if local == tuple(range(len(support))):
        return np.asarray(matrix, dtype=complex)
    return expand_unitary(matrix, local, len(support))


def embed_superop(
    superop: np.ndarray, qubits: Sequence[int], support: Sequence[int]
) -> np.ndarray:
    """Embed a ``k``-qubit superoperator into ``support``'s doubled space.

    The doubled space treats the combined index ``R * 2**m + C`` of an
    ``m``-qubit support as ``2m`` little-endian qubits: qubit ``j < m``
    is bit ``j`` of the column (bra) index, qubit ``m + j`` is bit ``j``
    of the row (ket) index — exactly the grouping
    :func:`~repro.quantum.linalg.apply_superop_to_density` contracts
    over. A superop acting on local positions ``p_i`` therefore embeds
    as a ``2m``-qubit gate on ``(p_0..p_{k-1}, m+p_0..m+p_{k-1})``.
    """
    support = tuple(support)
    m = len(support)
    local = tuple(support.index(q) for q in qubits)
    doubled = local + tuple(m + p for p in local)
    if doubled == tuple(range(2 * m)):
        return np.asarray(superop, dtype=complex)
    return expand_unitary(superop, doubled, 2 * m)


@dataclass(frozen=True)
class FusedSegment:
    """One precomposed operator covering a run of tail instructions.

    ``kind`` is ``"unitary"`` (a ``(2**k, 2**k)`` matrix applied as
    ``U rho U^dagger`` / ``U |psi>``) or ``"superop"`` (a ``(4**k,
    4**k)`` matrix over the doubled space); ``targets`` is the ascending
    circuit-qubit support; ``count`` records how many primitive
    operations (gates, channel applications, resets) were folded in.
    """

    kind: str
    targets: Tuple[int, ...]
    matrix: np.ndarray
    count: int


@dataclass(frozen=True)
class TailPlan:
    """The compiled form of a circuit tail ``instructions[start:]``.

    ``segments`` apply in order; ``measures`` is the tail's classical
    bookkeeping — ``(clbit, qubit)`` pairs in instruction order, applied
    after the segments (measurements are terminal and state-free in the
    exact backends, so deferring them cannot change the state).
    ``dtype`` is the dtype the segment matrices were compiled in
    (``complex64`` for the float32 fast path).
    """

    start: int
    segments: Tuple[FusedSegment, ...]
    measures: Tuple[Tuple[int, int], ...]
    dtype: np.dtype = field(default=np.dtype(np.complex128))

    @property
    def num_operations(self) -> int:
        """Primitive operations this plan folds into its segments."""
        return sum(segment.count for segment in self.segments)

    def check_start(self, position: int) -> None:
        """A plan only substitutes for the suffix it was compiled from."""
        if self.start != position:
            raise ValueError(
                f"tail plan compiled for position {self.start} cannot run "
                f"from a snapshot at position {position}"
            )


class SegmentCompiler:
    """Compiles (and caches) the tail plans of one circuit.

    One compiler per ``(circuit, noise model)`` pair; ``tail_plan(p)``
    returns the plan for the suffix ``circuit.instructions[p:]``,
    compiled once and cached, so a campaign sweeping every injection
    position pays for each tail exactly once — and campaigns *sharing*
    a compiler (the suite layer caches them in
    :class:`~repro.scenarios.factory.FactoryCache`) pay once across
    scenarios.

    ``superop=False`` compiles pure-unitary segments (the statevector
    backend); ``superop=True`` additionally folds the ``noise_model``'s
    gate channels and ``Reset`` into superoperator segments (the
    density-matrix backend). ``pack=False`` — the default — disables
    composition: every primitive operation becomes its own segment,
    which keeps plan execution bit-identical to the per-task advance
    loops (the repo's headline guarantee).
    ``pack=True`` additionally composes runs of compatible operations
    into one matrix per segment — the fastest mode, whose records are
    still bitwise-stable across executors and tile sizes but reorder
    floating-point products relative to the per-gate loops.
    ``max_unitary_qubits`` / ``max_superop_qubits`` bound how wide a
    packed segment's support may grow.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        *,
        superop: bool,
        noise_model=None,
        dtype=np.complex128,
        pack: bool = False,
        max_unitary_qubits: Optional[int] = None,
        max_superop_qubits: Optional[int] = None,
    ) -> None:
        self.circuit = circuit
        self.superop = bool(superop)
        self.noise_model = noise_model if self.superop else None
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.complex64), np.dtype(np.complex128)):
            raise ValueError(
                f"segment dtype must be complex64 or complex128, "
                f"got {self.dtype}"
            )
        self.pack = bool(pack)
        num_qubits = circuit.num_qubits
        self.max_unitary_qubits = min(
            num_qubits, max_unitary_qubits or DEFAULT_UNITARY_QUBITS
        )
        self.max_superop_qubits = min(
            num_qubits, max_superop_qubits or DEFAULT_SUPEROP_QUBITS
        )
        self._plans: Dict[int, TailPlan] = {}
        # Qubits measured before each position, so tail compilation can
        # enforce the terminal-measurement rule exactly as the serial
        # advance loops do against the snapshot's measured set.
        measured: frozenset = frozenset()
        prefixes = [measured]
        for inst in circuit.instructions:
            if isinstance(inst.gate, Measure):
                measured = measured | {inst.qubits[0]}
            prefixes.append(measured)
        self._measured_before = prefixes

    # ------------------------------------------------------------------
    def tail_plan(self, start: int) -> TailPlan:
        """The (cached) plan for the suffix ``instructions[start:]``."""
        plan = self._plans.get(start)
        if plan is None:
            plan = self._compile(start)
            self._plans[start] = plan
        return plan

    @property
    def key(self) -> tuple:
        """What the compiled plans depend on: equal keys compile
        bit-identical plans. Holds the identities of the circuit and the
        noise model, which the compiler keeps alive, so a live key can
        never alias another circuit."""
        return (
            id(self.circuit),
            self.superop,
            id(self.noise_model),
            self.dtype,
            self.pack,
            self.max_unitary_qubits,
            self.max_superop_qubits,
        )

    @property
    def compiled_positions(self) -> Tuple[int, ...]:
        """Tail starts compiled so far (cache introspection for tests)."""
        return tuple(sorted(self._plans))

    # ------------------------------------------------------------------
    def _primitive_ops(self, start: int):
        """The tail's primitive operation list, in per-gate order.

        Returns ``(ops, measures)`` where each op is ``(kind, targets,
        matrix)`` — exactly the kernel calls the per-task advance loop
        would make — and ``measures`` is the classical bookkeeping.
        Raises for gates on already-measured qubits and for ``Reset``
        outside superoperator mode, with the same messages as the
        advance loops (the tail would raise identically at run time).
        """
        ops: List[Tuple[str, Tuple[int, ...], np.ndarray]] = []
        measures: List[Tuple[int, int]] = []
        measured = set(self._measured_before[start])
        noise = self.noise_model
        for inst in self.circuit.instructions[start:]:
            gate = inst.gate
            if isinstance(gate, Barrier):
                continue
            if isinstance(gate, Measure):
                measures.append((inst.clbits[0], inst.qubits[0]))
                measured.add(inst.qubits[0])
                continue
            touched = set(inst.qubits) & measured
            if touched:
                raise ValueError(
                    f"gate {inst.name} on already-measured qubit(s) "
                    f"{touched}; only terminal measurements are supported"
                )
            if isinstance(gate, Reset):
                if not self.superop:
                    raise ValueError(
                        "reset requires the density-matrix simulator"
                    )
                ops.append(("superop", (inst.qubits[0],), RESET_SUPEROP))
                continue
            ops.append(("unitary", tuple(inst.qubits), gate.matrix))
            if noise is not None:
                channel = noise.channel_for(inst.name, inst.qubits)
                if channel is not None:
                    for superop, targets in channel_superop_plan(
                        channel, inst.qubits, inst.name
                    ):
                        ops.append(("superop", targets, superop))
        return ops, tuple(measures)

    def _compile(self, start: int) -> TailPlan:
        """Compile ``instructions[start:]`` into a :class:`TailPlan`."""
        instructions = self.circuit.instructions
        if not 0 <= start <= len(instructions):
            raise ValueError(
                f"start {start} outside [0, {len(instructions)}]"
            )
        ops, measures = self._primitive_ops(start)
        if not self.pack:
            segments = tuple(
                FusedSegment(
                    kind,
                    targets,
                    np.asarray(matrix).astype(self.dtype, copy=False),
                    1,
                )
                for kind, targets, matrix in ops
            )
            return TailPlan(start, segments, measures, self.dtype)
        return TailPlan(start, self._pack_ops(ops), measures, self.dtype)

    def _pack_ops(
        self, ops: Sequence[Tuple[str, Tuple[int, ...], np.ndarray]]
    ) -> Tuple[FusedSegment, ...]:
        """Greedily compose consecutive ops into support-bounded segments.

        A pending segment absorbs the next op whenever the merged
        support fits the relevant cap (unitary-with-unitary keeps the
        cheap unitary form; anything involving a superop promotes to a
        superoperator). Composition order is ``later @ earlier``, and
        supports are kept ascending, so the packing is deterministic —
        identical matrices bit for bit on every rebuild.
        """
        segments: List[FusedSegment] = []
        kind: Optional[str] = None
        support: Tuple[int, ...] = ()
        acc: Optional[np.ndarray] = None
        count = 0

        def flush() -> None:
            if acc is not None:
                segments.append(
                    FusedSegment(
                        kind, support, acc.astype(self.dtype, copy=False), count
                    )
                )

        for op_kind, targets, matrix in ops:
            matrix = np.asarray(matrix, dtype=complex)
            if acc is None:
                kind, support, acc, count = (
                    op_kind,
                    tuple(sorted(targets)),
                    embed_if_needed(op_kind, matrix, targets),
                    1,
                )
                continue
            merged = tuple(sorted(set(support) | set(targets)))
            merged_kind = (
                "superop"
                if "superop" in (kind, op_kind)
                else "unitary"
            )
            cap = (
                self.max_superop_qubits
                if merged_kind == "superop"
                else self.max_unitary_qubits
            )
            if len(merged) > cap:
                flush()
                kind, support, acc, count = (
                    op_kind,
                    tuple(sorted(targets)),
                    embed_if_needed(op_kind, matrix, targets),
                    1,
                )
                continue
            if merged_kind == "unitary":
                acc = embed_unitary(matrix, targets, merged) @ embed_unitary(
                    acc, support, merged
                )
            else:
                acc_superop = (
                    acc if kind == "superop" else unitary_to_superoperator(acc)
                )
                op_superop = (
                    matrix
                    if op_kind == "superop"
                    else unitary_to_superoperator(matrix)
                )
                acc = embed_superop(op_superop, targets, merged) @ embed_superop(
                    acc_superop, support, merged
                )
            kind, support, count = merged_kind, merged, count + 1
        flush()
        return tuple(segments)


def embed_if_needed(
    kind: str, matrix: np.ndarray, targets: Sequence[int]
) -> np.ndarray:
    """Reorder a fresh segment's matrix onto its ascending support.

    Segments store their support sorted ascending; a gate declared on
    e.g. ``(2, 0)`` must be re-expressed over ``(0, 2)`` before it can
    seed a segment.
    """
    support = tuple(sorted(targets))
    if tuple(targets) == support:
        return matrix
    if kind == "unitary":
        return embed_unitary(matrix, targets, support)
    return embed_superop(matrix, targets, support)


# ----------------------------------------------------------------------
# Plan application
# ----------------------------------------------------------------------
def _fast_apply_statevector(
    batch: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """The opt_einsum contraction of one unitary segment over a batch.

    Mirrors :func:`~repro.quantum.linalg.
    apply_unitary_to_statevector_batch` but contracts through
    ``opt_einsum``; only reached on the float32 fast path with
    ``opt_einsum`` installed.
    """
    size = batch.shape[0]
    k = len(targets)
    axes = tuple(a + 1 for a in _front_axes(targets, num_qubits))
    tensor = batch.reshape([size] + [2] * num_qubits)
    tensor = np.moveaxis(tensor, axes, range(1, k + 1))
    shape = tensor.shape
    tensor = _oe_contract(
        "ij,bjr->bir", matrix, tensor.reshape(size, 2**k, -1)
    )
    tensor = np.moveaxis(tensor.reshape(shape), range(1, k + 1), axes)
    return tensor.reshape(size, 2**num_qubits)


def _fast_apply_superop(
    batch: np.ndarray,
    superop: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """The opt_einsum contraction of one superop segment over a batch."""
    dim = 2**num_qubits
    size = batch.shape[0]
    k = len(targets)
    row_axes = _front_axes(targets, num_qubits)
    col_axes = tuple(a + num_qubits for a in row_axes)
    axes = tuple(a + 1 for a in row_axes + col_axes)
    tensor = batch.reshape([size] + [2] * (2 * num_qubits))
    tensor = np.moveaxis(tensor, axes, range(1, 2 * k + 1))
    shape = tensor.shape
    tensor = _oe_contract(
        "ij,bjr->bir", superop, tensor.reshape(size, 4**k, -1)
    )
    tensor = np.moveaxis(tensor.reshape(shape), range(1, 2 * k + 1), axes)
    return tensor.reshape(size, dim, dim)


def apply_plan_to_statevector_batch(
    batch: np.ndarray, plan: TailPlan, num_qubits: int
) -> np.ndarray:
    """Apply a tail plan across a ``(B, 2**n)`` statevector batch.

    Exact (complex128) plans route every segment through the standard
    per-slice GEMM kernel — the carrier of the batch==serial
    bit-identity guarantee. float32 plans cast the batch down once and,
    when ``opt_einsum`` is installed, contract through it instead.
    """
    fast = plan.dtype == np.dtype(np.complex64)
    if fast and batch.dtype != plan.dtype:
        batch = batch.astype(plan.dtype)
    for segment in plan.segments:
        if fast and _oe_contract is not None:
            batch = _fast_apply_statevector(
                batch, segment.matrix, segment.targets, num_qubits
            )
        else:
            batch = apply_unitary_to_statevector_batch(
                batch, segment.matrix, segment.targets, num_qubits
            )
    return batch


def apply_plan_to_density_batch(
    batch: np.ndarray, plan: TailPlan, num_qubits: int
) -> np.ndarray:
    """Apply a tail plan across a ``(B, 2**n, 2**n)`` density batch.

    Unitary segments apply as ``U rho U^dagger`` with the standard
    batched kernel; superop segments as one doubled-space contraction.
    The float32 fast path narrows the batch and, when ``opt_einsum`` is
    installed, contracts superop segments through it.
    """
    fast = plan.dtype == np.dtype(np.complex64)
    if fast and batch.dtype != plan.dtype:
        batch = batch.astype(plan.dtype)
    for segment in plan.segments:
        if segment.kind == "unitary":
            batch = apply_unitary_to_density_batch(
                batch, segment.matrix, segment.targets, num_qubits
            )
        elif fast and _oe_contract is not None:
            batch = _fast_apply_superop(
                batch, segment.matrix, segment.targets, num_qubits
            )
        else:
            batch = apply_superop_to_density_batch(
                batch, segment.matrix, segment.targets, num_qubits
            )
    return batch
