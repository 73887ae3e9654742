"""Gate-segment compilation for campaign tails.

A fault campaign replays the *same* circuit suffix once per fault branch:
after prefix reuse and branch batching, the remaining cost of a sweep is
applying every shared tail operation to every branch. This module
compiles the operations between an injection position and the end of the
circuit into a :class:`TailPlan` of **segments** — unitaries
(statevector) or superoperators (density matrix, noise channels folded
in) — and a branch batch's tail always runs as such a plan: the matrix
construction is hoisted out of the sweep, and packed plans apply one
contraction per composed segment instead of one per gate. Each plan
also carries its axis bookkeeping, compiled once into
:class:`PlanStep` records that tell the one batch runner,
:func:`apply_plan`, where each GEMM's target axes are and which copies
it can skip.

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

The runner (:func:`apply_plan`) does not replay the scalar kernels' axis
moves, yet gives the same bits, for two reasons:

* each output element of a GEMM depends only on its own operand column
  and the matrix, so contracting the same columns in another order —
  the non-target axes wherever the previous step left them — gives
  every element the same bits (the per-slice GEMM shape is unchanged);
* conjugation is exact, so the density column side keeps the scalar
  kernel's ``conj(U conj(sigma))`` form and its outer conjugation folds
  into the next gather.

``tests/simulators/test_segments.py`` checks every row of the runner's
output against the scalar kernels, byte for byte, on random circuits.

The opt-in ``float32`` fast path compiles segments in ``complex64`` and,
when the optional ``opt_einsum`` package is installed, makes it the
runner's contraction call for those plans; without it ``matmul`` runs
on the narrow dtype. Either way the fast path waives bit-identity and is
only reachable through an explicit waiver
(``ScenarioSpec.bit_identical = False``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..quantum.circuit import QuantumCircuit
from ..quantum.gates import Barrier, Measure, Reset
from ..quantum.linalg import (
    _front_axes,
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
    "gate_ops",
    "PlanStep",
    "compile_steps",
    "run_steps",
    "apply_plan",
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


def gate_ops(
    name: str, qubits: Sequence[int], matrix: np.ndarray, noise_model=None
) -> List[Tuple[str, Tuple[int, ...], np.ndarray]]:
    """One gate as primitive ``(kind, targets, matrix)`` ops: its
    unitary, then the superoperators of the noise channel
    ``noise_model`` attaches to it. Tail compilation and batched heads
    both build their ops here, so they apply the same operators in the
    same order as the per-task advance loop."""
    qubits = tuple(qubits)
    ops = [("unitary", qubits, matrix)]
    channel = (
        noise_model.channel_for(name, qubits)
        if noise_model is not None
        else None
    )
    if channel is not None:
        ops.extend(
            ("superop", targets, superop)
            for superop, targets in channel_superop_plan(channel, qubits, name)
        )
    return ops


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
    ``steps`` are the segments compiled for :func:`apply_plan`: one
    :class:`PlanStep` per GEMM with its axis bookkeeping, closed by the
    gather back to canonical order. ``dtype`` is the dtype the segment
    matrices were compiled in (``complex64`` for the float32 fast path).
    """

    start: int
    segments: Tuple[FusedSegment, ...]
    measures: Tuple[Tuple[int, int], ...]
    steps: Tuple[PlanStep, ...]
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
            ops.extend(gate_ops(inst.name, inst.qubits, gate.matrix, noise))
        return ops, tuple(measures)

    def _compile(self, start: int) -> TailPlan:
        """Compile ``instructions[start:]`` into a :class:`TailPlan`."""
        instructions = self.circuit.instructions
        if not 0 <= start <= len(instructions):
            raise ValueError(
                f"start {start} outside [0, {len(instructions)}]"
            )
        ops, measures = self._primitive_ops(start)
        if self.pack:
            segments = self._pack_ops(ops)
        else:
            segments = tuple(
                FusedSegment(
                    kind,
                    targets,
                    np.asarray(matrix).astype(self.dtype, copy=False),
                    1,
                )
                for kind, targets, matrix in ops
            )
        steps = compile_steps(
            [(s.kind, s.targets, s.matrix) for s in segments],
            self.circuit.num_qubits,
            self.superop,
        )
        return TailPlan(start, segments, measures, steps, self.dtype)

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
@dataclass(frozen=True, slots=True)
class PlanStep:
    """One step of the branch-batch runner: an optional gather, then one GEMM.

    A batch runs as a contiguous ``(B, 2, ..., 2)`` tensor over the
    state's canonical tensor axes — ``n`` for a statevector, ``2n`` (row
    axes, then column axes) for a density matrix — held in some axis
    order. ``layout`` is that order while this step's GEMM runs: per
    slice, ``matrix @ x`` contracts the first ``width`` axes of ``x``
    and its columns are the remaining axes, in whatever order they are.
    ``conjugated`` says whether the buffer holds the complex conjugate
    of the state. ``gather`` is the transpose (batch axis first) that
    copies the previous step's buffer into ``layout``, conjugating on
    the way when ``conj``; ``None`` when the previous buffer is already
    in place. A step without a ``matrix`` is a plan's closing gather
    back to canonical order.
    """

    matrix: Optional[np.ndarray]
    width: int
    layout: Tuple[int, ...]
    conjugated: bool
    gather: Optional[Tuple[int, ...]]
    conj: bool


def _gather(
    layout: Tuple[int, ...],
    conjugated: bool,
    target: Tuple[int, ...],
    target_conjugated: bool,
) -> Tuple[Optional[Tuple[int, ...]], bool]:
    """The ``(gather, conj)`` pair that takes a buffer held in ``layout``
    into ``target``; ``(None, False)`` when it is already there."""
    if layout == target and conjugated == target_conjugated:
        return None, False
    perm = (0,) + tuple(layout.index(axis) + 1 for axis in target)
    return perm, conjugated != target_conjugated


def compile_steps(
    ops: Sequence[Tuple[str, Tuple[int, ...], np.ndarray]],
    num_qubits: int,
    density: bool,
    then: Optional[PlanStep] = None,
) -> Tuple[PlanStep, ...]:
    """Runner steps for ``ops`` on a batch that starts in canonical order.

    Each ``(kind, targets, matrix)`` op contracts the target axes in the
    order the scalar kernels bring them forward (gate MSB first). A
    statevector unitary and a superoperator are one GEMM each; a
    density-matrix unitary is two, exactly as
    :func:`~repro.quantum.linalg.apply_unitary_to_density` computes
    ``U rho U^dagger``: ``U`` on the row axes, then ``conj(U conj(sigma))``
    on the column axes, whose outer conjugation is left to the next
    gather. A step gathers only when its target axes are not already the
    leading ones (or the conjugation flips); the gather moves them to
    the front and keeps the other axes where the previous step left
    them. The last step is ``then`` with its gather re-pointed at where
    ``ops`` leave the batch; by default it is the closing gather back
    to canonical order, unconjugated.
    """
    num_axes = 2 * num_qubits if density else num_qubits
    canonical = tuple(range(num_axes))
    layout, conjugated = canonical, False
    steps: List[PlanStep] = []
    for kind, targets, matrix in ops:
        rows = _front_axes(targets, num_qubits)
        cols = tuple(axis + num_qubits for axis in rows)
        if kind == "superop":
            fronts = ((rows + cols, False),)
        elif density:
            fronts = ((rows, False), (cols, True))
        else:
            fronts = ((rows, False),)
        for front, conj in fronts:
            width = len(front)
            target = layout
            if layout[:width] != front:
                target = front + tuple(a for a in layout if a not in front)
            gather, flip = _gather(layout, conjugated, target, conj)
            steps.append(PlanStep(matrix, width, target, conj, gather, flip))
            layout, conjugated = target, conj
    if then is None:
        then = PlanStep(None, 0, canonical, False, None, False)
    gather, flip = _gather(layout, conjugated, then.layout, then.conjugated)
    steps.append(replace(then, gather=gather, conj=flip))
    return tuple(steps)


def _einsum_contract(matrix: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """The float32 fast path's contraction call: ``matrix @ batch`` per
    slice, through ``opt_einsum``."""
    return _oe_contract("ij,bjr->bir", matrix, batch)


def _run_steps(
    batch: np.ndarray, steps: Sequence[PlanStep], contract, dtype
) -> np.ndarray:
    """Apply ``steps`` to a contiguous batch; gathers allocate ``dtype``.

    Each pass drops its input as soon as it is done with it, so at most
    two batch-sized arrays of this loop are alive at once.
    """
    size = batch.shape[0]
    num_axes = len(steps[-1].layout) if steps else 0
    tensor = (size,) + (2,) * num_axes
    total = 1 << num_axes
    for step in steps:
        if step.gather is not None:
            source = batch.reshape(tensor).transpose(step.gather)
            batch = np.empty(tensor, dtype)
            if step.conj:
                np.conjugate(source, out=batch)
            else:
                np.copyto(batch, source)
            del source
        if step.matrix is not None:
            rows = 1 << step.width
            batch = contract(
                step.matrix, batch.reshape(size, rows, total // rows)
            )
    return batch


def run_steps(batch: np.ndarray, steps: Sequence[PlanStep]) -> np.ndarray:
    """Apply :func:`compile_steps` output to a canonical batch.

    The same per-slice ``np.matmul`` GEMMs as :func:`apply_plan`, in the
    batch's own dtype; returns the batch in its input shape and canonical
    order. The trajectory simulator evolves its statevector stacks
    between Kraus draws with it.
    """
    return _run_steps(batch, steps, np.matmul, batch.dtype).reshape(batch.shape)


def apply_plan(
    batch: np.ndarray,
    plan: TailPlan,
    heads: Sequence[Tuple[str, Tuple[int, ...], np.ndarray]] = (),
) -> np.ndarray:
    """Run a branch batch through its aligned heads, then ``plan``.

    ``batch`` is a canonical ``(B, 2**n)`` statevector or ``(B, 2**n,
    2**n)`` density-matrix stack. ``heads`` are primitive ``(kind,
    targets, matrix)`` ops (see :func:`gate_ops`) applied first; a
    unitary's matrix may be a ``(B, 2**k, 2**k)`` stack, one per branch.
    Heads contract in the batch's dtype with ``np.matmul``; the plan's
    steps in ``plan.dtype``, through ``opt_einsum`` for a complex64 plan
    when it is installed. The plan's first gather is re-pointed at
    wherever the heads left the batch (and narrows it for a complex64
    plan), so heads cost no extra pass. Returns the batch in its input
    shape and canonical order.
    """
    steps, head = plan.steps, ()
    if heads or batch.dtype != plan.dtype:
        num_qubits = batch.shape[1].bit_length() - 1
        *head, first = compile_steps(
            heads, num_qubits, batch.ndim == 3, then=steps[0]
        )
        if first.gather is None and batch.dtype != plan.dtype:
            first = replace(first, gather=tuple(range(len(first.layout) + 1)))
        steps = (first,) + steps[1:]
    contract = np.matmul
    if plan.dtype == np.dtype(np.complex64) and _oe_contract is not None:
        contract = _einsum_contract
    # Nested, so no frame here holds the heads' output while the tail runs.
    out = _run_steps(
        _run_steps(batch, head, np.matmul, batch.dtype),
        steps,
        contract,
        plan.dtype,
    )
    return out.reshape(batch.shape)
