"""Gate-segment compilation for campaign tails.

A fault campaign replays the *same* circuit suffix once per fault branch:
after prefix reuse and branch batching, the remaining cost of a sweep is
applying every shared tail operation to every branch. This module
compiles the operations between an injection position and the end of the
circuit into a :class:`TailPlan` of **segments** — unitaries
(statevector) or superoperators (density matrix, noise channels
included) — and a branch batch's tail always runs as such a plan: the
matrix construction is hoisted out of the sweep. Each plan also carries
its axis bookkeeping, compiled once into :class:`PlanStep` records that
tell the one batch runner, :func:`apply_plan`, where each GEMM's target
axes are and which copies it can skip.

A tail compiles in one of two kinds. The **exact** plan makes every
primitive operation its own complex128 segment — a gate's unitary, then
each superoperator of its noise channel — and applies exactly the
matrices, targets and order the per-task advance loops use, so records
of branches run through it are bit-identical to the naive per-injection
re-simulation (``tests/faults/test_batched.py``). The **folded** plan
(``tail_plan(start, folded=True)``, density matrix only) serves the
linear response basis, whose records are within rounding of the naive
ones anyway: each gate the noise model attaches a channel to becomes one
superoperator segment, its unitary and channel multiplied out
(:func:`fold_ops`), so the gate costs one full-batch GEMM instead of
three. Gates without a channel, and resets, stay as they are.

Compilation is a pure function of ``(circuit, noise model)``: two
compilers over the same inputs produce bit-identical segment matrices,
exact and folded, which is what lets the in-process engine and its pool
workers (which rebuild their own compiler) agree bit for bit. By default
a single-fault site runs the folded plan once per matrix unit on the
fault qubit and combines the responses per fault with
:func:`combine_responses` (the linear response basis).

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
output against the scalar kernels, byte for byte, on random circuits,
and the folded plans against the exact ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..quantum.circuit import QuantumCircuit
from ..quantum.gates import Barrier, Measure, Reset
from ..quantum.linalg import _front_axes, kraus_to_superoperator

__all__ = [
    "RESET_KRAUS",
    "RESET_SUPEROP",
    "FusedSegment",
    "TailPlan",
    "SegmentCompiler",
    "channel_superop_plan",
    "gate_ops",
    "fold_ops",
    "PlanStep",
    "compile_steps",
    "run_steps",
    "apply_plan",
    "combine_responses",
]


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


@dataclass(frozen=True)
class FusedSegment:
    """One tail operation, as the runner applies it.

    ``kind`` is ``"unitary"`` (a ``(2**k, 2**k)`` matrix applied as
    ``U rho U^dagger`` / ``U |psi>``) or ``"superop"`` (a ``(4**k,
    4**k)`` matrix over the doubled space); ``targets`` are the circuit
    qubits in the gate's own order. An exact plan holds one segment per
    primitive operation, a folded plan one per gate.
    """

    kind: str
    targets: Tuple[int, ...]
    matrix: np.ndarray


@dataclass(frozen=True)
class TailPlan:
    """The compiled form of a circuit tail ``instructions[start:]``.

    ``segments`` apply in order; ``measures`` is the tail's classical
    bookkeeping — ``(clbit, qubit)`` pairs in instruction order, applied
    after the segments (measurements are terminal and state-free in the
    exact backends, so deferring them cannot change the state).
    ``steps`` are the segments compiled for :func:`apply_plan`: one
    :class:`PlanStep` per GEMM with its axis bookkeeping, closed by the
    gather back to canonical order.
    """

    start: int
    segments: Tuple[FusedSegment, ...]
    measures: Tuple[Tuple[int, int], ...]
    steps: Tuple[PlanStep, ...]

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
    backend); ``superop=True`` adds the ``noise_model``'s gate channels
    and ``Reset`` as superoperator segments (the density-matrix
    backend). The exact plan makes every primitive operation its own
    complex128 segment, which keeps plan execution bit-identical to the
    per-task advance loops (the repo's headline guarantee).
    ``tail_plan(p, folded=True)`` serves the folded plan of the same
    suffix instead: each gate with a noise channel as one superoperator,
    folded once per instruction and shared by every folded tail that
    contains it.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        *,
        superop: bool,
        noise_model=None,
    ) -> None:
        self.circuit = circuit
        self.superop = bool(superop)
        self.noise_model = noise_model if self.superop else None
        self._plans: Dict[int, TailPlan] = {}
        self._folded_plans: Dict[int, TailPlan] = {}
        self._folds: Dict[int, np.ndarray] = {}
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
    def tail_plan(self, start: int, *, folded: bool = False) -> TailPlan:
        """The (cached) plan for the suffix ``instructions[start:]``:
        the exact plan, or the folded one with ``folded``. A unitary
        compiler has nothing to fold and serves its exact plan."""
        folded = folded and self.superop
        plans = self._folded_plans if folded else self._plans
        plan = plans.get(start)
        if plan is None:
            plan = plans[start] = self._compile(start, folded)
        return plan

    @property
    def key(self) -> tuple:
        """What the compiled plans depend on: equal keys compile
        bit-identical plans. Holds the identities of the circuit and the
        noise model, which the compiler keeps alive, so a live key can
        never alias another circuit."""
        return (id(self.circuit), self.superop, id(self.noise_model))

    @property
    def compiled_positions(self) -> Tuple[int, ...]:
        """Tail starts compiled so far, of either kind (cache
        introspection for tests)."""
        return tuple(sorted({*self._plans, *self._folded_plans}))

    # ------------------------------------------------------------------
    def _tail_gates(self, start: int):
        """The tail's primitive operations, gate by gate.

        Returns ``(gates, measures)``: ``gates`` holds one ``(position,
        ops)`` pair per gate or reset, ``ops`` its ``(kind, targets,
        matrix)`` ops — exactly the kernel calls the per-task advance
        loop would make — and ``measures`` is the classical bookkeeping.
        Raises for gates on already-measured qubits and for ``Reset``
        outside superoperator mode, with the same messages as the
        advance loops (the tail would raise identically at run time).
        """
        gates = []
        measures: List[Tuple[int, int]] = []
        measured = set(self._measured_before[start])
        noise = self.noise_model
        instructions = self.circuit.instructions
        for position in range(start, len(instructions)):
            inst = instructions[position]
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
                ops = [("superop", (inst.qubits[0],), RESET_SUPEROP)]
            else:
                ops = gate_ops(inst.name, inst.qubits, gate.matrix, noise)
            gates.append((position, ops))
        return gates, tuple(measures)

    def _folded(self, position: int, ops):
        """The ops of the gate at ``position`` as one op: a gate without
        a channel, or a reset, as it is; a noisy gate as one
        superoperator over its qubits, folded once per compiler."""
        if len(ops) == 1:
            return ops[0]
        _, qubits, _ = ops[0]
        superop = self._folds.get(position)
        if superop is None:
            superop = self._folds[position] = fold_ops(ops, qubits)
        return ("superop", qubits, superop)

    def _compile(self, start: int, folded: bool) -> TailPlan:
        """Compile ``instructions[start:]`` into a :class:`TailPlan`."""
        instructions = self.circuit.instructions
        if not 0 <= start <= len(instructions):
            raise ValueError(
                f"start {start} outside [0, {len(instructions)}]"
            )
        gates, measures = self._tail_gates(start)
        if folded:
            ops = [self._folded(position, group) for position, group in gates]
        else:
            ops = [op for _, group in gates for op in group]
        segments = tuple(
            FusedSegment(kind, targets, np.asarray(matrix, dtype=complex))
            for kind, targets, matrix in ops
        )
        steps = compile_steps(
            [(s.kind, s.targets, s.matrix) for s in segments],
            self.circuit.num_qubits,
            self.superop,
        )
        return TailPlan(start, segments, measures, steps)


def fold_ops(
    ops: Sequence[Tuple[str, Tuple[int, ...], np.ndarray]],
    qubits: Sequence[int],
) -> np.ndarray:
    """The ``(4**k, 4**k)`` superoperator over ``qubits`` (in the gate's
    order) that applies ``ops`` in order.

    The ops run through :func:`compile_steps` and the batch runner on the
    ``4**k`` matrix units ``|r><c|`` of the ``k`` qubits, each taken as a
    density matrix: the image of unit ``r * 2**k + c`` is that column of
    the superoperator, in the combined-index convention of
    :func:`~repro.quantum.linalg.kraus_to_superoperator`. The fold and
    the plans that apply it share one runner, so their index conventions
    cannot drift apart.
    """
    qubits = tuple(qubits)
    local = {qubit: index for index, qubit in enumerate(qubits)}
    side = 2 ** len(qubits)
    steps = compile_steps(
        [
            (kind, tuple(local[qubit] for qubit in targets), matrix)
            for kind, targets, matrix in ops
        ],
        len(qubits),
        True,
    )
    units = np.eye(side * side, dtype=complex).reshape(-1, side, side)
    images = _run_steps(units, steps).reshape(side * side, side * side)
    return np.ascontiguousarray(images.T)


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


def _run_steps(batch: np.ndarray, steps: Sequence[PlanStep]) -> np.ndarray:
    """Apply ``steps`` to a contiguous batch with per-slice ``np.matmul``.

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
            batch = np.empty(tensor, source.dtype)
            if step.conj:
                np.conjugate(source, out=batch)
            else:
                np.copyto(batch, source)
            del source
        if step.matrix is not None:
            rows = 1 << step.width
            batch = np.matmul(
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
    return _run_steps(batch, steps).reshape(batch.shape)


def apply_plan(
    batch: np.ndarray,
    plan: TailPlan,
    heads: Sequence[Tuple[str, Tuple[int, ...], np.ndarray]] = (),
) -> np.ndarray:
    """Run a branch batch through its aligned heads, then ``plan``.

    ``batch`` is a canonical ``(B, 2**n)`` statevector or ``(B, 2**n,
    2**n)`` density-matrix stack. ``heads`` are primitive ``(kind,
    targets, matrix)`` ops (see :func:`gate_ops`) applied first; a head's
    matrix may be a ``(B, 2**k, 2**k)`` (or ``(B, 4**k, 4**k)``) stack,
    one per branch. The plan's first gather is re-pointed at wherever
    the heads left the batch, so heads cost no extra pass. Returns the
    batch in its input shape and canonical order.
    """
    steps = plan.steps
    if heads:
        num_qubits = batch.shape[1].bit_length() - 1
        steps = compile_steps(
            heads, num_qubits, batch.ndim == 3, then=steps[0]
        ) + steps[1:]
    return _run_steps(batch, steps).reshape(batch.shape)


def combine_responses(
    weights: np.ndarray, responses: np.ndarray
) -> np.ndarray:
    """The real part of ``weights @ responses``, one response at a time.

    ``weights`` is a ``(B, K)`` complex stack (one row per branch) and
    ``responses`` a ``(K, M)`` complex stack; row ``b`` of the result is
    ``Re(sum_k weights[b, k] * responses[k])``. This is how a
    single-fault site runs on the linear response basis: a fault is a
    single-qubit unitary and everything after it is linear, so every
    branch's output is a fixed combination of the tail's responses to
    the matrix units on the fault qubit. The sum is accumulated
    elementwise in real arithmetic, response by response, so each
    element's bits depend on its own row alone — not on how many rows
    are combined at once, as a GEMM's blocking might.
    """
    total = np.zeros((weights.shape[0], responses.shape[1]))
    for k in range(weights.shape[1]):
        total += weights.real[:, k, np.newaxis] * responses.real[k]
        total -= weights.imag[:, k, np.newaxis] * responses.imag[k]
    return total
