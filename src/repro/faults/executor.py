"""Campaign execution: one in-process engine and one pool around it.

The paper's evaluation is a brute-force sweep — every ``(theta, phi)``
configuration spliced at every injection point, each faulty circuit
re-simulated from |0...0>. That costs ``O(points x faults x depth)`` gate
applications even though every fault at the same injection point shares an
identical circuit prefix and an identical circuit suffix. This module runs
the sweep without the redundancy:

* **The engine** (:class:`SerialExecutor`) runs a plan in-process,
  reading its tasks as columns (:class:`~repro.faults.plan.TaskColumns`)
  rather than as one object per task. On backends implementing the
  batched protocol
  (:class:`~repro.simulators.backend.BatchedSnapshotBackend`: the
  statevector and density-matrix simulators, the latter also under a
  machine's calibration, and the mitigation wrapper over them) it goes
  site → tile → snapshot → branch batch → score: a site is the row range
  of tasks sharing an injection site; the circuit is simulated once up
  to the site and frozen (consecutive sites extend one running prefix,
  so a campaign pays for each prefix once); each distinct fault's matrix
  is built once per plan, and a tile's heads reach the backend as one
  ``(B, 2, 2)`` stack per injector slot gathered from that table
  (:class:`~repro.simulators.backend.BranchSlots`); the branches stack
  into one ``(B, 2**n)`` / ``(B, 2**n, 2**n)`` array, tiled to the
  memory budget; the shared suffix runs as the backend's compiled
  segment plan (:mod:`repro.simulators.segments`); and the tile is
  scored with the vectorized Michelson contrast. The backends that
  sample inside ``run`` — the trajectory simulator (which batches a
  task's trajectories inside ``run``) and the machine emulator — and
  ``prefix_reuse=False`` take the per-task loop, which reads the plan's
  row views and re-runs each task's full faulty circuit: the naive
  reference. :class:`BatchedExecutor` is the same engine under the
  ``"batched"`` name.

* **The response basis** (``response_basis=True``, the default) runs
  a single-fault site's whole group in one backend call: a fault is a
  single-qubit unitary and everything after it is linear, so the tail
  runs once per matrix unit on the fault qubit (the backend's
  ``basis_responses``: 4 statevector or 10 density-matrix responses,
  built in tiles no larger than the tile limit, through the folded tail
  plan whose noisy gates are one superoperator each) and each branch
  combines them. It runs a site only when the site holds at least that
  many faults in the plan's :attr:`~CampaignPlan.site_sizes`, counted
  over the whole campaign before a resume or a pool cuts it, so a task
  takes the same path whatever group the engine sees it in. Smaller
  sites, pair and cluster sites, and every site under
  ``response_basis=False`` (the spec's ``bit_identical: true``), run
  the exact per-branch plans.

* **The pool** (:class:`ParallelExecutor`) cuts the canonical task list
  into contiguous chunks by count and runs each chunk on a copy of the
  engine in a ``ProcessPoolExecutor`` worker (the workers split the
  parent's OpenBLAS threads); a chunk travels as a column slice of the
  plan's tasks. A one-chunk plan, or a pool that cannot spawn, runs the
  same engine in-process.

* **Columnar streaming** — records travel as
  :class:`~repro.faults.records.RecordTable` column blocks, gathered
  from the plan's columns and tables (the ``qvf`` column is the scoring
  array itself — no per-record object on the hot path) and reach an
  ``on_batch`` callback in canonical task order,
  which is how :func:`~repro.faults.checkpoint.run_plan` appends
  checkpoint segments in O(batch) and how progress flows during long
  campaigns (the engine delivers every ``batch_size`` records, the pool
  every chunk). ``run`` returns the concatenated table.

Determinism contract
--------------------
Single-fault records on the response basis lie within 1e-12 QVF of the
naive reference (``tests/oracle.py``: dense full-size matrices, one
faulty circuit per task) and are byte-identical across strategies, tile
sizes, chunk layouts and resumed checkpoints: the combination is
elementwise, so a row's bits do not depend on the rows combined with
it, and a site's path depends on the plan alone. Every other record —
sites below the response count, pair and cluster sites, and every site
under ``response_basis=False`` — is bit-identical to the naive
per-injection loop (``prefix_reuse=False``). Every random draw of task
``k`` comes from one generator, ``default_rng((plan.seed, task.index))``
(:func:`_task_rng`): first the draws of a backend that samples inside
``run`` (the trajectory simulator, marked ``per_run_seeding``, receives
the generator itself as its run seed), then the shot re-sampling of
scoring. A task's draws therefore depend on the task alone — not on the
strategy, the tile size, the worker count, the chunk layout or where a
checkpointed run was killed — so sampled records are bit-identical
across all of them.

Backends that keep a stream of their own (the machine emulator's per-run
seed sequence) are the exception: a pool reseeds each chunk's copy from
``(seed, chunk_index)``, so their records depend on the chunk layout. An
unseeded plan scores from fresh entropy, task by task, and a sampling
backend then keeps its own stream.
"""

from __future__ import annotations

import contextlib
import copy
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import (
    Callable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..blas import blas_threads, pin_blas_threads
from ..quantum.circuit import QuantumCircuit
from ..quantum.gates import FaultUGate
from ..simulators.backend import (
    Backend,
    BranchBatch,
    BranchSlots,
    supports_batched_branches,
)
from ..simulators.sampler import Result
from ..simulators.segments import SegmentCompiler
from .fault_model import PhaseShiftFault
from .injection_points import InjectionPoint
from .plan import CampaignPlan, InjectionTask, TaskColumns
from .qvf import qvf_from_probabilities, qvf_from_probability_matrix
from .records import RecordTable

__all__ = [
    "InjectionTask",
    "CampaignPlan",
    "BaseExecutor",
    "SerialExecutor",
    "BatchedExecutor",
    "ParallelExecutor",
    "build_faulty_circuit",
    "build_double_faulty_circuit",
    "score_result",
    "score_branch_batch",
]

BatchCallback = Callable[[RecordTable], None]


# ----------------------------------------------------------------------
# Faulty-circuit construction (shared with the injector's public API)
# ----------------------------------------------------------------------
def build_faulty_circuit(
    circuit: QuantumCircuit,
    point: InjectionPoint,
    fault: PhaseShiftFault,
) -> QuantumCircuit:
    """Clone ``circuit`` with the injector gate spliced after ``point``."""
    faulty = circuit.copy(name=f"{circuit.name}~fault")
    faulty.insert(point.position + 1, fault.as_gate(), [point.qubit])
    return faulty


def build_double_faulty_circuit(
    circuit: QuantumCircuit,
    point: InjectionPoint,
    fault: PhaseShiftFault,
    second_qubit: int,
    second_fault: PhaseShiftFault,
) -> QuantumCircuit:
    """Clone with both injector gates at the same circuit position.

    The first (stronger) fault lands on ``point.qubit``; the second on the
    physically neighbouring ``second_qubit``, modelling the same particle
    strike reaching both (paper Sec. IV-C).
    """
    if second_qubit == point.qubit:
        raise ValueError("second fault must target a different qubit")
    faulty = circuit.copy(name=f"{circuit.name}~double")
    faulty.insert(point.position + 1, fault.as_gate(), [point.qubit])
    faulty.insert(point.position + 2, second_fault.as_gate(), [second_qubit])
    return faulty


def _task_circuit(circuit: QuantumCircuit, task: InjectionTask) -> QuantumCircuit:
    if task.second_fault is not None:
        faulty = build_double_faulty_circuit(
            circuit, task.point, task.fault, task.second_qubit, task.second_fault
        )
        offset = task.point.position + 3
    else:
        faulty = build_faulty_circuit(circuit, task.point, task.fault)
        offset = task.point.position + 2
    for shift, (qubit, fault) in enumerate(task.extra_faults):
        faulty.insert(offset + shift, fault.as_gate(), [qubit])
    return faulty


# ----------------------------------------------------------------------
# Scoring (single definition shared by QuFI and every strategy)
# ----------------------------------------------------------------------
def score_result(
    result: Result,
    correct_states: Sequence[str],
    shots: Optional[int],
    rng: np.random.Generator,
) -> float:
    """QVF of one execution result, re-sampled at ``shots`` if requested.

    Exact backends return the full distribution; a finite shot budget
    re-samples it multinomially (re-introducing the paper's shot noise)
    unless the backend already sampled (``metadata["sampled"]``).
    """
    probabilities = result.get_probabilities()
    already_sampled = bool(result.metadata.get("sampled"))
    if shots is not None and not already_sampled:
        probabilities = result.sample_counts(shots, rng).probabilities()
    return qvf_from_probabilities(probabilities, correct_states)


def score_branch_batch(
    batch: BranchBatch,
    correct_states: Sequence[str],
    shots: Optional[int],
    rngs: Iterable[np.random.Generator],
) -> np.ndarray:
    """Vectorized :func:`score_result` over one branch batch.

    Exact mode scores the probability rows directly with the vectorized
    Michelson contrast — bit-identical to scoring each branch's own
    ``Result``. A finite shot budget re-samples row ``i`` from the
    ``i``-th generator of ``rngs`` instead, exactly as the per-task loop
    scores that branch; ``rngs`` is consumed only then, so a lazy
    iterable builds no generator for an exact batch.
    """
    if shots is not None and not batch.metadata.get("sampled"):
        return np.array(
            [
                score_result(batch.result(i), correct_states, shots, rng)
                for i, rng in zip(range(batch.size), rngs)
            ]
        )
    return qvf_from_probability_matrix(
        batch.result_probabilities(), correct_states, batch.key_width
    )


# ----------------------------------------------------------------------
# Task loops
# ----------------------------------------------------------------------
def _task_rng(plan: CampaignPlan, index: int) -> np.random.Generator:
    """The one generator every random draw of task ``index`` comes from.

    Keyed by ``(plan.seed, index)``, so the draws depend on the task
    alone (see the module's determinism contract); fresh entropy when
    the plan has no seed.
    """
    return np.random.default_rng(
        None if plan.seed is None else (plan.seed, index)
    )


def _table_from_tasks(tasks: TaskColumns, qvfs) -> RecordTable:
    """One columnar block for the rows ``tasks`` scored as ``qvfs``.

    The qvf column is taken from the scoring array as-is (for the batched
    path that array comes straight out of
    :func:`~repro.faults.qvf.qvf_from_probability_matrix`); the remaining
    columns are gathered from the plan's point and fault tables — no
    per-task object.
    """
    return RecordTable.from_columns(
        **tasks.record_columns(), qvf=np.asarray(qvfs, dtype=np.float64)
    )


def _iter_scored_tasks(
    backend: Backend, plan: CampaignPlan
) -> Iterator[List[float]]:
    """The per-task loop: every task re-runs its full faulty circuit.

    Yields each task's ``[qvf]`` in task order. This is the path of
    backends without the batched protocol and the naive reference
    (``prefix_reuse=False``) the batched path is pinned against; it
    reads the plan's tasks as row views.
    """
    # A backend that samples inside ``run`` (``per_run_seeding``, e.g.
    # the trajectory simulator) draws from the task's generator, and
    # scoring then continues on that same generator. Without a plan
    # seed the backend's own stream applies.
    per_run = (
        getattr(backend, "per_run_seeding", False) and plan.seed is not None
    )
    for task in plan.tasks:
        circuit = _task_circuit(plan.circuit, task)
        rng = _task_rng(plan, task.index)
        if per_run:
            result = backend.run(circuit, shots=plan.shots, seed=rng)
        else:
            result = backend.run(circuit, shots=plan.shots)
        yield [score_result(result, plan.correct_states, plan.shots, rng)]


def _iter_scored_groups(
    backend: Backend,
    plan: CampaignPlan,
    max_branches: int,
    compiler: SegmentCompiler,
    response_basis: bool = False,
) -> Iterator[np.ndarray]:
    """The batched loop: one stacked branch batch per injection site.

    A site is a row range of the plan's columns sharing ``(position,
    qubit, second qubit, extra-fault qubits)`` (:meth:`~repro.faults.
    plan.TaskColumns.sites`) — within it every branch differs only in
    its angles, so each injector slot is one ``(B, 2, 2)`` stack
    gathered from the plan's table of fault matrices, built once, and
    the backend evaluates the whole batch with stacked contractions.
    Sites larger than ``max_branches`` split into consecutive
    sub-batches (tiles) to bound peak memory (a density-matrix branch is
    ``16 * 4**n`` bytes). The prefix snapshot extends across sites, and
    the shared tail of every tile runs as ``compiler``'s exact segment
    plan for that position. With ``response_basis``, a single-fault site
    holding at least the backend's ``basis_responses`` faults in
    ``plan``'s :attr:`~CampaignPlan.site_sizes` runs whole, in one call
    on the linear response basis whose responses are built at most
    ``max_branches`` at a time, through the folded plan instead. Yields
    each tile's scored QVF array, in task order.
    """
    circuit, rows = plan.circuit, plan.tasks
    # A backend without a basis (or an opted-out run) never reaches it.
    responses = getattr(backend, "basis_responses", None)
    if not response_basis or responses is None:
        responses = math.inf
    sizes = plan.sized().site_sizes
    matrices = rows.fault_matrices()
    snapshot = None
    for start, stop, (position, qubit, second_qubit, extra) in rows.sites():
        # Each injector slot: its qubit and the fault ids it gathers.
        slot_faults = [(qubit, rows.fault)]
        if second_qubit >= 0:
            slot_faults.append((second_qubit, rows.second_fault))
        slot_faults.extend(
            (extra_qubit, rows.extra_fault[:, slot])
            for slot, extra_qubit in enumerate(extra)
        )
        qubits = [slot_qubit for slot_qubit, _ in slot_faults]
        if len(set(qubits)) < len(qubits):
            raise ValueError(
                "the faults of one injection must target different qubits"
            )
        snapshot = backend.prefix_snapshot(
            circuit, stop=position + 1, base=snapshot
        )
        basis = (
            second_qubit < 0
            and not extra
            and sizes.get((position, qubit), 0) >= responses
        )
        tail_plan = compiler.tail_plan(position + 1, folded=basis)
        tile = stop - start if basis else max_branches
        for low in range(start, stop, tile):
            high = min(low + tile, stop)
            heads = BranchSlots(
                high - low,
                tuple(
                    ((slot_qubit,), FaultUGate.name, matrices[ids[low:high]])
                    for slot_qubit, ids in slot_faults
                ),
            )
            batch = backend.run_branches_from_snapshot(
                snapshot,
                circuit,
                heads,
                shots=plan.shots,
                plan=tail_plan,
                basis_tile=max_branches if basis else None,
            )
            yield score_branch_batch(
                batch,
                plan.correct_states,
                plan.shots,
                (
                    _task_rng(plan, index)
                    for index in rows.index[low:high].tolist()
                ),
            )


def _reseed_backend(backend: Backend, rng: np.random.Generator) -> None:
    """Give a worker's backend copy an independent random stream.

    Pickling a stateful backend (trajectory simulator, machine emulator)
    duplicates its internal generator state; without reseeding, every
    chunk would replay the same noise/shot draws and silently correlate
    the campaign's Monte-Carlo statistics. Only draws outside the task
    generators use that stream: the emulator's runs, and a trajectory
    simulator's under an unseeded plan. Backends exposing ``reseed``
    (the machine emulator's per-run seed-sequence scheme) are reseeded
    through it; otherwise the legacy ``_rng`` attribute convention
    applies.
    """
    reseed = getattr(backend, "reseed", None)
    if callable(reseed):
        reseed(int(rng.integers(0, 2**63)))
    elif isinstance(getattr(backend, "_rng", None), np.random.Generator):
        backend._rng = np.random.default_rng(rng.integers(0, 2**63))


def _run_chunk(
    backend: Backend,
    plan: CampaignPlan,
    tasks: TaskColumns,
    seed_material: Optional[Tuple[int, int]],
    engine: "SerialExecutor",
) -> RecordTable:
    """Worker-process entry point: run one chunk on the engine.

    ``plan`` arrives without its tasks; the chunk plan is rebuilt from
    ``tasks`` — a column slice of the plan's tasks, which pickles as a
    few arrays and the point and fault tables — and run through
    ``engine``'s block stream, as one block. Tasks draw from their own
    generators;
    ``seed_material`` (the chunk's ``(seed, index)``) only reseeds a
    backend that keeps a stream of its own. ``engine`` is the parent's
    engine pickled without its compiler cache — compilation is
    deterministic, so the worker's segments match the parent's bit for
    bit. Returns the chunk as one columnar block: tables pickle back to
    the parent as a handful of arrays.
    """
    _reseed_backend(backend, np.random.default_rng(seed_material))
    chunk = replace(plan, tasks=tasks)
    return RecordTable.concatenate(
        list(engine._whole(chunk)._block_stream(backend, chunk))
    )


# Batch-sized arrays simultaneously alive while one tile advances: the
# batch as stacked from the snapshot, and the input and output of the
# runner's current pass (a gather or a GEMM; each pass frees its input).
# Measured with tracemalloc on the 10-qubit density matrix: 3 tile-sized
# arrays plus the snapshot base state (7 branch states at a 2-branch
# tile, 13 at 4), while the prefix advance's scalar kernels peak at ~6
# branch states whatever the tile. 8 leaves headroom for allocator
# slack. The memory-regression test pins the budget claim against this
# factor.
TILE_WORKING_SET = 8

# The tile budget of an executor given no ``memory_budget``: 64 QFT-6
# density-matrix branches (64 KiB each) exactly, so routine campaigns keep
# full tiles, while a 10-qubit density matrix (16 MiB a branch) streams
# one branch at a time instead of stacking a GiB-sized tile per process.
DEFAULT_TILE_BUDGET = 64 * TILE_WORKING_SET * 16 * 4**6


def _tile_limit(
    backend: Backend,
    num_qubits: int,
    max_branches: int,
    memory_budget: Optional[int],
) -> int:
    """Largest branch-tile size the memory budget admits.

    Divides the budget (:data:`DEFAULT_TILE_BUDGET` when ``None``) by
    :data:`TILE_WORKING_SET` batch-sized arrays per branch. The floor is
    one branch: a budget below a single branch's working set cannot be
    met, only approached. Backends that cannot report their per-branch
    footprint ignore the budget. The response basis builds its
    responses in tiles of the same limit.
    """
    nbytes_of = getattr(backend, "branch_state_nbytes", None)
    if nbytes_of is None:
        return max_branches
    budget = DEFAULT_TILE_BUDGET if memory_budget is None else memory_budget
    tile = int(budget) // (TILE_WORKING_SET * int(nbytes_of(num_qubits)))
    return max(1, min(max_branches, tile))


def _chunk_tasks(tasks: Sequence, target: int) -> List[Sequence]:
    """Split ``tasks`` into contiguous chunks of at most ``target`` size.

    The cut is purely by count — a chunk boundary can land inside a
    same-position run, in which case the next chunk recomputes that one
    prefix snapshot; ``target`` is a hard ceiling because checkpoint
    consumers bound their loss window with it. A plan's
    :class:`~repro.faults.plan.TaskColumns` cut into column slices.
    """
    return [tasks[i : i + target] for i in range(0, len(tasks), target)]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
class BaseExecutor:
    """Execution strategy contract.

    ``run`` executes every task of ``plan`` on ``backend`` and returns one
    :class:`~repro.faults.records.RecordTable` in canonical task order.
    Each record is additionally delivered exactly once — grouped into
    columnar blocks, in canonical task order on every strategy — to
    ``on_batch`` while the campaign is still running; callers use the
    callback for streaming (checkpoints, progress) and the return value
    for the final result, not both accumulations at once.
    """

    name = "base"

    def run(
        self,
        backend: Backend,
        plan: CampaignPlan,
        on_batch: Optional[BatchCallback] = None,
    ) -> RecordTable:
        """Execute every task of ``plan`` (see the class contract)."""
        raise NotImplementedError

    def bounded(self, limit: int) -> "BaseExecutor":
        """A copy of this strategy whose ``on_batch`` deliveries hold at
        most ``limit`` records (checkpoint consumers use this so the
        loss window never exceeds their save interval)."""
        raise NotImplementedError


class SerialExecutor(BaseExecutor):
    """The in-process campaign engine (see the module docstring).

    The default strategy of :class:`~repro.faults.injector.QuFI`. On
    batched-protocol backends it evaluates each injection site's fault
    branches as stacked tiles whose shared tail runs as a compiled
    segment plan; on every other backend, and with
    ``prefix_reuse=False``, it runs the per-task loop — the naive
    per-injection re-simulation, kept as the reference path.

    Exact segment plans compile one complex128 segment per primitive
    operation, bit-identical to walking the tail gate by gate.
    ``response_basis`` (on by default) runs each single-fault site that
    holds at least the backend's ``basis_responses`` faults on the
    linear response basis, through the folded plans (see the module
    docstring): within 1e-12 QVF
    of the per-task loop, and byte-identical across strategies, tile
    sizes and chunk layouts. ``response_basis=False`` keeps every site
    on the exact plans, bit-identical to the per-task loop.

    ``max_branches`` caps how many branches stack at once;
    ``memory_budget`` (bytes, :data:`DEFAULT_TILE_BUDGET` when unset)
    tightens that cap per backend and circuit width via
    ``branch_state_nbytes``, so wide campaigns stream through small
    tiles instead of OOMing. Tiling never changes records.
    ``batch_size`` caps the records per ``on_batch`` delivery.

    Each run compiles its own segment compiler, so a circuit or noise
    model edited in place between runs is always read fresh. Only
    compilers registered through :meth:`prime_segment_compiler` — how
    the scenario factory shares one compilation across a suite — are
    kept, keyed by circuit and noise model and shared with
    :meth:`bounded` copies; pickled copies (what pool workers
    receive) carry the configuration only.
    """

    name = "serial"

    def __init__(
        self,
        prefix_reuse: bool = True,
        batch_size: int = 64,
        response_basis: bool = True,
        max_branches: int = 64,
        memory_budget: Optional[int] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if max_branches < 1:
            raise ValueError("max_branches must be positive")
        if memory_budget is not None and memory_budget < 1:
            raise ValueError("memory_budget must be positive")
        self.prefix_reuse = bool(prefix_reuse)
        self.batch_size = int(batch_size)
        self.response_basis = bool(response_basis)
        self.max_branches = int(max_branches)
        self.memory_budget = (
            None if memory_budget is None else int(memory_budget)
        )
        self._compilers: dict = {}

    def __getstate__(self) -> dict:
        # Pool workers receive the configuration, not the compiled
        # plans: recompiling is deterministic and cheaper than pickling
        # every segment matrix once per chunk.
        return {**self.__dict__, "_compilers": {}}

    def bounded(self, limit: int) -> "SerialExecutor":
        """A copy whose delivery batches hold at most ``limit`` records."""
        clone = copy.copy(self)
        clone.batch_size = max(1, min(self.batch_size, limit))
        # Copies go through __getstate__, which drops the cache; bounded
        # copies share it instead.
        clone._compilers = self._compilers
        return clone

    def _whole(self, plan: CampaignPlan) -> "SerialExecutor":
        """A copy that delivers ``plan`` as one block, for runs that
        stream nothing: the bytes of its blocks concatenated (gate names
        pool in order of first appearance either way), gathered from the
        columns in one pass."""
        clone = self.bounded(self.batch_size)
        clone.batch_size = max(1, len(plan.tasks))
        return clone

    def prime_segment_compiler(self, compiler: SegmentCompiler) -> None:
        """Register an externally built compiler.

        Campaigns over that exact circuit and noise model then reuse the
        primed compiler (and its already-compiled tail plans) instead of
        compiling from scratch.
        """
        self._compilers[compiler.key] = compiler

    def _tail_compiler(
        self, backend: Backend, circuit: QuantumCircuit
    ) -> SegmentCompiler:
        """The primed segment compiler for ``circuit`` on ``backend``, or
        a fresh unstored one.

        A fresh compiler costs one pass over the circuit; its plans are
        compiled on demand, so only the primed compiler's plans are
        built when it matches.
        """
        compiler = backend.tail_compiler(circuit)
        return self._compilers.get(compiler.key, compiler)

    def _block_stream(
        self, backend: Backend, plan: CampaignPlan
    ) -> Iterator[RecordTable]:
        """Columnar blocks of at most ``batch_size`` records, in canonical
        task order."""
        if self.prefix_reuse and supports_batched_branches(backend):
            limit = _tile_limit(
                backend,
                plan.circuit.num_qubits,
                self.max_branches,
                self.memory_budget,
            )
            scored = _iter_scored_groups(
                backend,
                plan,
                limit,
                self._tail_compiler(backend, plan.circuit),
                self.response_basis,
            )
        else:
            scored = _iter_scored_tasks(backend, plan)
        # Either loop scores the rows in order; they are cut into blocks
        # of exactly ``batch_size`` records (the last may be short).
        rows, size = plan.tasks, self.batch_size
        start, pending = 0, 0
        qvfs: List[np.ndarray] = []
        for scores in scored:
            qvfs.append(np.asarray(scores, dtype=np.float64))
            pending += len(qvfs[-1])
            if pending >= size:
                merged = np.concatenate(qvfs)
                cut = pending - pending % size
                for offset in range(0, cut, size):
                    low = start + offset
                    yield _table_from_tasks(
                        rows[low : low + size], merged[offset : offset + size]
                    )
                start, pending = start + cut, pending - cut
                qvfs = [merged[cut:]]
        if pending:
            yield _table_from_tasks(rows[start:], np.concatenate(qvfs))

    def run(
        self,
        backend: Backend,
        plan: CampaignPlan,
        on_batch: Optional[BatchCallback] = None,
    ) -> RecordTable:
        """Run the plan in-process, streaming blocks to ``on_batch``."""
        engine = self if on_batch is not None else self._whole(plan)
        blocks: List[RecordTable] = []
        for block in engine._block_stream(backend, plan):
            blocks.append(block)
            if on_batch is not None and len(block):
                on_batch(block)
        return RecordTable.concatenate(blocks)


class BatchedExecutor(SerialExecutor):
    """The in-process engine under the ``"batched"`` strategy name.

    Identical behaviour and records to :class:`SerialExecutor`; the name
    is what scenario specs select and campaign metadata records.
    """

    name = "batched"


class ParallelExecutor(BaseExecutor):
    """The engine fanned out over a process pool, chunk by chunk.

    Work units are contiguous chunks of the canonical task list
    (size-capped hard, so checkpoint consumers can bound their loss
    window); each runs on a copy of the in-process engine
    (:attr:`engine`), so chunks batch and tile exactly as an in-process
    run does, and every task draws from its own generator — records are
    identical to in-process execution, exact and sampled alike. Chunks
    are collected, and handed to ``on_batch``, in task order: a
    checkpoint of a pool run holds a prefix of the task list whenever it
    is killed. Workers split the parent's OpenBLAS threads (``threads //
    processes``, at least one), so processes times BLAS threads stays
    within the host.

    By default each ``run`` spawns (and tears down) its own process pool.
    Suite runs amortise that: :meth:`start` opens a **long-lived pool**
    that subsequent ``run`` calls share and :meth:`shutdown` closes (the
    executor is also a context manager); records are identical whether
    the pool is per-run or persistent.

    A plan that fits one chunk, and a pool that cannot spawn (restricted
    sandboxes), run on the same engine in-process rather than failing the
    campaign.
    """

    name = "parallel"

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        prefix_reuse: bool = True,
        response_basis: bool = True,
        memory_budget: Optional[int] = None,
        pool_cap: Optional[int] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if pool_cap is not None and pool_cap < 1:
            raise ValueError("pool_cap must be positive when given")
        self.workers = workers
        self.chunk_size = chunk_size
        #: Hard ceiling on *pool processes*, independent of ``workers``.
        #: Chunk partitioning follows ``workers`` alone, so capping the
        #: pool changes only concurrency, never records — which is what
        #: lets the suite shard scheduler divide the host between
        #: campaign-level shards while each shard's campaign stays
        #: byte-identical to an uncapped run.
        self.pool_cap = pool_cap
        #: The in-process engine every chunk runs on, in the workers and
        #: in the in-process fallbacks alike.
        self.engine = SerialExecutor(
            prefix_reuse=prefix_reuse,
            batch_size=chunk_size or 64,
            response_basis=response_basis,
            memory_budget=memory_budget,
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_owner: Optional["ParallelExecutor"] = None

    def prime_segment_compiler(self, compiler: SegmentCompiler) -> None:
        """Prime the in-process engine (see
        :meth:`SerialExecutor.prime_segment_compiler`); workers compile
        their own."""
        self.engine.prime_segment_compiler(compiler)

    # ------------------------------------------------------------------
    # Long-lived pool lifecycle (hoisted out of ``run`` for suite reuse)
    # ------------------------------------------------------------------
    def _new_pool(self, processes: int) -> ProcessPoolExecutor:
        """A pool of ``processes`` (capped) workers that split this
        process's OpenBLAS threads between them, at least one each."""
        processes = self._capped(processes)
        return ProcessPoolExecutor(
            max_workers=processes,
            initializer=pin_blas_threads,
            initargs=(max(1, (blas_threads() or 1) // processes),),
        )

    def start(self) -> "ParallelExecutor":
        """Open a persistent worker pool shared by subsequent ``run``s."""
        owner = self._pool_owner or self
        if owner._pool is None:
            owner._pool = self._new_pool(self._resolve_workers())
        return self

    def shutdown(self) -> None:
        """Close the persistent pool (no-op without one).

        Clones created by :meth:`bounded` delegate to the owning
        executor, so every sharer observes the pool disappearing at
        once — nobody is left submitting to a shut-down pool.
        """
        owner = self._pool_owner or self
        if owner._pool is not None:
            owner._pool.shutdown()
            owner._pool = None

    def _persistent_pool(self) -> Optional[ProcessPoolExecutor]:
        return (self._pool_owner or self)._pool

    def __enter__(self) -> "ParallelExecutor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def bounded(self, limit: int) -> "ParallelExecutor":
        """A pool-sharing copy whose chunks hold at most ``limit`` tasks."""
        limit = max(1, int(limit))
        clone = copy.copy(self)
        clone.chunk_size = min(self.chunk_size or limit, limit)
        clone.engine = self.engine.bounded(limit)
        # The bounded copy shares (but never owns) the persistent pool:
        # checkpointed suite campaigns reuse the suite's workers. It
        # references the owner, not the pool object, so a pool torn
        # down (or rebuilt) by any sharer is seen by all of them.
        clone._pool = None
        clone._pool_owner = self._pool_owner or self
        return clone

    def _resolve_workers(self) -> int:
        return self.workers or os.cpu_count() or 1

    def _capped(self, processes: int) -> int:
        """``processes`` clamped to the pool cap (identity without one)."""
        if self.pool_cap is None:
            return processes
        return max(1, min(processes, self.pool_cap))

    def run(
        self,
        backend: Backend,
        plan: CampaignPlan,
        on_batch: Optional[BatchCallback] = None,
    ) -> RecordTable:
        """Fan the plan's chunks out over the worker pool (see class doc)."""
        tasks = plan.tasks
        if not tasks:
            return RecordTable.empty()
        # Sites are sized before the cut, so every chunk of a site takes
        # the path the whole site takes in process.
        plan = plan.sized()
        workers = self._resolve_workers()
        target = self.chunk_size or max(
            1, math.ceil(len(tasks) / (workers * 4))
        )
        chunks = _chunk_tasks(tasks, target)
        if workers <= 1 or len(chunks) <= 1:
            return self.engine.run(backend, plan, on_batch=on_batch)
        blocks: List[RecordTable] = []
        try:
            with contextlib.closing(
                self._pooled_blocks(backend, plan, chunks, workers)
            ) as pooled:
                for block in pooled:
                    blocks.append(block)
                    if on_batch is not None and len(block):
                        on_batch(block)
        except _PoolLost as lost:
            # Only restart if nothing streamed yet — consumers must
            # never see a record twice.
            if on_batch is not None and any(map(len, blocks)):
                raise lost.error
            warnings.warn(
                "process pool unavailable; parallel campaign degraded to "
                "in-process execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return self.engine.run(backend, plan, on_batch=on_batch)
        return RecordTable.concatenate(blocks)

    def _pooled_blocks(
        self,
        backend: Backend,
        plan: CampaignPlan,
        chunks: List[TaskColumns],
        workers: int,
    ) -> Iterator[RecordTable]:
        """The chunks' blocks in task order, computed on the pool.

        Closing the generator early — the consumer raised, say a failed
        checkpoint append — cancels every chunk that has not started and
        shuts an owned pool down without running them, so a persistent
        pool does not keep computing dropped work. Losing the pool raises
        :class:`_PoolLost`.
        """
        # Workers receive the plan without its tasks; their chunk is the
        # only column slice they need, and large campaigns should not
        # pickle the full sweep once per worker.
        core = replace(plan, tasks=())
        pool = self._persistent_pool()
        owns_pool = pool is None
        futures = []
        try:
            if owns_pool:
                pool = self._new_pool(min(workers, len(chunks)))
            futures = [
                pool.submit(
                    _run_chunk,
                    backend,
                    core,
                    chunk,
                    None if plan.seed is None else (plan.seed, index),
                    self.engine,
                )
                for index, chunk in enumerate(chunks)
            ]
            for future in futures:
                yield future.result()
        except (OSError, RuntimeError) as error:
            # Process pools are unavailable in some sandboxes (spawn may
            # fail outright, or the worker may be killed after spawning);
            # a slow campaign beats a dead one. Beyond OSError and
            # BrokenProcessPool (a RuntimeError subclass), the only
            # RuntimeError treated as pool loss is the shared-pool race:
            # another sharer observed the breakage first and shut the
            # persistent pool down mid-submission. Any other
            # RuntimeError is a genuine worker error and propagates.
            if (
                isinstance(error, RuntimeError)
                and not isinstance(error, BrokenProcessPool)
                and (owns_pool or self._persistent_pool() is not None)
            ):
                raise
            if not owns_pool:
                # The persistent pool is dead: tear it down at the owner
                # so every sharer rebuilds instead of resubmitting to a
                # broken pool.
                self.shutdown()
            raise _PoolLost(error) from error
        finally:
            for future in futures:
                future.cancel()
            if owns_pool and pool is not None:
                pool.shutdown(cancel_futures=True)


class _PoolLost(Exception):
    """The process pool broke or could not start; ``error`` says how."""

    def __init__(self, error: BaseException) -> None:
        super().__init__(str(error))
        self.error = error
