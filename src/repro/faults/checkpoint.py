"""The one run path of campaign plans, and resumable checkpoints.

:func:`run_plan` is the one way a :class:`~repro.faults.executor.
CampaignPlan` runs. It is given the rows already recorded — none for a
plain run, the previous round's for an adaptive one, a checkpoint
store's when ``checkpoint_path`` is set — and runs only the tasks those
rows lack, on the injector's executor.

The paper's campaigns run to hundreds of millions of injections; at that
scale interruption is the norm, not the exception. With a
``checkpoint_path``, re-running the same campaign skips every injection
already recorded, so a killed job resumes where it stopped — single,
double and correlated-strike sweeps alike. :class:`CheckpointedRunner` is
the single-fault front end to that path.

Checkpoints are append-only binary segment files
(:mod:`repro.faults.store`): every flush appends one self-contained
segment — O(batch), where the historical JSON checkpoint re-serialised
the whole campaign every time (O(n^2) over a sweep) — and completion
compacts the file atomically to one metadata and one record segment.
Legacy JSON checkpoints still load (and are migrated the first time a
campaign resumes from one); JSON remains the *export* format, and
``CampaignResult.load`` sniffs either.

Pending work keeps its original campaign rank (``InjectionTask.index``),
and every task draws from a generator derived from ``(seed, index)``;
executors deliver rows in task order. So a resumed campaign reproduces
the uninterrupted run's store byte for byte — on the serial, batched and
parallel strategies alike — and a completed checkpoint holds the same
bytes as the plain run's result store. The machine emulator draws from
a seed sequence of its own instead, which a resumed run would restart,
so its checkpoints are refused rather than resumed.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Set,
    Tuple, Union,
)

import numpy as np

from ..algorithms.spec import AlgorithmSpec
from ..quantum.circuit import QuantumCircuit
from .campaign import CampaignResult
from .executor import BaseExecutor, CampaignPlan
from .fault_model import PhaseShiftFault
from .injection_points import InjectionPoint
from .plan import single_plan
from .records import RecordTable
from .store import (
    append_record_segment, compact, is_segment_file, read_segments,
)

if TYPE_CHECKING:
    from .injector import QuFI

__all__ = [
    "CheckpointedRunner",
    "completed_keys",
    "load_checkpoint",
    "load_completed_store",
    "run_plan",
]

ProgressCallback = Callable[[int, int], None]

#: Decimals of the angles in a resume key (float noise below that is
#: the same injection).
_DECIMALS = 9


def _key(theta, phi, position, qubit, second=None) -> Tuple:
    """A resume key: the recorded fault and its site, plus — for pair
    rows — the second fault and qubit. The outer qubits of a k>=3 strike
    need no column: each cluster starts with its own couple, and a
    pattern's sampled phi identifies it."""
    key = (round(theta, _DECIMALS), round(phi, _DECIMALS), position, qubit)
    if second is None:
        return key
    theta2, phi2, qubit2 = second
    return key + (round(theta2, _DECIMALS), round(phi2, _DECIMALS), qubit2)


#: The record columns a resume key reads.
_KEY_COLUMNS = (
    "theta", "phi", "position", "qubit",
    "second_theta", "second_phi", "second_qubit",
)


def _keys(column: Callable[[str], np.ndarray]) -> Iterator[Tuple]:
    """The resume keys of rows whose record columns ``column(name)``
    returns. Both recorded rows and plan tasks go through here, so both
    round Python floats alike."""
    return (
        _key(*row, None if qubit2 < 0 else (theta2, phi2, qubit2))
        for *row, theta2, phi2, qubit2 in zip(
            *(column(name).tolist() for name in _KEY_COLUMNS)
        )
    )


def completed_keys(table: RecordTable) -> Set[Tuple]:
    """The resume keys of recorded rows, straight off the columns."""
    return set(_keys(table.column))


def load_checkpoint(path: str) -> Optional[CampaignResult]:
    """The campaign a checkpoint holds so far — segment store or legacy
    JSON — or ``None`` for a missing path or a store killed before its
    metadata. Interior corruption raises: silently restarting a
    hundred-million-injection campaign would be worse than failing."""
    if not os.path.exists(path):
        return None
    if not is_segment_file(path):
        return CampaignResult.from_json(path)
    meta, table = read_segments(path)
    if meta is None:
        return None
    return CampaignResult.from_table_meta(meta, table)


def _check_resume(stored: CampaignResult, plan: CampaignPlan) -> None:
    """Refuse to continue a checkpoint recorded for another campaign."""
    if stored.circuit_name != plan.name:
        raise ValueError(
            f"checkpoint holds campaign {stored.circuit_name!r}, "
            f"refusing to mix with {plan.name!r}"
        )
    # The circuit name alone cannot tell two routings of one circuit
    # apart, but their positions and frame attribution differ; the
    # recorded transpile block does.
    if stored.metadata.get("transpile") != plan.metadata.get("transpile"):
        raise ValueError(
            "checkpoint was recorded for a different transpilation of this "
            "circuit (machine, optimization level, basis or seed differ); "
            "refusing to mix routings — use a fresh checkpoint path"
        )
    theirs = stored.metadata.get("scenario")
    ours = plan.metadata.get("scenario")
    if theirs is None or ours is None:
        return
    # Imported here: scenario specs live in the layer above this one.
    from ..scenarios.spec import ScenarioSpec

    recorded = ScenarioSpec.from_dict(theirs)
    # A hash salt marks a change in how records are computed (the
    # response basis, the per-task seeding rule): a store whose
    # recorded hash its own scenario no longer reproduces holds rows
    # made under the earlier rule.
    if stored.metadata.get("spec_hash", recorded.spec_hash()) != (
        recorded.spec_hash()
    ):
        raise ValueError(
            "checkpoint was recorded under earlier record rules (its "
            "scenario now hashes differently); refusing to mix records — "
            "use a fresh checkpoint path"
        )
    theirs = recorded.resume_identity()
    ours = ScenarioSpec.from_dict(ours).resume_identity()
    if theirs != ours:
        keys = {**ours, **theirs}
        differs = sorted(k for k in keys if ours.get(k) != theirs.get(k))
        raise ValueError(
            f"checkpoint was recorded for another scenario (differs on "
            f"{differs}); refusing to mix campaigns — use a fresh "
            f"checkpoint path"
        )


# ----------------------------------------------------------------------
# The one run path
# ----------------------------------------------------------------------
def run_plan(
    qufi: QuFI,
    plan: CampaignPlan,
    prior: Optional[CampaignResult] = None,
    checkpoint_path: Optional[str] = None,
    save_every: int = 200,
    executor: Optional[BaseExecutor] = None,
    progress: Optional[ProgressCallback] = None,
) -> CampaignResult:
    """Run ``plan``'s pending tasks on ``qufi``; return the whole campaign.

    Prior rows come from ``prior`` or, with ``checkpoint_path``, from
    the store there (which must hold the same campaign). Tasks whose
    resume key a prior row holds are skipped, and the stored fault-free
    QVF is reused; without prior rows the fault-free QVF is computed
    first, from the injector's stream. Pending tasks keep their original
    rank, and each draws from its own generator, so sampled draws do not
    depend on where an earlier run stopped. A store that a run on the
    machine emulator (a backend with ``reseed``) would resume is refused;
    a completed one reads back as it is.

    A checkpointed run appends a segment every ``save_every`` rows (a
    kill loses fewer than ``2 x save_every``: the unflushed buffer plus
    one in-flight delivery) and compacts the store on completion, to the
    bytes the plain run's result store holds. ``executor`` overrides the
    injector's strategy, and the result's ``executor`` entry names it.
    ``progress(done, total)`` is called per completed record.
    """
    executor = executor if executor is not None else qufi.executor
    metadata = {**plan.metadata, "executor": executor.name}
    # Whether the prior rows were left by an earlier run: a caller
    # passing ``prior`` (a later adaptive round) continues rows it wrote
    # itself, a store found without one holds an earlier run's.
    found = False
    if checkpoint_path is not None:
        if save_every < 1:
            raise ValueError("save_every must be positive")
        found = prior is None
        prior = load_checkpoint(checkpoint_path)
        found = found and prior is not None
        if prior is not None:
            _check_resume(prior, plan)
        # Delivery batches are capped at save_every, so a kill loses at
        # most save_every unflushed rows.
        executor = executor.bounded(save_every)
    # Sites are sized over the whole plan, before recorded tasks drop,
    # so a resumed site takes the path the uninterrupted run took.
    plan = plan.sized()
    if prior is None:
        fault_free = qufi.fault_free_qvf(plan.circuit, plan.correct_states)
        done_table, pending = RecordTable.empty(), plan.tasks
    else:
        fault_free, done_table = prior.fault_free_qvf, prior.table
        done = completed_keys(done_table)
        columns = plan.tasks.record_columns()
        pending = plan.tasks[
            np.array([key not in done for key in _keys(columns.get)], bool)
        ]
    if found and pending and callable(getattr(qufi.backend, "reseed", None)):
        raise ValueError(
            "checkpoint holds a campaign on a backend that draws from a "
            "seed sequence of its own (the machine emulator): a resumed "
            "run would restart that sequence and its rows would differ "
            "from an uninterrupted run's; refusing to resume — use a "
            "fresh checkpoint path"
        )
    meta = {
        "circuit_name": plan.name,
        "correct_states": list(plan.correct_states),
        "fault_free_qvf": fault_free,
        "backend_name": getattr(qufi.backend, "name", "backend"),
        "metadata": metadata,
    }
    if checkpoint_path is not None:
        # Compacted before any append: a fresh path or a legacy JSON
        # checkpoint becomes a segment store, and a torn tail segment a
        # kill left behind is truncated away — appending after torn
        # bytes would corrupt every later segment.
        compact(checkpoint_path, meta, done_table)

    buffered: List[RecordTable] = []
    finished = 0

    def on_batch(batch: RecordTable) -> None:
        nonlocal finished
        if checkpoint_path is not None:
            # Batches accumulate until save_every rows are pending, then
            # flush as one segment: save_every is the flush cadence.
            buffered.append(batch)
            if sum(map(len, buffered)) >= save_every:
                flush()
        if progress is not None:
            for _ in range(len(batch)):
                finished += 1
                progress(finished, len(pending))

    def flush() -> None:
        append_record_segment(
            checkpoint_path, RecordTable.concatenate(buffered)
        )
        buffered.clear()

    # A plain run passes no callback: a pool that breaks before any
    # delivery may then still finish the campaign in-process.
    streaming = checkpoint_path is not None or progress is not None
    records = RecordTable.empty()
    if pending:
        records = executor.run(
            qufi.backend,
            replace(plan, tasks=pending),
            on_batch=on_batch if streaming else None,
        )
        if buffered:
            flush()
    if prior is not None:
        records = RecordTable.concatenate([done_table, records])
    if checkpoint_path is not None:
        compact(checkpoint_path, meta, records)
    return CampaignResult.from_table_meta(meta, records)


def load_completed_store(path: str) -> Optional[CampaignResult]:
    """A completed campaign's store as a result, or ``None`` if unusable.

    The tolerant load shared by every consumer that has recompute
    machinery behind it — the suite runner's manifest resume and the
    persistent result cache: a missing file, non-store bytes, interior
    corruption, or a store with no metadata segment all come back as
    ``None``, and the caller recomputes-and-overwrites, repairing the
    artefact in place. Contrast the checkpoint resume path
    (:func:`load_checkpoint`), which must *not* swallow interior
    corruption (silently restarting a hundred-million-injection campaign
    would be worse than failing loudly).
    """
    try:
        return load_checkpoint(path) if is_segment_file(path) else None
    except (OSError, ValueError):
        return None


class CheckpointedRunner:
    """Runs a single-fault campaign with resume-on-restart semantics."""

    def __init__(
        self,
        qufi: QuFI,
        checkpoint_path: str,
        save_every: int = 200,
        executor: Optional[BaseExecutor] = None,
    ) -> None:
        if save_every < 1:
            raise ValueError("save_every must be positive")
        self.qufi = qufi
        self.checkpoint_path = checkpoint_path
        self.save_every = int(save_every)
        self.executor = executor

    def completed_keys(self) -> Set[Tuple]:
        """Resume keys of the injections the checkpoint already holds."""
        existing = load_checkpoint(self.checkpoint_path)
        return set() if existing is None else completed_keys(existing.table)

    def run(
        self,
        target: Union[AlgorithmSpec, QuantumCircuit],
        correct_states: Optional[Sequence[str]] = None,
        faults: Optional[Sequence[PhaseShiftFault]] = None,
        points: Optional[Sequence[InjectionPoint]] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> CampaignResult:
        """Run (or resume) the campaign, appending a checkpoint segment
        every ``save_every`` completed injections. Returns the complete
        result.

        ``metadata`` entries are merged into the campaign metadata and
        persisted in the checkpoint store's metadata segment — transpiled
        campaigns pass their layout map here, so the ``.ckpt`` artefact
        itself stays frame-convertible (including after a kill, when it
        is the only artefact)."""
        qufi = self.qufi
        plan = single_plan(
            target, correct_states, faults, points, qufi.shots, qufi.seed
        )
        plan.metadata.update(metadata or {})
        return run_plan(
            qufi,
            plan,
            checkpoint_path=self.checkpoint_path,
            save_every=self.save_every,
            executor=self.executor,
        )
