"""Suite execution: many campaigns as one resumable job.

``SuiteRunner`` turns a :class:`~repro.scenarios.spec.SuiteSpec` into a
directory-backed **suite manifest** — the multi-campaign analogue of the
single-campaign segment checkpoint:

* every completed campaign is written as its own binary segment store
  (:mod:`repro.faults.store`) under the manifest directory, preserving
  the per-campaign bit-identity guarantees verbatim (the bytes on disk
  *are* the record table);
* ``manifest.json`` tracks the suite spec, per-scenario status and
  result digests, and is rewritten atomically after each campaign — a
  killed suite resumes at campaign granularity, recomputing only the
  campaign that was in flight;
* the manifest is fully deterministic (wall-clock timings live in a
  separate ``timings.json``), so "fresh run" and "killed + resumed"
  produce byte-identical manifests — which is exactly what the CI suite
  smoke job asserts.

Scheduling reuses work across campaigns: immutable artefacts (circuits,
noise models, fault grids, neighbour couples) are memoised in a
:class:`~repro.scenarios.factory.FactoryCache` keyed by spec fragments;
completed campaigns are cached by full spec hash, so the duplicate
campaigns a paper grid naturally contains (Figs. 8a, 9 and 10 all
consume the same BV sweep, and Fig. 6 re-slices Fig. 5's) execute
once; and all parallel scenarios
share one long-lived worker pool (``ParallelExecutor.start``) instead of
spawning a pool per campaign.

Reuse also crosses suite boundaries: with a persistent
:class:`~repro.scenarios.cache.ResultCache` configured (the default
whenever a manifest directory exists), completed campaigns are published
under their spec hash and later suites — any manifest, any process, any
user sharing the cache directory — satisfy matching scenarios from the
cached store instead of simulating (``source == "store"``). And
``jobs=N`` runs the same suite loop with campaign-level sharding
(:mod:`repro.scenarios.shard`): distinct pending campaigns run
concurrently on a shard pool, while manifests and segment stores stay
byte-identical to ``jobs=1`` and kill/resume keeps working at campaign
granularity.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..faults.campaign import CampaignResult
from ..faults.checkpoint import load_completed_store
from ..faults.executor import BaseExecutor, ParallelExecutor
from ..faults.store import read_segments
from .cache import ResultCache, resolve_cache_dir, write_result_store
from .factory import FactoryCache, estimate_scenario_injections, make_executor
from .shard import ShardScheduler, adopt, campaign_job
from .spec import ScenarioSpec, SuiteSpec

__all__ = [
    "MANIFEST_NAME",
    "TIMINGS_NAME",
    "ScenarioRun",
    "SuiteResult",
    "SuiteRunner",
    "format_cost_report",
    "load_suite_result",
]

MANIFEST_NAME = "manifest.json"
TIMINGS_NAME = "timings.json"
_MANIFEST_FORMAT = "qufi-suite-manifest-v1"


def _result_filename(scenario_id: str) -> str:
    """A safe, collision-free file name for a scenario's record store."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", scenario_id)[:80]
    tag = hashlib.sha256(scenario_id.encode("utf-8")).hexdigest()[:6]
    return f"{safe}-{tag}.qfs"


def _entry_digest(result: CampaignResult) -> Dict[str, object]:
    """The deterministic per-scenario facts recorded in the manifest."""
    mean = result.mean_qvf()
    return {
        "circuit_name": result.circuit_name,
        "backend_name": result.backend_name,
        "num_injections": result.num_injections,
        "mean_qvf": None if math.isnan(mean) else mean,
        "fault_free_qvf": result.fault_free_qvf,
    }


@dataclass
class ScenarioRun:
    """One scenario's outcome inside a suite run."""

    spec: ScenarioSpec
    result: CampaignResult
    seconds: float
    source: str
    """Where the result came from: ``"computed"`` (simulated in this
    invocation), ``"cache"`` (in-run spec-hash reuse of a relabelled
    duplicate), ``"manifest"`` (resumed from this manifest directory),
    or ``"store"`` (loaded from the persistent cross-suite result
    cache)."""

    @property
    def scenario_id(self) -> str:
        """The manifest key this run is recorded under."""
        return self.spec.scenario_id


@dataclass
class SuiteResult:
    """Aggregate outcome of a suite: per-scenario results plus totals."""

    name: str
    runs: List[ScenarioRun] = field(default_factory=list)
    complete: bool = True
    total_seconds: float = 0.0
    budget_report: Optional[str] = None

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    def results(self) -> Dict[str, CampaignResult]:
        """All campaign results keyed by scenario id."""
        return {run.scenario_id: run.result for run in self.runs}

    def result(self, scenario_id: str) -> CampaignResult:
        """One scenario's campaign result (``KeyError`` if absent)."""
        for run in self.runs:
            if run.scenario_id == scenario_id:
                return run.result
        raise KeyError(f"no scenario {scenario_id!r} in suite {self.name!r}")

    @property
    def total_injections(self) -> int:
        """Injections executed (or reused) across every scenario."""
        return sum(run.result.num_injections for run in self.runs)

    @property
    def computed(self) -> int:
        """Scenarios whose campaigns actually ran in this invocation."""
        return sum(1 for run in self.runs if run.source == "computed")

    @property
    def reused(self) -> int:
        """Scenarios satisfied without simulating (any non-computed source)."""
        return len(self.runs) - self.computed

    @property
    def from_store(self) -> int:
        """Scenarios satisfied by the persistent cross-suite result cache."""
        return sum(1 for run in self.runs if run.source == "store")

    def __repr__(self) -> str:
        return (
            f"SuiteResult({self.name!r}, scenarios={len(self.runs)}, "
            f"injections={self.total_injections}, "
            f"complete={self.complete})"
        )


class SuiteRunner:
    """Runs a :class:`SuiteSpec` as one resumable, cache-sharing job.

    ``manifest_dir=None`` runs in memory (no persistence, no resume) —
    benchmarks and throwaway sweeps use that. With a directory, the
    runner resumes: scenarios whose manifest entry is complete (matching
    spec hash, loadable record store) are *loaded*, everything else is
    computed and checkpointed as it finishes.

    ``max_campaigns`` bounds how many campaigns this invocation may
    *schedule* for compute (cache/manifest reuse is free); the suite
    returns with ``complete=False`` when the budget stops it —
    re-running resumes.

    ``budget_injections`` / ``budget_seconds`` gate the suite *before*
    it runs: :meth:`estimate_cost` prices every pending scenario (exact
    injection counts; seconds projected from the ``timings.json``
    sidecar's recorded per-injection rate, when history exists) and an
    over-budget suite is either rejected with the full per-scenario
    report (``budget_action="reject"``, the default) or truncated to the
    longest prefix that fits (``"truncate"`` — the suite returns
    ``complete=False`` and re-running with a larger budget resumes).
    A truncating ``budget_seconds`` is also enforced while running: the
    clock is checked before each campaign starts, at every ``jobs``.

    ``jobs`` shards the run at campaign granularity: distinct pending
    campaigns execute concurrently on a pool of ``jobs`` shard
    processes (:class:`~repro.scenarios.shard.ShardScheduler`), each
    shard's intra-campaign parallelism capped so shards x workers never
    exceeds ``host_workers`` (default: the host's CPU count). Manifests
    and stores come out byte-identical to ``jobs=1``; only wall clock
    (and the nondeterministic ``timings.json`` values) differ.

    ``cache_dir`` / ``use_cache`` configure the persistent cross-suite
    result cache (:class:`~repro.scenarios.cache.ResultCache`).
    Resolution follows :func:`~repro.scenarios.cache.resolve_cache_dir`:
    an explicit ``cache_dir`` wins, then the ``REPRO_CACHE`` environment
    variable, then ``<manifest_dir>/cache``; ``use_cache=False`` (or an
    in-memory run without an explicit/environment cache) disables it.
    Cache hits land in the manifest byte-for-byte like computed results
    (``source == "store"``), cost zero against the budgets, and
    completed computes are published back under the entry's file lock.

    The runner is a context manager; ``with SuiteRunner(...) as runner``
    guarantees :meth:`close` (worker pools, shard pool) however the
    body exits. :meth:`run` also closes everything it started on its
    own error path, so bare calls stay leak-free.
    """

    def __init__(
        self,
        suite: SuiteSpec,
        manifest_dir: Optional[str] = None,
        max_campaigns: Optional[int] = None,
        budget_injections: Optional[int] = None,
        budget_seconds: Optional[float] = None,
        budget_action: str = "reject",
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        host_workers: Optional[int] = None,
    ) -> None:
        if max_campaigns is not None and max_campaigns < 1:
            raise ValueError("max_campaigns must be positive when given")
        if budget_injections is not None and budget_injections < 1:
            raise ValueError("budget_injections must be positive when given")
        if budget_seconds is not None and budget_seconds <= 0:
            raise ValueError("budget_seconds must be positive when given")
        if budget_action not in ("reject", "truncate"):
            raise ValueError(
                f"unknown budget action {budget_action!r} "
                f"(choose 'reject' or 'truncate')"
            )
        if jobs < 1:
            raise ValueError("jobs must be positive")
        if host_workers is not None and host_workers < 1:
            raise ValueError("host_workers must be positive when given")
        self.suite = suite
        # Every manifest write records the suite and its hash, and the
        # hash costs a spec hash per scenario: take both once.
        self._suite_dict = suite.to_dict()
        self._suite_hash = suite.suite_hash()
        self.manifest_dir = manifest_dir
        self.max_campaigns = max_campaigns
        self.budget_injections = budget_injections
        self.budget_seconds = budget_seconds
        self.budget_action = budget_action
        self.jobs = jobs
        self.host_workers = host_workers
        self.cache = FactoryCache()
        cache_root = resolve_cache_dir(
            cache_dir, manifest_dir, enabled=use_cache
        )
        self._cache = ResultCache(cache_root) if cache_root else None
        self._by_hash: Dict[str, CampaignResult] = {}
        self._pools: Dict[Tuple, ParallelExecutor] = {}
        self._scheduler: Optional[ShardScheduler] = None
        self._entries: List[Dict[str, object]] = []
        self._timings: Dict[str, float] = {}

    @property
    def result_cache(self) -> Optional[ResultCache]:
        """The persistent result cache this runner consults, if any."""
        return self._cache

    # ------------------------------------------------------------------
    # Manifest persistence
    # ------------------------------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.manifest_dir, MANIFEST_NAME)

    def _fresh_entries(self) -> List[Dict[str, object]]:
        return [
            {
                "id": scenario.scenario_id,
                "spec": scenario.to_dict(),
                "spec_hash": scenario.spec_hash(),
                "status": "pending",
                "result_file": _result_filename(scenario.scenario_id),
            }
            for scenario in self.suite
        ]

    def _load_entries(self) -> List[Dict[str, object]]:
        """Existing manifest entries, validated against this suite."""
        path = self._manifest_path()
        if not os.path.exists(path):
            return self._fresh_entries()
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise ValueError(
                f"{path!r} is not a suite manifest "
                f"(format {manifest.get('format')!r})"
            )
        if manifest.get("suite_hash") != self._suite_hash:
            raise ValueError(
                f"manifest at {path!r} was written for suite "
                f"{manifest.get('suite', {}).get('name')!r} with a "
                f"different scenario list; refusing to mix suites "
                f"(use a fresh manifest directory)"
            )
        entries = manifest["scenarios"]
        # The suite hash pins ordered scenario content, so entries align
        # with the spec one-to-one; stale statuses are re-verified below.
        return entries

    def _write_manifest(self) -> None:
        manifest = {
            "format": _MANIFEST_FORMAT,
            "suite": self._suite_dict,
            "suite_hash": self._suite_hash,
            "scenarios": self._entries,
        }
        path = self._manifest_path()
        tmp_path = f"{path}.tmp"
        # One encode, one write: ``json.dump`` with an indent hands the
        # file every chunk of its pure-Python encoder separately.
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)

    def _load_timings(self) -> Dict[str, float]:
        """Prior invocations' per-scenario timings, if a sidecar exists.

        A resumed run recomputes only the scenarios that were missing,
        so rewriting the sidecar from this invocation's timings alone
        would erase the history of everything already done — merge the
        existing sidecar in first (this run's timings override on
        overlap). Keys are filtered to this suite's scenario ids, so a
        stale sidecar cannot smuggle foreign entries into a fresh run.
        """
        path = os.path.join(self.manifest_dir, TIMINGS_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                recorded = json.load(handle).get("scenarios", {})
        except (OSError, ValueError):
            return {}
        if not isinstance(recorded, dict):
            return {}
        ids = {scenario.scenario_id for scenario in self.suite}
        return {
            key: float(value)
            for key, value in recorded.items()
            if key in ids and isinstance(value, (int, float))
        }

    def _write_timings(self, total_seconds: float, complete: bool) -> None:
        payload = {
            "suite": self.suite.name,
            "total_seconds": total_seconds,
            "complete": complete,
            "scenarios": self._timings,
        }
        path = os.path.join(self.manifest_dir, TIMINGS_NAME)
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)

    def _store_path(self, entry: Dict[str, object]) -> str:
        return os.path.join(self.manifest_dir, entry["result_file"])

    def _load_completed(
        self, entry: Dict[str, object], scenario: ScenarioSpec
    ) -> Optional[CampaignResult]:
        """A previous run's result for ``entry``, if intact."""
        if entry.get("status") != "done":
            return None
        if entry.get("spec_hash") != scenario.spec_hash():
            return None
        return load_completed_store(self._store_path(entry))

    # ------------------------------------------------------------------
    # Pre-run cost estimation
    # ------------------------------------------------------------------
    def _history_rate(
        self, entries: List[Dict[str, object]]
    ) -> Optional[float]:
        """Seconds per injection from the timings sidecar, or ``None``.

        Pools every completed scenario that has both a recorded wall
        clock (``timings.json``) and a recorded injection count (the
        manifest digest) — one global rate, since the sidecar does not
        resolve cost below scenario granularity. No history, no rate: a
        seconds budget then gates only at run time, never pre-run.
        """
        if self.manifest_dir is None:
            return None
        timings = self._load_timings()
        seconds = 0.0
        injections = 0
        for entry in entries:
            digest = entry.get("digest") or {}
            count = digest.get("num_injections")
            recorded = timings.get(entry.get("id"))
            if count and recorded and recorded > 0:
                seconds += float(recorded)
                injections += int(count)
        return seconds / injections if injections else None

    def estimate_cost(self) -> Dict[str, object]:
        """Price the suite before running it.

        Walks the suite in order, charging each scenario its injection
        estimate (:func:`~repro.scenarios.factory.estimate_scenario_injections`;
        zero for scenarios already satisfied by the manifest or by an
        earlier duplicate spec hash) and, when the ``timings.json``
        sidecar holds history, a projected wall clock. Scenarios are
        admitted prefix-wise against the configured budgets: once one
        does not fit, it and every later costed scenario are excluded —
        matching the truncation the runner would apply, so the estimate
        *is* the execution plan.

        Returns a dict with per-scenario rows, the admitted totals, the
        history rate, and the ``excluded`` ids (empty = within budget).
        """
        persist = self.manifest_dir is not None and os.path.exists(
            self._manifest_path()
        )
        entries = self._load_entries() if persist else self._fresh_entries()
        rate = self._history_rate(entries)
        rows: List[Dict[str, object]] = []
        excluded: List[str] = []
        seen_hashes: set = set()
        total_injections = 0
        total_seconds = 0.0
        truncated = False
        for entry, scenario in zip(entries, self.suite):
            spec_hash = scenario.spec_hash()
            reused = (
                (
                    entry.get("status") == "done"
                    and entry.get("spec_hash") == spec_hash
                )
                or spec_hash in seen_hashes
                # A persistent-cache hit is admission-free: the run will
                # link the cached store in instead of simulating. (A
                # corrupt entry prices as a hit and repairs itself by
                # recomputing when reached — by then admission is past,
                # which errs on the side of running, like resume does.)
                or (self._cache is not None and self._cache.has(spec_hash))
            )
            seen_hashes.add(spec_hash)
            injections = (
                0
                if reused
                else estimate_scenario_injections(scenario, self.cache)
            )
            seconds = injections * rate if rate is not None else None
            fits = not truncated
            if fits and self.budget_injections is not None:
                fits = total_injections + injections <= self.budget_injections
            if (
                fits
                and self.budget_seconds is not None
                and seconds is not None
            ):
                fits = total_seconds + seconds <= self.budget_seconds
            if fits:
                total_injections += injections
                if seconds is not None:
                    total_seconds += seconds
            elif injections:
                # Prefix semantics: the first scenario that does not fit
                # truncates everything costed after it, however cheap —
                # running later scenarios before earlier ones would make
                # "resume with a larger budget" reorder the suite.
                truncated = True
                excluded.append(scenario.scenario_id)
            rows.append(
                {
                    "id": scenario.scenario_id,
                    "injections": injections,
                    "seconds": seconds,
                    "reused": reused,
                    "within_budget": fits or not injections,
                }
            )
        return {
            "suite": self.suite.name,
            "rate_seconds_per_injection": rate,
            "total_injections": total_injections,
            "total_seconds": total_seconds if rate is not None else None,
            "budget_injections": self.budget_injections,
            "budget_seconds": self.budget_seconds,
            "scenarios": rows,
            "excluded": excluded,
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _shared_executor(
        self, scenario: ScenarioSpec
    ) -> Optional[BaseExecutor]:
        """One long-lived pool per distinct pool and engine configuration.

        In-process strategies are cheap config objects — a fresh
        instance per campaign costs nothing. Parallel strategies own a
        process pool, so all parallel scenarios of a suite that agree on
        worker count and engine configuration (response basis, memory
        budget) share one started executor instead of
        paying pool spawn/teardown per campaign (``ParallelExecutor.run``
        degrades gracefully if the sandbox forbids subprocesses). The
        pool is built by :func:`~repro.scenarios.factory.make_executor`,
        the construction path every other campaign takes.
        """
        if scenario.executor != "parallel":
            return None
        key = (
            scenario.workers,
            scenario.response_basis,
            scenario.memory_budget,
        )
        if key not in self._pools:
            self._pools[key] = make_executor(scenario, self.cache).start()
        return self._pools[key]

    def _run_suite(
        self, outcome: SuiteResult, denied: set, persist: bool,
        started: float, progress,
    ) -> None:
        """The one suite loop, at every ``jobs`` value (see :meth:`run`).

        Four stages. (1) *Scope*: walk the suite in order, landing what
        needs no campaign job — manifest resumes and persistent-cache
        hits — and queueing the distinct unresolved campaigns, stopping
        at the first one the budgets deny or ``max_campaigns`` (which
        counts queued campaigns) leaves out. (2) *Run*: start each queued
        campaign as a :func:`~repro.scenarios.shard.campaign_job` —
        on the shard pool when there is one, at most ``jobs`` in flight,
        otherwise in process with this runner's factory cache and worker
        pools — checking the ``budget_seconds`` clock before each start.
        (3) *Land*: as jobs finish, in completion order, record each
        one's manifest entry (the job wrote its store), so a kill mid-run
        leaves exactly the finished campaigns resumable. (4) *Assemble*:
        rebuild ``outcome.runs`` in suite order up to the cutoff,
        adopting relabelled duplicates. Per-campaign determinism makes
        manifests and stores byte-identical at every ``jobs``.
        """
        scenarios = self.suite.scenarios
        resolved: Dict[int, ScenarioRun] = {}
        landed = 0

        def store_path(index: int) -> Optional[str]:
            return self._store_path(self._entries[index]) if persist else None

        def land(index: int, run: ScenarioRun) -> None:
            nonlocal landed
            resolved[index] = run
            self._by_hash.setdefault(run.spec.spec_hash(), run.result)
            if run.source == "computed":
                self._timings[run.scenario_id] = run.seconds
            if persist and run.source != "manifest":
                entry = self._entries[index]
                entry["status"] = "done"
                entry["digest"] = _entry_digest(run.result)
                self._write_manifest()
            landed += 1
            if progress is not None:
                progress(landed, len(scenarios), run.scenario_id)

        def land_adopted(
            index: int, base: CampaignResult, source: str
        ) -> None:
            result = adopt(scenarios[index], base)
            if persist:
                write_result_store(store_path(index), result)
            land(index, ScenarioRun(scenarios[index], result, 0.0, source))

        def land_job(index: int, job) -> None:
            result, seconds, from_cache = job
            source = "store" if from_cache else "computed"
            land(index, ScenarioRun(scenarios[index], result, seconds, source))

        # (1) Scope.
        queue: List[int] = []
        queued: set = set()
        cutoff = len(scenarios)
        for index, scenario in enumerate(scenarios):
            spec_hash = scenario.spec_hash()
            if persist:
                existing = self._load_completed(self._entries[index], scenario)
                if existing is not None:
                    run = ScenarioRun(scenario, existing, 0.0, "manifest")
                    land(index, run)
                    continue
            if spec_hash in self._by_hash or spec_hash in queued:
                continue  # relabelled duplicate: adopted during assembly
            # A persistent-cache hit is admission-free (like manifest
            # resume), so it precedes every budget gate below.
            cached = self._cache and self._cache.load(spec_hash)
            if cached is not None:
                land_adopted(index, cached, "store")
                continue
            if scenario.scenario_id in denied or (
                self.max_campaigns is not None
                and len(queue) >= self.max_campaigns
            ):
                # The pre-run estimate truncated the suite here (prefix
                # semantics: everything costed after it was denied too),
                # or this invocation's campaign allowance is spent.
                cutoff = index
                break
            queue.append(index)
            queued.add(spec_hash)

        # (2) Run and (3) land.
        scheduler = self._scheduler = ShardScheduler(
            jobs=self.jobs,
            cache_dir=self._cache.root if self._cache is not None else None,
            host_workers=self.host_workers,
        )
        pending = deque(queue)

        def in_process(index: int) -> None:
            scenario = scenarios[index]
            executor = self._shared_executor(scenario)
            land_job(index, campaign_job(
                scenario, store_path(index), self._cache, self.cache, executor
            ))

        def start() -> None:
            """Start pending campaigns until one is on the shard pool."""
            nonlocal cutoff
            while pending:
                if (
                    self.budget_seconds is not None
                    and self.budget_action == "truncate"
                    and time.perf_counter() - started > self.budget_seconds
                ):
                    # Runtime seconds gate: estimates (or absent
                    # history) can undershoot; stop at a campaign
                    # boundary instead of running long.
                    cutoff = pending[0]
                    pending.clear()
                    return
                index = pending.popleft()
                scenario = scenarios[index]
                if scheduler.submit(index, scenario, store_path(index)):
                    return
                in_process(index)

        for _ in range(self.jobs):
            start()
        for index, job in scheduler.results():
            if job is None:
                in_process(index)  # the shard pool broke under it
            else:
                land_job(index, job)
            start()

        # (4) Assemble.
        for index in range(cutoff):
            if index not in resolved:
                # A relabelled duplicate: its first occurrence landed
                # above (it precedes the cutoff by construction).
                base = self._by_hash[scenarios[index].spec_hash()]
                land_adopted(index, base, "cache")
            outcome.runs.append(resolved[index])
        if cutoff < len(scenarios):
            outcome.complete = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every pool this runner holds (idempotent).

        Shuts down the long-lived intra-campaign worker pools and any
        active shard pool. :meth:`run` calls this on its way out —
        normal return *and* exception unwind alike — and the runner is a
        context manager for callers that construct pools across multiple
        ``run`` invocations.
        """
        for executor in self._pools.values():
            executor.shutdown()
        self._pools.clear()
        if self._scheduler is not None:
            self._scheduler.shutdown()
            self._scheduler = None

    def __enter__(self) -> "SuiteRunner":
        """Context-manager entry: the runner itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close` (pools, shard pool)."""
        self.close()

    def run(self, progress=None) -> SuiteResult:
        """Execute (or resume) the suite and return the aggregate.

        ``progress`` is called as ``progress(done, total, scenario_id)``
        as each scenario lands: manifest resumes and cache hits in suite
        order, then computed campaigns in completion order, then
        relabelled duplicates in suite order.
        """
        persist = self.manifest_dir is not None
        if persist:
            os.makedirs(self.manifest_dir, exist_ok=True)
            self._entries = self._load_entries()
            self._write_manifest()
            # Seed with the previous invocations' timing history; this
            # run's computed scenarios overwrite their own keys only.
            self._timings = {**self._load_timings(), **self._timings}
        else:
            self._entries = self._fresh_entries()

        outcome = SuiteResult(name=self.suite.name)
        denied: set = set()
        if (
            self.budget_injections is not None
            or self.budget_seconds is not None
        ):
            estimate = self.estimate_cost()
            report = format_cost_report(estimate)
            outcome.budget_report = report
            if estimate["excluded"]:
                if self.budget_action == "reject":
                    raise ValueError(
                        f"suite {self.suite.name!r} exceeds its budget; "
                        f"nothing was run\n{report}"
                    )
                denied = set(estimate["excluded"])

        started = time.perf_counter()
        finished = False
        try:
            self._run_suite(outcome, denied, persist, started, progress)
            finished = True
        finally:
            self.close()
            outcome.total_seconds = time.perf_counter() - started
            if persist:
                # A run that is unwinding through an exception is not
                # complete, whatever the loop got through before dying.
                self._write_timings(
                    outcome.total_seconds, outcome.complete and finished
                )
        return outcome


def format_cost_report(estimate: Dict[str, object]) -> str:
    """Human-readable rendering of :meth:`SuiteRunner.estimate_cost`.

    One line per scenario (injections, projected seconds when timing
    history exists, reuse and budget verdicts), then the admitted totals
    against the configured budgets — the text shown when a suite is
    rejected or truncated, so the operator sees exactly which scenario
    broke the budget and what it would cost to admit.
    """
    lines = [f"cost estimate for suite {estimate['suite']!r}:"]
    rate = estimate["rate_seconds_per_injection"]
    for row in estimate["scenarios"]:
        seconds = (
            f" ~{row['seconds']:.1f}s" if row["seconds"] is not None else ""
        )
        status = (
            "reused"
            if row["reused"]
            else ("ok" if row["within_budget"] else "OVER BUDGET")
        )
        lines.append(
            f"  {row['id']}: {row['injections']} injections{seconds}"
            f" [{status}]"
        )
    totals = f"  admitted: {estimate['total_injections']} injections"
    if estimate["total_seconds"] is not None:
        totals += f" ~{estimate['total_seconds']:.1f}s"
    budgets = []
    if estimate["budget_injections"] is not None:
        budgets.append(f"{estimate['budget_injections']} injections")
    if estimate["budget_seconds"] is not None:
        budgets.append(f"{estimate['budget_seconds']:g}s")
    if budgets:
        totals += f" (budget: {', '.join(budgets)})"
    lines.append(totals)
    if rate is None and estimate["budget_seconds"] is not None:
        lines.append(
            "  no timing history in timings.json — seconds budget "
            "enforced at run time only"
        )
    if estimate["excluded"]:
        lines.append(
            f"  excluded: {', '.join(estimate['excluded'])}"
        )
    return "\n".join(lines)


def load_suite_result(manifest_dir: str) -> SuiteResult:
    """Rehydrate a (possibly partial) suite from its manifest directory."""
    path = os.path.join(manifest_dir, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise ValueError(f"{path!r} is not a suite manifest")
    suite = SuiteSpec.from_dict(manifest["suite"])
    timings: Dict[str, float] = {}
    timings_path = os.path.join(manifest_dir, TIMINGS_NAME)
    if os.path.exists(timings_path):
        with open(timings_path, "r", encoding="utf-8") as handle:
            timings = json.load(handle).get("scenarios", {})
    outcome = SuiteResult(name=suite.name)
    for scenario, entry in zip(suite, manifest["scenarios"]):
        if entry.get("status") != "done":
            outcome.complete = False
            continue
        meta, table = read_segments(
            os.path.join(manifest_dir, entry["result_file"])
        )
        if meta is None:
            outcome.complete = False
            continue
        outcome.runs.append(
            ScenarioRun(
                scenario,
                CampaignResult.from_table_meta(meta, table),
                timings.get(scenario.scenario_id, 0.0),
                "manifest",
            )
        )
    outcome.total_seconds = sum(run.seconds for run in outcome.runs)
    return outcome
