"""Campaign-level sharding: whole scenarios as pool work units.

``SuiteRunner`` has always parallelised *inside* a campaign (the
``parallel`` executor fans injection chunks over a process pool), but
executed campaigns one after another. A :class:`ShardScheduler` adds the
outer level: independent campaigns — the suite's distinct spec hashes —
are dispatched concurrently onto a shard pool of ``jobs`` processes,
each shard executing one whole campaign end to end (scope → execute →
publish, with the per-spec-hash lock of the result cache as the
publish gate).

Two properties make campaign-granularity shards safe:

* **Independence** — campaigns share nothing at run time (factory
  artefacts are rebuilt per shard; record determinism depends only on
  the spec), so any completion order yields the same per-campaign
  bytes, and the suite runner reassembles manifest entries in suite
  order regardless of arrival order.
* **A global worker budget** — each shard's intra-campaign parallelism
  is capped at ``worker_cap = host_workers // jobs`` pool processes
  (``ParallelExecutor.pool_cap``), and each shard process runs its
  OpenBLAS on ``worker_cap`` threads, so shards times per-shard workers
  or BLAS threads never oversubscribes the host. The cap bounds
  *processes only*: chunk partitioning still follows the spec's
  ``workers``, which keeps sampled-campaign records byte-identical to
  sequential execution.

Shard workers coordinate through the persistent result cache when one
is configured: each job takes the entry's ``flock`` before computing,
re-checks the cache after acquiring, and publishes its completed store
under the lock — so two suites (or two shards) racing on the same spec
hash compute it exactly once between them.

Like the intra-campaign pool, the shard pool degrades gracefully:
sandboxes that forbid subprocesses fall back to in-process execution of
the queued jobs (with a ``RuntimeWarning``), preserving results at the
cost of concurrency.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterator, List, Optional, Tuple

from ..blas import pin_blas_threads
from ..faults.campaign import CampaignResult
from .cache import ResultCache
from .factory import FactoryCache, make_executor, run_scenario
from .spec import ScenarioSpec

__all__ = ["ShardScheduler"]

#: One shard job's outcome: the campaign, its compute wall clock
#: (0.0 for cache hits), and whether the persistent cache satisfied it.
_JobOutcome = Tuple[CampaignResult, float, bool]


def _compute_job(
    spec: ScenarioSpec, worker_cap: Optional[int]
) -> Tuple[CampaignResult, float]:
    """Run one campaign, honouring the shard's worker budget."""
    factory_cache = FactoryCache()
    executor = None
    if spec.executor == "parallel":
        executor = make_executor(spec, factory_cache, pool_cap=worker_cap)
    tick = time.perf_counter()
    result = run_scenario(spec, cache=factory_cache, executor=executor)
    return result, time.perf_counter() - tick


def _execute_job(
    spec: ScenarioSpec,
    cache_dir: Optional[str],
    worker_cap: Optional[int],
) -> _JobOutcome:
    """One shard's whole unit of work (runs inside a pool process).

    With a cache: take the spec hash's exclusive lock, re-check the
    cache (the loser of a cross-process race finds the winner's entry
    here instead of recomputing), and otherwise compute and publish
    under the lock. Without one: just compute.
    """
    if cache_dir is None:
        result, seconds = _compute_job(spec, worker_cap)
        return result, seconds, False
    cache = ResultCache(cache_dir)
    spec_hash = spec.spec_hash()
    with cache.lock(spec_hash):
        loaded = cache.load(spec_hash)
        if loaded is not None:
            return loaded, 0.0, True
        result, seconds = _compute_job(spec, worker_cap)
        cache.put(spec_hash, result)
    return result, seconds, False


class ShardScheduler:
    """Dispatches independent campaigns onto a pool of shard processes.

    ``jobs`` is the shard count; ``host_workers`` (default
    ``os.cpu_count()``) is the global worker budget divided between
    shards — each shard process runs its OpenBLAS on ``worker_cap =
    max(1, host_workers // jobs)`` threads, and its campaigns run their
    parallel executors capped at ``worker_cap`` pool processes.
    ``cache_dir`` routes every job through the persistent result cache's
    compute-once locking (see :func:`_execute_job`).

    Lifecycle: :meth:`start`, :meth:`submit` each job, drain
    :meth:`results` (completion order), :meth:`shutdown` — or use the
    scheduler as a context manager. A pool that cannot spawn (or dies
    mid-run) degrades to in-process execution of the remaining jobs with
    a ``RuntimeWarning``, mirroring ``ParallelExecutor``'s behaviour.
    """

    def __init__(
        self,
        jobs: int,
        cache_dir: Optional[str] = None,
        host_workers: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be positive")
        if host_workers is not None and host_workers < 1:
            raise ValueError("host_workers must be positive when given")
        self.jobs = jobs
        self.cache_dir = cache_dir
        host = (
            host_workers
            if host_workers is not None
            else (os.cpu_count() or 1)
        )
        #: Pool-process ceiling each shard passes to its campaigns'
        #: parallel executors, so shards x intra-campaign workers never
        #: exceeds the host budget.
        self.worker_cap = max(1, host // jobs)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[object, Tuple[int, ScenarioSpec]] = {}
        self._local: List[Tuple[int, ScenarioSpec]] = []
        self._degraded = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardScheduler":
        """Open the shard pool (no-op for ``jobs=1`` or when degraded)."""
        if self._pool is None and self.jobs > 1 and not self._degraded:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=pin_blas_threads,
                    initargs=(self.worker_cap,),
                )
            except OSError:
                self._degraded = True
        return self

    def shutdown(self) -> None:
        """Tear the pool down; queued-but-unstarted jobs are dropped.

        Idempotent, and safe to call while an exception unwinds through
        a half-drained :meth:`results` — running shards are awaited
        (their manifests/caches stay consistent), queued ones are
        cancelled.
        """
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
        self._futures.clear()
        self._local.clear()

    def __enter__(self) -> "ShardScheduler":
        """Context-manager entry: :meth:`start`."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`shutdown`."""
        self.shutdown()

    # ------------------------------------------------------------------
    # Work
    # ------------------------------------------------------------------
    def submit(self, index: int, scenario: ScenarioSpec) -> None:
        """Queue one campaign; ``index`` tags it through :meth:`results`.

        Jobs land on the pool when one is up, and on the in-process
        fallback queue otherwise (``jobs=1``, spawn-forbidden sandboxes,
        or a pool that broke earlier).
        """
        self.start()
        if self._pool is not None:
            try:
                future = self._pool.submit(
                    _execute_job, scenario, self.cache_dir, self.worker_cap
                )
            except (OSError, RuntimeError):
                # submit runs no user code: any failure here is pool
                # trouble (spawn refused, pool already broken/shut), so
                # degrade rather than fail the suite.
                self._degraded = True
                self._pool = None
                self._local.append((index, scenario))
            else:
                self._futures[future] = (index, scenario)
        else:
            self._local.append((index, scenario))

    def results(self) -> Iterator[Tuple[int, CampaignResult, float, bool]]:
        """Drain every submitted job, yielding in completion order.

        Yields ``(index, result, seconds, from_cache)`` per job —
        ``seconds`` is the shard-measured compute wall clock (0.0 for
        cache hits). Pool loss mid-drain (``BrokenProcessPool``/spawn
        errors) re-executes the affected jobs in-process, in submission
        order, after a ``RuntimeWarning``; a genuine scenario exception
        propagates to the caller (who is expected to shut down).
        """
        pending = dict(self._futures)
        leftovers: List[Tuple[int, ScenarioSpec]] = list(self._local)
        self._futures = {}
        self._local = []
        outstanding = set(pending)
        while outstanding:
            done, outstanding = wait(
                outstanding, return_when=FIRST_COMPLETED
            )
            broken = False
            for future in done:
                index, scenario = pending.pop(future)
                try:
                    result, seconds, from_cache = future.result()
                except (OSError, BrokenProcessPool):
                    # The pool died under this job (spawn refused, a
                    # worker was killed). Every other outstanding job is
                    # dead with it; queue them all for in-process
                    # execution. A scenario's own OSError re-raises
                    # identically when re-executed below.
                    leftovers.append((index, scenario))
                    broken = True
                else:
                    yield index, result, seconds, from_cache
            if broken:
                leftovers.extend(
                    pending.pop(future) for future in list(outstanding)
                )
                outstanding = set()
                self._degraded = True
                self._pool = None
        if leftovers and self._degraded:
            warnings.warn(
                "shard pool unavailable; campaigns degraded to "
                "in-process execution",
                RuntimeWarning,
                stacklevel=2,
            )
        for index, scenario in sorted(leftovers, key=lambda job: job[0]):
            result, seconds, from_cache = _execute_job(
                scenario, self.cache_dir, self.worker_cap
            )
            yield index, result, seconds, from_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardScheduler(jobs={self.jobs}, "
            f"worker_cap={self.worker_cap}, cache_dir={self.cache_dir!r})"
        )
