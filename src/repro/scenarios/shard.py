"""The campaign job, and campaign-level sharding around it.

A suite computes each pending campaign as one **campaign job**
(:func:`campaign_job`): take the spec hash's cache lock, re-check the
cache (adopting a hit), time ``run_scenario`` alone, write the
manifest store, and publish the cache entry as a hard link of that
store — so two suites (or two shards) racing on the same spec hash
compute it exactly once between them, and every store is written once.

``SuiteRunner`` runs the job in process at ``jobs=1``, with its own
factory cache and long-lived worker pools. A :class:`ShardScheduler`
runs it on a pool of ``jobs`` shard processes otherwise, each shard
executing one whole campaign end to end with a factory cache of its
own.

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
  *processes only*: every task draws from its own generator, and chunk
  partitioning still follows the spec's ``workers``, so even an
  emulator campaign (whose own stream a pool reseeds per chunk) records
  what an uncapped run records.

Like the intra-campaign pool, the shard pool degrades gracefully:
sandboxes that forbid subprocesses, or a pool that dies mid-run, hand
their jobs back to the caller's in-process branch (with a
``RuntimeWarning``), preserving results at the cost of concurrency.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import Dict, Iterator, Optional, Tuple

from ..blas import pin_blas_threads
from ..faults.campaign import CampaignResult
from ..faults.executor import BaseExecutor
from .cache import ResultCache, write_result_store
from .factory import FactoryCache, make_executor, run_scenario
from .spec import ScenarioSpec

__all__ = ["ShardScheduler", "adopt", "campaign_job"]

#: One campaign job's outcome: the campaign, the wall clock of
#: ``run_scenario`` (0.0 for a cache hit), and whether the persistent
#: cache satisfied it.
_JobOutcome = Tuple[CampaignResult, float, bool]


def adopt(scenario: ScenarioSpec, base: CampaignResult) -> CampaignResult:
    """Re-badge a campaign computed for an equal spec (a relabelled
    duplicate or a cache entry) as ``scenario``'s.

    The record table is shared (immutable); only the scenario identity
    metadata differs.
    """
    return CampaignResult(
        circuit_name=base.circuit_name,
        correct_states=base.correct_states,
        records=base.table,
        fault_free_qvf=base.fault_free_qvf,
        backend_name=base.backend_name,
        metadata={
            **base.metadata,
            "scenario_id": scenario.scenario_id,
            "scenario": scenario.to_dict(),
        },
    )


def campaign_job(
    scenario: ScenarioSpec,
    store_path: Optional[str],
    cache: Optional[ResultCache],
    factory: FactoryCache,
    executor: Optional[BaseExecutor],
) -> _JobOutcome:
    """Compute one campaign once: lock, re-check, run, write, publish.

    With a ``cache`` the whole sequence holds the spec hash's exclusive
    file lock, and the post-acquisition re-check adopts an entry another
    runner or shard published meanwhile instead of recomputing. The
    manifest store (``store_path``; ``None`` for in-memory suites) is
    written here, where the result is made, and a computed campaign is
    published as a hard link of it.
    """
    spec_hash = scenario.spec_hash()
    with cache.lock(spec_hash) if cache is not None else nullcontext():
        loaded = cache.load(spec_hash) if cache is not None else None
        if loaded is not None:
            result, seconds = adopt(scenario, loaded), 0.0
        else:
            tick = time.perf_counter()
            result = run_scenario(scenario, cache=factory, executor=executor)
            seconds = time.perf_counter() - tick
        if store_path is not None:
            write_result_store(store_path, result)
        if cache is not None and loaded is None:
            cache.put(spec_hash, result, store_path=store_path)
    return result, seconds, loaded is not None


def _shard_job(
    scenario: ScenarioSpec,
    store_path: Optional[str],
    cache_dir: Optional[str],
    worker_cap: int,
) -> _JobOutcome:
    """The campaign job inside a shard process (its own factory cache)."""
    factory = FactoryCache()
    executor = None
    if scenario.executor == "parallel":
        executor = make_executor(scenario, factory, pool_cap=worker_cap)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return campaign_job(scenario, store_path, cache, factory, executor)


def _init_shard(worker_cap: int) -> None:
    """Shard process set-up: pin OpenBLAS; forked children die with it.

    A pool that loses one shard process terminates the others, and a
    forked process outlives its parent: the workers of a terminated
    shard's parallel executor would block for good on their task queue.
    So every process a shard forks watches a pipe whose write end only
    the shard holds, and exits when it closes.
    """
    pin_blas_threads(worker_cap)
    if hasattr(os, "register_at_fork"):  # POSIX: shards can fork
        lifeline, held = os.pipe()
        os.register_at_fork(after_in_child=lambda: _watch(lifeline, held))


def _watch(lifeline: int, held: int) -> None:
    os.close(held)
    threading.Thread(
        target=_exit_with_shard, args=(lifeline,), daemon=True
    ).start()


def _exit_with_shard(lifeline: int) -> None:
    os.read(lifeline, 1)  # end of file: the shard is gone
    os._exit(1)


class ShardScheduler:
    """Runs campaign jobs on a pool of shard processes.

    ``jobs`` is the shard count; ``host_workers`` (default
    ``os.cpu_count()``) is the global worker budget divided between
    shards — each shard process runs its OpenBLAS on ``worker_cap =
    max(1, host_workers // jobs)`` threads, and its campaigns run their
    parallel executors capped at ``worker_cap`` pool processes.
    ``cache_dir`` routes every job through the persistent result cache's
    compute-once locking (see :func:`campaign_job`).

    Lifecycle: :meth:`submit` jobs (the pool opens on the first), drain
    :meth:`results` (completion order), :meth:`shutdown` — or use the
    scheduler as a context manager. The scheduler keeps no in-process
    queue: a job the pool cannot take is refused by :meth:`submit`, and
    a job a broken pool lost comes back from :meth:`results` without an
    outcome, for the caller to run in process.
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
        self._futures: Dict[object, int] = {}
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
                    initializer=_init_shard,
                    initargs=(self.worker_cap,),
                )
            except OSError:
                self._degrade()
        return self

    def _degrade(self) -> None:
        """Drop the pool for good: later jobs run in the caller's process."""
        if not self._degraded:
            warnings.warn(
                "shard pool unavailable; campaigns degraded to "
                "in-process execution",
                RuntimeWarning,
                stacklevel=3,
            )
        self._degraded = True
        self._pool = None

    def shutdown(self) -> None:
        """Tear the pool down; queued-but-unstarted jobs are dropped.

        Idempotent, and safe to call while an exception unwinds through
        a half-drained :meth:`results` — running shards are awaited
        (their stores and cache entries stay consistent), queued ones
        are cancelled.
        """
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
        self._futures.clear()

    def __enter__(self) -> "ShardScheduler":
        """Context-manager entry: :meth:`start`."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`shutdown`."""
        self.shutdown()

    # ------------------------------------------------------------------
    # Work
    # ------------------------------------------------------------------
    def submit(
        self,
        index: int,
        scenario: ScenarioSpec,
        store_path: Optional[str] = None,
    ) -> bool:
        """Start one campaign job on the pool; ``index`` tags its result.

        Returns ``False`` when no pool can take it — ``jobs=1``, a
        spawn-forbidden sandbox, or a pool that broke earlier — and the
        caller then runs the job in process.
        """
        self.start()
        if self._pool is None:
            return False
        try:
            future = self._pool.submit(
                _shard_job, scenario, store_path, self.cache_dir,
                self.worker_cap,
            )
        except (OSError, RuntimeError):
            # submit runs no user code: any failure here is pool
            # trouble (spawn refused, pool already broken/shut), so
            # degrade rather than fail the suite.
            self._degrade()
            return False
        self._futures[future] = index
        return True

    def results(self) -> Iterator[Tuple[int, Optional[_JobOutcome]]]:
        """Yield ``(index, outcome)`` per job, in completion order.

        Keeps draining while any job is in flight, including jobs
        submitted between yields. Pool loss (``BrokenProcessPool``/spawn
        errors) degrades the scheduler and yields every job it took down
        with ``None`` for its outcome, in submission order, for the
        caller to re-run in process; a genuine scenario exception
        propagates to the caller (who is expected to shut down).
        """
        while self._futures:
            done, _ = wait(list(self._futures), return_when=FIRST_COMPLETED)
            lost = []
            for future in done:
                index = self._futures.pop(future)
                try:
                    outcome = future.result()
                except (OSError, BrokenProcessPool):
                    # The pool died under this job (spawn refused, a
                    # worker was killed), and every other job in flight
                    # with it. A scenario's own OSError re-raises
                    # identically when re-run in process.
                    lost.append(index)
                else:
                    yield index, outcome
            if lost:
                lost.extend(self._futures.values())
                self._futures.clear()
                self._degrade()
                for index in sorted(lost):
                    yield index, None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardScheduler(jobs={self.jobs}, "
            f"worker_cap={self.worker_cap}, cache_dir={self.cache_dir!r})"
        )
