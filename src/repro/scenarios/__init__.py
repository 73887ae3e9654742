"""Declarative scenario suites: the campaign-orchestration layer.

The paper's evaluation is not one campaign but a *grid* of them — six
algorithms x widths x noise settings x single/double faults x
ideal-sim / noisy-sim / machine scenarios (Figs. 5-11). This package makes
that grid a value, not a script:

* :class:`ScenarioSpec` names everything one campaign needs — algorithm,
  width, noise profile, backend kind, fault model, executor strategy,
  shots, seed — and round-trips through JSON;
* :class:`SuiteSpec` is an ordered collection of scenarios with
  cross-product expansion (``{"algorithm": ["ghz", "qft"], "width":
  [2, ..., 8], "noise": ["none", "light", "heavy"]}`` is 42 scenarios in
  one entry);
* :mod:`repro.scenarios.factory` is the single place circuits, noise
  models, backends and executors are constructed from specs — the CLI,
  the benchmarks and the examples all build campaigns through it;
* :class:`SuiteRunner` executes a whole suite as one resumable job:
  campaigns stream into a suite manifest over the segment store, a killed
  suite resumes at campaign granularity, duplicate specs are computed
  once (the paper grid reuses the same campaigns across figures), and
  parallel scenarios share one long-lived worker pool;
* :mod:`repro.scenarios.cache` persists completed campaigns in an
  on-disk content-addressed :class:`ResultCache` keyed by spec hash, so
  matching scenarios are reused across suites, manifests and processes;
* :mod:`repro.scenarios.shard` holds the one compute-once campaign job
  and campaign-level sharding around it (``SuiteRunner(jobs=N)``):
  distinct pending campaigns run concurrently on a shard pool under a
  global worker budget, with manifests and stores byte-identical to
  ``jobs=1``, which runs the same job in process.
"""

from .cache import (
    CacheEntry,
    ResultCache,
    resolve_cache_dir,
    result_store_meta,
)
from .factory import (
    MACHINES,
    FactoryCache,
    estimate_scenario_injections,
    heavy_noise_model,
    light_noise_model,
    make_algorithm,
    make_backend,
    make_couples,
    make_executor,
    make_faults,
    make_injector,
    make_noise_model,
    make_transpiled,
    plan_scenario,
    run_adaptive_scenario,
    run_scenario,
)
from .runner import (
    ScenarioRun,
    SuiteResult,
    SuiteRunner,
    format_cost_report,
    load_suite_result,
)
from .shard import ShardScheduler
from .spec import (
    AdaptiveSpec,
    BudgetSpec,
    QECSpec,
    ScenarioSpec,
    StrikeSpec,
    SuiteSpec,
    TranspileSpec,
    expand_grid,
)

__all__ = [
    "MACHINES",
    "AdaptiveSpec",
    "BudgetSpec",
    "QECSpec",
    "StrikeSpec",
    "ScenarioSpec",
    "SuiteSpec",
    "TranspileSpec",
    "expand_grid",
    "FactoryCache",
    "light_noise_model",
    "heavy_noise_model",
    "make_noise_model",
    "make_algorithm",
    "make_backend",
    "make_couples",
    "make_executor",
    "make_faults",
    "make_injector",
    "make_transpiled",
    "estimate_scenario_injections",
    "plan_scenario",
    "run_adaptive_scenario",
    "run_scenario",
    "SuiteRunner",
    "SuiteResult",
    "ScenarioRun",
    "format_cost_report",
    "load_suite_result",
    "CacheEntry",
    "ResultCache",
    "resolve_cache_dir",
    "result_store_meta",
    "ShardScheduler",
]
