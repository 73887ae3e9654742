"""Which program functions belong to which layer, and the layer metrics.

:func:`install` wraps each layer's public functions (see
``tracer.Hooks``); :func:`layer_metrics` turns the spans and counters of
the traced cold and warm passes (each gathered in a :class:`Phase`) into
the per-layer metrics named in ``BENCHMARK.json``.
``layer_map.json`` beside this file says which end-to-end metric each
layer metric should move, on which workload.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

from perfbench.tracer import Hooks, Span, Tracer, layer_totals

# Layer of the suite runner; its self time is orchestration and manifest
# writes, everything the layers below it do not cover.
RUNNER = "runner"

FACTORY_BUILDERS = (
    "make_algorithm",
    "make_faults",
    "make_transpiled",
    "make_transpiled_campaign_inputs",
    "make_couples",
    "make_noise_model",
    "make_machine",
    "make_backend",
    "make_segment_compiler",
    "make_executor",
    "make_injector",
)

_BACKEND_TAGS = {
    "TrajectorySimulator": "trajectory",
    "PhysicalMachineEmulator": "emulator",
}


def _backend_tag(args) -> str:
    name = type(args[0]).__name__
    return _BACKEND_TAGS.get(name, name)


def _executor_work(args, kwargs, result, seconds, tracer: Tracer) -> float:
    """Count the plan's tasks and the groups a batched executor forms.

    A group is a run of consecutive tasks sharing position, qubit, second
    qubit and extra-fault qubits: the tasks one snapshot and one stacked
    kernel call serve.
    """
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    tasks = plan.tasks
    groups = 0
    last = None
    for task in tasks:
        key = (
            task.point.position,
            task.point.qubit,
            task.second_qubit,
            tuple(qubit for qubit, _ in task.extra_faults),
        )
        if key != last:
            groups += 1
            last = key
    tracer.count("plan.tasks", len(tasks))
    tracer.count("executor.groups", groups)
    executor = args[0]
    if type(executor).__name__ == "ParallelExecutor":
        workers = executor.workers or os.cpu_count() or 1
        tracer.count("pool.capacity_s", workers * seconds)
    return len(tasks)


def _size_of(result) -> float:
    return float(getattr(result, "size", 0) or 0)


def _rows(result) -> float:
    return float(len(result)) if result is not None else 0.0


def _file_size(path) -> float:
    try:
        return float(os.path.getsize(path))
    except OSError:
        return 0.0


def _cache_outcome(args, kwargs, result, seconds, tracer: Tracer) -> float:
    tracer.count("cache.misses" if result is None else "cache.hits")
    return 0.0


class _TimedLock:
    """A cache entry lock whose acquisition is a ``cache.lock`` span."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner

    def __enter__(self):
        token = self._tracer.open("cache.lock")
        try:
            self._inner.__enter__()
        finally:
            if token is not None:
                self._tracer.close(token, time.perf_counter())
        return self

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


def install(tracer: Tracer) -> Hooks:
    """Wrap every traced layer of the already imported ``repro`` package."""
    from repro.analysis.mitigation import MitigatedReadoutBackend
    from repro.faults.campaign import CampaignResult
    from repro.faults.executor import ParallelExecutor, SerialExecutor
    from repro.faults.injector import QuFI
    from repro.faults.records import RecordTable
    from repro.machines.emulator import PhysicalMachineEmulator
    from repro.machines.fake import FakeBackend
    from repro.scenarios.cache import ResultCache
    from repro.scenarios.runner import SuiteRunner
    from repro.simulators.density_matrix import DensityMatrixSimulator
    from repro.simulators.segments import SegmentCompiler
    from repro.simulators.statevector import StatevectorSimulator
    from repro.simulators.trajectory import TrajectorySimulator

    hooks = Hooks(tracer)
    add_f, add_m = hooks.add_function, hooks.add_method

    add_m(SuiteRunner, "run", RUNNER)
    for name in FACTORY_BUILDERS:
        add_f("repro.scenarios.factory", name, "factory")
    add_f("repro.transpiler.transpile", "transpile", "transpile")
    for name in ("run_campaign", "run_double_campaign", "run_correlated_campaign"):
        add_m(QuFI, name, "plan")
    add_m(SerialExecutor, "run", "executor", measure=_executor_work)
    add_m(ParallelExecutor, "run", "executor", measure=_executor_work)
    add_f("repro.faults.executor", "_run_chunk", "chunk",
          measure=lambda a, k, r, s, t: float(len(a[2])))

    simulators = (StatevectorSimulator, DensityMatrixSimulator)
    for cls in simulators:
        add_m(cls, "prefix_snapshot", "snapshot")
        add_m(cls, "run_branches_from_snapshot", "kernel",
              measure=lambda a, k, r, s, t: _size_of(r))
    backends = simulators + (
        TrajectorySimulator, PhysicalMachineEmulator, FakeBackend, MitigatedReadoutBackend,
    )
    for cls in backends:
        for name in ("run", "run_from_snapshot"):
            if name in vars(cls):
                add_m(cls, name, "pertask", tag=_backend_tag)
    add_m(SegmentCompiler, "tail_plan", "segments")

    add_f("repro.faults.executor", "score_result", "score")
    add_f("repro.faults.executor", "score_branch_batch", "score")
    add_f("repro.faults.executor", "_table_from_tasks", "records",
          measure=lambda a, k, r, s, t: float(len(a[0])))
    add_m(RecordTable, "from_columns", "records", measure=lambda a, k, r, s, t: _rows(r))
    add_m(RecordTable, "concatenate", "records")

    add_f("repro.faults.store", "compact", "store.append",
          measure=lambda a, k, r, s, t: _file_size(a[0]))
    add_f("repro.faults.store", "write_meta_segment", "store.append",
          measure=lambda a, k, r, s, t: _file_size(a[0]))
    add_f("repro.faults.store", "append_record_segment", "store.append",
          measure=lambda a, k, r, s, t: float(a[1].data.nbytes))
    add_f("repro.faults.checkpoint", "load_completed_store", "store.read")
    add_f("repro.faults.store", "open_store", "store.read")
    add_f("repro.faults.store", "read_segments", "store.read")
    add_m(CampaignResult, "open", "store.read")

    add_m(ResultCache, "load", "cache.load", measure=_cache_outcome)
    add_m(ResultCache, "put", "cache.put")
    hooks.replace_method(
        ResultCache,
        "lock",
        lambda fn: lambda self, spec_hash: _TimedLock(tracer, fn(self, spec_hash)),
    )
    return hooks


class Phase:
    """Spans and counters of the traced passes of one kind (cold or warm)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.passes = 0

    def add(self, drained: Tuple[List[Span], Dict[str, float]], passes: int) -> None:
        """Take in what ``Tracer.drain`` returned after ``passes`` passes."""
        spans, counters = drained
        self.spans.extend(spans)
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value
        self.passes += passes


def _per_pass(phase: Phase) -> Dict[str, float]:
    """Every layer figure of ``phase``, per pass."""
    totals = layer_totals(phase.spans)

    def layer(name, field="self_s", tag=None):
        return sum(
            getattr(row, field)
            for (lay, tg), row in totals.items()
            if lay == name and (tag is None or tg == tag)
        )

    counters = phase.counters
    kernel_calls = layer("kernel", "calls")
    capacity = counters.get("pool.capacity_s", 0.0)
    busy = layer("chunk", "incl_s")
    summed = {
        "factory.calls": layer("factory", "calls"),
        "factory.s": layer("factory"),
        "transpile.s": layer("transpile"),
        "plan.s": layer("plan"),
        "plan.tasks": counters.get("plan.tasks", 0.0),
        "executor.s": layer("executor"),
        "executor.groups": counters.get("executor.groups", 0.0),
        "snapshot.calls": layer("snapshot", "calls"),
        "snapshot.s": layer("snapshot"),
        "segments.tail_plans": layer("segments", "calls"),
        "segments.compile_s": layer("segments"),
        "kernel.calls": kernel_calls,
        "kernel.branches": layer("kernel", "n"),
        "kernel.s": layer("kernel"),
        "pertask.runs": layer("pertask", "calls"),
        "pertask.s": layer("pertask"),
        "trajectory.s": layer("pertask", tag="trajectory"),
        "emulator.s": layer("pertask", tag="emulator"),
        "score.calls": layer("score", "calls"),
        "score.s": layer("score"),
        "records.rows": layer("records", "n"),
        "records.s": layer("records"),
        "pool.chunks": layer("chunk", "calls"),
        "pool.worker_busy_s": busy,
        "store.appends": layer("store.append", "calls"),
        "store.bytes_written": layer("store.append", "n"),
        "store.append_s": layer("store.append"),
        "store.read_s": layer("store.read"),
        "cache.hits": counters.get("cache.hits", 0.0),
        "cache.misses": counters.get("cache.misses", 0.0),
        "cache.put_s": layer("cache.put"),
        "cache.load_s": layer("cache.load"),
        "cache.lock_wait_s": layer("cache.lock"),
        "runner.self_s": layer(RUNNER),
    }
    passes = phase.passes or 1
    figures = {name: value / passes for name, value in summed.items()}
    figures["kernel.branches_per_call"] = (
        layer("kernel", "n") / kernel_calls if kernel_calls else 0.0
    )
    figures["pool.idle_frac"] = 1.0 - busy / capacity if capacity else 0.0
    return figures


# Read-path metrics: taken per warm pass, where the cache serves the suite.
WARM_ONLY = ("store.read_s", "cache.hits", "cache.load_s")
# Warm-pass counterparts of cold-pass metrics both paths move, as
# ``{reported name: figure}``.
WARM_TWINS = {
    "store.warm_appends": "store.appends",
    "store.warm_append_s": "store.append_s",
    "cache.warm_lock_wait_s": "cache.lock_wait_s",
    "runner.warm_self_s": "runner.self_s",
}


def layer_metrics(cold: Phase, warm: Phase, wall_s: float, main_pid: int) -> Dict[str, float]:
    """Per-layer metrics of the traced passes.

    The write path and the compute layers are reported per cold pass,
    the read path (``WARM_ONLY`` and ``WARM_TWINS``) per warm pass, so a
    change to one path cannot hide in the other. Every ``*_s`` figure is
    self time: span time minus the time of spans it caused.
    ``trace.coverage`` is the share of the traced passes' wall clock
    (``wall_s``) that the layers below the runner cover in the main
    process.
    """
    cold_figures, warm_figures = _per_pass(cold), _per_pass(warm)
    metrics = {name: value for name, value in cold_figures.items() if name not in WARM_ONLY}
    metrics.update({name: warm_figures[name] for name in WARM_ONLY})
    metrics.update({name: warm_figures[figure] for name, figure in WARM_TWINS.items()})
    main_totals = layer_totals(s for s in cold.spans + warm.spans if s.pid == main_pid)
    below_runner = sum(
        row.self_s for (lay, _), row in main_totals.items() if lay != RUNNER
    )
    metrics["trace.coverage"] = below_runner / wall_s if wall_s else 0.0
    return metrics
