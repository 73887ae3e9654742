"""Smoke test of the benchmark: every workload at a tiny size, and the tracer.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import multiprocessing
import time

import pytest

from perfbench import run
from perfbench.tracer import Span, Tracer, layer_totals, self_times

WORKLOADS = ("grid-dm", "double-workers2", "suite", "stochastic")


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_passes_its_checks(name):
    outcome = run.benchmark(name, seed=3, seconds=0, trace=False, tiny=True, probes=1)
    result = outcome["result"]
    assert result["correct"], outcome["details"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    definition = run.load_json(run.ROOT / "BENCHMARK.json")
    assert set(result["metrics"]) == {m["name"] for m in definition["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert outcome["details"]["host"]["nproc"] >= 1


def test_traced_run_reports_every_layer_and_merges_pool_workers():
    outcome = run.benchmark(
        "double-workers2", seed=0, seconds=0, trace=True, tiny=True, probes=1
    )
    result = outcome["result"]
    assert result["correct"], outcome["details"]["problems"]
    assert outcome["details"]["missing_hooks"] == []
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    definition = run.load_json(run.ROOT / "BENCHMARK.json")
    assert set(metrics) == {m["name"] for m in definition["per_layer"]}
    # Chunks run only in the forked pool workers: a count above zero
    # means their span files were written and merged.
    assert metrics["pool.chunks"] > 0 and metrics["pool.worker_busy_s"] > 0
    assert metrics["plan.tasks"] == metrics["records.rows"] > 0
    assert 0 < metrics["trace.coverage"] <= 1
    # The one scenario misses the cache on each cold pass (once more on the
    # re-check under the entry lock) and hits it once on each warm pass:
    # write and read paths are reported per their own pass.
    assert metrics["cache.misses"] == 2 and metrics["cache.hits"] == 1
    assert metrics["store.appends"] > 0 and metrics["store.warm_appends"] > 0


def test_wrong_golden_counts_as_a_failure(tmp_path):
    suite = run.build_suite("grid-dm", 0, tiny=True)
    expected = run.build_factories(suite)
    cold = str(tmp_path / "cold")
    done = run.run_pass(suite, cold, str(tmp_path / "cache"))
    goldens = run.load_json(run.HERE / "goldens.json")["grid-dm"]
    assert run.check_cold(suite, done, expected, goldens, False) == []
    wrong = {key: value + 1e-6 for key, value in goldens.items()}
    problems = run.check_cold(suite, done, expected, wrong, False)
    assert run.failed_scenarios(suite, problems) == 1


def test_pass_is_scaled_by_its_neighbouring_probes():
    sampler = run.SpeedSampler()
    # Probes of twice and of exactly the reference seconds.
    slow = tuple(2 * seconds for seconds in run.PROBE_REFERENCE_S.values())
    sampler.probes = [(0.0, *slow), (0.6, *slow), (10.0, *run.PROBE_REFERENCE_S.values())]
    everything = list(run.PROBE_REFERENCE_S)
    # Both slow probes lie within the window of this pass.
    assert sampler.scale_over(0.2, 0.4, everything) == pytest.approx(0.5)
    # None lies within the window of this one: its neighbours count.
    assert sampler.scale_over(4.0, 5.0, everything) == pytest.approx(2 / 3)
    assert sampler.scale_over(4.0, 5.0, ["python"]) == pytest.approx(2 / 3)


def test_definitions_agree():
    definition = run.load_json(run.ROOT / "BENCHMARK.json")
    workloads = run.load_json(run.HERE / "workloads.json")
    moves = run.load_json(run.HERE / "layer_map.json")["moves"]
    assert [w["name"] for w in definition["workloads"]] == list(workloads)
    assert [m["name"] for m in definition["per_layer"]] == list(moves)
    end_to_end = {m["name"] for m in definition["end_to_end"]}
    for pairs in moves.values():
        for pair in pairs:
            assert pair["metric"] in end_to_end
            assert set(pair["workloads"]) <= set(workloads)


def test_self_time_subtracts_nested_children():
    spans = [
        Span(1, 0, None, "runner", None, 0.0, 10.0, 0),
        Span(1, 1, 0, "plan", None, 1.0, 6.0, 0),
        Span(1, 2, 1, "kernel", None, 2.0, 3.0, 4),
        Span(1, 3, 1, "kernel", None, 4.0, 5.5, 4),
        Span(1, 4, 0, "store.append", None, 7.0, 8.0, 100),
        # Same ids in another process: never a child of pid 1's spans.
        Span(2, 1, None, "chunk", None, 2.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own[spans[0]] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[spans[1]] == pytest.approx(5.0 - 1.0 - 1.5)
    assert own[spans[5]] == pytest.approx(7.0)
    totals = layer_totals(spans)
    kernel = totals[("kernel", None)]
    assert (kernel.calls, kernel.n) == (2, 8)
    assert kernel.self_s == pytest.approx(2.5)


def test_same_layer_calls_fold_into_the_outer_span(tmp_path):
    tracer = Tracer(str(tmp_path))
    outer = tracer.open("pertask", "emulator")
    assert tracer.open("pertask") is None
    tracer.close(outer, time.perf_counter())
    assert [span.tag for span in tracer.spans] == ["emulator"]


def _worker(tracer):
    token = tracer.open("chunk")
    inner = tracer.open("score")
    tracer.count("score.rows", 3)
    tracer.close(inner, time.perf_counter(), 3)
    tracer.close(token, time.perf_counter(), 1)


def test_worker_spans_are_merged(tmp_path):
    tracer = Tracer(str(tmp_path))
    parent = tracer.open("executor")
    context = multiprocessing.get_context("fork")
    workers = [context.Process(target=_worker, args=(tracer,)) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
        assert worker.exitcode == 0
    tracer.close(parent, time.perf_counter())
    spans, counters = tracer.drain()
    pids = {span.pid for span in spans if span.layer == "chunk"}
    assert pids == {worker.pid for worker in workers}
    assert counters == {"score.rows": 6}
    children = [s for s in spans if s.layer == "score"]
    assert all(
        any(c.parent == p.sid and c.pid == p.pid for p in spans if p.layer == "chunk")
        for c in children
    )
    # The parent's open span stayed the parent's: workers reported none.
    assert [s.layer for s in spans if s.pid == tracer.root_pid] == ["executor"]
    assert not list(tmp_path.glob("worker-*.jsonl"))
