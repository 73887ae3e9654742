"""SuiteRunner: bit-identity, manifests, kill/resume, caching, pools.

The acceptance contract (the suite analogue of the checkpoint-resume
tests): a suite of N >= 4 scenarios run through ``SuiteRunner`` yields
per-scenario results bit-identical to running each campaign individually
with the same seeds; a suite killed mid-run resumes at campaign
granularity to the *same* manifest a fresh uninterrupted run produces;
and duplicate specs are computed once.
"""

import json
import os
import time
import types
import warnings
from collections import Counter

import numpy as np
import pytest

from repro.scenarios import (
    ScenarioSpec,
    SuiteRunner,
    SuiteSpec,
    estimate_scenario_injections,
    format_cost_report,
    load_suite_result,
    run_scenario,
)
from repro.scenarios import runner as runner_module
from repro.scenarios import shard as shard_module
from repro.scenarios.runner import MANIFEST_NAME, TIMINGS_NAME
from repro.simulators.segments import SegmentCompiler


def mixed_suite() -> SuiteSpec:
    """Four distinct campaigns + one relabelled duplicate, mixed kinds."""
    return SuiteSpec.build(
        "acceptance",
        [
            ScenarioSpec(
                algorithm="bv",
                width=3,
                noise="none",
                grid_step_deg=90.0,
                executor="serial",
                label="bv3-ideal",
            ),
            ScenarioSpec(
                algorithm="ghz",
                width=3,
                noise="light",
                grid_step_deg=90.0,
                shots=64,
                seed=7,
                label="ghz3-sampled",
            ),
            ScenarioSpec(
                algorithm="qft",
                width=3,
                noise="heavy",
                grid_step_deg=90.0,
                label="qft3-heavy",
            ),
            ScenarioSpec(
                algorithm="bv",
                width=3,
                noise="none",
                mode="double",
                grid_step_deg=90.0,
                phi_max_deg=180.0,
                label="bv3-double",
            ),
            ScenarioSpec(
                algorithm="bv",
                width=3,
                noise="none",
                grid_step_deg=90.0,
                executor="serial",
                label="bv3-ideal-bis",
            ),
        ],
    )


def tables(outcome):
    return {
        run.scenario_id: run.result.table.data.tobytes() for run in outcome
    }


def manifest_bytes(manifest_dir):
    """Every store's bytes plus the manifest, keyed by file name."""
    out = {}
    for name in sorted(os.listdir(manifest_dir)):
        path = os.path.join(manifest_dir, name)
        if os.path.isfile(path):
            out[name] = open(path, "rb").read()
    out.pop(TIMINGS_NAME, None)
    return out


class SimulatedKill(Exception):
    pass


class TestSuiteBitIdentity:
    def test_suite_matches_individual_campaigns(self, tmp_path):
        """Acceptance: N >= 4 scenarios, suite == standalone, bit for bit."""
        suite = mixed_suite()
        outcome = SuiteRunner(suite, manifest_dir=str(tmp_path / "m")).run()
        assert outcome.complete and len(outcome) == len(suite)
        for run in outcome:
            standalone = run_scenario(run.spec)
            assert (
                run.result.table.data.tobytes()
                == standalone.table.data.tobytes()
            ), f"suite diverged from standalone for {run.scenario_id}"
            assert run.result.fault_free_qvf == standalone.fault_free_qvf

    def test_in_memory_suite_matches_persisted(self, tmp_path):
        suite = mixed_suite()
        in_memory = SuiteRunner(suite).run()
        persisted = SuiteRunner(suite, manifest_dir=str(tmp_path / "m")).run()
        assert tables(in_memory) == tables(persisted)


class TestSpecHashCaching:
    def test_duplicate_specs_computed_once(self, tmp_path, monkeypatch):
        suite = mixed_suite()
        calls = []
        real = shard_module.run_scenario

        def counting(spec, **kwargs):
            calls.append(spec.scenario_id)
            return real(spec, **kwargs)

        monkeypatch.setattr(shard_module, "run_scenario", counting)
        outcome = SuiteRunner(suite, manifest_dir=str(tmp_path / "m")).run()
        assert len(calls) == 4  # 5 scenarios, 4 distinct campaigns
        assert "bv3-ideal-bis" not in calls
        duplicate = outcome.result("bv3-ideal-bis")
        original = outcome.result("bv3-ideal")
        assert duplicate.table is original.table  # shared, immutable
        assert duplicate.metadata["scenario_id"] == "bv3-ideal-bis"

    def test_duplicate_still_persisted_per_scenario(self, tmp_path):
        manifest_dir = str(tmp_path / "m")
        SuiteRunner(mixed_suite(), manifest_dir=manifest_dir).run()
        manifest = json.load(open(os.path.join(manifest_dir, MANIFEST_NAME)))
        done = [e for e in manifest["scenarios"] if e["status"] == "done"]
        assert len(done) == 5
        files = {e["result_file"] for e in done}
        assert len(files) == 5
        for entry in done:
            assert os.path.exists(os.path.join(manifest_dir, entry["result_file"]))


class TestKillAndResume:
    def _run_with_kill(self, suite, manifest_dir, kill_after, monkeypatch):
        """Kill the suite after ``kill_after`` computed campaigns."""
        real = shard_module.run_scenario
        computed = {"n": 0}

        def killing(spec, **kwargs):
            if computed["n"] >= kill_after:
                raise SimulatedKill(f"killed before {spec.scenario_id}")
            computed["n"] += 1
            return real(spec, **kwargs)

        monkeypatch.setattr(shard_module, "run_scenario", killing)
        with pytest.raises(SimulatedKill):
            SuiteRunner(suite, manifest_dir=manifest_dir).run()
        monkeypatch.setattr(shard_module, "run_scenario", real)

    def test_resumed_suite_equals_uninterrupted(self, tmp_path, monkeypatch):
        suite = mixed_suite()
        reference_dir = str(tmp_path / "reference")
        reference = SuiteRunner(suite, manifest_dir=reference_dir).run()

        killed_dir = str(tmp_path / "killed")
        self._run_with_kill(suite, killed_dir, 2, monkeypatch)
        partial = json.load(open(os.path.join(killed_dir, MANIFEST_NAME)))
        statuses = [e["status"] for e in partial["scenarios"]]
        assert "done" in statuses and "pending" in statuses
        # The timings sidecar must not claim a dead run completed.
        timings = json.load(open(os.path.join(killed_dir, TIMINGS_NAME)))
        assert timings["complete"] is False

        resumed = SuiteRunner(suite, manifest_dir=killed_dir).run()
        assert resumed.complete
        assert tables(resumed) == tables(reference)
        # Resume recomputed only what the kill lost.
        assert resumed.computed == 2
        assert resumed.reused == 3

        # The manifest is deterministic: byte-identical to the fresh run.
        fresh_bytes = open(os.path.join(reference_dir, MANIFEST_NAME)).read()
        resumed_bytes = open(os.path.join(killed_dir, MANIFEST_NAME)).read()
        assert fresh_bytes == resumed_bytes

    def test_resume_merges_timings_sidecar(self, tmp_path, monkeypatch):
        """Resume must keep the killed run's timings, not overwrite them."""
        suite = mixed_suite()
        killed_dir = str(tmp_path / "killed")
        self._run_with_kill(suite, killed_dir, 2, monkeypatch)
        before = json.load(open(os.path.join(killed_dir, TIMINGS_NAME)))
        assert len(before["scenarios"]) == 2  # two campaigns finished

        resumed = SuiteRunner(suite, manifest_dir=killed_dir).run()
        assert resumed.complete
        after = json.load(open(os.path.join(killed_dir, TIMINGS_NAME)))
        assert after["complete"] is True
        # All four computed campaigns are timed (the duplicate is reused),
        # and the pre-kill entries survive with their exact values.
        assert len(after["scenarios"]) == 4
        for scenario_id, seconds in before["scenarios"].items():
            assert after["scenarios"][scenario_id] == seconds

    def test_max_campaigns_halts_resumably(self, tmp_path):
        suite = mixed_suite()
        manifest_dir = str(tmp_path / "m")
        partial = SuiteRunner(
            suite, manifest_dir=manifest_dir, max_campaigns=1
        ).run()
        assert not partial.complete
        assert partial.computed == 1
        finished = SuiteRunner(suite, manifest_dir=manifest_dir).run()
        assert finished.complete
        assert len(finished) == len(suite)

    def test_mid_campaign_kill_recomputes_that_campaign(
        self, tmp_path, monkeypatch
    ):
        """A kill *inside* a campaign loses only that campaign."""
        suite = mixed_suite()
        manifest_dir = str(tmp_path / "m")
        real = shard_module.run_scenario
        seen = []

        def dying_third(spec, **kwargs):
            seen.append(spec.scenario_id)
            if len(seen) == 3:
                raise SimulatedKill("died mid-campaign")
            return real(spec, **kwargs)

        monkeypatch.setattr(shard_module, "run_scenario", dying_third)
        with pytest.raises(SimulatedKill):
            SuiteRunner(suite, manifest_dir=manifest_dir).run()
        monkeypatch.setattr(shard_module, "run_scenario", real)
        resumed = SuiteRunner(suite, manifest_dir=manifest_dir).run()
        assert resumed.complete
        # The two finished campaigns were loaded, the dead one recomputed.
        sources = {run.scenario_id: run.source for run in resumed}
        assert sources["bv3-ideal"] == "manifest"
        assert sources["ghz3-sampled"] == "manifest"
        assert sources["qft3-heavy"] == "computed"


class TestManifestIntegrity:
    def test_refuses_foreign_manifest(self, tmp_path):
        manifest_dir = str(tmp_path / "m")
        SuiteRunner(mixed_suite(), manifest_dir=manifest_dir).run()
        other = SuiteSpec.build(
            "other",
            [ScenarioSpec(algorithm="dj", width=3, grid_step_deg=90.0)],
        )
        with pytest.raises(ValueError, match="refusing to mix suites"):
            SuiteRunner(other, manifest_dir=manifest_dir).run()

    def test_load_suite_result_round_trips(self, tmp_path):
        manifest_dir = str(tmp_path / "m")
        suite = mixed_suite()
        outcome = SuiteRunner(suite, manifest_dir=manifest_dir).run()
        loaded = load_suite_result(manifest_dir)
        assert loaded.complete
        assert tables(loaded) == tables(outcome)
        assert loaded.total_injections == outcome.total_injections

    def test_timings_sidecar_written(self, tmp_path):
        manifest_dir = str(tmp_path / "m")
        SuiteRunner(mixed_suite(), manifest_dir=manifest_dir).run()
        timings = json.load(open(os.path.join(manifest_dir, TIMINGS_NAME)))
        assert timings["complete"] is True
        assert len(timings["scenarios"]) == 4  # computed campaigns only
        assert all(t >= 0 for t in timings["scenarios"].values())

    def test_corrupt_result_file_recomputed(self, tmp_path):
        manifest_dir = str(tmp_path / "m")
        suite = mixed_suite()
        reference = SuiteRunner(suite, manifest_dir=manifest_dir).run()
        # Corrupt one store; resume must recompute it and still agree.
        manifest = json.load(open(os.path.join(manifest_dir, MANIFEST_NAME)))
        victim = manifest["scenarios"][0]["result_file"]
        with open(os.path.join(manifest_dir, victim), "wb") as handle:
            handle.write(b"garbage")
        resumed = SuiteRunner(suite, manifest_dir=manifest_dir).run()
        assert tables(resumed) == tables(reference)


def budget_suite() -> SuiteSpec:
    """Three cheap, distinct scenarios with exactly estimable costs."""
    return SuiteSpec.build(
        "budgeted",
        [
            ScenarioSpec(
                algorithm="bv",
                width=3,
                noise="none",
                grid_step_deg=90.0,
                executor="serial",
                label=f"s{i}",
                seed=i,
            )
            for i in range(3)
        ],
    )


class TestSuiteBudgets:
    """The pre-run cost gate: estimate, reject, truncate, reuse-free."""

    def test_estimate_prices_every_scenario(self):
        suite = budget_suite()
        runner = SuiteRunner(suite)
        estimate = runner.estimate_cost()
        per_scenario = estimate_scenario_injections(suite.scenarios[0])
        assert [row["injections"] for row in estimate["scenarios"]] == [
            per_scenario
        ] * 3
        assert estimate["total_injections"] == 3 * per_scenario
        assert estimate["excluded"] == []
        # No timing history yet: no wall-clock projection.
        assert estimate["rate_seconds_per_injection"] is None

    def test_reject_runs_nothing(self, tmp_path):
        manifest_dir = str(tmp_path / "m")
        runner = SuiteRunner(
            budget_suite(), manifest_dir=manifest_dir, budget_injections=1
        )
        with pytest.raises(ValueError, match="exceeds its budget"):
            runner.run()
        # Nothing was computed: no scenario result files exist.
        manifest = json.load(open(os.path.join(manifest_dir, MANIFEST_NAME)))
        assert all(
            e["status"] == "pending" for e in manifest["scenarios"]
        )

    def test_reject_report_names_offenders(self):
        suite = budget_suite()
        per_scenario = estimate_scenario_injections(suite.scenarios[0])
        runner = SuiteRunner(suite, budget_injections=per_scenario)
        with pytest.raises(ValueError) as excinfo:
            runner.run()
        message = str(excinfo.value)
        assert "OVER BUDGET" in message
        assert "s1" in message and "s2" in message

    def test_truncate_runs_the_fitting_prefix(self, tmp_path):
        suite = budget_suite()
        per_scenario = estimate_scenario_injections(suite.scenarios[0])
        outcome = SuiteRunner(
            suite,
            manifest_dir=str(tmp_path / "m"),
            budget_injections=2 * per_scenario,
            budget_action="truncate",
        ).run()
        assert not outcome.complete
        assert outcome.budget_report is not None
        assert {run.scenario_id for run in outcome} == {"s0", "s1"}

    def test_truncated_suite_resumes_under_a_larger_budget(self, tmp_path):
        suite = budget_suite()
        manifest_dir = str(tmp_path / "m")
        reference = SuiteRunner(
            suite, manifest_dir=str(tmp_path / "ref")
        ).run()
        per_scenario = estimate_scenario_injections(suite.scenarios[0])
        SuiteRunner(
            suite,
            manifest_dir=manifest_dir,
            budget_injections=per_scenario,
            budget_action="truncate",
        ).run()
        finished = SuiteRunner(suite, manifest_dir=manifest_dir).run()
        assert finished.complete
        assert tables(finished) == tables(reference)

    def test_completed_scenarios_cost_nothing(self, tmp_path):
        """A fully cached suite fits any budget: reuse is free."""
        suite = budget_suite()
        manifest_dir = str(tmp_path / "m")
        SuiteRunner(suite, manifest_dir=manifest_dir).run()
        outcome = SuiteRunner(
            suite, manifest_dir=manifest_dir, budget_injections=1
        ).run()
        assert outcome.complete
        assert outcome.computed == 0

    def test_history_enables_seconds_projection(self, tmp_path):
        """After one completed run the sidecar yields a rate, and a
        seconds budget can gate pre-run."""
        suite = budget_suite()
        manifest_dir = str(tmp_path / "m")
        SuiteRunner(suite, manifest_dir=manifest_dir).run()
        runner = SuiteRunner(suite, manifest_dir=manifest_dir)
        estimate = runner.estimate_cost()
        assert estimate["rate_seconds_per_injection"] is not None
        report = format_cost_report(estimate)
        assert "reused" in report

    def test_format_cost_report_lists_scenarios(self):
        estimate = SuiteRunner(
            budget_suite(), budget_injections=10
        ).estimate_cost()
        report = format_cost_report(estimate)
        for scenario_id in ("s0", "s1", "s2"):
            assert scenario_id in report
        assert "10 injections" in report

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_seconds_budget_enforced_while_running(
        self, tmp_path, monkeypatch, jobs
    ):
        """Without timing history a truncating seconds budget admits the
        whole suite pre-run; the clock must still stop it at the next
        campaign start once it passes the budget, at every ``jobs``."""
        suite = mixed_suite()
        reference_dir = str(tmp_path / "reference")
        SuiteRunner(suite, manifest_dir=reference_dir, use_cache=False).run()

        landed = []
        real_clock = time.perf_counter
        # The runner's clock passes the budget once a campaign has landed.
        clock = types.SimpleNamespace(
            perf_counter=lambda: real_clock() + (3600.0 if landed else 0.0)
        )
        manifest_dir = str(tmp_path / "m")
        with monkeypatch.context() as patch:
            patch.setattr(runner_module, "time", clock)
            partial = SuiteRunner(
                suite,
                manifest_dir=manifest_dir,
                jobs=jobs,
                use_cache=False,
                budget_seconds=60.0,
                budget_action="truncate",
            ).run(progress=lambda done, total, sid: landed.append(sid))
        assert not partial.complete
        # At most ``jobs`` campaigns started before the clock check that
        # stopped the run; each one finished and landed.
        assert 1 <= partial.computed <= jobs
        ids = [run.scenario_id for run in partial]
        assert ids == [s.scenario_id for s in suite][: len(ids)]
        assert set(ids) == set(landed)
        # A campaign boundary: landed scenarios are done, the rest pending.
        manifest = json.load(open(os.path.join(manifest_dir, MANIFEST_NAME)))
        done = {
            e["id"] for e in manifest["scenarios"] if e["status"] == "done"
        }
        assert done == set(ids)
        timings = json.load(open(os.path.join(manifest_dir, TIMINGS_NAME)))
        assert timings["complete"] is False

        resumed = SuiteRunner(
            suite, manifest_dir=manifest_dir, jobs=jobs, use_cache=False
        ).run()
        assert resumed.complete
        assert manifest_bytes(manifest_dir) == manifest_bytes(reference_dir)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget_injections"):
            SuiteRunner(budget_suite(), budget_injections=0)
        with pytest.raises(ValueError, match="budget_seconds"):
            SuiteRunner(budget_suite(), budget_seconds=0.0)
        with pytest.raises(ValueError, match="budget action"):
            SuiteRunner(budget_suite(), budget_action="shrink")


class TestPoolReuse:
    def test_parallel_scenarios_share_one_started_pool(self, tmp_path):
        """All parallel scenarios run through one persistent executor."""
        suite = SuiteSpec.build(
            "pooled",
            [
                ScenarioSpec(
                    algorithm="bv",
                    width=3,
                    noise="none",
                    grid_step_deg=90.0,
                    executor="parallel",
                    workers=2,
                    label="p1",
                ),
                ScenarioSpec(
                    algorithm="ghz",
                    width=3,
                    noise="none",
                    grid_step_deg=90.0,
                    executor="parallel",
                    workers=2,
                    label="p2",
                ),
            ],
        )
        with warnings.catch_warnings():
            # Sandboxes without process pools degrade to serial; pool
            # reuse must not change results either way.
            warnings.simplefilter("ignore", RuntimeWarning)
            outcome = SuiteRunner(suite).run()
            assert len(outcome) == 2
            for run in outcome:
                standalone = run_scenario(run.spec)
                assert np.array_equal(
                    run.result.qvf_values(), standalone.qvf_values()
                )


class TestFactorySharing:
    def test_jobs_one_compiles_each_tail_once(self, tmp_path, monkeypatch):
        """At ``jobs=1`` every campaign runs on the runner's factory cache.

        Two campaigns over one circuit and noise model, differing only
        in grid step, sweep the same injection positions: sharing the
        suite's segment compiler compiles each tail plan once across
        both. A factory cache per campaign would compile every one twice.
        """
        suite = SuiteSpec.build(
            "shared-factory",
            [
                ScenarioSpec(
                    algorithm="bv",
                    width=3,
                    noise="light",
                    grid_step_deg=step,
                    label=f"bv3-grid{step:g}",
                )
                for step in (90.0, 45.0)
            ],
        )
        starts = []
        real = SegmentCompiler._compile

        def counting(self, start):
            starts.append(start)
            return real(self, start)

        monkeypatch.setattr(SegmentCompiler, "_compile", counting)
        outcome = SuiteRunner(
            suite, manifest_dir=str(tmp_path / "m"), use_cache=False
        ).run()
        assert outcome.complete and outcome.computed == 2
        assert starts
        assert set(Counter(starts).values()) == {1}
