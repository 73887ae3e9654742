"""Campaign-level sharding: byte-identity, resume, budgets, degradation.

The sharding contract: ``SuiteRunner(jobs=N)`` produces a manifest
directory — stores *and* ``manifest.json`` — byte-identical to the
sequential run; a truncated sharded run resumes into the same bytes; the
shard pool honours a global worker budget; and environments that cannot
spawn processes degrade to in-process execution with a warning instead
of failing.
"""

import json
import os
import warnings

import pytest

from repro.scenarios import (
    ResultCache,
    ScenarioSpec,
    ShardScheduler,
    SuiteRunner,
    SuiteSpec,
)
from repro.scenarios import runner as runner_module
from repro.scenarios import shard as shard_module
from repro.scenarios.runner import MANIFEST_NAME


def shard_suite() -> SuiteSpec:
    """Three distinct campaigns (one parallel, one sampled) + duplicate."""
    return SuiteSpec.build(
        "shard-suite",
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
                noise="none",
                grid_step_deg=90.0,
                executor="parallel",
                workers=2,
                label="qft3-parallel",
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


def manifest_bytes(manifest_dir):
    """Every store's bytes plus the manifest, keyed by file name."""
    out = {}
    for name in sorted(os.listdir(manifest_dir)):
        path = os.path.join(manifest_dir, name)
        if os.path.isfile(path):
            out[name] = open(path, "rb").read()
    out.pop("timings.json", None)
    return out


class TestShardedByteIdentity:
    def test_sharded_run_matches_sequential(self, tmp_path):
        suite = shard_suite()
        seq_dir = str(tmp_path / "seq")
        SuiteRunner(suite, manifest_dir=seq_dir, use_cache=False).run()

        shard_dir = str(tmp_path / "shard")
        outcome = SuiteRunner(
            suite,
            manifest_dir=shard_dir,
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
        ).run()
        assert outcome.complete and len(outcome) == len(suite)
        assert outcome.computed == 3  # duplicate adopted, not recomputed
        assert manifest_bytes(shard_dir) == manifest_bytes(seq_dir)

    def test_sharded_cold_run_writes_each_store_once(self, tmp_path):
        """The shard writes the manifest store; the cache links to it."""
        manifest_dir = str(tmp_path / "m")
        SuiteRunner(
            shard_suite(),
            manifest_dir=manifest_dir,
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
        ).run()
        manifest = json.load(open(os.path.join(manifest_dir, MANIFEST_NAME)))
        stores = {
            entry["spec_hash"]: os.path.join(manifest_dir, entry["result_file"])
            for entry in manifest["scenarios"]
            if entry["id"] != "bv3-ideal-bis"  # the duplicate's own store
        }
        entries = ResultCache(str(tmp_path / "cache")).entries()
        assert len(entries) == 3
        for entry in entries:
            assert os.path.samefile(entry.path, stores[entry.spec_hash])

    def test_sharded_outcome_in_suite_order(self, tmp_path):
        suite = shard_suite()
        outcome = SuiteRunner(
            suite,
            manifest_dir=str(tmp_path / "m"),
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
        ).run()
        assert [run.scenario_id for run in outcome] == [
            s.scenario_id for s in suite
        ]
        sources = {run.scenario_id: run.source for run in outcome}
        assert sources["bv3-ideal-bis"] == "cache"

    def test_sharded_warm_cache_computes_nothing(self, tmp_path):
        suite = shard_suite()
        cache_dir = str(tmp_path / "cache")
        SuiteRunner(
            suite, manifest_dir=str(tmp_path / "m1"), jobs=2,
            cache_dir=cache_dir,
        ).run()
        warm = SuiteRunner(
            suite, manifest_dir=str(tmp_path / "m2"), jobs=2,
            cache_dir=cache_dir,
        ).run()
        assert warm.computed == 0
        assert warm.from_store == 3
        assert manifest_bytes(str(tmp_path / "m1")) == manifest_bytes(
            str(tmp_path / "m2")
        )


class TestShardedKillResume:
    def test_truncated_sharded_run_resumes_byte_identical(self, tmp_path):
        suite = shard_suite()
        reference_dir = str(tmp_path / "reference")
        SuiteRunner(suite, manifest_dir=reference_dir, use_cache=False).run()

        halted_dir = str(tmp_path / "halted")
        partial = SuiteRunner(
            suite,
            manifest_dir=halted_dir,
            jobs=2,
            max_campaigns=1,
            cache_dir=str(tmp_path / "cache1"),
        ).run()
        assert not partial.complete
        assert partial.computed == 1

        resumed = SuiteRunner(
            suite,
            manifest_dir=halted_dir,
            jobs=2,
            cache_dir=str(tmp_path / "cache1"),
        ).run()
        assert resumed.complete
        sources = {run.scenario_id: run.source for run in resumed}
        assert sources["bv3-ideal"] == "manifest"
        assert manifest_bytes(halted_dir) == manifest_bytes(reference_dir)

    def test_sequential_resume_of_sharded_manifest(self, tmp_path):
        """Shard and resume policies interoperate: any jobs value resumes."""
        suite = shard_suite()
        manifest_dir = str(tmp_path / "m")
        SuiteRunner(
            suite,
            manifest_dir=manifest_dir,
            jobs=2,
            max_campaigns=2,
            use_cache=False,
        ).run()
        resumed = SuiteRunner(
            suite, manifest_dir=manifest_dir, use_cache=False
        ).run()
        assert resumed.complete
        reference_dir = str(tmp_path / "ref")
        SuiteRunner(suite, manifest_dir=reference_dir, use_cache=False).run()
        assert manifest_bytes(manifest_dir) == manifest_bytes(reference_dir)


def parity_suite() -> SuiteSpec:
    """Five distinct campaigns plus a relabelled duplicate."""
    return SuiteSpec.build(
        "parity-suite",
        list(shard_suite())[:3]
        + [
            ScenarioSpec(
                algorithm="bv",
                width=3,
                noise="none",
                grid_step_deg=90.0,
                executor="serial",
                label="bv3-ideal-bis",
            ),
            ScenarioSpec(
                algorithm="dj",
                width=3,
                noise="none",
                grid_step_deg=90.0,
                label="dj3-ideal",
            ),
            ScenarioSpec(
                algorithm="grover",
                width=3,
                noise="none",
                grid_step_deg=90.0,
                label="grover3-ideal",
            ),
        ],
    )


def run_parity_case(root, jobs):
    """One resume + cache-hit + duplicate + ``max_campaigns`` run.

    The manifest already holds bv3-ideal and the cache already holds
    ghz3-sampled, so the run resumes one, takes one cache hit, computes
    qft3-parallel (its one allowed campaign), adopts bv3-ideal-bis and
    stops before dj3-ideal.
    """
    suite = parity_suite()
    cache_dir = os.path.join(root, "cache")
    manifest_dir = os.path.join(root, "m")
    SuiteRunner(
        SuiteSpec.build("seed-cache", [suite.scenarios[1]]),
        cache_dir=cache_dir,
    ).run()
    SuiteRunner(
        suite, manifest_dir=manifest_dir, max_campaigns=1, use_cache=False
    ).run()
    outcome = SuiteRunner(
        suite,
        manifest_dir=manifest_dir,
        cache_dir=cache_dir,
        max_campaigns=1,
        jobs=jobs,
    ).run()
    return outcome, manifest_bytes(manifest_dir)


@pytest.fixture(scope="module")
def parity_reference(tmp_path_factory):
    return run_parity_case(str(tmp_path_factory.mktemp("parity-ref")), 1)


class TestOnePathParity:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_outcome_and_bytes_match_across_jobs(
        self, tmp_path, jobs, parity_reference
    ):
        reference, reference_bytes = parity_reference
        outcome, stored = run_parity_case(str(tmp_path), jobs)
        sources = [(run.scenario_id, run.source) for run in outcome]
        assert sources == [
            ("bv3-ideal", "manifest"),
            ("ghz3-sampled", "store"),
            ("qft3-parallel", "computed"),
            ("bv3-ideal-bis", "cache"),
        ]
        assert sources == [(r.scenario_id, r.source) for r in reference]
        for attribute in ("complete", "computed", "reused", "from_store"):
            assert getattr(outcome, attribute) == getattr(
                reference, attribute
            ), attribute
        assert not outcome.complete
        assert (outcome.computed, outcome.reused, outcome.from_store) == (
            1, 3, 1
        )
        assert stored == reference_bytes


class TestShardedBudgets:
    def test_budget_denial_truncates_prefix(self, tmp_path):
        suite = shard_suite()
        outcome = SuiteRunner(
            suite,
            manifest_dir=str(tmp_path / "m"),
            jobs=2,
            use_cache=False,
            budget_injections=100,  # bv3 fits (96), the rest do not
            budget_action="truncate",
        ).run()
        assert not outcome.complete
        assert [run.scenario_id for run in outcome] == ["bv3-ideal"]

    def test_rejecting_budget_runs_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="exceeds its budget"):
            SuiteRunner(
                shard_suite(),
                manifest_dir=str(tmp_path / "m"),
                jobs=2,
                use_cache=False,
                budget_injections=1,
            ).run()


class TestPoolLifecycle:
    def test_failure_shuts_scheduler_down(self, tmp_path, monkeypatch):
        """A raise mid-drain must still tear the shard pool down."""
        shutdowns = []

        class Exploding(ShardScheduler):
            def results(self):
                raise RuntimeError("simulated mid-suite death")

            def shutdown(self):
                shutdowns.append(self)
                super().shutdown()

        monkeypatch.setattr(runner_module, "ShardScheduler", Exploding)
        runner = SuiteRunner(
            shard_suite(),
            manifest_dir=str(tmp_path / "m"),
            jobs=2,
            use_cache=False,
        )
        with pytest.raises(RuntimeError, match="simulated"):
            runner.run()
        assert shutdowns  # close() reached the scheduler
        assert runner._scheduler is None
        assert runner._pools == {}

    def test_runner_is_a_context_manager(self, tmp_path):
        with SuiteRunner(
            shard_suite(),
            manifest_dir=str(tmp_path / "m"),
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
        ) as runner:
            outcome = runner.run()
        assert outcome.complete
        assert runner._scheduler is None
        runner.close()  # idempotent

    def test_scheduler_context_manager_and_repr(self):
        with ShardScheduler(jobs=2, host_workers=4) as scheduler:
            assert scheduler.worker_cap == 2
            assert "jobs=2" in repr(scheduler)
        assert scheduler._pool is None


class TestWorkerBudget:
    def test_worker_cap_divides_host_budget(self):
        assert ShardScheduler(jobs=2, host_workers=8).worker_cap == 4
        assert ShardScheduler(jobs=3, host_workers=8).worker_cap == 2
        # Never below one worker, however many shards.
        assert ShardScheduler(jobs=16, host_workers=2).worker_cap == 1

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ShardScheduler(jobs=0)
        with pytest.raises(ValueError, match="host_workers"):
            ShardScheduler(jobs=1, host_workers=0)
        with pytest.raises(ValueError, match="jobs"):
            SuiteRunner(shard_suite(), jobs=0)
        with pytest.raises(ValueError, match="host_workers"):
            SuiteRunner(shard_suite(), host_workers=-1)


class TestDegradation:
    def test_spawn_failure_degrades_in_process(self, tmp_path, monkeypatch):
        """No-subprocess sandboxes still finish the suite, with a warning."""

        def no_spawn(*args, **kwargs):
            raise OSError("spawn forbidden")

        monkeypatch.setattr(
            shard_module, "ProcessPoolExecutor", no_spawn
        )
        suite = shard_suite()
        seq_dir = str(tmp_path / "seq")
        SuiteRunner(suite, manifest_dir=seq_dir, use_cache=False).run()
        with pytest.warns(RuntimeWarning, match="degraded"):
            outcome = SuiteRunner(
                suite,
                manifest_dir=str(tmp_path / "m"),
                jobs=2,
                use_cache=False,
            ).run()
        assert outcome.complete
        assert manifest_bytes(str(tmp_path / "m")) == manifest_bytes(seq_dir)

    def test_pool_loss_mid_run_finishes_in_process(
        self, tmp_path, monkeypatch
    ):
        """A shard worker dying after campaigns landed degrades the rest.

        The dying job and every job still pending re-run through the
        runner's in-process branch; manifest and stores come out
        byte-identical to ``jobs=1``.
        """
        suite = parity_suite()
        seq_dir = str(tmp_path / "seq")
        SuiteRunner(suite, manifest_dir=seq_dir, use_cache=False).run()

        parent = os.getpid()
        marks = tmp_path / "marks"
        marks.mkdir()
        real = shard_module.run_scenario

        def dying_in_worker(spec, **kwargs):
            (marks / f"{spec.label}.{os.getpid()}").touch()
            if spec.label == "dj3-ideal" and os.getpid() != parent:
                os._exit(1)  # the shard process dies mid-campaign
            return real(spec, **kwargs)

        monkeypatch.setattr(shard_module, "run_scenario", dying_in_worker)
        landed = []
        with pytest.warns(RuntimeWarning, match="degraded"):
            outcome = SuiteRunner(
                suite,
                manifest_dir=str(tmp_path / "m"),
                jobs=2,
                use_cache=False,
            ).run(progress=lambda done, total, sid: landed.append(sid))
        assert outcome.complete
        assert outcome.computed == 5
        ran = [name.rsplit(".", 1) for name in os.listdir(marks)]
        in_worker = {label for label, pid in ran if int(pid) != parent}
        in_process = {label for label, pid in ran if int(pid) == parent}
        # Campaigns landed from the pool before it broke (dj3-ideal is
        # only started once one has), then the in-process branch took
        # the dead job and everything after it.
        assert {"bv3-ideal", "ghz3-sampled"} <= in_worker - in_process
        assert landed.index("bv3-ideal") < landed.index("dj3-ideal")
        assert {"dj3-ideal", "grover3-ideal"} <= in_process
        assert manifest_bytes(str(tmp_path / "m")) == manifest_bytes(seq_dir)

    def test_jobs_one_never_opens_a_pool(self, tmp_path, monkeypatch):
        def no_spawn(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("jobs=1 must not spawn a shard pool")

        monkeypatch.setattr(
            shard_module, "ProcessPoolExecutor", no_spawn
        )
        outcome = SuiteRunner(
            shard_suite(), manifest_dir=str(tmp_path / "m"), use_cache=False
        ).run()
        assert outcome.complete
