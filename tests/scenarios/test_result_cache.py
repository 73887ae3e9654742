"""Persistent result cache: cross-suite reuse, repair, locking, CLI ops.

The cache contract: a suite run pointed at a warm cache computes zero
campaigns and produces a manifest byte-identical to a cold run; corrupt
or torn entries are detected on load, recomputed and repaired in place;
two runners racing on one cache compute each spec exactly once; and
budget admission prices cache hits as free.
"""

import json
import os
import threading

import pytest

from repro.scenarios import (
    ResultCache,
    ScenarioSpec,
    SuiteRunner,
    SuiteSpec,
    resolve_cache_dir,
)
from repro.scenarios import shard as shard_module
from repro.scenarios.cache import CACHE_ENV, ENTRY_SUFFIX
from repro.scenarios.runner import MANIFEST_NAME


def small_suite() -> SuiteSpec:
    """Two distinct campaigns plus one relabelled duplicate."""
    return SuiteSpec.build(
        "cache-suite",
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


class TestResolveCacheDir:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir("explicit", "m") == "explicit"

    def test_env_beats_manifest_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(None, "m") == str(tmp_path / "env")

    def test_manifest_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert resolve_cache_dir(None, "m") == os.path.join("m", "cache")

    def test_in_memory_runs_uncached(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert resolve_cache_dir(None, None) is None

    def test_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir("explicit", "m", enabled=False) is None


class TestCrossSuiteReuse:
    def test_warm_cache_computes_nothing(self, tmp_path, monkeypatch):
        suite = small_suite()
        cache_dir = str(tmp_path / "cache")
        cold_dir = str(tmp_path / "cold")
        cold = SuiteRunner(
            suite, manifest_dir=cold_dir, cache_dir=cache_dir
        ).run()
        assert cold.computed == 2 and cold.from_store == 0

        calls = []
        real = shard_module.run_scenario

        def counting(spec, **kwargs):
            calls.append(spec.scenario_id)
            return real(spec, **kwargs)

        monkeypatch.setattr(shard_module, "run_scenario", counting)
        warm_dir = str(tmp_path / "warm")
        warm = SuiteRunner(
            suite, manifest_dir=warm_dir, cache_dir=cache_dir
        ).run()
        assert calls == []  # nothing simulated
        assert warm.computed == 0
        assert warm.from_store == 2  # distinct campaigns from the cache
        # Manifest + stores byte-identical to the cold run.
        assert manifest_bytes(warm_dir) == manifest_bytes(cold_dir)

    def test_hit_rebadges_scenario_identity(self, tmp_path):
        suite = small_suite()
        cache_dir = str(tmp_path / "cache")
        SuiteRunner(small_suite(), cache_dir=cache_dir).run()
        warm = SuiteRunner(suite, cache_dir=cache_dir).run()
        for run in warm:
            assert run.result.metadata["scenario_id"] == run.scenario_id

    def test_default_cache_lives_under_manifest(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        manifest_dir = str(tmp_path / "m")
        runner = SuiteRunner(small_suite(), manifest_dir=manifest_dir)
        assert runner.result_cache is not None
        assert runner.result_cache.root == os.path.join(
            manifest_dir, "cache"
        )
        runner.run()
        assert runner.result_cache.entries()

    def test_no_cache_opt_out(self, tmp_path):
        runner = SuiteRunner(
            small_suite(),
            manifest_dir=str(tmp_path / "m"),
            use_cache=False,
        )
        assert runner.result_cache is None
        outcome = runner.run()
        assert outcome.from_store == 0
        assert not os.path.exists(str(tmp_path / "m" / "cache"))


class TestCorruptEntries:
    def _warm_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SuiteRunner(small_suite(), cache_dir=cache_dir).run()
        return ResultCache(cache_dir)

    def test_garbage_entry_recomputed_and_repaired(self, tmp_path):
        cache = self._warm_cache(tmp_path)
        victim = cache.entries()[0]
        with open(victim.path, "r+b") as handle:
            handle.write(b"garbage!")  # clobber the magic
        outcome = SuiteRunner(small_suite(), cache_dir=cache.root).run()
        # The clobbered campaign was recomputed, the other one hit.
        assert outcome.computed == 1 and outcome.from_store == 1
        # ... and the entry was repaired in place: all ok, next run hits.
        assert all(row["ok"] for row in cache.verify())
        again = SuiteRunner(small_suite(), cache_dir=cache.root).run()
        assert again.computed == 0 and again.from_store == 2

    def test_torn_entry_detected_by_sidecar(self, tmp_path):
        cache = self._warm_cache(tmp_path)
        victim = cache.entries()[0]
        # Tear the record segment off: the meta segment still parses, so
        # only the sidecar's record count catches the truncation.
        with open(victim.path, "r+b") as handle:
            handle.truncate(victim.nbytes // 2)
        assert cache.load(victim.spec_hash) is None
        assert not cache.has(victim.spec_hash)  # discarded
        outcome = SuiteRunner(small_suite(), cache_dir=cache.root).run()
        assert outcome.computed == 1
        assert cache.load(victim.spec_hash) is not None


class TestComputeOnceLocking:
    def test_concurrent_runners_compute_each_spec_once(
        self, tmp_path, monkeypatch
    ):
        """Two runners, one cache: every spec simulated exactly once.

        flock blocks across file descriptions, so two threads model two
        processes faithfully; the loser of each entry's race must find
        the winner's store on its post-acquisition re-check.
        """
        suite = small_suite()
        cache_dir = str(tmp_path / "cache")
        calls = []
        real = shard_module.run_scenario

        def counting(spec, **kwargs):
            calls.append(spec.spec_hash())
            return real(spec, **kwargs)

        monkeypatch.setattr(shard_module, "run_scenario", counting)
        outcomes = []
        errors = []

        def race(slot):
            try:
                outcomes.append(
                    SuiteRunner(
                        suite,
                        manifest_dir=str(tmp_path / f"m{slot}"),
                        cache_dir=cache_dir,
                    ).run()
                )
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [
            threading.Thread(target=race, args=(slot,)) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(outcomes) == 2
        # 2 distinct specs, 2 racing suites — but each hash computed once.
        assert len(calls) == len(set(calls)) == 2
        assert manifest_bytes(str(tmp_path / "m0")) == manifest_bytes(
            str(tmp_path / "m1")
        )

    def test_lock_released_after_failure(self, tmp_path, monkeypatch):
        """A scenario raising mid-suite must not wedge the cache entry."""
        suite = small_suite()
        cache_dir = str(tmp_path / "cache")

        def dying(spec, **kwargs):
            raise RuntimeError("simulated mid-suite death")

        monkeypatch.setattr(shard_module, "run_scenario", dying)
        with pytest.raises(RuntimeError):
            SuiteRunner(suite, cache_dir=cache_dir).run()
        monkeypatch.undo()
        # If the lock leaked, this run would deadlock on entry 0.
        outcome = SuiteRunner(suite, cache_dir=cache_dir).run()
        assert outcome.complete and outcome.computed == 2


class TestBudgetAdmission:
    def test_cache_hits_are_free(self, tmp_path):
        suite = small_suite()
        cache_dir = str(tmp_path / "cache")
        SuiteRunner(suite, cache_dir=cache_dir).run()
        # A budget far below one campaign's cost: only admissible
        # because every scenario prices as reused.
        runner = SuiteRunner(
            suite,
            manifest_dir=str(tmp_path / "m"),
            cache_dir=cache_dir,
            budget_injections=1,
        )
        estimate = runner.estimate_cost()
        assert estimate["excluded"] == []
        outcome = runner.run()
        assert outcome.complete and outcome.computed == 0


class TestMaintenance:
    def _warm(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SuiteRunner(small_suite(), cache_dir=cache_dir).run()
        return ResultCache(cache_dir)

    def test_entries_and_hits(self, tmp_path):
        cache = self._warm(tmp_path)
        entries = cache.entries()
        assert len(entries) == 2
        assert all(entry.hits == 0 for entry in entries)
        assert all(entry.num_records > 0 for entry in entries)
        SuiteRunner(small_suite(), cache_dir=cache.root).run()
        assert all(entry.hits == 1 for entry in cache.entries())
        assert cache.total_bytes() == sum(e.nbytes for e in entries)

    def test_prune_by_size_evicts_lru(self, tmp_path):
        cache = self._warm(tmp_path)
        keep = cache.entries()[0]  # most recently used survives longest
        removed = cache.prune(max_bytes=keep.nbytes)
        assert [entry.spec_hash for entry in cache.entries()] == [
            keep.spec_hash
        ]
        assert len(removed) == 1
        assert not os.path.exists(removed[0].path)

    def test_prune_by_age(self, tmp_path):
        cache = self._warm(tmp_path)
        assert cache.prune(max_age_seconds=3600.0) == []
        removed = cache.prune(max_age_seconds=0.0)
        assert len(removed) == 2 and cache.entries() == []

    def test_verify_reports_not_removes(self, tmp_path):
        cache = self._warm(tmp_path)
        victim = cache.entries()[0]
        with open(victim.path, "r+b") as handle:
            handle.write(b"garbage!")
        rows = cache.verify()
        by_hash = {row["spec_hash"]: row for row in rows}
        assert not by_hash[victim.spec_hash]["ok"]
        assert by_hash[victim.spec_hash]["detail"]
        assert sum(1 for row in rows if row["ok"]) == 1
        assert cache.has(victim.spec_hash)  # reported, not removed

    def test_put_hard_links_manifest_store(self, tmp_path):
        """Same-filesystem publishes share bytes with the manifest."""
        manifest_dir = str(tmp_path / "m")
        cache_dir = str(tmp_path / "cache")
        SuiteRunner(
            small_suite(), manifest_dir=manifest_dir, cache_dir=cache_dir
        ).run()
        manifest = json.load(open(os.path.join(manifest_dir, MANIFEST_NAME)))
        stores = {}
        for entry in manifest["scenarios"]:
            if entry["status"] == "done":
                stores.setdefault(entry["spec_hash"], []).append(
                    os.path.join(manifest_dir, entry["result_file"])
                )
        cache = ResultCache(cache_dir)
        for entry in cache.entries():
            assert any(
                os.path.samefile(entry.path, store)
                for store in stores[entry.spec_hash]
            )

    def test_entry_suffix_is_store_format(self, tmp_path):
        cache = self._warm(tmp_path)
        for entry in cache.entries():
            assert entry.path.endswith(ENTRY_SUFFIX)
