"""Kill/resume byte-identity for the physics example suite.

The shipped ``examples/physics_suite.json`` exercises all five new
scenario axes (QEC, unprotected baseline, strike k=1, strike k=2,
trajectory, mitigation twins); these tests hold it to the same
acceptance bar as every other suite: a run killed at any campaign
boundary resumes to a manifest byte-identical to an uninterrupted run,
sequentially and with ``jobs=2``, and a warm result cache replays the
whole suite without recomputing anything.
"""

import json
import os

import pytest

from repro.scenarios import SuiteRunner, SuiteSpec
from repro.scenarios import shard as shard_module
from repro.scenarios.runner import MANIFEST_NAME

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

AXES_LABELS = {
    "qec-bitflip-d3",
    "qec-unprotected-baseline",
    "bv3-strike-sampled",
    "bv3-strike-pairs",
    "ghz3-trajectory",
    "ghz3-raw",
    "ghz3-mitigated",
}


class SimulatedKill(Exception):
    pass


@pytest.fixture(scope="module")
def physics_suite():
    return SuiteSpec.from_json(os.path.join(EXAMPLES, "physics_suite.json"))


def manifest_bytes(manifest_dir):
    """Every store's bytes plus the manifest, keyed by file name."""
    out = {}
    for name in sorted(os.listdir(manifest_dir)):
        path = os.path.join(manifest_dir, name)
        if os.path.isfile(path):
            out[name] = open(path, "rb").read()
    out.pop("timings.json", None)
    return out


class TestPhysicsSuiteResume:
    def test_example_covers_every_axis(self, physics_suite):
        """The example file is the CI vehicle for all five axes."""
        assert {s.label for s in physics_suite} == AXES_LABELS
        by_label = {s.label: s for s in physics_suite}
        assert by_label["qec-bitflip-d3"].qec.code == "bit_flip"
        assert by_label["qec-unprotected-baseline"].qec.code == "none"
        assert by_label["bv3-strike-sampled"].strike.k == 1
        assert by_label["bv3-strike-pairs"].strike.k == 2
        assert by_label["ghz3-trajectory"].backend == "trajectory"
        assert by_label["ghz3-mitigated"].mitigation is True
        assert by_label["ghz3-raw"].mitigation is False

    def test_killed_suite_resumes_byte_identical(
        self, tmp_path, monkeypatch, physics_suite
    ):
        reference_dir = str(tmp_path / "reference")
        SuiteRunner(physics_suite, manifest_dir=reference_dir).run()

        killed_dir = str(tmp_path / "killed")
        real = shard_module.run_scenario
        computed = {"n": 0}

        def killing(spec, **kwargs):
            if computed["n"] >= 3:
                raise SimulatedKill(f"killed before {spec.scenario_id}")
            computed["n"] += 1
            return real(spec, **kwargs)

        monkeypatch.setattr(shard_module, "run_scenario", killing)
        with pytest.raises(SimulatedKill):
            SuiteRunner(physics_suite, manifest_dir=killed_dir).run()
        monkeypatch.setattr(shard_module, "run_scenario", real)

        partial = json.load(open(os.path.join(killed_dir, MANIFEST_NAME)))
        statuses = [e["status"] for e in partial["scenarios"]]
        assert "done" in statuses and "pending" in statuses

        resumed = SuiteRunner(physics_suite, manifest_dir=killed_dir).run()
        assert resumed.complete
        assert resumed.reused == 3
        assert manifest_bytes(killed_dir) == manifest_bytes(reference_dir)

    def test_sharded_resume_with_warm_cache(self, tmp_path, physics_suite):
        """jobs=2 + result cache: halt, resume, then replay from cache."""
        cache_dir = str(tmp_path / "cache")
        reference_dir = str(tmp_path / "reference")
        SuiteRunner(
            physics_suite, manifest_dir=reference_dir, use_cache=False
        ).run()

        halted_dir = str(tmp_path / "halted")
        partial = SuiteRunner(
            physics_suite,
            manifest_dir=halted_dir,
            jobs=2,
            max_campaigns=2,
            cache_dir=cache_dir,
        ).run()
        assert not partial.complete
        assert partial.computed == 2

        resumed = SuiteRunner(
            physics_suite,
            manifest_dir=halted_dir,
            jobs=2,
            cache_dir=cache_dir,
        ).run()
        assert resumed.complete
        assert manifest_bytes(halted_dir) == manifest_bytes(reference_dir)

        # The cache now holds every campaign: a fresh manifest replays
        # the full physics suite without a single computation.
        warm = SuiteRunner(
            physics_suite,
            manifest_dir=str(tmp_path / "warm"),
            jobs=2,
            cache_dir=cache_dir,
        ).run()
        assert warm.computed == 0
        assert manifest_bytes(str(tmp_path / "warm")) == manifest_bytes(
            reference_dir
        )

    def test_suite_results_survive_reload(self, tmp_path, physics_suite):
        from repro.analysis import suite_report
        from repro.scenarios import load_suite_result

        manifest_dir = str(tmp_path / "m")
        outcome = SuiteRunner(physics_suite, manifest_dir=manifest_dir).run()
        loaded = load_suite_result(manifest_dir)
        assert loaded.complete
        for run in loaded:
            original = outcome.result(run.scenario_id)
            assert (
                run.result.table.data.tobytes()
                == original.table.data.tobytes()
            )
        # The suite report flags each physics axis in its mode column.
        text = suite_report(loaded)
        assert "+strike(k=1)" in text
        assert "+strike(k=2)" in text
        assert "+qec(d=3)" in text
        assert "+mitigated" in text
        assert "`trajectory_simulator`" in text
