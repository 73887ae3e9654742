"""One plan per spec, one run path.

Every non-adaptive spec compiles into one campaign plan
(:func:`~repro.scenarios.factory.plan_scenario`) that runs in memory or
through a checkpoint. These tests pin the three promises that follow:

* pair campaigns — double faults and correlated k-qubit strikes — resume
  from a killed checkpoint to the uninterrupted run's records;
* a checkpoint recorded for another scenario is refused, while resuming
  under another executor or a larger adaptive round cap is not;
* the cost estimator counts exactly the tasks the plan enumerates,
  without building any of them.
"""

import json
import os
import warnings

import pytest

from repro.cli import main
from repro.faults import ParallelExecutor, SerialExecutor
from repro.faults.executor import InjectionTask
from repro.faults.checkpoint import run_plan
from repro.faults.store import read_segments
from repro.scenarios.cache import write_result_store
from repro.scenarios import (
    FactoryCache,
    ScenarioSpec,
    SuiteSpec,
    estimate_scenario_injections,
    make_injector,
    plan_scenario,
    run_scenario,
)
from tests.faults.test_checkpoint_resume import (
    KillingExecutor,
    SimulatedKill,
    assert_records_identical,
)

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

PAIR_SPECS = {
    "double": dict(algorithm="bv", width=3, noise="none", mode="double",
                   grid_step_deg=90.0),
    "double-transpiled": dict(algorithm="ghz", width=3, noise="none",
                              mode="double", grid_step_deg=90.0,
                              transpile={}),
    "strike-k2-transpiled": dict(algorithm="bv", width=3, noise="none",
                                 seed=11, strike={"count": 12, "k": 2},
                                 transpile={}),
    "strike-k3-transpiled": dict(algorithm="bv", width=4, noise="none",
                                 seed=11, strike={"count": 6, "k": 3},
                                 transpile={}),
}

OTHER_SPECS = {
    "qec": dict(algorithm="qec", noise="none", grid_step_deg=90.0, seed=7,
                qec={"code": "bit_flip", "distance": 3}),
    "mitigation": dict(algorithm="bv", width=3, noise="light",
                       grid_step_deg=90.0, seed=3, mitigation=True),
}



def make_engine(name):
    if name == "parallel":
        return ParallelExecutor(workers=2, chunk_size=10)
    return SerialExecutor()


def run_checkpointed(spec, path, executor, save_every=10):
    """``run_scenario``'s checkpointed path with a short flush cadence."""
    cache = FactoryCache()
    with warnings.catch_warnings():
        # Sandboxes without process pools degrade to in-process runs;
        # resume equivalence must hold regardless.
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_plan(
            make_injector(spec, cache, executor),
            plan_scenario(spec, cache),
            checkpoint_path=path,
            save_every=save_every,
        )


class TestPairCampaignsResume:
    @pytest.mark.parametrize("engine", ["serial", "parallel"])
    @pytest.mark.parametrize(
        "shots", [None, 64], ids=["exact", "sampled"]
    )
    @pytest.mark.parametrize("shape", sorted(PAIR_SPECS))
    def test_killed_pair_campaign_resumes(
        self, tmp_path, shape, shots, engine
    ):
        fields = dict(PAIR_SPECS[shape], shots=shots)
        fields.setdefault("seed", 7)
        spec = ScenarioSpec(**fields)
        reference_path = str(tmp_path / "reference.ckpt")
        reference = run_checkpointed(
            spec, reference_path, make_engine(engine)
        )
        total = reference.num_injections
        assert reference.table.has_second().all()
        for kill_after in (total // 4, (2 * total) // 3):
            path = str(tmp_path / f"killed-{kill_after}.ckpt")
            killer = KillingExecutor(make_engine(engine), kill_after)
            with pytest.raises(SimulatedKill):
                run_checkpointed(spec, path, killer)
            _, partial = read_segments(path)
            assert 0 < len(partial) < total
            resumed = run_checkpointed(spec, path, make_engine(engine))
            assert_records_identical(resumed.records, reference.records)
            with open(path, "rb") as a, open(reference_path, "rb") as b:
                assert a.read() == b.read()

    @pytest.mark.parametrize("shape", sorted(PAIR_SPECS) + sorted(OTHER_SPECS))
    def test_checkpointed_records_equal_plain_run(self, tmp_path, shape):
        """A completed checkpoint is the plain run's result store, byte
        for byte: exact and sampled, in process and on a pool."""
        fields = {**PAIR_SPECS, **OTHER_SPECS}[shape]
        for shots in (None, 64):
            for executor in ("serial", "parallel"):
                spec = ScenarioSpec(
                    **{
                        **fields,
                        "seed": fields.get("seed", 7),
                        "shots": shots,
                        "executor": executor,
                        "workers": 2 if executor == "parallel" else None,
                    }
                )
                path = str(tmp_path / f"{shots}-{executor}.ckpt")
                plain_path = str(tmp_path / f"{shots}-{executor}.qfs")
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    checkpointed = run_scenario(spec, checkpoint_path=path)
                    plain = run_scenario(spec)
                assert_records_identical(checkpointed.records, plain.records)
                assert checkpointed.metadata == plain.metadata
                write_result_store(plain_path, plain)
                with open(path, "rb") as a, open(plain_path, "rb") as b:
                    assert a.read() == b.read(), (shots, executor)


class TestScenarioGuard:
    BASE = [
        "campaign", "--algorithm", "bv", "--width", "3", "--noise", "none",
    ]

    def campaign(self, tmp_path, *extra):
        return main(
            self.BASE
            + [*extra, "--checkpoint", str(tmp_path / "x.ckpt"),
               "--output", str(tmp_path / "out.json")]
        )

    def test_other_noise_refused(self, tmp_path):
        assert self.campaign(tmp_path, "--grid-step", "90") == 0
        with pytest.raises(ValueError, match="refusing to mix"):
            self.campaign(
                tmp_path, "--grid-step", "90", "--noise", "light"
            )

    def test_other_grid_refused(self, tmp_path):
        assert self.campaign(tmp_path, "--grid-step", "45") == 0
        with pytest.raises(ValueError, match="refusing to mix"):
            self.campaign(tmp_path, "--grid-step", "90")

    def test_scenario_stamped_into_adaptive_store(self, tmp_path):
        spec = ScenarioSpec(
            algorithm="ghz", width=3, noise="none", grid_step_deg=45.0,
            adaptive={"coarse_points": 3, "max_rounds": 1},
        )
        path = str(tmp_path / "a.ckpt")
        run_scenario(spec, checkpoint_path=path)
        meta, _ = read_segments(path)
        assert meta["metadata"]["spec_hash"] == spec.spec_hash()
        assert meta["metadata"]["scenario"] == json.loads(
            json.dumps(spec.to_dict())
        )

    def test_capped_adaptive_resumes_uncapped(self, tmp_path):
        fields = dict(
            algorithm="ghz", width=3, noise="none", grid_step_deg=30.0,
            adaptive={"coarse_points": 3, "gradient_threshold": 0.2},
        )
        capped = ScenarioSpec(
            **{**fields, "adaptive": {**fields["adaptive"], "max_rounds": 1}}
        )
        path = str(tmp_path / "a.ckpt")
        first = run_scenario(capped, checkpoint_path=path)
        assert first.metadata["adaptive"]["stopped"] == "max-rounds"
        resumed = run_scenario(ScenarioSpec(**fields), checkpoint_path=path)
        direct = run_scenario(ScenarioSpec(**fields))
        assert_records_identical(resumed.records, direct.records)

    def test_serial_kill_resumes_on_a_pool(self, tmp_path):
        fields = dict(algorithm="bv", width=3, noise="none",
                      grid_step_deg=30.0)
        serial = ScenarioSpec(**fields, executor="serial")
        pooled = ScenarioSpec(**fields, executor="parallel", workers=2)
        path = str(tmp_path / "k.ckpt")
        with pytest.raises(SimulatedKill):
            run_scenario(
                serial,
                executor=KillingExecutor(SerialExecutor(), 250),
                checkpoint_path=path,
            )
        _, partial = read_segments(path)
        assert len(partial) >= 200
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            resumed = run_scenario(pooled, checkpoint_path=path)
        assert_records_identical(
            resumed.sorted_records(), run_scenario(serial).sorted_records()
        )


def example_scenarios():
    for name in ("paper_suite", "physics_suite", "mini_suite"):
        suite = SuiteSpec.from_json(os.path.join(EXAMPLES, f"{name}.json"))
        for spec in suite:
            if spec.adaptive is None:
                yield pytest.param(spec, id=f"{name}:{spec.scenario_id}")


class TestOneCount:
    @pytest.mark.parametrize("spec", list(example_scenarios()))
    def test_estimate_is_plan_length(self, spec):
        cache = FactoryCache()
        assert estimate_scenario_injections(spec, cache) == len(
            plan_scenario(spec, cache).tasks
        )

    def test_estimator_builds_no_task(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the estimator built an InjectionTask")

        monkeypatch.setattr(InjectionTask, "__init__", refuse)
        for spec in [
            ScenarioSpec(algorithm="ghz", width=4, noise="none",
                         mode="double", grid_step_deg=45.0),
            ScenarioSpec(algorithm="bv", width=4, noise="none", seed=3,
                         strike={"count": 4, "k": 3}, transpile={}),
            ScenarioSpec(algorithm="qft", width=3, grid_step_deg=90.0),
        ]:
            assert estimate_scenario_injections(spec) > 0
