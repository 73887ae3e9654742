"""ScenarioSpec/SuiteSpec: validation, identity, round-trips, expansion."""

import json

import pytest

from repro.scenarios import (
    AdaptiveSpec,
    BudgetSpec,
    ScenarioSpec,
    SuiteSpec,
    expand_grid,
)
from repro.scenarios.spec import parse_memory_budget


class TestScenarioSpec:
    def test_defaults_are_a_valid_campaign(self):
        spec = ScenarioSpec(algorithm="bv")
        assert spec.width == 4
        assert spec.noise == "light"
        assert spec.executor == "batched"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": ""},
            {"algorithm": "bv", "width": 0},
            {"algorithm": "bv", "noise": "medium"},
            {"algorithm": "bv", "backend": "gpu"},
            {"algorithm": "bv", "executor": "threads"},
            {"algorithm": "bv", "mode": "triple"},
            {"algorithm": "bv", "grid_step_deg": 0.0},
            {"algorithm": "bv", "shots": 0},
            {"algorithm": "bv", "workers": 0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)

    def test_dict_round_trip(self):
        spec = ScenarioSpec(
            algorithm="qft",
            width=5,
            noise="heavy",
            mode="double",
            grid_step_deg=30.0,
            shots=256,
            seed=11,
            executor="parallel",
            workers=2,
            label="fig8-qft5",
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            ScenarioSpec.from_dict({"algorithm": "bv", "depth": 3})

    def test_spec_hash_ignores_label(self):
        base = ScenarioSpec(algorithm="bv", width=3, label="fig5")
        relabelled = base.relabel("fig10")
        assert base.spec_hash() == relabelled.spec_hash()
        assert base.scenario_id != relabelled.scenario_id

    def test_spec_hash_tracks_campaign_fields(self):
        base = ScenarioSpec(algorithm="bv", width=3)
        assert base.spec_hash() != ScenarioSpec(
            algorithm="bv", width=4
        ).spec_hash()
        assert base.spec_hash() != ScenarioSpec(
            algorithm="bv", width=3, seed=1
        ).spec_hash()

    def test_scenario_id_prefers_label(self):
        assert ScenarioSpec(algorithm="bv", label="x").scenario_id == "x"
        auto = ScenarioSpec(algorithm="bv", width=3, noise="none")
        assert auto.scenario_id.startswith("bv3-none-single-")

    def test_noise_normalized_to_what_the_backend_runs(self):
        """Machine backends always run calibrated noise; a 'noise sweep'
        over them must collapse instead of faking three scenarios."""
        emulated = ScenarioSpec(
            algorithm="bv", backend="machine-emulator", noise="light",
            transpile={},
        )
        assert emulated.noise == "calibrated"
        ideal = ScenarioSpec(
            algorithm="bv", backend="statevector", noise="heavy"
        )
        assert ideal.noise == "none"
        sweep = expand_grid(
            algorithm="bv",
            backend="machine-emulator",
            noise=["none", "light", "heavy"],
            transpile={},
        )
        assert len({s.spec_hash() for s in sweep}) == 1

    def test_machine_is_the_calibrated_density_matrix(self):
        """``backend: "machine"`` is a spelling: the spec, its hash and
        its dict say what runs."""
        machine = ScenarioSpec(
            algorithm="bv", backend="machine", noise="light", machine="lagos",
            transpile={},
        )
        assert (machine.backend, machine.noise) == (
            "density-matrix", "calibrated"
        )
        twin = ScenarioSpec(
            algorithm="bv", backend="density-matrix", noise="calibrated",
            machine="lagos", transpile={},
        )
        assert machine == twin
        assert machine.spec_hash() == twin.spec_hash()
        assert ScenarioSpec.from_dict(machine.to_dict()) == machine

    @pytest.mark.parametrize(
        "fields",
        [
            {"backend": "machine"},
            {"backend": "machine-emulator"},
            {"noise": "calibrated"},
            {"noise": "calibrated", "backend": "density-matrix"},
            {"noise": "calibrated", "backend": "trajectory"},
        ],
        ids=["machine", "machine-emulator", "auto", "density-matrix",
             "trajectory"],
    )
    def test_calibrated_noise_needs_a_transpile_block(self, fields):
        """A calibration keys its errors by device qubit and coupled
        pair, so it runs on routed circuits only; the message names the
        fix in the spec and on the CLI."""
        with pytest.raises(
            ValueError,
            match=r"calibrated noise needs a routed circuit.*"
            r'"transpile": \{\}.*--transpile-to',
        ):
            ScenarioSpec(algorithm="bv", width=3, **fields)
        routed = ScenarioSpec(algorithm="bv", width=3, transpile={}, **fields)
        assert routed.noise == "calibrated"

    def test_inert_fields_do_not_change_the_hash(self):
        """Spellings of the same physics hash identically."""
        auto = ScenarioSpec(algorithm="bv", noise="none")
        explicit = ScenarioSpec(algorithm="bv", backend="statevector")
        assert auto.spec_hash() == explicit.spec_hash()
        # drift/trajectories/machine are inert off their backend kinds.
        assert auto.spec_hash() == ScenarioSpec(
            algorithm="bv", noise="none", drift_scale=0.3, trajectories=7,
            machine="lagos",
        ).spec_hash()
        # ... but drive the hash where they matter.
        assert ScenarioSpec(
            algorithm="bv", backend="machine-emulator", drift_scale=0.3,
            seed=1, transpile={},
        ).spec_hash() != ScenarioSpec(
            algorithm="bv", backend="machine-emulator", drift_scale=0.1,
            seed=1, transpile={},
        ).spec_hash()


class TestFusionFields:
    """The PR 6 fields: fusion, precision, waiver, memory budget."""

    def test_defaults(self):
        spec = ScenarioSpec(algorithm="bv")
        assert spec.fused is False
        assert spec.precision == "exact"
        assert spec.bit_identical is False
        assert spec.response_basis
        assert spec.memory_budget is None

    def test_memory_budget_strings_parse(self):
        spec = ScenarioSpec(algorithm="bv", memory_budget="512MB")
        assert spec.memory_budget == 512 * 2**20

    def test_fusion_round_trips_through_dict(self):
        spec = ScenarioSpec(
            algorithm="bv",
            fused=True,
            bit_identical=False,
            memory_budget="1gb",
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_defaults_hash_like_pre_fusion_specs(self):
        """Adding the fields must not invalidate stored spec hashes:
        default-valued fusion fields stay out of the canonical dict."""
        spec = ScenarioSpec(algorithm="bv", width=3)
        canonical = spec.canonical_dict()
        for name in ("fused", "precision", "bit_identical", "memory_budget"):
            assert name not in canonical

    def test_fused_never_changes_the_hash(self):
        for bit_identical in (False, True):
            base = ScenarioSpec(
                algorithm="bv", width=3, bit_identical=bit_identical
            )
            assert base.spec_hash() == ScenarioSpec(
                algorithm="bv", width=3, fused=True,
                bit_identical=bit_identical,
            ).spec_hash()

    def test_opt_out_changes_the_hash_whatever_fused(self):
        # The response basis moves records, so opting out of it moves
        # the hash back, fused or not.
        for fused in (False, True):
            assert ScenarioSpec(
                algorithm="bv", width=3, fused=fused
            ).spec_hash() != ScenarioSpec(
                algorithm="bv", width=3, fused=fused, bit_identical=True
            ).spec_hash()

    def test_memory_budget_never_changes_the_hash(self):
        base = ScenarioSpec(algorithm="bv", width=3, fused=True)
        assert base.spec_hash() == ScenarioSpec(
            algorithm="bv", width=3, fused=True, memory_budget="64mb"
        ).spec_hash()

    def test_float32_fails_loudly_naming_the_opt_out(self):
        for fields in (
            dict(precision="float32", fused=True, bit_identical=False),
            dict(precision="float32"),
            dict(precision="float16", fused=True),
        ):
            with pytest.raises(ValueError, match="bit_identical=true"):
                ScenarioSpec(algorithm="bv", **fields)
        with pytest.raises(ValueError, match="bit_identical=true"):
            ScenarioSpec.from_dict(
                {"algorithm": "bv", "fused": True, "precision": "float32"}
            )

    def test_stored_exact_precision_still_loads(self):
        """The field stays, so stored specs load and keep their hash."""
        stored = ScenarioSpec.from_dict(
            {"algorithm": "bv", "precision": "exact"}
        )
        assert stored == ScenarioSpec(algorithm="bv")
        assert stored.spec_hash() == ScenarioSpec(algorithm="bv").spec_hash()


class TestAdaptiveSpec:
    """The ISSUE 8 adaptive block: validation and round-trips."""

    def test_defaults(self):
        spec = AdaptiveSpec()
        assert spec.mode == "refine"
        assert spec.coarse_points == 5
        assert spec.gradient_threshold == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "random"},
            {"coarse_points": 1},
            {"gradient_threshold": 0.0},
            {"max_rounds": 0},
            {"tolerance": -0.1},
            {"samples_per_round": 0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveSpec(**kwargs)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown adaptive field"):
            AdaptiveSpec.from_dict({"coarse_points": 3, "step": 2})

    def test_round_trip(self):
        spec = AdaptiveSpec(mode="importance", samples_per_round=16)
        assert AdaptiveSpec.from_dict(spec.to_dict()) == spec

    def test_scenario_coerces_dict(self):
        scenario = ScenarioSpec(
            algorithm="bv", adaptive={"coarse_points": 3}
        )
        assert isinstance(scenario.adaptive, AdaptiveSpec)
        assert scenario.adaptive.coarse_points == 3

    def test_requires_single_mode(self):
        with pytest.raises(ValueError, match="single"):
            ScenarioSpec(algorithm="bv", mode="double", adaptive={})

    def test_adaptive_changes_the_hash(self):
        """An adaptive campaign records different cells than the full
        sweep, so the block must participate in the identity."""
        base = ScenarioSpec(algorithm="bv", width=3)
        adaptive = ScenarioSpec(
            algorithm="bv", width=3, adaptive={"coarse_points": 3}
        )
        assert base.spec_hash() != adaptive.spec_hash()
        assert adaptive.spec_hash() != ScenarioSpec(
            algorithm="bv", width=3, adaptive={"coarse_points": 4}
        ).spec_hash()

    def test_scenario_round_trips_adaptive(self):
        spec = ScenarioSpec(
            algorithm="bv",
            adaptive={"mode": "importance", "samples_per_round": 8},
            budget={"max_injections": 500},
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestBudgetSpec:
    def test_defaults_are_unbounded(self):
        spec = BudgetSpec()
        assert spec.max_injections is None
        assert spec.max_seconds is None

    @pytest.mark.parametrize(
        "kwargs", [{"max_injections": 0}, {"max_seconds": 0.0}]
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BudgetSpec(**kwargs)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown budget field"):
            BudgetSpec.from_dict({"max_minutes": 5})

    def test_budget_never_changes_the_hash(self):
        """Budgets stop a campaign early but never alter which records a
        completed campaign holds — a budgeted re-run of a cached
        scenario must still hit the cache."""
        base = ScenarioSpec(algorithm="bv", width=3)
        budgeted = ScenarioSpec(
            algorithm="bv", width=3, budget={"max_injections": 100}
        )
        assert base.spec_hash() == budgeted.spec_hash()
        assert "budget" not in budgeted.canonical_dict()


class TestParseMemoryBudget:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, None),
            (1024, 1024),
            (2.5 * 2**20, int(2.5 * 2**20)),
            ("4096", 4096),
            ("64kb", 64 * 2**10),
            ("512MB", 512 * 2**20),
            ("2 GB", 2 * 2**30),
            ("1.5gb", int(1.5 * 2**30)),
            ("1tb", 2**40),
            ("128b", 128),
            ("0.5kb", 512),
        ],
    )
    def test_accepted_forms(self, value, expected):
        assert parse_memory_budget(value) == expected

    @pytest.mark.parametrize(
        "value",
        [
            "", "lots", "12xb", "-1", 0, -5, True,
            # Sub-byte budgets truncate to zero bytes — not a usable
            # budget, so they are rejected like any other non-positive.
            "0.5", 0.25, ".5b",
            # A bare unit with no magnitude is noise, not a size.
            "MB", "gb",
        ],
    )
    def test_rejected_forms(self, value):
        with pytest.raises(ValueError):
            parse_memory_budget(value)


class TestExpandGrid:
    def test_cross_product_counts(self):
        specs = expand_grid(
            algorithm=["ghz", "qft"],
            width=[2, 4, 8],
            noise=["none", "light", "heavy"],
        )
        assert len(specs) == 18
        combos = {(s.algorithm, s.width, s.noise) for s in specs}
        assert len(combos) == 18

    def test_label_templating(self):
        specs = expand_grid(
            algorithm=["bv"], width=[3, 4], label="fig7-{algorithm}{width}"
        )
        assert [s.scenario_id for s in specs] == ["fig7-bv3", "fig7-bv4"]

    def test_scalars_are_fixed_axes(self):
        specs = expand_grid(algorithm="bv", width=[3, 4], seed=9)
        assert all(s.seed == 9 for s in specs)
        assert len(specs) == 2


class TestSuiteSpec:
    def _suite(self):
        return SuiteSpec.build(
            "demo",
            [
                ScenarioSpec(algorithm="bv", width=3, label="a"),
                ScenarioSpec(algorithm="ghz", width=3, label="b"),
                ScenarioSpec(algorithm="bv", width=3, label="a-again"),
            ],
        )

    def test_duplicate_ids_rejected(self):
        spec = ScenarioSpec(algorithm="bv", label="same")
        with pytest.raises(ValueError, match="duplicate scenario id"):
            SuiteSpec.build("bad", [spec, spec])

    def test_distinct_hashes_deduplicate(self):
        suite = self._suite()
        assert len(suite) == 3
        assert len(suite.distinct_hashes()) == 2

    def test_json_round_trip(self, tmp_path):
        suite = self._suite()
        path = str(tmp_path / "suite.json")
        suite.to_json(path)
        loaded = SuiteSpec.from_json(path)
        assert loaded == suite
        assert loaded.suite_hash() == suite.suite_hash()

    def test_from_dict_expands_grid_entries(self):
        suite = SuiteSpec.from_dict(
            {
                "name": "grid",
                "scenarios": [
                    {
                        "algorithm": ["bv", "dj"],
                        "width": [3, 4],
                        "label": "{algorithm}{width}",
                    },
                    {"algorithm": "qft", "width": 3, "label": "solo"},
                ],
            }
        )
        assert len(suite) == 5
        assert [s.scenario_id for s in suite.scenarios] == [
            "bv3",
            "bv4",
            "dj3",
            "dj4",
            "solo",
        ]

    def test_suite_hash_tracks_labels(self):
        suite = self._suite()
        relabelled = SuiteSpec.build(
            "demo",
            [s.relabel(f"new-{i}") for i, s in enumerate(suite.scenarios)],
        )
        assert suite.suite_hash() != relabelled.suite_hash()

    def test_json_is_deterministic(self, tmp_path):
        suite = self._suite()
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        suite.to_json(a)
        suite.to_json(b)
        assert open(a).read() == open(b).read()
        assert json.load(open(a))["name"] == "demo"
