"""Spec-hash stability across the physics-axes upgrade.

The ``qec``/``strike``/``mitigation`` blocks participate in
``spec_hash`` whenever set, but must be *hash-neutral when absent*
(like ``adaptive``): every spec hash computed before these fields
existed has to stay valid, or half-finished suite manifests and warm
result caches would be orphaned by the upgrade. These tests pin the
exact pre-upgrade hashes of both shipped example suites and check the
neutrality property directly.
"""

import hashlib
import json
import os

import pytest

from repro.faults.store import compact, read_segments
from repro.scenarios import ScenarioSpec, SuiteSpec, run_scenario
from repro.scenarios.spec import BACKEND_KINDS

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def load_suite(name, **fields):
    """An example suite with ``fields`` added to every entry."""
    with open(os.path.join(EXAMPLES, f"{name}.json"), encoding="utf-8") as f:
        data = json.load(f)
    data["scenarios"] = [{**entry, **fields} for entry in data["scenarios"]]
    return SuiteSpec.from_dict(data)


# Captured on the commit immediately before the qec/strike/mitigation
# fields existed. These values changed three times on purpose. The one
# seeding rule (every draw of task k from ``(seed, k)``) moved the
# records of sampled specs on every backend but the machine emulator, so
# it salted their hashes: in the committed suites ``ghz3-light-sampled``
# alone, and with it the mini suite's hash (``PRE_SEEDING_RULE``). Then
# the response basis became the default for single-fault sites on the
# batched engine, which salted those specs (``PRE_BASIS_DEFAULT`` holds
# the pins from before it). Opting out with ``bit_identical: true`` on
# every entry still reproduces every ``PRE_BASIS_DEFAULT`` pin. Then the
# density matrix's basis began to run folded tails, one superoperator per
# noisy gate, which moved its records by rounding and gave its specs (the
# machine's too) a salt of their own (``PRE_FOLD`` holds the default
# pins from before it; the statevector's still hold). Then ``backend:
# "machine"`` became a spelling of the density matrix under the
# machine's calibration: a transpiled machine spec runs on the routed
# circuit's used wires, which moved its records by rounding, and hashes
# as its ``density-matrix`` twin, default and opted out
# (``PRE_ONE_ENGINE`` holds the pins it moved, and ``PRE_BASIS_DEFAULT``
# the opted-out ones). Then the machine emulator began to run the routed
# circuit on its used wires, as every other calibrated engine does: its
# draws kept their bits, but its wire column, stored layout map and
# paired sweeps moved, so its specs carry a ``frame`` salt
# (``PRE_COMPACT_EMULATOR`` holds the pins it moved, default and opted
# out alike, since the emulator has no response basis to opt out of).
PRE_SEEDING_RULE = {
    "mini_suite": "3706cb730292e266",
    "ghz3-light-sampled": "ae418edd18942f0e",
}
PRE_BASIS_DEFAULT = {
    "mini_suite": "9db69c9dd444981b",
    "mini": {
        "bv3-ideal": "e5b43ede8b22b663",
        "ghz3-light-sampled": "f1b13c6180c3af4c",
        "qft3-heavy": "27ca854748eda30a",
        "bv3-ideal-reused": "e5b43ede8b22b663",
        "ghz3-casablanca-transpiled": "7ac7121cc94ed7d3",
    },
    "paper_suite": "86646b0ecb417ff9",
    "paper": {
        "fig5-bv4": "1c8aa9d7982a9fa1",
        "fig5-dj4": "1e80eec756a81458",
        "fig5-qft4": "7e6ae9c6e2ad275c",
        "fig7-bv5": "60f0a00019e24b01",
        "fig7-bv6": "5e5837eeaa4cdae9",
        "fig7-dj5": "053853edcbb078eb",
        "fig7-dj6": "6b4736cad9932b1e",
        "fig7-qft5": "2346fde9b90fd3e9",
        "fig7-qft6": "21c927eba12e9e30",
        "fig5-ghz4-adaptive": "7015f33a73c2f1af",
        "fig8a-bv4-single": "d3459357926f9e77",
        "fig8b-bv4-double": "4244cbd52f92725c",
        "fig9-bv4-single": "d3459357926f9e77",
        "fig10-bv4-single": "d3459357926f9e77",
        "fig11-bv4-simulation": "fc7c7ca5161a99bc",
        "fig11-bv4-machine": "1b16b2a4b7480b5f",
        "fig11-bv4-sim-casablanca": "700daca867eae738",
        "fig11-bv4-sim-lagos": "9468a3951ae48683",
    },
}
PRE_FOLD = {
    "mini_suite": "16636ea510a4de96",
    "mini": {
        "bv3-ideal": "71422d8a19eb4b30",
        "ghz3-light-sampled": "919f85010fac0394",
        "qft3-heavy": "60a1ff69a9e77f1d",
        "bv3-ideal-reused": "71422d8a19eb4b30",
        "ghz3-casablanca-transpiled": "560f93521b219da0",
    },
    "paper_suite": "ff4cf8e0c858af7e",
    "paper": {
        "fig5-bv4": "36fae6e69e5e12fe",
        "fig5-dj4": "6c59b2cb07ef2941",
        "fig5-qft4": "a959853dea4b49bf",
        "fig7-bv5": "a840ff6b04cb2aee",
        "fig7-bv6": "dbffbe2963c05be4",
        "fig7-dj5": "e39427cf17dbd8b9",
        "fig7-dj6": "dbd79193a815c8d4",
        "fig7-qft5": "c0ee3227a6dc1128",
        "fig7-qft6": "489211667b28ae21",
        "fig5-ghz4-adaptive": "d48ba40add19658b",
        "fig8a-bv4-single": "bada88c15d2a5e03",
        "fig8b-bv4-double": "4244cbd52f92725c",
        "fig9-bv4-single": "bada88c15d2a5e03",
        "fig10-bv4-single": "bada88c15d2a5e03",
        "fig11-bv4-simulation": "b2a702262f77514a",
        "fig11-bv4-machine": "1b16b2a4b7480b5f",
        "fig11-bv4-sim-casablanca": "667efd1fd5c15803",
        "fig11-bv4-sim-lagos": "009f64685115ed45",
    },
}

PRE_ONE_ENGINE = {
    "paper_suite": "31f0cd85a82967cd",
    "paper": {"fig11-bv4-simulation": "028a1aa9625b4215"},
}

PRE_COMPACT_EMULATOR = {
    "paper_suite": "61bef87b2d442852",
    "opted_out_paper_suite": "ea557f6e56a50304",
    "paper": {"fig11-bv4-machine": "1b16b2a4b7480b5f"},
}

# The same suites today: the response basis by default, its density
# matrix on folded tails, the machine as the density matrix, the
# emulator on the compacted circuit.
MINI_SUITE_HASH = "5536ac6288705514"
MINI_SCENARIO_HASHES = {
    # The statevector has nothing to fold: its pins did not move.
    "bv3-ideal": "71422d8a19eb4b30",
    "ghz3-light-sampled": "650a444a9a152ff8",
    "qft3-heavy": "a2f7a1053b2a6815",
    "bv3-ideal-reused": "71422d8a19eb4b30",
    "ghz3-casablanca-transpiled": "e478d3fe30b82451",
}

PAPER_SUITE_HASH = "eaa4e36c728d3b56"
PAPER_SCENARIO_HASHES = {
    "fig5-bv4": "0844b29da68ab1bd",
    "fig5-dj4": "57390779f8988c09",
    "fig5-qft4": "2a4c669f10602a99",
    "fig7-bv5": "92b63096fd5419b6",
    "fig7-bv6": "a13bea9aef3bec45",
    "fig7-dj5": "80c7f28d9352c54d",
    "fig7-dj6": "7e242f67c1d0c795",
    "fig7-qft5": "d8717f8784aea352",
    "fig7-qft6": "71ee6914a19480d2",
    "fig5-ghz4-adaptive": "d348324e151f79f1",
    "fig8a-bv4-single": "e5211f1d4e86d410",
    # Pair faults never run on the basis.
    "fig8b-bv4-double": "4244cbd52f92725c",
    "fig9-bv4-single": "e5211f1d4e86d410",
    "fig10-bv4-single": "e5211f1d4e86d410",
    "fig11-bv4-simulation": "017d737c5c2a9050",
    # The emulator never runs on the basis; it moved with the frame salt.
    "fig11-bv4-machine": "101b49b7e14350a2",
    "fig11-bv4-sim-casablanca": "24c80f3d8687f432",
    "fig11-bv4-sim-lagos": "0d74e582a1d82917",
}


# The opted-out pins today: ``PRE_BASIS_DEFAULT``'s, but for the
# machine and emulator specs and the suite hash over them.
OPTED_OUT_PAPER_SUITE_HASH = "a0767cb1c6126aca"
OPTED_OUT_PAPER_HASHES = {
    **PRE_BASIS_DEFAULT["paper"],
    "fig11-bv4-simulation": "58e4e95e99f7b252",
    "fig11-bv4-machine": "101b49b7e14350a2",
}


def hash_without(spec, salt):
    """``spec``'s hash with the ``salt`` key left out of its canonical
    dict: the hash it had before that salt existed."""
    data = spec.canonical_dict()
    data.pop(salt, None)
    blob = json.dumps(data, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def paper_prefix(suite, pins):
    """The pre-upgrade entries of the paper suite, as one suite."""
    legacy = [s for s in suite if s.scenario_id in pins]
    assert len(legacy) == len(pins)
    return SuiteSpec.build("qufi-paper-evaluation", legacy)


class TestPinnedExampleSuiteHashes:
    def test_mini_suite_scenario_hashes_unchanged(self):
        suite = load_suite("mini_suite")
        observed = {s.scenario_id: s.spec_hash() for s in suite}
        assert observed == MINI_SCENARIO_HASHES

    def test_mini_suite_hash_unchanged(self):
        assert load_suite("mini_suite").suite_hash() == MINI_SUITE_HASH

    def test_paper_suite_pre_upgrade_scenarios_unchanged(self):
        # paper_suite.json gains new physics scenarios over time; the
        # pre-upgrade entries must keep their exact hashes.
        suite = load_suite("paper_suite")
        observed = {s.scenario_id: s.spec_hash() for s in suite}
        for scenario_id, expected in PAPER_SCENARIO_HASHES.items():
            assert observed[scenario_id] == expected, scenario_id

    def test_paper_suite_subsuite_hash_unchanged(self):
        # The ordered (id, hash) prefix over the pre-upgrade entries
        # still reproduces the pre-upgrade suite hash.
        suite = load_suite("paper_suite")
        prefix = paper_prefix(suite, PAPER_SCENARIO_HASHES)
        assert prefix.suite_hash() == PAPER_SUITE_HASH

    def test_opted_out_suites_reproduce_the_pre_basis_pins(self):
        """Every pin but those the one engine and the emulator's
        compaction moved."""
        mini = load_suite("mini_suite", bit_identical=True)
        assert {s.scenario_id: s.spec_hash() for s in mini} == (
            PRE_BASIS_DEFAULT["mini"]
        )
        assert mini.suite_hash() == PRE_BASIS_DEFAULT["mini_suite"]
        paper = load_suite("paper_suite", bit_identical=True)
        observed = {s.scenario_id: s.spec_hash() for s in paper}
        for scenario_id, expected in OPTED_OUT_PAPER_HASHES.items():
            assert observed[scenario_id] == expected, scenario_id
            moved = (
                scenario_id in PRE_ONE_ENGINE["paper"]
                or scenario_id in PRE_COMPACT_EMULATOR["paper"]
            )
            assert (
                expected != PRE_BASIS_DEFAULT["paper"][scenario_id]
            ) == moved, scenario_id
        assert paper_prefix(paper, OPTED_OUT_PAPER_HASHES).suite_hash() == (
            OPTED_OUT_PAPER_SUITE_HASH
        )
        assert OPTED_OUT_PAPER_SUITE_HASH != PRE_BASIS_DEFAULT["paper_suite"]

    def test_machine_specs_hash_as_their_density_matrix_twins(self):
        """The one engine moved the paper suite's machine spec, default
        and opted out, onto its ``density-matrix`` twin's hash."""
        twins = {
            bit_identical: {
                s.scenario_id: s.spec_hash()
                for s in load_suite(
                    "paper_suite",
                    backend="density-matrix",
                    bit_identical=bit_identical,
                )
            }
            for bit_identical in (False, True)
        }
        for scenario_id, old in PRE_ONE_ENGINE["paper"].items():
            assert PAPER_SCENARIO_HASHES[scenario_id] != old
            assert PAPER_SCENARIO_HASHES[scenario_id] == (
                twins[False][scenario_id]
            )
            assert OPTED_OUT_PAPER_HASHES[scenario_id] == (
                twins[True][scenario_id]
            )
        assert PAPER_SUITE_HASH != PRE_ONE_ENGINE["paper_suite"]

    def test_double_pin_did_not_move(self):
        assert PAPER_SCENARIO_HASHES["fig8b-bv4-double"] == (
            PRE_BASIS_DEFAULT["paper"]["fig8b-bv4-double"]
        )

    def test_emulator_pin_moved_with_the_frame_salt_alone(self):
        """The emulator's pin held through every earlier salt; the
        compaction's ``frame`` salt moved it, and the suite hashes over
        it, default and opted out."""
        for bit_identical in (False, True):
            paper = load_suite("paper_suite", bit_identical=bit_identical)
            for spec in paper:
                if spec.scenario_id not in PRE_COMPACT_EMULATOR["paper"]:
                    continue
                old = PRE_COMPACT_EMULATOR["paper"][spec.scenario_id]
                assert spec.canonical_dict()["frame"] == "compacted"
                assert spec.spec_hash() != old
                assert hash_without(spec, "frame") == old
                assert old == PRE_BASIS_DEFAULT["paper"][spec.scenario_id]
                assert old == PRE_FOLD["paper"][spec.scenario_id]
        assert PAPER_SUITE_HASH != PRE_COMPACT_EMULATOR["paper_suite"]
        assert OPTED_OUT_PAPER_SUITE_HASH != (
            PRE_COMPACT_EMULATOR["opted_out_paper_suite"]
        )

    def test_frame_salt_marks_every_emulator_spec(self):
        for backend in BACKEND_KINDS:
            for mode in ("single", "double"):
                spec = ScenarioSpec(
                    algorithm="bv", noise="light", backend=backend,
                    mode=mode, machine="jakarta", transpile={}, seed=3,
                )
                salted = "frame" in spec.canonical_dict()
                assert salted == (backend == "machine-emulator"), backend

    def test_only_density_matrix_kind_pins_moved_with_the_fold(self):
        """Against ``PRE_FOLD``: the default specs on the density matrix
        (the machine's among them) moved, every other pin held (the
        emulator's until its later ``frame`` salt)."""
        moved = set()
        for name, key in (("mini_suite", "mini"), ("paper_suite", "paper")):
            for spec in load_suite(name):
                pin = PRE_FOLD[key].get(spec.scenario_id)
                if pin is None:
                    continue
                salt = spec.canonical_dict().get("basis")
                if salt == "linear-response-folded":
                    assert spec.canonical_dict()["backend"] == (
                        "density-matrix"
                    )
                    assert spec.spec_hash() != pin, spec.scenario_id
                    moved.add(spec.scenario_id)
                else:
                    assert hash_without(spec, "frame") == pin, (
                        spec.scenario_id
                    )
        assert "fig7-qft6" in moved and "bv3-ideal" not in moved
        assert MINI_SUITE_HASH != PRE_FOLD["mini_suite"]
        assert PAPER_SUITE_HASH != PRE_FOLD["paper_suite"]


class TestSeedingRuleSalt:
    """Only sampled specs on a backend other than the emulator moved."""

    @staticmethod
    def salted(spec):
        return spec.shots is not None and spec.backend != "machine-emulator"

    def test_exact_and_emulator_pins_unchanged(self):
        pins = {**PRE_BASIS_DEFAULT["mini"], **OPTED_OUT_PAPER_HASHES}
        checked = set()
        for name in ("mini_suite", "paper_suite"):
            for spec in load_suite(name, bit_identical=True):
                if spec.scenario_id in pins and not self.salted(spec):
                    assert spec.spec_hash() == pins[spec.scenario_id]
                    checked.add(spec.scenario_id)
        assert len(checked) == len(pins) - 1
        # The emulator keeps its own stream, so its sampled spec takes no
        # seeding salt: only the later frame salt moved its hash.
        machine = {
            s.scenario_id: s for s in load_suite("paper_suite")
        }["fig11-bv4-machine"]
        assert machine.shots is not None
        assert machine.backend == "machine-emulator"
        assert "seeding" not in machine.canonical_dict()
        assert machine.spec_hash() == "101b49b7e14350a2"
        assert hash_without(machine, "frame") == "1b16b2a4b7480b5f"

    def test_sampled_spec_hash_moved(self):
        suite = load_suite("mini_suite", bit_identical=True)
        sampled = [s for s in suite if self.salted(s)]
        assert [s.scenario_id for s in sampled] == ["ghz3-light-sampled"]
        assert sampled[0].spec_hash() != PRE_SEEDING_RULE["ghz3-light-sampled"]
        assert suite.suite_hash() != PRE_SEEDING_RULE["mini_suite"]

    def test_salt_follows_shots_and_backend(self):
        exact = ScenarioSpec(algorithm="bv", noise="light")
        sampled = ScenarioSpec(algorithm="bv", noise="light", shots=64)
        assert "seeding" not in exact.canonical_dict()
        assert sampled.canonical_dict()["seeding"] == "per-task"
        emulator = ScenarioSpec(
            algorithm="bv", noise="calibrated", backend="machine-emulator",
            machine="jakarta", shots=64, transpile={},
        )
        assert "seeding" not in emulator.canonical_dict()


class TestResponseBasisSalt:
    """Specs whose single-fault sites now run on the response basis by
    default carry a salt; the rest keep their hashes."""

    BV3 = dict(algorithm="bv", width=3, noise="light")
    # This spec's hash while the waiver packed segments, and while it
    # armed the 16-response basis (salted "linear-response").
    PACKED_ERA = "d84a2da74fab1927"
    STEP_ONE = "6ffd605e2b797285"
    # This spec's hash, and the 90-degree one's, under the default basis
    # before the density matrix's tails were folded.
    PRE_FOLD_BV3 = "2bad3a47a5c06f08"
    PRE_FOLD_BV3_90 = "b7217184727616ad"

    def test_waived_spec_hash_moved(self):
        spec = ScenarioSpec(fused=True, bit_identical=False, **self.BV3)
        assert spec.canonical_dict()["basis"] == "linear-response-folded"
        assert spec.spec_hash() not in (
            self.PACKED_ERA, self.STEP_ONE, self.PRE_FOLD_BV3
        )

    def test_salt_differs_from_step_one(self):
        salt = ScenarioSpec(**self.BV3).canonical_dict()["basis"]
        assert salt not in ("linear-response", "linear-response-default")

    def test_fold_salt_follows_the_resolved_backend(self):
        """Density-matrix-kind specs carry the fold's salt, mitigated or
        not; statevector-kind specs keep the default's."""
        folded = (
            dict(),
            dict(backend="density-matrix"),
            dict(mitigation=True),
            dict(backend="machine", transpile={}),
            dict(algorithm="qec", qec={}),
            dict(seed=11, strike={"count": 4, "k": 1}),
        )
        for fields in folded:
            spec = ScenarioSpec(**{**self.BV3, **fields})
            assert spec.canonical_dict()["basis"] == (
                "linear-response-folded"
            ), fields
        for fields in (dict(noise="none"), dict(backend="statevector")):
            spec = ScenarioSpec(**{**self.BV3, **fields})
            assert spec.canonical_dict()["basis"] == (
                "linear-response-default"
            ), fields

    def test_salt_follows_bit_identical_not_fused(self):
        default = ScenarioSpec(**self.BV3)
        for fields in (dict(fused=True), dict(bit_identical=False)):
            spec = ScenarioSpec(**fields, **self.BV3)
            assert spec.response_basis
            assert spec.spec_hash() == default.spec_hash()
        opted_out = ScenarioSpec(bit_identical=True, **self.BV3)
        for fields in (dict(), dict(fused=True)):
            spec = ScenarioSpec(bit_identical=True, **fields, **self.BV3)
            assert not spec.response_basis
            assert "basis" not in spec.canonical_dict()
            assert spec.spec_hash() == opted_out.spec_hash()
        assert opted_out.spec_hash() != default.spec_hash()

    def test_only_moved_records_are_salted(self):
        unmoved = (
            dict(mode="double"),
            dict(backend="trajectory"),
            dict(backend="machine-emulator", transpile={}),
            dict(seed=11, strike={"count": 4, "k": 2}),
        )
        for fields in unmoved:
            spec = ScenarioSpec(**{**self.BV3, **fields})
            assert not spec.response_basis, fields
            assert "basis" not in spec.canonical_dict(), fields
            assert spec.spec_hash() == ScenarioSpec(
                **{**self.BV3, **fields}, bit_identical=True
            ).spec_hash()
        for fields in (
            dict(noise="none"),
            dict(backend="density-matrix"),
            dict(backend="machine", transpile={}),
            dict(seed=11, strike={"count": 4, "k": 1}),
            dict(mitigation=True),
            dict(algorithm="qec", qec={}),
            dict(adaptive={}),
        ):
            spec = ScenarioSpec(**{**self.BV3, **fields})
            assert spec.response_basis, fields

    def test_committed_suites_salt_exactly_the_moved_scenarios(self):
        unmoved = {
            "fig8b-bv4-double", "fig11-bv4-machine", "strike-bv4-pairs",
            "fig5-bv4-trajectory", "bv3-strike-pairs", "ghz3-trajectory",
        }
        for name in ("mini_suite", "paper_suite", "physics_suite"):
            for spec in load_suite(name):
                moved = spec.scenario_id not in unmoved
                assert spec.response_basis == moved, spec.scenario_id

    def test_checkpoint_from_before_the_default_is_refused(self, tmp_path):
        """The opt-out writes what the previous release wrote for the
        default spec (the same exact records, scenario and hash), and a
        default run refuses to resume it, naming the salt."""
        spec = ScenarioSpec(grid_step_deg=90.0, **self.BV3)
        path = str(tmp_path / "exact.ckpt")
        run_scenario(
            ScenarioSpec(grid_step_deg=90.0, bit_identical=True, **self.BV3),
            checkpoint_path=path,
        )
        with pytest.raises(ValueError, match=r"differs on \['basis'\]"):
            run_scenario(spec, checkpoint_path=path)

    def test_checkpoint_from_before_the_fold_is_refused(self, tmp_path):
        """A store the default basis wrote before its density-matrix
        tails were folded holds the same scenario under its pre-fold
        hash; a default run refuses to resume it."""
        spec = ScenarioSpec(grid_step_deg=90.0, **self.BV3)
        path = str(tmp_path / "pre-fold.ckpt")
        run_scenario(spec, checkpoint_path=path)
        meta, table = read_segments(path)
        assert meta["metadata"]["spec_hash"] == spec.spec_hash()
        meta["metadata"]["spec_hash"] = self.PRE_FOLD_BV3_90
        compact(path, meta, table)
        with pytest.raises(ValueError, match="earlier record rules"):
            run_scenario(spec, checkpoint_path=path)


class TestHashNeutralityWhenAbsent:
    def test_new_blocks_absent_from_canonical_dict(self):
        spec = ScenarioSpec(algorithm="bv")
        canonical = spec.canonical_dict()
        assert "qec" not in canonical
        assert "strike" not in canonical
        assert "mitigation" not in canonical

    def test_explicit_defaults_hash_like_omitted(self):
        plain = ScenarioSpec(algorithm="bv")
        explicit = ScenarioSpec(
            algorithm="bv", qec=None, strike=None, mitigation=False
        )
        assert explicit.spec_hash() == plain.spec_hash()

    def test_qec_block_changes_the_hash(self):
        base = ScenarioSpec(algorithm="qec", qec={}, width=3)
        decoded_off = ScenarioSpec(
            algorithm="qec", qec={"decode": False}, width=3
        )
        assert base.spec_hash() != decoded_off.spec_hash()

    def test_strike_block_changes_the_hash(self):
        base = ScenarioSpec(algorithm="bv", seed=7)
        struck = ScenarioSpec(
            algorithm="bv", seed=7, strike={"count": 8}
        )
        assert base.spec_hash() != struck.spec_hash()

    def test_mitigation_flag_changes_the_hash(self):
        base = ScenarioSpec(algorithm="bv")
        mitigated = ScenarioSpec(algorithm="bv", mitigation=True)
        assert base.spec_hash() != mitigated.spec_hash()

    def test_strike_grid_fields_are_inert(self):
        coarse = ScenarioSpec(
            algorithm="bv", seed=7, strike={"count": 8}, grid_step_deg=45.0
        )
        fine = ScenarioSpec(
            algorithm="bv", seed=7, strike={"count": 8}, grid_step_deg=15.0
        )
        assert coarse.spec_hash() == fine.spec_hash()
