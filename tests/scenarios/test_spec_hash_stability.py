"""Spec-hash stability across the physics-axes upgrade.

The ``qec``/``strike``/``mitigation`` blocks participate in
``spec_hash`` whenever set, but must be *hash-neutral when absent*
(like ``adaptive``): every spec hash computed before these fields
existed has to stay valid, or half-finished suite manifests and warm
result caches would be orphaned by the upgrade. These tests pin the
exact pre-upgrade hashes of both shipped example suites and check the
neutrality property directly.
"""

import os

from repro.scenarios import ScenarioSpec, SuiteSpec

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

# Captured on the commit immediately before the qec/strike/mitigation
# fields existed. These values must never change — except once, for
# the one seeding rule (every draw of task k from ``(seed, k)``): it
# moved the records of sampled specs on every backend but the machine
# emulator, so it salted their hashes. In the committed suites that is
# ``ghz3-light-sampled`` alone, and with it the mini suite's hash.
MINI_SUITE_HASH = "9db69c9dd444981b"
PRE_SEEDING_RULE = {
    "mini_suite": "3706cb730292e266",
    "ghz3-light-sampled": "ae418edd18942f0e",
}
MINI_SCENARIO_HASHES = {
    "bv3-ideal": "e5b43ede8b22b663",
    "ghz3-light-sampled": "f1b13c6180c3af4c",
    "qft3-heavy": "27ca854748eda30a",
    "bv3-ideal-reused": "e5b43ede8b22b663",
    "ghz3-casablanca-transpiled": "7ac7121cc94ed7d3",
}

PAPER_SUITE_HASH = "86646b0ecb417ff9"
PAPER_SCENARIO_HASHES = {
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
}


class TestPinnedExampleSuiteHashes:
    def test_mini_suite_scenario_hashes_unchanged(self):
        suite = SuiteSpec.from_json(os.path.join(EXAMPLES, "mini_suite.json"))
        observed = {s.scenario_id: s.spec_hash() for s in suite}
        assert observed == MINI_SCENARIO_HASHES

    def test_mini_suite_hash_unchanged(self):
        suite = SuiteSpec.from_json(os.path.join(EXAMPLES, "mini_suite.json"))
        assert suite.suite_hash() == MINI_SUITE_HASH

    def test_paper_suite_pre_upgrade_scenarios_unchanged(self):
        # paper_suite.json gains new physics scenarios over time; the
        # pre-upgrade entries must keep their exact hashes.
        suite = SuiteSpec.from_json(
            os.path.join(EXAMPLES, "paper_suite.json")
        )
        observed = {s.scenario_id: s.spec_hash() for s in suite}
        for scenario_id, expected in PAPER_SCENARIO_HASHES.items():
            assert observed[scenario_id] == expected, scenario_id

    def test_paper_suite_subsuite_hash_unchanged(self):
        # The ordered (id, hash) prefix over the pre-upgrade entries
        # still reproduces the pre-upgrade suite hash.
        suite = SuiteSpec.from_json(
            os.path.join(EXAMPLES, "paper_suite.json")
        )
        legacy = [
            s for s in suite if s.scenario_id in PAPER_SCENARIO_HASHES
        ]
        assert len(legacy) == len(PAPER_SCENARIO_HASHES)
        prefix = SuiteSpec.build("qufi-paper-evaluation", legacy)
        assert prefix.suite_hash() == PAPER_SUITE_HASH


class TestSeedingRuleSalt:
    """Only sampled specs on a backend other than the emulator moved."""

    @staticmethod
    def salted(spec):
        return spec.shots is not None and spec.backend != "machine-emulator"

    def test_exact_and_emulator_pins_unchanged(self):
        pins = {**MINI_SCENARIO_HASHES, **PAPER_SCENARIO_HASHES}
        checked = set()
        for name in ("mini_suite", "paper_suite"):
            suite = SuiteSpec.from_json(os.path.join(EXAMPLES, f"{name}.json"))
            for spec in suite:
                if spec.scenario_id in pins and not self.salted(spec):
                    assert spec.spec_hash() == pins[spec.scenario_id]
                    checked.add(spec.scenario_id)
        assert len(checked) == len(pins) - 1
        # The emulator keeps its own stream, so its sampled spec keeps
        # its hash.
        machine = {
            s.scenario_id: s
            for s in SuiteSpec.from_json(
                os.path.join(EXAMPLES, "paper_suite.json")
            )
        }["fig11-bv4-machine"]
        assert machine.shots is not None
        assert machine.backend == "machine-emulator"
        assert machine.spec_hash() == "1b16b2a4b7480b5f"

    def test_sampled_spec_hash_moved(self):
        suite = SuiteSpec.from_json(os.path.join(EXAMPLES, "mini_suite.json"))
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
            machine="jakarta", shots=64,
        )
        assert "seeding" not in emulator.canonical_dict()


class TestResponseBasisSalt:
    """Waived specs moved from packed segments to the response basis, so
    their hashes moved; exact specs (every committed one) did not."""

    # The hash of this waived spec when the waiver still packed segments.
    PACKED_ERA = ("d84a2da74fab1927", dict(noise="light"))

    def test_waived_spec_hash_moved(self):
        expected, fields = self.PACKED_ERA
        waived = ScenarioSpec(
            algorithm="bv", width=3, fused=True, bit_identical=False, **fields
        )
        assert waived.canonical_dict()["basis"] == "linear-response"
        assert waived.spec_hash() != expected

    def test_salt_follows_the_waiver(self):
        for fields in (
            dict(),
            dict(fused=True),
            dict(bit_identical=False),
            dict(fused=True, bit_identical=True),
        ):
            spec = ScenarioSpec(algorithm="bv", width=3, **fields)
            assert not spec.response_basis
            assert "basis" not in spec.canonical_dict()

    def test_no_committed_suite_is_waived(self):
        for name in ("mini_suite", "paper_suite", "physics_suite"):
            suite = SuiteSpec.from_json(os.path.join(EXAMPLES, f"{name}.json"))
            assert not any(spec.response_basis for spec in suite), name


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
