"""The five physics axes of the scenario layer, golden-tested.

Each dormant seed module now has a first-class spec block; these tests
pin the suite-layer path to the standalone module it wraps:

* ``qec`` — campaign records equal :func:`protected_circuit` scored
  through :func:`score_result`, bit for bit, and track
  :func:`logical_error_probability` to float round-off;
* ``strike`` (k=1) — records equal :func:`run_strike_campaign`;
* ``strike`` (k>=2) — records reduce exactly to the matching rows of
  :meth:`QuFI.run_double_campaign`, plain and transpiled;
* ``mitigation`` — twin campaigns align and produce the
  :func:`mitigation_delta` columns;
* ``backend: trajectory`` — bit-identical across executors and reruns.
"""

import warnings

import numpy as np
import pytest

from repro.analysis.mitigation import mitigation_delta
from repro.faults.executor import score_result
from repro.faults.physics import sample_strike_patterns
from repro.faults.sampling import run_strike_campaign
from repro.qec.repetition import logical_error_probability, protected_circuit
from repro.scenarios import (
    ScenarioSpec,
    estimate_scenario_injections,
    run_scenario,
)
from repro.scenarios.factory import (
    FactoryCache,
    make_algorithm,
    make_backend,
    make_couples,
    make_injector,
    make_transpiled_campaign_inputs,
)

DOUBLE_COLUMNS = (
    "theta",
    "phi",
    "second_theta",
    "second_phi",
    "position",
    "qubit",
    "second_qubit",
    "qvf",
)


def qec_spec(**overrides):
    block = {"code": "bit_flip", "distance": 3, "decode": True}
    block.update(overrides.pop("qec", {}))
    defaults = dict(
        algorithm="qec",
        noise="none",
        grid_step_deg=45.0,
        seed=7,
        qec=block,
        label="qec-test",
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def sorted_rows(table, columns, mask=None):
    arrays = [
        table.column(c) if mask is None else table.column(c)[mask]
        for c in columns
    ]
    return sorted(zip(*arrays))


class TestQECAxis:
    def test_records_match_protected_circuit_bitwise(self):
        """Every campaign QVF is score_result of the standalone circuit,
        bit for bit on the exact plans (``bit_identical: true``)."""
        spec = qec_spec(bit_identical=True)
        cache = FactoryCache()
        result = run_scenario(spec, cache)
        assert result.fault_free_qvf == 0.0
        backend = make_backend(spec, cache)
        rng = np.random.default_rng(0)
        block = spec.qec
        for record in result.sorted_records():
            circuit = protected_circuit(
                block.state_theta,
                block.state_phi,
                fault=record.fault,
                fault_qubit=record.point.qubit,
                code=block.code,
                distance=block.distance,
                decode=block.decode,
            )
            golden = score_result(backend.run(circuit), ("0",), None, rng)
            assert record.qvf == golden

    def test_qvf_is_the_logical_error_probability(self):
        """QVF tracks logical_error_probability to float round-off.

        The campaign scores ``1 - P("0")`` where the module returns
        ``P("1")`` — same quantity through a different float path.
        """
        spec = qec_spec()
        cache = FactoryCache()
        result = run_scenario(spec, cache)
        backend = make_backend(spec, cache)
        block = spec.qec
        for record in result.sorted_records()[:8]:
            reference = logical_error_probability(
                backend,
                record.fault,
                code=block.code,
                fault_qubit=record.point.qubit,
                state=(block.state_theta, block.state_phi),
                distance=block.distance,
                decode=block.decode,
            )
            assert record.qvf == pytest.approx(reference, abs=1e-12)

    def test_injection_estimate_is_exact(self):
        spec = qec_spec()
        cache = FactoryCache()
        estimate = estimate_scenario_injections(spec, cache)
        assert estimate == run_scenario(spec, cache).num_injections

    def test_one_point_per_data_wire_at_the_boundary(self):
        """d data wires, one encoder-boundary position each."""
        result = run_scenario(qec_spec())
        table = result.table
        assert len(np.unique(table.column("position"))) == 1
        assert set(np.unique(table.column("qubit"))) == {0, 1, 2}

    def test_correction_collapses_logical_error(self):
        """The paper's QEC claim: the coded mean QVF sits well below the
        unprotected physical rate.

        The ``code: none`` baseline keeps the same three wires but only
        wire 0 carries state, so the comparison restricts the baseline
        to its data wire (faults on the inert wires score 0 trivially).
        The protected campaign's wires are symmetric — its full mean is
        the per-wire mean.
        """
        protected = run_scenario(qec_spec())
        baseline = run_scenario(
            qec_spec(qec={"code": "none"}, label="qec-baseline")
        )
        physical = baseline.table
        on_data_wire = physical.column("qubit") == 0
        physical_mean = physical.column("qvf")[on_data_wire].mean()
        assert protected.mean_qvf() < physical_mean
        # Inert wires really are inert in the baseline.
        assert physical.column("qvf")[~on_data_wire].max() == 0.0

    def test_decode_flag_changes_records(self):
        decoded = run_scenario(qec_spec())
        undecoded = run_scenario(
            qec_spec(qec={"decode": False}, label="qec-nodecode")
        )
        assert decoded.mean_qvf() != undecoded.mean_qvf()

    def test_metadata_carries_the_block(self):
        result = run_scenario(qec_spec())
        assert result.metadata["qec"]["code"] == "bit_flip"
        assert result.metadata["qec"]["distance"] == 3


class TestStrikeAxis:
    def strike_spec(self, **overrides):
        defaults = dict(
            algorithm="bv",
            width=3,
            noise="light",
            seed=11,
            strike={"count": 16, "k": 1},
            label="strike-test",
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    def test_k1_matches_run_strike_campaign_bitwise(self):
        """The suite path is exactly the standalone Monte-Carlo module."""
        spec = self.strike_spec()
        cache = FactoryCache()
        result = run_scenario(spec, cache)
        standalone = run_strike_campaign(
            make_injector(spec, cache),
            make_algorithm(spec, cache),
            spec.strike.count,
            rng=np.random.default_rng(spec.seed),
            max_distance_um=spec.strike.max_distance_um,
            saturation_fraction=spec.strike.saturation_fraction,
        )
        assert (
            result.table.data.tobytes() == standalone.table.data.tobytes()
        )
        assert result.fault_free_qvf == standalone.fault_free_qvf
        assert result.metadata["fault_source"] == "strike_sampling"
        assert result.metadata["strike"]["k"] == 1

    @pytest.mark.parametrize(
        "transpile", [None, {}], ids=["plain", "transpiled"]
    )
    def test_k2_reduces_to_double_campaign_rows(self, transpile):
        """Golden: adjacent-pair strikes are double-campaign records.

        Running the flat fault set through ``run_double_campaign`` over
        the same wire-frame couples enumerates a superset of combos; the
        rows matching each sampled (full, attenuated) pattern must equal
        the correlated campaign bit for bit.
        """
        spec = self.strike_spec(
            strike={"count": 2, "k": 2},
            transpile=transpile,
            machine="jakarta",
        )
        cache = FactoryCache()
        result = run_scenario(spec, cache)
        patterns = sample_strike_patterns(
            spec.strike.count, (0, 1), seed=spec.seed
        )
        flat = sorted(
            {fault for pattern in patterns for fault in pattern},
            key=lambda fault: (fault.theta, fault.phi),
        )
        couples = make_couples(spec, cache)
        algorithm = make_algorithm(spec, cache)
        qufi = make_injector(spec, cache)
        if transpile is None:
            double = qufi.run_double_campaign(
                algorithm, couples=couples, faults=flat
            )
        else:
            transpiled, points, _ = make_transpiled_campaign_inputs(
                spec, cache
            )
            double = qufi.run_double_campaign(
                transpiled.circuit,
                couples=couples,
                correct_states=algorithm.correct_states,
                faults=flat,
                points=points,
            )
        table = double.table
        mask = np.zeros(len(table), dtype=bool)
        for full, attenuated in patterns:
            mask |= (
                (table.column("theta") == full.theta)
                & (table.column("phi") == full.phi)
                & (table.column("second_theta") == attenuated.theta)
                & (table.column("second_phi") == attenuated.phi)
            )
        assert sorted_rows(table, DOUBLE_COLUMNS, mask) == sorted_rows(
            result.table, DOUBLE_COLUMNS
        )

    def test_k2_estimate_is_exact(self):
        spec = self.strike_spec(strike={"count": 3, "k": 2})
        cache = FactoryCache()
        estimate = estimate_scenario_injections(spec, cache)
        assert estimate == run_scenario(spec, cache).num_injections

    def test_k3_clusters_extend_the_pair(self):
        """k=3 hits a third adjacent qubit and changes the physics."""
        spec = self.strike_spec(
            algorithm="ghz",
            width=4,
            strike={"count": 3, "k": 3},
            label="strike-k3",
        )
        cache = FactoryCache()
        result = run_scenario(spec, cache)
        assert result.metadata["cluster_size"] == 3
        assert estimate_scenario_injections(spec, cache) == (
            result.num_injections
        )
        pair = run_scenario(
            self.strike_spec(
                algorithm="ghz",
                width=4,
                strike={"count": 3, "k": 2},
                label="strike-k2",
            )
        )
        assert result.mean_qvf() != pair.mean_qvf()

    def test_k2_rejects_plain_fault_list(self):
        """make_faults refuses correlated specs: they need patterns."""
        from repro.scenarios.factory import make_faults

        spec = self.strike_spec(strike={"count": 2, "k": 2})
        with pytest.raises(ValueError, match="correlated"):
            make_faults(spec)


class TestMitigationAxis:
    def twin_specs(self):
        base = dict(
            algorithm="ghz",
            width=3,
            noise="light",
            grid_step_deg=90.0,
            seed=5,
        )
        raw = ScenarioSpec(label="twin-raw", **base)
        mitigated = ScenarioSpec(
            label="twin-mitigated", mitigation=True, **base
        )
        return raw, mitigated

    def test_twin_campaigns_align_and_delta(self):
        raw_spec, mitigated_spec = self.twin_specs()
        raw = run_scenario(raw_spec)
        mitigated = run_scenario(mitigated_spec)
        assert mitigated.metadata["mitigation"] is True
        assert "mitigation" not in raw.metadata
        delta = mitigation_delta(raw, mitigated)
        assert len(delta["qvf_delta"]) == raw.num_injections
        assert delta["mean_delta"] == pytest.approx(
            float(
                (
                    mitigated.table.column("qvf") - raw.table.column("qvf")
                ).mean()
            )
        )

    def test_mitigation_lowers_fault_free_qvf(self):
        """Perfect readout inversion recovers the noiseless baseline."""
        raw_spec, mitigated_spec = self.twin_specs()
        raw = run_scenario(raw_spec)
        mitigated = run_scenario(mitigated_spec)
        assert mitigated.fault_free_qvf < raw.fault_free_qvf

    def test_mitigated_rerun_is_deterministic(self):
        _, mitigated_spec = self.twin_specs()
        first = run_scenario(mitigated_spec)
        second = run_scenario(mitigated_spec)
        assert first.table.data.tobytes() == second.table.data.tobytes()


class TestTrajectoryAxis:
    def trajectory_spec(self, executor="serial", workers=None):
        return ScenarioSpec(
            algorithm="ghz",
            width=2,
            noise="light",
            backend="trajectory",
            trajectories=32,
            grid_step_deg=90.0,
            seed=5,
            executor=executor,
            workers=workers,
            label=f"traj-{executor}",
        )

    def test_bit_identical_across_executors(self):
        """Per-task (seed, index) seeding decouples noise from order."""
        reference = run_scenario(self.trajectory_spec())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for executor, workers in (("batched", None), ("parallel", 2)):
                other = run_scenario(
                    self.trajectory_spec(executor, workers)
                )
                assert (
                    other.table.column("qvf").tobytes()
                    == reference.table.column("qvf").tobytes()
                ), executor

    def test_rerun_is_bit_identical(self):
        first = run_scenario(self.trajectory_spec())
        second = run_scenario(self.trajectory_spec())
        assert first.table.data.tobytes() == second.table.data.tobytes()

    def test_trajectory_with_mitigation_is_deterministic(self):
        spec = ScenarioSpec(
            algorithm="ghz",
            width=2,
            noise="light",
            backend="trajectory",
            trajectories=32,
            grid_step_deg=90.0,
            seed=5,
            mitigation=True,
            label="traj-mitigated",
        )
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.table.data.tobytes() == second.table.data.tobytes()
        assert first.metadata["mitigation"] is True
