"""Factory: the one spec -> objects construction path.

Pins (a) the canonical light noise model against a verbatim copy of the
historical ``cli.py:_light_noise_model`` construction, (b) backend and
executor resolution for every spec kind, and (c) ``run_scenario``
equivalence with a hand-assembled campaign — the bit-identity that lets
the CLI, benchmarks and suites all construct through this module.
"""

import numpy as np
import pytest

from repro.algorithms import bernstein_vazirani
from repro.faults import (
    BatchedExecutor,
    ParallelExecutor,
    QuFI,
    SerialExecutor,
    fault_grid,
)
from repro.machines import PhysicalMachineEmulator
from repro.scenarios import (
    FactoryCache,
    ScenarioSpec,
    estimate_scenario_injections,
    make_backend,
    make_couples,
    make_executor,
    make_faults,
    make_noise_model,
    run_adaptive_scenario,
    run_scenario,
)
from repro.scenarios.factory import heavy_noise_model, light_noise_model
from repro.simulators import (
    DensityMatrixSimulator,
    NoiseModel,
    ReadoutError,
    StatevectorSimulator,
    TrajectorySimulator,
    depolarizing_channel,
)


def legacy_cli_light_model(num_qubits: int) -> NoiseModel:
    """Verbatim port of the deleted ``cli.py:_light_noise_model``."""
    model = NoiseModel("cli-light")
    model.add_all_qubit_error(
        depolarizing_channel(0.002),
        ["h", "x", "y", "z", "s", "t", "u", "p", "rx", "ry", "rz", "sx", "id"],
    )
    model.add_all_qubit_error(
        depolarizing_channel(0.01, num_qubits=2), ["cx", "cz", "cp", "swap"]
    )
    for qubit in range(num_qubits):
        model.add_readout_error(ReadoutError(0.015, 0.03), qubit)
    return model


class TestNoiseModels:
    def test_light_model_matches_historical_cli_model(self):
        """Same channels, same magnitudes: identical execution results."""
        spec = bernstein_vazirani(4)
        ours = DensityMatrixSimulator(light_noise_model(4)).run(spec.circuit)
        legacy = DensityMatrixSimulator(legacy_cli_light_model(4)).run(
            spec.circuit
        )
        assert ours.get_probabilities() == legacy.get_probabilities()

    def test_heavy_model_is_noisier_than_light(self):
        spec = bernstein_vazirani(4)
        correct = spec.correct_states[0]
        light = DensityMatrixSimulator(light_noise_model(4)).run(spec.circuit)
        heavy = DensityMatrixSimulator(heavy_noise_model(4)).run(spec.circuit)
        assert (
            heavy.get_probabilities()[correct]
            < light.get_probabilities()[correct]
        )

    def test_profile_resolution(self):
        assert make_noise_model("none", 4) is None
        assert make_noise_model("light", 4).name == "light"
        assert make_noise_model("heavy", 4).name == "heavy"
        assert make_noise_model("calibrated", 4, "jakarta").name == "jakarta"
        with pytest.raises(ValueError, match="unknown noise profile"):
            make_noise_model("medium", 4)


class TestBackendResolution:
    def test_auto_follows_noise(self):
        ideal = make_backend(ScenarioSpec(algorithm="bv", noise="none"))
        noisy = make_backend(ScenarioSpec(algorithm="bv", noise="light"))
        assert isinstance(ideal, StatevectorSimulator)
        assert isinstance(noisy, DensityMatrixSimulator)

    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("statevector", StatevectorSimulator),
            ("density-matrix", DensityMatrixSimulator),
            ("trajectory", TrajectorySimulator),
            # The machine is the density matrix under its calibration.
            ("machine", DensityMatrixSimulator),
            ("machine-emulator", PhysicalMachineEmulator),
        ],
    )
    def test_explicit_kinds(self, kind, expected):
        # Calibrated noise, which the machine kinds force, needs routing.
        transpile = {} if kind.startswith("machine") else None
        spec = ScenarioSpec(
            algorithm="bv", backend=kind, seed=3, transpile=transpile
        )
        assert isinstance(make_backend(spec), expected)

    def test_unknown_machine_rejected(self):
        spec = ScenarioSpec(
            algorithm="bv", backend="machine", machine="oslo", transpile={}
        )
        with pytest.raises(ValueError, match="unknown machine"):
            make_backend(spec)

    def test_executor_resolution(self):
        assert isinstance(
            make_executor(ScenarioSpec(algorithm="bv", executor="serial")),
            SerialExecutor,
        )
        assert isinstance(
            make_executor(ScenarioSpec(algorithm="bv", executor="batched")),
            BatchedExecutor,
        )
        parallel = make_executor(
            ScenarioSpec(algorithm="bv", executor="parallel", workers=3)
        )
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.workers == 3


class TestFactoryCache:
    def test_artefacts_cached_by_fragment(self):
        cache = FactoryCache()
        a = ScenarioSpec(algorithm="bv", width=3, noise="light", label="a")
        b = ScenarioSpec(
            algorithm="bv", width=3, noise="light", seed=5, label="b"
        )
        assert make_faults(a, cache) is make_faults(b, cache)
        assert make_backend(a, cache).noise_model is make_backend(
            b, cache
        ).noise_model
        assert cache.hits > 0

    def test_couples_derived_from_machine_topology(self):
        spec = ScenarioSpec(algorithm="bv", width=4, mode="double")
        couples = make_couples(spec)
        assert couples  # jakarta couples BV(4) qubits
        assert all(a != b for a, b in couples)


class TestRunScenario:
    def test_matches_hand_assembled_campaign(self):
        spec = ScenarioSpec(
            algorithm="bv",
            width=3,
            noise="light",
            grid_step_deg=90.0,
            executor="serial",
        )
        via_factory = run_scenario(spec)
        by_hand = QuFI(
            DensityMatrixSimulator(light_noise_model(3)),
            executor=SerialExecutor(),
        ).run_campaign(
            bernstein_vazirani(3), faults=fault_grid(step_deg=90.0)
        )
        assert (
            via_factory.table.data.tobytes() == by_hand.table.data.tobytes()
        )
        assert via_factory.fault_free_qvf == by_hand.fault_free_qvf

    def test_repeat_runs_are_bit_identical(self):
        spec = ScenarioSpec(
            algorithm="ghz",
            width=3,
            noise="light",
            grid_step_deg=90.0,
            shots=64,
            seed=9,
        )
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.table.data.tobytes() == second.table.data.tobytes()

    def test_double_mode_produces_double_records(self):
        spec = ScenarioSpec(
            algorithm="bv",
            width=3,
            noise="none",
            mode="double",
            grid_step_deg=90.0,
            phi_max_deg=180.0,
        )
        result = run_scenario(spec)
        assert result.is_double()
        assert result.metadata["mode"] == "double"

    def test_metadata_carries_scenario_identity(self):
        spec = ScenarioSpec(
            algorithm="bv",
            width=3,
            noise="none",
            grid_step_deg=90.0,
            label="fig5-bv3",
        )
        result = run_scenario(spec)
        assert result.metadata["scenario_id"] == "fig5-bv3"
        assert result.metadata["spec_hash"] == spec.spec_hash()
        assert result.metadata["scenario"]["algorithm"] == "bv"

    def test_adaptive_spec_dispatches_to_adaptive_engine(self):
        spec = ScenarioSpec(
            algorithm="ghz",
            width=3,
            noise="none",
            grid_step_deg=30.0,
            executor="serial",
            adaptive={"coarse_points": 3, "gradient_threshold": 0.2},
        )
        result = run_scenario(spec)
        outcome = result.metadata["adaptive"]
        assert outcome["mode"] == "refine"
        assert outcome["injections"] < outcome["full_grid_injections"]
        assert result.metadata["spec_hash"] == spec.spec_hash()

    def test_adaptive_matches_direct_engine_call(self):
        """run_scenario and run_adaptive_scenario are the same path."""
        spec = ScenarioSpec(
            algorithm="ghz",
            width=3,
            noise="none",
            grid_step_deg=30.0,
            executor="serial",
            adaptive={"coarse_points": 3, "gradient_threshold": 0.2},
        )
        via_run = run_scenario(spec)
        direct = run_adaptive_scenario(spec)
        assert via_run.table.data.tobytes() == direct.table.data.tobytes()

    def test_over_budget_uniform_scenario_rejected(self):
        """A uniform grid cannot be truncated without changing its
        records, so a budget below its fixed cost is an error."""
        spec = ScenarioSpec(
            algorithm="bv",
            width=3,
            noise="none",
            grid_step_deg=90.0,
            budget={"max_injections": 5},
        )
        with pytest.raises(ValueError, match="budget"):
            run_scenario(spec)

    def test_budgeted_adaptive_stops_instead_of_failing(self):
        spec = ScenarioSpec(
            algorithm="ghz",
            width=3,
            noise="none",
            grid_step_deg=30.0,
            executor="serial",
            adaptive={"coarse_points": 3, "gradient_threshold": 0.01},
            budget={"max_injections": 50},
        )
        result = run_scenario(spec)
        assert result.metadata["adaptive"]["stopped"] == "budget"
        assert result.num_injections <= 50

    def test_seeded_emulator_scenario_is_reproducible(self):
        """The suite-level determinism the emulator seeding fix buys."""
        spec = ScenarioSpec(
            algorithm="bv",
            width=3,
            noise="calibrated",
            backend="machine-emulator",
            grid_step_deg=90.0,
            shots=128,
            seed=21,
            executor="serial",
            transpile={},
        )
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert np.array_equal(first.qvf_values(), second.qvf_values())


class TestEstimateScenarioInjections:
    """The suite gate's price list must match what campaigns execute."""

    def test_single_mode_exact(self):
        spec = ScenarioSpec(
            algorithm="bv", width=3, noise="none", grid_step_deg=90.0
        )
        result = run_scenario(spec)
        assert estimate_scenario_injections(spec) == result.num_injections

    def test_double_mode_exact(self):
        spec = ScenarioSpec(
            algorithm="bv",
            width=3,
            noise="none",
            mode="double",
            grid_step_deg=90.0,
            phi_max_deg=180.0,
        )
        result = run_scenario(spec)
        assert estimate_scenario_injections(spec) == result.num_injections

    def test_adaptive_estimate_is_an_upper_bound(self):
        spec = ScenarioSpec(
            algorithm="ghz",
            width=3,
            noise="none",
            grid_step_deg=30.0,
            executor="serial",
            adaptive={"coarse_points": 3, "gradient_threshold": 0.2},
        )
        result = run_scenario(spec)
        assert estimate_scenario_injections(spec) >= result.num_injections

    def test_adaptive_estimate_clamped_by_budget(self):
        unbudgeted = ScenarioSpec(
            algorithm="ghz",
            width=3,
            noise="none",
            grid_step_deg=30.0,
            adaptive={"coarse_points": 3},
        )
        budgeted = ScenarioSpec(
            algorithm="ghz",
            width=3,
            noise="none",
            grid_step_deg=30.0,
            adaptive={"coarse_points": 3},
            budget={"max_injections": 60},
        )
        assert estimate_scenario_injections(budgeted) == 60
        assert estimate_scenario_injections(unbudgeted) > 60
