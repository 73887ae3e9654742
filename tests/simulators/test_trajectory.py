"""Trajectory simulator: convergence to the exact density-matrix engine,
and the batched run against the one-trajectory-at-a-time reference."""

import numpy as np
import pytest

from repro.algorithms import bernstein_vazirani, qft
from repro.quantum import QuantumCircuit
from repro.quantum.gates import Barrier, Measure, Reset
from repro.quantum.linalg import apply_unitary_to_statevector
from repro.scenarios.factory import light_noise_model
from repro.simulators import (
    DensityMatrixSimulator,
    NoiseModel,
    ReadoutError,
    TrajectorySimulator,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
)
from repro.simulators import trajectory as trajectory_module
from repro.simulators.backend import BranchBatch


def _distance(a, b):
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0) - b.get(k, 0)) for k in keys)


# ----------------------------------------------------------------------
# The reference: one trajectory at a time, one Generator.choice per draw
# ----------------------------------------------------------------------
def _sample_kraus(state, kraus_ops, targets, num_qubits, rng):
    """Pick one Kraus branch with Born probability and renormalize."""
    candidates = []
    weights = []
    for op in kraus_ops:
        branch = apply_unitary_to_statevector(
            state, np.asarray(op, dtype=complex), targets, num_qubits
        )
        weight = float(np.real(np.vdot(branch, branch)))
        candidates.append(branch)
        weights.append(weight)
    weights = np.asarray(weights)
    total = weights.sum()
    if total <= 0:
        raise RuntimeError("channel annihilated the state")
    index = rng.choice(len(candidates), p=weights / total)
    chosen = candidates[index]
    return chosen / np.linalg.norm(chosen)


def _sample_reset(state, qubit, num_qubits, rng):
    """Projective measurement of ``qubit`` followed by |0> re-preparation."""
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    return _sample_kraus(state, [zero, lower], [qubit], num_qubits, rng)


def _one_trajectory(noise, circuit, rng):
    num_qubits = circuit.num_qubits
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    measured = set()
    for inst in circuit:
        if isinstance(inst.gate, Barrier):
            continue
        if isinstance(inst.gate, Measure):
            measured.add(inst.qubits[0])
            continue
        touched = set(inst.qubits) & measured
        if touched:
            raise ValueError(
                f"gate {inst.name} on already-measured qubit(s) {touched}"
            )
        if isinstance(inst.gate, Reset):
            state = _sample_reset(state, inst.qubits[0], num_qubits, rng)
            continue
        state = apply_unitary_to_statevector(
            state, inst.gate.matrix, inst.qubits, num_qubits
        )
        if noise is None:
            continue
        channel = noise.channel_for(inst.name, inst.qubits)
        if channel is None:
            continue
        if channel.num_qubits == len(inst.qubits):
            state = _sample_kraus(
                state, channel.kraus, inst.qubits, num_qubits, rng
            )
        elif channel.num_qubits == 1:
            for qubit in inst.qubits:
                state = _sample_kraus(
                    state, channel.kraus, [qubit], num_qubits, rng
                )
        else:
            raise ValueError(
                f"channel {channel.name!r} arity mismatch on {inst.name}"
            )
    return np.abs(state) ** 2


def reference_run(simulator, circuit, rng):
    """``TrajectorySimulator.run``'s result, trajectory by trajectory.

    The evolution is the reference's own; readout and the classical
    register are the simulators' shared post-processing
    (``BranchBatch.from_rows``), which ``test_run_oracle.py`` checks
    against ``tests/oracle.py``.
    """
    accumulated = np.zeros(2**circuit.num_qubits)
    for _ in range(simulator.trajectories):
        accumulated += _one_trajectory(simulator.noise_model, circuit, rng)
    measure_map = {
        inst.clbits[0]: inst.qubits[0]
        for inst in circuit
        if isinstance(inst.gate, Measure)
    }
    return BranchBatch.from_rows(
        (accumulated / simulator.trajectories)[np.newaxis],
        measure_map,
        circuit,
        None,
        {},
        noise_model=simulator.noise_model,
    ).result(0)


class TestNoiselessAgreement:
    def test_matches_exact_on_bell_state(self):
        qc = QuantumCircuit(2, 2).h(0).cx(0, 1).measure_all()
        trajectory = TrajectorySimulator(trajectories=8, seed=1)
        exact = DensityMatrixSimulator()
        assert _distance(
            trajectory.run(qc).get_probabilities(),
            exact.run(qc).get_probabilities(),
        ) < 1e-12  # no noise -> every trajectory is identical

    def test_deterministic_channel_needs_one_trajectory(self):
        model = NoiseModel().add_all_qubit_error(bit_flip_channel(1.0), ["id"])
        qc = QuantumCircuit(1, 1).id(0).measure(0, 0)
        trajectory = TrajectorySimulator(model, trajectories=1, seed=0)
        assert trajectory.run(qc).get_probabilities() == pytest.approx(
            {"1": 1.0}
        )


class TestNoisyConvergence:
    @pytest.mark.parametrize(
        "channel_factory,gates",
        [
            (lambda: depolarizing_channel(0.15), ["h"]),
            (lambda: amplitude_damping_channel(0.3), ["x"]),
        ],
        ids=["depolarizing", "amplitude-damping"],
    )
    def test_converges_to_density_matrix(self, channel_factory, gates):
        model = NoiseModel().add_all_qubit_error(channel_factory(), gates)
        qc = QuantumCircuit(2, 2)
        qc.h(0).x(1).cx(0, 1).measure_all()
        exact = DensityMatrixSimulator(model).run(qc).get_probabilities()
        sampled = (
            TrajectorySimulator(model, trajectories=3000, seed=7)
            .run(qc)
            .get_probabilities()
        )
        assert _distance(exact, sampled) < 0.03

    def test_error_shrinks_with_trajectories(self):
        model = NoiseModel().add_all_qubit_error(
            depolarizing_channel(0.2), ["h"]
        )
        qc = QuantumCircuit(1, 1).h(0).h(0).measure(0, 0)
        exact = DensityMatrixSimulator(model).run(qc).get_probabilities()

        def error(n, seed):
            sampled = (
                TrajectorySimulator(model, trajectories=n, seed=seed)
                .run(qc)
                .get_probabilities()
            )
            return _distance(exact, sampled)

        few = np.mean([error(20, s) for s in range(6)])
        many = np.mean([error(2000, s) for s in range(6)])
        assert many < few

    def test_readout_error_applied(self):
        model = NoiseModel()
        model.add_readout_error(ReadoutError(0.1, 0.0), 0)
        qc = QuantumCircuit(1, 1).measure(0, 0)
        result = TrajectorySimulator(model, trajectories=4, seed=2).run(qc)
        assert result.get_probabilities() == pytest.approx(
            {"0": 0.9, "1": 0.1}
        )

    def test_reset_supported(self):
        qc = QuantumCircuit(1, 1).x(0).reset(0).measure(0, 0)
        result = TrajectorySimulator(trajectories=4, seed=3).run(qc)
        assert result.get_probabilities() == pytest.approx({"0": 1.0})

    def test_one_qubit_channel_on_cx(self):
        model = NoiseModel().add_all_qubit_error(bit_flip_channel(1.0), ["cx"])
        qc = QuantumCircuit(2, 2).cx(0, 1).measure_all()
        result = TrajectorySimulator(model, trajectories=2, seed=4).run(qc)
        assert result.get_probabilities() == pytest.approx({"11": 1.0})


def _reset_circuit():
    """Each reset collapses an entangled partner, so which branch a
    trajectory draws shows in its outcome."""
    qc = QuantumCircuit(3, 3).h(0).cx(0, 1).reset(0)
    qc.h(0).cx(0, 2).reset(0).x(0)
    return qc.measure_all()


def _one_qubit_on_cx_model():
    return NoiseModel().add_all_qubit_error(
        depolarizing_channel(0.2), ["h", "cx", "x"]
    )


def _two_qubit_model():
    model = NoiseModel().add_all_qubit_error(
        amplitude_damping_channel(0.3), ["h"]
    )
    return model.add_all_qubit_error(
        depolarizing_channel(0.3, num_qubits=2), ["cx"]
    )


def _readout_model():
    model = _two_qubit_model()
    for qubit, error in enumerate(
        [ReadoutError(0.2, 0.05), ReadoutError(0.1, 0.1), ReadoutError(0.0, 0.3)]
    ):
        model.add_readout_error(error, qubit)
    return model


# (noise model, circuit) pairs: resets, a one-qubit channel on cx, a
# two-qubit channel, readout error, and a noiseless circuit. The noise
# is strong enough that the draws decide the result.
EQUIVALENCE_CASES = {
    "reset": (lambda: None, _reset_circuit),
    "reset-noisy": (_one_qubit_on_cx_model, _reset_circuit),
    "1q-channel-on-cx": (
        _one_qubit_on_cx_model,
        lambda: bernstein_vazirani(3).circuit,
    ),
    "2q-channel": (_two_qubit_model, lambda: qft(3).circuit),
    "readout": (_readout_model, lambda: bernstein_vazirani(3).circuit),
    "noiseless": (lambda: None, lambda: qft(3).circuit),
}


@pytest.fixture(params=["tile-1", "tile-T"])
def tile_budget(request, monkeypatch):
    """Run at one trajectory per tile, then all trajectories in one tile."""
    budget = 1 if request.param == "tile-1" else 1 << 40
    monkeypatch.setattr(trajectory_module, "TRAJECTORY_TILE_BYTES", budget)
    return request.param


class TestBatchedAgainstReference:
    """The batched run is bit-identical to one trajectory at a time."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_seeded_run_matches_reference(self, case, tile_budget):
        make_model, make_circuit = EQUIVALENCE_CASES[case]
        circuit = make_circuit()
        simulator = TrajectorySimulator(make_model(), trajectories=24)
        batched = simulator.run(circuit, seed=(3, 17))
        reference = reference_run(
            simulator, circuit, np.random.default_rng((3, 17))
        )
        assert batched.probabilities == reference.probabilities

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_unseeded_runs_consume_the_same_stream(self, case, tile_budget):
        """Two consecutive instance-stream runs draw exactly what the
        reference draws: the same results and the same next draw."""
        make_model, make_circuit = EQUIVALENCE_CASES[case]
        circuit = make_circuit()
        simulator = TrajectorySimulator(make_model(), trajectories=5, seed=8)
        rng = np.random.default_rng(8)
        for _ in range(2):
            assert (
                simulator.run(circuit).probabilities
                == reference_run(simulator, circuit, rng).probabilities
            )
        assert simulator._rng.random() == rng.random()

    def test_noiseless_circuit_makes_no_draws(self, tile_budget):
        simulator = TrajectorySimulator(trajectories=7, seed=4)
        before = simulator._rng.bit_generator.state
        simulator.run(qft(3).circuit)
        assert simulator._rng.bit_generator.state == before

    def test_tile_never_exceeds_the_budget(self, monkeypatch):
        """A tile's widest stack — its trajectories times the 16 Kraus
        operators of the two-qubit draw — stays under the budget."""
        tiles = []
        evolve = TrajectorySimulator._evolve

        def spy(self, program, uniforms, num_qubits):
            tiles.append(uniforms.shape[0])
            return evolve(self, program, uniforms, num_qubits)

        monkeypatch.setattr(TrajectorySimulator, "_evolve", spy)
        circuit = bernstein_vazirani(3).circuit
        widest = 16 * 16 * 2**circuit.num_qubits
        monkeypatch.setattr(
            trajectory_module, "TRAJECTORY_TILE_BYTES", 3 * widest + 1
        )
        TrajectorySimulator(
            light_noise_model(circuit.num_qubits), trajectories=10
        ).run(circuit, seed=1)
        assert tiles == [3, 3, 3, 1]


class TestValidation:
    def test_trajectory_count_validated(self):
        with pytest.raises(ValueError):
            TrajectorySimulator(trajectories=0)

    def test_gate_after_measure_rejected(self):
        qc = QuantumCircuit(1, 1).measure(0, 0).x(0)
        with pytest.raises(ValueError, match="already-measured"):
            TrajectorySimulator(trajectories=1, seed=0).run(qc)

    def test_annihilating_channel_rejected(self):
        model = NoiseModel()
        model._local[("h", (0,))] = _ZeroChannel()
        qc = QuantumCircuit(1, 1).h(0).measure(0, 0)
        with pytest.raises(RuntimeError, match="annihilated"):
            TrajectorySimulator(model, trajectories=2, seed=0).run(qc)

    def test_non_finite_weights_rejected(self):
        model = NoiseModel()
        model._local[("h", (0,))] = _ZeroChannel(np.nan)
        qc = QuantumCircuit(1, 1).h(0).measure(0, 0)
        with pytest.raises(ValueError, match="not finite"):
            TrajectorySimulator(model, trajectories=2, seed=0).run(qc)

    def test_seeded_runs_reproducible(self):
        model = NoiseModel().add_all_qubit_error(
            depolarizing_channel(0.3), ["h"]
        )
        qc = QuantumCircuit(1, 1).h(0).measure(0, 0)
        a = TrajectorySimulator(model, trajectories=50).run(qc, seed=9)
        b = TrajectorySimulator(model, trajectories=50).run(qc, seed=9)
        assert a.get_probabilities() == b.get_probabilities()


class _ZeroChannel:
    """A malformed one-qubit channel whose Kraus operators are ``value``
    times the identity (the noise model accepts only CPTP channels, so
    tests plant it directly)."""

    name = "malformed"
    num_qubits = 1

    def __init__(self, value=0.0):
        self.kraus = (value * np.eye(2, dtype=complex),)


class TestAsQuFIBackend:
    def test_campaign_on_trajectory_backend(self):
        """QuFI accepts the trajectory engine as a drop-in backend."""
        from repro.algorithms import bernstein_vazirani
        from repro.faults import QuFI, fault_grid

        model = NoiseModel().add_all_qubit_error(
            depolarizing_channel(0.01), ["h", "x", "cx"]
        )
        spec = bernstein_vazirani(3)
        qufi = QuFI(TrajectorySimulator(model, trajectories=400, seed=5))
        campaign = qufi.run_campaign(spec, faults=fault_grid(step_deg=90))
        exact = QuFI(DensityMatrixSimulator(model)).run_campaign(
            spec, faults=fault_grid(step_deg=90)
        )
        assert abs(campaign.mean_qvf() - exact.mean_qvf()) < 0.05
