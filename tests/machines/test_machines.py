"""Calibration records, fake backends and the physical-machine emulator."""

import numpy as np
import pytest

from repro.algorithms import bernstein_vazirani
from repro.machines import (
    DeviceCalibration,
    GateCalibration,
    PhysicalMachineEmulator,
    QubitCalibration,
    fake_casablanca,
    fake_guadalupe,
    fake_jakarta,
    fake_lagos,
    fake_montreal,
    noise_model_from_calibration,
)
from repro.quantum import QuantumCircuit
from repro.simulators import DensityMatrixSimulator
from repro.transpiler import transpile


class TestCalibrationRecords:
    def test_qubit_validation(self):
        with pytest.raises(ValueError, match="T2 > 2"):
            QubitCalibration(t1=10e-6, t2=30e-6, readout_p01=0.01, readout_p10=0.02)
        with pytest.raises(ValueError, match="positive"):
            QubitCalibration(t1=-1, t2=1e-6, readout_p01=0, readout_p10=0)
        with pytest.raises(ValueError, match="probability"):
            QubitCalibration(t1=1e-4, t2=1e-4, readout_p01=2.0, readout_p10=0)

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            GateCalibration(error=1.5, duration=1e-9)
        with pytest.raises(ValueError):
            GateCalibration(error=0.1, duration=-1)

    def test_override_lookup(self):
        cal = fake_jakarta().calibration
        default = cal.gate_calibration("cx", (0, 6))
        override = cal.gate_calibration("cx", (0, 1))
        assert override is not None and default is not None
        assert override.error != default.error

    def test_summary_renders(self):
        text = fake_jakarta().calibration.summary()
        assert "jakarta" in text
        assert "T1" in text and "gate cx" in text


class TestDrift:
    def test_drift_stays_physical(self):
        cal = fake_jakarta().calibration
        rng = np.random.default_rng(0)
        for _ in range(20):
            drifted = cal.drifted(rng, relative_scale=0.2)
            for qubit in drifted.qubits:
                assert qubit.t2 <= 2 * qubit.t1 + 1e-12
                assert 0 <= qubit.readout_p01 <= 1
            for gate_cal in drifted.gate_defaults.values():
                assert 0 <= gate_cal.error <= 1

    def test_drift_changes_values(self):
        cal = fake_jakarta().calibration
        drifted = cal.drifted(np.random.default_rng(1), relative_scale=0.1)
        assert drifted.qubits[0].t1 != cal.qubits[0].t1

    def test_drift_is_seeded(self):
        cal = fake_jakarta().calibration
        a = cal.drifted(np.random.default_rng(9))
        b = cal.drifted(np.random.default_rng(9))
        assert a.qubits[0].t1 == b.qubits[0].t1


class TestFakeBackends:
    @pytest.mark.parametrize(
        "factory,qubits",
        [
            (fake_casablanca, 7),
            (fake_jakarta, 7),
            (fake_lagos, 7),
            (fake_guadalupe, 16),
            (fake_montreal, 27),
        ],
    )
    def test_construction(self, factory, qubits):
        backend = factory()
        assert backend.num_qubits == qubits
        assert backend.calibration.num_qubits == qubits

    def test_noise_model_structure(self):
        backend = fake_jakarta()
        model = backend.noise_model
        assert model.channel_for("u", [0]) is not None
        assert model.channel_for("cx", (0, 1)) is not None
        assert model.readout_confusion(0) is not None

    def test_cx_noise_defined_both_directions(self):
        model = fake_jakarta().noise_model
        assert model.channel_for("cx", (0, 1)) is not None
        assert model.channel_for("cx", (1, 0)) is not None

    def test_noisy_execution_degrades_output(self):
        backend = fake_jakarta()
        spec = bernstein_vazirani(4)
        transpiled = transpile(spec.circuit, backend.coupling, 3)
        simulator = DensityMatrixSimulator(backend.noise_model)
        result = simulator.run(transpiled.circuit)
        p_correct = result.probability_of(spec.correct_states[0])
        assert 0.7 < p_correct < 1.0  # noisy but still dominant

    def test_mismatched_calibration_rejected(self):
        from repro.machines.fake import FakeBackend
        from repro.transpiler import linear_topology

        cal = fake_jakarta().calibration
        with pytest.raises(ValueError, match="does not match"):
            FakeBackend("bad", linear_topology(3), cal)

    def test_noise_model_from_calibration_all_pairs(self):
        cal = fake_jakarta().calibration
        model = noise_model_from_calibration(cal)  # no coupling: all pairs
        assert model.channel_for("cx", (0, 6)) is not None


class TestPhysicalMachineEmulator:
    def test_runs_and_samples(self):
        emulator = PhysicalMachineEmulator(fake_jakarta(), seed=42)
        qc = QuantumCircuit(2, 2).h(0).cx(0, 1).measure_all()
        result = emulator.run(qc, shots=512)
        assert result.shots == 512
        assert abs(sum(result.get_probabilities().values()) - 1) < 1e-9

    def test_runs_differ_between_invocations(self):
        """Hardware noise is not static: repeated runs drift."""
        emulator = PhysicalMachineEmulator(fake_jakarta(), seed=7)
        qc = QuantumCircuit(2, 2).h(0).cx(0, 1).measure_all()
        a = emulator.run(qc, shots=1024).get_probabilities()
        b = emulator.run(qc, shots=1024).get_probabilities()
        assert a != b

    def test_stays_close_to_noise_model_simulation(self):
        """The Fig. 11 property: emulator tracks the static-noise simulation."""
        backend = fake_jakarta()
        emulator = PhysicalMachineEmulator(backend, seed=11)
        spec = bernstein_vazirani(4)
        transpiled = transpile(spec.circuit, backend.coupling, 3)
        simulator = DensityMatrixSimulator(backend.noise_model)
        exact = simulator.run(transpiled.circuit).get_probabilities()
        sampled = emulator.run(transpiled.circuit, shots=4096).get_probabilities()
        correct = spec.correct_states[0]
        assert abs(exact[correct] - sampled.get(correct, 0.0)) < 0.08

    def test_seeded_run_reproducible(self):
        emulator = PhysicalMachineEmulator(fake_jakarta())
        qc = QuantumCircuit(1, 1).h(0).measure(0, 0)
        a = emulator.run(qc, shots=100, seed=3).get_probabilities()
        b = emulator.run(qc, shots=100, seed=3).get_probabilities()
        assert a == b
