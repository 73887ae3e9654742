"""The emulator builds drifted channels only where its circuit runs.

Each run still draws the whole device's drifted calibration (the random
stream is unchanged), but builds channels only for the physical qubits
the circuit touches and the coupling edges between them. The reference
here is the full-device model every run used to build: results must be
bit-identical to it.
"""

import numpy as np
import pytest

from repro.algorithms import bernstein_vazirani
from repro.machines import (
    PhysicalMachineEmulator,
    fake_casablanca,
    fake_jakarta,
    noise_model_from_calibration,
)
from repro.machines.fake import noise_model_on_qubits
from repro.simulators import DensityMatrixSimulator
from repro.simulators.sampler import Result
from repro.transpiler import transpile

MACHINES = {"jakarta": fake_jakarta, "casablanca": fake_casablanca}
SHOTS = 512


def full_device_run(emulator, circuit, rng):
    """One emulator run on the drifted model of the whole device."""
    drifted = emulator.backend.calibration.drifted(rng, emulator.drift_scale)
    model = noise_model_from_calibration(drifted, emulator.backend.coupling)
    exact = DensityMatrixSimulator(model).run(circuit)
    return Result.from_counts(exact.sample_counts(SHOTS, rng), exact.num_clbits)


def transpiled_bv(backend, width):
    return transpile(bernstein_vazirani(width).circuit, backend.coupling, 3).circuit


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("width", [3, 4])
class TestSiteOnlyDrift:
    def test_seeded_runs_match_full_device_model(self, machine, width):
        backend = MACHINES[machine]()
        circuit = transpiled_bv(backend, width)
        emulator = PhysicalMachineEmulator(backend, seed=5)
        for seed in range(4):
            got = emulator.run(circuit, shots=SHOTS, seed=seed)
            want = full_device_run(emulator, circuit, np.random.default_rng(seed))
            assert got.probabilities == want.probabilities

    def test_unseeded_runs_match_full_device_model(self, machine, width):
        """Run k draws from child k of the emulator's seed sequence."""
        backend = MACHINES[machine]()
        circuit = transpiled_bv(backend, width)
        emulator = PhysicalMachineEmulator(backend, seed=13)
        children = np.random.SeedSequence(13).spawn(3)
        for child in children:
            want = full_device_run(emulator, circuit, np.random.default_rng(child))
            assert emulator.run(circuit, shots=SHOTS).probabilities == (
                want.probabilities
            )

    def test_site_model_simulates_bit_identically(self, machine, width):
        """The exact distributions agree, not only the sampled counts."""
        backend = MACHINES[machine]()
        circuit = transpiled_bv(backend, width)
        drifted = backend.calibration.drifted(np.random.default_rng(3), 0.08)
        touched = sorted({q for inst in circuit for q in inst.qubits})
        assert len(touched) < backend.num_qubits
        full = noise_model_from_calibration(drifted, backend.coupling)
        sites = noise_model_on_qubits(drifted, backend.coupling, touched)
        assert (
            DensityMatrixSimulator(sites).run(circuit).probabilities
            == DensityMatrixSimulator(full).run(circuit).probabilities
        )
