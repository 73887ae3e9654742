"""The emulator runs the compacted circuit under its remapped drift.

Each run still draws the whole device's drifted calibration (the random
stream is unchanged), then builds it onto the wires the routed circuit
uses (``noise_model_from_calibration(..., wires=...)``), as every other
calibrated engine does. The reference here is the drifted whole-device
model on the uncompacted routed circuit: sampled counts must be equal,
and exact distributions within 1e-12 per key. A factory-built emulator
campaign records the same draws and QVFs as its plan run in the device
frame; only the ``qubit`` column is the wire.
"""

import numpy as np
import pytest

from repro.algorithms import bernstein_vazirani
from repro.faults import QuFI, enumerate_injection_points
from repro.faults.checkpoint import run_plan
from repro.faults.layout_map import map_transpiled
from repro.faults.plan import single_plan
from repro.machines import (
    PhysicalMachineEmulator,
    fake_casablanca,
    fake_jakarta,
    noise_model_from_calibration,
)
from repro.scenarios import (
    ScenarioSpec,
    make_algorithm,
    make_faults,
    run_scenario,
)
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


def routed_bv(backend, width):
    """BV routed onto ``backend``, in the device frame and compacted,
    with the compacted circuit's wire map."""
    result = transpile(bernstein_vazirani(width).circuit, backend.coupling, 3)
    compacted = map_transpiled(result, machine=backend.name)
    wires = compacted.layout.wire_to_physical
    assert compacted.circuit.num_qubits == len(wires) < backend.num_qubits
    return result.circuit, compacted.circuit, wires


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("width", [3, 4])
class TestCompactionAgainstTheDevice:
    def test_seeded_runs_match_full_device_model(self, machine, width):
        backend = MACHINES[machine]()
        device, compacted, wires = routed_bv(backend, width)
        emulator = PhysicalMachineEmulator(backend, seed=5, wires=wires)
        for seed in range(4):
            got = emulator.run(compacted, shots=SHOTS, seed=seed)
            want = full_device_run(emulator, device, np.random.default_rng(seed))
            assert got.probabilities == want.probabilities

    def test_unseeded_runs_match_full_device_model(self, machine, width):
        """Run k draws from child k of the emulator's seed sequence."""
        backend = MACHINES[machine]()
        device, compacted, wires = routed_bv(backend, width)
        emulator = PhysicalMachineEmulator(backend, seed=13, wires=wires)
        for child in np.random.SeedSequence(13).spawn(4):
            want = full_device_run(emulator, device, np.random.default_rng(child))
            assert emulator.run(compacted, shots=SHOTS).probabilities == (
                want.probabilities
            )

    def test_exact_distributions_agree(self, machine, width):
        """The exact distributions agree, not only the sampled counts."""
        backend = MACHINES[machine]()
        device, compacted, wires = routed_bv(backend, width)
        drifted = backend.calibration.drifted(np.random.default_rng(3), 0.08)
        full = DensityMatrixSimulator(
            noise_model_from_calibration(drifted, backend.coupling)
        ).run(device).probabilities
        remapped = DensityMatrixSimulator(
            noise_model_from_calibration(drifted, backend.coupling, wires=wires)
        ).run(compacted).probabilities
        for key in set(full) | set(remapped):
            assert abs(full.get(key, 0.0) - remapped.get(key, 0.0)) <= 1e-12


class TestFactoryCampaignAgainstTheDevice:
    def test_records_equal_the_device_frame_run(self):
        spec = ScenarioSpec(
            algorithm="bv", width=3, backend="machine-emulator",
            machine="jakarta", transpile={}, grid_step_deg=90.0, seed=2022,
        )
        compacted = run_scenario(spec)

        # The same plan over the uncompacted routed circuit, on an
        # emulator without a wire map.
        backend = fake_jakarta()
        algorithm = make_algorithm(spec)
        block = spec.transpile
        routed = map_transpiled(
            transpile(
                algorithm.circuit,
                backend.coupling,
                optimization_level=block.optimization_level,
                basis=block.basis,
                seed=block.seed,
            ),
            machine="jakarta",
            compact=False,
        )
        plan = single_plan(
            routed.circuit,
            algorithm.correct_states,
            make_faults(spec),
            enumerate_injection_points(routed.circuit, layout=routed.layout),
        )
        emulator = PhysicalMachineEmulator(
            backend, drift_scale=spec.drift_scale, seed=spec.seed
        )
        device = run_plan(QuFI(emulator, shots=spec.shots, seed=spec.seed), plan)

        got, want = compacted.table.data, device.table.data
        assert compacted.fault_free_qvf == device.fault_free_qvf
        for column in (
            "theta", "phi", "lam", "position", "qvf", "physical_qubit",
            "logical_qubit",
        ):
            assert got[column].tobytes() == want[column].tobytes(), column
        wires = compacted.metadata["transpile"]["wire_to_physical"]
        assert len(wires) < backend.num_qubits
        assert [wires[q] for q in got["qubit"]] == want["qubit"].tolist()
