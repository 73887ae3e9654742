"""Full-pipeline integration: the complete user workflow end to end.

build -> transpile -> schedule+idle-noise -> inject -> mitigate readout ->
report -> serialize -> resume. Exercises the module seams the unit suites
touch only in isolation.
"""

import math

import pytest

from repro.algorithms import bernstein_vazirani
from repro.analysis import campaign_report, mitigate_readout, save_heatmap_ppm
from repro.faults import (
    CampaignResult,
    CheckpointedRunner,
    QuFI,
    fault_grid,
    find_neighbor_couples,
    qvf_from_probabilities,
)
from repro.machines import apply_idle_noise, fake_jakarta
from repro.quantum import circuit_from_qasm, circuit_to_qasm
from repro.simulators import DensityMatrixSimulator, NoiseModel
from repro.transpiler import transpile


@pytest.fixture(scope="module")
def jakarta():
    return fake_jakarta()


class TestFullPipeline:
    def test_transpile_inject_report_roundtrip(self, jakarta, tmp_path):
        spec = bernstein_vazirani(4)
        transpiled = transpile(spec.circuit, jakarta.coupling, 3)

        # Inject over the device noise model, on the transpiled circuit.
        qufi = QuFI(DensityMatrixSimulator(jakarta.noise_model))
        campaign = qufi.run_campaign(
            transpiled.circuit,
            correct_states=spec.correct_states,
            faults=fault_grid(step_deg=90),
        )
        assert campaign.num_injections > 0
        assert 0 < campaign.fault_free_qvf < 0.45

        # Report + figure + JSON artifacts.
        report = campaign_report(campaign)
        assert spec.correct_states[0] in report
        image = tmp_path / "campaign.ppm"
        save_heatmap_ppm(campaign, str(image))
        assert image.read_bytes().startswith(b"P6")
        dump = tmp_path / "campaign.json"
        campaign.to_json(str(dump))
        loaded = CampaignResult.from_json(str(dump))
        assert loaded.mean_qvf() == pytest.approx(campaign.mean_qvf())

    def test_faulty_circuit_survives_qasm_interchange(self, jakarta):
        """Inject, export QASM, re-import, re-run: same distribution."""
        from repro.faults import InjectionPoint, PhaseShiftFault

        spec = bernstein_vazirani(4)
        faulty = QuFI.build_faulty_circuit(
            spec.circuit,
            InjectionPoint(0, 0, "h"),
            PhaseShiftFault(math.pi / 4, math.pi / 3),
        )
        recovered = circuit_from_qasm(circuit_to_qasm(faulty))
        backend = DensityMatrixSimulator()
        original = backend.run(faulty).get_probabilities()
        roundtrip = backend.run(recovered).get_probabilities()
        for key in set(original) | set(roundtrip):
            assert original.get(key, 0) == pytest.approx(
                roundtrip.get(key, 0), abs=1e-9
            )

    def test_idle_noise_composes_with_injection(self, jakarta):
        """Idle instrumentation + fault injection on the same circuit."""
        spec = bernstein_vazirani(4)
        model = NoiseModel("pipeline")
        instrumented, schedule = apply_idle_noise(
            spec.circuit, jakarta.calibration, model
        )
        qufi = QuFI(DensityMatrixSimulator(model))
        fault_free = qufi.fault_free_qvf(instrumented, spec.correct_states)
        campaign = qufi.run_campaign(
            instrumented,
            correct_states=spec.correct_states,
            faults=fault_grid(step_deg=90),
        )
        assert campaign.fault_free_qvf == pytest.approx(fault_free)
        assert campaign.mean_qvf() > fault_free

    def test_mitigation_sharpens_campaign_scores(self, jakarta):
        """Readout mitigation lowers the fault-free noise floor measured
        through the real backend calibration."""
        spec = bernstein_vazirani(4)
        transpiled = transpile(spec.circuit, jakarta.coupling, 3)
        simulator = DensityMatrixSimulator(jakarta.noise_model)
        raw = simulator.run(transpiled.circuit).get_probabilities()
        raw_qvf = qvf_from_probabilities(raw, spec.correct_states)

        errors = []
        for clbit in range(transpiled.circuit.num_clbits):
            # clbit i reads logical qubit i; find its physical home.
            physical = None
            for inst in transpiled.circuit:
                if inst.name == "measure" and inst.clbits == (clbit,):
                    physical = inst.qubits[0]
            assert physical is not None
            qcal = jakarta.calibration.qubits[physical]
            from repro.simulators import ReadoutError

            errors.append(ReadoutError(qcal.readout_p01, qcal.readout_p10))
        mitigated = mitigate_readout(raw, errors)
        mitigated_qvf = qvf_from_probabilities(mitigated, spec.correct_states)
        assert mitigated_qvf < raw_qvf

    def test_checkpointed_double_study(self, jakarta, tmp_path):
        """Neighbour discovery + checkpointed campaign in one flow."""
        spec = bernstein_vazirani(4)
        report = find_neighbor_couples(spec, jakarta.coupling)
        assert report.couples
        qufi = QuFI(DensityMatrixSimulator())
        runner = CheckpointedRunner(
            qufi, str(tmp_path / "study.json"), save_every=10
        )
        result = runner.run(spec, faults=fault_grid(step_deg=90))
        resumed = runner.run(spec, faults=fault_grid(step_deg=90))
        assert resumed.num_injections == result.num_injections
