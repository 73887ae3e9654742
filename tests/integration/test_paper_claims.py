"""End-to-end reproduction checks of the paper's qualitative claims.

These use coarse fault grids to stay fast; the benchmarks regenerate the
full-resolution artifacts. Each test names the paper statement it checks.
"""

import math

import pytest

from repro.algorithms import bernstein_vazirani, deutsch_jozsa, qft
from repro.analysis import compare_single_double, heatmap_data, peak_concentration
from repro.faults import FaultClass, QuFI, fault_grid, find_neighbor_couples
from repro.machines import PhysicalMachineEmulator, fake_jakarta
from repro.simulators import DensityMatrixSimulator
from repro.transpiler import jakarta_topology, transpile

from ..conftest import build_light_noise_model


@pytest.fixture(scope="module")
def noisy_backend():
    return DensityMatrixSimulator(build_light_noise_model(7))


@pytest.fixture(scope="module")
def campaigns(noisy_backend):
    """Coarse single-fault campaigns for the three 4-qubit circuits."""
    qufi = QuFI(noisy_backend)
    faults = fault_grid(step_deg=45)
    return {
        "bv": qufi.run_campaign(bernstein_vazirani(4), faults=faults),
        "dj": qufi.run_campaign(deutsch_jozsa(4), faults=faults),
        "qft": qufi.run_campaign(qft(4), faults=faults),
    }


class TestFig5Claims:
    def test_fault_free_spot_not_solid_green(self, campaigns):
        """Sec. V-B: (phi=0, theta=0) has QVF > 0 due to noise."""
        for result in campaigns.values():
            assert result.qvf_at(0.0, 0.0) > 0.0
            assert result.qvf_at(0.0, 0.0) < 0.45

    def test_theta_pi_is_worst_on_theta_axis(self, campaigns):
        """'As we move to (phi=0, theta=pi) we reach the worst QVF value'."""
        bv = campaigns["bv"]
        qvf_small = bv.qvf_at(math.radians(45), 0.0)
        qvf_pi = bv.qvf_at(math.pi, 0.0)
        assert qvf_pi > qvf_small
        assert qvf_pi > 0.55  # silent error territory

    def test_theta_more_critical_than_phi(self, campaigns):
        """'A shift in theta is indeed more critical than a shift in phi':
        QVF(theta=pi, phi=0) > QVF(theta=0, phi=pi)."""
        for result in campaigns.values():
            assert result.qvf_at(math.pi, 0.0) > result.qvf_at(0.0, math.pi)

    def test_phi_shift_criticality_is_positional(self, noisy_backend):
        """A phi = pi shift acts like an extra Z gate: silent while the
        qubit is in superposition (mid-circuit), masked once the qubit has
        been rotated back to the computational basis (before measurement)."""
        from repro.faults import InjectionPoint, PhaseShiftFault

        spec = bernstein_vazirani(4)
        qufi = QuFI(noisy_backend)
        fault = PhaseShiftFault(0.0, math.pi)
        fault_free = qufi.fault_free_qvf(spec.circuit, spec.correct_states)
        mid = qufi.run_injection(
            spec.circuit,
            spec.correct_states,
            InjectionPoint(0, 0, "h"),
            fault,
        ).qvf
        final_h = max(
            i for i, inst in enumerate(spec.circuit) if inst.name == "h"
        )
        qubit = spec.circuit[final_h].qubits[0]
        late = qufi.run_injection(
            spec.circuit,
            spec.correct_states,
            InjectionPoint(final_h, qubit, "h"),
            fault,
        ).qvf
        assert mid > 0.55  # silent: the Z flips the interference
        assert late == pytest.approx(fault_free, abs=1e-6)  # masked

    def test_combined_pi_pi_tolerable_for_bv_dj_not_qft(self, campaigns):
        """'A fault of (phi=pi, theta=pi) is critical for QFT, but is
        harmless for Bernstein-Vazirani and Deutsch-Jozsa.'"""
        bv = campaigns["bv"].qvf_at(math.pi, math.pi)
        dj = campaigns["dj"].qvf_at(math.pi, math.pi)
        qft_val = campaigns["qft"].qvf_at(math.pi, math.pi)
        assert bv < 0.45
        assert dj < 0.45
        assert qft_val > bv
        assert qft_val > dj

    def test_phi_symmetry_for_bv(self, noisy_backend):
        """'The QVF, for Bernstein-Vazirani ... is almost symmetric on phi
        with respect to pi.'"""
        qufi = QuFI(noisy_backend)
        result = qufi.run_campaign(
            bernstein_vazirani(4), faults=fault_grid(step_deg=45)
        )
        data = heatmap_data(result)
        for phi_low in (math.radians(45), math.radians(90), math.radians(135)):
            phi_high = 2 * math.pi - phi_low
            for theta in (math.radians(90), math.pi):
                low = data.value_at(theta, phi_low)
                high = data.value_at(theta, phi_high)
                assert low == pytest.approx(high, abs=0.06)

    def test_some_injections_improve_qvf(self):
        """'In some rare cases (~0.9%), the injections improve the circuit
        QVF compared to the fault-free (but noisy) execution. The injected
        fault basically compensates the noise effect.' Compensation needs a
        coherent noise component (a systematic over-rotation): an injection
        of opposite phase partially undoes it. We check the effect exists
        and stays rare (< 10%) on the full 15-degree grid."""
        import numpy as np

        from repro.simulators.noise import QuantumChannel

        epsilon = 0.15  # systematic RZ over-rotation per H gate
        rz = np.array(
            [
                [np.exp(-1j * epsilon / 2), 0],
                [0, np.exp(1j * epsilon / 2)],
            ]
        )
        model = build_light_noise_model(4)
        model.add_all_qubit_error(QuantumChannel("coherent_rz", (rz,)), ["h"])
        qufi = QuFI(DensityMatrixSimulator(model))
        result = qufi.run_campaign(bernstein_vazirani(4), faults=fault_grid())
        fraction = result.improved_fraction()
        assert 0.0 < fraction < 0.10


class TestFig6Claims:
    def test_per_qubit_profiles_differ(self, campaigns):
        """'The profile of the QVF is different for the different qubits.'"""
        result = campaigns["qft"]
        means = [
            result.for_qubit(q).mean_qvf() for q in result.qubits()
        ]
        assert max(means) - min(means) > 0.01

    def test_per_qubit_slice_preserves_grid(self, campaigns):
        result = campaigns["qft"].for_qubit(0)
        _, _, grid = result.heatmap()
        assert grid.shape[0] >= 4 and grid.shape[1] >= 4


class TestFig7Claims:
    @pytest.mark.parametrize("builder", [bernstein_vazirani, deutsch_jozsa])
    def test_bv_dj_scale_invariant(self, noisy_backend, builder):
        """'For Bernstein-Vazirani and Deutsch-Jozsa the increase in circuit
        width and depth does not change the QVF.'"""
        from repro.analysis import distribution_distance

        qufi = QuFI(noisy_backend)
        faults = fault_grid(step_deg=90)
        small = qufi.run_campaign(builder(4), faults=faults)
        large = qufi.run_campaign(builder(6), faults=faults)
        assert abs(small.mean_qvf() - large.mean_qvf()) < 0.06
        assert distribution_distance(small, large) < 0.35

    def test_qft_concentrates_at_half(self):
        """'For QFT, when we increase the number of qubits the QVF tends to
        the average value (increasing the peak around 0.5).'

        The effect is a *device-level* one: wider QFT transpiles to much
        deeper circuits (SWAP overhead + longer phase ladders), so the
        accumulated noise pushes faulty outputs toward indistinguishable
        distributions. We therefore run the campaign on transpiled circuits
        over the Jakarta noise model, as the paper did.
        """
        from repro.faults import enumerate_injection_points
        from repro.machines import fake_jakarta
        from repro.transpiler import transpile

        backend = fake_jakarta()
        qufi = QuFI(DensityMatrixSimulator(backend.noise_model))
        faults = fault_grid(step_deg=90)
        concentrations = {}
        for width, stride in ((4, 3), (6, 6)):
            spec = qft(width)
            transpiled = transpile(spec.circuit, backend.coupling, 3)
            points = enumerate_injection_points(transpiled.circuit)[::stride]
            campaign = qufi.run_campaign(
                transpiled.circuit,
                correct_states=spec.correct_states,
                faults=faults,
                points=points,
            )
            concentrations[width] = peak_concentration(campaign, 0.1)
        assert concentrations[6] > concentrations[4]


class TestFig8to10Claims:
    def test_double_fault_raises_mean_qvf(self, noisy_backend):
        """Fig. 10: double-fault distribution sits at higher QVF."""
        spec = bernstein_vazirani(4)
        report = find_neighbor_couples(spec, jakarta_topology())
        qufi = QuFI(noisy_backend)
        faults = fault_grid(
            step_deg=45, phi_max_deg=180, include_phi_endpoint=True
        )
        single = qufi.run_campaign(spec, faults=faults)
        double = qufi.run_double_campaign(
            spec, report.couples[:2], faults=faults
        )
        comparison = compare_single_double(single, double)
        assert comparison.double_is_worse()
        assert comparison.mean_increase > 0.02

    def test_double_fault_kills_pi_pi_tolerance(self, noisy_backend):
        """Fig. 8b: 'there is not the tolerable effect observed for the
        single fault injection in the case of theta0=pi and phi0=pi'."""
        spec = bernstein_vazirani(4)
        report = find_neighbor_couples(spec, jakarta_topology())
        qufi = QuFI(noisy_backend)
        faults = fault_grid(
            step_deg=90, phi_max_deg=180, include_phi_endpoint=True
        )
        single = qufi.run_campaign(spec, faults=faults)
        double = qufi.run_double_campaign(
            spec, report.couples[:2], faults=faults
        )
        single_pi_pi = single.qvf_at(math.pi, math.pi)
        double_pi_pi = double.qvf_at(math.pi, math.pi)
        assert double_pi_pi > single_pi_pi


class TestFig11Claims:
    def test_simulation_tracks_physical_machine(self):
        """'Absolute differences lower than 0.052' between the noise-model
        simulation and the physical machine, for the T/S/Z/Y faults."""
        from repro.analysis import compare_backends
        from repro.faults import GATE_EQUIVALENT_FAULTS

        backend = fake_jakarta()
        spec = bernstein_vazirani(4)
        transpiled = transpile(spec.circuit, backend.coupling, 3)
        emulator = PhysicalMachineEmulator(backend, drift_scale=0.05, seed=20)

        simulation = QuFI(DensityMatrixSimulator(backend.noise_model))
        machine = QuFI(emulator, shots=4096)

        from repro.faults import enumerate_injection_points

        points = enumerate_injection_points(transpiled.circuit)[:6]
        per_fault_sim = {}
        per_fault_machine = {}
        for name in ("t", "s", "z", "y"):
            fault = GATE_EQUIVALENT_FAULTS[name]
            sim_values = []
            hw_values = []
            for point in points:
                sim_values.append(
                    simulation.run_injection(
                        transpiled.circuit, spec.correct_states, point, fault
                    ).qvf
                )
                hw_values.append(
                    machine.run_injection(
                        transpiled.circuit, spec.correct_states, point, fault
                    ).qvf
                )
            per_fault_sim[name] = sum(sim_values) / len(sim_values)
            per_fault_machine[name] = sum(hw_values) / len(hw_values)

        comparison = compare_backends(
            per_fault_sim, per_fault_machine, "simulation", "jakarta"
        )
        assert comparison.within(0.08)
