"""Every simulator's ``run`` against the naive oracle.

``run`` is the simulators' one distribution path on one row: readout
confusion folds into the final qubit-basis distribution, which then
maps onto the classical register, exactly as the batched engine does
for ``B`` rows. ``tests/oracle.py`` evolves dense states and does its
own readout and marginalisation, so each case checks an evolution and
the shared post-processing together.
"""

import pytest

from repro.algorithms import ALGORITHMS
from repro.quantum import QuantumCircuit
from repro.scenarios import ScenarioSpec
from repro.scenarios.factory import (
    heavy_noise_model,
    light_noise_model,
    make_backend,
    make_transpiled,
)
from repro.simulators import (
    DensityMatrixSimulator,
    NoiseModel,
    ReadoutError,
    StatevectorSimulator,
    TrajectorySimulator,
    amplitude_damping_channel,
    depolarizing_channel,
)
from tests.oracle import oracle_distribution

WIDTH = 3


def _routed(name):
    """The algorithm routed onto jakarta (compacted onto its used
    wires) and the calibration remapped onto them, as a ``machine``
    spec runs it."""
    spec = ScenarioSpec(
        algorithm=name, width=WIDTH, backend="machine", transpile={}
    )
    return make_transpiled(spec).circuit, make_backend(spec).noise_model


def _permuted_clbits():
    qc = QuantumCircuit(3, 3)
    qc.h(0).cx(0, 1).ry(0.7, 2).cx(1, 2).x(0)
    return qc.measure(0, 2).measure(1, 0).measure(2, 1)


def _unmeasured_qubit():
    qc = QuantumCircuit(3, 2)
    qc.h(0).cx(0, 1).ry(0.4, 2).cx(2, 0)
    return qc.measure(0, 1).measure(2, 0)


def _no_measurement():
    return QuantumCircuit(3).h(0).cx(0, 1).rx(1.1, 2)


def _reset():
    qc = QuantumCircuit(3, 3).h(0).cx(0, 1).reset(0)
    qc.h(0).cx(0, 2).reset(0).x(0)
    return qc.measure_all()


def _hand_noise(num_qubits):
    """Gate noise, and readout errors that differ per qubit, so a
    confusion folded onto the wrong qubit shows."""
    model = NoiseModel("hand")
    model.add_all_qubit_error(depolarizing_channel(0.05), ["h", "x", "rx"])
    model.add_all_qubit_error(amplitude_damping_channel(0.1), ["ry"])
    model.add_all_qubit_error(
        depolarizing_channel(0.08, num_qubits=2), ["cx"]
    )
    for qubit in range(num_qubits):
        model.add_readout_error(
            ReadoutError(0.01 * (qubit + 1), 0.04 * (qubit + 2)), qubit
        )
    return model


HAND = {
    "permuted-clbits": _permuted_clbits,
    "unmeasured-qubit": _unmeasured_qubit,
    "no-measurement": _no_measurement,
}
NOISE = {"none": None, "light": light_noise_model, "heavy": heavy_noise_model}


def _under(circuit, make_model):
    """``circuit`` with the model ``make_model`` sizes to it, if any."""
    model = None if make_model is None else make_model(circuit.num_qubits)
    return circuit, model


def noiseless_cases():
    """``(circuit)`` builders every simulator runs without noise."""
    cases = {name: (lambda name=name: ALGORITHMS[name](WIDTH).circuit)
             for name in sorted(ALGORITHMS)}
    cases.update(
        {f"{name}-routed": (lambda name=name: _routed(name)[0])
         for name in sorted(ALGORITHMS)}
    )
    cases.update(HAND)
    return cases


def noisy_cases():
    """``(circuit, noise model)`` builders the density matrix runs."""
    cases = {}
    for name in sorted(ALGORITHMS):
        for level, make in NOISE.items():
            cases[f"{name}-{level}"] = (
                lambda name=name, make=make: _under(
                    ALGORITHMS[name](WIDTH).circuit, make
                )
            )
        cases[f"{name}-jakarta-routed"] = lambda name=name: _routed(name)
    for label, build in {**HAND, "reset": _reset}.items():
        cases[label] = lambda build=build: (build(), None)
        cases[f"{label}-noisy"] = lambda build=build: _under(
            build(), _hand_noise
        )
    return cases


def assert_matches_oracle(result, circuit, noise_model, density):
    """Every reported key is the oracle's, every oracle entry above
    1e-12 is reported, and the values agree within 1e-12."""
    expected = oracle_distribution(circuit, noise_model, density=density)
    reported = result.probabilities
    assert set(reported) <= set(expected)
    assert {key for key, p in expected.items() if p > 1e-12} <= set(reported)
    for key, probability in reported.items():
        assert abs(probability - expected[key]) <= 1e-12, key


NOISY = noisy_cases()
NOISELESS = noiseless_cases()


@pytest.mark.parametrize("case", sorted(NOISY))
def test_density_matrix_run(case):
    circuit, noise_model = NOISY[case]()
    result = DensityMatrixSimulator(noise_model).run(circuit)
    assert_matches_oracle(result, circuit, noise_model, density=True)


@pytest.mark.parametrize("case", sorted(NOISELESS))
def test_statevector_run(case):
    circuit = NOISELESS[case]()
    result = StatevectorSimulator().run(circuit)
    assert_matches_oracle(result, circuit, None, density=False)


@pytest.mark.parametrize("case", sorted(NOISELESS))
def test_noiseless_trajectory_run(case):
    circuit = NOISELESS[case]()
    result = TrajectorySimulator(trajectories=3, seed=5).run(circuit)
    assert_matches_oracle(result, circuit, None, density=False)
