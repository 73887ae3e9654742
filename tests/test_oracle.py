"""The naive oracle (``tests/oracle.py``) on cases with known answers.

The engine's contract is stated against the oracle, so the oracle is
checked on its own: its embedding against the package's dense
``expand_unitary``, and its distributions and QVFs against values
worked out by hand.
"""

import math

import numpy as np
import pytest

from repro.algorithms import bernstein_vazirani
from repro.faults import (
    CampaignPlan,
    InjectionPoint,
    InjectionTask,
    PhaseShiftFault,
)
from repro.quantum import QuantumCircuit
from repro.quantum.linalg import expand_unitary
from repro.quantum.random import random_unitary
from repro.simulators import NoiseModel, ReadoutError
from repro.simulators.noise import amplitude_damping_channel
from tests.oracle import embed, oracle_distribution, oracle_qvfs


@pytest.mark.parametrize("targets", [(0,), (2,), (0, 2), (2, 1), (1, 0, 2)])
def test_embedding_matches_expand_unitary(targets):
    matrix = random_unitary(len(targets), seed=len(targets) * 7)
    np.testing.assert_array_equal(
        embed(matrix, targets, 3), expand_unitary(matrix, targets, 3)
    )


@pytest.mark.parametrize("density", [False, True], ids=["sv", "dm"])
def test_bell_pair(density):
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.cx(0, 1)
    qc.measure_all()
    distribution = oracle_distribution(qc, density=density)
    assert distribution["00"] == pytest.approx(0.5, abs=1e-15)
    assert distribution["11"] == pytest.approx(0.5, abs=1e-15)
    assert distribution["01"] == distribution["10"] == 0.0


def test_reset_readout_and_damping():
    """X, then amplitude damping (gamma 0.3) on the X gate, a reset on
    the other qubit and a 10% readout flip of a measured 0."""
    noise = NoiseModel("hand")
    noise.add_all_qubit_error(amplitude_damping_channel(0.3), ["x"])
    noise.add_readout_error(ReadoutError(p01=0.1), 1)
    qc = QuantumCircuit(2, 2)
    qc.x(0)
    qc.x(1)
    qc.reset(1)
    qc.measure(0, 0)
    qc.measure(1, 1)
    distribution = oracle_distribution(qc, noise, density=True)
    # Qubit 0 reads 1 with probability 0.7; qubit 1 (reset) reads 1 with
    # probability 0.1. Keys list clbit 1 first.
    expected = {"00": 0.3 * 0.9, "01": 0.7 * 0.9, "10": 0.3 * 0.1,
                "11": 0.7 * 0.1}
    assert distribution == pytest.approx(expected, abs=1e-15)


def test_qvf_of_known_faults():
    """Bernstein-Vazirani is deterministic: the fault-free identity
    fault scores 0, and a theta=pi flip of the last query qubit right
    before its final Hadamard scores 1."""
    spec = bernstein_vazirani(3)
    circuit = spec.circuit
    last_h = max(
        index
        for index, inst in enumerate(circuit.instructions)
        if inst.name == "h" and inst.qubits == (0,)
    )
    point = InjectionPoint(last_h - 1, 0, circuit.instructions[last_h - 1].name)
    plan = CampaignPlan(
        circuit=circuit,
        correct_states=tuple(spec.correct_states),
        tasks=(
            InjectionTask(0, point, PhaseShiftFault(0.0, 0.0)),
            InjectionTask(1, point, PhaseShiftFault(math.pi, 0.0)),
        ),
    )
    assert oracle_qvfs(plan).tolist() == pytest.approx([0.0, 1.0], abs=1e-12)
