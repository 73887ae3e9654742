"""Fake IBM-class backends with plausible calibration tables.

Each factory returns a :class:`FakeBackend` carrying a topology and a
calibration snapshot in the ranges IBM published for the Falcon-family
machines the paper used (T1/T2 of tens to ~150 microseconds, 1q gate errors
around 3e-4, CX errors around 1e-2, readout errors of 1-4%). The noise model
built from the calibration has the same structure as Qiskit's
``NoiseModel.from_backend``: thermal relaxation for every gate duration plus
depolarizing error topping up to the calibrated gate error, and per-qubit
readout confusion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..simulators.noise import (
    NoiseModel,
    ReadoutError,
    depolarizing_channel,
    thermal_relaxation_channel,
)
from ..transpiler.topology import (
    CouplingMap,
    casablanca_topology,
    guadalupe_topology,
    jakarta_topology,
    lagos_topology,
    montreal_topology,
)
from .calibration import DeviceCalibration, GateCalibration, QubitCalibration

__all__ = [
    "FakeBackend",
    "noise_model_from_calibration",
    "fake_casablanca",
    "fake_jakarta",
    "fake_lagos",
    "fake_guadalupe",
    "fake_montreal",
]

# Gate names the noise model decorates. "u" covers the lowered basis; the
# named 1q gates cover circuits injected before lowering; "swap" covers
# router-inserted gates (executed as 3 CX on hardware, hence its own entry).
_ONE_QUBIT_GATES = ("u", "h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "p",
                    "rx", "ry", "rz", "id")
_TWO_QUBIT_GATES = ("cx", "cz", "cp", "swap")


def noise_model_from_calibration(
    calibration: DeviceCalibration,
    coupling: Optional[CouplingMap] = None,
    wires: Optional[Sequence[int]] = None,
) -> NoiseModel:
    """Build the scenario-(2) noise model from a calibration snapshot.

    ``wires`` relabels the model into a compacted frame: wire ``w`` of
    the circuit carries physical qubit ``wires[w]``'s calibration, and
    two-qubit errors attach to wire pairs whose physical qubits are
    coupled. Campaigns over transpiled-then-compacted circuits use this
    so each wire sees exactly the errors of the device qubit it occupies
    without simulating the idle remainder of the machine; channels of
    the idle qubits are never built.
    """
    if wires is None:
        wires = range(calibration.num_qubits)
    physical_to_wire = {int(phys): wire for wire, phys in enumerate(wires)}
    model = NoiseModel(name=calibration.name)

    one_q = calibration.gate_defaults.get("u", GateCalibration(3e-4, 35e-9))
    two_q = calibration.gate_defaults.get("cx", GateCalibration(1e-2, 300e-9))

    for physical, wire in physical_to_wire.items():
        qubit = calibration.qubits[physical]
        relax_1q = thermal_relaxation_channel(qubit.t1, qubit.t2, one_q.duration)
        channel_1q = relax_1q.compose(depolarizing_channel(one_q.error))
        model.add_qubit_error(channel_1q, _ONE_QUBIT_GATES, [wire])
        model.add_readout_error(
            ReadoutError(qubit.readout_p01, qubit.readout_p10), wire
        )

    pairs: List[Tuple[int, int]]
    if coupling is not None:
        pairs = [tuple(edge) for edge in coupling.edges]
    else:
        n = calibration.num_qubits
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]

    for pair in pairs:
        if pair[0] not in physical_to_wire or pair[1] not in physical_to_wire:
            continue
        cal = calibration.gate_calibration("cx", pair) or two_q
        qubit_a = calibration.qubits[pair[0]]
        qubit_b = calibration.qubits[pair[1]]
        relax_a = thermal_relaxation_channel(qubit_a.t1, qubit_a.t2, cal.duration)
        relax_b = thermal_relaxation_channel(qubit_b.t1, qubit_b.t2, cal.duration)
        channel = relax_a.tensor(relax_b).compose(
            depolarizing_channel(cal.error, num_qubits=2)
        )
        wire_pair = (physical_to_wire[pair[0]], physical_to_wire[pair[1]])
        for ordered in (wire_pair, (wire_pair[1], wire_pair[0])):
            model.add_qubit_error(channel, _TWO_QUBIT_GATES, ordered)
    return model


class FakeBackend:
    """A simulated IBM machine: its topology and calibration snapshot.

    Not a backend of its own: the scenario-(2) engine is a
    :class:`~repro.simulators.DensityMatrixSimulator` under
    :attr:`noise_model` (the factory remaps that model onto a compacted
    routed circuit's wires), and the scenario-(3) emulator drifts
    :attr:`calibration`.
    """

    def __init__(
        self,
        name: str,
        coupling: CouplingMap,
        calibration: DeviceCalibration,
    ) -> None:
        if calibration.num_qubits != coupling.num_qubits:
            raise ValueError("calibration size does not match topology")
        self.name = name
        self.coupling = coupling
        self.calibration = calibration
        self._noise_model: Optional[NoiseModel] = None

    @property
    def num_qubits(self) -> int:
        return self.coupling.num_qubits

    @property
    def noise_model(self) -> NoiseModel:
        """The device-wide calibrated model, keyed by physical qubit."""
        if self._noise_model is None:
            self._noise_model = noise_model_from_calibration(
                self.calibration, self.coupling
            )
        return self._noise_model

    def __repr__(self) -> str:
        return f"FakeBackend({self.name!r}, qubits={self.num_qubits})"


def _calibration_from_tables(
    name: str,
    t1_us: Sequence[float],
    t2_us: Sequence[float],
    readout: Sequence[Tuple[float, float]],
    cx_errors: Dict[Tuple[int, int], float],
    one_q_error: float = 3.2e-4,
) -> DeviceCalibration:
    qubits = [
        QubitCalibration(
            t1=t1 * 1e-6,
            t2=t2 * 1e-6,
            readout_p01=p01,
            readout_p10=p10,
        )
        for t1, t2, (p01, p10) in zip(t1_us, t2_us, readout)
    ]
    defaults = {
        "u": GateCalibration(one_q_error, 35e-9),
        "cx": GateCalibration(1.0e-2, 300e-9),
        "measure": GateCalibration(0.0, 700e-9),
    }
    overrides = {}
    for pair, error in cx_errors.items():
        key = tuple(sorted(pair))
        overrides[("cx", key)] = GateCalibration(error, 300e-9)
    return DeviceCalibration(
        name=name,
        qubits=qubits,
        gate_defaults=defaults,
        gate_overrides=overrides,
    )


def fake_casablanca() -> FakeBackend:
    """7-qubit Casablanca (paper Fig. 1 topology)."""
    calibration = _calibration_from_tables(
        "casablanca",
        t1_us=[112.0, 135.4, 98.7, 121.3, 88.2, 150.6, 104.9],
        t2_us=[78.3, 101.2, 115.6, 95.4, 130.1, 92.8, 67.5],
        readout=[
            (0.012, 0.028),
            (0.018, 0.035),
            (0.009, 0.022),
            (0.031, 0.044),
            (0.015, 0.030),
            (0.011, 0.026),
            (0.021, 0.039),
        ],
        cx_errors={
            (0, 1): 0.0086,
            (1, 2): 0.0123,
            (1, 3): 0.0094,
            (3, 5): 0.0145,
            (4, 5): 0.0078,
            (5, 6): 0.0112,
        },
    )
    return FakeBackend("casablanca", casablanca_topology(), calibration)


def fake_jakarta() -> FakeBackend:
    """7-qubit Jakarta — the machine the paper's Fig. 11 runs on."""
    calibration = _calibration_from_tables(
        "jakarta",
        t1_us=[129.8, 108.3, 141.2, 95.6, 118.4, 103.7, 137.5],
        t2_us=[45.6, 88.9, 102.3, 119.8, 61.2, 97.4, 83.1],
        readout=[
            (0.016, 0.032),
            (0.010, 0.024),
            (0.022, 0.041),
            (0.014, 0.029),
            (0.026, 0.048),
            (0.012, 0.027),
            (0.019, 0.036),
        ],
        cx_errors={
            (0, 1): 0.0079,
            (1, 2): 0.0108,
            (1, 3): 0.0132,
            (3, 5): 0.0091,
            (4, 5): 0.0117,
            (5, 6): 0.0085,
        },
    )
    return FakeBackend("jakarta", jakarta_topology(), calibration)


def fake_lagos() -> FakeBackend:
    """7-qubit Lagos."""
    calibration = _calibration_from_tables(
        "lagos",
        t1_us=[118.7, 142.9, 99.4, 126.1, 110.8, 133.2, 92.5],
        t2_us=[92.1, 71.8, 108.7, 84.3, 125.9, 66.4, 101.2],
        readout=[
            (0.011, 0.025),
            (0.017, 0.033),
            (0.013, 0.028),
            (0.024, 0.043),
            (0.010, 0.023),
            (0.015, 0.031),
            (0.020, 0.038),
        ],
        cx_errors={
            (0, 1): 0.0092,
            (1, 2): 0.0115,
            (1, 3): 0.0087,
            (3, 5): 0.0128,
            (4, 5): 0.0096,
            (5, 6): 0.0104,
        },
    )
    return FakeBackend("lagos", lagos_topology(), calibration)


def _ramped(values: int, low: float, high: float, seed: int) -> List[float]:
    rng = np.random.default_rng(seed)
    return list(rng.uniform(low, high, size=values))


def fake_guadalupe() -> FakeBackend:
    """16-qubit Guadalupe (heavy-hex fragment) for scaling studies."""
    topology = guadalupe_topology()
    n = topology.num_qubits
    t1 = _ramped(n, 80.0, 150.0, seed=16)
    t2 = [min(t2v, 2 * t1v) for t1v, t2v in zip(t1, _ramped(n, 50.0, 140.0, seed=17))]
    readout = [
        (p01, p10)
        for p01, p10 in zip(_ramped(n, 0.008, 0.03, 18), _ramped(n, 0.02, 0.05, 19))
    ]
    cx_errors = {
        edge: error
        for edge, error in zip(
            topology.edges, _ramped(len(topology.edges), 0.006, 0.016, 20)
        )
    }
    calibration = _calibration_from_tables(
        "guadalupe", t1, t2, readout, cx_errors
    )
    return FakeBackend("guadalupe", topology, calibration)


def fake_montreal() -> FakeBackend:
    """27-qubit Montreal (heavy-hex) for large-scale routing studies."""
    topology = montreal_topology()
    n = topology.num_qubits
    t1 = _ramped(n, 70.0, 160.0, seed=27)
    t2 = [min(t2v, 2 * t1v) for t1v, t2v in zip(t1, _ramped(n, 40.0, 150.0, seed=28))]
    readout = [
        (p01, p10)
        for p01, p10 in zip(_ramped(n, 0.008, 0.035, 29), _ramped(n, 0.02, 0.06, 30))
    ]
    cx_errors = {
        edge: error
        for edge, error in zip(
            topology.edges, _ramped(len(topology.edges), 0.006, 0.02, 31)
        )
    }
    calibration = _calibration_from_tables(
        "montreal", t1, t2, readout, cx_errors
    )
    return FakeBackend("montreal", topology, calibration)
