"""Extensions beyond the paper's campaigns.

Two effects the paper describes but leaves out of its evaluation:

* **Accumulative charge (TID)** — Sec. III-B: gamma/beta/X-ray exposure
  "constantly deposits a little amount of charge that accumulates over
  time"; the paper studies transient faults only and leaves TID "as a
  future work". :func:`apply_tid_drift` implements the natural model: a
  phase drift that grows linearly with elapsed circuit time, spliced in
  after every gate.

* **Qubit collapse** — Sec. III-A: "if, and only if, the deposited charge
  is sufficiently high the qubit can collapse"; the paper excludes
  collapses because "the quantum circuit ceases to exist". With a
  density-matrix backend we *can* follow the computation through a
  collapse (the qubit is projected/reset, the rest of the register keeps
  evolving), so :meth:`collapse injection <run_collapse_campaign>` measures
  how destructive that limit case actually is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..algorithms.spec import AlgorithmSpec
from ..quantum.circuit import QuantumCircuit
from ..quantum.gates import FaultUGate, Reset
from .campaign import CampaignResult, InjectionRecord
from .fault_model import PhaseShiftFault
from .injection_points import InjectionPoint, enumerate_injection_points
from .injector import QuFI
from .plan import resolve_target

__all__ = [
    "TIDModel",
    "apply_tid_drift",
    "tid_dose_sweep",
    "run_collapse_campaign",
]

# Representative gate durations (seconds); measurements excluded.
_DEFAULT_DURATIONS: Dict[str, float] = {
    "cx": 300e-9,
    "cz": 300e-9,
    "cp": 300e-9,
    "swap": 900e-9,  # three CX on hardware
}
_DEFAULT_1Q_DURATION = 35e-9


@dataclass(frozen=True)
class TIDModel:
    """Accumulative-charge drift parameters.

    ``phi_rate`` and ``theta_rate`` are phase drift per second of circuit
    time (rad/s). Real TID rates are tiny per-circuit; the defaults are
    scaled so that dose effects are visible at circuit depths of tens of
    gates, playing the role of an accelerated-aging test.
    """

    phi_rate: float = 1.0e5
    theta_rate: float = 2.0e4
    gate_durations: Optional[Dict[str, float]] = None

    def duration_of(self, gate_name: str, num_qubits: int) -> float:
        table = self.gate_durations or _DEFAULT_DURATIONS
        if gate_name in table:
            return table[gate_name]
        if num_qubits > 1:
            return _DEFAULT_DURATIONS["cx"]
        return _DEFAULT_1Q_DURATION

    def drift_at(self, elapsed_seconds: float) -> PhaseShiftFault:
        """The accumulated phase shift after ``elapsed_seconds``."""
        theta = min(math.pi, self.theta_rate * elapsed_seconds)
        phi = (self.phi_rate * elapsed_seconds) % (2 * math.pi)
        return PhaseShiftFault(theta, phi)


def apply_tid_drift(
    circuit: QuantumCircuit, model: TIDModel
) -> QuantumCircuit:
    """Return ``circuit`` with accumulated-dose drift applied.

    After each unitary gate, every qubit it touches receives the *increment*
    of phase drift accumulated during that gate — so by the end of the
    circuit each qubit has integrated the full dose over the time it was
    active, the discrete analogue of the constant charge-deposition the
    paper describes for gamma/beta/X-ray exposure.
    """
    out = QuantumCircuit(
        circuit.num_qubits, circuit.num_clbits, f"{circuit.name}~tid"
    )
    elapsed = 0.0
    for inst in circuit:
        out.append(inst.gate, inst.qubits, inst.clbits)
        if not inst.is_unitary():
            continue
        duration = model.duration_of(inst.name, len(inst.qubits))
        before = model.drift_at(elapsed)
        after = model.drift_at(elapsed + duration)
        delta_theta = after.theta - before.theta
        delta_phi = (after.phi - before.phi) % (2 * math.pi)
        elapsed += duration
        if delta_theta < 1e-15 and delta_phi < 1e-15:
            continue
        for qubit in inst.qubits:
            out.append(FaultUGate(delta_theta, delta_phi, 0.0), [qubit])
    return out


def tid_dose_sweep(
    target: Union[AlgorithmSpec, QuantumCircuit],
    qufi: QuFI,
    dose_scales: Sequence[float],
    correct_states: Optional[Sequence[str]] = None,
    base_model: Optional[TIDModel] = None,
) -> Dict[float, float]:
    """QVF as a function of accumulated dose (drift-rate multiplier).

    Returns ``{scale: qvf}``; a monotone increase demonstrates the paper's
    qualitative expectation that accumulated charge eventually corrupts the
    output, while small doses stay masked.
    """
    circuit, states, _ = resolve_target(target, correct_states)
    base = base_model or TIDModel()
    out = {}
    for scale in dose_scales:
        model = TIDModel(
            phi_rate=base.phi_rate * scale,
            theta_rate=base.theta_rate * scale,
            gate_durations=base.gate_durations,
        )
        dosed = apply_tid_drift(circuit, model)
        out[float(scale)] = qufi.fault_free_qvf(dosed, states)
    return out


def run_collapse_campaign(
    target: Union[AlgorithmSpec, QuantumCircuit],
    qufi: QuFI,
    correct_states: Optional[Sequence[str]] = None,
    points: Optional[Sequence[InjectionPoint]] = None,
) -> CampaignResult:
    """Inject a qubit collapse (projective reset to |0>) at each point.

    The backend must support reset (the density-matrix engine does). The
    result reuses the campaign container with a sentinel fault of
    ``theta = pi, phi = 0`` recorded for bookkeeping.
    """
    circuit, states, name = resolve_target(target, correct_states)
    points = (
        list(points)
        if points is not None
        else enumerate_injection_points(circuit)
    )
    fault_free = qufi.fault_free_qvf(circuit, states)
    sentinel = PhaseShiftFault(math.pi, 0.0)
    records: List[InjectionRecord] = []
    for point in points:
        collapsed = circuit.copy(name=f"{circuit.name}~collapse")
        collapsed.insert(point.position + 1, Reset(), [point.qubit])
        qvf = qufi._score(collapsed, states)  # noqa: SLF001 - same package
        records.append(InjectionRecord(sentinel, point, qvf))
    return CampaignResult(
        circuit_name=f"{name}~collapse",
        correct_states=states,
        records=records,
        fault_free_qvf=fault_free,
        backend_name=getattr(qufi.backend, "name", "backend"),
        metadata={"mode": "collapse", "num_points": len(points)},
    )
