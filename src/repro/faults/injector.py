"""QuFI — the quantum fault injector (paper Sec. IV).

The injector clones a circuit and splices a U(theta, phi, 0) gate right
after a chosen instruction on a chosen qubit, then executes the faulty
circuit on any :class:`~repro.simulators.backend.Backend` and scores the
output with QVF. Campaigns sweep the fault grid over every injection point;
double-fault campaigns add a second, weaker U gate on a physically
neighbouring qubit.

Each campaign method builds its plan (:mod:`repro.faults.plan`) and runs
it through :func:`~repro.faults.checkpoint.run_plan`, which hands the tasks to
:mod:`repro.faults.executor`: the in-process engine
(:class:`~repro.faults.executor.SerialExecutor`, also selectable as
:class:`~repro.faults.executor.BatchedExecutor`) simulates each shared
prefix once and evaluates all fault branches of an injection point as one
stacked array on the exact simulators — bit-identical to the naive
per-injection loop, which every other backend runs — and
:class:`~repro.faults.executor.ParallelExecutor` runs chunks of the sweep
on that engine in worker processes.

Example
-------
>>> from repro.algorithms import bernstein_vazirani
>>> from repro.simulators import DensityMatrixSimulator
>>> from repro.faults import QuFI, fault_grid
>>> spec = bernstein_vazirani(4)
>>> qufi = QuFI(DensityMatrixSimulator())
>>> result = qufi.run_campaign(spec, faults=fault_grid(step_deg=45))
>>> 0.0 <= result.mean_qvf() <= 1.0
True
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..algorithms.spec import AlgorithmSpec
from ..quantum.circuit import QuantumCircuit
from ..simulators.backend import Backend
from .campaign import CampaignResult, InjectionRecord
from .checkpoint import ProgressCallback, run_plan
from .executor import (
    BaseExecutor,
    SerialExecutor,
    build_double_faulty_circuit,
    build_faulty_circuit,
    score_result,
)
from .fault_model import PhaseShiftFault, fault_grid
from .injection_points import InjectionPoint, enumerate_injection_points
from .plan import double_patterns, paired_plan, single_plan

__all__ = ["QuFI"]


class QuFI:
    """Fault injector bound to an execution backend.

    ``shots=None`` scores the backend's exact output distribution (the limit
    of the paper's 1,024-shot sampling); an integer re-samples the
    distribution at that budget, reintroducing shot noise.

    ``executor`` selects the campaign execution strategy; the default
    in-process engine (:class:`~repro.faults.executor.SerialExecutor`)
    reproduces the naive sweep bit-for-bit while reusing prefix states
    and batching the theta-phi branch fan-out of each injection point on
    the exact simulators. Pass :class:`~repro.faults.executor.
    ParallelExecutor` to fan the sweep out over worker processes.
    """

    def __init__(
        self,
        backend: Backend,
        shots: Optional[int] = None,
        seed: Optional[int] = None,
        executor: Optional[BaseExecutor] = None,
    ) -> None:
        self.backend = backend
        self.shots = shots
        self.seed = seed
        self.executor = executor if executor is not None else SerialExecutor()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Circuit construction
    # ------------------------------------------------------------------
    @staticmethod
    def build_faulty_circuit(
        circuit: QuantumCircuit,
        point: InjectionPoint,
        fault: PhaseShiftFault,
    ) -> QuantumCircuit:
        """Clone ``circuit`` with the injector gate after ``point``."""
        return build_faulty_circuit(circuit, point, fault)

    @staticmethod
    def build_double_faulty_circuit(
        circuit: QuantumCircuit,
        point: InjectionPoint,
        fault: PhaseShiftFault,
        second_qubit: int,
        second_fault: PhaseShiftFault,
    ) -> QuantumCircuit:
        """Clone with both injector gates at the same circuit position.

        The first (stronger) fault lands on ``point.qubit``; the second on
        the physically neighbouring ``second_qubit``, modelling the same
        particle strike reaching both (Sec. IV-C).
        """
        return build_double_faulty_circuit(
            circuit, point, fault, second_qubit, second_fault
        )

    # ------------------------------------------------------------------
    # Execution and scoring
    # ------------------------------------------------------------------
    def _score(
        self, circuit: QuantumCircuit, correct_states: Sequence[str]
    ) -> float:
        result = self.backend.run(circuit, shots=self.shots)
        return score_result(result, correct_states, self.shots, self._rng)

    def fault_free_qvf(
        self,
        circuit: QuantumCircuit,
        correct_states: Sequence[str],
    ) -> float:
        """QVF of the unmodified circuit (non-zero under noise)."""
        return self._score(circuit, correct_states)

    def run_injection(
        self,
        circuit: QuantumCircuit,
        correct_states: Sequence[str],
        point: InjectionPoint,
        fault: PhaseShiftFault,
    ) -> InjectionRecord:
        """Execute one single-fault injection."""
        faulty = self.build_faulty_circuit(circuit, point, fault)
        return InjectionRecord(
            fault=fault,
            point=point,
            qvf=self._score(faulty, correct_states),
        )

    # ------------------------------------------------------------------
    # Campaigns: each builds its plan and runs it through run_plan
    # ------------------------------------------------------------------
    def run_campaign(
        self,
        target: Union[AlgorithmSpec, QuantumCircuit],
        correct_states: Optional[Sequence[str]] = None,
        faults: Optional[Sequence[PhaseShiftFault]] = None,
        points: Optional[Sequence[InjectionPoint]] = None,
        progress: Optional[ProgressCallback] = None,
        executor: Optional[BaseExecutor] = None,
    ) -> CampaignResult:
        """Single-fault sweep: every fault at every injection point.

        Defaults: the full 312-configuration grid of Sec. IV-B over every
        (gate, qubit) site of the circuit, executed by the injector's
        configured strategy (``executor`` overrides it per campaign).
        """
        plan = single_plan(
            target, correct_states, faults, points, self.shots, self.seed
        )
        return run_plan(self, plan, executor=executor, progress=progress)

    def run_double_campaign(
        self,
        target: Union[AlgorithmSpec, QuantumCircuit],
        couples: Sequence[Tuple[int, int]],
        correct_states: Optional[Sequence[str]] = None,
        faults: Optional[Sequence[PhaseShiftFault]] = None,
        second_faults: Optional[Sequence[PhaseShiftFault]] = None,
        points: Optional[Sequence[InjectionPoint]] = None,
        progress: Optional[ProgressCallback] = None,
        executor: Optional[BaseExecutor] = None,
    ) -> CampaignResult:
        """Double-fault sweep over physically neighbouring qubit couples.

        For each couple (a, b), the first fault lands on ``a`` and the
        second on ``b``, constrained to lower magnitude: ``theta1 <=
        theta0`` and ``phi1 <= phi0`` — the farther qubit sees less charge
        (Sec. III-C / IV-C). ``second_faults`` defaults to the same grid as
        ``faults``, filtered by the constraint per first fault.

        The second fault only targets qubits still *live* at the
        injection position (see :func:`~repro.faults.plan.pair_sites`):
        once ``b`` has been measured, a phase shift on it cannot
        influence the outcome.
        """
        if not couples:
            raise ValueError("at least one neighbour couple is required")
        faults = list(faults) if faults is not None else fault_grid()
        patterns = double_patterns(faults, second_faults)
        plan = paired_plan(
            target,
            [(couple, patterns) for couple in couples],
            correct_states,
            points,
            self.shots,
            self.seed,
            shape={"num_faults": len(faults)},
        )
        return run_plan(self, plan, executor=executor, progress=progress)

    def run_correlated_campaign(
        self,
        target: Union[AlgorithmSpec, QuantumCircuit],
        strikes: Sequence[
            Tuple[Sequence[int], Sequence[Tuple[PhaseShiftFault, ...]]]
        ],
        correct_states: Optional[Sequence[str]] = None,
        points: Optional[Sequence[InjectionPoint]] = None,
        progress: Optional[ProgressCallback] = None,
        executor: Optional[BaseExecutor] = None,
    ) -> CampaignResult:
        """Correlated k-qubit strike sweep over adjacency clusters.

        ``strikes`` is a sequence of ``(cluster, patterns)`` entries: the
        cluster lists the campaign-circuit qubits one strike geometry
        reaches (the strike centre first, its pinned neighbour second,
        farther qubits after), and each pattern supplies one
        physics-sampled fault per cluster slot, magnitude-ordered by hop
        distance (:func:`repro.faults.physics.sample_strike_patterns`).
        The first two slots map onto the double-fault record schema, so
        a two-qubit cluster produces records indistinguishable from
        :meth:`run_double_campaign` rows with the same fault pair.
        Remaining slots ride along as
        :attr:`~repro.faults.executor.InjectionTask.extra_faults`: they
        shape the physics of every execution but are not recorded as
        columns. Measured-out outer slots are dropped per point.
        """
        strikes = [(tuple(cluster), list(pats)) for cluster, pats in strikes]
        if not strikes:
            raise ValueError("at least one strike cluster is required")
        if any(len(cluster) < 2 for cluster, _ in strikes):
            raise ValueError(
                "strike clusters need at least two qubits (the centre "
                "and its pinned neighbour)"
            )
        if any(len(p) != len(c) for c, pats in strikes for p in pats):
            raise ValueError(
                "each strike pattern must carry exactly one fault per "
                "cluster slot"
            )
        plan = paired_plan(
            target,
            strikes,
            correct_states,
            points,
            self.shots,
            self.seed,
            shape={
                "num_faults": len(strikes[0][1]),
                "cluster_size": max(len(cluster) for cluster, _ in strikes),
            },
        )
        return run_plan(self, plan, executor=executor, progress=progress)

    def estimate_campaign_size(
        self,
        target: Union[AlgorithmSpec, QuantumCircuit],
        faults: Optional[Sequence[PhaseShiftFault]] = None,
        shots_per_injection: int = 1024,
    ) -> Dict[str, int]:
        """Bookkeeping of a campaign's cost in paper units.

        The paper counts each of the 1,024 shots as one injection (its
        285M figure); this reports both conventions.
        """
        circuit = (
            target.circuit if isinstance(target, AlgorithmSpec) else target
        )
        faults = list(faults) if faults is not None else fault_grid()
        points = enumerate_injection_points(circuit)
        executions = len(faults) * len(points)
        return {
            "injection_points": len(points),
            "fault_configurations": len(faults),
            "circuit_executions": executions,
            "paper_equivalent_injections": executions * shots_per_injection,
        }
