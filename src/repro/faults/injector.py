"""QuFI — the quantum fault injector (paper Sec. IV).

The injector clones a circuit and splices a U(theta, phi, 0) gate right
after a chosen instruction on a chosen qubit, then executes the faulty
circuit on any :class:`~repro.simulators.backend.Backend` and scores the
output with QVF. Campaigns sweep the fault grid over every injection point;
double-fault campaigns add a second, weaker U gate on a physically
neighbouring qubit.

Campaign sweeps are delegated to :mod:`repro.faults.executor`: the
in-process engine (:class:`~repro.faults.executor.SerialExecutor`, also
selectable as :class:`~repro.faults.executor.BatchedExecutor`) simulates
each shared prefix once and evaluates all fault branches of an injection
point as one stacked array on the exact simulators — bit-identical to the
naive per-injection loop, which every other backend runs — and
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

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..algorithms.spec import AlgorithmSpec
from ..quantum.circuit import QuantumCircuit
from ..simulators.backend import Backend
from .campaign import CampaignResult, InjectionRecord, RecordTable
from .executor import (
    BaseExecutor,
    CampaignPlan,
    InjectionTask,
    SerialExecutor,
    build_double_faulty_circuit,
    build_faulty_circuit,
    score_result,
)
from .fault_model import PhaseShiftFault, fault_grid
from .injection_points import InjectionPoint, enumerate_injection_points

__all__ = ["QuFI"]

ProgressCallback = Callable[[int, int], None]


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
    # Campaigns
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(
        target: Union[AlgorithmSpec, QuantumCircuit],
        correct_states: Optional[Sequence[str]],
    ) -> Tuple[QuantumCircuit, Tuple[str, ...], str]:
        if isinstance(target, AlgorithmSpec):
            return target.circuit, tuple(target.correct_states), target.name
        if correct_states is None:
            raise ValueError(
                "correct_states is required when passing a bare circuit"
            )
        return target, tuple(correct_states), target.name

    def _execute_plan(
        self,
        executor: BaseExecutor,
        plan: CampaignPlan,
        progress: Optional[ProgressCallback],
    ) -> RecordTable:
        """Run ``plan`` on the chosen executor, forwarding progress.

        The executor hands back (and streams) columnar record blocks;
        progress only needs their sizes, so no record object is
        materialised on the way through.
        """
        if progress is None:
            return executor.run(self.backend, plan, rng=self._rng)
        done = 0

        def on_batch(batch: RecordTable) -> None:
            nonlocal done
            for _ in range(len(batch)):
                done += 1
                progress(done, plan.total)

        return executor.run(
            self.backend, plan, on_batch=on_batch, rng=self._rng
        )

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
        circuit, states, name = self._resolve(target, correct_states)
        executor = executor if executor is not None else self.executor
        faults = list(faults) if faults is not None else fault_grid()
        points = (
            list(points)
            if points is not None
            else enumerate_injection_points(circuit)
        )
        fault_free = self.fault_free_qvf(circuit, states)
        tasks = tuple(
            InjectionTask(index=index, point=point, fault=fault)
            for index, (point, fault) in enumerate(
                itertools.product(points, faults)
            )
        )
        plan = CampaignPlan(
            circuit=circuit,
            correct_states=states,
            tasks=tasks,
            shots=self.shots,
            seed=self.seed,
        )
        records = self._execute_plan(executor, plan, progress)
        return CampaignResult(
            circuit_name=name,
            correct_states=states,
            records=records,
            fault_free_qvf=fault_free,
            backend_name=getattr(self.backend, "name", "backend"),
            metadata={
                "mode": "single",
                "num_faults": len(faults),
                "num_points": len(points),
                "shots": self.shots,
                "executor": executor.name,
            },
        )

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
        injection position: once ``b`` has been measured, a phase shift
        on it cannot influence the outcome (and the splice would be
        invalid). Benchmark circuits measure terminally, so this changes
        nothing for logical-circuit campaigns — but transpiled circuits
        interleave measurements (single-qubit fusion defers gates past
        other wires' measures), where the first-fault site can postdate
        the neighbour's measurement.
        """
        circuit, states, name = self._resolve(target, correct_states)
        executor = executor if executor is not None else self.executor
        if not couples:
            raise ValueError("at least one neighbour couple is required")
        faults = list(faults) if faults is not None else fault_grid()
        second_pool = (
            list(second_faults) if second_faults is not None else faults
        )
        fault_free = self.fault_free_qvf(circuit, states)

        combos: List[Tuple[PhaseShiftFault, PhaseShiftFault]] = []
        for first in faults:
            for second in second_pool:
                if (
                    second.theta <= first.theta + 1e-9
                    and second.phi <= first.phi + 1e-9
                ):
                    combos.append((first, second))

        first_measure: Dict[int, int] = {}
        for position, inst in enumerate(circuit):
            if inst.name == "measure":
                first_measure.setdefault(inst.qubits[0], position)

        tasks: List[InjectionTask] = []
        for qubit_a, qubit_b in couples:
            base_points = (
                list(points)
                if points is not None
                else enumerate_injection_points(circuit, qubits=[qubit_a])
            )
            measured_at = first_measure.get(qubit_b)
            for point in base_points:
                if point.qubit != qubit_a:
                    continue
                if measured_at is not None and point.position >= measured_at:
                    # The neighbour is already measured out here: no
                    # quantum state left for the second fault to corrupt.
                    continue
                for first, second in combos:
                    tasks.append(
                        InjectionTask(
                            index=len(tasks),
                            point=point,
                            fault=first,
                            second_fault=second,
                            second_qubit=qubit_b,
                        )
                    )

        plan = CampaignPlan(
            circuit=circuit,
            correct_states=states,
            tasks=tuple(tasks),
            shots=self.shots,
            seed=self.seed,
        )
        records = self._execute_plan(executor, plan, progress)

        return CampaignResult(
            circuit_name=name,
            correct_states=states,
            records=records,
            fault_free_qvf=fault_free,
            backend_name=getattr(self.backend, "name", "backend"),
            metadata={
                "mode": "double",
                "couples": list(couples),
                "num_faults": len(faults),
                "shots": self.shots,
                "executor": executor.name,
            },
        )

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
        The first two slots map onto the double-fault machinery — and its
        record schema — so a two-qubit cluster produces records
        indistinguishable from :meth:`run_double_campaign` rows with the
        same fault pair. Remaining slots ride along as
        :attr:`~repro.faults.executor.InjectionTask.extra_faults`: they
        shape the physics of every execution but are not recorded as
        columns.

        Point enumeration and measured-out pruning mirror
        :meth:`run_double_campaign`: points sweep the strike centre's
        gates, a measured-out neighbour drops the site entirely, and
        measured-out outer slots are dropped per point (no quantum state
        left to corrupt).
        """
        circuit, states, name = self._resolve(target, correct_states)
        executor = executor if executor is not None else self.executor
        strikes = [(tuple(cluster), list(patterns)) for cluster, patterns in strikes]
        if not strikes:
            raise ValueError("at least one strike cluster is required")
        for cluster, patterns in strikes:
            if len(cluster) < 2:
                raise ValueError(
                    "strike clusters need at least two qubits (the centre "
                    "and its pinned neighbour)"
                )
            for pattern in patterns:
                if len(pattern) != len(cluster):
                    raise ValueError(
                        "each strike pattern must carry exactly one fault "
                        "per cluster slot"
                    )
        fault_free = self.fault_free_qvf(circuit, states)

        first_measure: Dict[int, int] = {}
        for position, inst in enumerate(circuit):
            if inst.name == "measure":
                first_measure.setdefault(inst.qubits[0], position)

        def live(qubit: int, position: int) -> bool:
            measured_at = first_measure.get(qubit)
            return measured_at is None or position < measured_at

        tasks: List[InjectionTask] = []
        couples: List[Tuple[int, int]] = []
        for cluster, patterns in strikes:
            qubit_a, qubit_b = cluster[0], cluster[1]
            couples.append((qubit_a, qubit_b))
            base_points = (
                list(points)
                if points is not None
                else enumerate_injection_points(circuit, qubits=[qubit_a])
            )
            for point in base_points:
                if point.qubit != qubit_a:
                    continue
                if not live(qubit_b, point.position):
                    continue
                for pattern in patterns:
                    extras = tuple(
                        (qubit, fault)
                        for qubit, fault in zip(cluster[2:], pattern[2:])
                        if live(qubit, point.position)
                    )
                    tasks.append(
                        InjectionTask(
                            index=len(tasks),
                            point=point,
                            fault=pattern[0],
                            second_fault=pattern[1],
                            second_qubit=qubit_b,
                            extra_faults=extras,
                        )
                    )

        plan = CampaignPlan(
            circuit=circuit,
            correct_states=states,
            tasks=tuple(tasks),
            shots=self.shots,
            seed=self.seed,
        )
        records = self._execute_plan(executor, plan, progress)
        return CampaignResult(
            circuit_name=name,
            correct_states=states,
            records=records,
            fault_free_qvf=fault_free,
            backend_name=getattr(self.backend, "name", "backend"),
            metadata={
                "mode": "double",
                "couples": couples,
                "num_faults": len(strikes[0][1]),
                "cluster_size": max(len(cluster) for cluster, _ in strikes),
                "shots": self.shots,
                "executor": executor.name,
            },
        )

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
