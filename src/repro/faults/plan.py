"""Campaign plans: every sweep enumerated once.

A campaign is a :class:`~repro.faults.executor.CampaignPlan` — circuit,
correct states, the flat task list, and the name and metadata of the
result — and there are two ways to enumerate its tasks:

* **Single sweeps** (:func:`single_plan`): every fault at every
  injection point, point-major.
* **Paired sweeps** (:func:`paired_plan`): per cluster of physically
  adjacent qubits, its live injection points times its fault patterns.
  A double-fault sweep is the paired sweep over neighbour couples whose
  patterns are the constrained fault pairs of :func:`double_patterns`;
  a correlated k-qubit strike sweeps adjacency clusters with
  physics-sampled patterns.

:func:`pair_sites` is the site walk behind the paired sweep: the
injection points each cluster can be struck at, and which of its qubits
are still live there. Planning and the scenario cost estimator both walk
it, so the count of a sweep is the length of its plan by construction.

Plans run through :func:`repro.faults.checkpoint.run_plan`.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..algorithms.spec import AlgorithmSpec
from ..quantum.circuit import QuantumCircuit
from .executor import CampaignPlan, InjectionTask
from .fault_model import PhaseShiftFault, fault_grid
from .injection_points import InjectionPoint, enumerate_injection_points

__all__ = [
    "resolve_target",
    "single_plan",
    "double_patterns",
    "pair_sites",
    "paired_plan",
]


def resolve_target(
    target: Union[AlgorithmSpec, QuantumCircuit],
    correct_states: Optional[Sequence[str]],
) -> Tuple[QuantumCircuit, Tuple[str, ...], str]:
    """``(circuit, correct states, campaign name)`` of a campaign target.

    An :class:`~repro.algorithms.spec.AlgorithmSpec` brings its own
    ground truth; a bare circuit needs ``correct_states``.
    """
    if isinstance(target, AlgorithmSpec):
        return target.circuit, tuple(target.correct_states), target.name
    if correct_states is None:
        raise ValueError(
            "correct_states is required when passing a bare circuit"
        )
    return target, tuple(correct_states), target.name


def single_plan(
    target: Union[AlgorithmSpec, QuantumCircuit],
    correct_states: Optional[Sequence[str]] = None,
    faults: Optional[Sequence[PhaseShiftFault]] = None,
    points: Optional[Sequence[InjectionPoint]] = None,
    shots: Optional[int] = None,
    seed: Optional[int] = None,
) -> CampaignPlan:
    """Every fault at every injection point, point-major.

    Defaults: the full 312-configuration grid of Sec. IV-B over every
    (gate, qubit) site of the circuit.
    """
    circuit, states, name = resolve_target(target, correct_states)
    faults = list(faults) if faults is not None else fault_grid()
    points = list(
        enumerate_injection_points(circuit) if points is None else points
    )
    tasks = tuple(
        InjectionTask(index=index, point=point, fault=fault)
        for index, (point, fault) in enumerate(
            itertools.product(points, faults)
        )
    )
    return CampaignPlan(
        circuit,
        states,
        tasks,
        shots,
        seed,
        name=name,
        metadata={
            "mode": "single",
            "num_faults": len(faults),
            "num_points": len(points),
            "shots": shots,
            "executor": None,
        },
    )


def double_patterns(
    faults: Sequence[PhaseShiftFault],
    second_faults: Optional[Sequence[PhaseShiftFault]] = None,
) -> List[Tuple[PhaseShiftFault, PhaseShiftFault]]:
    """The double-fault pairs: ``theta1 <= theta0`` and ``phi1 <= phi0``.

    The farther qubit of a couple sees less charge (Sec. III-C / IV-C),
    so the second fault never exceeds the first. ``second_faults``
    defaults to ``faults``.
    """
    second_pool = faults if second_faults is None else list(second_faults)
    return [
        (first, second)
        for first in faults
        for second in second_pool
        if second.theta <= first.theta + 1e-9
        and second.phi <= first.phi + 1e-9
    ]


def pair_sites(
    circuit: QuantumCircuit,
    clusters: Sequence[Sequence[int]],
    points: Sequence[InjectionPoint],
) -> Iterator[Tuple[int, InjectionPoint, Tuple[int, ...]]]:
    """The site walk of a paired sweep.

    Yields ``(cluster index, point, outer slots)`` for every point on a
    cluster's centre qubit (its first) at which the pinned neighbour
    (its second) is still live; ``outer slots`` are the indices of the
    cluster's further qubits still live there. A qubit is live until
    its first measurement: a phase shift on a measured-out qubit cannot
    influence the outcome, and the splice would be invalid. Benchmark
    circuits measure terminally, but transpiled circuits interleave
    measurements, so a site can postdate a neighbour's measurement.
    """
    first_measure: Dict[int, int] = {}
    for position, inst in enumerate(circuit):
        if inst.name == "measure":
            first_measure.setdefault(inst.qubits[0], position)

    def live(qubit: int, position: int) -> bool:
        measured_at = first_measure.get(qubit)
        return measured_at is None or position < measured_at

    for index, cluster in enumerate(clusters):
        for point in points:
            position = point.position
            if point.qubit != cluster[0] or not live(cluster[1], position):
                continue
            yield index, point, tuple(
                slot
                for slot in range(2, len(cluster))
                if live(cluster[slot], position)
            )


def paired_plan(
    target: Union[AlgorithmSpec, QuantumCircuit],
    strikes: Sequence[Tuple[Sequence[int], Sequence[tuple]]],
    correct_states: Optional[Sequence[str]] = None,
    points: Optional[Sequence[InjectionPoint]] = None,
    shots: Optional[int] = None,
    seed: Optional[int] = None,
    shape: Optional[Dict[str, object]] = None,
) -> CampaignPlan:
    """Per cluster, its live points times its patterns.

    ``strikes`` holds ``(cluster, patterns)`` entries; a pattern carries
    one fault per cluster slot. The first two slots are the recorded
    fault pair (``fault`` on the centre, ``second_fault`` on the
    neighbour); live outer slots ride along as
    :attr:`~repro.faults.executor.InjectionTask.extra_faults`, shaping
    the physics but not the record columns. ``points`` defaults to every
    site of the circuit; each cluster keeps those on its centre.
    ``shape`` holds the metadata entries that tell the sweep kinds apart
    (``num_faults``, ``cluster_size``).
    """
    circuit, states, name = resolve_target(target, correct_states)
    points = list(
        enumerate_injection_points(circuit) if points is None else points
    )
    clusters = [tuple(cluster) for cluster, _ in strikes]
    tasks: List[InjectionTask] = []
    for index, point, outer in pair_sites(circuit, clusters, points):
        cluster = clusters[index]
        for pattern in strikes[index][1]:
            tasks.append(
                InjectionTask(
                    index=len(tasks),
                    point=point,
                    fault=pattern[0],
                    second_fault=pattern[1],
                    second_qubit=cluster[1],
                    extra_faults=tuple(
                        (cluster[slot], pattern[slot]) for slot in outer
                    ),
                )
            )
    return CampaignPlan(
        circuit,
        states,
        tuple(tasks),
        shots,
        seed,
        name=name,
        metadata={
            "mode": "double",
            "couples": [(cluster[0], cluster[1]) for cluster in clusters],
            **(shape or {}),
            "shots": shots,
            "executor": None,
        },
    )
