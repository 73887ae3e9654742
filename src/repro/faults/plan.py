"""Campaign plans: every sweep enumerated once, as columns.

A campaign is a :class:`CampaignPlan` — circuit, correct states, the
task list, and the name and metadata of the result. Its task list is a
:class:`TaskColumns`: one integer column per task field, built
vectorised, never one object per task.

* ``index`` — the task's rank in the campaign's canonical order;
* ``point`` — an id into the plan's table of
  :class:`~repro.faults.injection_points.InjectionPoint`\\ s;
* ``fault`` — an id into its table of distinct
  :class:`~repro.faults.fault_model.PhaseShiftFault`\\ s;
* ``second_fault`` and ``second_qubit`` — the pair's second fault id
  and qubit, ``-1`` on single rows;
* ``extra_qubit`` and ``extra_fault`` — an ``(n, m)`` block of the
  further ``(qubit, fault)`` slots of k >= 3 clusters, padded with
  ``-1`` past a row's last slot.

The campaign engine (:mod:`repro.faults.executor`) reads the columns:
an injection site is the row range where ``(position, qubit, second
qubit, extra qubits)`` stays the same, each distinct fault's matrix is
built once per table, and records are gathered from the tables. Read
as a sequence, the columns are lazy :class:`InjectionTask` row views,
built on access (the per-task loop and the naive test oracle read
them); a plan built from explicit tasks turns them into columns.

There are two ways to enumerate a plan's tasks:

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

import collections
import itertools
import struct
from dataclasses import dataclass, field, replace
from typing import (
    Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Tuple, Union,
)

import numpy as np

from ..algorithms.spec import AlgorithmSpec
from ..quantum.circuit import QuantumCircuit
from .fault_model import PhaseShiftFault, fault_grid
from .injection_points import InjectionPoint, enumerate_injection_points

__all__ = [
    "InjectionTask",
    "TaskColumns",
    "CampaignPlan",
    "resolve_target",
    "single_plan",
    "double_patterns",
    "pair_sites",
    "paired_plan",
]

#: The id and qubit columns' "no such slot" entry.
_ABSENT = -1


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InjectionTask:
    """One scheduled injection: a fault (or fault pair) at one point.

    ``index`` is the task's rank in the campaign's canonical order (point
    outer, fault inner — the legacy sweep order); executors return records
    in exactly this order regardless of strategy, and the task's random
    draws come from a generator keyed by it. Resumed campaigns keep the
    *original* ranks for their pending tasks (the sequence may have
    holes), so a resumed task draws what it would have drawn unkilled.
    Plans hold their tasks as :class:`TaskColumns`; an ``InjectionTask``
    is one row of them, built when read.
    """

    index: int
    point: InjectionPoint
    fault: PhaseShiftFault
    second_fault: Optional[PhaseShiftFault] = None
    second_qubit: Optional[int] = None
    extra_faults: Tuple[Tuple[int, PhaseShiftFault], ...] = ()
    """Further ``(qubit, fault)`` pairs spliced at the same position —
    the k>2 qubits of a spatially correlated strike cluster. They
    participate fully in the simulated physics (and therefore in the
    QVF), but the recorded columns remain the primary pair: the record
    schema is unchanged and downstream consumers keep working."""


def _fault_key(fault: PhaseShiftFault) -> bytes:
    # The angles' exact bits: faults that differ only in the sign of a
    # zero build different matrices and record different bytes.
    return struct.pack("<3d", fault.theta, fault.phi, fault.lam)


class _Interner:
    """Distinct items in first-seen order, and the id of each."""

    def __init__(self, key=lambda item: item) -> None:
        self.items: List = []
        self._ids: Dict[Hashable, int] = {}
        self._key = key

    def id(self, item) -> int:
        key = self._key(item)
        found = self._ids.get(key)
        if found is None:
            found = self._ids[key] = len(self.items)
            self.items.append(item)
        return found


def _int_column(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


class TaskColumns:
    """A plan's tasks as columns, read as a sequence of row views.

    ``index``, ``point``, ``fault``, ``second_fault`` and
    ``second_qubit`` are ``(n,)`` int64 columns; ``extra_qubit`` and
    ``extra_fault`` are an ``(n, m)`` block (see the module docstring).
    ``points`` and ``faults`` are the tables the ids index, and every
    row selection shares them and what is derived from them once (their
    record columns, each fault's matrix). ``len()`` counts the tasks;
    ``columns[k]`` is row ``k`` as an :class:`InjectionTask`, built on
    access; a slice, an index array or a boolean mask selects rows as
    new columns, keeping their ``index``.
    """

    __slots__ = (
        "index", "point", "fault", "second_fault", "second_qubit",
        "extra_qubit", "extra_fault", "points", "faults", "_derived",
    )

    def __init__(
        self,
        index,
        point,
        fault,
        points: Sequence[InjectionPoint],
        faults: Sequence[PhaseShiftFault],
        second_fault=None,
        second_qubit=None,
        extra_qubit=None,
        extra_fault=None,
        _derived: Optional[dict] = None,
    ) -> None:
        self.index = _int_column(index)
        n = len(self.index)
        self.point = _int_column(point)
        self.fault = _int_column(fault)
        self.second_fault = (
            np.full(n, _ABSENT, dtype=np.int64)
            if second_fault is None
            else _int_column(second_fault)
        )
        self.second_qubit = (
            np.full(n, _ABSENT, dtype=np.int64)
            if second_qubit is None
            else _int_column(second_qubit)
        )
        empty = np.empty((n, 0), dtype=np.int64)
        self.extra_qubit = (
            empty if extra_qubit is None else _int_column(extra_qubit)
        )
        self.extra_fault = (
            empty if extra_fault is None else _int_column(extra_fault)
        )
        self.points = tuple(points)
        self.faults = tuple(faults)
        # Shared by every row selection of these tables.
        self._derived = {} if _derived is None else _derived
        shapes = {
            column.shape[0]
            for column in (
                self.point, self.fault, self.second_fault,
                self.second_qubit, self.extra_qubit, self.extra_fault,
            )
        }
        if shapes - {n} or self.extra_qubit.shape != self.extra_fault.shape:
            raise ValueError("task columns must have one row per task")
        if np.any((self.second_fault < 0) != (self.second_qubit < 0)) or (
            np.any((self.extra_fault < 0) != (self.extra_qubit < 0))
        ):
            raise ValueError(
                "a task's fault slots and their qubits come in pairs"
            )

    @classmethod
    def from_tasks(cls, tasks: Iterable[InjectionTask]) -> "TaskColumns":
        """Columns of explicit tasks, in their order; the tables hold
        each distinct point and fault once."""
        points = _Interner()
        faults = _Interner(_fault_key)
        rows: List[Tuple[int, ...]] = []
        extras: List[List[Tuple[int, int]]] = []
        for task in tasks:
            second, qubit2 = task.second_fault, task.second_qubit
            rows.append((
                task.index,
                points.id(task.point),
                faults.id(task.fault),
                _ABSENT if second is None else faults.id(second),
                _ABSENT if qubit2 is None else qubit2,
            ))
            extras.append([
                (qubit, faults.id(fault)) for qubit, fault in task.extra_faults
            ])
        table = np.array(rows, dtype=np.int64).reshape(len(rows), 5)
        width = max(map(len, extras), default=0)
        block = np.full((len(rows), width, 2), _ABSENT, dtype=np.int64)
        for row, slots in enumerate(extras):
            if slots:
                block[row, : len(slots)] = slots
        return cls(
            table[:, 0],
            table[:, 1],
            table[:, 2],
            points.items,
            faults.items,
            second_fault=table[:, 3],
            second_qubit=table[:, 4],
            extra_qubit=block[..., 0],
            extra_fault=block[..., 1],
        )

    # ------------------------------------------------------------------
    # The sequence of row views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            row = self[key : key + 1 or None]
            if not row:
                raise IndexError(f"task {key} out of range")
            return next(iter(row))
        return TaskColumns(
            self.index[key],
            self.point[key],
            self.fault[key],
            self.points,
            self.faults,
            second_fault=self.second_fault[key],
            second_qubit=self.second_qubit[key],
            extra_qubit=self.extra_qubit[key],
            extra_fault=self.extra_fault[key],
            _derived=self._derived,
        )

    def __iter__(self) -> Iterator[InjectionTask]:
        points, faults = self.points, self.faults
        extras: Iterable = itertools.repeat(())
        if self.extra_fault.shape[1]:
            extras = (
                tuple(
                    (qubit, faults[slot])
                    for qubit, slot in zip(qubits, slots)
                    if slot >= 0
                )
                for qubits, slots in zip(
                    self.extra_qubit.tolist(), self.extra_fault.tolist()
                )
            )
        for index, point, fault, second, qubit2, extra in zip(
            self.index.tolist(),
            self.point.tolist(),
            self.fault.tolist(),
            self.second_fault.tolist(),
            self.second_qubit.tolist(),
            extras,
        ):
            pair = second >= 0
            yield InjectionTask(
                index,
                points[point],
                faults[fault],
                faults[second] if pair else None,
                qubit2 if pair else None,
                extra,
            )

    def __repr__(self) -> str:
        return (
            f"TaskColumns({len(self)} tasks, {len(self.points)} points, "
            f"{len(self.faults)} faults)"
        )

    # ------------------------------------------------------------------
    # What the engine reads
    # ------------------------------------------------------------------
    def _tables(self) -> dict:
        """The point and fault tables as columns, derived once."""
        derived = self._derived
        if "position" not in derived:
            points = self.points
            names = _Interner()
            derived.update(
                position=_int_column([p.position for p in points]),
                qubit=_int_column([p.qubit for p in points]),
                physical_qubit=_int_column([p.physical_qubit for p in points]),
                logical_qubit=_int_column([p.logical_qubit for p in points]),
                gate=_int_column([names.id(p.gate_name) for p in points]),
                gate_names=names.items,
                angles=np.array(
                    [(f.theta, f.phi, f.lam) for f in self.faults],
                    dtype=np.float64,
                ).reshape(len(self.faults), 3),
            )
        return derived

    def fault_matrices(self) -> np.ndarray:
        """Each distinct fault's injector-gate matrix, ``(len(faults),
        2, 2)``: built once per fault table by the gate itself, so a
        gathered stack holds the bits a per-task gate would."""
        derived = self._derived
        if "matrices" not in derived:
            derived["matrices"] = np.array(
                [fault.as_gate().matrix for fault in self.faults],
                dtype=complex,
            ).reshape(len(self.faults), 2, 2)
        return derived["matrices"]

    def sites(self) -> List[Tuple[int, int, Tuple[int, ...]]]:
        """The row ranges of consecutive tasks sharing one injection
        site, as ``(start, stop, key)``.

        ``key`` is ``(position, qubit, second qubit, extra qubits)``:
        the second qubit is ``-1`` on single rows, the extra qubits a
        tuple. Within a range every branch differs only in its angles,
        so its heads align slot-wise.
        """
        tables = self._tables()
        keys = np.column_stack([
            tables["position"][self.point],
            tables["qubit"][self.point],
            self.second_qubit,
            self.extra_qubit,
        ])
        if not len(keys):
            return []
        starts = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
        bounds = [0, *starts.tolist(), len(keys)]
        return [
            (start, stop, _site_key(keys[start].tolist()))
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]

    def site_sizes(self) -> Dict[Tuple[int, int], int]:
        """Single-fault tasks per ``(position, qubit)`` site."""
        tables = self._tables()
        single = (self.second_fault < 0) & np.all(self.extra_fault < 0, axis=1)
        counts = np.bincount(self.point[single], minlength=len(self.points))
        sizes: Dict[Tuple[int, int], int] = collections.Counter()
        position, qubit = tables["position"].tolist(), tables["qubit"].tolist()
        for point in np.flatnonzero(counts).tolist():
            sizes[(position[point], qubit[point])] += int(counts[point])
        return sizes

    def record_columns(self) -> Dict[str, object]:
        """The record columns of these rows, all but ``qvf``, as
        :meth:`~repro.faults.records.RecordTable.from_columns` takes
        them: angles and frames gathered from the tables, ``NaN`` and
        ``-1`` on single rows. The gate-name pool lists the rows' gate
        names in order of first appearance."""
        tables = self._tables()
        point, second = self.point, self.second_fault
        angles = tables["angles"][self.fault]
        pair = second >= 0
        second_angles = np.full((len(self), 3), np.nan)
        second_angles[pair] = tables["angles"][second[pair]]
        gates = tables["gate"][point]
        used, first = np.unique(gates, return_index=True)
        order = used[np.argsort(first)]
        local = np.empty(len(tables["gate_names"]), dtype=np.int64)
        local[order] = np.arange(len(order))
        names = tables["gate_names"]
        return dict(
            theta=angles[:, 0],
            phi=angles[:, 1],
            lam=angles[:, 2],
            position=tables["position"][point],
            qubit=tables["qubit"][point],
            gate_ids=local[gates],
            gate_names=[names[gate] for gate in order.tolist()],
            second_theta=second_angles[:, 0],
            second_phi=second_angles[:, 1],
            second_lam=second_angles[:, 2],
            second_qubit=self.second_qubit,
            physical_qubit=tables["physical_qubit"][point],
            logical_qubit=tables["logical_qubit"][point],
        )


def _site_key(key: List[int]) -> Tuple[int, ...]:
    position, qubit, second, *extra = key
    return (position, qubit, second, tuple(q for q in extra if q >= 0))


@dataclass(frozen=True)
class CampaignPlan:
    """Everything an executor needs to run a campaign's injections,
    plus the name and metadata of the result they make up.

    Plans are plain picklable data: parallel strategies ship them (in
    column slices) to worker processes.
    """

    circuit: QuantumCircuit
    correct_states: Tuple[str, ...]
    tasks: TaskColumns
    """The tasks as columns; explicit :class:`InjectionTask`\\ s given
    here are turned into columns."""
    shots: Optional[int] = None
    seed: Optional[int] = None
    """Keys every task's generator, ``(seed, task.index)``."""
    name: str = ""
    """The campaign's ``circuit_name``; executors ignore it."""
    metadata: Dict[str, object] = field(default_factory=dict)
    """The result's metadata in its stored key order; executors ignore
    it, and the run stamps its ``executor`` entry."""
    site_sizes: Optional[Mapping[Tuple[int, int], int]] = None
    """Single-fault tasks per ``(position, qubit)`` site that a run from
    an empty store executes (counted from ``tasks`` by :meth:`sized`
    when ``None``). The response basis runs a site only when this count
    reaches the backend's number of responses. The count is fixed
    before a resume drops recorded tasks or a pool cuts chunks, so every
    run of the plan takes the same path at every site."""

    def __post_init__(self) -> None:
        if not isinstance(self.tasks, TaskColumns):
            object.__setattr__(
                self, "tasks", TaskColumns.from_tasks(self.tasks)
            )

    @property
    def total(self) -> int:
        """Number of injections the plan schedules."""
        return len(self.tasks)

    def sized(self) -> "CampaignPlan":
        """This plan with :attr:`site_sizes` counted from its tasks,
        unless already set."""
        if self.site_sizes is not None:
            return self
        return replace(self, site_sizes=self.tasks.site_sizes())


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------
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
    table = _Interner(_fault_key)
    fault_ids = np.array([table.id(fault) for fault in faults], dtype=np.int64)
    tasks = TaskColumns(
        np.arange(len(points) * len(faults)),
        np.repeat(np.arange(len(points)), len(faults)),
        np.tile(fault_ids, len(points)),
        points,
        table.items,
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
    :attr:`InjectionTask.extra_faults`, shaping the physics but not the
    record columns. ``points`` defaults to every site of the circuit;
    each cluster keeps those on its centre. ``shape`` holds the metadata
    entries that tell the sweep kinds apart (``num_faults``,
    ``cluster_size``).
    """
    circuit, states, name = resolve_target(target, correct_states)
    points = list(
        enumerate_injection_points(circuit) if points is None else points
    )
    point_ids = {id(point): index for index, point in enumerate(points)}
    clusters = [tuple(cluster) for cluster, _ in strikes]
    table = _Interner(_fault_key)
    # One (patterns, slots) id matrix per cluster; strikes that share
    # one pattern list (a double sweep's couples) share the matrix.
    by_list: Dict[int, np.ndarray] = {}
    patterns = []
    for cluster, (_, entries) in zip(clusters, strikes):
        if id(entries) not in by_list:
            by_list[id(entries)] = np.array(
                [[table.id(fault) for fault in pattern] for pattern in entries]
                or np.empty((0, len(cluster))),
                dtype=np.int64,
            )
        patterns.append(by_list[id(entries)])
    sites = list(pair_sites(circuit, clusters, points))
    width = max((len(outer) for _, _, outer in sites), default=0)
    blocks = []
    for index, point, outer in sites:
        ids, cluster = patterns[index], np.asarray(clusters[index])
        count = len(ids)
        extra_qubit = np.full((count, width), _ABSENT, dtype=np.int64)
        extra_fault = np.full((count, width), _ABSENT, dtype=np.int64)
        extra_qubit[:, : len(outer)] = cluster[list(outer)]
        extra_fault[:, : len(outer)] = ids[:, list(outer)]
        blocks.append((
            np.full(count, point_ids[id(point)]),
            ids[:, 0],
            ids[:, 1],
            np.full(count, cluster[1]),
            extra_qubit,
            extra_fault,
        ))
    if blocks:
        point, fault, second, qubit2, extra_qubit, extra_fault = (
            np.concatenate(column) for column in zip(*blocks)
        )
    else:
        point = fault = second = qubit2 = np.empty(0, dtype=np.int64)
        extra_qubit = extra_fault = np.empty((0, 0), dtype=np.int64)
    tasks = TaskColumns(
        np.arange(len(point)),
        point,
        fault,
        points,
        table.items,
        second_fault=second,
        second_qubit=qubit2,
        extra_qubit=extra_qubit,
        extra_fault=extra_fault,
    )
    return CampaignPlan(
        circuit,
        states,
        tasks,
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
