"""Columnar campaign plans against naive task enumerations.

A plan holds its tasks as columns over a point table and a table of
distinct faults (``repro.faults.plan.TaskColumns``), and the engine
reads those columns directly. These tests pin that the columns mean
what the old per-task lists meant:

* the row views equal a naive enumeration written here (points x
  faults; ``pair_sites`` x patterns), field by field and in order, on
  single, double, k=2 strike and transpiled k=3 strike plans;
* ``sized()`` equals a ``Counter`` over the rows;
* a plan built from explicit ``InjectionTask``s round-trips;
* the pool ships column slices cut where a tuple of tasks was cut, on
  whole and on resumed plans;
* resuming a partly recorded plan runs exactly the missing rows, and
  a campaign builds each distinct fault's matrix once.
"""

import collections
import dataclasses
import itertools
from concurrent.futures import Future

import numpy as np
import pytest

from repro.algorithms import bernstein_vazirani, qft
from repro.faults import (
    InjectionTask,
    ParallelExecutor,
    PhaseShiftFault,
    QuFI,
    SerialExecutor,
    fault_grid,
)
from repro.faults.checkpoint import run_plan
from repro.faults.executor import _chunk_tasks, _table_from_tasks
from repro.faults.plan import (
    CampaignPlan,
    TaskColumns,
    pair_sites,
    single_plan,
)
from repro.quantum.gates import UGate
from repro.scenarios import (
    FactoryCache,
    ScenarioSpec,
    make_injector,
    plan_scenario,
)
from repro.scenarios.factory import (
    _campaign_target,
    _paired_strikes,
    make_faults,
)
from repro.simulators import DensityMatrixSimulator, StatevectorSimulator
from tests.faults.test_checkpoint_resume import assert_records_identical

SPECS = {
    "single": dict(algorithm="qft", width=3, grid_step_deg=90.0),
    "double": dict(algorithm="bv", width=3, noise="none", mode="double",
                   grid_step_deg=90.0),
    "strike-k2": dict(algorithm="bv", width=4, noise="none", seed=11,
                      strike={"count": 5, "k": 2}),
    "strike-k3-transpiled": dict(algorithm="bv", width=4, noise="none",
                                 seed=11, strike={"count": 4, "k": 3},
                                 transpile={}),
}


def naive_tasks(spec, cache):
    """The spec's tasks the way plans enumerated them one by one: every
    fault at every point, or every pattern at every ``pair_sites``
    site."""
    target, _, points, _ = _campaign_target(spec, cache)
    circuit = getattr(target, "circuit", target)
    strikes = _paired_strikes(spec, cache)
    tasks = []
    if strikes is None:
        faults = make_faults(spec, cache)
        for point, fault in itertools.product(points, faults):
            tasks.append(InjectionTask(len(tasks), point, fault))
        return tasks
    clusters = [cluster for cluster, _ in strikes]
    for index, point, outer in pair_sites(circuit, clusters, points):
        cluster, patterns = strikes[index]
        for pattern in patterns:
            tasks.append(
                InjectionTask(
                    len(tasks),
                    point,
                    pattern[0],
                    pattern[1],
                    cluster[1],
                    tuple((cluster[slot], pattern[slot]) for slot in outer),
                )
            )
    return tasks


def plan_of(name):
    cache = FactoryCache()
    spec = ScenarioSpec(**SPECS[name])
    return spec, cache, plan_scenario(spec, cache)


def tuple_cut(tasks, target):
    """How a tuple of tasks was cut into pool chunks."""
    tasks = tuple(tasks)
    return [tasks[i : i + target] for i in range(0, len(tasks), target)]


@pytest.mark.parametrize("name", sorted(SPECS))
class TestRowViews:
    def test_rows_equal_the_naive_enumeration(self, name):
        spec, cache, plan = plan_of(name)
        rows = list(plan.tasks)
        expected = naive_tasks(spec, cache)
        assert len(plan.tasks) == len(rows) == len(expected) > 0
        for row, task in zip(rows, expected):
            for field in dataclasses.fields(InjectionTask):
                assert getattr(row, field.name) == getattr(task, field.name)
            assert type(row.index) is int
        # Indexing and slicing read the same rows.
        assert plan.tasks[0] == rows[0] and plan.tasks[-1] == rows[-1]
        assert list(plan.tasks[3:9]) == rows[3:9]
        if name == "strike-k3-transpiled":
            assert any(row.extra_faults for row in rows)

    def test_sized_is_a_counter_over_the_rows(self, name):
        _, _, plan = plan_of(name)
        expected = collections.Counter(
            (task.point.position, task.point.qubit)
            for task in plan.tasks
            if task.second_fault is None and not task.extra_faults
        )
        assert plan.sized().site_sizes == expected

    def test_explicit_tasks_round_trip(self, name):
        _, _, plan = plan_of(name)
        rows = list(plan.tasks)
        rebuilt = CampaignPlan(plan.circuit, plan.correct_states, tuple(rows))
        assert isinstance(rebuilt.tasks, TaskColumns)
        assert list(rebuilt.tasks) == rows
        qvfs = np.linspace(0.0, 1.0, len(rows))
        assert (
            _table_from_tasks(rebuilt.tasks, qvfs).data.tobytes()
            == _table_from_tasks(plan.tasks, qvfs).data.tobytes()
        )

    def test_chunks_are_cut_where_task_tuples_were(self, name):
        _, _, plan = plan_of(name)
        resumed = plan.tasks[np.arange(len(plan.tasks)) % 3 != 1]
        for tasks in (plan.tasks, resumed):
            for target in (1, 7, len(tasks)):
                chunks = _chunk_tasks(tasks, target)
                assert all(isinstance(c, TaskColumns) for c in chunks)
                assert [list(c) for c in chunks] == [
                    list(c) for c in tuple_cut(tasks, target)
                ]


class TestMixedRows:
    def test_sized_counts_only_single_rows(self):
        """A plan mixing single and pair rows sizes its single rows."""
        _, _, single = plan_of("single")
        _, _, double = plan_of("double")
        rows = list(single.tasks) + [
            dataclasses.replace(task, index=len(single.tasks) + task.index)
            for task in double.tasks
        ]
        plan = CampaignPlan(single.circuit, single.correct_states, rows)
        assert plan.sized().site_sizes == single.sized().site_sizes
        assert list(plan.tasks) == rows

    def test_a_pair_on_one_qubit_is_refused(self):
        """The engine checks once per site that an injection's faults
        land on different qubits."""
        spec = bernstein_vazirani(3)
        point = single_plan(spec).tasks[0].point
        fault = PhaseShiftFault(0.5, 0.5)
        plan = CampaignPlan(
            spec.circuit,
            tuple(spec.correct_states),
            [InjectionTask(0, point, fault, fault, point.qubit)],
        )
        with pytest.raises(ValueError, match="different qubits"):
            SerialExecutor().run(StatevectorSimulator(), plan)

    def test_faults_differing_in_the_sign_of_zero_stay_apart(self):
        """The fault table keys faults by their exact bits."""
        spec = bernstein_vazirani(3)
        faults = [PhaseShiftFault(0.0, 0.5), PhaseShiftFault(-0.0, 0.5)]
        plan = single_plan(spec, faults=faults)
        assert len(plan.tasks.faults) == 2
        thetas = plan.tasks.record_columns()["theta"][:2]
        assert np.signbit(thetas).tolist() == [False, True]


class InlinePool:
    """A pool that runs each chunk at submission and keeps what it was
    given."""

    def __init__(self):
        self.chunks = []

    def submit(self, fn, *args):
        self.chunks.append(args[2])
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, **kwargs):
        pass


class TestPoolShipsColumnSlices:
    @pytest.mark.parametrize("resumed", [False, True], ids=["whole", "resumed"])
    def test_chunk_boundaries(self, monkeypatch, resumed):
        spec = qft(3)
        faults = fault_grid(step_deg=90)
        plan = single_plan(spec, faults=faults)
        pool = InlinePool()
        executor = ParallelExecutor(workers=2, chunk_size=7)
        monkeypatch.setattr(executor, "_new_pool", lambda processes: pool)
        qufi = QuFI(StatevectorSimulator(), executor=executor)
        prior = None
        expected = list(plan.tasks)
        if resumed:
            prior = run_plan(
                QuFI(StatevectorSimulator()),
                dataclasses.replace(plan, tasks=plan.tasks[::3]),
            )
            expected = [t for t in expected if t.index % 3]
        result = run_plan(qufi, plan, prior=prior)
        assert all(isinstance(chunk, TaskColumns) for chunk in pool.chunks)
        assert [list(chunk) for chunk in pool.chunks] == [
            list(chunk) for chunk in tuple_cut(expected, 7)
        ]
        direct = run_plan(QuFI(StatevectorSimulator()), plan)
        assert_records_identical(
            result.sorted_records(), direct.sorted_records()
        )


class RecordingExecutor(SerialExecutor):
    """The engine, keeping the task indices of every plan it runs."""

    def __init__(self):
        super().__init__()
        self.ran = []

    def run(self, backend, plan, on_batch=None):
        self.ran.extend(plan.tasks.index.tolist())
        return super().run(backend, plan, on_batch=on_batch)


class TestResumeFromColumns:
    def test_partly_recorded_adaptive_union_runs_only_missing_rows(self):
        """An adaptive union holds numpy angles; resume keys come from
        the columns as Python floats on both sides, so the rows already
        recorded are skipped and exactly the others run."""
        spec = bernstein_vazirani(3)
        grid = np.radians(np.arange(0.0, 181.0, 30.0))
        union = [
            PhaseShiftFault(theta, phi)
            for theta, phi in itertools.product(grid, grid[:-1])
        ]
        assert isinstance(union[0].theta, np.float64)
        backend = DensityMatrixSimulator()
        plan = single_plan(spec, faults=union)
        recorded = plan.tasks[np.arange(len(plan.tasks)) % 5 < 2]
        prior = run_plan(
            QuFI(backend), dataclasses.replace(plan, tasks=recorded)
        )
        engine = RecordingExecutor()
        result = run_plan(QuFI(backend, executor=engine), plan, prior=prior)
        assert engine.ran == [
            index for index in range(len(plan.tasks)) if index % 5 >= 2
        ]
        assert result.num_injections == len(plan.tasks)


class TestPerTaskWorkPinned:
    def test_each_distinct_fault_matrix_is_built_once(self, monkeypatch):
        """A GHZ-4 double campaign at 45 degrees builds at most one
        matrix per distinct fault, not two per task."""
        spec = ScenarioSpec(algorithm="ghz", width=4, noise="none",
                            mode="double", grid_step_deg=45.0,
                            executor="serial")
        cache = FactoryCache()
        plan = plan_scenario(spec, cache)
        qufi = make_injector(spec, cache)
        calls = []
        real = UGate._build_matrix

        def counting(self):
            calls.append(self.params)
            return real(self)

        monkeypatch.setattr(UGate, "_build_matrix", counting)
        result = run_plan(qufi, plan)
        assert result.num_injections == len(plan.tasks)
        assert 0 < len(calls) <= len(plan.tasks.faults) < len(plan.tasks)
