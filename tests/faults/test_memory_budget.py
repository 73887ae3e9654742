"""Peak-memory regression: wide campaigns stay inside their budget.

ROADMAP item 2's failure mode: the engine materialises the whole ``(B,
2**n, 2**n)`` density batch, which runs out of memory past ~8-10
qubits. With a ``memory_budget`` the batch is tiled down, so a 10-qubit
density-matrix campaign — previously OOM territory — completes with a
tracemalloc-measured peak under the configured budget. Without one the
engine tiles to ``DEFAULT_TILE_BUDGET``, so the default in-process
engine and every pool worker stay under the same peak. Marked
``memory`` (registered in ``pytest.ini``); the tier-1 run includes it,
and ``-m memory`` selects it alone.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from repro.algorithms import ghz
from repro.faults import (
    BatchedExecutor,
    QuFI,
    SerialExecutor,
    enumerate_injection_points,
    fault_grid,
)
from repro.faults.executor import (
    DEFAULT_TILE_BUDGET,
    TILE_WORKING_SET,
    _tile_limit,
)
from repro.scenarios.factory import light_noise_model
from repro.simulators import DensityMatrixSimulator, StatevectorSimulator

BUDGET = 128 * 2**20  # 128 MiB: one 16 MiB branch state per tile
# A budget that never bites: every fault group stacks as one tile.
UNBOUNDED = 2**50
# Stated peak RSS of one pool worker on the full-group campaign below: the
# forked interpreter plus one tiled branch fits easily; a worker stacking
# the whole 12-branch group needs about 1 GiB.
WORKER_PEAK = 256 * 2**20

# Runs a 2-worker ParallelExecutor with its own pool over ghz(10) on the
# density matrix, one whole fault group per chunk, and reports the largest
# peak RSS of the (joined) pool workers.
_POOL_SCRIPT = """
import json, resource
from repro.algorithms import ghz
from repro.faults import ParallelExecutor, QuFI, enumerate_injection_points, fault_grid
from repro.scenarios.factory import light_noise_model
from repro.simulators import DensityMatrixSimulator

spec = ghz(10)
faults = fault_grid(step_deg=90.0)
qufi = QuFI(
    DensityMatrixSimulator(light_noise_model(10)),
    executor=ParallelExecutor(workers=2, chunk_size=len(faults)),
)
points = enumerate_injection_points(spec.circuit)[-2:]
result = qufi.run_campaign(spec, faults=faults, points=points)
print(json.dumps({
    "injections": result.num_injections,
    "worker_peak": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024,
}))
"""


def traced_peak(executor, points=slice(0, 2), step_deg=180.0):
    """Peak tracemalloc bytes over a 10-qubit density-matrix campaign."""
    spec = ghz(10)
    backend = DensityMatrixSimulator(light_noise_model(10))
    qufi = QuFI(backend, executor=executor)
    points = enumerate_injection_points(spec.circuit)[points]
    faults = fault_grid(step_deg=step_deg)
    tracemalloc.start()
    try:
        result = qufi.run_campaign(spec, faults=faults, points=points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.num_injections == len(points) * len(faults)
    return peak, result


@pytest.mark.memory
class TestMemoryBudget:
    def test_ten_qubit_density_campaign_fits_budget(self):
        peak, result = traced_peak(
            BatchedExecutor(memory_budget=BUDGET)
        )
        assert peak < BUDGET
        assert result.num_injections == 8

    def test_budget_actually_bites(self):
        """The same campaign under a budget too large to bite allocates
        well past it — the regression this module guards against going
        unnoticed. The exact plans stack every branch of a site."""
        peak, _ = traced_peak(
            BatchedExecutor(memory_budget=UNBOUNDED, response_basis=False)
        )
        assert peak > BUDGET

    def test_budgeted_records_match_unbudgeted(self):
        exact = dict(response_basis=False)
        _, budgeted = traced_peak(
            BatchedExecutor(memory_budget=BUDGET, **exact)
        )
        _, free = traced_peak(BatchedExecutor(memory_budget=UNBOUNDED, **exact))
        assert (
            budgeted.table.data.tobytes() == free.table.data.tobytes()
        )

    def test_default_engine_fits_budget(self):
        """The exact plans (``response_basis=False``), given no budget,
        run a whole fault group (every fault of the grid at one site)
        inside the same peak."""
        peak, result = traced_peak(
            SerialExecutor(response_basis=False),
            points=slice(-1, None),
            step_deg=90.0,
        )
        assert result.num_injections == len(fault_grid(step_deg=90.0))
        assert peak < BUDGET

    def test_waived_default_engine_fits_budget(self):
        """The default engine runs a whole fault group as one basis call:
        its 10 responses (160 MiB together at 10 qubits) are built one
        branch tile at a time, inside the same peak."""
        peak, result = traced_peak(
            SerialExecutor(), points=slice(-1, None), step_deg=90.0
        )
        assert result.num_injections == len(fault_grid(step_deg=90.0))
        assert peak < BUDGET

    def test_default_pool_workers_fit_budget(self):
        """Each worker of a default 2-worker pool, handed one whole fault
        group per chunk, stays under the stated peak RSS."""
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        proc = subprocess.run(
            [sys.executable, "-c", _POOL_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["injections"] == 2 * len(fault_grid(step_deg=90.0))
        assert out["worker_peak"] < WORKER_PEAK


class TestTileLimit:
    """The budget-to-tile arithmetic (cheap, so not ``memory``-marked)."""

    def test_tile_formula(self):
        backend = DensityMatrixSimulator()
        nbytes = backend.branch_state_nbytes(10)
        assert nbytes == 16 * 4**10
        assert _tile_limit(backend, 10, 64, BUDGET) == BUDGET // (
            TILE_WORKING_SET * nbytes
        )

    def test_tile_floor_is_one_branch(self):
        backend = DensityMatrixSimulator()
        assert _tile_limit(backend, 10, 64, 1024) == 1

    def test_no_budget_keeps_max_branches(self):
        backend = StatevectorSimulator()
        assert _tile_limit(backend, 4, 64, None) == 64

    def test_default_budget_keeps_qft6_density_tiles(self):
        backend = DensityMatrixSimulator()
        assert _tile_limit(backend, 6, 64, None) == 64
        assert _tile_limit(backend, 7, 64, None) < 64

    def test_default_budget_streams_wide_density_matrices(self):
        backend = DensityMatrixSimulator()
        assert _tile_limit(backend, 10, 64, None) == 1
        assert DEFAULT_TILE_BUDGET < BUDGET

    def test_budget_never_raises_max_branches(self):
        backend = StatevectorSimulator()
        assert _tile_limit(backend, 2, 8, 2**30) == 8

    def test_budgetless_backends_ignore_budget(self):
        assert _tile_limit(object(), 4, 64, 1024) == 64

    def test_executor_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="memory_budget"):
            BatchedExecutor(memory_budget=0)
