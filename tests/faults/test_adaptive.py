"""Adaptive campaigns: refinement, importance sampling, kill/resume.

The contract under test (ISSUE 8): an adaptive campaign is a pure
function of its configuration and seed — run twice it produces the same
records; killed mid-round and resumed it converges to the byte-identical
segment store; capped at fewer rounds and resumed with a larger cap it
continues the same campaign. And on smooth QVF surfaces it reaches the
full-grid answer on every visited cell for a fraction of the
injections.
"""

import math
import warnings

import numpy as np
import pytest

from repro.algorithms import ghz
from repro.faults import (
    BatchedExecutor,
    CheckpointedRunner,
    ParallelExecutor,
    QuFI,
    SerialExecutor,
    coarse_line_indices,
    fault_grid,
    refined_heatmap,
    run_adaptive_campaign,
)
from repro.faults.store import read_segments
from repro.simulators import StatevectorSimulator
from tests.faults.test_checkpoint_resume import KillingExecutor, SimulatedKill

GRID = dict(grid_step_deg=30.0, coarse_points=3, gradient_threshold=0.2)


def make_qufi(shots=None, seed=None):
    return QuFI(StatevectorSimulator(), shots=shots, seed=seed)


def columns(table):
    return {
        name: np.asarray(table.column(name))
        for name in ("theta", "phi", "position", "qubit", "qvf")
    }


def assert_tables_equal(left, right):
    lc, rc = columns(left), columns(right)
    for name in lc:
        assert np.array_equal(lc[name], rc[name]), name


class TestCoarseLineIndices:
    def test_endpoints_always_included(self):
        assert coarse_line_indices(13, 5)[0] == 0
        assert coarse_line_indices(13, 5)[-1] == 12

    def test_short_axis_returned_whole(self):
        assert coarse_line_indices(3, 5) == [0, 1, 2]
        assert coarse_line_indices(5, 5) == [0, 1, 2, 3, 4]

    def test_rounding_deduplicates(self):
        indices = coarse_line_indices(4, 3)
        assert indices == sorted(set(indices))
        assert len(indices) <= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            coarse_line_indices(0, 3)
        with pytest.raises(ValueError):
            coarse_line_indices(10, 1)


class TestRefinement:
    def test_deterministic_across_runs(self):
        a = run_adaptive_campaign(make_qufi(), ghz(3), **GRID)
        b = run_adaptive_campaign(make_qufi(), ghz(3), **GRID)
        assert_tables_equal(a.table, b.table)

    def test_spends_less_than_full_grid(self):
        result = run_adaptive_campaign(make_qufi(), ghz(3), **GRID)
        outcome = result.metadata["adaptive"]
        assert outcome["injections"] < outcome["full_grid_injections"]
        assert outcome["rounds"] >= 1
        assert outcome["stopped"] in (
            "converged",
            "tolerance",
            "max-rounds",
        )
        assert result.num_injections == outcome["injections"]

    def test_visited_cells_match_full_grid_exactly(self):
        """Refined lines are full-grid lines: every visited cell holds the
        value the uniform sweep records there, bit for bit (exact sim)."""
        adaptive = run_adaptive_campaign(make_qufi(), ghz(3), **GRID)
        full = make_qufi().run_campaign(
            ghz(3), faults=fault_grid(step_deg=30)
        )
        _, _, full_grid = full.heatmap()
        _, _, masked = refined_heatmap(
            adaptive, grid_step_deg=30.0, fill="mask"
        )
        visited = ~np.isnan(masked)
        assert visited.any() and not visited.all()
        assert np.array_equal(masked[visited], full_grid[visited])

    def test_interpolated_heatmap_has_no_nans(self):
        adaptive = run_adaptive_campaign(make_qufi(), ghz(3), **GRID)
        thetas, phis, grid = refined_heatmap(adaptive, grid_step_deg=30.0)
        assert grid.shape == (len(phis), len(thetas))
        assert not np.isnan(grid).any()

    def test_unknown_fill_rejected(self):
        adaptive = run_adaptive_campaign(make_qufi(), ghz(3), **GRID)
        with pytest.raises(ValueError, match="fill"):
            refined_heatmap(adaptive, fill="extrapolate")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_adaptive_campaign(make_qufi(), ghz(3), mode="random")


class TestBudgets:
    def test_coarse_round_over_budget_raises(self):
        with pytest.raises(ValueError, match="cannot fund the coarse round"):
            run_adaptive_campaign(
                make_qufi(), ghz(3), max_injections=10, **GRID
            )

    def test_budget_stops_at_round_boundary(self):
        """The coarse round (9 faults x 5 points = 45) fits; the first
        refinement round does not — the loop stops cleanly after round 1
        and reports why."""
        result = run_adaptive_campaign(
            make_qufi(),
            ghz(3),
            grid_step_deg=30.0,
            coarse_points=3,
            gradient_threshold=0.01,
            max_injections=50,
        )
        outcome = result.metadata["adaptive"]
        assert outcome["stopped"] == "budget"
        assert outcome["rounds"] == 1
        assert result.num_injections <= 50

    def test_time_budget_stops_after_first_round(self):
        result = run_adaptive_campaign(
            make_qufi(),
            ghz(3),
            grid_step_deg=30.0,
            coarse_points=3,
            gradient_threshold=0.0,
            max_seconds=0.0,
        )
        assert result.metadata["adaptive"]["stopped"] == "time-budget"
        assert result.metadata["adaptive"]["rounds"] == 1


class TestImportanceMode:
    def test_deterministic_with_seed(self):
        kwargs = dict(
            mode="importance", samples_per_round=8, max_rounds=2
        )
        a = run_adaptive_campaign(make_qufi(seed=7), ghz(3), **kwargs)
        b = run_adaptive_campaign(make_qufi(seed=7), ghz(3), **kwargs)
        assert_tables_equal(a.table, b.table)
        assert a.num_injections == 2 * 8 * 5

    def test_rounds_draw_distinct_batches(self):
        result = run_adaptive_campaign(
            make_qufi(seed=7),
            ghz(3),
            mode="importance",
            samples_per_round=8,
            max_rounds=2,
        )
        thetas = np.unique(np.asarray(result.table.column("theta")))
        assert thetas.size > 8  # round 2 added new faults, not repeats

    def test_tolerance_stops_sampling(self):
        result = run_adaptive_campaign(
            make_qufi(seed=7),
            ghz(3),
            mode="importance",
            samples_per_round=8,
            max_rounds=6,
            tolerance=0.5,
        )
        outcome = result.metadata["adaptive"]
        assert outcome["stopped"] == "tolerance"
        assert outcome["rounds"] == 1


class TestCheckpointedAdaptive:
    def test_memory_and_checkpointed_records_agree(self, tmp_path):
        memory = run_adaptive_campaign(make_qufi(), ghz(3), **GRID)
        stored = run_adaptive_campaign(
            make_qufi(),
            ghz(3),
            checkpoint_path=str(tmp_path / "a.ckpt"),
            save_every=20,
            **GRID,
        )
        assert_tables_equal(memory.table, stored.table)

    def test_store_metadata_records_outcome(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        result = run_adaptive_campaign(
            make_qufi(), ghz(3), checkpoint_path=path, **GRID
        )
        meta, _ = read_segments(path)
        stored = meta["metadata"]["adaptive"]
        assert stored["stopped"] == result.metadata["adaptive"]["stopped"]
        assert stored["injections"] == result.num_injections
        assert stored["mode"] == "refine"

    @pytest.mark.parametrize("executor_name", ["serial", "batched", "parallel"])
    @pytest.mark.parametrize(
        "shots,seed", [(None, None), (128, 7)], ids=["exact", "sampled"]
    )
    def test_killed_resume_is_byte_identical(
        self, tmp_path, executor_name, shots, seed
    ):
        def executor():
            if executor_name == "parallel":
                return ParallelExecutor(workers=2, chunk_size=10)
            if executor_name == "batched":
                return BatchedExecutor()
            return SerialExecutor()

        reference_path = str(tmp_path / "reference.ckpt")
        with warnings.catch_warnings():
            # Sandboxes without process pools degrade to in-process
            # runs; the stores must not notice.
            warnings.simplefilter("ignore", RuntimeWarning)
            run_adaptive_campaign(
                make_qufi(shots, seed),
                ghz(3),
                checkpoint_path=reference_path,
                save_every=10,
                executor=executor(),
                **GRID,
            )
            with open(reference_path, "rb") as handle:
                reference_bytes = handle.read()
            # Kill points in the coarse round and in later rounds.
            for kill_after in (5, 25, 60, 90):
                path = str(tmp_path / f"killed-{kill_after}.ckpt")
                with pytest.raises(SimulatedKill):
                    run_adaptive_campaign(
                        make_qufi(shots, seed),
                        ghz(3),
                        checkpoint_path=path,
                        save_every=10,
                        executor=KillingExecutor(executor(), kill_after),
                        **GRID,
                    )
                meta, partial = read_segments(path)
                assert 0 < len(partial) < 105
                run_adaptive_campaign(
                    make_qufi(shots, seed),
                    ghz(3),
                    checkpoint_path=path,
                    save_every=10,
                    executor=executor(),
                    **GRID,
                )
                with open(path, "rb") as handle:
                    assert handle.read() == reference_bytes, kill_after

    def test_round_capped_resume_continues_campaign(self, tmp_path):
        """A run stopped by max_rounds resumes under a larger cap to the
        byte-identical store of a single uninterrupted invocation —
        stopping parameters are not part of the resume identity."""
        reference_path = str(tmp_path / "reference.ckpt")
        run_adaptive_campaign(
            make_qufi(), ghz(3), checkpoint_path=reference_path, **GRID
        )
        path = str(tmp_path / "capped.ckpt")
        capped = run_adaptive_campaign(
            make_qufi(), ghz(3), checkpoint_path=path, max_rounds=1, **GRID
        )
        assert capped.metadata["adaptive"]["stopped"] == "max-rounds"
        run_adaptive_campaign(
            make_qufi(), ghz(3), checkpoint_path=path, **GRID
        )
        with open(reference_path, "rb") as handle:
            reference_bytes = handle.read()
        with open(path, "rb") as handle:
            assert handle.read() == reference_bytes


class TestResumeGuards:
    def test_non_adaptive_store_rejected(self, tmp_path):
        path = str(tmp_path / "plain.ckpt")
        runner = CheckpointedRunner(make_qufi(), path, save_every=10)
        runner.run(ghz(3), faults=fault_grid(step_deg=90))
        with pytest.raises(ValueError, match="non-adaptive"):
            run_adaptive_campaign(
                make_qufi(), ghz(3), checkpoint_path=path, **GRID
            )

    def test_mismatched_config_rejected(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        run_adaptive_campaign(
            make_qufi(), ghz(3), checkpoint_path=path, max_rounds=1, **GRID
        )
        with pytest.raises(ValueError, match="coarse_points"):
            run_adaptive_campaign(
                make_qufi(),
                ghz(3),
                checkpoint_path=path,
                grid_step_deg=30.0,
                coarse_points=4,
                gradient_threshold=0.2,
            )

    def test_stopping_params_do_not_block_resume(self, tmp_path):
        """max_rounds / tolerance / budgets never change which rounds
        exist, so they may differ between invocations."""
        path = str(tmp_path / "a.ckpt")
        run_adaptive_campaign(
            make_qufi(), ghz(3), checkpoint_path=path, max_rounds=1, **GRID
        )
        resumed = run_adaptive_campaign(
            make_qufi(),
            ghz(3),
            checkpoint_path=path,
            max_rounds=8,
            tolerance=0.001,
            max_injections=10_000,
            **GRID,
        )
        assert resumed.metadata["adaptive"]["rounds"] >= 1
