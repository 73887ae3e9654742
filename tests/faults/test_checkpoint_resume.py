"""Kill/resume semantics of the segment-checkpointed runner.

The acceptance contract: a campaign killed mid-run and resumed must
leave *exactly* the store an uninterrupted run leaves, byte for byte —
under the batched and parallel executors, in exact and in sampled mode.
Each task draws from a generator derived from ``(seed, task.index)``,
so the draws are independent of where the kill landed, and executors
deliver rows in task order, so the killed run's rows are a prefix of
the uninterrupted run's.
"""

import os
import warnings

import numpy as np
import pytest

from repro.algorithms import bernstein_vazirani
from repro.faults import (
    BaseExecutor,
    BatchedExecutor,
    CheckpointedRunner,
    ParallelExecutor,
    QuFI,
    SerialExecutor,
    fault_grid,
)
from repro.faults.executor import TILE_WORKING_SET
from repro.faults.store import (
    STORE_ALIGNMENT,
    append_record_segment,
    is_segment_file,
    read_segments,
)
from repro.simulators import StatevectorSimulator


class SimulatedKill(Exception):
    """Raised by the killing executor to emulate a mid-run crash."""


class KillingExecutor(BaseExecutor):
    """Wraps a strategy and dies after ``kill_after`` streamed records.

    The count runs across the runs of the executor and of its bounded
    copies, so a kill can land in any round of an adaptive campaign.
    """

    def __init__(
        self, inner: BaseExecutor, kill_after: int, delivered=None
    ) -> None:
        self.inner = inner
        self.kill_after = kill_after
        self.name = inner.name
        self.delivered = [0] if delivered is None else delivered

    def bounded(self, limit: int) -> "KillingExecutor":
        return KillingExecutor(
            self.inner.bounded(limit), self.kill_after, self.delivered
        )

    def run(self, backend, plan, on_batch=None):
        def killing_on_batch(batch):
            if on_batch is not None:
                on_batch(batch)
            self.delivered[0] += len(batch)
            if self.delivered[0] >= self.kill_after:
                raise SimulatedKill(
                    f"killed after {self.delivered[0]} records"
                )

        return self.inner.run(backend, plan, on_batch=killing_on_batch)


def assert_records_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.point == b.point
        assert a.fault == b.fault
        assert a.second_fault == b.second_fault
        assert a.second_qubit == b.second_qubit
        assert a.qvf == b.qvf


def make_executor(name):
    if name == "batched":
        return BatchedExecutor()
    if name == "parallel":
        return ParallelExecutor(workers=2, chunk_size=10)
    return SerialExecutor()


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def run_checkpointed(path, spec, faults, executor, shots, seed):
    qufi = QuFI(StatevectorSimulator(), shots=shots, seed=seed)
    runner = CheckpointedRunner(
        qufi, path, save_every=10, executor=executor
    )
    with warnings.catch_warnings():
        # Sandboxes without process pools degrade parallel runs to
        # serial; resume equivalence must hold regardless.
        warnings.simplefilter("ignore", RuntimeWarning)
        return runner.run(spec, faults=faults)


class TestKillAndResume:
    @pytest.mark.parametrize("executor_name", ["batched", "parallel"])
    @pytest.mark.parametrize(
        "shots,seed", [(None, None), (128, 7)], ids=["exact", "sampled"]
    )
    def test_resumed_equals_uninterrupted(
        self, tmp_path, executor_name, shots, seed
    ):
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)

        reference_path = str(tmp_path / "reference.ckpt")
        reference = run_checkpointed(
            reference_path,
            spec,
            faults,
            make_executor(executor_name),
            shots,
            seed,
        )

        for kill_after in (10, 30, 50, 70):
            # Kill a second campaign mid-run...
            path = str(tmp_path / f"killed-{kill_after}.ckpt")
            killer = KillingExecutor(make_executor(executor_name), kill_after)
            with pytest.raises(SimulatedKill):
                run_checkpointed(path, spec, faults, killer, shots, seed)
            partial_meta, partial_table = read_segments(path)
            assert 0 < len(partial_table) < reference.num_injections

            # ... then resume it and compare against the uninterrupted
            # run: same records, in the same order, in the same bytes.
            resumed = run_checkpointed(
                path, spec, faults, make_executor(executor_name), shots, seed
            )
            assert_records_identical(resumed.records, reference.records)
            assert read_bytes(path) == read_bytes(reference_path), kill_after

    def test_double_kill_still_converges(self, tmp_path):
        """Two successive kills, then a clean run: same campaign."""
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        reference = run_checkpointed(
            str(tmp_path / "ref.ckpt"),
            spec,
            faults,
            BatchedExecutor(),
            None,
            None,
        )
        path = str(tmp_path / "twice.ckpt")
        for kill_after in (20, 30):
            with pytest.raises(SimulatedKill):
                run_checkpointed(
                    path,
                    spec,
                    faults,
                    KillingExecutor(BatchedExecutor(), kill_after),
                    None,
                    None,
                )
        resumed = run_checkpointed(
            path, spec, faults, BatchedExecutor(), None, None
        )
        assert_records_identical(
            resumed.sorted_records(), reference.sorted_records()
        )


class TestSegmentStoreRobustness:
    def test_truncated_tail_segment_is_dropped(self, tmp_path):
        """A kill mid-append loses only the torn segment, and the
        campaign still resumes to the full sweep."""
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        path = str(tmp_path / "torn.ckpt")
        reference = run_checkpointed(
            str(tmp_path / "ref.ckpt"),
            spec,
            faults,
            SerialExecutor(),
            None,
            None,
        )
        run_checkpointed(path, spec, faults, SerialExecutor(), None, None)

        # Tear the file: chop bytes off the final (compacted) segment.
        full_size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(full_size - 64)
        meta, table = read_segments(path)
        assert meta is not None
        assert len(table) < reference.num_injections

        resumed = run_checkpointed(
            path, spec, faults, SerialExecutor(), None, None
        )
        assert_records_identical(
            resumed.sorted_records(), reference.sorted_records()
        )

    def test_torn_tail_then_killed_resume_stays_loadable(self, tmp_path):
        """Appending must never land after torn bytes: resume compacts
        the store first, so a kill *during* the resume of an
        already-torn checkpoint still leaves a loadable file."""
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        path = str(tmp_path / "torn-twice.ckpt")
        reference = run_checkpointed(
            str(tmp_path / "ref.ckpt"),
            spec,
            faults,
            SerialExecutor(),
            None,
            None,
        )

        # First kill leaves flushed segments plus (simulated) torn bytes.
        with pytest.raises(SimulatedKill):
            run_checkpointed(
                path,
                spec,
                faults,
                KillingExecutor(SerialExecutor(), kill_after=30),
                None,
                None,
            )
        with open(path, "ab") as handle:
            handle.write(b"QFS1R\x10")  # a torn segment prefix

        # Second kill appends after the resume's compaction pass...
        with pytest.raises(SimulatedKill):
            run_checkpointed(
                path,
                spec,
                faults,
                KillingExecutor(SerialExecutor(), kill_after=60),
                None,
                None,
            )
        # ... so the store must still parse, and the final resume must
        # complete the campaign.
        meta, table = read_segments(path)
        assert meta is not None and len(table) >= 60
        resumed = run_checkpointed(
            path, spec, faults, SerialExecutor(), None, None
        )
        assert_records_identical(
            resumed.sorted_records(), reference.sorted_records()
        )

    def test_appends_are_incremental(self, tmp_path):
        """Appending a segment grows the file by O(batch), independent of
        how many records are already stored."""
        records = QuFI(StatevectorSimulator()).run_campaign(
            bernstein_vazirani(3), faults=fault_grid(step_deg=90)
        )
        block = records.table[np.arange(10)]
        path = str(tmp_path / "grow.ckpt")
        from repro.faults.store import write_meta_segment

        write_meta_segment(path, {"circuit_name": "x"})
        payload = block.data.nbytes
        deltas = []
        for _ in range(8):
            with open(path, "rb") as handle:
                before = handle.read()
            append_record_segment(path, block)
            with open(path, "rb") as handle:
                after = handle.read()
            # Prior bytes are untouched: appends never rewrite.
            assert after[: len(before)] == before
            deltas.append(len(after) - len(before))
        # Every append costs O(batch) bytes: the payload plus a bounded
        # header (whose alignment padding varies by at most one
        # STORE_ALIGNMENT stride with the append offset).
        assert max(deltas) - min(deltas) < STORE_ALIGNMENT
        assert all(payload < delta < payload + 1024 for delta in deltas)
        meta, table = read_segments(path)
        assert len(table) == 80

    def test_non_segment_file_detected(self, tmp_path):
        path = str(tmp_path / "plain.json")
        with open(path, "w") as handle:
            handle.write("{}")
        assert not is_segment_file(path)
        with pytest.raises(ValueError, match="not a segment checkpoint"):
            read_segments(path)


def budgeted(tile=None):
    """A BatchedExecutor budgeted down to ``tile`` branches.

    ``None`` leaves the budget open (the full default batch). Budgets
    are sized against the statevector backend's 3-qubit branch states,
    matching the campaigns these tests run.
    """
    if tile is None:
        return BatchedExecutor()
    nbytes = StatevectorSimulator().branch_state_nbytes(3)
    return BatchedExecutor(memory_budget=TILE_WORKING_SET * tile * nbytes)


class TestTilingInvariance:
    """Tile size is an execution detail: stores must not see it.

    The same campaign run at tile sizes {1, 3, B} must leave
    byte-identical segment checkpoints on disk, and a campaign killed at
    one tile size then resumed at another must converge to the same
    bytes — record layout is pinned by ``docs/file_formats.md``, so
    tiling has nowhere to hide.
    """

    def test_tile_sizes_leave_byte_identical_stores(self, tmp_path):
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        blobs = {}
        for tile in (1, 3, None):
            path = str(tmp_path / f"tile-{tile}.ckpt")
            run_checkpointed(path, spec, faults, budgeted(tile), None, None)
            with open(path, "rb") as handle:
                blobs[tile] = handle.read()
        assert blobs[1] == blobs[3] == blobs[None]

    def test_kill_at_one_tile_resume_at_another(self, tmp_path):
        """Kill at tile 3, resume at the full batch: same bytes as an
        uninterrupted run (the resume manifest holds no tile residue)."""
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        reference_path = str(tmp_path / "reference.ckpt")
        reference = run_checkpointed(
            reference_path, spec, faults, budgeted(), None, None
        )
        path = str(tmp_path / "killed.ckpt")
        with pytest.raises(SimulatedKill):
            run_checkpointed(
                path,
                spec,
                faults,
                KillingExecutor(budgeted(3), kill_after=30),
                None,
                None,
            )
        resumed = run_checkpointed(
            path, spec, faults, budgeted(), None, None
        )
        assert_records_identical(
            resumed.sorted_records(), reference.sorted_records()
        )
        with open(reference_path, "rb") as handle:
            reference_bytes = handle.read()
        with open(path, "rb") as handle:
            assert handle.read() == reference_bytes

    def test_sampled_tiling_invariance(self, tmp_path):
        """Per-task seeding is tile-independent too."""
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        blobs = []
        for tile in (1, None):
            path = str(tmp_path / f"sampled-{tile}.ckpt")
            run_checkpointed(path, spec, faults, budgeted(tile), 128, 7)
            with open(path, "rb") as handle:
                blobs.append(handle.read())
        assert blobs[0] == blobs[1]

    def test_transpiled_scenario_tiling_invariance(self, tmp_path):
        """The transpiled path: tiled checkpoints on a shared compiler
        agree byte for byte whatever the memory budget."""
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.factory import (
            FactoryCache,
            make_algorithm,
            make_faults,
            make_injector,
            make_segment_compiler,
            make_transpiled_campaign_inputs,
            scenario_metadata,
        )

        scenario = ScenarioSpec(
            algorithm="ghz",
            width=3,
            noise="light",
            grid_step_deg=90.0,
            executor="batched",
            transpile={"optimization_level": 1, "seed": 7},
        )
        blobs = []
        for budget in (1024, None):
            cache = FactoryCache()
            algorithm = make_algorithm(scenario, cache)
            executor = BatchedExecutor(memory_budget=budget)
            executor.prime_segment_compiler(
                make_segment_compiler(scenario, cache)
            )
            qufi = make_injector(scenario, cache, executor=executor)
            transpiled, points, extra_meta = make_transpiled_campaign_inputs(
                scenario, cache
            )
            extra_meta.update(scenario_metadata(scenario))
            path = str(tmp_path / f"transpiled-{budget}.ckpt")
            runner = CheckpointedRunner(qufi, path, save_every=10)
            runner.run(
                transpiled.circuit,
                correct_states=algorithm.correct_states,
                faults=make_faults(scenario, cache),
                points=points,
                metadata=extra_meta,
            )
            with open(path, "rb") as handle:
                blobs.append(handle.read())
        assert blobs[0] == blobs[1]
