"""Resumable campaign runner."""

import math

import pytest

from repro.algorithms import bernstein_vazirani
from repro.faults import (
    CampaignResult,
    CheckpointedRunner,
    InjectionPoint,
    PhaseShiftFault,
    QuFI,
    fault_grid,
)
from repro.scenarios.cache import write_result_store
from repro.simulators import DensityMatrixSimulator


@pytest.fixture
def qufi():
    return QuFI(DensityMatrixSimulator())


@pytest.fixture
def spec():
    return bernstein_vazirani(3)


class TestFreshRun:
    def test_complete_run_saves_checkpoint(self, qufi, spec, tmp_path):
        path = str(tmp_path / "run.ckpt")
        runner = CheckpointedRunner(qufi, path, save_every=5)
        faults = fault_grid(step_deg=90)
        result = runner.run(spec, faults=faults)
        # The checkpoint is a binary segment store; load() sniffs it.
        loaded = CampaignResult.load(path)
        assert loaded.num_injections == result.num_injections
        assert [r.qvf for r in loaded.records] == [
            r.qvf for r in result.records
        ]
        # A completed checkpoint holds the plain run's result store.
        plain = QuFI(DensityMatrixSimulator()).run_campaign(
            spec, faults=faults
        )
        assert loaded.metadata == plain.metadata
        plain_path = str(tmp_path / "plain.qfs")
        write_result_store(plain_path, plain)
        with open(path, "rb") as a, open(plain_path, "rb") as b:
            assert a.read() == b.read()

    def test_matches_direct_campaign(self, qufi, spec, tmp_path):
        path = str(tmp_path / "run.json")
        faults = fault_grid(step_deg=90)
        checkpointed = CheckpointedRunner(qufi, path).run(spec, faults=faults)
        direct = qufi.run_campaign(spec, faults=faults)
        assert checkpointed.num_injections == direct.num_injections
        assert checkpointed.mean_qvf() == pytest.approx(direct.mean_qvf())

    def test_save_every_validated(self, qufi, tmp_path):
        with pytest.raises(ValueError):
            CheckpointedRunner(qufi, str(tmp_path / "x.json"), save_every=0)


class TestResume:
    def test_resume_skips_completed_work(self, qufi, spec, tmp_path):
        path = str(tmp_path / "resume.json")
        faults = fault_grid(step_deg=90)
        points = [InjectionPoint(0, 0, "h"), InjectionPoint(1, 1, "h")]

        # First pass: only the first point.
        runner = CheckpointedRunner(qufi, path, save_every=1)
        partial = runner.run(spec, faults=faults, points=points[:1])
        assert partial.num_injections == len(faults)

        # Count executions on resume by watching the backend: every
        # injection is one branch of a batch from a prefix snapshot, and
        # the branch head's first gate is the injector on the target qubit.
        heads = []
        backend = qufi.backend
        original = backend.run_branches_from_snapshot

        def counting(snapshot, circuit, branch_heads, **kwargs):
            heads.extend(branch_heads)
            return original(snapshot, circuit, branch_heads, **kwargs)

        backend.run_branches_from_snapshot = counting  # type: ignore[method-assign]
        try:
            full = runner.run(spec, faults=faults, points=points)
        finally:
            backend.run_branches_from_snapshot = original  # type: ignore[method-assign]

        # Only the second point's injections were executed.
        assert len(heads) == len(faults)
        assert all(head[0].qubits == (1,) for head in heads)
        assert full.num_injections == 2 * len(faults)

    def test_resume_preserves_fault_free_qvf(self, qufi, spec, tmp_path):
        path = str(tmp_path / "ff.json")
        faults = [PhaseShiftFault(0.0, 0.0), PhaseShiftFault(math.pi, 0.0)]
        runner = CheckpointedRunner(qufi, path)
        first = runner.run(spec, faults=faults, points=[InjectionPoint(0, 0, "h")])
        second = runner.run(spec, faults=faults, points=[InjectionPoint(0, 0, "h")])
        assert second.fault_free_qvf == first.fault_free_qvf

    def test_rejects_mismatched_checkpoint(self, qufi, tmp_path):
        path = str(tmp_path / "clash.json")
        runner = CheckpointedRunner(qufi, path)
        runner.run(
            bernstein_vazirani(3),
            faults=[PhaseShiftFault(0.0, 0.0)],
            points=[InjectionPoint(0, 0, "h")],
        )
        with pytest.raises(ValueError, match="refusing to mix"):
            runner.run(
                bernstein_vazirani(4),
                faults=[PhaseShiftFault(0.0, 0.0)],
                points=[InjectionPoint(0, 0, "h")],
            )

    def test_completed_keys(self, qufi, spec, tmp_path):
        path = str(tmp_path / "keys.json")
        runner = CheckpointedRunner(qufi, path)
        assert runner.completed_keys() == set()
        runner.run(
            spec,
            faults=[PhaseShiftFault(0.5, 0.5)],
            points=[InjectionPoint(0, 0, "h")],
        )
        assert runner.completed_keys() == {(0.5, 0.5, 0, 0)}
