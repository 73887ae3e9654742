"""Per-run child rngs of the machine emulator.

Historically an unseeded ``PhysicalMachineEmulator.run`` consumed the
emulator's *shared* generator, so any other consumer of that stream (a
second scenario scheduled in the same process, an interleaved fault-free
run) shifted every subsequent draw — campaigns through the emulator were
only deterministic if nothing else ran. Runs now draw from per-run
children of a seed sequence: run k of a seeded emulator is the same
whatever happened in between. A resumed checkpoint would restart that
sequence, so emulator checkpoints are refused rather than resumed.
"""

import numpy as np
import pytest

from repro.faults import SerialExecutor
from repro.faults.checkpoint import run_plan
from repro.faults.store import read_segments
from repro.machines import PhysicalMachineEmulator, fake_jakarta
from repro.quantum.circuit import QuantumCircuit
from repro.scenarios import (
    FactoryCache,
    ScenarioSpec,
    make_injector,
    plan_scenario,
    run_scenario,
)
from repro.scenarios.factory import run_adaptive_scenario
from tests.faults.test_checkpoint_resume import KillingExecutor, SimulatedKill


def bell() -> QuantumCircuit:
    return QuantumCircuit(2, 2).h(0).cx(0, 1).measure_all()


def run_probs(emulator, shots=256):
    return emulator.run(bell(), shots=shots).get_probabilities()


class TestPerRunSeeding:
    def test_run_sequence_reproducible_across_instances(self):
        a = PhysicalMachineEmulator(fake_jakarta(), seed=42)
        b = PhysicalMachineEmulator(fake_jakarta(), seed=42)
        assert [run_probs(a) for _ in range(3)] == [
            run_probs(b) for _ in range(3)
        ]

    def test_runs_independent_of_interleaving(self):
        """Run k depends only on k, not on what ran in between."""
        plain = PhysicalMachineEmulator(fake_jakarta(), seed=7)
        first, second = run_probs(plain), run_probs(plain)

        interleaved = PhysicalMachineEmulator(fake_jakarta(), seed=7)
        got_first = run_probs(interleaved)
        # A concurrent consumer touching unrelated numpy streams must not
        # shift the emulator's draws (the old shared-rng scheme broke
        # exactly here).
        np.random.default_rng(123).normal(size=1000)
        got_second = run_probs(interleaved)
        assert got_first == first
        assert got_second == second

    def test_distinct_runs_still_drift(self):
        emulator = PhysicalMachineEmulator(fake_jakarta(), seed=3)
        assert run_probs(emulator, shots=1024) != run_probs(
            emulator, shots=1024
        )

    def test_explicit_seed_overrides_and_does_not_advance(self):
        emulator = PhysicalMachineEmulator(fake_jakarta(), seed=11)
        expected_first = run_probs(
            PhysicalMachineEmulator(fake_jakarta(), seed=11)
        )
        pinned_a = emulator.run(bell(), shots=128, seed=5).get_probabilities()
        pinned_b = emulator.run(bell(), shots=128, seed=5).get_probabilities()
        assert pinned_a == pinned_b
        # Pinned runs consume no children: the next unseeded run is run 0.
        assert run_probs(emulator) == expected_first

    def test_reseed_diverges_worker_copies(self):
        """Pickled worker copies must not replay the parent's children."""
        parent = PhysicalMachineEmulator(fake_jakarta(), seed=9)
        clone = PhysicalMachineEmulator(fake_jakarta(), seed=9)
        clone.reseed(12345)
        assert run_probs(parent) != run_probs(clone)


EMULATOR = dict(
    algorithm="bv",
    width=3,
    noise="calibrated",
    backend="machine-emulator",
    machine="jakarta",
    transpile={},
    grid_step_deg=90.0,
    seed=2022,
)


class TestCheckpointResume:
    """Run k of the emulator draws child k of its own seed sequence, so a
    resumed run would restart at child 0 and record other draws than an
    uninterrupted run: a store the emulator would resume is refused."""

    def test_killed_checkpoint_is_refused(self, tmp_path):
        spec = ScenarioSpec(**EMULATOR)
        cache = FactoryCache()
        path = str(tmp_path / "emulator.ckpt")
        killer = KillingExecutor(SerialExecutor(), kill_after=25)
        with pytest.raises(SimulatedKill):
            run_plan(
                make_injector(spec, cache, killer),
                plan_scenario(spec, cache),
                checkpoint_path=path,
                save_every=10,
            )
        _, partial = read_segments(path)
        assert 0 < len(partial) < len(plan_scenario(spec, cache).tasks)
        with pytest.raises(ValueError, match="seed sequence of its own"):
            run_plan(
                make_injector(spec, cache),
                plan_scenario(spec, cache),
                checkpoint_path=path,
                save_every=10,
            )

    # The coarse round holds 45 rows: killed inside it, and inside the
    # next round once it has completed.
    @pytest.mark.parametrize("kill_after", [25, 50])
    def test_killed_adaptive_checkpoint_is_refused(self, tmp_path, kill_after):
        spec = ScenarioSpec(
            **EMULATOR,
            adaptive={"coarse_points": 3, "gradient_threshold": 0.01},
        )
        path = str(tmp_path / "adaptive.ckpt")
        killer = KillingExecutor(SerialExecutor(), kill_after=kill_after)
        with pytest.raises(SimulatedKill):
            run_adaptive_scenario(
                spec, FactoryCache(), killer, path, save_every=10
            )
        _, partial = read_segments(path)
        assert len(partial) > 0
        with pytest.raises(ValueError, match="fresh checkpoint path"):
            run_scenario(spec, checkpoint_path=path)

    @pytest.mark.parametrize(
        "adaptive", [False, True], ids=["plain", "adaptive"]
    )
    def test_completed_checkpoint_reads_back(self, tmp_path, adaptive):
        """Nothing is pending on a finished store, so no emulator run is
        drawn: the same command returns the stored campaign unchanged."""
        if adaptive:
            # Three rounds, so later rounds read the found store too.
            fields = dict(
                EMULATOR,
                adaptive={"coarse_points": 2, "gradient_threshold": 0.01},
            )
        else:
            fields = dict(EMULATOR, grid_step_deg=180.0)
        spec = ScenarioSpec(**fields)
        path = tmp_path / "done.ckpt"
        first = run_scenario(spec, checkpoint_path=str(path))
        stored = path.read_bytes()
        again = run_scenario(spec, checkpoint_path=str(path))
        assert again.table.data.tobytes() == first.table.data.tobytes()
        assert path.read_bytes() == stored

    def test_fresh_path_runs(self, tmp_path):
        spec = ScenarioSpec(**{**EMULATOR, "grid_step_deg": 180.0})
        plain = run_scenario(spec)
        stored = run_scenario(spec, checkpoint_path=str(tmp_path / "new.ckpt"))
        assert stored.table.data.tobytes() == plain.table.data.tobytes()
