"""The response-basis contract: single-fault sites run on the basis.

A fault is a single-qubit unitary and everything after it is linear, so
by default the engine runs each single-fault site once per matrix unit
on the fault qubit (4 statevector or 10 density-matrix responses) and
combines the responses per fault, wherever the site holds at least that
many faults. The contract, stated against the naive oracle of
``tests/oracle.py`` and the ``bit_identical: true`` opt-out:

* default single-fault records lie within 1e-12 QVF of the oracle —
  every benchmark algorithm at width 3 on the statevector, the
  light-noise density matrix and a transpiled machine (seeded samples
  of tasks on the last two), and strike k=1 and QEC campaigns;
* every row of those campaigns, and of mitigated and adaptive-refine
  ones, lies within 1e-10 QVF of the opt-out, every other column equal;
* sites holding fewer faults than the responses run the exact plans,
  and only sites on the basis ask for the folded tails;
* default records, exact and sampled, are byte-identical across serial,
  batched, one-branch tiles, pools whose chunks cut through sites and a
  killed-and-resumed checkpoint;
* pair, cluster and opted-out records equal the naive loop's bytes;
* ``fused`` changes neither records nor hashes;
* a checkpoint recorded while an earlier basis packed segments is
  refused;
* the spec's backend table names exactly the engines that have a basis.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.faults import BatchedExecutor, ParallelExecutor, SerialExecutor
from repro.faults.checkpoint import run_plan
from repro.faults.store import compact, read_segments
from repro.scenarios import (
    FactoryCache,
    ScenarioSpec,
    make_backend,
    make_injector,
    plan_scenario,
    run_scenario,
)
from repro.scenarios.spec import BACKEND_KINDS
from repro.simulators import (
    DensityMatrixSimulator,
    SegmentCompiler,
    StatevectorSimulator,
)
from tests.faults.test_checkpoint_resume import KillingExecutor, SimulatedKill
from tests.oracle import oracle_qvfs

ALGORITHMS = ("bv", "dj", "ghz", "grover", "qft", "qpe")

MACHINE = dict(
    noise="calibrated",
    backend="machine",
    machine="jakarta",
    transpile={"optimization_level": 1, "seed": 7},
)
BACKENDS = {
    "statevector": dict(noise="none", grid_step_deg=45.0),
    "density-matrix": dict(noise="light", grid_step_deg=45.0),
    # The density matrix under jakarta's calibration, remapped onto the
    # routed circuit's used wires; it sweeps the coarsest grid with room
    # for the basis: twelve faults a site.
    "machine": dict(MACHINE, grid_step_deg=90.0),
}
# How many seeded tasks of each grid the oracle checks (None: all).
SAMPLES = {"statevector": None, "density-matrix": 160, "machine": 4}

# Campaigns whose faults do not come from the uniform grid.
KINDS = {
    "strike-k1": dict(
        algorithm="bv", width=3, noise="light", seed=11,
        strike={"count": 24, "k": 1},
    ),
    "qec": dict(
        algorithm="qec", noise="light", grid_step_deg=45.0, seed=7,
        qec={"code": "bit_flip", "distance": 3},
    ),
}

# Default campaigns the oracle does not model: compared with the opt-out.
NEAR_OPT_OUT = {
    "mitigated": dict(
        algorithm="bv", width=4, noise="light", grid_step_deg=45.0,
        seed=2022, mitigation=True,
    ),
    # Rounds add 9, 16, 21 and 38 faults a site: the first runs the
    # exact plans, the others the basis.
    "adaptive-refine": dict(
        algorithm="bv", width=3, noise="light", grid_step_deg=30.0,
        adaptive={"coarse_points": 3, "gradient_threshold": 0.1},
    ),
}

# Pair and cluster sites: the basis leaves them on the exact plans.
PAIRS = {
    "double-sv": dict(algorithm="bv", width=3, noise="none", mode="double",
                      grid_step_deg=90.0),
    "double-dm": dict(algorithm="ghz", width=3, noise="light",
                      mode="double", grid_step_deg=90.0),
    "strike-k2": dict(algorithm="bv", width=3, noise="light", seed=11,
                      strike={"count": 12, "k": 2}),
    "strike-k3": dict(algorithm="bv", width=4, noise="light", seed=11,
                      strike={"count": 6, "k": 3}),
}


def opted_out(spec):
    return dataclasses.replace(spec, bit_identical=True)


def run(spec, executor=None, cache=None):
    with warnings.catch_warnings():
        # Sandboxes without process pools degrade to in-process runs;
        # the records must not notice.
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_scenario(spec, cache=cache, executor=executor)


def fault_columns(result):
    """A campaign's records as raw bytes, QVF column zeroed."""
    data = result.table.data.copy()
    data["qvf"] = 0.0
    return data.tobytes()


def assert_close_to_oracle(spec, sample=None):
    """The default engine's rows for ``spec`` (all of them, or a seeded
    sample of ``sample`` tasks) lie within 1e-12 QVF of the oracle."""
    assert spec.response_basis
    cache = FactoryCache()
    backend = make_backend(spec, cache)
    # Sized over the whole campaign, as a resume sizes it: every site
    # holds enough faults for the basis.
    plan = plan_scenario(spec, cache).sized()
    assert min(plan.site_sizes.values()) >= backend.basis_responses
    tasks = plan.tasks
    if sample is not None and sample < len(tasks):
        picked = np.random.default_rng(2022).choice(len(tasks), sample, False)
        tasks = tuple(tasks[i] for i in sorted(picked))
    # A sample runs alone: rows do not depend on their neighbours.
    result = run_plan(
        make_injector(spec, cache), dataclasses.replace(plan, tasks=tasks)
    )
    assert result.num_injections == len(tasks) > 0
    expected = oracle_qvfs(
        plan,
        getattr(backend, "noise_model", None),
        density=spec.noise != "none",
        tasks=tasks,
    )
    np.testing.assert_allclose(
        result.qvf_values(), expected, rtol=0, atol=1e-12
    )


def assert_close_to_opt_out(spec):
    exact = run(opted_out(spec))
    basis = run(spec)
    assert basis.num_injections == exact.num_injections > 0
    assert fault_columns(basis) == fault_columns(exact)
    np.testing.assert_allclose(
        basis.qvf_values(), exact.qvf_values(), rtol=0, atol=1e-10
    )


class TestAgainstOracle:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_grid(self, algorithm, backend):
        assert_close_to_oracle(
            ScenarioSpec(algorithm=algorithm, width=3, **BACKENDS[backend]),
            SAMPLES[backend],
        )

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_campaign_kinds(self, kind):
        assert_close_to_oracle(ScenarioSpec(**KINDS[kind]), 160)

    def test_oracle_equals_the_exact_engine(self):
        """The oracle itself: the opt-out (bit-identical to the naive
        loop) agrees with it on a noisy density matrix."""
        spec = ScenarioSpec(
            algorithm="qft", width=3, noise="light", grid_step_deg=90.0,
            bit_identical=True,
        )
        cache = FactoryCache()
        expected = oracle_qvfs(
            plan_scenario(spec, cache),
            make_backend(spec, cache).noise_model,
            density=True,
        )
        np.testing.assert_allclose(
            run(spec, cache=cache).qvf_values(), expected, rtol=0, atol=1e-12
        )


class TestCloseToOptOut:
    """Every row of the default campaigns against the opt-out."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_grid(self, algorithm, backend):
        assert_close_to_opt_out(
            ScenarioSpec(algorithm=algorithm, width=3, **BACKENDS[backend])
        )

    @pytest.mark.parametrize("kind", sorted({**KINDS, **NEAR_OPT_OUT}))
    def test_campaign_kinds(self, kind):
        fields = {**KINDS, **NEAR_OPT_OUT}[kind]
        assert_close_to_opt_out(ScenarioSpec(**fields))


class TestSmallSites:
    """A site holding fewer faults than the basis has responses runs the
    exact plans: the basis would cost more tail runs than the faults."""

    def test_machine_coarse_grid_runs_the_exact_plans(self):
        """Four faults a site on the machine's density matrix (10
        responses): the default records are the opt-out's bytes."""
        spec = ScenarioSpec(
            algorithm="qft", width=3, **dict(MACHINE, grid_step_deg=180.0)
        )
        assert spec.response_basis
        assert run(spec).table.data.tobytes() == (
            run(opted_out(spec)).table.data.tobytes()
        )

    @pytest.mark.parametrize(
        "noise, basis", [("none", True), ("light", False)], ids=["sv", "dm"]
    )
    def test_threshold_is_the_response_count(self, monkeypatch, noise, basis):
        """Four faults a site reach the statevector's 4 responses but
        not the density matrix's 10."""
        calls = record_branch_calls(monkeypatch)
        run(ScenarioSpec(
            algorithm="qft", width=3, noise=noise, grid_step_deg=180.0
        ))
        assert calls and {on_basis for _, on_basis in calls} == {basis}

    @pytest.mark.parametrize(
        "algorithm, paths",
        # GHZ rounds add 9, 6 and 6 faults a site to a union of 9, 15
        # and 21; BV rounds add 9, 16, 21 and 38.
        [("ghz", {False}), ("bv", {False, True})],
    )
    def test_adaptive_rounds_are_sized_by_the_faults_they_add(
        self, monkeypatch, algorithm, paths
    ):
        """A refine round runs only the faults it adds (the earlier
        rounds' rows carry over), so its sites are sized by those, not
        by the union: on the density matrix a round adding fewer than
        10 faults a site runs the exact plans."""
        calls = record_branch_calls(monkeypatch)
        run(ScenarioSpec(**dict(
            NEAR_OPT_OUT["adaptive-refine"], algorithm=algorithm
        )))
        assert {on_basis for _, on_basis in calls} == paths
        assert all(on_basis == (size >= 10) for size, on_basis in calls)

    @pytest.mark.parametrize("case", ["opt-out", "pair", "small", "basis"])
    def test_only_basis_sites_ask_for_the_folded_tail(self, monkeypatch, case):
        """The folded tail serves the basis alone: opted-out, pair and
        small density-matrix sites compile only exact tails."""
        dm = dict(algorithm="qft", width=3, **BACKENDS["density-matrix"])
        spec = {
            "opt-out": opted_out(ScenarioSpec(**dm)),
            "pair": ScenarioSpec(**PAIRS["double-dm"]),
            "small": ScenarioSpec(**dict(dm, grid_step_deg=180.0)),
            "basis": ScenarioSpec(**dm),
        }[case]
        kinds = record_tail_plan_kinds(monkeypatch)
        run(spec)
        assert kinds and set(kinds) == {case == "basis"}


def record_tail_plan_kinds(monkeypatch):
    """Whether each tail plan asked of a compiler from now on is the
    folded one."""
    kinds = []

    def recording(self, start, *, folded=False,
                  _inner=SegmentCompiler.tail_plan):
        kinds.append(folded)
        return _inner(self, start, folded=folded)

    monkeypatch.setattr(SegmentCompiler, "tail_plan", recording)
    return kinds


def record_branch_calls(monkeypatch):
    """``(branches, on the basis)`` of every batched call the exact
    simulators receive from now on."""
    calls = []
    for cls in (StatevectorSimulator, DensityMatrixSimulator):
        def recording(self, *args, _inner=cls.run_branches_from_snapshot,
                      **kwargs):
            calls.append((len(args[2]), kwargs["basis_tile"] is not None))
            return _inner(self, *args, **kwargs)

        monkeypatch.setattr(cls, "run_branches_from_snapshot", recording)
    return calls


class TestByteStable:
    @pytest.mark.parametrize("shots", [None, 128], ids=["exact", "sampled"])
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_across_strategies_and_resume(self, tmp_path, backend, shots):
        fields = dict(BACKENDS[backend], grid_step_deg=90.0)
        spec = ScenarioSpec(
            algorithm="bv", width=3, shots=shots, seed=7, **fields
        )
        assert spec.response_basis
        cache = FactoryCache()
        reference = run(spec, cache=cache)
        # Sites hold 12 faults, so chunks of 5 and 7 cut through them.
        strategies = {
            "serial": SerialExecutor(),
            "batched": BatchedExecutor(),
            "one-branch": SerialExecutor(max_branches=1),
            "workers2": ParallelExecutor(workers=2, chunk_size=5),
            "workers3": ParallelExecutor(workers=3, chunk_size=7),
        }
        for name, executor in strategies.items():
            result = run(spec, executor=executor, cache=cache)
            assert result.table.data.tobytes() == (
                reference.table.data.tobytes()
            ), name

        # Killed mid-site, then resumed from the checkpoint.
        path = str(tmp_path / "killed.ckpt")
        killer = KillingExecutor(SerialExecutor(batch_size=5), 17)
        with pytest.raises(SimulatedKill):
            run_plan(
                make_injector(spec, cache, killer),
                plan_scenario(spec, cache),
                checkpoint_path=path,
                save_every=5,
            )
        _, partial = read_segments(path)
        assert 0 < len(partial) < reference.num_injections
        assert len(partial) % 12  # the kill landed inside a site
        resumed = run_plan(
            make_injector(spec, cache),
            plan_scenario(spec, cache),
            checkpoint_path=path,
            save_every=5,
        )
        assert resumed.table.data.tobytes() == reference.table.data.tobytes()

    def test_packed_era_checkpoint_is_refused(self, tmp_path):
        spec = ScenarioSpec(
            algorithm="bv", width=3, noise="light", grid_step_deg=90.0,
            fused=True,
        )
        path = str(tmp_path / "packed.ckpt")
        run_scenario(spec, checkpoint_path=path)
        meta, table = read_segments(path)
        # The hash this spec had while the waiver packed segments.
        meta["metadata"]["spec_hash"] = "dee0930249d93445"
        compact(path, meta, table)
        with pytest.raises(ValueError, match="earlier record rules"):
            run_scenario(spec, checkpoint_path=path)


def naive(spec):
    """``spec`` on the naive per-task loop."""
    return run(spec, executor=SerialExecutor(prefix_reuse=False))


class TestPairAndClusterSites:
    @pytest.mark.parametrize("shape", sorted(PAIRS))
    def test_waived_pairs_equal_the_exact_run(self, shape):
        """Pair and cluster sites stay on the exact plans, bit-identical
        to the naive loop, and hash alike whatever ``bit_identical``
        says."""
        spec = ScenarioSpec(**PAIRS[shape])
        assert opted_out(spec).spec_hash() == spec.spec_hash()
        result = run(spec)
        assert result.table.has_second().all()
        assert result.table.data.tobytes() == (
            naive(spec).table.data.tobytes()
        )


class TestOptOut:
    @pytest.mark.parametrize("backend", ["statevector", "density-matrix"])
    def test_opted_out_equals_the_naive_loop(self, backend):
        spec = opted_out(
            ScenarioSpec(algorithm="qft", width=3, **BACKENDS[backend])
        )
        assert not spec.response_basis
        assert run(spec).table.data.tobytes() == (
            naive(spec).table.data.tobytes()
        )

    def test_fused_moves_neither_records_nor_hash(self):
        spec = ScenarioSpec(
            algorithm="bv", width=3, noise="light", grid_step_deg=90.0
        )
        for bit_identical in (False, True):
            plain = dataclasses.replace(spec, bit_identical=bit_identical)
            fused = dataclasses.replace(plain, fused=True)
            assert fused.spec_hash() == plain.spec_hash()
            assert run(fused).table.data.tobytes() == (
                run(plain).table.data.tobytes()
            )


class TestOnePredicate:
    @pytest.mark.parametrize("kind", sorted(BACKEND_KINDS))
    def test_backend_table_names_the_engines_with_a_basis(self, kind):
        """The spec's table, which decides the hash salt, agrees with
        the engines the factory builds, mitigated or not."""
        # Calibrated noise, which the machine kinds force, needs routing.
        spec = ScenarioSpec(
            algorithm="bv",
            width=3,
            backend=kind,
            noise="light",
            seed=1,
            transpile={} if kind.startswith("machine") else None,
        )
        assert spec.response_basis == BACKEND_KINDS[kind]
        backends = [make_backend(spec)]
        if kind != "machine-emulator":
            backends.append(
                make_backend(dataclasses.replace(spec, mitigation=True))
            )
        for backend in backends:
            has_basis = getattr(backend, "basis_responses", None) is not None
            assert has_basis == BACKEND_KINDS[kind], backend
