"""The ``bit_identical=False`` waiver: single-fault sites on the basis.

A fault is a single-qubit unitary and everything after it is linear, so
the waived engine runs each single-fault site once per matrix unit on
the fault qubit and combines the responses per fault. The contract:

* waived single-fault records lie within 1e-10 QVF of the exact
  engine's — every benchmark algorithm at width 3 on the statevector,
  the light-noise density matrix and a transpiled machine, and strike
  k=1, QEC and adaptive refine campaigns;
* waived records, exact and sampled, are byte-identical across serial,
  batched, one-branch tiles, pools whose chunks cut through sites and a
  killed-and-resumed checkpoint;
* waived pair and cluster sites run the exact plans, so their records
  equal the exact run's byte for byte;
* a checkpoint recorded while the waiver packed segments is refused.
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
    make_injector,
    plan_scenario,
    run_scenario,
)
from tests.faults.test_checkpoint_resume import KillingExecutor, SimulatedKill

ALGORITHMS = ("bv", "dj", "ghz", "grover", "qft", "qpe")

BACKENDS = {
    "statevector": dict(noise="none", grid_step_deg=45.0),
    "density-matrix": dict(noise="light", grid_step_deg=45.0),
    # Every branch of a routed circuit is a 7-qubit density matrix, so
    # the machine sweeps the coarsest grid: four faults a site.
    "machine": dict(
        noise="calibrated",
        backend="machine",
        machine="jakarta",
        transpile={"optimization_level": 1, "seed": 7},
        grid_step_deg=180.0,
    ),
}

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
    "adaptive-refine": dict(
        algorithm="ghz", width=3, noise="light", grid_step_deg=30.0,
        adaptive={"coarse_points": 3, "gradient_threshold": 0.2},
    ),
}

# Pair and cluster sites: the waiver leaves them on the exact plans.
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


def waived(spec):
    return dataclasses.replace(spec, fused=True, bit_identical=False)


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


def assert_close_to_exact(spec):
    exact = run(spec)
    basis = run(waived(spec))
    assert basis.num_injections == exact.num_injections > 0
    assert fault_columns(basis) == fault_columns(exact)
    np.testing.assert_allclose(
        basis.qvf_values(), exact.qvf_values(), rtol=0, atol=1e-10
    )


class TestCloseToExact:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_grid(self, algorithm, backend):
        assert_close_to_exact(
            ScenarioSpec(algorithm=algorithm, width=3, **BACKENDS[backend])
        )

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_campaign_kinds(self, kind):
        assert_close_to_exact(ScenarioSpec(**KINDS[kind]))


class TestByteStable:
    @pytest.mark.parametrize("shots", [None, 128], ids=["exact", "sampled"])
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_across_strategies_and_resume(self, tmp_path, backend, shots):
        fields = dict(BACKENDS[backend], grid_step_deg=90.0)
        spec = waived(
            ScenarioSpec(
                algorithm="bv", width=3, shots=shots, seed=7, **fields
            )
        )
        cache = FactoryCache()
        reference = run(spec, cache=cache)
        basis = dict(response_basis=True)
        # Sites hold 12 faults, so chunks of 5 and 7 cut through them.
        strategies = {
            "serial": SerialExecutor(**basis),
            "batched": BatchedExecutor(**basis),
            "one-branch": SerialExecutor(max_branches=1, **basis),
            "workers2": ParallelExecutor(workers=2, chunk_size=5, **basis),
            "workers3": ParallelExecutor(workers=3, chunk_size=7, **basis),
        }
        for name, executor in strategies.items():
            result = run(spec, executor=executor, cache=cache)
            assert result.table.data.tobytes() == (
                reference.table.data.tobytes()
            ), name

        # Killed mid-site, then resumed from the checkpoint.
        path = str(tmp_path / "killed.ckpt")
        killer = KillingExecutor(SerialExecutor(batch_size=5, **basis), 17)
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
        spec = waived(
            ScenarioSpec(
                algorithm="bv", width=3, noise="light", grid_step_deg=90.0
            )
        )
        path = str(tmp_path / "packed.ckpt")
        run_scenario(spec, checkpoint_path=path)
        meta, table = read_segments(path)
        # The hash this spec had while the waiver packed segments.
        meta["metadata"]["spec_hash"] = "dee0930249d93445"
        compact(path, meta, table)
        with pytest.raises(ValueError, match="earlier record rules"):
            run_scenario(spec, checkpoint_path=path)


class TestPairAndClusterSites:
    @pytest.mark.parametrize("shape", sorted(PAIRS))
    def test_waived_pairs_equal_the_exact_run(self, shape):
        spec = ScenarioSpec(**PAIRS[shape])
        exact = run(spec)
        assert exact.table.has_second().all()
        assert run(waived(spec)).table.data.tobytes() == (
            exact.table.data.tobytes()
        )
