"""Columnar aggregation scaling: the results layer as array passes.

PRs 1-2 made fault *execution* fast; at paper scale (hundreds of
thousands of records per sweep) the remaining hot path was the results
layer — ``heatmap``/``histogram`` walking per-record Python dataclasses.
The columnar ``RecordTable`` rewrites those views as vectorized column
passes (``np.bincount`` grouping, cached contiguous QVF column).

This bench pins the acceptance number: >= 5x over the list-based
reference loops on a >= 100k-record synthetic campaign, with grids that
match to 1e-12. Timings land in ``aggregation_timings.json`` so CI can
archive the trend.
"""

import json
import math
import time

import numpy as np

from repro.faults import CampaignResult, RecordTable
from repro.faults.qvf import FaultClass

from .speedup import best_speedup

N_RECORDS = 120_000
TIMINGS_PATH = "aggregation_timings.json"
_ANGLE_TOL = 1e-9


def synthetic_campaign(n=N_RECORDS, seed=2022):
    """A plausible paper-scale sweep: 13 x 24 grid, 8 qubits, 60 sites."""
    rng = np.random.default_rng(seed)
    thetas = np.radians(np.arange(0, 181, 15.0))
    phis = np.radians(np.arange(0, 360, 15.0))
    table = RecordTable.from_columns(
        theta=thetas[rng.integers(0, len(thetas), n)],
        phi=phis[rng.integers(0, len(phis), n)],
        qvf=rng.uniform(0.0, 1.0, n),
        position=rng.integers(0, 60, n),
        qubit=rng.integers(0, 8, n),
        gate_ids=np.zeros(n, dtype=np.int64),
        gate_names=["h"],
    )
    return CampaignResult("synthetic", ("00000000",), table, 0.02)


# ----------------------------------------------------------------------
# The list-based reference (the pre-columnar implementation, verbatim)
# ----------------------------------------------------------------------
def legacy_unique_sorted(values):
    out = []
    for value in sorted(values):
        if not out or value - out[-1] > _ANGLE_TOL:
            out.append(value)
    return out


def legacy_heatmap(records):
    thetas = legacy_unique_sorted([r.fault.theta for r in records])
    phis = legacy_unique_sorted([r.fault.phi for r in records])
    theta_index = {round(t, 9): i for i, t in enumerate(thetas)}
    phi_index = {round(p, 9): i for i, p in enumerate(phis)}
    total = np.zeros((len(phis), len(thetas)))
    count = np.zeros((len(phis), len(thetas)))
    for record in records:
        i = phi_index[round(record.fault.phi, 9)]
        j = theta_index[round(record.fault.theta, 9)]
        total[i, j] += record.qvf
        count[i, j] += 1
    with np.errstate(invalid="ignore"):
        grid = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return thetas, phis, grid


def legacy_histogram(records, bins=20):
    return np.histogram(
        np.array([r.qvf for r in records]),
        bins=bins,
        range=(0.0, 1.0),
        density=True,
    )


def legacy_classification_counts(records):
    counts = {cls: 0 for cls in FaultClass}
    for record in records:
        counts[record.classification()] += 1
    return counts


class TestAggregationSpeedup:
    """Acceptance: >= 5x on heatmap+histogram over >= 100k records."""

    def test_columnar_vs_list_aggregation(self, benchmark):
        reference = synthetic_campaign()
        records = reference.records  # materialised once, outside timing
        timings = {}

        def measure():
            start = time.perf_counter()
            thetas_l, phis_l, grid_l = legacy_heatmap(records)
            density_l, edges_l = legacy_histogram(records)
            t_legacy = time.perf_counter() - start

            # Fresh result per round: timing covers the real column
            # passes, not the per-result caches.
            columnar = CampaignResult(
                reference.circuit_name,
                reference.correct_states,
                reference.table,
                reference.fault_free_qvf,
            )
            start = time.perf_counter()
            thetas_c, phis_c, grid_c = columnar.heatmap()
            density_c, edges_c = columnar.histogram()
            t_columnar = time.perf_counter() - start

            assert thetas_c == thetas_l and phis_c == phis_l
            assert np.allclose(grid_c, grid_l, atol=1e-12, rtol=0)
            assert np.allclose(density_c, density_l, atol=1e-12, rtol=0)
            assert np.array_equal(edges_c, edges_l)

            speedup = t_legacy / t_columnar
            timings.update(
                records=len(records),
                legacy_seconds=t_legacy,
                columnar_seconds=t_columnar,
                speedup=speedup,
            )
            print(
                f"\naggregation, {len(records)} records: "
                f"list {t_legacy:.3f}s vs columnar {t_columnar:.4f}s "
                f"-> {speedup:.1f}x"
            )
            return speedup

        speedup = benchmark.pedantic(
            lambda: best_speedup(measure, 5.0), rounds=1, iterations=1
        )
        with open(TIMINGS_PATH, "w", encoding="utf-8") as handle:
            json.dump(timings, handle, indent=2)
        assert speedup >= 5.0

    def test_classification_counts_match(self):
        """The vectorized counts agree with per-record classification."""
        reference = synthetic_campaign(n=50_000, seed=7)
        assert reference.classification_counts() == (
            legacy_classification_counts(reference.records)
        )
        fractions = reference.classification_fractions()
        assert math.isclose(sum(fractions.values()), 1.0, abs_tol=1e-12)
