"""Out-of-core aggregation scaling: peak RSS stays far below the table.

The memory-mapped store's acceptance number: aggregating a ~1M-record
segment store through ``CampaignResult.open`` (windowed ``np.memmap``
streaming) must keep the *process* peak RSS under 25% of the table's
byte size — while producing aggregates identical to the eager loader,
which by construction materialises the whole table.

tracemalloc cannot see memory-mapped pages (they are not Python
allocations), so each measurement runs in a subprocess and reads
``resource.getrusage(RUSAGE_SELF).ru_maxrss``; a baseline subprocess
(same imports, store opened header-only) is subtracted so the assertion
tracks the aggregation's own footprint, not the interpreter's. Timings
and RSS numbers land in ``mmap_timings.json`` so CI can archive the
trend next to the aggregation-speedup artifact.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.faults import CampaignResult, RecordTable
from repro.faults.store import append_record_segment, write_meta_segment

N_ROWS = 1_048_576
SEGMENT_ROWS = 65_536
TIMINGS_PATH = "mmap_timings.json"
RSS_FRACTION = 0.25  # lazy budget, as a fraction of table bytes

_DRIVER = """
import json, resource, sys, time

path, mode = sys.argv[1], sys.argv[2]
import numpy as np
from repro.faults.campaign import CampaignResult
from repro.faults.store import open_store


def aggregates(result):
    thetas, phis, grid = result.heatmap()
    counts, edges = result.histogram()
    return {
        "num_injections": result.num_injections,
        "mean_qvf": result.mean_qvf(),
        "std_qvf": result.std_qvf(),
        "grid_shape": list(np.asarray(grid).shape),
        "grid_sum": float(np.nansum(grid)),
        "per_qubit": {
            str(q): v for q, v in result.per_qubit_qvf().items()
        },
        "classes": {
            cls.name: n
            for cls, n in result.classification_counts().items()
        },
        "improved": result.improved_fraction(),
        "histogram_sum": float(np.asarray(counts).sum()),
    }


start = time.perf_counter()
if mode == "baseline":
    view = open_store(path)  # segment headers only; no payload touched
    out = {"records": view.num_records, "nbytes": view.nbytes}
elif mode == "lazy":
    result = CampaignResult.open(path)
    out = aggregates(result)
    assert result.is_lazy
else:
    result = CampaignResult.load(path)  # materialises the whole table
    out = aggregates(result)
    out["table_nbytes"] = int(result.table.data.nbytes)
out["seconds"] = time.perf_counter() - start
out["peak_rss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
print(json.dumps(out))
"""


def synthetic_chunk(rng, n=SEGMENT_ROWS):
    """One segment of a plausible paper-scale sweep (13 x 24 grid)."""
    thetas = np.radians(np.arange(0, 181, 15.0))
    phis = np.radians(np.arange(0, 360, 15.0))
    return RecordTable.from_columns(
        theta=thetas[rng.integers(0, len(thetas), n)],
        phi=phis[rng.integers(0, len(phis), n)],
        qvf=rng.uniform(0.0, 1.0, n),
        position=rng.integers(0, 60, n),
        qubit=rng.integers(0, 8, n),
        gate_ids=np.zeros(n, dtype=np.int64),
        gate_names=["h"],
    )


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    """A ~1M-record, multi-segment store written chunk by chunk."""
    path = str(tmp_path_factory.mktemp("mmap") / "million.qfs")
    rng = np.random.default_rng(2022)
    first = synthetic_chunk(rng)
    meta = CampaignResult("synthetic", ("0" * 8,), first, 0.02).table_meta()
    write_meta_segment(path, meta)
    append_record_segment(path, first)
    for _ in range(N_ROWS // SEGMENT_ROWS - 1):
        append_record_segment(path, synthetic_chunk(rng))
    return path


def run_driver(store_path, mode):
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, store_path, mode],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.memory
class TestMmapPeakRss:
    """Acceptance: lazy aggregation of ~1M records in < 25% of the table."""

    def test_lazy_aggregation_stays_out_of_core(self, store_path):
        baseline = run_driver(store_path, "baseline")
        lazy = run_driver(store_path, "lazy")
        eager = run_driver(store_path, "eager")

        assert baseline["records"] == N_ROWS
        nbytes = baseline["nbytes"]
        lazy_delta = lazy["peak_rss"] - baseline["peak_rss"]
        eager_delta = eager["peak_rss"] - baseline["peak_rss"]

        timings = {
            "records": N_ROWS,
            "table_bytes": nbytes,
            "baseline_rss": baseline["peak_rss"],
            "lazy_rss": lazy["peak_rss"],
            "eager_rss": eager["peak_rss"],
            "lazy_rss_delta": lazy_delta,
            "eager_rss_delta": eager_delta,
            "lazy_fraction_of_table": lazy_delta / nbytes,
            "lazy_seconds": lazy["seconds"],
            "eager_seconds": eager["seconds"],
        }
        with open(TIMINGS_PATH, "w", encoding="utf-8") as handle:
            json.dump(timings, handle, indent=2)
        print(
            f"\nmmap aggregation, {N_ROWS} records "
            f"({nbytes / 2**20:.0f} MiB table): lazy +"
            f"{lazy_delta / 2**20:.1f} MiB vs eager +"
            f"{eager_delta / 2**20:.1f} MiB over a "
            f"{baseline['peak_rss'] / 2**20:.0f} MiB baseline"
        )

        # Both paths computed the same campaign, bit for bit (floats
        # round-trip exactly through json's repr-based encoding).
        for key in set(lazy) - {"seconds", "peak_rss"}:
            assert lazy[key] == eager[key], key

        # The eager run holds the whole table in memory by construction
        # (its driver reports the materialised byte count; its RSS delta
        # is informational only — the baseline subtraction is too noisy
        # under a loaded machine to gate on). The lazy run must never
        # come near the table's size.
        assert eager["table_nbytes"] == nbytes
        assert lazy_delta < RSS_FRACTION * nbytes
