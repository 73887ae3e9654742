"""Out-of-core aggregation: bit-identity with the in-RAM paths.

The acceptance contract of the memory-mapped store: a campaign opened
lazily (``CampaignResult.open`` — segment headers only, payloads
streamed in memory-mapped windows) produces **byte-identical**
aggregations to the same campaign loaded whole, on every algorithm the
repo ships, in single and double mode, exact and sampled, transpiled
and not — and stays lazy while doing so.
"""

import functools

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS
from repro.faults import CampaignResult, RecordTable
from repro.faults.campaign import delta_heatmap
from repro.faults.records import RECORD_DTYPE, RECORD_DTYPE_V1
from repro.faults.store import (
    STORE_ALIGNMENT,
    STORE_FORMAT,
    _KIND_RECORDS,
    _pack_segment,
    append_record_segment,
    iter_segments,
    open_store,
    read_segments,
    write_meta_segment,
)
from repro.scenarios import ScenarioSpec, TranspileSpec, run_scenario
from repro.scenarios.cache import result_store_meta

ALGOS = sorted(ALGORITHMS)

VARIANTS = {
    "single-exact": {},
    "double-transpiled": {"mode": "double", "transpile": TranspileSpec()},
    "single-sampled": {"shots": 64, "seed": 7},
}


@functools.lru_cache(maxsize=None)
def campaign(algorithm: str, variant: str) -> CampaignResult:
    spec = ScenarioSpec(
        algorithm=algorithm,
        width=3,
        noise="none",
        grid_step_deg=90.0,
        **VARIANTS[variant],
    )
    return run_scenario(spec)


def store_of(result: CampaignResult, tmp_path, chunk: int = 17) -> str:
    """Write ``result`` as a multi-segment store (chunked appends)."""
    path = str(tmp_path / "campaign.qfs")
    write_meta_segment(path, result_store_meta(result))
    table = result.table
    for start in range(0, len(table), chunk):
        stop = min(start + chunk, len(table))
        append_record_segment(path, table[np.arange(start, stop)])
    return path


def grids_equal(a, b) -> bool:
    """Byte equality of (axes, grid) heatmap triples."""
    return (
        a[0] == b[0]
        and a[1] == b[1]
        and np.asarray(a[2]).tobytes() == np.asarray(b[2]).tobytes()
    )


def assert_bit_identical(eager: CampaignResult, lazy: CampaignResult):
    assert lazy.is_lazy
    assert lazy.num_injections == eager.num_injections
    assert lazy.qvf_values().tobytes() == eager.qvf_values().tobytes()
    assert lazy.mean_qvf() == eager.mean_qvf()
    assert lazy.std_qvf() == eager.std_qvf()
    assert lazy.thetas() == eager.thetas()
    assert lazy.phis() == eager.phis()
    assert lazy.positions() == eager.positions()
    assert lazy.has_frames() == eager.has_frames()
    assert lazy.is_double() == eager.is_double()
    assert grids_equal(lazy.heatmap(), eager.heatmap())
    frames = ["wire"] + (
        ["physical", "logical"] if eager.has_frames() else []
    )
    for frame in frames:
        assert lazy.qubits(frame) == eager.qubits(frame)
        assert lazy.per_qubit_qvf(frame) == eager.per_qubit_qvf(frame)
    for density in (True, False):
        counts_l, edges_l = lazy.histogram(density=density)
        counts_e, edges_e = eager.histogram(density=density)
        assert counts_l.tobytes() == counts_e.tobytes()
        assert edges_l.tobytes() == edges_e.tobytes()
    assert lazy.classification_counts() == eager.classification_counts()
    assert lazy.improved_fraction() == eager.improved_fraction()
    assert lazy.top_faults(7) == eager.top_faults(7)
    # The lazy side must have answered everything above without ever
    # materialising its table.
    assert lazy.is_lazy


class TestBitIdentityMatrix:
    """Every algorithm x (single/double, exact/sampled, transpiled)."""

    @pytest.mark.parametrize("algorithm", ALGOS)
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_lazy_equals_eager(self, algorithm, variant, tmp_path):
        result = campaign(algorithm, variant)
        path = store_of(result, tmp_path)
        eager = CampaignResult.load(path)
        # window_rows=13 deliberately straddles the 17-row segments, so
        # windows split inside segments and across their boundaries.
        lazy = CampaignResult.open(path, window_rows=13)
        assert_bit_identical(eager, lazy)

    @pytest.mark.parametrize("algorithm", ["bv", "qft"])
    def test_double_derived_views(self, algorithm, tmp_path):
        """Filters, delta maps and detail surfaces on double campaigns."""
        result = campaign(algorithm, "double-transpiled")
        path = store_of(result, tmp_path)
        eager = CampaignResult.load(path)
        lazy = CampaignResult.open(path, window_rows=13)

        for view in ("singles", "doubles"):
            table_e = getattr(eager, view)().table
            table_l = getattr(lazy, view)().table
            assert table_e.data.tobytes() == table_l.data.tobytes()

        delta_e = delta_heatmap(eager.doubles(), eager.singles())
        delta_l = delta_heatmap(lazy.doubles(), lazy.singles())
        assert grids_equal(delta_e, delta_l)

        first_double = eager.doubles().table
        theta0 = float(first_double.column("theta")[0])
        phi0 = float(first_double.column("phi")[0])
        assert grids_equal(
            eager.detail_surface(theta0, phi0),
            lazy.detail_surface(theta0, phi0),
        )
        assert lazy.is_lazy

    def test_window_size_is_irrelevant(self, tmp_path):
        """Any window size (1 row to whole store) gives the same bytes."""
        result = campaign("ghz", "single-exact")
        path = store_of(result, tmp_path)
        reference = CampaignResult.load(path).heatmap()
        for window_rows in (1, 7, 64, 10**6):
            lazy = CampaignResult.open(path, window_rows=window_rows)
            assert grids_equal(lazy.heatmap(), reference)


class TestStoreView:
    def test_record_table_open_is_lazy(self, tmp_path):
        result = campaign("bv", "single-exact")
        path = store_of(result, tmp_path)
        view = RecordTable.open(path)
        assert view.num_records == len(result.table)
        assert view.num_segments > 1
        assert view.nbytes == result.table.data.nbytes
        # Materialising through the view equals the eager loader.
        _, table = read_segments(path)
        assert view.table().data.tobytes() == table.data.tobytes()

    def test_payloads_are_aligned(self, tmp_path):
        result = campaign("bv", "single-exact")
        path = store_of(result, tmp_path)
        infos = list(iter_segments(path))
        assert any(info.kind == _KIND_RECORDS for info in infos)
        for info in infos:
            if info.kind == _KIND_RECORDS:
                assert info.payload_offset % STORE_ALIGNMENT == 0

    def test_store_format_recorded_and_meta_clean(self, tmp_path):
        result = campaign("bv", "single-exact")
        path = store_of(result, tmp_path)
        view = open_store(path)
        assert view.store_format == STORE_FORMAT
        # The version key is a store detail, not campaign metadata.
        assert "store_format" not in view.meta
        assert view.meta == result_store_meta(result)

    def test_record_row_matches_table(self, tmp_path):
        result = campaign("bv", "single-exact")
        path = store_of(result, tmp_path)
        view = RecordTable.open(path)
        table = view.table()
        for index in (0, 16, 17, len(table) - 1):
            row = view.record_row(index)
            assert len(row) == 1
            assert row.record(0) == table.record(index)
        with pytest.raises(IndexError):
            view.record_row(len(table))
        with pytest.raises(IndexError):
            view.record_row(-1)

    def test_segment_tables_are_zero_copy_views(self, tmp_path):
        result = campaign("bv", "single-exact")
        path = store_of(result, tmp_path)
        view = RecordTable.open(path)
        segment = view.segment_table(0)
        assert isinstance(segment.data, np.memmap)
        assert not segment.data.flags.writeable

    def test_mixed_v1_v2_segments_stream_promoted(self, tmp_path):
        result = campaign("bv", "single-exact")
        table = result.table
        v1 = np.zeros(len(table), dtype=RECORD_DTYPE_V1)
        for name in RECORD_DTYPE_V1.names:
            v1[name] = table.data[name]
        path = str(tmp_path / "mixed.qfs")
        write_meta_segment(path, result_store_meta(result))
        with open(path, "ab") as handle:
            # A v1 segment: no "columns" key, unaligned legacy layout.
            handle.write(
                _pack_segment(
                    b"R",
                    {"count": len(table), "gates": table.gate_names},
                    v1.tobytes(),
                )
            )
        append_record_segment(path, table)

        _, eager_table = read_segments(path)
        lazy = CampaignResult.open(path, window_rows=13)
        assert lazy.num_injections == 2 * len(table)
        eager = CampaignResult.load(path)
        assert_bit_identical(eager, lazy)
        # The v1 half is the v2 half with frame sentinels.
        assert np.all(
            eager_table.column("physical_qubit")[: len(table)] == -1
        )
