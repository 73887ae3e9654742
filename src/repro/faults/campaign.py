"""Campaign bookkeeping: columnar records, aggregation, serialization.

A campaign is a sweep over (fault configuration x injection point); its
result object produces every view the paper's evaluation plots need:

* Fig. 5 heatmaps — :meth:`CampaignResult.heatmap` (mean QVF per phase shift);
* Fig. 6 per-qubit heatmaps — :meth:`CampaignResult.for_qubit`;
* Fig. 7 histograms — :meth:`CampaignResult.histogram`;
* Fig. 8b double-fault averages — same heatmap on double-fault records;
* Fig. 8c detail surfaces — :meth:`CampaignResult.detail_surface`;
* Fig. 9 delta maps — :func:`delta_heatmap`;
* Fig. 10 distribution moments — :meth:`CampaignResult.mean_qvf` /
  :meth:`CampaignResult.std_qvf`.

Since the columnar refactor a result is a thin view over a
:class:`~repro.faults.records.RecordTable`: every aggregation runs as a
vectorized pass over the table's columns (grouped accumulation via
``np.bincount`` in record order, so cell means are *numerically identical*
to the historical per-record loops), and ``result.records`` materialises
the :class:`~repro.faults.records.InjectionRecord` dataclass view lazily
for consumers that still want objects.

Since the out-of-core refactor the backing table may also stay on disk:
:meth:`CampaignResult.open` wraps a segment store
(:class:`~repro.faults.store.StoreView`) without loading it, and every
aggregation streams the store in bounded memory-mapped windows. The
streamed passes *continue* the same sequential ``np.bincount`` folds
across window boundaries (each window's pass is seeded with the running
totals, and ``0.0 + x`` is exact), so an out-of-core aggregation is
bit-identical to the in-RAM aggregation of the same records — pinned by
``tests/faults/test_outofcore.py`` on every algorithm/backend/mode
combination the executors support.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .fault_model import PhaseShiftFault
from .injection_points import InjectionPoint
from .qvf import MASKED_THRESHOLD, SILENT_THRESHOLD, FaultClass
from .records import (
    RECORD_DTYPE,
    InjectionRecord,
    RecordTable,
    promote_record_array,
    record_sort_key,
)
from .store import DEFAULT_WINDOW_ROWS, SEGMENT_MAGIC, StoreView, open_store

__all__ = [
    "FRAMES",
    "InjectionRecord",
    "RecordTable",
    "CampaignResult",
    "delta_heatmap",
    "record_sort_key",
]

_ANGLE_TOL = 1e-9

#: Reporting frames for per-qubit views. ``wire`` is the campaign
#: circuit's own qubit index (the only frame a logical-circuit campaign
#: has); ``physical`` groups by device qubit and ``logical`` by the
#: pre-transpilation qubit whose state the fault corrupted — both only
#: populated for campaigns over transpiled circuits.
FRAMES = ("wire", "physical", "logical")

_FRAME_COLUMNS = {
    "wire": "qubit",
    "physical": "physical_qubit",
    "logical": "logical_qubit",
}

_CSV_COLUMNS = (
    "theta",
    "phi",
    "lam",
    "position",
    "qubit",
    "gate_name",
    "qvf",
    "second_theta",
    "second_phi",
    "second_qubit",
    "physical_qubit",
    "logical_qubit",
)


def _unique_sorted(values: np.ndarray) -> np.ndarray:
    """Cluster representatives of ``values`` under ``_ANGLE_TOL``.

    Vectorized version of the historical greedy pass: exact duplicates
    collapse through ``np.unique``; the (tiny) remaining axis is walked
    greedily so chained near-duplicates keep the first-of-cluster
    representative the list-based code chose.
    """
    unique = np.unique(np.asarray(values, dtype=np.float64))
    if unique.size <= 1:
        return unique
    out = [unique[0]]
    for value in unique[1:].tolist():
        if value - out[-1] > _ANGLE_TOL:
            out.append(value)
    return np.asarray(out)


def _axis_indices(values: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Cell index of each value on a `_unique_sorted` axis.

    Each value maps to the largest representative not exceeding it — its
    cluster head, since representatives are first-of-cluster.
    """
    if axis.size == 0:
        return np.zeros(0, dtype=np.intp)
    indices = np.searchsorted(axis, values, side="right") - 1
    return np.clip(indices, 0, axis.size - 1)


def _nearest_indices(axis: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the nearest axis value per query (ties -> lower index).

    `np.searchsorted` replacement for the historical per-query
    ``min(range(len(axis)), key=...)`` scans; identical tie-breaking.
    """
    pos = np.clip(np.searchsorted(axis, queries), 0, axis.size - 1)
    prev = np.maximum(pos - 1, 0)
    take_prev = np.abs(queries - axis[prev]) <= np.abs(axis[pos] - queries)
    return np.where(take_prev, prev, pos)


def _carry_bincount(
    total: np.ndarray, cells: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """One chunk's ``np.bincount`` fold, continued from ``total``.

    ``np.bincount`` accumulates its weights *sequentially in input
    order*; prepending one entry per cell carrying the running total
    seeds the new pass with exactly the old partial sums (``0.0 + x``
    is exact in IEEE-754), so folding a column chunk by chunk produces
    the same floats, bit for bit, as one pass over the whole column.
    """
    size = total.size
    return np.bincount(
        np.concatenate([np.arange(size), cells]),
        weights=np.concatenate([total, weights]),
        minlength=size,
    )


def _finish_grid(
    total: np.ndarray, count: np.ndarray, shape: Tuple[int, int]
) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        grid = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return grid.reshape(shape)


class CampaignResult:
    """Aggregated outcome of a fault-injection campaign.

    ``records`` accepts either a :class:`RecordTable` (the executors'
    native output, adopted as-is) or any sequence of
    :class:`InjectionRecord` (columnarised on construction). The table is
    treated as immutable; axes, QVF moments and the record-object view
    are computed once and cached.

    A result built by :meth:`open` instead holds a lazy
    :class:`~repro.faults.store.StoreView`: aggregations stream the
    store's segments in bounded windows (bit-identical to the in-RAM
    passes), and ``.table``/``.records`` materialise everything only
    when a consumer actually asks for objects or whole-table access.
    """

    def __init__(
        self,
        circuit_name: str,
        correct_states: Sequence[str],
        records: Union[RecordTable, Sequence[InjectionRecord], None],
        fault_free_qvf: float,
        backend_name: str = "unknown",
        metadata: Optional[Dict[str, object]] = None,
        store: Optional[StoreView] = None,
        window_rows: int = DEFAULT_WINDOW_ROWS,
    ) -> None:
        self.circuit_name = circuit_name
        self.correct_states = tuple(correct_states)
        if records is None:
            if store is None:
                raise ValueError("records or a store view is required")
            self._table: Optional[RecordTable] = None
        elif isinstance(records, RecordTable):
            self._table = records
        else:
            self._table = RecordTable.from_records(list(records))
        self._store = store
        self._window_rows = int(window_rows)
        self.fault_free_qvf = float(fault_free_qvf)
        self.backend_name = backend_name
        self.metadata = dict(metadata or {})
        self._qvf: Optional[np.ndarray] = None
        self._mean: Optional[float] = None
        self._std: Optional[float] = None
        self._thetas: Optional[np.ndarray] = None
        self._phis: Optional[np.ndarray] = None
        self._has_frames: Optional[bool] = None

    @classmethod
    def open(
        cls, path: str, window_rows: int = DEFAULT_WINDOW_ROWS
    ) -> "CampaignResult":
        """Open a segment store as a lazy, out-of-core result.

        Nothing is loaded here beyond the segment headers; aggregations
        stream the store in ``window_rows``-row memory-mapped windows
        and are bit-identical to loading the whole table first. Only
        segment stores can stay out-of-core — use :meth:`load` for the
        JSON/npz exports (which are whole-file formats anyway).
        """
        view = open_store(path)
        if view.meta is None:
            raise ValueError(f"{path!r} holds no campaign metadata")
        return cls.from_table_meta(
            view.meta, None, store=view, window_rows=window_rows
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def table(self) -> RecordTable:
        """The full record table (materialised from the store if lazy)."""
        if self._table is None:
            self._table = self._store.table()
        return self._table

    @property
    def is_lazy(self) -> bool:
        """True while the records still live on disk, not in RAM."""
        return self._table is None

    def _chunks(self) -> Iterator[RecordTable]:
        """Record-order table chunks: one per window (lazy) or the table.

        Every aggregation is written as a fold over these chunks; the
        in-RAM case is simply the one-chunk fold, which keeps the two
        paths numerically indistinguishable by construction.
        """
        if self._table is not None or self._store is None:
            yield self.table
        else:
            yield from self._store.iter_tables(self._window_rows)

    def iter_chunk_tables(self) -> Iterator[RecordTable]:
        """Public chunk iterator for out-of-core consumers.

        The analysis/query layer streams campaigns with this instead of
        ``.table`` to keep cross-suite passes bounded in memory.
        """
        return self._chunks()

    def _qvf_chunks(self) -> Iterator[np.ndarray]:
        """The QVF column in chunks (the cached array when available)."""
        if self._qvf is not None or not self.is_lazy:
            yield self.qvf_values()
        else:
            for chunk in self._chunks():
                yield chunk.column("qvf")

    @property
    def records(self) -> List[InjectionRecord]:
        """Record-object view (lazily materialised, cached; read-only)."""
        return self.table.to_records()

    @property
    def num_injections(self) -> int:
        if self._table is None:
            return self._store.num_records
        return len(self._table)

    def qvf_values(self) -> np.ndarray:
        """The QVF column as a contiguous array (cached; read-only).

        For a lazy result this gathers only the 8-byte QVF column —
        ~8% of the table's bytes — not the table itself.
        """
        if self._qvf is None:
            if self.is_lazy:
                qvf = np.empty(self.num_injections, dtype=np.float64)
                cursor = 0
                for chunk in self._chunks():
                    qvf[cursor : cursor + len(chunk)] = chunk.column("qvf")
                    cursor += len(chunk)
            else:
                qvf = np.ascontiguousarray(self.table.column("qvf"))
            qvf.flags.writeable = False
            self._qvf = qvf
        return self._qvf

    def mean_qvf(self) -> float:
        if self._mean is None:
            values = self.qvf_values()
            self._mean = float(values.mean()) if values.size else math.nan
        return self._mean

    def std_qvf(self) -> float:
        if self._std is None:
            values = self.qvf_values()
            self._std = float(values.std()) if values.size else math.nan
        return self._std

    def _column_unique(self, name: str) -> np.ndarray:
        """Distinct values of one column, streamed chunk by chunk.

        ``np.unique`` of the concatenated per-chunk uniques is the same
        sorted set ``np.unique`` of the whole column yields, at the
        memory cost of the distinct values only.
        """
        parts = [np.unique(chunk.column(name)) for chunk in self._chunks()]
        if not parts:
            return np.unique(np.empty(0, dtype=RECORD_DTYPE[name]))
        if len(parts) == 1:
            return parts[0]
        return np.unique(np.concatenate(parts))

    def _theta_axis(self) -> np.ndarray:
        if self._thetas is None:
            self._thetas = _unique_sorted(self._column_unique("theta"))
        return self._thetas

    def _phi_axis(self) -> np.ndarray:
        if self._phis is None:
            self._phis = _unique_sorted(self._column_unique("phi"))
        return self._phis

    def thetas(self) -> List[float]:
        return self._theta_axis().tolist()

    def phis(self) -> List[float]:
        return self._phi_axis().tolist()

    def has_frames(self) -> bool:
        """True when records carry physical/logical frame attribution.

        Campaigns over transpiled circuits do; logical-circuit campaigns
        (and artefacts recorded before topology-aware injection) do not,
        and only support the default ``wire`` frame.
        """
        if self._has_frames is None:
            self._has_frames = any(
                chunk.has_frame_info() for chunk in self._chunks()
            )
        return self._has_frames

    def _check_frame(self, frame: str) -> str:
        """Validate a reporting frame; returns its column name."""
        if frame not in _FRAME_COLUMNS:
            raise ValueError(
                f"unknown frame {frame!r} (choose from {FRAMES})"
            )
        if frame != "wire" and not self.has_frames():
            raise ValueError(
                f"campaign has no {frame}-frame attribution; only "
                f"campaigns over transpiled circuits are frame-aware"
            )
        return _FRAME_COLUMNS[frame]

    def qubits(self, frame: str = "wire") -> List[int]:
        """Distinct qubits injected into, in the requested frame.

        The ``-1`` "no qubit in this frame" sentinel (a fault on a wire
        that held no program state at that instant) is not a qubit and
        is excluded from non-wire frames.
        """
        values = self._column_unique(self._check_frame(frame))
        return values[values >= 0].tolist() if frame != "wire" else values.tolist()

    def positions(self) -> List[int]:
        return self._column_unique("position").tolist()

    def is_double(self) -> bool:
        return any(
            bool(chunk.has_second().any()) for chunk in self._chunks()
        )

    def layout_map(self):
        """The layout map of a transpiled campaign (``None`` otherwise).

        Rehydrated from ``metadata["transpile"]``, where the scenario
        factory records it — so a campaign loaded from any artefact
        (JSON, npz, segment store) can still translate wires to device
        qubits and positions to logical occupants without re-running the
        transpiler.
        """
        data = self.metadata.get("transpile")
        if not data:
            return None
        from .layout_map import LayoutMap

        return LayoutMap.from_metadata(data)

    # ------------------------------------------------------------------
    # Filters
    # ------------------------------------------------------------------
    def _filtered(
        self, predicate: Callable[[RecordTable], np.ndarray], tag: str
    ) -> "CampaignResult":
        """Rows where ``predicate(chunk)`` holds, as an in-RAM result.

        Selection streams the chunks and materialises only the matching
        rows; on an in-RAM result this is the familiar one-pass mask.
        """
        parts = [
            chunk.select(np.asarray(predicate(chunk)))
            for chunk in self._chunks()
        ]
        return CampaignResult(
            circuit_name=self.circuit_name,
            correct_states=self.correct_states,
            records=RecordTable.concatenate(parts),
            fault_free_qvf=self.fault_free_qvf,
            backend_name=self.backend_name,
            metadata={**self.metadata, "filter": tag},
        )

    def for_qubit(self, qubit: int, frame: str = "wire") -> "CampaignResult":
        """Records whose *first* fault hit ``qubit`` (Fig. 6 slicing).

        ``frame`` selects how the hit is attributed: ``wire`` (the
        campaign circuit's qubit index — the default and the only frame
        of a logical-circuit campaign), ``physical`` (device qubit of a
        transpiled campaign) or ``logical`` (the program qubit whose
        state occupied the wire when the fault struck, SWAP-tracked
        through routing).
        """
        column = self._check_frame(frame)
        return self._filtered(
            lambda chunk: chunk.column(column) == qubit,
            f"{frame}-qubit={qubit}",
        )

    def per_qubit_qvf(self, frame: str = "wire") -> Dict[int, float]:
        """Mean QVF per qubit in the requested frame (Fig. 6's ranking).

        Grouped ``np.bincount`` passes over the frame column, folded
        across chunks in record order (see :func:`_carry_bincount`);
        rows carrying the frame's ``-1`` sentinel (no qubit in this
        frame) are excluded.
        """
        column = self._check_frame(frame)
        totals = np.zeros(0)
        counts = np.zeros(0, dtype=np.int64)
        for chunk in self._chunks():
            values = np.asarray(chunk.column(column))
            keep = values >= 0
            values = values[keep]
            if not values.size:
                continue
            width = max(totals.size, int(values.max()) + 1)
            if width > totals.size:
                totals = np.pad(totals, (0, width - totals.size))
                counts = np.pad(counts, (0, width - counts.size))
            qvf = np.asarray(chunk.column("qvf"))[keep]
            totals = _carry_bincount(totals, values, qvf)
            counts += np.bincount(values, minlength=width).astype(np.int64)
        return {
            int(qubit): float(totals[qubit] / counts[qubit])
            for qubit in np.nonzero(counts)[0]
        }

    def for_position(self, position: int) -> "CampaignResult":
        return self._filtered(
            lambda chunk: chunk.column("position") == position,
            f"position={position}",
        )

    def singles(self) -> "CampaignResult":
        return self._filtered(lambda chunk: ~chunk.has_second(), "singles")

    def doubles(self) -> "CampaignResult":
        return self._filtered(lambda chunk: chunk.has_second(), "doubles")

    # ------------------------------------------------------------------
    # Aggregations (the paper's plots)
    # ------------------------------------------------------------------
    def heatmap(self) -> Tuple[List[float], List[float], np.ndarray]:
        """Mean QVF per (phi, theta) cell.

        Returns ``(thetas, phis, grid)`` with ``grid[i_phi, i_theta]`` the
        mean over all positions/qubits (and, for double campaigns, over all
        second-fault configurations) — exactly how Figs. 5 and 8b average.
        Cells never injected hold NaN. Streams the record chunks; cell
        totals fold across chunks in record order, so the grid is
        bit-identical however the records are chunked (or not).
        """
        thetas = self._theta_axis()
        phis = self._phi_axis()
        shape = (phis.size, thetas.size)
        total = np.zeros(shape[0] * shape[1])
        count = np.zeros(shape[0] * shape[1], dtype=np.int64)
        for chunk in self._chunks():
            cells = (
                _axis_indices(chunk.column("phi"), phis) * shape[1]
                + _axis_indices(chunk.column("theta"), thetas)
            )
            total = _carry_bincount(total, cells, chunk.column("qvf"))
            count += np.bincount(cells, minlength=count.size).astype(
                np.int64
            )
        return (
            thetas.tolist(),
            phis.tolist(),
            _finish_grid(total, count, shape),
        )

    def detail_surface(
        self, theta0: float, phi0: float
    ) -> Tuple[List[float], List[float], np.ndarray]:
        """QVF of every second fault for a fixed first fault (Fig. 8c).

        Returns ``(theta1_values, phi1_values, grid)`` with
        ``grid[i_phi1, i_theta1]`` the mean QVF over positions/couples.
        """

        def selected(chunk: RecordTable) -> np.ndarray:
            return chunk.has_second() & (
                np.abs(chunk.column("theta") - theta0) < _ANGLE_TOL
            ) & (np.abs(chunk.column("phi") - phi0) < _ANGLE_TOL)

        row_parts: List[np.ndarray] = []
        col_parts: List[np.ndarray] = []
        for chunk in self._chunks():
            mask = selected(chunk)
            if mask.any():
                row_parts.append(np.unique(chunk.column("second_phi")[mask]))
                col_parts.append(
                    np.unique(chunk.column("second_theta")[mask])
                )
        if not row_parts:
            raise ValueError(
                f"no double injections with first fault "
                f"(theta={theta0}, phi={phi0})"
            )
        rows = _unique_sorted(np.concatenate(row_parts))
        cols = _unique_sorted(np.concatenate(col_parts))
        shape = (rows.size, cols.size)
        total = np.zeros(shape[0] * shape[1])
        count = np.zeros(shape[0] * shape[1], dtype=np.int64)
        for chunk in self._chunks():
            mask = selected(chunk)
            if not mask.any():
                continue
            cells = (
                _axis_indices(chunk.column("second_phi")[mask], rows)
                * shape[1]
                + _axis_indices(chunk.column("second_theta")[mask], cols)
            )
            total = _carry_bincount(
                total, cells, chunk.column("qvf")[mask]
            )
            count += np.bincount(cells, minlength=count.size).astype(
                np.int64
            )
        return (
            cols.tolist(),
            rows.tolist(),
            _finish_grid(total, count, shape),
        )

    def histogram(
        self, bins: int = 20, density: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """QVF distribution over [0, 1] (Figs. 7 and 10).

        Streamed: per-chunk integer counts add exactly, and the density
        normalisation repeats ``np.histogram``'s own arithmetic on the
        merged counts, so the output matches the one-pass call bit for
        bit.
        """
        counts = None
        edges = None
        for values in self._qvf_chunks():
            chunk_counts, edges = np.histogram(
                values, bins=bins, range=(0.0, 1.0)
            )
            counts = chunk_counts if counts is None else counts + chunk_counts
        if counts is None:
            counts, edges = np.histogram(
                np.empty(0), bins=bins, range=(0.0, 1.0)
            )
        if not density:
            return counts, edges
        db = np.array(np.diff(edges), float)
        return counts / db / counts.sum(), edges

    def classification_counts(self) -> Dict[FaultClass, int]:
        """Number of masked / dubious / silent injections (streamed)."""
        masked = silent = size = 0
        for values in self._qvf_chunks():
            masked += int((values < MASKED_THRESHOLD).sum())
            silent += int((values > SILENT_THRESHOLD).sum())
            size += int(values.size)
        return {
            FaultClass.MASKED: masked,
            FaultClass.DUBIOUS: size - masked - silent,
            FaultClass.SILENT: silent,
        }

    def classification_fractions(self) -> Dict[FaultClass, float]:
        """Share of masked / dubious / silent injections."""
        total = self.num_injections
        if not total:
            return {cls: math.nan for cls in FaultClass}
        counts = self.classification_counts()
        return {cls: count / total for cls, count in counts.items()}

    def improved_fraction(self, tol: float = 1e-12) -> float:
        """Share of injections with QVF *better* than the fault-free run.

        The paper reports ~0.9% of injections compensating the intrinsic
        noise; this is that statistic.
        """
        total = self.num_injections
        if not total:
            return math.nan
        threshold = self.fault_free_qvf - tol
        improved = sum(
            int((values < threshold).sum()) for values in self._qvf_chunks()
        )
        return improved / total

    def qvf_at(self, theta: float, phi: float) -> float:
        """Mean QVF of the cell nearest (theta, phi)."""
        thetas, phis, grid = self.heatmap()
        j = int(np.abs(np.asarray(thetas) - theta).argmin())
        i = int(np.abs(np.asarray(phis) - phi).argmin())
        return float(grid[i, j])

    def _record_at(self, index: int) -> InjectionRecord:
        """Row ``index`` as a record, without materialising a lazy table."""
        if self.is_lazy:
            return self._store.record_row(index).record(0)
        return self.table.record(index)

    def top_faults(self, count: int) -> List[InjectionRecord]:
        """The ``count`` most damaging injections, worst first.

        Stable descending sort on the QVF column: ties keep record order,
        exactly as sorting the record list by ``-qvf`` did. Only the top
        records materialise (point row reads on a lazy result).
        """
        order = np.argsort(-self.qvf_values(), kind="stable")[:count]
        return [self._record_at(int(index)) for index in order]

    def sorted_records(self) -> List[InjectionRecord]:
        """Records in canonical :func:`record_sort_key` order."""
        return sorted(self.records, key=record_sort_key)

    @classmethod
    def merge(cls, results: Sequence["CampaignResult"]) -> "CampaignResult":
        """Combine shard results of one campaign into a single result.

        Shards must agree on circuit and correct states (the executor's
        chunked campaigns and multi-host sweeps both produce such shards);
        the fault-free QVF is taken from the first shard and records are
        concatenated in shard order.
        """
        if not results:
            raise ValueError("at least one result is required")
        first = results[0]
        for result in results:
            if result.circuit_name != first.circuit_name:
                raise ValueError(
                    f"cannot merge campaigns for {first.circuit_name!r} "
                    f"and {result.circuit_name!r}"
                )
            if result.correct_states != first.correct_states:
                raise ValueError("merged shards disagree on correct states")
        return cls(
            circuit_name=first.circuit_name,
            correct_states=first.correct_states,
            records=RecordTable.concatenate(
                [result.table for result in results]
            ),
            fault_free_qvf=first.fault_free_qvf,
            backend_name=first.backend_name,
            metadata={**first.metadata, "merged_shards": len(results)},
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def table_meta(self) -> Dict[str, object]:
        """The header :meth:`from_table_meta` decodes: everything but the
        records. Exports and segment stores (checkpoints, suite manifests,
        cache entries) carry it, so a stored result rehydrates whole."""
        return {
            "circuit_name": self.circuit_name,
            "correct_states": list(self.correct_states),
            "fault_free_qvf": self.fault_free_qvf,
            "backend_name": self.backend_name,
            "metadata": self.metadata,
        }

    @classmethod
    def from_table_meta(
        cls,
        meta: Dict[str, object],
        table: Optional[RecordTable],
        store: Optional[StoreView] = None,
        window_rows: int = DEFAULT_WINDOW_ROWS,
    ) -> "CampaignResult":
        """Build a result from a header/meta dict plus a record table.

        The one place the header schema is decoded — the npz loader, the
        segment-checkpoint loaders (eager and lazy) and the checkpoint
        runner all go through here.
        """
        return cls(
            circuit_name=meta["circuit_name"],
            correct_states=meta["correct_states"],
            records=table,
            fault_free_qvf=meta["fault_free_qvf"],
            backend_name=meta.get("backend_name", "unknown"),
            metadata=meta.get("metadata", {}),
            store=store,
            window_rows=window_rows,
        )

    def _row_dicts(self) -> Iterator[Dict[str, object]]:
        """Export rows, streamed chunk by chunk in record order."""
        for chunk in self._chunks():
            yield from chunk.row_dicts()

    def to_dict(self) -> Dict[str, object]:
        return {**self.table_meta(), "records": list(self._row_dicts())}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignResult":
        # RecordTable.from_records owns the columnar (NaN/-1 sentinel)
        # encoding; this stays a plain schema-to-record translation.
        def frame_qubit(raw: Dict[str, object], key: str) -> int:
            value = raw.get(key)
            return -1 if value is None else int(value)

        records = [
            InjectionRecord(
                fault=PhaseShiftFault(
                    raw["theta"], raw["phi"], raw.get("lam", 0.0)
                ),
                point=InjectionPoint(
                    raw["position"],
                    raw["qubit"],
                    raw["gate_name"],
                    physical_qubit=frame_qubit(raw, "physical_qubit"),
                    logical_qubit=frame_qubit(raw, "logical_qubit"),
                ),
                qvf=raw["qvf"],
                second_fault=(
                    PhaseShiftFault(raw["theta1"], raw["phi1"])
                    if raw.get("theta1") is not None
                    else None
                ),
                second_qubit=raw.get("qubit1"),
            )
            for raw in data["records"]
        ]
        return cls.from_table_meta(data, RecordTable.from_records(records))

    def to_json(self, path: str) -> None:
        """Serialise atomically: export consumers may re-write this file,
        and a kill mid-write must never leave a truncated campaign
        behind."""
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)
        os.replace(tmp_path, path)

    @classmethod
    def from_json(cls, path: str) -> "CampaignResult":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_npz(self, path: str) -> None:
        """Binary columnar export: the record table plus a JSON header.

        Written through an open handle so the path is honoured verbatim
        (``np.savez`` would append ``.npz`` to a bare filename), and
        atomically, like every other writer here.
        """
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "wb") as handle:
            np.savez(
                handle,
                records=self.table.data,
                gate_names=np.asarray(self.table.gate_names, dtype=np.str_),
                header=np.asarray(json.dumps(self.table_meta())),
            )
        os.replace(tmp_path, path)

    @classmethod
    def from_npz(cls, path: str) -> "CampaignResult":
        with np.load(path, allow_pickle=False) as archive:
            # promote_record_array upgrades pre-frame-column (v1)
            # archives; RecordTable adopts current-version rows as-is.
            table = RecordTable(
                promote_record_array(np.asarray(archive["records"])),
                [str(name) for name in archive["gate_names"]],
            )
            header = json.loads(str(archive["header"]))
        return cls.from_table_meta(header, table)

    def to_csv(self, path: str) -> None:
        """Flat-file export for external analysis (spreadsheets, R, ...).

        One row per record, streamed; ``repr`` floats, so values
        round-trip. Single faults leave the ``second_*`` fields empty.
        The ``physical_qubit``/``logical_qubit`` columns appear only for
        campaigns that carry frame attribution — an untranspiled
        campaign has no frame context, so emitting its ``-1`` sentinels
        (or blank cells) would only invite misreading; the header says
        exactly what the rows contain.
        """
        with_frames = self.has_frames()
        columns = _CSV_COLUMNS if with_frames else _CSV_COLUMNS[:-2]
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for row in self._row_dicts():
                cells = [
                    repr(row["theta"]),
                    repr(row["phi"]),
                    repr(row["lam"]),
                    row["position"],
                    row["qubit"],
                    row["gate_name"],
                    repr(row["qvf"]),
                    "" if row["theta1"] is None else repr(row["theta1"]),
                    "" if row["phi1"] is None else repr(row["phi1"]),
                    "" if row["qubit1"] is None else row["qubit1"],
                ]
                if with_frames:
                    cells += [
                        ""
                        if row["physical_qubit"] is None
                        else row["physical_qubit"],
                        ""
                        if row["logical_qubit"] is None
                        else row["logical_qubit"],
                    ]
                writer.writerow(cells)
        os.replace(tmp_path, path)

    @classmethod
    def load(cls, path: str) -> "CampaignResult":
        """Load a campaign from JSON, ``.npz``, or a segment checkpoint.

        Sniffs the format from the file's leading bytes, so CLI consumers
        can point at any artefact a campaign run leaves behind. Loads
        eagerly; use :meth:`open` to keep a segment store out-of-core.
        """
        with open(path, "rb") as handle:
            head = handle.read(4)
        if head == SEGMENT_MAGIC:
            result = cls.open(path)
            result.table  # materialise: load() promises an in-RAM result
            return result
        if head[:2] == b"PK":  # npz archives are zip files
            return cls.from_npz(path)
        try:
            return cls.from_json(path)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ValueError(
                f"{path!r} is not a campaign artefact (expected JSON, "
                f"npz, or a segment checkpoint; CSV exports are one-way)"
            ) from error

    def __repr__(self) -> str:
        return (
            f"CampaignResult({self.circuit_name!r}, "
            f"injections={self.num_injections}, "
            f"mean_qvf={self.mean_qvf():.4f})"
        )


def delta_heatmap(
    double: CampaignResult,
    single: CampaignResult,
    qubit: Optional[int] = None,
    frame: str = "wire",
) -> Tuple[List[float], List[float], np.ndarray]:
    """Fig. 9: double-fault QVF minus single-fault QVF per (phi, theta) cell.

    Grids are aligned on the cells present in both campaigns. Alignment
    runs as `np.searchsorted` nearest-cell lookups on the sorted axes
    (same ``_ANGLE_TOL`` membership test and the same lower-index
    tie-breaking the historical per-cell scans used), so building the
    delta grid is O((cells + grid) log grid) instead of O(cells x grid).

    ``qubit`` restricts both campaigns to one qubit before diffing,
    interpreted in the *same* ``frame`` for both
    (``wire``/``physical``/``logical`` — see
    :meth:`CampaignResult.for_qubit`); both campaigns must support that
    frame. To compare campaigns across *different* frames — e.g. a
    transpiled double against a logical-circuit single — pre-slice each
    side yourself (``delta_heatmap(double.for_qubit(q, "logical"),
    single.for_qubit(q))``) instead of passing ``qubit``.

    Both results may be lazy (:meth:`CampaignResult.open`); the
    constituent heatmaps stream without materialising either table.
    """
    if qubit is None:
        if frame != "wire":
            raise ValueError(
                "frame only applies when slicing by qubit; pass qubit= "
                "or pre-slice each campaign with for_qubit"
            )
    else:
        double = double.for_qubit(qubit, frame)
        single = single.for_qubit(qubit, frame)
    thetas_d, phis_d, grid_d = double.heatmap()
    thetas_s, phis_s, grid_s = single.heatmap()
    axis_t_d = np.asarray(thetas_d)
    axis_p_d = np.asarray(phis_d)
    axis_t_s = np.asarray(thetas_s)
    axis_p_s = np.asarray(phis_s)

    def common(axis_d: np.ndarray, axis_s: np.ndarray) -> np.ndarray:
        if axis_d.size == 0 or axis_s.size == 0:
            return axis_d[:0]
        nearest = _nearest_indices(axis_s, axis_d)
        return axis_d[np.abs(axis_d - axis_s[nearest]) < _ANGLE_TOL]

    thetas = common(axis_t_d, axis_t_s)
    phis = common(axis_p_d, axis_p_s)
    if thetas.size and phis.size:
        d_rows = _nearest_indices(axis_p_d, phis)
        d_cols = _nearest_indices(axis_t_d, thetas)
        s_rows = _nearest_indices(axis_p_s, phis)
        s_cols = _nearest_indices(axis_t_s, thetas)
        delta = (
            grid_d[np.ix_(d_rows, d_cols)] - grid_s[np.ix_(s_rows, s_cols)]
        )
    else:
        delta = np.empty((phis.size, thetas.size))
    return thetas.tolist(), phis.tolist(), delta
