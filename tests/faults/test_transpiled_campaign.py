"""Transpiled-circuit campaigns: executor bit-identity and frame columns.

The acceptance criterion of topology-aware injection: a campaign over a
transpiled circuit produces **bit-identical** record tables across the
Serial, Batched and Parallel executors — on the default response basis
and on the exact plans of the ``bit_identical: true`` opt-out alike —
and the frame columns survive every serialisation round trip.
"""

import os

import numpy as np
import pytest

from repro.faults import CampaignResult, delta_heatmap
from repro.faults.store import compact, read_segments
from repro.scenarios import ScenarioSpec, TranspileSpec, run_scenario


def tables_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise column equality (NaN sentinels compare equal)."""
    if a.dtype != b.dtype or len(a) != len(b):
        return False
    for name in a.dtype.names:
        column_a, column_b = a[name], b[name]
        if column_a.dtype.kind == "f":
            if not np.array_equal(column_a, column_b, equal_nan=True):
                return False
        elif not np.array_equal(column_a, column_b):
            return False
    return True


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        algorithm="qft",
        width=3,
        noise="light",
        grid_step_deg=90.0,
        machine="jakarta",
        transpile=TranspileSpec(),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@pytest.mark.parametrize(
    "bit_identical", [False, True], ids=["basis", "opted-out"]
)
class TestExecutorBitIdentity:
    @pytest.mark.parametrize("mode", ["single", "double"])
    def test_serial_batched_parallel_identical(self, mode, bit_identical):
        results = {
            executor: run_scenario(
                _spec(
                    mode=mode, executor=executor, bit_identical=bit_identical
                )
            )
            for executor in ("serial", "batched", "parallel")
        }
        serial = results["serial"].table.data
        assert tables_equal(serial, results["batched"].table.data)
        assert tables_equal(serial, results["parallel"].table.data)

    def test_sampled_serial_vs_batched_identical(self, bit_identical):
        sampled = dict(shots=128, seed=11, bit_identical=bit_identical)
        serial = run_scenario(_spec(executor="serial", **sampled))
        batched = run_scenario(_spec(executor="batched", **sampled))
        assert tables_equal(serial.table.data, batched.table.data)


class TestFrameColumns:
    def test_records_carry_frames(self):
        result = run_scenario(_spec())
        layout = result.layout_map()
        assert layout is not None
        data = result.table.data
        assert (data["physical_qubit"] >= 0).all()
        # Every row's physical qubit is its wire's static device home.
        wires = np.asarray(layout.wire_to_physical)
        assert np.array_equal(data["physical_qubit"], wires[data["qubit"]])
        # Logical attribution follows the layout walk per position.
        for row in result.table.data[:20]:
            assert row["logical_qubit"] == layout.logical_at(
                int(row["position"]), int(row["qubit"])
            )

    @pytest.mark.parametrize("executor", ["serial", "batched", "parallel"])
    def test_double_campaign_with_interleaved_measurements(self, executor):
        """Transpiled circuits measure mid-circuit; second faults must
        only target neighbours still live at the injection position.

        bv(3) on jakarta optimises to a gate list where a wire is
        measured *before* its neighbour's last gate — the exact shape
        that used to crash with "gate on already-measured qubit".
        """
        result = run_scenario(
            _spec(mode="double", algorithm="bv", executor=executor)
        )
        assert result.is_double()
        assert result.num_injections > 0
        # Every second fault struck a wire not yet measured: positions
        # of the first fault precede the neighbour's measurement.
        layout = result.layout_map()
        circuit_measures = {}
        # Reconstruct first-measure positions from the factory's circuit.
        from repro.scenarios import make_transpiled

        transpiled = make_transpiled(
            _spec(mode="double", algorithm="bv", executor=executor)
        )
        for position, inst in enumerate(transpiled.circuit):
            if inst.name == "measure":
                circuit_measures.setdefault(inst.qubits[0], position)
        data = result.table.data
        doubles = data[data["second_qubit"] >= 0]
        assert len(doubles)
        for row in doubles:
            measured_at = circuit_measures.get(int(row["second_qubit"]))
            if measured_at is not None:
                assert int(row["position"]) < measured_at

    def test_double_campaign_frames(self):
        result = run_scenario(_spec(mode="double", algorithm="ghz"))
        assert result.is_double()
        assert result.has_frames()
        # First-fault wires map consistently in the physical frame.
        layout = result.layout_map()
        data = result.table.data
        wires = np.asarray(layout.wire_to_physical)
        assert np.array_equal(data["physical_qubit"], wires[data["qubit"]])

    def test_for_qubit_frames_partition_records(self):
        result = run_scenario(_spec())
        for frame in ("wire", "physical", "logical"):
            total = sum(
                result.for_qubit(q, frame).num_injections
                for q in result.qubits(frame)
            )
            assert total == result.num_injections

    def test_delta_heatmap_frame_slicing(self):
        double = run_scenario(_spec(mode="double", algorithm="ghz"))
        single = run_scenario(_spec(algorithm="ghz"))
        qubit = double.qubits("logical")[0]
        thetas, phis, grid = delta_heatmap(
            double, single, qubit=qubit, frame="logical"
        )
        assert grid.shape == (len(phis), len(thetas))
        assert np.isfinite(grid).any()

    def test_delta_heatmap_rejects_frame_without_qubit(self):
        double = run_scenario(_spec(mode="double", algorithm="ghz"))
        single = run_scenario(_spec(algorithm="ghz"))
        with pytest.raises(ValueError, match="slicing by qubit"):
            delta_heatmap(double, single, frame="logical")


class TestSerializationRoundTrips:
    def _result(self):
        return run_scenario(_spec(algorithm="ghz"))

    def test_json_round_trip_preserves_frames(self, tmp_path):
        result = self._result()
        path = os.path.join(tmp_path, "campaign.json")
        result.to_json(path)
        loaded = CampaignResult.load(path)
        assert tables_equal(result.table.data, loaded.table.data)
        assert loaded.layout_map() == result.layout_map()

    def test_npz_round_trip_preserves_frames(self, tmp_path):
        result = self._result()
        path = os.path.join(tmp_path, "campaign.npz")
        result.to_npz(path)
        loaded = CampaignResult.load(path)
        assert tables_equal(result.table.data, loaded.table.data)

    def test_segment_store_round_trip_preserves_frames(self, tmp_path):
        result = self._result()
        path = os.path.join(tmp_path, "campaign.qfs")
        meta = {
            "circuit_name": result.circuit_name,
            "correct_states": list(result.correct_states),
            "fault_free_qvf": result.fault_free_qvf,
            "backend_name": result.backend_name,
            "metadata": result.metadata,
        }
        compact(path, meta, result.table)
        loaded_meta, loaded_table = read_segments(path)
        assert tables_equal(result.table.data, loaded_table.data)
        loaded = CampaignResult.from_table_meta(loaded_meta, loaded_table)
        assert loaded.layout_map() == result.layout_map()

    def test_csv_includes_frame_columns(self, tmp_path):
        result = self._result()
        path = os.path.join(tmp_path, "campaign.csv")
        result.to_csv(path)
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
        assert "physical_qubit" in header
        assert "logical_qubit" in header
