"""The campaign engine against the naive reference path.

The engine's standing invariant: on the exact simulators, the batched
path — group, tile, snapshot, branch batch, compiled segment plan,
vectorized scoring — produces records bit-identical to the naive
per-injection re-simulation (``prefix_reuse=False``, the per-task loop).
These tests pin it on every benchmark algorithm, for single- and
double-fault campaigns, exact and sampled, at any tile size, through the
process pool and the transpiled path, and on random circuits. Packed
segments (the ``bit_identical=False`` waiver) keep a weaker guarantee:
bitwise-stable across strategies and tile sizes, numerically close to
the naive path.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    bernstein_vazirani,
    deutsch_jozsa,
    ghz,
    grover,
    qft,
    qpe,
)
from repro.analysis.mitigation import MitigatedReadoutBackend
from repro.faults import (
    BatchedExecutor,
    CampaignPlan,
    InjectionTask,
    ParallelExecutor,
    QuFI,
    SerialExecutor,
    enumerate_injection_points,
    fault_grid,
)
from repro.faults.executor import TILE_WORKING_SET, score_branch_batch
from repro.machines import fake_jakarta
from repro.quantum import random_circuit
from repro.scenarios import ScenarioSpec, run_scenario
from repro.scenarios.factory import FactoryCache, make_segment_compiler
from repro.simulators import (
    BranchBatch,
    DensityMatrixSimulator,
    NoiseModel,
    ReadoutError,
    StatevectorSimulator,
    TrajectorySimulator,
    depolarizing_channel,
    supports_batched_branches,
    supports_snapshots,
)

ALGORITHM_BUILDERS = [
    bernstein_vazirani,
    deutsch_jozsa,
    qft,
    ghz,
    grover,
    qpe,
]

FAULTS = fault_grid(step_deg=90)
COUPLES = [(0, 1), (1, 2)]
PACKED = {"pack": True}


def build_noise_model(num_qubits: int) -> NoiseModel:
    model = NoiseModel("batched-test")
    model.add_all_qubit_error(
        depolarizing_channel(0.002),
        ["h", "x", "y", "z", "s", "t", "u", "p", "rx", "ry", "rz", "sx", "id"],
    )
    model.add_all_qubit_error(
        depolarizing_channel(0.01, num_qubits=2), ["cx", "cz", "cp", "swap"]
    )
    for qubit in range(num_qubits):
        model.add_readout_error(ReadoutError(0.015, 0.03), qubit)
    return model


def sv():
    return StatevectorSimulator()


def dm(num_qubits=3):
    return DensityMatrixSimulator(build_noise_model(num_qubits))


def machine():
    return fake_jakarta()


def mitigated_dm(num_qubits=3):
    model = build_noise_model(num_qubits)
    return MitigatedReadoutBackend(DensityMatrixSimulator(model), model)


def naive():
    """The reference path: every injection re-simulates its full circuit."""
    return SerialExecutor(prefix_reuse=False)


def tiled(backend, num_qubits=3, tile=3, **options):
    """An engine whose memory budget forces ``tile`` branches per batch."""
    budget = TILE_WORKING_SET * tile * backend.branch_state_nbytes(num_qubits)
    return BatchedExecutor(memory_budget=budget, **options)


def table_bytes(result):
    """A campaign's records as raw bytes — the bit-identity comparator."""
    return result.table.data.tobytes()


def single(make_backend, executor, target, **kwargs):
    return QuFI(make_backend(), executor=executor, **kwargs).run_campaign(
        target, faults=FAULTS
    )


def double(make_backend, executor, target):
    return QuFI(make_backend(), executor=executor).run_double_campaign(
        target, COUPLES, faults=FAULTS
    )


def legacy_sweep(qufi, spec, faults):
    """The naive per-injection loop, one ``run_injection`` at a time."""
    return [
        qufi.run_injection(spec.circuit, spec.correct_states, point, fault)
        for point in enumerate_injection_points(spec.circuit)
        for fault in faults
    ]


def assert_records_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.point == b.point
        assert a.fault == b.fault
        assert a.second_fault == b.second_fault
        assert a.second_qubit == b.second_qubit
        assert a.qvf == b.qvf


class TestSingleFaultEquivalence:
    """Engine == naive, exact mode, every benchmark algorithm."""

    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    @pytest.mark.parametrize("make_backend", [sv, dm], ids=["sv", "dm"])
    def test_all_algorithms(self, builder, make_backend):
        spec = builder(3)
        reference = single(make_backend, naive(), spec)
        assert_records_identical(
            legacy_sweep(QuFI(make_backend()), spec, FAULTS),
            reference.records,
        )
        for executor in (
            SerialExecutor(),
            BatchedExecutor(),
            tiled(make_backend()),
        ):
            assert table_bytes(reference) == table_bytes(
                single(make_backend, executor, spec)
            )

    def test_tile_size_one_still_matches(self):
        spec = qft(3)
        assert table_bytes(single(dm, naive(), spec)) == table_bytes(
            single(dm, tiled(dm(), tile=1), spec)
        )


class TestDoubleFaultEquivalence:
    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    def test_statevector_all_algorithms(self, builder):
        spec = builder(3)
        reference = table_bytes(double(sv, naive(), spec))
        for executor in (BatchedExecutor(), tiled(sv())):
            assert reference == table_bytes(double(sv, executor, spec))

    @pytest.mark.parametrize(
        "builder", [bernstein_vazirani, grover], ids=lambda b: b.__name__
    )
    def test_noisy_density_matrix_double(self, builder):
        spec = builder(3)
        assert table_bytes(double(dm, naive(), spec)) == table_bytes(
            double(dm, BatchedExecutor(), spec)
        )

    def test_reset_in_tail_stays_bit_identical(self):
        """Reset is the one tail operation with its own (channel) path;
        the engine and the naive loop must agree bit for bit across it."""
        from repro.quantum import QuantumCircuit

        qc = QuantumCircuit(3, 3, name="reset-tail")
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(1, 2)
        qc.reset(1)
        qc.h(1)
        qc.cx(1, 2)
        qc.measure_all()

        def run(executor):
            return QuFI(dm(), executor=executor).run_campaign(
                qc, correct_states=["000"], faults=FAULTS
            )

        reference = run(naive())
        assert reference.num_injections > 0
        assert table_bytes(reference) == table_bytes(run(BatchedExecutor()))


class TestSampledMode:
    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    def test_sampled_engine_matches_naive_stream(self, builder):
        """A finite shot budget scores branch by branch in task order, so
        the engine consumes the injector rng exactly as the naive loop."""
        spec = builder(3)
        assert table_bytes(
            single(sv, naive(), spec, shots=128, seed=11)
        ) == table_bytes(
            single(sv, BatchedExecutor(), spec, shots=128, seed=11)
        )


class BranchOnlySimulator(StatevectorSimulator):
    """A statevector backend whose scalar branch path is unavailable.

    Campaign workers must drive it through the batched protocol only.
    """

    def run_from_snapshot(self, *args, **kwargs):
        raise AssertionError("the scalar branch path must not run")


class TestPool:
    """The pool runs the engine: same records as in process and naive."""

    def test_parallel_matches_naive(self):
        executor = ParallelExecutor(workers=2).start()
        try:
            for builder in ALGORITHM_BUILDERS:
                spec = builder(3)
                assert table_bytes(single(sv, naive(), spec)) == table_bytes(
                    single(sv, executor, spec)
                )
            spec = qft(3)
            assert table_bytes(single(dm, naive(), spec)) == table_bytes(
                single(dm, executor, spec)
            )
        finally:
            executor.shutdown()

    def test_workers_run_the_batched_engine(self):
        spec = qft(3)
        tasks = tuple(
            InjectionTask(index=index, point=point, fault=fault)
            for index, (point, fault) in enumerate(
                (point, fault)
                for point in enumerate_injection_points(spec.circuit)
                for fault in FAULTS
            )
        )
        plan = CampaignPlan(
            circuit=spec.circuit,
            correct_states=tuple(spec.correct_states),
            tasks=tasks,
        )
        pooled = ParallelExecutor(workers=2).run(BranchOnlySimulator(), plan)
        in_process = SerialExecutor().run(StatevectorSimulator(), plan)
        assert pooled.data.tobytes() == in_process.data.tobytes()


class TestPackedWaiver:
    """Packed segments: bitwise-stable across strategies, close to naive."""

    def test_packed_stable_across_strategies_and_tiles(self):
        spec = qft(3)
        runs = [
            table_bytes(single(dm, executor, spec))
            for executor in (
                SerialExecutor(segment_options=PACKED),
                BatchedExecutor(segment_options=PACKED),
                tiled(dm(), segment_options=PACKED),
            )
        ]
        with ParallelExecutor(workers=2, segment_options=PACKED) as pool:
            runs.append(table_bytes(single(dm, pool, spec)))
        assert runs[0] == runs[1] == runs[2] == runs[3]

    def test_packed_close_to_naive(self):
        spec = qft(3)
        exact = single(dm, naive(), spec)
        packed = single(dm, BatchedExecutor(segment_options=PACKED), spec)
        np.testing.assert_allclose(
            packed.qvf_values(), exact.qvf_values(), atol=1e-9
        )


class TestTranspiled:
    def test_transpiled_engine_matches_naive(self):
        """Transpiled campaigns take the same engine; a fused spec that
        keeps bit-identity compiles the same unpacked plans."""
        spec = ScenarioSpec(
            algorithm="ghz",
            width=3,
            noise="light",
            grid_step_deg=90.0,
            executor="batched",
            transpile={"optimization_level": 1, "seed": 7},
        )
        reference = table_bytes(run_scenario(spec, executor=naive()))
        assert reference == table_bytes(run_scenario(spec))
        assert reference == table_bytes(
            run_scenario(dataclasses.replace(spec, fused=True))
        )


class TestMachineAndMitigation:
    """The machine and the mitigation wrapper over an exact backend run
    on the engine: records bit-identical to the naive per-task loop."""

    SPECS = {
        "machine": ScenarioSpec(
            algorithm="bv",
            width=3,
            noise="calibrated",
            backend="machine",
            machine="jakarta",
            grid_step_deg=90.0,
            transpile={"optimization_level": 1, "seed": 7},
            seed=7,
        ),
        "mitigation": ScenarioSpec(
            algorithm="bv",
            width=3,
            noise="light",
            grid_step_deg=90.0,
            seed=7,
            mitigation=True,
        ),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("shots", [None, 256], ids=["exact", "shots256"])
    def test_engine_matches_naive(self, name, shots):
        spec = dataclasses.replace(self.SPECS[name], shots=shots)
        pooled = dataclasses.replace(spec, executor="parallel", workers=2)
        reference = table_bytes(run_scenario(spec, executor=naive()))
        assert reference == table_bytes(run_scenario(spec))
        # Every task draws its shots from its own generator, so the pool
        # matches too, sampled or exact.
        assert reference == table_bytes(run_scenario(pooled))

    def test_mitigated_spec_shares_its_twins_compiler(self):
        cache = FactoryCache()
        mitigated = self.SPECS["mitigation"]
        twin = dataclasses.replace(mitigated, mitigation=False)
        compiler = make_segment_compiler(mitigated, cache)
        assert compiler is not None
        assert make_segment_compiler(twin, cache) is compiler


class TestProtocol:
    def test_batch_capable_backends(self):
        assert supports_batched_branches(StatevectorSimulator())
        assert supports_batched_branches(DensityMatrixSimulator())
        assert supports_batched_branches(machine())
        assert supports_batched_branches(mitigated_dm())

    def test_mitigated_trajectory_is_not_batch_capable(self):
        """The wrapper advertises the protocol only when its inner
        backend has it."""
        model = build_noise_model(3)
        wrapped = MitigatedReadoutBackend(TrajectorySimulator(model), model)
        assert not supports_snapshots(wrapped)
        assert not supports_batched_branches(wrapped)

    def test_mitigated_wrapper_survives_pickling(self):
        wrapped = mitigated_dm()
        clone = pickle.loads(pickle.dumps(wrapped))
        assert type(clone) is type(wrapped)
        assert supports_batched_branches(clone)

    @pytest.mark.parametrize(
        "make_backend",
        [sv, dm, machine, mitigated_dm],
        ids=["sv", "dm", "machine", "mitigated-dm"],
    )
    def test_branch_batch_rows_match_serial_results(self, make_backend):
        """Each BranchBatch row — its tail plan compiled by the backend —
        reproduces run_from_snapshot's dictionary: same keys (presence)
        and bit-identical values."""
        from repro.faults.executor import _branch_head

        spec = qft(3)
        backend = make_backend()
        faults = fault_grid(step_deg=45)
        points = enumerate_injection_points(spec.circuit)
        point = points[len(points) // 2]
        tasks = [
            InjectionTask(index=i, point=point, fault=fault)
            for i, fault in enumerate(faults)
        ]
        snapshot = backend.prefix_snapshot(
            spec.circuit, stop=point.position + 1
        )
        batch = backend.run_branches_from_snapshot(
            snapshot, spec.circuit, [_branch_head(t) for t in tasks]
        )
        assert batch.size == len(tasks)
        suffix = list(spec.circuit.instructions[point.position + 1 :])
        for index, task in enumerate(tasks):
            serial = backend.run_from_snapshot(
                snapshot, spec.circuit, _branch_head(task) + suffix
            )
            assert batch.result(index).probabilities == serial.probabilities

    def test_max_branches_chunks_do_not_change_records(self):
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=45)
        whole = QuFI(
            StatevectorSimulator(), executor=BatchedExecutor(max_branches=512)
        ).run_campaign(spec, faults=faults)
        chopped = QuFI(
            StatevectorSimulator(), executor=BatchedExecutor(max_branches=5)
        ).run_campaign(spec, faults=faults)
        assert_records_identical(whole.records, chopped.records)

    def test_fallback_to_per_task_loop_without_batch_support(self):
        """Snapshot-less backends still run correct campaigns on the
        engine (through the per-task loop)."""

        class OpaqueBackend:
            name = "opaque"

            def __init__(self):
                self._inner = StatevectorSimulator()

            def run(self, circuit, shots=None, seed=None):
                return self._inner.run(circuit, shots=shots, seed=seed)

        backend = OpaqueBackend()
        assert not supports_snapshots(backend)
        assert not supports_batched_branches(backend)
        spec = bernstein_vazirani(3)
        campaign = QuFI(
            backend, executor=BatchedExecutor()
        ).run_campaign(spec, faults=FAULTS)
        reference = QuFI(StatevectorSimulator()).run_campaign(
            spec, faults=FAULTS
        )
        assert_records_identical(campaign.records, reference.records)

    def test_bounded_preserves_strategy(self):
        bounded = BatchedExecutor(max_branches=32, batch_size=64).bounded(5)
        assert isinstance(bounded, BatchedExecutor)
        assert bounded.name == "batched"
        assert bounded.max_branches == 32
        assert bounded.batch_size == 5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BatchedExecutor(max_branches=0)
        with pytest.raises(ValueError):
            BatchedExecutor(batch_size=0)
        with pytest.raises(ValueError):
            SerialExecutor(memory_budget=0)

    def test_non_unitary_heads_rejected(self):
        from repro.quantum.circuit import Instruction
        from repro.quantum.gates import Measure

        spec = bernstein_vazirani(3)
        backend = StatevectorSimulator()
        snapshot = backend.prefix_snapshot(spec.circuit, stop=1)
        with pytest.raises(ValueError, match="unitary"):
            backend.run_branches_from_snapshot(
                snapshot,
                spec.circuit,
                [[Instruction(Measure(), (0,), (0,))]],
            )


class TestVectorizedScoring:
    def test_score_branch_batch_matches_scalar_qvf(self):
        """score_branch_batch on a hand-built batch equals per-row
        qvf_from_probabilities."""
        from repro.faults import qvf_from_probabilities

        probabilities = np.array(
            [
                [0.5, 0.0, 0.25, 0.25],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        present = probabilities > 0
        batch = BranchBatch(
            probabilities=probabilities,
            present=present,
            key_width=2,
            num_clbits=2,
            shots=None,
            metadata={},
        )
        scored = score_branch_batch(
            batch, ("00",), None, np.random.default_rng(0)
        )
        for row, value in zip(probabilities, scored):
            mapping = {
                format(k, "02b"): p for k, p in enumerate(row) if p > 0
            }
            assert value == qvf_from_probabilities(mapping, ("00",))


def _correct_states(circuit):
    """Fault-free most-probable state(s), as a user would define QVF."""
    probs = StatevectorSimulator().run(circuit).get_probabilities()
    best = max(probs.values())
    return tuple(s for s, p in probs.items() if p > best - 1e-9)


class TestRandomCircuits:
    """Property-based: the guarantee holds for arbitrary workloads."""

    @given(
        num_qubits=st.integers(min_value=2, max_value=3),
        depth=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_engine_bit_identical_on_random_circuits(
        self, num_qubits, depth, seed
    ):
        circuit = random_circuit(num_qubits, depth, seed=seed, measure=True)
        correct = _correct_states(circuit)
        for make_backend in (sv, lambda: dm(num_qubits)):

            def run(executor):
                return table_bytes(
                    QuFI(make_backend(), executor=executor).run_campaign(
                        circuit, correct_states=correct, faults=FAULTS
                    )
                )

            reference = run(naive())
            assert reference == run(BatchedExecutor())
            assert reference == run(tiled(make_backend(), num_qubits))

    @given(
        depth=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_double_faults_on_random_circuits(self, depth, seed):
        circuit = random_circuit(3, depth, seed=seed, measure=True)
        correct = _correct_states(circuit)

        def run(executor):
            return table_bytes(
                QuFI(sv(), executor=executor).run_double_campaign(
                    circuit, COUPLES, correct_states=correct, faults=FAULTS
                )
            )

        assert run(naive()) == run(BatchedExecutor())

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_packed_stable_on_random_circuits(self, seed):
        circuit = random_circuit(3, 4, seed=seed, measure=True)
        correct = _correct_states(circuit)
        runs = [
            table_bytes(
                QuFI(sv(), executor=executor).run_campaign(
                    circuit, correct_states=correct, faults=FAULTS
                )
            )
            for executor in (
                BatchedExecutor(segment_options=PACKED),
                tiled(sv(), tile=1, segment_options=PACKED),
            )
        ]
        assert runs[0] == runs[1]
