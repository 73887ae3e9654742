"""The campaign execution engine: equivalence, determinism, streaming."""

import math
import warnings

import numpy as np
import pytest

from repro.algorithms import bernstein_vazirani
from repro.faults import (
    BatchedExecutor,
    CampaignPlan,
    CampaignResult,
    CheckpointedRunner,
    InjectionTask,
    ParallelExecutor,
    QuFI,
    SerialExecutor,
    enumerate_injection_points,
    fault_grid,
    record_sort_key,
    run_strike_campaign,
)
from repro.faults.executor import _chunk_tasks, _reseed_backend, _run_chunk
from repro.faults.qvf import qvf_from_probabilities
from repro.scenarios import FactoryCache, ScenarioSpec, run_scenario
from repro.simulators import (
    DensityMatrixSimulator,
    NoiseModel,
    ReadoutError,
    StatevectorSimulator,
    TrajectorySimulator,
    depolarizing_channel,
    supports_snapshots,
)


def build_noise_model(num_qubits: int) -> NoiseModel:
    model = NoiseModel("executor-test")
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


def legacy_sweep(qufi, spec, faults, points=None):
    """The naive per-injection loop the engine replaced."""
    points = (
        points
        if points is not None
        else enumerate_injection_points(spec.circuit)
    )
    return [
        qufi.run_injection(spec.circuit, spec.correct_states, point, fault)
        for point in points
        for fault in faults
    ]


def per_task_reference(backend, spec, faults, shots, seed):
    """QVFs of the naive loop under the one seeding rule.

    Task ``k`` (point outer, fault inner) re-runs its full faulty
    circuit, and every random draw of it comes from one generator,
    ``default_rng((seed, k))``: a backend that samples inside ``run``
    receives it as the run seed, then the shots are re-sampled from it.
    """
    points = enumerate_injection_points(spec.circuit)
    per_run = getattr(backend, "per_run_seeding", False)
    qvfs = []
    for k, (point, fault) in enumerate(
        (point, fault) for point in points for fault in faults
    ):
        rng = np.random.default_rng((seed, k))
        circuit = QuFI.build_faulty_circuit(spec.circuit, point, fault)
        result = (
            backend.run(circuit, seed=rng) if per_run else backend.run(circuit)
        )
        counts = result.sample_counts(shots, rng)
        qvfs.append(
            qvf_from_probabilities(counts.probabilities(), spec.correct_states)
        )
    return qvfs


def assert_records_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.point == b.point
        assert a.fault == b.fault
        assert a.second_fault == b.second_fault
        assert a.second_qubit == b.second_qubit
        assert a.qvf == b.qvf


class TestEquivalence:
    """Acceptance: serial, parallel and legacy sweeps agree exactly."""

    def test_bv_statevector_serial_parallel_legacy_identical(self):
        """BV + fault_grid(45) on statevector: identical records under
        SerialExecutor, ParallelExecutor(workers=4), and the legacy loop."""
        spec = bernstein_vazirani(4)
        faults = fault_grid(step_deg=45)

        legacy = legacy_sweep(QuFI(StatevectorSimulator()), spec, faults)
        serial = QuFI(
            StatevectorSimulator(), executor=SerialExecutor()
        ).run_campaign(spec, faults=faults)
        parallel = QuFI(
            StatevectorSimulator(), executor=ParallelExecutor(workers=4)
        ).run_campaign(spec, faults=faults)

        assert_records_identical(legacy, serial.records)
        assert_records_identical(legacy, parallel.records)
        # ... and after canonical sorting, still identical.
        assert_records_identical(
            sorted(serial.records, key=record_sort_key),
            sorted(parallel.records, key=record_sort_key),
        )

    def test_prefix_reuse_matches_full_resimulation_noisy(self):
        """Prefix reuse vs full re-simulation QVF agreement to 1e-12 on the
        noisy density-matrix backend (in practice: bit-identical)."""
        spec = bernstein_vazirani(4)
        backend = DensityMatrixSimulator(build_noise_model(4))
        faults = fault_grid(step_deg=45)
        reused = QuFI(backend, executor=SerialExecutor()).run_campaign(
            spec, faults=faults
        )
        resimulated = QuFI(
            backend, executor=SerialExecutor(prefix_reuse=False)
        ).run_campaign(spec, faults=faults)
        assert len(reused.records) == len(resimulated.records)
        for a, b in zip(reused.records, resimulated.records):
            assert a.qvf == pytest.approx(b.qvf, abs=1e-12)

    def test_double_campaign_prefix_reuse_identical(self):
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        couples = [(0, 1), (1, 2)]
        qufi_fast = QuFI(StatevectorSimulator())
        qufi_slow = QuFI(
            StatevectorSimulator(),
            executor=SerialExecutor(prefix_reuse=False),
        )
        fast = qufi_fast.run_double_campaign(spec, couples, faults=faults)
        slow = qufi_slow.run_double_campaign(spec, couples, faults=faults)
        assert fast.num_injections > 0
        assert_records_identical(fast.records, slow.records)

    def test_custom_unsorted_points_still_match_legacy(self):
        """Prefix chaining must survive points in arbitrary order."""
        spec = bernstein_vazirani(4)
        faults = fault_grid(step_deg=90)
        points = enumerate_injection_points(spec.circuit)
        shuffled = points[::-1] + points[:1]  # descending plus a repeat
        legacy = legacy_sweep(
            QuFI(StatevectorSimulator()), spec, faults, points=shuffled
        )
        campaign = QuFI(StatevectorSimulator()).run_campaign(
            spec, faults=faults, points=shuffled
        )
        assert_records_identical(legacy, campaign.records)

    def test_fallback_backend_without_snapshots(self):
        """Backends lacking the snapshot protocol still run campaigns."""

        class OpaqueBackend:
            name = "opaque"

            def __init__(self):
                self._inner = StatevectorSimulator()

            def run(self, circuit, shots=None, seed=None):
                return self._inner.run(circuit, shots=shots, seed=seed)

        backend = OpaqueBackend()
        assert not supports_snapshots(backend)
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        campaign = QuFI(backend).run_campaign(spec, faults=faults)
        reference = QuFI(StatevectorSimulator()).run_campaign(
            spec, faults=faults
        )
        assert_records_identical(campaign.records, reference.records)


# One backend of each kind the engine drives: the exact simulators, the
# transpiled machine and readout mitigation on the batched path, and the
# trajectory simulator on the per-task path.
PARITY_BACKENDS = {
    "statevector": dict(algorithm="bv", width=3, noise="none"),
    "density-matrix": dict(algorithm="ghz", width=3, noise="light"),
    "machine": dict(
        algorithm="bv",
        width=3,
        noise="calibrated",
        backend="machine",
        machine="jakarta",
        transpile={"optimization_level": 1, "seed": 7},
    ),
    "mitigated": dict(algorithm="bv", width=3, noise="light", mitigation=True),
    "trajectory": dict(
        algorithm="bv",
        width=3,
        noise="light",
        backend="trajectory",
        trajectories=8,
    ),
}


class TestDeterminism:
    def test_serial_sampled_campaign_matches_legacy_rng_stream(self):
        """With a shot budget, the serial executor scores task k from
        ``default_rng((seed, k))``, as the naive per-task reference does."""
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        backend = StatevectorSimulator()

        reference = per_task_reference(backend, spec, faults, 256, 11)
        campaign = QuFI(backend, shots=256, seed=11).run_campaign(
            spec, faults=faults
        )
        assert campaign.qvf_values().tolist() == reference

    def test_trajectory_with_shots_scores_from_the_run_generator(self):
        """A trajectory task draws its noise realisations and then its
        shots from one generator, in that order."""
        model = build_noise_model(3)
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        reference = per_task_reference(
            TrajectorySimulator(model, trajectories=8), spec, faults, 128, 7
        )
        campaign = QuFI(
            TrajectorySimulator(model, trajectories=8), shots=128, seed=7
        ).run_campaign(spec, faults=faults)
        assert campaign.qvf_values().tolist() == reference

    def test_parallel_sampled_campaign_deterministic_per_seed(self):
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)

        def run():
            return QuFI(
                StatevectorSimulator(),
                shots=128,
                seed=5,
                executor=ParallelExecutor(workers=2),
            ).run_campaign(spec, faults=faults)

        first, second = run(), run()
        assert_records_identical(first.records, second.records)

    @pytest.mark.parametrize("executor_name", ["serial", "batched"])
    def test_seeded_sampled_runs_reproducible_per_backend(
        self, executor_name
    ):
        """shots != None with a fixed seed reproduces the exact same
        records on every exact backend, for both in-process strategies."""
        from repro.faults import BatchedExecutor

        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        backends = [
            StatevectorSimulator,
            lambda: DensityMatrixSimulator(build_noise_model(3)),
        ]
        for make_backend in backends:
            def run():
                executor = (
                    SerialExecutor()
                    if executor_name == "serial"
                    else BatchedExecutor()
                )
                return QuFI(
                    make_backend(), shots=128, seed=7, executor=executor
                ).run_campaign(spec, faults=faults)

            assert_records_identical(run().records, run().records)

    @pytest.mark.parametrize("mode", ["single", "double"])
    @pytest.mark.parametrize("backend", sorted(PARITY_BACKENDS))
    def test_parallel_chunk_streams_stable_across_worker_counts(
        self, tmp_path, backend, mode
    ):
        """Sampled records depend on the spec alone: every strategy —
        in process, tiled one branch at a time, pools of 2 and 3 workers
        at two chunk sizes, checkpointed — equals the naive loop."""
        spec = ScenarioSpec(
            **PARITY_BACKENDS[backend],
            mode=mode,
            # The 90-degree double campaign on the 7-qubit machine takes
            # ten times longer than any other case, so it sweeps 180.
            grid_step_deg=(
                180.0 if (backend, mode) == ("machine", "double") else 90.0
            ),
            shots=128,
            seed=7,
        )
        cache = FactoryCache()

        def table_bytes(executor, checkpoint_path=None):
            with warnings.catch_warnings():
                # Sandboxes without process pools degrade to in-process
                # runs; the records must not notice.
                warnings.simplefilter("ignore", RuntimeWarning)
                result = run_scenario(
                    spec,
                    cache=cache,
                    executor=executor,
                    checkpoint_path=checkpoint_path,
                )
            return result.table.data.tobytes()

        naive = table_bytes(SerialExecutor(prefix_reuse=False))
        strategies = {
            "serial": SerialExecutor(),
            "batched": BatchedExecutor(),
            "one-branch": SerialExecutor(max_branches=1),
            "workers2": ParallelExecutor(workers=2, chunk_size=16),
            "workers3": ParallelExecutor(workers=3, chunk_size=7),
        }
        for name, executor in strategies.items():
            assert table_bytes(executor) == naive, name
        checkpoint = str(tmp_path / "run.ckpt")
        assert table_bytes(SerialExecutor(), checkpoint) == naive

    def test_executor_recorded_in_metadata(self):
        spec = bernstein_vazirani(3)
        campaign = QuFI(StatevectorSimulator()).run_campaign(
            spec, faults=fault_grid(step_deg=90)
        )
        assert campaign.metadata["executor"] == "serial"


class TestStreaming:
    def test_on_batch_delivers_every_record_exactly_once(self):
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        points = enumerate_injection_points(spec.circuit)
        tasks = tuple(
            InjectionTask(index=i, point=point, fault=fault)
            for i, (point, fault) in enumerate(
                (p, f) for p in points for f in faults
            )
        )
        plan = CampaignPlan(
            circuit=spec.circuit,
            correct_states=tuple(spec.correct_states),
            tasks=tasks,
        )
        streamed = []
        executor = SerialExecutor(batch_size=7)
        returned = executor.run(
            StatevectorSimulator(), plan, on_batch=streamed.extend
        )
        assert len(returned) == len(tasks)
        assert_records_identical(streamed, returned)

    def test_checkpoint_resume_round_trip(self, tmp_path):
        """A truncated *legacy JSON* checkpoint resumes to the same
        campaign the direct run produces (and is migrated to the segment
        format along the way)."""
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        backend = DensityMatrixSimulator()
        direct = QuFI(backend).run_campaign(spec, faults=faults)

        # Simulate a kill: checkpoint holding only the first third.
        cut = len(direct.records) // 3
        partial = CampaignResult(
            circuit_name=direct.circuit_name,
            correct_states=direct.correct_states,
            records=direct.records[:cut],
            fault_free_qvf=direct.fault_free_qvf,
            backend_name=direct.backend_name,
            metadata={"mode": "single", "checkpointed": True},
        )
        path = str(tmp_path / "resume.json")
        partial.to_json(path)

        runner = CheckpointedRunner(
            QuFI(backend), path, save_every=10, executor=SerialExecutor()
        )
        resumed = runner.run(spec, faults=faults)

        assert resumed.num_injections == direct.num_injections
        assert resumed.fault_free_qvf == direct.fault_free_qvf
        assert_records_identical(
            resumed.sorted_records(), direct.sorted_records()
        )
        # The (now binary) checkpoint file holds the completed campaign.
        reloaded = CampaignResult.load(path)
        assert reloaded.num_injections == direct.num_injections

    def test_checkpoint_streaming_saves_incrementally(self, tmp_path):
        """Checkpoint segments append (and the file grows) while the
        executor streams batches — never a full rewrite per flush."""
        import os

        from repro.faults import checkpoint as checkpoint_module

        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        path = str(tmp_path / "stream.ckpt")
        appended = []
        sizes = []
        original_append = checkpoint_module.append_record_segment

        def spying_append(target, table):
            original_append(target, table)
            appended.append(len(table))
            sizes.append(os.path.getsize(target))

        checkpoint_module.append_record_segment = spying_append
        try:
            runner = CheckpointedRunner(
                QuFI(StatevectorSimulator()),
                path,
                save_every=5,
                executor=SerialExecutor(batch_size=5),
            )
            result = runner.run(spec, faults=faults)
        finally:
            checkpoint_module.append_record_segment = original_append
        # Multiple O(batch) appends happened, file strictly growing, and
        # together they streamed the entire campaign.
        assert len(appended) > 2
        assert all(0 < batch <= 5 for batch in appended)
        assert sizes == sorted(sizes)
        assert sum(appended) == result.num_injections

    def test_parallel_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "par.json")
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        executor = ParallelExecutor(workers=2)
        runner = CheckpointedRunner(
            QuFI(StatevectorSimulator()),
            path,
            save_every=20,
            executor=executor,
        )
        first = runner.run(spec, faults=faults)
        # Second run finds everything done and re-executes nothing new.
        second = runner.run(spec, faults=faults)
        assert second.num_injections == first.num_injections
        assert_records_identical(
            second.sorted_records(), first.sorted_records()
        )


class TestChunking:
    def test_chunks_partition_and_preserve_order(self):
        spec = bernstein_vazirani(4)
        faults = fault_grid(step_deg=90)
        points = enumerate_injection_points(spec.circuit)
        tasks = tuple(
            InjectionTask(index=i, point=p, fault=f)
            for i, (p, f) in enumerate(
                (p, f) for p in points for f in faults
            )
        )
        chunks = _chunk_tasks(tasks, 7)
        flattened = [task for chunk in chunks for task in chunk]
        assert flattened == list(tasks)
        # The target is a hard ceiling: checkpoint consumers bound their
        # loss window with it, even when a position group is larger.
        assert all(1 <= len(chunk) <= 7 for chunk in chunks)

    def test_bounded_limits_delivery_batches(self):
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        points = enumerate_injection_points(spec.circuit)
        tasks = tuple(
            InjectionTask(index=i, point=p, fault=f)
            for i, (p, f) in enumerate((p, f) for p in points for f in faults)
        )
        plan = CampaignPlan(
            circuit=spec.circuit,
            correct_states=tuple(spec.correct_states),
            tasks=tasks,
        )
        batch_sizes = []
        SerialExecutor(batch_size=64).bounded(5).run(
            StatevectorSimulator(),
            plan,
            on_batch=lambda batch: batch_sizes.append(len(batch)),
        )
        assert sum(batch_sizes) == len(tasks)
        assert max(batch_sizes) <= 5
        bounded_parallel = ParallelExecutor(workers=2).bounded(5)
        assert bounded_parallel.chunk_size == 5
        assert bounded_parallel.workers == 2

    def test_bounded_copies_share_the_compiler_cache(self):
        """Bounded copies compile into the primed compiler; pickled
        copies (what pool workers receive) carry configuration only."""
        import pickle

        spec = bernstein_vazirani(3)
        backend = StatevectorSimulator()
        compiler = backend.tail_compiler(spec.circuit)
        executor = SerialExecutor()
        executor.prime_segment_compiler(compiler)
        QuFI(backend, executor=executor.bounded(5)).run_campaign(
            spec, faults=fault_grid(step_deg=90)
        )
        assert compiler.compiled_positions
        assert pickle.loads(pickle.dumps(executor))._compilers == {}

    def test_unprimed_runs_read_the_circuit_fresh(self):
        """Only primed compilers are kept: a circuit edited in place
        between two campaigns on one long-lived executor is compiled
        afresh, never served from the first campaign's plans."""
        from repro.quantum import gates

        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        executor = SerialExecutor()
        qufi = QuFI(StatevectorSimulator(), executor=executor)
        before = qufi.run_campaign(spec, faults=faults)
        assert executor._compilers == {}
        spec.circuit.insert(2, gates.XGate(), [0])
        after = qufi.run_campaign(spec, faults=faults)
        fresh = QuFI(
            StatevectorSimulator(), executor=SerialExecutor()
        ).run_campaign(spec, faults=faults)
        assert after.table.data.tobytes() == fresh.table.data.tobytes()
        assert after.table.data.tobytes() != before.table.data.tobytes()

    def test_worker_chunks_reseed_stateful_backends(self):
        """Pickled backend copies must not replay one random stream."""
        import pickle

        from repro.simulators import TrajectorySimulator
        from repro.simulators.noise import NoiseModel, depolarizing_channel

        model = NoiseModel("seed-check")
        model.add_all_qubit_error(depolarizing_channel(0.05), ["h", "x"])
        backend = TrajectorySimulator(model, trajectories=16, seed=42)
        spec = bernstein_vazirani(3)
        points = enumerate_injection_points(spec.circuit)[:1]
        tasks = tuple(
            InjectionTask(index=i, point=points[0], fault=fault)
            for i, fault in enumerate(fault_grid(step_deg=90))
        )
        plan = CampaignPlan(
            circuit=spec.circuit,
            correct_states=tuple(spec.correct_states),
            tasks=(),
        )

        def chunk_qvfs(seed_material):
            clone = pickle.loads(pickle.dumps(backend))
            return [
                r.qvf
                for r in _run_chunk(
                    clone, plan, tasks, seed_material, SerialExecutor()
                )
            ]

        # Identical clones, different chunk seeds -> different streams.
        assert chunk_qvfs((7, 0)) != chunk_qvfs((7, 1))
        # Same chunk seed -> reproducible.
        assert chunk_qvfs((7, 0)) == chunk_qvfs((7, 0))

    def test_reseed_backend_replaces_generator(self):
        from repro.simulators import TrajectorySimulator

        backend = TrajectorySimulator(trajectories=4, seed=1)
        before = backend._rng
        _reseed_backend(backend, np.random.default_rng(0))
        assert backend._rng is not before
        # Backends without generator state are left alone.
        _reseed_backend(object(), np.random.default_rng(0))

    def test_pool_workers_split_the_blas_threads(self):
        """Workers split the parent's OpenBLAS threads, at least one
        each — one apiece on a 2-core host."""
        from repro.blas import blas_threads

        threads = blas_threads()
        if threads is None:
            pytest.skip("no OpenBLAS thread getter is loaded")
        with ParallelExecutor(workers=2) as executor:
            pool = executor._persistent_pool()
            assert pool.submit(blas_threads).result(timeout=60) == max(
                1, threads // 2
            )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SerialExecutor(batch_size=0)
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(chunk_size=0)


class TestMergeAndSampling:
    def test_merge_combines_shards(self):
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        points = enumerate_injection_points(spec.circuit)
        qufi = QuFI(StatevectorSimulator())
        half = len(points) // 2
        left = qufi.run_campaign(spec, faults=faults, points=points[:half])
        right = qufi.run_campaign(spec, faults=faults, points=points[half:])
        merged = CampaignResult.merge([left, right])
        full = qufi.run_campaign(spec, faults=faults, points=points)
        assert merged.num_injections == full.num_injections
        assert_records_identical(
            merged.sorted_records(), full.sorted_records()
        )
        assert merged.metadata["merged_shards"] == 2

    def test_merge_rejects_mismatched_campaigns(self):
        a = QuFI(StatevectorSimulator()).run_campaign(
            bernstein_vazirani(3), faults=fault_grid(step_deg=90)
        )
        b = QuFI(StatevectorSimulator()).run_campaign(
            bernstein_vazirani(4), faults=fault_grid(step_deg=90)
        )
        with pytest.raises(ValueError, match="cannot merge"):
            CampaignResult.merge([a, b])

    def test_run_strike_campaign(self):
        spec = bernstein_vazirani(3)
        qufi = QuFI(StatevectorSimulator())
        rng = np.random.default_rng(3)
        result = run_strike_campaign(qufi, spec, count=8, rng=rng)
        expected_points = len(enumerate_injection_points(spec.circuit))
        assert result.num_injections == 8 * expected_points
        assert result.metadata["fault_source"] == "strike_sampling"
        assert 0.0 <= result.mean_qvf() <= 1.0
