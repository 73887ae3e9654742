"""Spec -> campaign construction, shared by CLI, benchmarks and examples.

Before the scenario layer, every front end hand-assembled its campaigns:
``cli.py`` had ``_light_noise_model``/``_make_backend``, the benchmark
conftest and half the examples each carried their own copy of the same
noise model, and no two of them could be trusted to agree. This module is
now the single place where a :class:`~repro.scenarios.spec.ScenarioSpec`
becomes concrete objects — circuit, noise model, backend, executor,
injector — and :func:`run_scenario` is the one-call path from spec to
:class:`~repro.faults.campaign.CampaignResult`.

:class:`FactoryCache` memoises the expensive, immutable intermediates
(circuits, noise models, fault grids, transpiled neighbour couples) keyed
by the spec fragments that determine them, so a suite run re-derives each
artefact once no matter how many scenarios share it. Backends are *not*
cached: the stateful ones (trajectory simulator, machine emulator) carry
random streams, and sharing those across scenarios would entangle their
draws.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..algorithms import ALGORITHMS
from ..algorithms.spec import AlgorithmSpec
from ..faults.adaptive import run_adaptive_campaign
from ..faults.campaign import CampaignResult
from ..faults.checkpoint import run_plan
from ..faults.double import adjacency_clusters, find_neighbor_couples
from ..faults.executor import (
    BaseExecutor,
    BatchedExecutor,
    CampaignPlan,
    ParallelExecutor,
    SerialExecutor,
)
from ..faults.fault_model import PhaseShiftFault, fault_grid
from ..faults.injection_points import (
    enumerate_injection_points,
    points_at_position,
)
from ..faults.injector import QuFI
from ..faults.layout_map import TranspiledCircuit, map_transpiled
from ..faults.plan import double_patterns, pair_sites, paired_plan, single_plan
from ..faults.physics import sample_strike_patterns
from ..faults.sampling import sample_strike_faults
from ..qec import repetition as qec_repetition
from ..machines.emulator import PhysicalMachineEmulator
from ..machines.fake import (
    FakeBackend,
    fake_casablanca,
    fake_guadalupe,
    fake_jakarta,
    fake_lagos,
    fake_montreal,
    noise_model_from_calibration,
)
from ..simulators import (
    DensityMatrixSimulator,
    NoiseModel,
    ReadoutError,
    StatevectorSimulator,
    TrajectorySimulator,
    depolarizing_channel,
)
from ..transpiler.transpile import transpile
from .spec import ScenarioSpec

__all__ = [
    "MACHINES",
    "FactoryCache",
    "light_noise_model",
    "heavy_noise_model",
    "make_noise_model",
    "make_backend",
    "make_executor",
    "make_segment_compiler",
    "make_faults",
    "make_couples",
    "make_algorithm",
    "make_injector",
    "make_transpiled",
    "make_transpiled_campaign_inputs",
    "scenario_metadata",
    "transpile_metadata",
    "estimate_scenario_injections",
    "plan_scenario",
    "run_adaptive_scenario",
    "run_scenario",
]

MACHINES = {
    "casablanca": fake_casablanca,
    "jakarta": fake_jakarta,
    "lagos": fake_lagos,
    "guadalupe": fake_guadalupe,
    "montreal": fake_montreal,
}

_ONE_QUBIT_GATES = (
    "h", "x", "y", "z", "s", "t", "u", "p", "rx", "ry", "rz", "sx", "id",
)
_TWO_QUBIT_GATES = ("cx", "cz", "cp", "swap")


def _generic_noise_model(
    name: str,
    num_qubits: int,
    p1: float,
    p2: float,
    readout: Tuple[float, float],
) -> NoiseModel:
    model = NoiseModel(name)
    model.add_all_qubit_error(
        depolarizing_channel(p1), list(_ONE_QUBIT_GATES)
    )
    model.add_all_qubit_error(
        depolarizing_channel(p2, num_qubits=2), list(_TWO_QUBIT_GATES)
    )
    for qubit in range(num_qubits):
        model.add_readout_error(ReadoutError(readout[0], readout[1]), qubit)
    return model


def light_noise_model(num_qubits: int) -> NoiseModel:
    """The scenario-(2) noise model at IBM-like magnitudes.

    The one copy of what used to live, byte for byte, in
    ``cli.py:_light_noise_model``, the benchmark conftest and the test
    conftest: 0.2% depolarizing on 1q gates, 1% on 2q gates, (1.5%, 3%)
    readout confusion per qubit.
    """
    return _generic_noise_model(
        "light", num_qubits, p1=0.002, p2=0.01, readout=(0.015, 0.03)
    )


def heavy_noise_model(num_qubits: int) -> NoiseModel:
    """A pessimistic machine: every light error rate scaled 3x.

    Gives scenario grids a third operating point between "ideal" and
    "calibrated machine" (the paper sweeps noise only implicitly, via
    machine choice; suites sweep it explicitly).
    """
    return _generic_noise_model(
        "heavy", num_qubits, p1=0.006, p2=0.03, readout=(0.045, 0.09)
    )


def make_noise_model(
    profile: str, num_qubits: int, machine: str = "jakarta"
) -> Optional[NoiseModel]:
    """Resolve a noise profile name to a model (``None`` for ideal)."""
    if profile == "none":
        return None
    if profile == "light":
        return light_noise_model(num_qubits)
    if profile == "heavy":
        return heavy_noise_model(num_qubits)
    if profile == "calibrated":
        return make_machine(machine).noise_model
    raise ValueError(f"unknown noise profile {profile!r}")


def make_machine(name: str) -> FakeBackend:
    """Construct the named fake IBM machine (fresh instance per call)."""
    try:
        return MACHINES[name]()
    except KeyError:
        raise ValueError(
            f"unknown machine {name!r} (choose from {sorted(MACHINES)})"
        ) from None


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------
class FactoryCache:
    """Memoised spec-fragment -> artefact store for suite runs.

    Keys are the spec fields that determine each artefact, so scenarios
    share cached circuits/noise models/grids exactly when their specs
    agree on the relevant fragment. Everything cached here is immutable
    in use (campaigns copy circuits before splicing; noise models and
    fault lists are read-only on the execution path).
    """

    def __init__(self) -> None:
        self._store: Dict[Tuple, object] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple, build):
        """The artefact under ``key``, building (and storing) it once."""
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            value = self._store[key] = build()
            return value
        self.hits += 1
        return value


def _qec_algorithm(
    spec: ScenarioSpec, cache: Optional[FactoryCache]
) -> AlgorithmSpec:
    """The protected-circuit target of a ``qec`` scenario.

    The campaign circuit is the no-fault
    :func:`repro.qec.repetition.protected_circuit` pipeline —
    prepare, encode, decode, un-prepare, measure wire 0 — whose
    fault-free output is ``"0"`` with certainty. QVF against the
    single correct state ``"0"`` therefore *is* the logical error
    probability, so campaign records over this target score the code
    directly with no scoring changes.
    """
    block = spec.qec
    code = None if block.code == "none" else block.code

    def build() -> AlgorithmSpec:
        circuit = qec_repetition.protected_circuit(
            block.state_theta,
            block.state_phi,
            code=code,
            distance=block.distance,
            decode=block.decode,
        )
        return AlgorithmSpec(
            name=f"qec-{block.code}-d{block.distance}",
            circuit=circuit,
            correct_states=("0",),
            metadata={"qec": block.to_dict()},
        )

    if cache is None:
        return build()
    key = (
        "qec-circuit",
        block.code,
        block.distance,
        block.decode,
        block.state_theta,
        block.state_phi,
    )
    return cache.get(key, build)


def _qec_fault_position(block) -> int:
    """Instruction index of the encoder/decoder boundary.

    Injecting *after* this instruction lands the fault inside the
    protected region, exactly where ``protected_circuit`` splices its
    own ``fault`` argument: the state-prep ``u`` occupies index 0 and
    the encoder the next ``len(encoder)`` indices, so the boundary is
    the encoder's last instruction (the prep itself for the unencoded
    ``"none"`` baseline).
    """
    if block.code == "none":
        return 0
    encoder, _ = qec_repetition.CODES[block.code]
    return len(encoder(block.distance).instructions)


def make_algorithm(
    spec: ScenarioSpec, cache: Optional[FactoryCache] = None
) -> AlgorithmSpec:
    """The benchmark circuit + ground truth for ``spec``."""
    if spec.qec is not None:
        return _qec_algorithm(spec, cache)
    if spec.algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {spec.algorithm!r} "
            f"(choose from {sorted(ALGORITHMS)})"
        )

    def build() -> AlgorithmSpec:
        return ALGORITHMS[spec.algorithm](spec.width)

    if cache is None:
        return build()
    return cache.get(("circuit", spec.algorithm, spec.width), build)


def make_faults(
    spec: ScenarioSpec, cache: Optional[FactoryCache] = None
) -> List[PhaseShiftFault]:
    """The scenario's fault list: the uniform grid, or strike samples.

    A ``strike`` block (k=1) replaces the Sec. IV-B grid with faults
    drawn from the charge-deposition physics —
    :func:`repro.faults.sampling.sample_strike_faults` seeded by the
    scenario seed, so the list is identical to what
    :func:`repro.faults.sampling.run_strike_campaign` would draw from
    ``default_rng(seed)``. Correlated strikes (k>=2) sample *patterns*,
    not a flat list (see :func:`run_scenario`), and refuse this path.
    """
    if spec.strike is not None:
        block = spec.strike
        if block.k != 1:
            raise ValueError(
                f"scenario {spec.scenario_id!r} samples correlated "
                f"k={block.k} strike patterns, not a flat fault list"
            )

        def build_strike() -> List[PhaseShiftFault]:
            return sample_strike_faults(
                block.count,
                max_distance_um=block.max_distance_um,
                saturation_fraction=block.saturation_fraction,
                seed=spec.seed,
            )

        if cache is None:
            return build_strike()
        key = (
            "strike-faults",
            block.count,
            block.max_distance_um,
            block.saturation_fraction,
            spec.seed,
        )
        return cache.get(key, build_strike)

    def build() -> List[PhaseShiftFault]:
        return fault_grid(
            step_deg=spec.grid_step_deg,
            phi_max_deg=spec.phi_max_deg,
            include_phi_endpoint=spec.include_phi_endpoint,
        )

    if cache is None:
        return build()
    key = (
        "faults",
        spec.grid_step_deg,
        spec.phi_max_deg,
        spec.include_phi_endpoint,
    )
    return cache.get(key, build)


def make_transpiled(
    spec: ScenarioSpec, cache: Optional[FactoryCache] = None
) -> TranspiledCircuit:
    """The scenario's hardware-native circuit plus its layout map.

    Transpiles the benchmark circuit onto the effective machine's
    topology per the spec's ``transpile`` block and tracks the
    logical-to-physical mapping through layout/routing
    (:func:`repro.faults.layout_map.map_transpiled`). The circuit is
    *compacted* onto its used wires for every backend (state size
    follows the circuit, not the device), and calibrated models, the
    emulator's drifted ones included, are remapped onto them.
    """
    block = spec.transpile
    if block is None:
        raise ValueError(f"scenario {spec.scenario_id!r} has no transpile block")
    machine_name = spec.effective_machine

    def build() -> TranspiledCircuit:
        algorithm = make_algorithm(spec, cache)
        result = transpile(
            algorithm.circuit,
            make_machine(machine_name).coupling,
            optimization_level=block.optimization_level,
            basis=block.basis,
            seed=block.seed,
        )
        return map_transpiled(result, machine=machine_name)

    if cache is None:
        return build()
    key = (
        "transpiled",
        spec.algorithm,
        spec.width,
        machine_name,
        block.optimization_level,
        block.basis,
        block.seed,
    )
    return cache.get(key, build)


def scenario_metadata(spec: ScenarioSpec) -> Dict[str, object]:
    """The scenario-identity metadata stamped on every campaign result
    and checkpoint store (suite consumers match on ``spec_hash``; the
    checkpoint resume guard compares ``scenario``)."""
    return {
        "scenario_id": spec.scenario_id,
        "spec_hash": spec.spec_hash(),
        "scenario": spec.to_dict(),
    }


def transpile_metadata(
    spec: ScenarioSpec, transpiled: TranspiledCircuit
) -> Dict[str, object]:
    """The ``metadata["transpile"]`` block recorded with a campaign.

    Layout map plus the transpile block's basis and seed — everything a
    consumer needs to translate stored records between the wire,
    physical and logical frames (``CampaignResult.layout_map``) and to
    re-derive the transpilation.
    """
    block = spec.transpile
    if block is None:
        raise ValueError(f"scenario {spec.scenario_id!r} has no transpile block")
    return {
        **transpiled.layout.to_metadata(),
        "basis": list(block.basis),
        "seed": block.seed,
    }


def make_transpiled_campaign_inputs(
    spec: ScenarioSpec, cache: Optional[FactoryCache] = None
):
    """Everything a transpiled campaign needs, assembled once.

    Returns ``(transpiled, points, extra_metadata)``: the
    :class:`~repro.faults.layout_map.TranspiledCircuit`, the
    frame-stamped injection points over it, and the ``{"transpile":
    ...}`` metadata block, shared by :func:`plan_scenario` and the
    adaptive path.
    """
    transpiled = make_transpiled(spec, cache)
    points = enumerate_injection_points(
        transpiled.circuit, layout=transpiled.layout
    )
    return (
        transpiled,
        points,
        {"transpile": transpile_metadata(spec, transpiled)},
    )


def make_couples(
    spec: ScenarioSpec, cache: Optional[FactoryCache] = None
) -> List[Tuple[int, int]]:
    """Physically adjacent qubit couples for double-fault scenarios.

    Derived exactly as the paper does (Sec. IV-C): transpile onto the
    scenario's machine topology at optimization level 3 and keep the
    logical couples that end up on coupled physical qubits. Transpiled
    scenarios instead read the couples straight off their layout map —
    campaign-circuit wire pairs sitting on coupled device qubits.
    """
    if spec.transpile is not None:
        return [tuple(pair) for pair in make_transpiled(spec, cache).layout.couples]

    def build() -> List[Tuple[int, int]]:
        algorithm = make_algorithm(spec, cache)
        coupling = make_machine(spec.effective_machine).coupling
        return find_neighbor_couples(algorithm, coupling).couples

    if cache is None:
        return build()
    key = ("couples", spec.algorithm, spec.width, spec.effective_machine)
    return cache.get(key, build)


def _strike_clusters(
    spec: ScenarioSpec, cache: Optional[FactoryCache]
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The ``(qubits, hops)`` clusters a correlated strike sweeps.

    ``k=2`` strikes hit the neighbour couples themselves (hops ``(0,
    1)``); ``k>2`` grows each couple into its ``k`` nearest qubits on
    the couples graph (:func:`repro.faults.double.adjacency_clusters`),
    dropping couples whose connected component is too small. The couples
    come from the same layout machinery as double-fault scenarios —
    physically adjacent qubits in the campaign circuit's wire frame.
    """
    block = spec.strike
    couples = make_couples(spec, cache)
    if not couples:
        raise ValueError(
            f"scenario {spec.scenario_id!r} has no physically adjacent "
            f"couples to strike on machine {spec.effective_machine!r}"
        )
    if block.k == 2:
        return [((a, b), (0, 1)) for a, b in couples]
    grown = [
        cluster
        for cluster in adjacency_clusters(couples, block.k)
        if cluster is not None
    ]
    if not grown:
        raise ValueError(
            f"scenario {spec.scenario_id!r}: no adjacency cluster reaches "
            f"k={block.k} qubits on machine {spec.effective_machine!r}"
        )
    return grown


def _strike_patterns(
    spec: ScenarioSpec,
    hops: Tuple[int, ...],
    cache: Optional[FactoryCache],
) -> List[Tuple[PhaseShiftFault, ...]]:
    """Physics-sampled fault patterns for one cluster hop geometry.

    Seeded by the scenario seed and keyed by the hop tuple, so every
    cluster sharing a geometry sees the *same* ``count`` strikes (the
    underlying radius/direction draws are shared; only the per-slot
    attenuation differs with the hops).
    """
    block = spec.strike

    def build() -> List[Tuple[PhaseShiftFault, ...]]:
        return sample_strike_patterns(
            block.count,
            hops,
            max_distance_um=block.max_distance_um,
            saturation_fraction=block.saturation_fraction,
            spacing_um=block.spacing_um,
            seed=spec.seed,
        )

    if cache is None:
        return build()
    key = (
        "strike-patterns",
        block.count,
        tuple(hops),
        block.max_distance_um,
        block.saturation_fraction,
        block.spacing_um,
        spec.seed,
    )
    return cache.get(key, build)


def _scenario_noise_model(
    spec: ScenarioSpec, cache: Optional[FactoryCache]
) -> Optional[NoiseModel]:
    """The noise model the scenario's simulator backend runs under.

    Untranspiled scenarios size the generic models to the circuit width
    (calibrated noise needs a transpile block; the spec refuses it
    without one). Transpiled scenarios size generic models to the
    campaign circuit's wire count, and build calibrated models
    *remapped into the wire frame* — each wire carries the calibration
    of the device qubit it occupies, and two-qubit errors attach to
    physically coupled wire pairs.
    """
    if spec.transpile is None:
        def build() -> Optional[NoiseModel]:
            return make_noise_model(spec.noise, spec.width)

        if cache is None:
            return build()
        key = ("noise", spec.noise, spec.width)
        return cache.get(key, build)

    transpiled = make_transpiled(spec, cache)
    wires = transpiled.layout.wire_to_physical
    machine_name = spec.effective_machine

    def build_transpiled() -> Optional[NoiseModel]:
        if spec.noise == "calibrated":
            machine = make_machine(machine_name)
            return noise_model_from_calibration(
                machine.calibration, machine.coupling, wires=wires
            )
        return make_noise_model(spec.noise, len(wires), machine_name)

    if cache is None:
        return build_transpiled()
    key = ("noise-wires", spec.noise, machine_name, wires)
    return cache.get(key, build_transpiled)


def make_backend(spec: ScenarioSpec, cache: Optional[FactoryCache] = None):
    """Resolve the spec's backend kind to a concrete engine.

    ``auto`` keeps the historical CLI behaviour: statevector for
    noiseless scenarios, density matrix otherwise; a ``machine`` spec
    arrives as the density matrix under its calibrated model (the spec
    normalises it). Stateful backends (trajectory, machine emulator) are
    seeded from the scenario seed so suite runs are reproducible end to
    end. ``mitigation: true`` wraps the resolved engine in a
    :class:`~repro.analysis.mitigation.MitigatedReadoutBackend` against
    the scenario's noise model — every campaign execution (fault-free
    baseline included) then scores readout-corrected distributions.
    """
    kind = spec.backend
    if kind == "auto":
        kind = "statevector" if spec.noise == "none" else "density-matrix"
    if kind == "statevector":
        backend = StatevectorSimulator()
    elif kind == "density-matrix":
        backend = DensityMatrixSimulator(_scenario_noise_model(spec, cache))
    elif kind == "trajectory":
        backend = TrajectorySimulator(
            _scenario_noise_model(spec, cache),
            trajectories=spec.trajectories,
            seed=spec.seed,
        )
    elif kind == "machine-emulator":
        backend = PhysicalMachineEmulator(
            make_machine(spec.effective_machine),
            drift_scale=spec.drift_scale,
            seed=spec.seed,
            wires=make_transpiled(spec, cache).layout.wire_to_physical,
        )
    else:
        raise ValueError(f"unknown backend kind {spec.backend!r}")
    if spec.mitigation:
        model = _scenario_noise_model(spec, cache)
        if model is not None:
            # Imported here: analysis -> query -> runner -> factory is a
            # package-level cycle, and mitigation rides on analysis.
            from ..analysis.mitigation import MitigatedReadoutBackend

            backend = MitigatedReadoutBackend(backend, model)
    return backend


def _scenario_circuit(spec: ScenarioSpec, cache: Optional[FactoryCache]):
    """The exact circuit object the scenario's campaign sweeps.

    Transpiled scenarios sweep the hardware-native circuit; logical
    scenarios sweep the benchmark circuit. The *identity* of the object
    matters for segment-compiler sharing (compilers key by circuit
    identity), which is why this goes through the cache like every other
    consumer.
    """
    if spec.transpile is not None:
        return make_transpiled(spec, cache).circuit
    return make_algorithm(spec, cache).circuit


def make_segment_compiler(
    spec: ScenarioSpec, cache: Optional[FactoryCache] = None
):
    """The scenario's shared segment compiler, or ``None``.

    Scenarios on the exact simulator backends get one
    :class:`~repro.simulators.segments.SegmentCompiler` per ``(circuit,
    backend kind, noise)`` fragment, memoised in the
    :class:`FactoryCache` — so every scenario of a suite that shares a
    circuit and noise model also shares its compiled tail segments
    instead of recompiling per campaign; a mitigated scenario shares its
    unmitigated twin's (the mitigation wrapper compiles its inner
    backend's tails), a waived spec its exact twin's, and a ``machine``
    spec its ``density-matrix`` twin's. Other backend kinds return
    ``None``: the trajectory simulator and the emulator run per task.
    """
    kind = spec.backend
    if kind == "auto":
        kind = "statevector" if spec.noise == "none" else "density-matrix"
    if kind not in ("statevector", "density-matrix"):
        return None

    def build():
        circuit = _scenario_circuit(spec, cache)
        if kind == "statevector":
            backend = StatevectorSimulator()
        else:
            backend = DensityMatrixSimulator(
                _scenario_noise_model(spec, cache)
            )
        return backend.tail_compiler(circuit)

    if cache is None:
        return build()
    transpile_key = (
        None
        if spec.transpile is None
        else (
            spec.effective_machine,
            spec.transpile.optimization_level,
            spec.transpile.basis,
            spec.transpile.seed,
        )
    )
    key = (
        "segments",
        spec.algorithm,
        spec.width,
        kind,
        spec.noise,
        spec.effective_machine,
        transpile_key,
    )
    return cache.get(key, build)


def make_executor(
    spec: ScenarioSpec,
    cache: Optional[FactoryCache] = None,
    pool_cap: Optional[int] = None,
) -> BaseExecutor:
    """The spec's execution strategy (fresh, config-only instance).

    Every strategy runs the same engine configuration — the response
    basis unless the spec opts out, and the memory budget; with a
    ``cache``, the suite-shared segment compiler is primed onto the
    executor so campaigns over the same circuit reuse one compilation.
    ``pool_cap`` bounds a parallel strategy's *pool processes* without
    touching its chunk partitioning (records stay byte-identical) — the
    shard scheduler's way of dividing the host between concurrent
    campaigns; in-process strategies ignore it.
    """
    engine = dict(
        response_basis=spec.response_basis,
        memory_budget=spec.memory_budget,
    )
    if spec.executor == "serial":
        executor: BaseExecutor = SerialExecutor(**engine)
    elif spec.executor == "batched":
        executor = BatchedExecutor(**engine)
    elif spec.executor == "parallel":
        executor = ParallelExecutor(
            workers=spec.workers, pool_cap=pool_cap, **engine
        )
    else:
        raise ValueError(f"unknown executor strategy {spec.executor!r}")
    compiler = None if cache is None else make_segment_compiler(spec, cache)
    if compiler is not None:
        executor.prime_segment_compiler(compiler)
    return executor


def make_injector(
    spec: ScenarioSpec,
    cache: Optional[FactoryCache] = None,
    executor: Optional[BaseExecutor] = None,
) -> QuFI:
    """A fresh injector for ``spec`` (fresh rng: campaign-reproducible)."""
    return QuFI(
        make_backend(spec, cache),
        shots=spec.shots,
        seed=spec.seed,
        executor=(
            executor if executor is not None else make_executor(spec, cache)
        ),
    )


def _scenario_points(
    spec: ScenarioSpec, cache: Optional[FactoryCache]
) -> list:
    """The injection points the scenario's single-fault sweep visits.

    QEC scenarios do not enumerate gates: they strike each of the
    ``distance`` data wires once, at the encoder/decoder boundary —
    exactly where :func:`repro.qec.repetition.protected_circuit` places
    its own fault argument, so campaign records match the standalone
    module bit for bit.
    """
    if spec.qec is not None:
        return points_at_position(
            make_algorithm(spec, cache).circuit,
            _qec_fault_position(spec.qec),
            range(spec.qec.distance),
        )
    if spec.transpile is not None:
        transpiled = make_transpiled(spec, cache)
        return enumerate_injection_points(
            transpiled.circuit, layout=transpiled.layout
        )
    return enumerate_injection_points(make_algorithm(spec, cache).circuit)


def _campaign_target(spec: ScenarioSpec, cache: FactoryCache):
    """``(target, correct states, points, metadata)`` of the sweep.

    Transpiled scenarios sweep the hardware-native circuit over
    frame-stamped points and record the layout map as metadata; the
    others sweep the benchmark circuit (an ``AlgorithmSpec``, bringing
    its own ground truth) over :func:`_scenario_points`.
    """
    if spec.transpile is None:
        algorithm = make_algorithm(spec, cache)
        return algorithm, None, _scenario_points(spec, cache), {}
    transpiled, points, extra_meta = make_transpiled_campaign_inputs(
        spec, cache
    )
    states = make_algorithm(spec, cache).correct_states
    return transpiled.circuit, states, points, extra_meta


def _paired_strikes(
    spec: ScenarioSpec, cache: Optional[FactoryCache]
) -> Optional[List[Tuple[Tuple[int, ...], list]]]:
    """The ``(cluster, patterns)`` entries of a paired sweep, or ``None``.

    Double-fault scenarios pair every neighbour couple with the
    constrained fault pairs of the grid; correlated (k >= 2) strikes
    pair each adjacency cluster with the patterns sampled for its hop
    geometry. Single sweeps return ``None``.
    """
    if not spec.paired:
        return None
    if spec.strike is not None:
        return [
            (qubits, _strike_patterns(spec, hops, cache))
            for qubits, hops in _strike_clusters(spec, cache)
        ]
    patterns = double_patterns(make_faults(spec, cache))
    return [(tuple(couple), patterns) for couple in make_couples(spec, cache)]


def estimate_scenario_injections(
    spec: ScenarioSpec, cache: Optional[FactoryCache] = None
) -> int:
    """How many injections running ``spec`` costs, before running it.

    Exact for uniform sweeps, and without building a task: a single
    sweep costs ``faults x points``, a paired one (double faults,
    correlated strikes) walks the sites its plan enumerates
    (:func:`~repro.faults.plan.pair_sites`) times the patterns per site.
    Adaptive scenarios report their *worst case* — the full grid for
    refinement (refined lines are full-grid lines, so the grid is the
    ceiling), ``samples_per_round x max_rounds x points`` for importance
    sampling — further clamped by the spec's own
    ``budget.max_injections`` when set. The suite runner's pre-run cost
    gate sums these.
    """
    points = _scenario_points(spec, cache)
    if spec.adaptive is not None:
        if spec.adaptive.mode == "importance":
            worst = spec.adaptive.samples_per_round * spec.adaptive.max_rounds
            worst *= len(points)
        else:
            worst = len(make_faults(spec, cache)) * len(points)
        if spec.budget is not None and spec.budget.max_injections is not None:
            worst = min(worst, spec.budget.max_injections)
        return worst
    strikes = _paired_strikes(spec, cache)
    if strikes is None:
        return len(make_faults(spec, cache)) * len(points)
    sites = pair_sites(
        _scenario_circuit(spec, cache),
        [cluster for cluster, _ in strikes],
        points,
    )
    return sum(len(strikes[index][1]) for index, _, _ in sites)


def run_adaptive_scenario(
    spec: ScenarioSpec,
    cache: Optional[FactoryCache] = None,
    executor: Optional[BaseExecutor] = None,
    checkpoint_path: Optional[str] = None,
    save_every: int = 200,
) -> CampaignResult:
    """Run ``spec``'s adaptive campaign (the ``spec.adaptive`` path).

    Maps the spec's ``adaptive`` and ``budget`` blocks onto
    :func:`repro.faults.adaptive.run_adaptive_campaign`, sweeps the
    transpiled circuit (with frame-stamped points and the layout map in
    the persisted metadata) when the spec has a ``transpile`` block, and
    stamps the scenario identity on the result — and on the checkpoint
    store, whose resume guard compares it.
    """
    block = spec.adaptive
    if block is None:
        raise ValueError(f"scenario {spec.scenario_id!r} has no adaptive block")
    cache = cache if cache is not None else FactoryCache()
    target, states, points, extra_meta = _campaign_target(spec, cache)
    budget = spec.budget
    return run_adaptive_campaign(
        make_injector(spec, cache, executor),
        target,
        correct_states=states,
        points=points,
        grid_step_deg=spec.grid_step_deg,
        phi_max_deg=spec.phi_max_deg,
        include_phi_endpoint=spec.include_phi_endpoint,
        coarse_points=block.coarse_points,
        gradient_threshold=block.gradient_threshold,
        max_rounds=block.max_rounds,
        tolerance=block.tolerance,
        mode=block.mode,
        samples_per_round=block.samples_per_round,
        max_injections=None if budget is None else budget.max_injections,
        max_seconds=None if budget is None else budget.max_seconds,
        checkpoint_path=checkpoint_path,
        save_every=save_every,
        # The placeholder pins where the round loop's adaptive block
        # lands: before the scenario identity, the stored key order.
        metadata={**extra_meta, "adaptive": None, **scenario_metadata(spec)},
    )


def plan_scenario(
    spec: ScenarioSpec, cache: Optional[FactoryCache] = None
) -> CampaignPlan:
    """Compile a non-adaptive spec into its one campaign plan.

    Scenarios with a ``transpile`` block sweep the *hardware-native*
    circuit instead of the logical one: injection points enumerate the
    transpiled gate list (stamped with their physical/logical frame
    attribution), double-fault couples come from the device topology in
    the campaign's own wire frame, and the layout map is recorded in
    ``metadata["transpile"]`` so stored campaigns stay frame-convertible.

    The physics axes route through the same two enumerations: a ``qec``
    block sweeps the fault grid over the protected circuit's data wires
    at the encoder boundary (records score logical error probability); a
    ``strike`` block swaps the grid for physics-sampled faults (k=1) or
    correlated per-cluster patterns (k>=2, a paired sweep over the
    layout couples); and ``mitigation: true`` scores every execution
    through the readout-corrected backend wrapper. Each stamps its
    marker into the metadata (``qec``, ``strike``/``fault_source``,
    ``mitigation``), and the scenario identity comes last.
    """
    if spec.adaptive is not None:
        raise ValueError(
            f"scenario {spec.scenario_id!r} is adaptive: its rounds are "
            f"planned as they run (see run_adaptive_scenario)"
        )
    cache = cache if cache is not None else FactoryCache()
    target, states, points, extra_meta = _campaign_target(spec, cache)
    strikes = _paired_strikes(spec, cache)
    if strikes is None:
        faults = make_faults(spec, cache)
        plan = single_plan(
            target, states, faults, points, spec.shots, spec.seed
        )
    else:
        if spec.mode == "double":
            shape = {"num_faults": len(make_faults(spec, cache))}
        else:
            shape = {
                "num_faults": spec.strike.count,
                "cluster_size": max(len(cluster) for cluster, _ in strikes),
            }
        plan = paired_plan(
            target, strikes, states, points, spec.shots, spec.seed, shape=shape
        )
    plan.metadata.update(extra_meta)
    if spec.strike is not None:
        # The same stamps run_strike_campaign applies, plus the block —
        # suite artefacts announce their fault source either way.
        plan.metadata["fault_source"] = "strike_sampling"
        plan.metadata["max_distance_um"] = spec.strike.max_distance_um
        plan.metadata["strike"] = spec.strike.to_dict()
    if spec.qec is not None:
        plan.metadata["qec"] = spec.qec.to_dict()
    if spec.mitigation:
        plan.metadata["mitigation"] = True
    plan.metadata.update(scenario_metadata(spec))
    return plan


def run_scenario(
    spec: ScenarioSpec,
    cache: Optional[FactoryCache] = None,
    executor: Optional[BaseExecutor] = None,
    progress=None,
    checkpoint_path: Optional[str] = None,
) -> CampaignResult:
    """Spec in, campaign result out — the single-scenario entry point:
    :func:`plan_scenario` plus :func:`~repro.faults.checkpoint.run_plan`.

    A fresh injector is built per call (its rng starts at the scenario
    seed), so running the same spec twice — or inside a suite versus
    standalone — produces bit-identical records. ``executor`` overrides
    the spec's strategy with an existing instance; the suite runner uses
    this to route all parallel scenarios through one long-lived pool.
    ``checkpoint_path`` streams any sweep through a segment store and
    resumes from it, refusing a store recorded for another scenario.

    Specs with an ``adaptive`` block dispatch to
    :func:`run_adaptive_scenario` (``progress`` is not threaded through
    the round loop). A ``budget.max_injections`` on a *non*-adaptive
    spec is a hard gate: an over-budget uniform sweep raises before
    running anything, since truncating a grid mid-sweep would silently
    change its records. ``budget.max_seconds`` is enforced by the suite
    runner's pre-run estimator and by the adaptive round loop, not here
    — a uniform sweep's wall clock is not checkable before it runs.
    """
    # A throwaway cache still deduplicates within this call (the
    # transpiled artefact is consumed by the backend's noise model, the
    # injection points and the couples alike).
    cache = cache if cache is not None else FactoryCache()
    if spec.adaptive is not None:
        return run_adaptive_scenario(spec, cache, executor, checkpoint_path)
    if spec.budget is not None and spec.budget.max_injections is not None:
        cost = estimate_scenario_injections(spec, cache)
        if cost > spec.budget.max_injections:
            raise ValueError(
                f"scenario {spec.scenario_id!r} needs {cost} injections "
                f"but its budget allows {spec.budget.max_injections}; a "
                f"uniform grid cannot be truncated without changing its "
                f"records — coarsen the grid, raise the budget, or add "
                f"an adaptive block"
            )
    plan = plan_scenario(spec, cache)
    return run_plan(
        make_injector(spec, cache, executor),
        plan,
        checkpoint_path=checkpoint_path,
        progress=progress,
    )
