"""Scenario and suite specifications: campaigns as declarative values.

A :class:`ScenarioSpec` is everything one campaign needs, as plain data;
a :class:`SuiteSpec` is an ordered list of them. Both round-trip through
dicts and JSON, so the whole paper evaluation fits in one spec file and
``repro suite run`` reproduces it.

Two derived identities matter downstream:

* :meth:`ScenarioSpec.spec_hash` — a content hash over every field that
  influences the campaign's *records* (``label`` is excluded). The suite
  runner caches by this hash: two scenarios that differ only in label
  (the paper grid feeds the same BV sweep to Figs. 8a, 9 and 10)
  are computed once.
* :meth:`ScenarioSpec.scenario_id` — the manifest key: the label if one
  is given, otherwise a readable slug plus a short hash suffix.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Iterable, List, Optional, Tuple, Type, Union

__all__ = [
    "AdaptiveSpec",
    "BudgetSpec",
    "QECSpec",
    "StrikeSpec",
    "TranspileSpec",
    "ScenarioSpec",
    "SuiteSpec",
    "UnroutedCalibrationError",
    "expand_grid",
    "parse_memory_budget",
]

NOISE_PROFILES = ("none", "light", "heavy", "calibrated")


class UnroutedCalibrationError(ValueError):
    """A spec asks for calibrated noise without a ``transpile`` block."""


#: Every backend kind, with whether its engine runs single-fault sites on
#: the linear response basis (the batched engine over an exact
#: simulator). ``machine`` is a spelling of ``density-matrix`` under the
#: machine's calibration, which :class:`ScenarioSpec` normalises away.
#: The trajectory simulator and the machine emulator sample inside
#: ``run`` and take the per-task loop instead.
BACKEND_KINDS = {
    "auto": True,
    "statevector": True,
    "density-matrix": True,
    "trajectory": False,
    "machine": True,
    "machine-emulator": False,
}
EXECUTORS = ("serial", "batched", "parallel")
MODES = ("single", "double")

_MEMORY_UNITS = {
    "": 1,
    "b": 1,
    "kb": 1024,
    "mb": 1024**2,
    "gb": 1024**3,
    "tb": 1024**4,
}


def parse_memory_budget(value: Union[int, float, str, None]) -> Optional[int]:
    """Normalize a memory budget to bytes.

    Accepts plain byte counts (``int``/``float``) or human-readable
    strings like ``"512MB"`` / ``"2gb"`` / ``"1.5 GB"`` (binary units).
    Returns ``None`` for ``None``; rejects non-positive budgets.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValueError(f"memory budget must be a size, got {value!r}")
    if isinstance(value, (int, float)):
        budget = int(value)
    else:
        match = re.fullmatch(
            r"\s*([0-9]*\.?[0-9]+)\s*([kmgt]?b?)\s*",
            str(value),
            flags=re.IGNORECASE,
        )
        if match is None:
            raise ValueError(
                f"cannot parse memory budget {value!r}; expected bytes "
                f"or a size like '512MB'"
            )
        budget = int(
            float(match.group(1)) * _MEMORY_UNITS[match.group(2).lower()]
        )
    if budget < 1:
        raise ValueError(f"memory budget must be positive, got {value!r}")
    return budget


class _StrictFields:
    """Strict dict construction, shared by the scenario and its blocks.

    ``_what`` names the block in the unknown-field error.
    """

    _what = ""

    @classmethod
    def from_dict(cls, data: Dict[str, object]):
        """Build from a JSON object, rejecting unknown fields."""
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown {cls._what} field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**data)


def _coerce_block(spec: "ScenarioSpec", name: str, block: Type) -> None:
    """Replace the dict form of ``spec``'s ``name`` block by a ``block``.

    A JSON spec (or ``expand_grid`` entry) supplies blocks as plain
    dicts; coercing them here keeps ``from_dict`` at ``cls(**data)``.
    """
    value = getattr(spec, name)
    if isinstance(value, dict):
        object.__setattr__(spec, name, block.from_dict(value))
    elif value is not None and not isinstance(value, block):
        raise ValueError(
            f"{name} must be a {block.__name__} (or its dict form), "
            f"got {type(value).__name__}"
        )


ADAPTIVE_MODES = ("refine", "importance")


@dataclass(frozen=True)
class AdaptiveSpec(_StrictFields):
    """How an adaptive campaign explores the theta-phi fault surface.

    Instead of sweeping the full ``grid_step_deg`` grid uniformly, an
    adaptive campaign starts from a coarse subset and spends further
    rounds only where the QVF surface actually varies
    (:mod:`repro.faults.adaptive`):

    * ``mode="refine"`` — coarse-to-fine grid refinement: begin with
      ``coarse_points`` evenly spaced grid lines per axis, then each
      round activate the midpoint line of every interval whose
      finite-difference QVF change exceeds ``gradient_threshold``,
      until no interval qualifies, the round-over-round change of the
      interpolated full-grid estimate drops to ``tolerance``, or
      ``max_rounds``/the scenario budget stops the loop.
    * ``mode="importance"`` — physics-weighted sampling: each round
      draws ``samples_per_round`` fault configurations from the strike
      physics of :func:`repro.faults.sampling.sample_strike_faults`
      (round ``r`` seeded from ``(seed, r)``), stopping once the
      standard error of the mean QVF reaches ``tolerance``.

    Both modes run every round through the ordinary
    :class:`~repro.faults.executor.CampaignPlan` machinery, where every
    task draws from its own ``(seed, task.index)`` generator, so
    adaptive campaigns stay deterministic, checkpointable and
    kill/resume-safe like uniform ones.
    """

    _what = "adaptive"

    coarse_points: int = 5
    gradient_threshold: float = 0.05
    max_rounds: int = 8
    tolerance: float = 0.0
    mode: str = "refine"
    samples_per_round: int = 64

    def __post_init__(self) -> None:
        if self.mode not in ADAPTIVE_MODES:
            raise ValueError(
                f"unknown adaptive mode {self.mode!r} "
                f"(choose from {ADAPTIVE_MODES})"
            )
        if self.coarse_points < 2:
            raise ValueError(
                f"coarse_points must be at least 2 (the axis endpoints), "
                f"got {self.coarse_points}"
            )
        if self.gradient_threshold <= 0:
            raise ValueError("gradient_threshold must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if self.samples_per_round < 1:
            raise ValueError("samples_per_round must be positive")

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form."""
        return asdict(self)


@dataclass(frozen=True)
class BudgetSpec(_StrictFields):
    """A cost ceiling for one scenario's campaign.

    ``max_injections`` caps executed injections; ``max_seconds`` caps
    wall clock. Adaptive campaigns stop refining (cleanly, at a round
    boundary) when the next round would exceed the budget; uniform
    campaigns whose fixed cost already exceeds ``max_injections`` are
    rejected up front with the estimate — a grid campaign cannot be
    truncated without changing its records. The suite runner's pre-run
    cost estimator reads these blocks when gating a whole suite.

    Budgets never alter which records a *completed* campaign holds, so
    the block is excluded from :meth:`ScenarioSpec.spec_hash` — a
    budgeted re-run of a cached scenario still hits the cache.
    """

    _what = "budget"

    max_injections: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_injections is not None and self.max_injections < 1:
            raise ValueError("max_injections must be positive when given")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive when given")

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form."""
        return asdict(self)


@dataclass(frozen=True)
class TranspileSpec(_StrictFields):
    """How a scenario's circuit is mapped onto hardware before injection.

    QuFI injects into the *transpiled* circuit — the gate list a machine
    actually executes after layout, routing and basis lowering — which is
    what makes its per-qubit reliability claims and its machine-vs-
    simulation comparison (Fig. 11) meaningful. A ``TranspileSpec``
    attached to a :class:`ScenarioSpec` turns the campaign into a sweep
    over that hardware-native circuit:

    * ``machine`` — the target topology; ``None`` inherits the scenario's
      ``machine`` field, so a suite can sweep ``machine`` as an axis with
      one shared ``"transpile": {}`` block.
    * ``optimization_level`` — 0..3 exactly as
      :func:`repro.transpiler.transpile.transpile` defines them; the
      paper uses 3 ("the most dense layout and as few SWAPs as
      possible").
    * ``basis`` — the device's native gate names. ``swap`` is rejected:
      router-inserted SWAP gates are how the logical-to-physical mapping
      is tracked through the circuit, and program SWAPs surviving
      lowering would be indistinguishable from them.
    * ``seed`` — reserved for stochastic layout/routing passes (the
      current passes are deterministic; the seed still participates in
      the spec hash so future stochastic passes cannot silently collide).
    """

    _what = "transpile"

    machine: Optional[str] = None
    optimization_level: int = 3
    basis: Tuple[str, ...] = ("u", "cx")
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.optimization_level <= 3:
            raise ValueError(
                f"optimization_level must be 0..3, got "
                f"{self.optimization_level}"
            )
        basis = tuple(self.basis)
        if not basis:
            raise ValueError("transpile basis must name at least one gate")
        if "swap" in basis:
            raise ValueError(
                "transpile basis must not contain 'swap': program SWAPs "
                "kept native would be indistinguishable from the "
                "router-inserted SWAPs that track the logical-to-physical "
                "mapping"
            )
        object.__setattr__(self, "basis", basis)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (``basis`` as a list)."""
        return {
            "machine": self.machine,
            "optimization_level": self.optimization_level,
            "basis": list(self.basis),
            "seed": self.seed,
        }


QEC_CODES = ("bit_flip", "phase_flip", "none")


@dataclass(frozen=True)
class QECSpec(_StrictFields):
    """Route a campaign through an error-correction-protected circuit.

    Instead of sweeping faults over a named algorithm, a QEC campaign
    injects into the repetition codes of :mod:`repro.qec.repetition`:
    the logical state ``U(state_theta, state_phi, 0)|0>`` is encoded
    across ``distance`` data qubits, one fault is inserted between
    encoder and decoder (on each data wire in turn), and the decoded
    wire is un-prepared and measured. The campaign's QVF column *is*
    the logical error probability — a single measured clbit whose
    correct state is ``"0"`` makes :func:`repro.analysis.qvf.
    qvf_from_probabilities` collapse to ``P("1")`` exactly — so the
    logical-error-collapse claim is scored with the ordinary QVF
    machinery and stays comparable across the suite.

    * ``code`` — ``"bit_flip"`` / ``"phase_flip"`` repetition, or
      ``"none"`` for the unprotected baseline (same wire count, no
      encode/decode) against which the collapse is measured.
    * ``distance`` — odd repetition distance >= 3. Distance 3 is the
      seed circuit verbatim; larger distances fan the encoder out and
      decode by a Toffoli AND-tree over the syndromes.
    * ``decode`` — ``False`` keeps the un-encode fan-out but omits the
      correction step, isolating exactly what the corrector buys.
    * ``state_theta`` / ``state_phi`` — the protected logical state;
      the defaults pick a generic superposition off every symmetry
      axis so both X- and Z-type faults are visible.
    """

    _what = "qec"

    code: str = "bit_flip"
    distance: int = 3
    decode: bool = True
    state_theta: float = math.pi / 3
    state_phi: float = math.pi / 5

    def __post_init__(self) -> None:
        if self.code not in QEC_CODES:
            raise ValueError(
                f"unknown QEC code {self.code!r} (choose from {QEC_CODES})"
            )
        if self.distance < 3 or self.distance % 2 == 0:
            raise ValueError(
                f"repetition distance must be an odd integer >= 3, "
                f"got {self.distance}"
            )
        if not (
            math.isfinite(self.state_theta) and math.isfinite(self.state_phi)
        ):
            raise ValueError("state_theta/state_phi must be finite")

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form."""
        return asdict(self)


@dataclass(frozen=True)
class StrikeSpec(_StrictFields):
    """Sample fault parameters from the radiation-strike physics.

    Replaces the uniform theta-phi grid with ``count`` fault
    configurations drawn from the particle-strike model of
    :mod:`repro.faults.physics`: strike distances are sampled uniformly
    over a disc of radius ``max_distance_um``, deposited charge decays
    exponentially with distance, and the phase-shift angle saturates at
    ``saturation_fraction`` of the qubit's critical charge. Sampling is
    seeded from the scenario ``seed`` (which therefore becomes
    mandatory), so strike campaigns stay deterministic, cacheable and
    kill/resume-safe.

    * ``k=1`` — independent single-qubit strikes: exactly
      :func:`repro.faults.sampling.sample_strike_faults` (theta from
      the charge model, phi uniform), swept over every injection point.
    * ``k=2`` — spatially correlated pair strikes on each physically
      adjacent couple of the wire frame: the primary qubit takes the
      full strike, its neighbour the same strike attenuated by one
      ``spacing_um`` hop, with the direction-scaled phi convention of
      :class:`repro.faults.physics.StrikeModel`. Records land in the
      same (first, second) columns as the double-fault sweep.
    * ``k>2`` — the pair grows into a cluster of the ``k`` nearest
      qubits by hop distance in the coupling graph; qubits ``h`` hops
      out are attenuated by ``exp(-h * spacing_um / CHARGE_DECAY_UM)``.
      The extra faults participate in the simulated physics; the
      recorded columns remain the primary pair.
    """

    _what = "strike"

    count: int = 64
    k: int = 1
    max_distance_um: float = 0.5
    saturation_fraction: float = 0.25
    spacing_um: float = 0.05

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"strike count must be positive, got {self.count}")
        if self.k < 1:
            raise ValueError(f"strike k must be >= 1, got {self.k}")
        if self.max_distance_um <= 0:
            raise ValueError("max_distance_um must be positive")
        if not 0 < self.saturation_fraction <= 1:
            raise ValueError(
                f"saturation_fraction must be in (0, 1], "
                f"got {self.saturation_fraction}"
            )
        if self.spacing_um <= 0:
            raise ValueError("spacing_um must be positive")

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form."""
        return asdict(self)


@dataclass(frozen=True)
class ScenarioSpec(_StrictFields):
    """One campaign, declaratively.

    ``noise`` picks a profile: ``none`` (ideal), ``light``/``heavy``
    (generic depolarizing+readout models at IBM-like magnitudes), or
    ``calibrated`` (built from the named ``machine``'s calibration
    snapshot). ``backend`` picks the engine: ``auto`` resolves to the
    statevector simulator for noiseless scenarios and the density-matrix
    simulator otherwise; ``trajectory`` Monte-Carlo-samples the noise;
    ``machine`` is the density matrix under the ``machine``'s
    calibration (the paper's scenario 2; it normalises to
    ``density-matrix`` with ``calibrated`` noise) and
    ``machine-emulator`` adds calibration drift plus shot sampling (the
    paper's scenario 3). ``mode="double"`` sweeps fault pairs over the
    physically adjacent couples of the ``machine``'s topology.

    Calibrated noise, and so both machine backends, needs a
    ``transpile`` block (``"transpile": {}``, or ``--transpile-to`` on
    the CLI): a calibration keys its errors by physical qubit and its
    two-qubit errors by coupled device pair, which only a routed
    circuit's gates land on. A spec without one raises.
    """

    _what = "scenario"

    algorithm: str
    width: int = 4
    noise: str = "light"
    backend: str = "auto"
    mode: str = "single"
    grid_step_deg: float = 45.0
    phi_max_deg: float = 360.0
    include_phi_endpoint: bool = False
    shots: Optional[int] = None
    seed: Optional[int] = None
    executor: str = "batched"
    workers: Optional[int] = None
    machine: str = "jakarta"
    drift_scale: float = 0.05
    trajectories: int = 256
    transpile: Optional[TranspileSpec] = None
    fused: bool = False
    """Inert. It once armed the ``bit_identical`` waiver; the response
    basis is now the default, so the field changes neither records nor
    the spec hash. It stays so stored specs still load."""
    precision: str = "exact"
    """Numeric mode; ``exact`` (complex128) is the only one. The field
    stays so stored specs still load; any other value raises."""
    bit_identical: bool = False
    """Whether single-fault records must be bit-identical to the naive
    per-injection sweep. By default (``False``) a single-fault site on
    the statevector and density-matrix backends (``machine`` is the
    latter) and the mitigation wrapper over them runs on the linear
    response basis when it holds at least as many faults as the basis
    has responses: the tail runs once per matrix unit on the fault qubit
    (4 statevector or 10 density-matrix responses, whatever the grid)
    and each fault combines them. Such records lie within 1e-12 QVF of
    the naive reference and stay byte-identical across executors, tile
    sizes, pools and resumed checkpoints. ``True`` opts out: every site
    runs the exact per-branch plans, bit-identical to the naive sweep,
    and the spec hashes as it did before the basis became the default.
    Smaller sites, pair and cluster sites, and the sampling backends run
    the exact plans either way."""
    memory_budget: Optional[int] = None
    """Peak batch-memory budget in bytes (also accepts ``"512MB"``-style
    strings). Caps the engine's branch-tile size, in process and in pool
    workers alike, so wide campaigns stream instead of OOMing; tiling
    never changes records, so the budget is excluded from the spec
    hash."""
    adaptive: Optional[AdaptiveSpec] = None
    """Adaptive exploration of the fault surface instead of the uniform
    grid sweep (see :class:`AdaptiveSpec`). The block changes which
    records the campaign holds, so — unlike ``budget`` — it participates
    in the spec hash whenever it is set."""
    budget: Optional[BudgetSpec] = None
    """Cost ceiling for this scenario (see :class:`BudgetSpec`).
    Hash-excluded: a budget bounds *how much* of the campaign runs, and
    completed campaigns are identical with or without one."""
    qec: Optional[QECSpec] = None
    """Error-correction-protected campaign (see :class:`QECSpec`).
    Requires ``algorithm="qec"``; the campaign sweeps faults over the
    encoded repetition-code circuit instead of a named algorithm, and
    its QVF column is the logical error probability. Participates in
    the spec hash whenever set, and drops when absent so pre-QEC spec
    hashes stay valid."""
    strike: Optional[StrikeSpec] = None
    """Physics-sampled fault parameters (see :class:`StrikeSpec`)
    instead of the uniform grid. Requires a ``seed``; renders the grid
    fields inert. Participates in the spec hash whenever set, and drops
    when absent so pre-strike spec hashes stay valid."""
    mitigation: bool = False
    """Score QVF from readout-error-mitigated distributions: execution
    routes through :class:`repro.analysis.mitigation.
    MitigatedReadoutBackend`, which inverts the noise model's readout
    confusion before scoring. Pair a mitigated scenario with its raw
    twin (same spec, flag off) to query mitigated-vs-raw QVF deltas.
    Participates in the spec hash only when enabled."""
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.algorithm:
            raise ValueError("scenario needs an algorithm name")
        if self.width < 1:
            raise ValueError(f"width must be positive, got {self.width}")
        if self.noise not in NOISE_PROFILES:
            raise ValueError(
                f"unknown noise profile {self.noise!r} "
                f"(choose from {NOISE_PROFILES})"
            )
        if self.backend not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend kind {self.backend!r} "
                f"(choose from {tuple(BACKEND_KINDS)})"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor strategy {self.executor!r} "
                f"(choose from {EXECUTORS})"
            )
        if self.mode not in MODES:
            raise ValueError(f"unknown campaign mode {self.mode!r}")
        if self.grid_step_deg <= 0:
            raise ValueError("grid_step_deg must be positive")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be positive when given")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be positive when given")
        if self.precision != "exact":
            raise ValueError(
                f"precision={self.precision!r} is no longer supported: "
                f"campaigns run in complex128, and single-fault sites run "
                f"on the linear response basis unless bit_identical=true"
            )
        object.__setattr__(
            self, "memory_budget", parse_memory_budget(self.memory_budget)
        )
        for name, block in (
            ("transpile", TranspileSpec),
            ("adaptive", AdaptiveSpec),
            ("budget", BudgetSpec),
            ("qec", QECSpec),
            ("strike", StrikeSpec),
        ):
            _coerce_block(self, name, block)
        if self.adaptive is not None and self.mode != "single":
            raise ValueError(
                "adaptive campaigns support mode='single' only: the "
                "double-fault sweep has no theta-phi surface to refine "
                "per couple"
            )
        if self.qec is not None:
            if self.algorithm != "qec":
                raise ValueError(
                    "a qec block requires algorithm='qec' (the protected "
                    "circuit replaces the named algorithm)"
                )
            if self.mode != "single":
                raise ValueError(
                    "qec campaigns support mode='single' only: injection "
                    "points are the encoded data wires, not couples"
                )
            if self.transpile is not None:
                raise ValueError(
                    "qec campaigns cannot be transpiled: routing would "
                    "move the encoder/decoder boundary the injection "
                    "points are anchored to"
                )
            if self.adaptive is not None:
                raise ValueError(
                    "qec campaigns do not support adaptive refinement"
                )
            if self.strike is not None:
                raise ValueError(
                    "qec and strike blocks are mutually exclusive; "
                    "split them into two scenarios"
                )
            # The protected circuit's width is fixed by the code
            # distance; normalize so the spec (and its hash) tell the
            # truth however width was spelled.
            object.__setattr__(self, "width", self.qec.distance)
        elif self.algorithm == "qec":
            raise ValueError(
                "algorithm='qec' needs a qec block (use \"qec\": {} "
                "for the defaults)"
            )
        if self.strike is not None:
            if self.mode != "single":
                raise ValueError(
                    "strike campaigns use mode='single'; multi-qubit "
                    "strikes are selected with the block's k field"
                )
            if self.adaptive is not None:
                raise ValueError(
                    "strike and adaptive blocks are mutually exclusive: "
                    "both replace the uniform grid"
                )
            if self.seed is None:
                raise ValueError(
                    "strike campaigns sample fault parameters and need "
                    "an explicit seed to stay reproducible"
                )
        if self.mitigation and self.backend == "machine-emulator":
            raise ValueError(
                "mitigation needs the scenario noise model's readout "
                "confusion; machine backends own their readout "
                "physics and cannot be wrapped"
            )
        # Normalize the noise profile the chosen backend actually runs
        # under, so the spec, its hash and the manifest all tell the
        # truth: machine backends always execute their calibration's
        # noise, the statevector engine is noiseless by construction. A
        # "noise sweep" over a machine-emulator would otherwise expand
        # to scenarios labelled none/light/heavy that run identical
        # physics. The same for the engine: ``machine`` is the density
        # matrix under that calibration, so it runs, hashes and caches
        # as its ``density-matrix`` twin.
        if self.backend in ("machine", "machine-emulator"):
            object.__setattr__(self, "noise", "calibrated")
            if self.backend == "machine":
                object.__setattr__(self, "backend", "density-matrix")
        elif self.backend == "statevector":
            object.__setattr__(self, "noise", "none")
        if self.noise == "calibrated" and self.transpile is None:
            raise UnroutedCalibrationError(
                "calibrated noise needs a routed circuit: the machine's "
                "model keys its errors by physical qubit and attaches "
                "two-qubit errors only to coupled pairs; add "
                "\"transpile\": {} to the spec (--transpile-to on the CLI)"
            )
        # The same for the response basis: paired sweeps, and the
        # backends without a basis, are bit-identical to the naive sweep
        # whatever the field says.
        if self.paired or not BACKEND_KINDS[self.backend]:
            object.__setattr__(self, "bit_identical", True)

    @property
    def paired(self) -> bool:
        """Whether the campaign sweeps pair or cluster sites (double
        faults, or a correlated strike with k >= 2) rather than
        single-fault sites."""
        return self.mode == "double" or (
            self.strike is not None and self.strike.k >= 2
        )

    @property
    def response_basis(self) -> bool:
        """Whether the engine may run this campaign's single-fault sites
        on the linear response basis: unless ``bit_identical`` opts out,
        or the campaign is paired or its backend kind has no basis
        (``bit_identical`` is then normalised to ``True``). The engine
        runs a site on it when the site holds at least the backend's
        ``basis_responses`` faults."""
        return not self.bit_identical

    @property
    def effective_machine(self) -> str:
        """The machine every topology-aware consumer of this spec uses.

        The transpile block may name its own target; ``None`` there (the
        common case) inherits the scenario's ``machine`` field, which is
        what lets suites sweep ``machine`` as a grid axis under one
        shared ``"transpile": {}`` block.
        """
        if self.transpile is not None and self.transpile.machine:
            return self.transpile.machine
        return self.machine

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def canonical_dict(self) -> Dict[str, object]:
        """Every record-influencing field, in declaration order.

        ``label`` is presentation, not physics: it is excluded, so
        relabelled duplicates of the same campaign hash identically.
        Fields the configuration renders inert are canonicalized for the
        same reason — ``auto`` resolves to its concrete backend kind,
        and trajectory counts / drift / worker counts / machine names
        null out when nothing consumes them — so physically identical
        campaigns hash identically however they were spelled.
        """
        data = asdict(self)
        data.pop("label")
        # memory_budget only tiles execution (tiling cannot change
        # records), so it always drops. ``fused`` is inert and
        # ``precision`` has one legal value: both always drop.
        # ``bit_identical`` drops too; the path it selects enters the
        # hash as the ``basis`` salt below, on the specs whose records
        # it moves.
        data.pop("memory_budget")
        # ``budget`` bounds how much of a campaign runs, never what a
        # completed campaign's records are — always hash-excluded, so a
        # budgeted re-run of a cached scenario still hits the cache.
        # ``adaptive`` *selects* which cells run at all: it participates
        # whenever set, and drops (rather than emitting null) when
        # absent so every pre-adaptive spec hash stays valid.
        data.pop("budget")
        if self.adaptive is None:
            data.pop("adaptive")
        # ``qec``/``strike`` select which circuit and which fault
        # parameters the campaign runs — they participate whenever set,
        # and drop (rather than emitting null) when absent so every
        # pre-physics spec hash stays valid. ``mitigation`` changes the
        # scored distributions when enabled and drops at its default
        # for the same reason.
        if self.qec is None:
            data.pop("qec")
        if self.strike is None:
            data.pop("strike")
        else:
            # Strike sampling replaces the uniform grid: the grid knobs
            # are inert and null out so spelling differences cannot
            # split the cache.
            data["grid_step_deg"] = None
            data["phi_max_deg"] = None
            data["include_phi_endpoint"] = None
        if not self.mitigation:
            data.pop("mitigation")
        del data["bit_identical"], data["fused"], data["precision"]
        backend = self.backend
        if backend == "auto":
            backend = (
                "statevector" if self.noise == "none" else "density-matrix"
            )
        data["backend"] = backend
        if self.response_basis:
            # Single-fault sites on the batched engine run on the
            # response basis by default, so their records moved: the
            # salt keeps every manifest, cache entry and checkpoint made
            # on the exact plans (or by the 16-response basis, salted
            # "linear-response") from being served or resumed. It marks
            # every spec whose sites may run on the basis; one whose
            # sites all hold fewer faults than the backend's responses
            # keeps its records under the new hash. Opted-out, paired
            # and sampling-backend specs keep their hashes. The density
            # matrix's basis runs folded tails, which moved its records
            # again by rounding, so its specs carry a salt of their own;
            # the statevector has nothing to fold.
            data["basis"] = (
                "linear-response-default"
                if backend == "statevector"
                else "linear-response-folded"
            )
        if self.shots is not None and backend != "machine-emulator":
            # Sampled records follow one seeding rule: every draw of
            # task k comes from ``default_rng((seed, k))``. Records drawn
            # under the earlier stream rules differ, so the rule enters
            # the hash and no manifest or cache entry made before it is
            # served. The emulator keeps its own stream, and its hash.
            data["seeding"] = "per-task"
        if backend != "trajectory":
            data["trajectories"] = None
        if backend != "machine-emulator":
            data["drift_scale"] = None
        else:
            # The emulator runs the routed circuit on its used wires, as
            # every calibrated engine does. Its draws kept their bits, but
            # its wire column, stored layout map and paired sweeps moved,
            # so the salt keeps every manifest, cache entry and checkpoint
            # made in the device frame from being served or resumed.
            data["frame"] = "compacted"
        if self.executor != "parallel":
            data["workers"] = None
        if self.transpile is not None:
            # The transpile block consumes the machine name: resolve the
            # inherit-from-scenario shorthand so "machine axis + shared
            # empty transpile block" and "explicit per-block machine"
            # spell the same campaign and hash identically. The
            # scenario-level machine is then inert (every transpiled
            # consumer — topology, couples, calibrated noise, the
            # emulator — reads the effective machine) and nulls out.
            block = self.transpile.to_dict()
            block["machine"] = self.effective_machine
            data["transpile"] = block
            data["machine"] = None
        else:
            # Untranspiled specs drop the key entirely rather than
            # emitting "transpile": null: spec hashes (and therefore
            # suite hashes) of every pre-transpilation campaign stay
            # exactly what earlier releases computed, so half-completed
            # suite manifests keep resuming across the upgrade.
            data.pop("transpile")
            # Paired sweeps read the machine's coupling graph for their
            # couples and clusters, so the machine stays live. Calibrated
            # noise (every machine backend's) needs a transpile block.
            if not self.paired:
                data["machine"] = None
        return data

    def resume_identity(self) -> Dict[str, object]:
        """What a checkpoint of this campaign must agree on to resume.

        The canonical dict without ``executor`` and ``workers`` — every
        task draws from its own generator, so the strategy moves no
        record — and without the adaptive block's ``max_rounds`` and
        ``tolerance``, which decide where the round loop stops, never
        which rounds exist. The emulator draws from a stream of its own,
        which a resumed run would restart, so a checkpoint of it with
        injections left does not resume at all
        (:func:`~repro.faults.checkpoint.run_plan`).
        """
        data = self.canonical_dict()
        del data["executor"], data["workers"]
        if self.adaptive is not None:
            data["adaptive"] = {
                key: value
                for key, value in data["adaptive"].items()
                if key not in ("max_rounds", "tolerance")
            }
        return data

    def spec_hash(self) -> str:
        """Content hash of the campaign this spec describes."""
        blob = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    @property
    def scenario_id(self) -> str:
        """Manifest key: the label, or a readable slug + hash suffix."""
        if self.label:
            return self.label
        routed = "" if self.transpile is None else f"@{self.effective_machine}"
        return (
            f"{self.algorithm}{self.width}{routed}-{self.noise}-{self.mode}"
            f"-{self.spec_hash()[:8]}"
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Full dict (including label); defaults are kept explicit."""
        return asdict(self)

    def relabel(self, label: Optional[str]) -> "ScenarioSpec":
        """A copy under a new label (same campaign, same spec hash)."""
        return replace(self, label=label)


def expand_grid(**axes: object) -> List[ScenarioSpec]:
    """Cross-product scenario construction.

    Every field given as a list becomes an axis; scalars are fixed. A
    ``label`` containing ``{field}`` placeholders is formatted per
    combination, so the expansion stays self-describing::

        expand_grid(
            algorithm=["ghz", "qft"], width=[2, 4, 8],
            noise=["none", "light", "heavy"],
            label="fig7-{algorithm}{width}-{noise}",
        )

    is 18 scenarios in one call.
    """
    keys = list(axes)
    values = [
        value if isinstance(value, list) else [value]
        for value in axes.values()
    ]
    specs: List[ScenarioSpec] = []
    for combo in itertools.product(*values):
        entry = dict(zip(keys, combo))
        label = entry.get("label")
        if isinstance(label, str) and "{" in label:
            # Format against the *full* spec, so placeholders may name
            # defaulted fields the caller did not pass as axes.
            base = ScenarioSpec.from_dict({**entry, "label": None})
            entry["label"] = label.format(**{**base.to_dict(), "label": ""})
        specs.append(ScenarioSpec.from_dict(entry))
    return specs


@dataclass(frozen=True)
class SuiteSpec:
    """An ordered, named collection of scenarios."""

    name: str
    scenarios: Tuple[ScenarioSpec, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("suite needs a name")
        if not self.scenarios:
            raise ValueError("suite needs at least one scenario")
        seen: Dict[str, int] = {}
        for index, scenario in enumerate(self.scenarios):
            sid = scenario.scenario_id
            if sid in seen:
                raise ValueError(
                    f"duplicate scenario id {sid!r} (entries {seen[sid]} "
                    f"and {index}); give relabelled duplicates distinct "
                    f"labels"
                )
            seen[sid] = index

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    def suite_hash(self) -> str:
        """Hash pinning the manifest identity: name + ordered (id, hash).

        Ids are included so a relabelled suite gets a fresh manifest —
        entries are keyed by scenario id, and mixing id sets would leave
        the manifest disagreeing with the spec it claims to describe.
        """
        blob = json.dumps(
            {
                "name": self.name,
                "scenarios": [
                    (s.scenario_id, s.spec_hash()) for s in self.scenarios
                ],
            }
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def distinct_hashes(self) -> List[str]:
        """Unique spec hashes in first-appearance order."""
        ordered: Dict[str, None] = {}
        for scenario in self.scenarios:
            ordered.setdefault(scenario.spec_hash())
        return list(ordered)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, name: str, scenarios: Iterable[ScenarioSpec]
    ) -> "SuiteSpec":
        """Construct a suite from any iterable of scenarios."""
        return cls(name=name, scenarios=tuple(scenarios))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The suite as plain data (every scenario fully explicit)."""
        return {
            "name": self.name,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SuiteSpec":
        """Build a suite, expanding any grid entries.

        A scenario entry whose field holds a *list* is a cross-product
        axis (see :func:`expand_grid`); plain entries pass through
        unchanged. This is what lets a JSON spec express "GHZ..QFT x
        widths 2..8 x 3 noise levels" in a few lines.
        """
        if "name" not in data or "scenarios" not in data:
            raise ValueError("suite spec needs 'name' and 'scenarios'")
        scenarios: List[ScenarioSpec] = []
        for entry in data["scenarios"]:
            if isinstance(entry, ScenarioSpec):
                scenarios.append(entry)
            elif any(isinstance(value, list) for value in entry.values()):
                scenarios.extend(expand_grid(**entry))
            else:
                scenarios.append(ScenarioSpec.from_dict(entry))
        return cls(name=data["name"], scenarios=tuple(scenarios))

    def to_json(self, path: str) -> None:
        """Write the suite spec as a (sorted, indented) JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "SuiteSpec":
        """Load a spec file, expanding any grid entries (see from_dict)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def __repr__(self) -> str:
        return (
            f"SuiteSpec({self.name!r}, scenarios={len(self.scenarios)}, "
            f"distinct={len(self.distinct_hashes())})"
        )
