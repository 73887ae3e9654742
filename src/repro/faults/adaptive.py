"""Adaptive campaigns: coarse-to-fine refinement and importance sampling.

The paper's theta-phi QVF surfaces (Figs. 5-11) are smooth almost
everywhere: a uniform full grid spends most of its injections in cells
where QVF is flat. This module is the engine that spends them where the
surface actually varies, in two modes:

* **Refinement** (``mode="refine"``) — the campaign targets the same
  full grid a uniform sweep would (``theta_values``/``phi_values`` at
  the scenario's step), but starts from ``coarse_points`` evenly spaced
  *grid lines* per axis. Each round runs the complete product of the
  active lines (only the combinations not yet recorded execute),
  finite-differences the resulting heatmap between adjacent active
  lines, and activates the full-grid midpoint line of every interval
  whose QVF change exceeds ``gradient_threshold``. The loop stops when
  no interval qualifies, when the interpolated full-grid estimate
  changes by at most ``tolerance`` round over round, or when
  ``max_rounds`` / the injection budget is reached. Because refined
  lines are always *full-grid* lines, every refined cell lands exactly
  on a cell of the uniform sweep — which is what makes the full-grid
  golden comparison (:func:`refined_heatmap`) exact rather than
  approximate.

* **Importance sampling** (``mode="importance"``) — rounds draw fault
  configurations from the strike physics of
  :func:`repro.faults.sampling.sample_strike_faults` (round ``r`` is
  seeded from ``(seed, r)``), so the expected-QVF estimate concentrates
  its injections where real strikes land. The loop stops once the
  standard error of the mean QVF drops to ``tolerance``.

Determinism and resume
----------------------
Every round is an ordinary single-sweep plan
(:func:`~repro.faults.plan.single_plan`): tasks are enumerated over
``product(points, union_faults)`` where ``union_faults`` is the
canonical union of every round so far, so a task's ``(seed, index)``
generator depends only on the round structure — never on where a
previous invocation was killed. The round structure itself is a pure
function of the recorded cells (refinement decisions consult only cells
of lines active at that round; records a killed later round left behind
lie on other lines), so a resumed campaign replays the same rounds,
skips every recorded injection (:func:`~repro.faults.checkpoint.run_plan` is
given the previous round's rows in memory, or the checkpoint store's),
and converges to a byte-identical segment store on every strategy,
the pool included (it delivers rows in task order).
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..algorithms.spec import AlgorithmSpec
from ..quantum.circuit import QuantumCircuit
from .campaign import CampaignResult
from .checkpoint import load_checkpoint, run_plan
from .executor import BaseExecutor
from .fault_model import (
    FULL_GRID_STEP_DEG,
    PhaseShiftFault,
    phi_values,
    theta_values,
)
from .injection_points import InjectionPoint, enumerate_injection_points
from .injector import QuFI
from .plan import resolve_target, single_plan
from .records import RecordTable
from .sampling import sample_strike_faults

__all__ = [
    "coarse_line_indices",
    "run_adaptive_campaign",
    "refined_heatmap",
]

#: Matches the checkpoint layer's completed-injection key resolution.
_KEY_DECIMALS = 9

#: Config keys that must match when resuming an adaptive checkpoint —
#: a store refined under one configuration cannot continue under another
#: (the replayed round structure would diverge from the recorded one).
#: Stopping parameters (``max_rounds``, ``tolerance``, budgets) are
#: deliberately absent: they decide where the loop stops, never which
#: rounds exist, so resuming a round-capped run with a larger cap
#: continues the same campaign.
_RESUME_KEYS = (
    "mode",
    "coarse_points",
    "gradient_threshold",
    "samples_per_round",
    "grid_step_deg",
    "phi_max_deg",
    "include_phi_endpoint",
)


def coarse_line_indices(size: int, coarse_points: int) -> List[int]:
    """Evenly spaced indices into an axis of ``size``, endpoints included.

    The starting line set of a refinement campaign: ``coarse_points``
    positions from ``linspace(0, size - 1)``, rounded to grid indices
    and deduplicated. An axis no longer than ``coarse_points`` is
    returned whole (nothing to refine).
    """
    if size < 1:
        raise ValueError("axis size must be positive")
    if coarse_points < 2:
        raise ValueError("coarse_points must be at least 2")
    if size <= coarse_points:
        return list(range(size))
    positions = np.linspace(0.0, size - 1, coarse_points)
    return sorted({int(round(p)) for p in positions.tolist()})


def _fault_key(fault: PhaseShiftFault) -> Tuple[float, float]:
    return (round(fault.theta, _KEY_DECIMALS), round(fault.phi, _KEY_DECIMALS))


def _union_faults(
    theta_axis: Sequence[float],
    phi_axis: Sequence[float],
    active_thetas: Sequence[int],
    active_phis: Sequence[int],
) -> List[PhaseShiftFault]:
    """The canonical fault list of an active-line product.

    Sorted by (theta line, phi line) index — the order is a pure
    function of the active sets, so resumed invocations enumerate tasks
    identically however the lines were discovered.
    """
    return [
        PhaseShiftFault(theta_axis[i], phi_axis[j])
        for i in sorted(active_thetas)
        for j in sorted(active_phis)
    ]


def _restrict_to_faults(
    table: RecordTable, faults: Sequence[PhaseShiftFault]
) -> np.ndarray:
    """QVF values of the records whose fault lies in ``faults``.

    A resumed store may hold records a killed later round left behind;
    every statistic that steers the round loop must ignore them, or the
    replayed rounds would diverge from the original run's.
    """
    keys = {_fault_key(fault) for fault in faults}
    thetas = np.round(np.asarray(table.column("theta")), _KEY_DECIMALS)
    phis = np.round(np.asarray(table.column("phi")), _KEY_DECIMALS)
    qvf = np.asarray(table.column("qvf"))
    mask = np.fromiter(
        ((t, p) in keys for t, p in zip(thetas.tolist(), phis.tolist())),
        dtype=bool,
        count=len(table),
    )
    return qvf[mask]


def _cell_means(
    table: RecordTable,
    theta_axis: np.ndarray,
    phi_axis: np.ndarray,
) -> np.ndarray:
    """Mean QVF per full-grid cell, NaN where never injected.

    Records map to the nearest full-grid cell (refinement records lie
    exactly on grid values; the rounding only absorbs float noise).
    """
    grid_sum = np.zeros((phi_axis.size, theta_axis.size))
    grid_count = np.zeros((phi_axis.size, theta_axis.size), dtype=np.int64)
    thetas = np.asarray(table.column("theta"))
    phis = np.asarray(table.column("phi"))
    qvf = np.asarray(table.column("qvf"))
    ti = np.clip(
        np.searchsorted(theta_axis, thetas - 1e-9), 0, theta_axis.size - 1
    )
    pi_ = np.clip(
        np.searchsorted(phi_axis, phis - 1e-9), 0, phi_axis.size - 1
    )
    flat = pi_ * theta_axis.size + ti
    grid_sum += np.bincount(
        flat, weights=qvf, minlength=grid_sum.size
    ).reshape(grid_sum.shape)
    grid_count += (
        np.bincount(flat, minlength=grid_count.size)
        .reshape(grid_count.shape)
        .astype(np.int64)
    )
    with np.errstate(invalid="ignore"):
        return np.where(
            grid_count > 0, grid_sum / np.maximum(grid_count, 1), np.nan
        )


def _refine_lines(
    means: np.ndarray,
    active_thetas: List[int],
    active_phis: List[int],
    threshold: float,
) -> Tuple[List[int], List[int]]:
    """Midpoint lines of every active interval exceeding ``threshold``.

    ``means`` is the NaN-filled full-grid cell matrix; the submatrix at
    the active lines is complete by construction. The gradient per
    interval is the *maximum* absolute QVF change across the crossing
    lines — one volatile row is enough to warrant refinement.
    """
    sub = means[np.ix_(active_phis, active_thetas)]
    new_thetas: List[int] = []
    new_phis: List[int] = []
    for k in range(len(active_thetas) - 1):
        left, right = active_thetas[k], active_thetas[k + 1]
        if right - left <= 1:
            continue
        if np.max(np.abs(sub[:, k + 1] - sub[:, k])) > threshold:
            new_thetas.append((left + right) // 2)
    for k in range(len(active_phis) - 1):
        low, high = active_phis[k], active_phis[k + 1]
        if high - low <= 1:
            continue
        if np.max(np.abs(sub[k + 1, :] - sub[k, :])) > threshold:
            new_phis.append((low + high) // 2)
    return new_thetas, new_phis


def _interpolate_lines(
    means: np.ndarray,
    active_thetas: List[int],
    active_phis: List[int],
) -> np.ndarray:
    """Bilinear full-grid estimate from the active-line submatrix.

    Separable: interpolate every active phi row along theta, then every
    full-grid theta column along phi. Index coordinates (not angles) are
    the interpolation variable — grid steps are uniform, so the two
    agree up to scale.
    """
    n_phis, n_thetas = means.shape
    sub = means[np.ix_(active_phis, active_thetas)]
    theta_grid = np.arange(n_thetas, dtype=np.float64)
    phi_grid = np.arange(n_phis, dtype=np.float64)
    along_theta = np.vstack(
        [
            np.interp(theta_grid, np.asarray(active_thetas, float), row)
            for row in sub
        ]
    )
    return np.vstack(
        [
            np.interp(phi_grid, np.asarray(active_phis, float), along_theta[:, c])
            for c in range(n_thetas)
        ]
    ).T


def refined_heatmap(
    result: CampaignResult,
    grid_step_deg: float = FULL_GRID_STEP_DEG,
    phi_max_deg: float = 360.0,
    include_phi_endpoint: bool = False,
    fill: str = "interpolate",
) -> Tuple[List[float], List[float], np.ndarray]:
    """A refined campaign's heatmap on the full uniform grid.

    Returns ``(thetas, phis, grid)`` over the complete
    ``theta_values``/``phi_values`` axes at ``grid_step_deg``. Visited
    cells hold their recorded mean QVF exactly (refined lines are
    full-grid lines); unvisited cells are either bilinearly interpolated
    from the visited line product (``fill="interpolate"``) or left as
    explicit NaN (``fill="mask"``) — never silently extrapolated from
    anything else.
    """
    if fill not in ("interpolate", "mask"):
        raise ValueError(f"unknown fill mode {fill!r}")
    theta_axis = np.asarray(theta_values(grid_step_deg))
    phis = phi_values(grid_step_deg, phi_max_deg)
    if include_phi_endpoint:
        phis = phis + [math.radians(phi_max_deg)]
    phi_axis = np.asarray(phis)
    means = _cell_means(result.table, theta_axis, phi_axis)
    if fill == "interpolate":
        visited_thetas = sorted(
            set(np.nonzero(~np.all(np.isnan(means), axis=0))[0].tolist())
        )
        visited_phis = sorted(
            set(np.nonzero(~np.all(np.isnan(means), axis=1))[0].tolist())
        )
        if visited_thetas and visited_phis:
            means = _interpolate_lines(means, visited_thetas, visited_phis)
    return theta_axis.tolist(), phi_axis.tolist(), means


def _check_resume_config(
    checkpoint_path: Optional[str], config: Dict[str, object]
) -> None:
    """Refuse to resume a store refined under a different configuration.

    The replayed round structure is a function of the adaptive config;
    continuing a store recorded under another one would mix two
    campaigns' cells silently. Stores without an adaptive block (plain
    grid checkpoints) are rejected for the same reason.
    """
    if checkpoint_path is None:
        return
    existing = load_checkpoint(checkpoint_path)
    if existing is None:
        return
    stored = existing.metadata.get("adaptive")
    if stored is None:
        raise ValueError(
            "checkpoint holds a non-adaptive campaign; refusing to "
            "continue it adaptively — use a fresh checkpoint path"
        )
    mismatched = [
        key
        for key in _RESUME_KEYS
        if key in stored and stored[key] != config[key]
    ]
    if mismatched:
        raise ValueError(
            f"checkpoint was refined under a different adaptive "
            f"configuration (differs on {mismatched}); refusing to mix "
            f"round structures — use a fresh checkpoint path"
        )


def run_adaptive_campaign(
    qufi: QuFI,
    target: Union[AlgorithmSpec, QuantumCircuit],
    correct_states: Optional[Sequence[str]] = None,
    points: Optional[Sequence[InjectionPoint]] = None,
    grid_step_deg: float = FULL_GRID_STEP_DEG,
    phi_max_deg: float = 360.0,
    include_phi_endpoint: bool = False,
    coarse_points: int = 5,
    gradient_threshold: float = 0.05,
    max_rounds: int = 8,
    tolerance: float = 0.0,
    mode: str = "refine",
    samples_per_round: int = 64,
    max_injections: Optional[int] = None,
    max_seconds: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
    save_every: int = 200,
    executor: Optional[BaseExecutor] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> CampaignResult:
    """Run (or resume) an adaptive single-fault campaign.

    ``mode="refine"`` performs coarse-to-fine grid refinement against
    the ``grid_step_deg`` full grid; ``mode="importance"`` draws
    physics-weighted fault batches per round. Budgets stop the loop at
    a round boundary: ``max_injections`` is checked *before* each round
    (the coarse round itself must fit, or the call raises), and
    ``max_seconds`` caps this invocation's wall clock — a time-stopped
    checkpointed campaign resumes from where it stopped.

    With ``checkpoint_path``, every round streams through
    :func:`~repro.faults.checkpoint.run_plan` into one segment store; a killed
    run — between rounds or mid-round — resumes to the byte-identical
    store an uninterrupted run produces, on every executor. Without it,
    the identical records are produced in memory.

    The result's ``metadata["adaptive"]`` block records the
    configuration and outcome (rounds run, active lines, injections
    spent versus the full grid, and why the loop stopped).
    """
    if mode not in ("refine", "importance"):
        raise ValueError(f"unknown adaptive mode {mode!r}")
    circuit = resolve_target(target, correct_states)[0]
    points = (
        list(points)
        if points is not None
        else enumerate_injection_points(circuit)
    )
    if not points:
        raise ValueError("circuit has no injection points")
    executor = executor if executor is not None else qufi.executor
    theta_axis = np.asarray(theta_values(grid_step_deg))
    phis = phi_values(grid_step_deg, phi_max_deg)
    if include_phi_endpoint:
        phis = phis + [math.radians(phi_max_deg)]
    phi_axis = np.asarray(phis)
    full_grid_injections = theta_axis.size * phi_axis.size * len(points)

    config: Dict[str, object] = {
        "mode": mode,
        "coarse_points": coarse_points,
        "gradient_threshold": gradient_threshold,
        "max_rounds": max_rounds,
        "tolerance": tolerance,
        "samples_per_round": samples_per_round,
        "grid_step_deg": grid_step_deg,
        "phi_max_deg": phi_max_deg,
        "include_phi_endpoint": include_phi_endpoint,
    }
    _check_resume_config(checkpoint_path, config)

    def run_union(
        union: Sequence[PhaseShiftFault],
        adaptive: Dict[str, object],
        prior: Optional[CampaignResult],
    ) -> CampaignResult:
        """Run the union's missing injections (prior rows come from the
        previous round, or from the store); return the campaign so far."""
        plan = single_plan(
            target, correct_states, union, points, qufi.shots, qufi.seed
        )
        plan.metadata.update({**(metadata or {}), "adaptive": adaptive})
        return run_plan(
            qufi,
            plan,
            prior=prior,
            checkpoint_path=checkpoint_path,
            save_every=save_every,
            executor=executor,
        )

    # ------------------------------------------------------------------
    # The round loop. Active sets / sampled batches are derived only
    # from the configuration and the union-restricted records, so a
    # resumed invocation replays the identical rounds.
    # ------------------------------------------------------------------
    started = time.perf_counter()
    stopped = "max-rounds"
    rounds_run = 0
    prev_estimate: Optional[np.ndarray] = None
    union: List[PhaseShiftFault] = []
    last: Optional[CampaignResult] = None

    if mode == "refine":
        active_thetas = coarse_line_indices(theta_axis.size, coarse_points)
        active_phis = coarse_line_indices(phi_axis.size, coarse_points)
    sampled_batches: List[List[PhaseShiftFault]] = []

    for round_index in range(max_rounds):
        if mode == "refine":
            next_union = _union_faults(
                theta_axis, phi_axis, active_thetas, active_phis
            )
        else:
            batch_seed = (
                None if qufi.seed is None else (qufi.seed, round_index)
            )
            sampled_batches.append(
                sample_strike_faults(
                    samples_per_round,
                    rng=np.random.default_rng(batch_seed),
                )
            )
            next_union = [
                fault for batch in sampled_batches for fault in batch
            ]
        cost = len(next_union) * len(points)
        if max_injections is not None and cost > max_injections:
            if round_index == 0:
                raise ValueError(
                    f"injection budget {max_injections} cannot fund the "
                    f"coarse round ({cost} injections: "
                    f"{len(next_union)} faults x {len(points)} points); "
                    f"raise the budget or coarsen the start"
                )
            stopped = "budget"
            if mode == "importance":
                sampled_batches.pop()
            break
        union = next_union
        state = {"round": round_index + 1, "num_faults": len(union)}
        last = run_union(union, {**config, **state}, last)
        table = last.table
        rounds_run = round_index + 1

        if mode == "refine":
            means = _cell_means(table, theta_axis, phi_axis)
            estimate = _interpolate_lines(means, active_thetas, active_phis)
            if (
                tolerance > 0
                and prev_estimate is not None
                and float(np.max(np.abs(estimate - prev_estimate)))
                <= tolerance
            ):
                stopped = "tolerance"
                break
            prev_estimate = estimate
            new_thetas, new_phis = _refine_lines(
                means, active_thetas, active_phis, gradient_threshold
            )
            if not new_thetas and not new_phis:
                stopped = "converged"
                break
            active_thetas = sorted(set(active_thetas) | set(new_thetas))
            active_phis = sorted(set(active_phis) | set(new_phis))
        else:
            qvfs = _restrict_to_faults(table, union)
            if tolerance > 0 and qvfs.size > 1:
                stderr = float(qvfs.std() / math.sqrt(qvfs.size))
                if stderr <= tolerance:
                    stopped = "tolerance"
                    break
        if (
            max_seconds is not None
            and time.perf_counter() - started > max_seconds
        ):
            stopped = "time-budget"
            break

    injections = len(union) * len(points)
    outcome: Dict[str, object] = {
        **config,
        "rounds": rounds_run,
        "stopped": stopped,
        "injections": injections,
        "full_grid_injections": full_grid_injections,
    }
    if mode == "refine":
        outcome["active_thetas"] = [int(i) for i in active_thetas]
        outcome["active_phis"] = [int(i) for i in active_phis]

    # One more (workless) pass stamps the final adaptive outcome — into
    # the store's metadata segment too, compacted by the same path every
    # round went through, so the final bytes are a deterministic
    # function of the round structure alone.
    return run_union(union, outcome, last)
