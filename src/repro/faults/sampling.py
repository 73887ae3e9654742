"""Physics-weighted fault sampling and strike-rate estimates.

The uniform grid of Sec. IV-B answers "what does each possible fault do";
an operator planning a deployment asks the complementary question: "what
will faults *actually* do", given that strikes land at random distances and
small deposited charges are far more common than large ones. This module
draws fault configurations from the charge-deposition physics of
:mod:`repro.faults.physics` and weights campaign records accordingly,
yielding an expected-QVF figure for a realistic fault mix.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from .campaign import CampaignResult, _nearest_indices
from .fault_model import PhaseShiftFault
from .physics import CHARGE_DECAY_UM

__all__ = [
    "sample_strike_faults",
    "strike_theta_samples",
    "theta_distribution",
    "expected_qvf",
    "run_strike_campaign",
]


def strike_theta_samples(
    count: int,
    rng: np.random.Generator,
    max_distance_um: float = 0.5,
    saturation_fraction: float = 0.25,
) -> np.ndarray:
    """``count`` theta magnitudes drawn from the strike physics, at once.

    The vectorized core of :func:`sample_strike_faults`: radii uniform in
    the disc (``r = sqrt(U) * R``), deposited charge following the
    exponential Fig. 3 attenuation, and the saturating charge-to-theta
    map of :func:`repro.faults.physics.phase_shift_magnitude` — the same
    physics, applied to the whole batch as three array expressions
    instead of a per-fault Python loop.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if max_distance_um <= 0:
        raise ValueError("max distance must be positive")
    if saturation_fraction <= 0:
        raise ValueError("saturation fraction must be positive")
    radii = np.sqrt(rng.uniform(0.0, 1.0, size=count)) * max_distance_um
    charges = np.exp(-radii / CHARGE_DECAY_UM)
    return math.pi * np.minimum(1.0, charges / saturation_fraction)


def sample_strike_faults(
    count: int,
    rng: Optional[np.random.Generator] = None,
    max_distance_um: float = 0.5,
    saturation_fraction: float = 0.25,
    seed: Optional[int] = None,
) -> List[PhaseShiftFault]:
    """Draw faults from random strike geometry.

    Strikes land uniformly in a disc of radius ``max_distance_um`` around
    the qubit; the deposited charge follows the exponential attenuation of
    the Fig. 3 profile, and the phase direction phi is uniform — the strike
    physics fixes the magnitude but not the direction (Sec. III-C: the
    relation between shift directions "is still largely unclear").

    ``seed`` builds a fresh generator when no ``rng`` is passed, so a
    batch is reproducible without the caller managing generator state
    (``rng`` wins when both are given). The draw order is fixed — radii
    first, then phis — so the same seed yields the same faults across
    releases.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    thetas = strike_theta_samples(
        count, rng, max_distance_um, saturation_fraction
    )
    phis = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return [
        PhaseShiftFault(theta, phi)
        for theta, phi in zip(thetas.tolist(), phis.tolist())
    ]


def theta_distribution(
    samples: int = 10_000,
    rng: Optional[np.random.Generator] = None,
    bins: int = 12,
    max_distance_um: float = 0.5,
    seed: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """Histogram of strike-induced theta magnitudes.

    The exponential charge profile makes small shifts dominate — the
    quantitative version of the paper's observation that "low energy
    neutrons are exponentially more common than high energy ones", so
    "collapses are less likely than phase shifts". Draws the theta batch
    through the vectorized :func:`strike_theta_samples` (no fault
    objects are materialised); the values match what
    :func:`sample_strike_faults` would produce from the same generator.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    thetas = strike_theta_samples(samples, rng, max_distance_um)
    density, edges = np.histogram(
        thetas, bins=bins, range=(0.0, math.pi), density=True
    )
    return {"density": density, "edges": edges, "thetas": thetas}


def run_strike_campaign(
    qufi,
    target,
    count: int,
    rng: Optional[np.random.Generator] = None,
    max_distance_um: float = 0.5,
    saturation_fraction: float = 0.25,
    executor=None,
):
    """Monte-Carlo campaign over physics-sampled faults.

    Instead of the uniform grid, draws ``count`` fault configurations from
    the strike physics of :func:`sample_strike_faults` and sweeps them over
    every injection point through the campaign engine — so the Monte-Carlo
    study gets prefix reuse and parallelism for free. The resulting
    :class:`~repro.faults.campaign.CampaignResult` mean QVF is a direct
    estimate of the deployment-relevant corruption of a random strike.

    ``qufi`` is a :class:`~repro.faults.injector.QuFI`; ``executor``
    optionally overrides its execution strategy for this sweep.
    """
    faults = sample_strike_faults(
        count,
        rng,
        max_distance_um=max_distance_um,
        saturation_fraction=saturation_fraction,
    )
    result = qufi.run_campaign(target, faults=faults, executor=executor)
    result.metadata["fault_source"] = "strike_sampling"
    result.metadata["max_distance_um"] = max_distance_um
    return result


def expected_qvf(
    result: CampaignResult,
    rng: Optional[np.random.Generator] = None,
    samples: int = 20_000,
    max_distance_um: float = 0.5,
    seed: Optional[int] = None,
) -> float:
    """Expected QVF under the physical strike distribution.

    Weights the campaign's (theta, phi) heatmap cells by how often the
    strike physics produces a fault in each cell (nearest-cell binning).
    This turns the uniform-grid campaign into the deployment-relevant
    number: the average output corruption of a random particle strike.
    Samples landing on never-injected (NaN) cells are dropped; raises
    when the campaign has no cells at all or no sample hits a populated
    one.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    thetas, phis, grid = result.heatmap()
    if not thetas or not phis:
        raise ValueError("campaign has no heatmap cells")
    theta_axis = np.asarray(thetas)
    phi_axis = np.asarray(phis)
    sample_thetas = strike_theta_samples(samples, rng, max_distance_um)
    sample_phis = rng.uniform(0.0, 2.0 * math.pi, size=samples)
    values = grid[
        _nearest_indices(phi_axis, sample_phis),
        _nearest_indices(theta_axis, sample_thetas),
    ]
    values = values[~np.isnan(values)]
    if not values.size:
        raise ValueError("no sampled fault landed on a populated cell")
    return float(values.mean())
