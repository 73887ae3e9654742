"""E3 — Fig. 7: QVF distribution histograms vs circuit scale (4-7 qubits).

Paper findings reproduced here:

* BV and DJ: the number of qubits does not modify the reliability profile
  (overlapping histograms, stable mean/std);
* QFT: scaling concentrates the QVF around 0.5 — more dubious outputs. The
  effect is device-level (deeper transpiled circuits accumulate more
  noise), so the QFT series runs on transpiled circuits over the Jakarta
  noise model, as the paper's campaigns did.
"""

import numpy as np
import pytest

from repro.algorithms import bernstein_vazirani, deutsch_jozsa, qft
from repro.analysis import (
    distribution_distance,
    peak_concentration,
    summarize,
)
from repro.faults import QuFI, enumerate_injection_points, fault_grid
from repro.simulators import DensityMatrixSimulator
from repro.transpiler import transpile

from .conftest import make_injector

WIDTHS = [4, 5, 6, 7]


def _logical_series(builder, grid_step):
    faults = fault_grid(step_deg=grid_step)
    campaigns = {}
    for width in WIDTHS:
        qufi = make_injector(width)
        campaigns[width] = qufi.run_campaign(builder(width), faults=faults)
    return campaigns


def _print_series(name, campaigns):
    print(f"\nFig. 7 ({name}): QVF distribution vs scale")
    print("width   n_inj    mean     std   mass[0.45,0.55]")
    for width, campaign in campaigns.items():
        summary = summarize(campaign, label=f"{name}{width}")
        print(
            f"{width:5d} {summary.count:7d}  {summary.mean:.4f}  "
            f"{summary.std:.4f}  {summary.mass_near_half:8.1%}"
        )


@pytest.mark.parametrize(
    "name,builder",
    [("bv", bernstein_vazirani), ("dj", deutsch_jozsa)],
)
def test_fig7_bv_dj_scale_invariant(benchmark, grid_step, name, builder):
    campaigns = benchmark.pedantic(
        _logical_series, args=(builder, grid_step), rounds=1, iterations=1
    )
    _print_series(name, campaigns)

    means = [c.mean_qvf() for c in campaigns.values()]
    assert max(means) - min(means) < 0.06, "profile should not move with scale"
    drift = distribution_distance(campaigns[4], campaigns[7])
    print(f"total-variation drift 4q -> 7q: {drift:.4f}")
    assert drift < 0.35


def test_fig7_qft_concentrates(benchmark, jakarta_backend):
    """QFT's histogram peak around 0.5 grows with width (device-level)."""
    qufi = QuFI(DensityMatrixSimulator(jakarta_backend.noise_model))
    faults = fault_grid(step_deg=90)

    def run_series():
        campaigns = {}
        for width, stride in ((4, 3), (5, 4), (6, 6)):
            spec = qft(width)
            transpiled = transpile(spec.circuit, jakarta_backend.coupling, 3)
            points = enumerate_injection_points(transpiled.circuit)[::stride]
            campaigns[width] = qufi.run_campaign(
                transpiled.circuit,
                correct_states=spec.correct_states,
                faults=faults,
                points=points,
            )
        return campaigns

    campaigns = benchmark.pedantic(run_series, rounds=1, iterations=1)
    print("\nFig. 7c (qft, device-level): concentration around QVF = 0.5")
    print("width   n_inj    mean     std   mass within 0.1 of 0.5")
    peaks = {}
    for width, campaign in campaigns.items():
        peaks[width] = peak_concentration(campaign, 0.1)
        print(
            f"{width:5d} {campaign.num_injections:7d}  "
            f"{campaign.mean_qvf():.4f}  {campaign.std_qvf():.4f}  "
            f"{peaks[width]:8.1%}"
        )
    assert peaks[6] > peaks[4], "QFT peak at 0.5 should grow with width"


def test_fig7_qft_vs_bv_shape(benchmark, grid_step):
    """QFT's distribution is left-skewed relative to BV at equal width:
    more low-QVF (masked) injections than BV, the paper's reading of the
    Fig. 7 histograms."""
    faults = fault_grid(step_deg=grid_step)
    qufi = make_injector(4)
    bv = qufi.run_campaign(bernstein_vazirani(4), faults=faults)
    qft_campaign = qufi.run_campaign(qft(4), faults=faults)
    bv_low = float(np.mean(bv.qvf_values() < 0.45))
    qft_low = float(np.mean(qft_campaign.qvf_values() < 0.45))
    print(f"mass below 0.45: bv={bv_low:.3f} qft={qft_low:.3f}")
    assert qft_low > bv_low
