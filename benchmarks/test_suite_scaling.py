"""Suite orchestration scaling: shared caches vs per-campaign assembly.

The paper's evaluation grid reuses campaigns across figures — Figs. 5, 6,
9 and 10 all consume sweeps that a naive per-figure script would re-run
from scratch (which is exactly what the pre-suite examples did: every
figure rebuilt its own noise model, backend and campaign). The
``SuiteRunner`` computes each *distinct* spec once (spec-hash caching),
shares factory artefacts across scenarios, and reuses one executor pool.

This bench pins the acceptance number: >= 1.5x wall-clock over the naive
one-campaign-at-a-time loop on a six-scenario slice of the paper grid
(three distinct campaigns), with per-scenario records **bit-identical**
to the standalone runs. Timings land in ``suite_timings.json`` so CI can
archive the trend next to the aggregation timings.
"""

import json
import time

from repro.scenarios import ScenarioSpec, SuiteRunner, SuiteSpec, run_scenario

from .speedup import best_speedup

TIMINGS_PATH = "suite_timings.json"
THRESHOLD = 1.5


def paper_grid_slice(grid_step: float) -> SuiteSpec:
    """Six scenarios, three distinct campaigns — the Fig. 5/6/9/10 shape.

    ``fig6`` re-reads the Fig. 5 QFT sweep (per-qubit slicing) and
    ``fig9``/``fig10`` re-read the Fig. 5 BV sweep (delta maps,
    distribution moments): same campaigns, different figures — the
    duplication the suite layer exists to absorb.
    """
    scenarios = []
    for algorithm in ("bv", "dj", "qft"):
        scenarios.append(
            ScenarioSpec(
                algorithm=algorithm,
                width=4,
                noise="light",
                grid_step_deg=grid_step,
                label=f"fig5-{algorithm}4",
            )
        )
    for label, algorithm in (
        ("fig6-qft4", "qft"),
        ("fig9-bv4", "bv"),
        ("fig10-bv4", "bv"),
    ):
        scenarios.append(
            ScenarioSpec(
                algorithm=algorithm,
                width=4,
                noise="light",
                grid_step_deg=grid_step,
                label=label,
            )
        )
    return SuiteSpec.build("suite-scaling", scenarios)


class TestSuiteSpeedup:
    """Acceptance: >= 1.5x over the naive loop, records bit-identical."""

    def test_suite_vs_naive_loop(self, benchmark, grid_step):
        suite = paper_grid_slice(grid_step)
        timings = {}

        def measure():
            # The naive loop: what cli.py/examples did per figure —
            # every scenario assembled and executed from scratch.
            start = time.perf_counter()
            naive = {
                spec.scenario_id: run_scenario(spec) for spec in suite
            }
            t_naive = time.perf_counter() - start

            start = time.perf_counter()
            outcome = SuiteRunner(suite).run()
            t_suite = time.perf_counter() - start

            assert outcome.complete and len(outcome) == len(suite)
            for run in outcome:
                reference = naive[run.scenario_id]
                assert (
                    run.result.table.data.tobytes()
                    == reference.table.data.tobytes()
                ), f"suite diverged from naive loop for {run.scenario_id}"

            speedup = t_naive / t_suite
            timings.update(
                scenarios=len(suite),
                distinct_campaigns=len(suite.distinct_hashes()),
                grid_step_deg=grid_step,
                naive_seconds=t_naive,
                suite_seconds=t_suite,
                speedup=speedup,
            )
            print(
                f"\nsuite of {len(suite)} scenarios "
                f"({len(suite.distinct_hashes())} distinct): "
                f"naive {t_naive:.3f}s vs suite {t_suite:.3f}s "
                f"-> {speedup:.2f}x"
            )
            return speedup

        speedup = benchmark.pedantic(
            lambda: best_speedup(measure, THRESHOLD), rounds=1, iterations=1
        )
        with open(TIMINGS_PATH, "w", encoding="utf-8") as handle:
            json.dump(timings, handle, indent=2)
        assert speedup >= THRESHOLD
