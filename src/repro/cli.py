"""Command-line interface: run campaigns and scenario suites.

Examples::

    python -m repro circuits
    python -m repro qasm --algorithm bv --width 4
    python -m repro campaign --algorithm bv --width 4 --grid-step 45 \\
        --noise light --output bv4.json
    python -m repro campaign --algorithm qft --width 5 --workers 4 \\
        --checkpoint qft5.ckpt --output qft5.json
    python -m repro campaign --algorithm ghz --width 8 --noise none \\
        --memory-budget 512MB --output ghz8.json
    python -m repro campaign --algorithm qft --width 4 --noise light \\
        --transpile-to jakarta --output qft4_jakarta.json
    python -m repro suite run examples/paper_suite.json --manifest paper.out
    python -m repro suite run examples/paper_suite.json --manifest paper.out \\
        --jobs 4 --cache-dir ~/.cache/repro
    python -m repro suite report --manifest paper.out
    python -m repro suite list examples/paper_suite.json
    python -m repro cache list ~/.cache/repro
    python -m repro cache prune ~/.cache/repro --max-bytes 2GB
    python -m repro cache verify ~/.cache/repro
    python -m repro report --input bv4.json
    python -m repro query list paper.out
    python -m repro query per-qubit paper.out --group-by machine
    python -m repro query delta paper.out --double bv4-double \\
        --single bv4-single --out delta.npz
    python -m repro query export paper.out --out records.parquet

``campaign`` is a thin wrapper over the scenario layer: the flags build a
:class:`~repro.scenarios.spec.ScenarioSpec` and the shared factory
(:mod:`repro.scenarios.factory`) constructs the backend, executor and
fault grid — the same construction path suites, benchmarks and examples
use; ``--workers`` picks the in-process campaign engine (1) or the
process pool around it (N>1). ``suite`` runs a whole spec file as one
resumable job — ``--jobs`` shards independent campaigns over a process
pool and ``--cache-dir`` (or ``REPRO_CACHE``) reuses completed
campaigns across suites;
``cache`` inspects and maintains such a result cache; ``query``
reads *across* finished manifests out-of-core (per-qubit comparisons,
delta heatmaps, flat-table exports with an npz fallback when pyarrow
is absent).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .algorithms import ALGORITHMS
from .analysis.query import (
    GROUP_KEYS,
    comparison_table,
    delta_comparison,
    export_records,
    iter_scenarios,
    per_qubit_comparison,
)
from .analysis.report import campaign_report, suite_report
from .faults import CampaignResult
from .quantum.qasm import circuit_to_qasm
from .scenarios import (
    MACHINES,
    ResultCache,
    ScenarioSpec,
    SuiteRunner,
    SuiteSpec,
    TranspileSpec,
    load_suite_result,
    resolve_cache_dir,
    run_scenario,
)
from .scenarios.spec import (
    BACKEND_KINDS,
    UnroutedCalibrationError,
    parse_memory_budget,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QuFI reproduction: quantum fault-injection campaigns",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("circuits", help="list available benchmark circuits")

    qasm = subparsers.add_parser("qasm", help="print a circuit as OpenQASM 2.0")
    qasm.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
    qasm.add_argument("--width", type=int, default=4)

    campaign = subparsers.add_parser(
        "campaign",
        help=(
            "run one campaign (single, double, strike, QEC, adaptive) and "
            "save it as JSON, CSV or npz"
        ),
    )
    campaign.add_argument(
        "--algorithm",
        required=True,
        choices=sorted(ALGORITHMS) + ["qec"],
        help=(
            "benchmark circuit, or 'qec' for a repetition-code "
            "protected-circuit sweep (see --qec-*)"
        ),
    )
    campaign.add_argument("--width", type=int, default=4)
    campaign.add_argument(
        "--grid-step",
        type=float,
        default=45.0,
        help="fault grid step in degrees (15 = the paper's 312 points)",
    )
    campaign.add_argument(
        "--noise", choices=["none", "light"], default="light"
    )
    campaign.add_argument(
        "--shots",
        type=int,
        default=None,
        help="sample at this shot budget instead of exact distributions",
    )
    campaign.add_argument("--seed", type=int, default=None)
    campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes; 1 runs the in-process engine (batched "
            "fault branches on the exact simulators), N>1 fans chunks of "
            "the sweep out to the same engine in N processes"
        ),
    )
    campaign.add_argument(
        "--memory-budget",
        default=None,
        help=(
            "cap the peak working-set of batched branch states, e.g. "
            "'512MB' or a raw byte count; batches are tiled so that "
            "simultaneous branch states stay under the budget (records "
            "are bit-identical at any tile size)"
        ),
    )
    campaign.add_argument(
        "--transpile-to",
        choices=sorted(MACHINES),
        default=None,
        help=(
            "transpile the circuit onto this machine's topology and basis "
            "before injecting (layout + routing + lowering); records gain "
            "physical/logical qubit attribution and the report shows both "
            "frames"
        ),
    )
    campaign.add_argument(
        "--transpile-level",
        type=int,
        choices=[0, 1, 2, 3],
        default=3,
        help=(
            "transpiler optimization level for --transpile-to "
            "(3 = the paper's densest-layout configuration)"
        ),
    )
    campaign.add_argument(
        "--backend",
        choices=sorted(BACKEND_KINDS),
        default="auto",
        help=(
            "simulation engine: auto resolves from the noise profile, "
            "trajectory Monte-Carlo-samples the noise model with "
            "deterministic per-injection seeding (needs --seed); the "
            "calibrated machine and its emulator need --transpile-to"
        ),
    )
    campaign.add_argument(
        "--trajectories",
        type=int,
        default=256,
        help="noise trajectories averaged per run (trajectory backend)",
    )
    campaign.add_argument(
        "--qec-code",
        choices=["bit_flip", "phase_flip", "none"],
        default="bit_flip",
        help=(
            "repetition code for --algorithm qec ('none' = unprotected "
            "baseline at the same width)"
        ),
    )
    campaign.add_argument(
        "--qec-distance",
        type=int,
        default=3,
        help="code distance (physical qubits) for --algorithm qec",
    )
    campaign.add_argument(
        "--qec-decode",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "apply majority-vote correction before measuring the logical "
            "qubit (--no-qec-decode measures the raw encoded state)"
        ),
    )
    campaign.add_argument(
        "--strike-count",
        type=int,
        default=None,
        help=(
            "sample this many particle strikes from the radiation physics "
            "model instead of sweeping the uniform (theta, phi) grid "
            "(needs --seed; strike distance maps to fault magnitude)"
        ),
    )
    campaign.add_argument(
        "--strike-k",
        type=int,
        default=1,
        help=(
            "qubits hit per strike: 1 = independent single-qubit strikes, "
            ">=2 = spatially correlated clusters of physically adjacent "
            "qubits with hop-attenuated faults"
        ),
    )
    campaign.add_argument(
        "--strike-max-distance",
        type=float,
        default=0.5,
        help="largest strike-to-qubit distance sampled, in micrometres",
    )
    campaign.add_argument(
        "--strike-spacing",
        type=float,
        default=0.05,
        help=(
            "physical spacing between adjacent qubits in micrometres "
            "(attenuates neighbour faults in k>=2 clusters)"
        ),
    )
    campaign.add_argument(
        "--mitigate",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "score QVF on readout-mitigated distributions (inverts the "
            "noise model's per-qubit readout confusion before scoring)"
        ),
    )
    campaign.add_argument(
        "--adaptive",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "explore the grid adaptively instead of sweeping it: start "
            "from a coarse set of grid lines and refine only where the "
            "QVF gradient exceeds the threshold (deterministic, "
            "checkpointable through --checkpoint like any campaign)"
        ),
    )
    campaign.add_argument(
        "--adaptive-mode",
        choices=["refine", "importance"],
        default="refine",
        help=(
            "refine = coarse-to-fine grid refinement against the full "
            "grid; importance = physics-weighted fault batches per round "
            "(strike sampling) until the mean-QVF standard error reaches "
            "the tolerance"
        ),
    )
    campaign.add_argument(
        "--adaptive-coarse",
        type=int,
        default=5,
        help="grid lines per axis in the coarse starting round",
    )
    campaign.add_argument(
        "--adaptive-threshold",
        type=float,
        default=0.05,
        help="QVF finite-difference above which an interval is refined",
    )
    campaign.add_argument(
        "--adaptive-rounds",
        type=int,
        default=8,
        help="maximum refinement/sampling rounds",
    )
    campaign.add_argument(
        "--adaptive-tolerance",
        type=float,
        default=0.0,
        help=(
            "convergence tolerance (round-over-round change of the "
            "interpolated full-grid estimate, or the importance-mode "
            "standard error); 0 disables the tolerance stop"
        ),
    )
    campaign.add_argument(
        "--adaptive-samples",
        type=int,
        default=64,
        help="fault configurations drawn per importance-mode round",
    )
    campaign.add_argument(
        "--max-injections",
        type=int,
        default=None,
        help=(
            "injection budget: adaptive campaigns stop at the last round "
            "that fits; a uniform sweep that would exceed it is rejected "
            "before running"
        ),
    )
    campaign.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help=(
            "wall-clock budget for adaptive campaigns (checked at round "
            "boundaries; a checkpointed run stopped by it resumes)"
        ),
    )
    campaign.add_argument(
        "--checkpoint",
        default=None,
        help=(
            "stream records to this binary segment checkpoint (appended "
            "per batch, compacted on completion) and resume from it if it "
            "already exists; legacy JSON checkpoints are migrated"
        ),
    )
    campaign.add_argument("--output", required=True, help="output path")
    campaign.add_argument(
        "--export",
        choices=["json", "csv", "npz"],
        default="json",
        help=(
            "output format: json (the historical schema), csv (flat rows "
            "for spreadsheets/R), or npz (binary columnar table)"
        ),
    )

    suite = subparsers.add_parser(
        "suite",
        help="run/inspect declarative scenario suites (spec file in, "
        "resumable manifest out)",
    )
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)

    suite_run = suite_sub.add_parser(
        "run",
        help="run (or resume) every scenario of a suite spec into a "
        "manifest directory",
    )
    suite_run.add_argument("spec", help="suite spec JSON file")
    suite_run.add_argument(
        "--manifest",
        required=True,
        help=(
            "manifest directory: per-scenario record stores plus "
            "manifest.json; re-running resumes at campaign granularity"
        ),
    )
    suite_run.add_argument(
        "--max-campaigns",
        type=int,
        default=None,
        help=(
            "compute at most this many campaigns, then stop (the "
            "manifest stays resumable; reused/cached scenarios are free)"
        ),
    )
    suite_run.add_argument(
        "--budget-injections",
        type=int,
        default=None,
        help=(
            "suite injection budget: a pre-run estimator prices every "
            "pending scenario and rejects or truncates the suite before "
            "anything runs (reused scenarios are free)"
        ),
    )
    suite_run.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help=(
            "suite wall-clock budget, projected from the timings.json "
            "sidecar's recorded per-injection rate when history exists "
            "(and enforced at campaign boundaries while running)"
        ),
    )
    suite_run.add_argument(
        "--budget-action",
        choices=["reject", "truncate"],
        default="reject",
        help=(
            "what to do when the estimate exceeds the budget: reject "
            "(refuse to run, print the per-scenario report) or truncate "
            "(run the longest prefix that fits; resumable)"
        ),
    )
    suite_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "campaign-level shards: run up to N independent campaigns "
            "concurrently (whole campaigns as work units); manifests and "
            "record stores stay byte-identical to --jobs 1"
        ),
    )
    suite_run.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "persistent result cache directory shared across suites "
            "(default: the REPRO_CACHE environment variable, else "
            "cache/ under the manifest); completed campaigns are "
            "published by spec hash and matching scenarios are reused "
            "instead of simulated"
        ),
    )
    suite_run.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="--no-cache disables the persistent result cache entirely",
    )

    suite_report_p = suite_sub.add_parser(
        "report", help="render a markdown summary of a suite manifest"
    )
    suite_report_p.add_argument("--manifest", required=True)

    suite_list = suite_sub.add_parser(
        "list", help="expand a suite spec and list its scenarios"
    )
    suite_list.add_argument("spec", help="suite spec JSON file")

    cache_p = subparsers.add_parser(
        "cache",
        help="inspect/maintain a persistent suite result cache "
        "(list entries, prune by size/age, verify stores)",
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)

    def cache_dir_arg(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "cache_dir",
            nargs="?",
            default=None,
            help=(
                "cache directory (default: the REPRO_CACHE environment "
                "variable)"
            ),
        )

    cache_list = cache_sub.add_parser(
        "list", help="list cache entries (most recently used first)"
    )
    cache_dir_arg(cache_list)

    cache_prune = cache_sub.add_parser(
        "prune", help="evict entries by age, then least-recently-used"
    )
    cache_dir_arg(cache_prune)
    cache_prune.add_argument(
        "--max-bytes",
        default=None,
        help=(
            "shrink the cache under this total size, e.g. '2GB' or a "
            "raw byte count (oldest-used entries evicted first)"
        ),
    )
    cache_prune.add_argument(
        "--max-age",
        type=float,
        default=None,
        help="evict entries created more than this many seconds ago",
    )

    cache_verify = cache_sub.add_parser(
        "verify",
        help="scan every entry's record store headers; exit 1 on "
        "corruption (corrupt entries self-heal on next use)",
    )
    cache_dir_arg(cache_verify)

    report = subparsers.add_parser(
        "report",
        help="render a markdown report from a campaign file "
        "(JSON, npz, or checkpoint)",
    )
    report.add_argument("--input", required=True)
    report.add_argument("--top", type=int, default=5)

    query = subparsers.add_parser(
        "query",
        help="cross-suite analytics over manifest directories "
        "(out-of-core: stores stream in memory-mapped windows)",
    )
    query_sub = query.add_subparsers(dest="query_command", required=True)

    def manifests(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "manifests",
            nargs="+",
            help="one or more suite manifest directories",
        )
        sub.add_argument(
            "--algorithm",
            default=None,
            help="restrict to scenarios of this algorithm",
        )

    query_list = query_sub.add_parser(
        "list", help="enumerate completed scenarios across manifests"
    )
    manifests(query_list)

    query_qubits = query_sub.add_parser(
        "per-qubit",
        help="mean QVF per qubit, grouped by a spec axis "
        "(machine, optimization, noise, ...)",
    )
    manifests(query_qubits)
    query_qubits.add_argument(
        "--frame", choices=["wire", "physical", "logical"], default="wire"
    )
    query_qubits.add_argument(
        "--group-by", choices=list(GROUP_KEYS), default="machine"
    )

    query_delta = query_sub.add_parser(
        "delta",
        help="delta heatmap (double minus single QVF) between two "
        "scenarios, by id",
    )
    manifests(query_delta)
    query_delta.add_argument("--double", required=True, metavar="ID")
    query_delta.add_argument("--single", required=True, metavar="ID")
    query_delta.add_argument("--qubit", type=int, default=None)
    query_delta.add_argument(
        "--frame", choices=["wire", "physical", "logical"], default="wire"
    )
    query_delta.add_argument(
        "--out",
        default=None,
        help="also save the grid as npz (thetas, phis, delta)",
    )

    query_export = query_sub.add_parser(
        "export",
        help="export the selected scenarios' records as one flat table "
        "(Parquet/Arrow via pyarrow, npz fallback)",
    )
    manifests(query_export)
    query_export.add_argument("--out", required=True, help="output path")
    query_export.add_argument(
        "--format",
        choices=["auto", "parquet", "arrow", "npz"],
        default="auto",
        help="auto picks from the extension and falls back to npz "
        "when pyarrow is absent",
    )

    return parser


def _cmd_circuits() -> int:
    for name in sorted(ALGORITHMS):
        print(name)
    return 0


def _cmd_qasm(args: argparse.Namespace) -> int:
    spec = ALGORITHMS[args.algorithm](args.width)
    sys.stdout.write(circuit_to_qasm(spec.circuit))
    return 0


def _scenario_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The campaign flags as a scenario spec (same defaults as ever)."""
    if args.workers > 1:
        executor, workers = "parallel", args.workers
    else:
        executor, workers = "serial", None
    transpile = None
    machine = "jakarta"
    if args.transpile_to:
        transpile = TranspileSpec(optimization_level=args.transpile_level)
        machine = args.transpile_to
    adaptive = None
    if getattr(args, "adaptive", False):
        adaptive = {
            "mode": args.adaptive_mode,
            "coarse_points": args.adaptive_coarse,
            "gradient_threshold": args.adaptive_threshold,
            "max_rounds": args.adaptive_rounds,
            "tolerance": args.adaptive_tolerance,
            "samples_per_round": args.adaptive_samples,
        }
    budget = None
    if args.max_injections is not None or args.max_seconds is not None:
        budget = {
            "max_injections": args.max_injections,
            "max_seconds": args.max_seconds,
        }
    qec = None
    if args.algorithm == "qec":
        qec = {
            "code": args.qec_code,
            "distance": args.qec_distance,
            "decode": args.qec_decode,
        }
    strike = None
    if args.strike_count is not None:
        strike = {
            "count": args.strike_count,
            "k": args.strike_k,
            "max_distance_um": args.strike_max_distance,
            "spacing_um": args.strike_spacing,
        }
    return ScenarioSpec(
        algorithm=args.algorithm,
        width=args.width,
        noise=args.noise,
        grid_step_deg=args.grid_step,
        shots=args.shots,
        seed=args.seed,
        backend=args.backend,
        executor=executor,
        workers=workers,
        machine=machine,
        transpile=transpile,
        memory_budget=args.memory_budget,
        trajectories=args.trajectories,
        adaptive=adaptive,
        budget=budget,
        qec=qec,
        strike=strike,
        mitigation=args.mitigate,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise SystemExit("--workers must be a positive integer")
    try:
        scenario = _scenario_from_args(args)
    except UnroutedCalibrationError as error:
        # A machine backend without --transpile-to: the fix, not a trace.
        raise SystemExit(str(error))
    result = run_scenario(scenario, checkpoint_path=args.checkpoint)
    if args.export == "csv":
        result.to_csv(args.output)
    elif args.export == "npz":
        result.to_npz(args.output)
    else:
        result.to_json(args.output)
    print(
        f"{result.circuit_name}: {result.num_injections} injections "
        f"[{scenario.executor} executor, {args.workers} worker(s)], "
        f"mean QVF {result.mean_qvf():.4f} "
        f"(fault-free {result.fault_free_qvf:.4f}) -> {args.output}"
    )
    adaptive = result.metadata.get("adaptive")
    if adaptive:
        full = adaptive["full_grid_injections"]
        spent = adaptive["injections"]
        fraction = f" ({100.0 * spent / full:.0f}% of the full grid)" if full else ""
        print(
            f"adaptive [{adaptive['mode']}]: {adaptive['rounds']} round(s), "
            f"stopped by {adaptive['stopped']}, "
            f"{spent} injections{fraction}"
        )
    return 0


def _cmd_suite_run(args: argparse.Namespace) -> int:
    suite = SuiteSpec.from_json(args.spec)
    if args.jobs < 1:
        raise SystemExit("--jobs must be a positive integer")
    runner = SuiteRunner(
        suite,
        manifest_dir=args.manifest,
        max_campaigns=args.max_campaigns,
        budget_injections=args.budget_injections,
        budget_seconds=args.budget_seconds,
        budget_action=args.budget_action,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=args.cache,
    )

    def progress(done: int, total: int, scenario_id: str) -> None:
        print(f"[{done}/{total}] {scenario_id}")

    try:
        outcome = runner.run(progress=progress)
    except ValueError as error:
        # Budget rejection (and kindred misconfigurations) should read
        # as a report, not a traceback.
        raise SystemExit(str(error))
    if outcome.budget_report and not outcome.complete:
        print(outcome.budget_report)
    state = "complete" if outcome.complete else "halted (resumable)"
    cached = (
        f", {outcome.from_store} from cache" if outcome.from_store else ""
    )
    print(
        f"suite {outcome.name}: {len(outcome)}/{len(suite)} scenarios "
        f"({outcome.computed} computed, {outcome.reused} reused{cached}), "
        f"{outcome.total_injections} injections, "
        f"{outcome.total_seconds:.1f}s — {state} -> {args.manifest}"
    )
    return 0


def _cmd_suite_report(args: argparse.Namespace) -> int:
    print(suite_report(load_suite_result(args.manifest)))
    return 0


def _cmd_suite_list(args: argparse.Namespace) -> int:
    suite = SuiteSpec.from_json(args.spec)
    print(f"suite {suite.name}: {len(suite)} scenarios")
    seen = set()
    for scenario in suite:
        mark = " (dup)" if scenario.spec_hash() in seen else ""
        seen.add(scenario.spec_hash())
        routed = (
            ""
            if scenario.transpile is None
            else (
                f" transpiled->{scenario.effective_machine}"
                f"(O{scenario.transpile.optimization_level})"
            )
        )
        print(
            f"  {scenario.scenario_id}: {scenario.algorithm}"
            f"({scenario.width}) noise={scenario.noise} "
            f"backend={scenario.backend} mode={scenario.mode} "
            f"grid={scenario.grid_step_deg:g}deg "
            f"executor={scenario.executor}{routed}{mark}"
        )
    if len(seen) != len(suite):
        print(
            f"  ({len(suite) - len(seen)} duplicate campaign(s) — "
            f"computed once per run)"
        )
    return 0


def _query_handles(args: argparse.Namespace):
    return list(
        iter_scenarios(args.manifests, algorithm=args.algorithm)
    )


def _cmd_query_list(args: argparse.Namespace) -> int:
    handles = _query_handles(args)
    for handle in handles:
        digest = handle.digest
        mean = digest.get("mean_qvf")
        print(
            f"{handle.scenario_id}: suite={handle.suite} "
            f"machine={handle.group('machine')} "
            f"opt={handle.group('optimization')} "
            f"noise={handle.group('noise')} "
            f"injections={digest.get('num_injections', '?')} "
            f"mean_qvf={'?' if mean is None else format(mean, '.4f')}"
        )
    if not handles:
        print("(no completed scenarios)")
    return 0


def _cmd_query_per_qubit(args: argparse.Namespace) -> int:
    comparison = per_qubit_comparison(
        _query_handles(args), frame=args.frame, group_by=args.group_by
    )
    print(
        f"mean QVF per {args.frame}-frame qubit, "
        f"grouped by {args.group_by}"
    )
    print(comparison_table(comparison))
    return 0


def _cmd_query_delta(args: argparse.Namespace) -> int:
    import numpy as np

    thetas, phis, delta = delta_comparison(
        args.manifests,
        double_id=args.double,
        single_id=args.single,
        qubit=args.qubit,
        frame=args.frame,
    )
    finite = delta[np.isfinite(delta)]
    print(
        f"delta heatmap {args.double} - {args.single}: "
        f"{delta.shape[0]}x{delta.shape[1]} cells, "
        f"mean {finite.mean():+.4f}, max {finite.max():+.4f}"
        if finite.size
        else f"delta heatmap {args.double} - {args.single}: no common cells"
    )
    if args.out:
        np.savez(
            args.out,
            thetas=np.asarray(thetas),
            phis=np.asarray(phis),
            delta=delta,
        )
        print(f"-> {args.out}")
    return 0


def _cmd_query_export(args: argparse.Namespace) -> int:
    handles = _query_handles(args)
    if not handles:
        raise SystemExit("no completed scenarios to export")
    written = export_records(handles, args.out, fmt=args.format)
    if args.format not in ("auto", "npz") and written == "npz":
        print(
            f"pyarrow unavailable: fell back to npz "
            f"({len(handles)} scenario(s)) -> {args.out}"
        )
    else:
        print(
            f"exported {len(handles)} scenario(s) as {written} "
            f"-> {args.out}"
        )
    return 0


def _open_cache(args: argparse.Namespace) -> ResultCache:
    """The cache the ``cache`` subcommands operate on."""
    root = resolve_cache_dir(args.cache_dir, None)
    if root is None:
        raise SystemExit(
            "no cache directory: pass one or set the REPRO_CACHE "
            "environment variable"
        )
    return ResultCache(root)


def _format_bytes(nbytes: int) -> str:
    """A human-readable size (binary units, one decimal)."""
    size = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return (
                f"{size:.1f}{unit}" if unit != "B" else f"{int(size)}B"
            )
        size /= 1024.0
    raise AssertionError("unreachable")


def _cmd_cache_list(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    entries = cache.entries()
    for entry in entries:
        print(
            f"{entry.spec_hash}  {_format_bytes(entry.nbytes):>10}  "
            f"records={entry.num_records:<8} hits={entry.hits:<4} "
            f"{entry.scenario_id}"
        )
    print(
        f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
        f"{_format_bytes(cache.total_bytes())} -> {cache.root}"
    )
    return 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    try:
        max_bytes = parse_memory_budget(args.max_bytes)
    except ValueError as error:
        raise SystemExit(str(error))
    removed = cache.prune(
        max_bytes=max_bytes, max_age_seconds=args.max_age
    )
    for entry in removed:
        print(f"evicted {entry.spec_hash}  {_format_bytes(entry.nbytes)}")
    print(
        f"pruned {len(removed)} entr{'y' if len(removed) == 1 else 'ies'}; "
        f"{_format_bytes(cache.total_bytes())} remain(s) -> {cache.root}"
    )
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    reports = cache.verify()
    bad = 0
    for report in reports:
        if report["ok"]:
            print(
                f"{report['spec_hash']}  ok  "
                f"records={report['records']}"
            )
        else:
            bad += 1
            print(f"{report['spec_hash']}  CORRUPT  {report['detail']}")
    print(
        f"{len(reports)} entr{'y' if len(reports) == 1 else 'ies'} "
        f"scanned, {bad} corrupt -> {cache.root}"
    )
    return 1 if bad else 0


def _cmd_report(args: argparse.Namespace) -> int:
    # Sniffs the format: campaign JSON, npz export, or a (possibly
    # still-running) segment checkpoint.
    result = CampaignResult.load(args.input)
    print(campaign_report(result, top_faults=args.top))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "circuits":
        return _cmd_circuits()
    if args.command == "qasm":
        return _cmd_qasm(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "suite":
        if args.suite_command == "run":
            return _cmd_suite_run(args)
        if args.suite_command == "report":
            return _cmd_suite_report(args)
        if args.suite_command == "list":
            return _cmd_suite_list(args)
        raise AssertionError(
            f"unhandled suite command {args.suite_command!r}"
        )
    if args.command == "cache":
        if args.cache_command == "list":
            return _cmd_cache_list(args)
        if args.cache_command == "prune":
            return _cmd_cache_prune(args)
        if args.cache_command == "verify":
            return _cmd_cache_verify(args)
        raise AssertionError(
            f"unhandled cache command {args.cache_command!r}"
        )
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "query":
        if args.query_command == "list":
            return _cmd_query_list(args)
        if args.query_command == "per-qubit":
            return _cmd_query_per_qubit(args)
        if args.query_command == "delta":
            return _cmd_query_delta(args)
        if args.query_command == "export":
            return _cmd_query_export(args)
        raise AssertionError(
            f"unhandled query command {args.query_command!r}"
        )
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
