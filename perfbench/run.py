"""QuFI benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload grid-dm --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seconds 32   # one after another

Each workload is a list of scenario specs (``workloads.json``) run through
``SuiteRunner`` at ``jobs=1`` in a fresh *workload process*, one iteration
after another until ``--seconds`` is spent. An iteration is one *cold* pass
into an empty result cache (compute, store append, cache put, manifest)
followed by *warm* passes, each into a fresh manifest against the now-warm
cache (cache load, hard link, re-badge). The warm passes of an iteration
take ``WARM_SHARE`` of its cold pass's wall clock, so they never crowd out
cold samples; the last iteration's warm passes run to the end of the
budget. Each timed pass starts after ``os.sync()``, so no pass pays for an
earlier one's disk writes and deletes. Every pass is checked: record
counts against ``estimate_scenario_injections``, every QVF finite and in
[0, 1], each scenario's mean QVF against ``goldens.json`` within 1e-9, and
every warm-pass file (except the ``timings.json`` wall-clock sidecar)
byte-equal to the cold pass's.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``. The
speed of a shared host swings by half and more within seconds, and not
alike for interpreter, small-matrix and memory-bound work, so every time
and rate is reported *at reference host speed*. :class:`SpeedSampler`
times a fixed piece of each kind of work (``PROBE_REFERENCE_S``), none
of it program code, right before and right after every pass and, through
wrappers around program functions a pass calls often, about every
``SPEED_PROBE_EVERY`` seconds inside it. A pass's time is net of the
probes inside it and is scaled by the probe's reference time over its
mean time around that pass. The unscaled passes and every probe are in
the details line.

* ``setup_s``: median over fresh processes of the time from process start
  to the workload's first operation being ready (the ``repro`` imports
  plus the factory builds of every scenario). Half the probe processes run
  before the workload process and half after it, so they sample the host
  at both ends of the run; the workload process is one more sample. Each
  is scaled by the ``"python"`` entry of ``PROBE_REFERENCE_S`` over the
  mean of the :func:`python_probe` times taken right before and after it;
* ``injections_per_s``: median over cold passes of injections computed
  divided by the campaign seconds the runner measured around
  ``run_scenario``, net of probes;
* ``suite_cold_s`` / ``suite_warm_s``: median cold / warm pass wall clock;
* ``peak_rss_mib``: peak resident memory of the workload process plus the
  largest of its pool children.

``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics (``layers.py``): write-path and compute figures per
traced cold pass, read-path figures per traced warm pass, the share of
wall clock the layer spans cover, and the tracing overhead on cold passes
against the untraced ones of the same run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the host fingerprint, the seed and every sample.
``--write-goldens`` recomputes ``goldens.json``.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import filecmp
import functools
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

GOLDEN_TOLERANCE = 1e-9
SETUP_PROBES = 8
# Warm passes of an iteration run for this share of its cold pass's wall.
WARM_SHARE = 0.15
# Host speed is read from fixed pieces of work that run no program code,
# each timed on its own: interpreter dict churn, 64x64 complex matrix
# products and passes over an 8 MiB array. A slow spell of the host slows
# them by different factors (the interpreter part the most), and most
# passes mix all three kinds of work, so a pass is scaled by their sum. A
# workload's ``probe`` in workloads.json names other parts for a kind of
# pass that does one kind of work only: the suite's warm passes are
# interpreter work (JSON, dataclasses, copies), and scaled by the sum they
# came out up to 13 % slower in the host's slow spells than in its fast ones.
# Seconds each part takes on the host the reported figures refer to.
PROBE_REFERENCE_S = {"python": 0.015, "matrix": 0.009, "memory": 0.008}
# Inside a pass the probe runs about this often (seconds).
SPEED_PROBE_EVERY = 0.4
# A pass's host speed is the mean of the probes taken while it ran or
# within this many seconds of its start or end.
SPEED_WINDOW_S = 0.5
# Seeded workloads draw their scenario seed from this many variants, each
# with a stored golden, so any workload seed is checkable.
SEED_VARIANTS = 16
SCENARIO_SEED_BASE = 2022
TIMINGS_SIDECAR = "timings.json"


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def scenario_seed(seed: int) -> int:
    return SCENARIO_SEED_BASE + seed % SEED_VARIANTS


def workload_entries(name: str, seed: int, tiny: bool) -> List[dict]:
    """The workload's scenario entries, seeded ones carrying ``seed``'s variant."""
    workload = load_json(HERE / "workloads.json")[name]
    entries = workload["tiny" if tiny else "full"]
    if workload["seeded"]:
        entries = [{**entry, "seed": scenario_seed(seed)} for entry in entries]
    return entries


def golden_key(scenario, seeded: bool) -> str:
    if seeded:
        return f"{scenario.scenario_id}@seed={scenario.seed}"
    return scenario.scenario_id


def build_suite(name: str, seed: int, tiny: bool):
    from repro.scenarios.spec import SuiteSpec

    return SuiteSpec.from_dict(
        {"name": f"bench-{name}", "scenarios": workload_entries(name, seed, tiny)}
    )


def build_factories(suite) -> Dict[str, int]:
    """Build every scenario's factory artefacts; return expected record counts."""
    from repro.scenarios.factory import FactoryCache, estimate_scenario_injections, make_injector

    cache = FactoryCache()
    expected = {}
    for scenario in suite:
        expected[scenario.scenario_id] = estimate_scenario_injections(scenario, cache)
        make_injector(scenario, cache)
    return expected


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def blas_threads() -> Optional[int]:
    """OpenBLAS thread count through the loaded library's getter (read only)."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            libraries = sorted(
                {line.split()[-1] for line in handle if "openblas" in line.lower()}
            )
    except OSError:
        return None
    for path in libraries:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def host_fingerprint() -> Dict[str, object]:
    """The host as the workload process sees it (numpy is loaded there)."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def _dict_churn() -> None:
    rows = {}
    for i in range(60000):
        key = (i % 61, i % 7)
        rows[key] = rows.get(key, 0.0) + i * 0.5


def python_probe() -> float:
    """Seconds of the interpreter probe part, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        tick = time.perf_counter()
        _dict_churn()
        return time.perf_counter() - tick
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Host-speed probes of the workload process, between passes and inside them.

    :meth:`install` wraps program functions a pass calls often so that
    they run :meth:`maybe_probe` first. Pool workers fork with the
    wrappers but never probe: a probe there would race the other worker.
    ``spent`` adds up every probe's seconds and ``campaign_spent`` those
    taken inside ``run_scenario``, so a pass's time and its campaign time
    can be taken net of them.
    """

    # Functions that run between kernels or tasks, as (module, name) or
    # (module, class, method).
    TARGETS = (
        ("repro.scenarios.factory", "run_scenario"),
        ("repro.simulators.statevector", "StatevectorSimulator", "prefix_snapshot"),
        ("repro.simulators.statevector", "StatevectorSimulator", "run_branches_from_snapshot"),
        ("repro.simulators.density_matrix", "DensityMatrixSimulator", "prefix_snapshot"),
        ("repro.simulators.density_matrix", "DensityMatrixSimulator",
         "run_branches_from_snapshot"),
        ("repro.simulators.trajectory", "TrajectorySimulator", "run"),
        ("repro.machines.emulator", "PhysicalMachineEmulator", "run"),
    )

    def __init__(self) -> None:
        import numpy as np

        grid = np.arange(64 * 64).reshape(64, 64)
        self._gate = np.linalg.qr(grid % 11 + 1j * (grid % 5))[0]
        self._identity = np.eye(64, dtype=complex) / 64
        self._array = np.linspace(0.0, 1.0, 1 << 20)
        self.pid = os.getpid()
        # (midpoint on the perf_counter clock, seconds of each part)
        self.probes: List[Tuple[float, ...]] = []
        self.spent = 0.0
        self.campaign_spent = 0.0
        self._campaigns = 0
        self._next = 0.0
        self._ended = -math.inf
        self.time_parts()  # the first call in a process pays for BLAS start-up

    def time_parts(self) -> Tuple[float, float, float]:
        """Seconds of each probe part, in ``PROBE_REFERENCE_S`` order, collector off."""
        gate, adjoint = self._gate, self._gate.conj().T
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _dict_churn()
            t1 = time.perf_counter()
            state = self._identity
            for _ in range(100):
                state = gate @ state @ adjoint
            t2 = time.perf_counter()
            values = self._array
            for _ in range(4):
                values = values * 1.0000001
            t3 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        return t1 - t0, t2 - t1, t3 - t2

    def probe(self) -> None:
        tick = time.perf_counter()
        parts = self.time_parts()
        self._ended = time.perf_counter()
        took = self._ended - tick
        self.probes.append(((tick + self._ended) / 2, *parts))
        self.spent += took
        if self._campaigns:
            self.campaign_spent += took
        self._next = self._ended + SPEED_PROBE_EVERY

    def maybe_probe(self) -> None:
        if time.perf_counter() >= self._next and os.getpid() == self.pid:
            self.probe()

    def probe_unless_fresh(self, within: float = 0.25) -> None:
        """Probe unless the last probe ended less than ``within`` seconds ago."""
        if time.perf_counter() - self._ended >= within:
            self.probe()

    def scale_over(self, start: float, end: float, parts) -> float:
        """Reference over mean seconds of ``parts``, for the probes around ``[start, end]``.

        Those are the probes within the span or ``SPEED_WINDOW_S`` of it.
        A side with none there lends its nearest probe instead: on a
        crowded host one probe can take longer than the window.
        """
        columns = [list(PROBE_REFERENCE_S).index(part) + 1 for part in parts]
        midpoints = [probe[0] for probe in self.probes]
        first = bisect.bisect_left(midpoints, start - SPEED_WINDOW_S)
        if first == bisect.bisect_left(midpoints, start):
            first = max(first - 1, 0)
        last = bisect.bisect_right(midpoints, end + SPEED_WINDOW_S)
        if last == bisect.bisect_right(midpoints, end):
            last += 1
        near = [sum(probe[i] for i in columns) for probe in self.probes[first:last]]
        return sum(PROBE_REFERENCE_S[part] for part in parts) / statistics.fmean(near)

    def _before(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.maybe_probe()
            return fn(*args, **kwargs)

        return wrapper

    def _campaign(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._campaigns += 1
            try:
                self.maybe_probe()
                return fn(*args, **kwargs)
            finally:
                self._campaigns -= 1

        return wrapper

    def install(self):
        """Wrap the ``TARGETS`` of the already imported program; return the hooks."""
        import importlib

        from perfbench.tracer import Hooks

        hooks = Hooks(tracer=None)
        for module_name, *names in self.TARGETS:
            if len(names) == 1:
                make = self._campaign if names[0] == "run_scenario" else self._before
                hooks.replace_function(module_name, names[0], make)
                continue
            try:
                cls = getattr(importlib.import_module(module_name), names[0], None)
            except ImportError:
                cls = None
            if cls is None:
                hooks.missing.append(f"{module_name}.{names[0]}")
            else:
                hooks.replace_method(cls, names[1], self._before)
        return hooks


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def manifest_stores(manifest_dir: str) -> Dict[str, str]:
    manifest = load_json(Path(manifest_dir) / "manifest.json")
    return {
        entry["id"]: os.path.join(manifest_dir, entry["result_file"])
        for entry in manifest["scenarios"]
    }


def check_cold(suite, done, expected, goldens, seeded) -> List[tuple]:
    """Problems with a cold pass as ``(scenario id or None, message)``."""
    from repro.faults.campaign import CampaignResult

    import numpy as np

    problems = []
    stores = manifest_stores(done.manifest_dir)
    distinct = len(suite.distinct_hashes())
    if done.computed != distinct:
        problems.append((None, f"cold pass computed {done.computed} of {distinct} campaigns"))
    for scenario in suite:
        sid = scenario.scenario_id
        try:
            campaign = CampaignResult.open(stores[sid])
            count = campaign.num_injections
            qvf = campaign.qvf_values()
            mean = campaign.mean_qvf()
        except (KeyError, OSError, ValueError) as error:
            problems.append((sid, f"store unreadable ({error})"))
            continue
        limit = expected[sid]
        # An adaptive sweep stops early; its estimate is the full grid.
        if scenario.adaptive is None:
            count_ok = count == limit
        else:
            count_ok = 0 < count <= limit
        if not count_ok:
            problems.append((sid, f"{count} records, estimate {limit}"))
        if not (np.all(np.isfinite(qvf)) and np.all((qvf >= 0.0) & (qvf <= 1.0))):
            problems.append((sid, "QVF outside [0, 1] or not finite"))
        golden = goldens.get(golden_key(scenario, seeded))
        if golden is None or not abs(mean - golden) <= GOLDEN_TOLERANCE:
            problems.append((sid, f"mean QVF {mean!r}, golden {golden!r}"))
    return problems


def check_warm(done, cold_dir: str) -> List[tuple]:
    """Problems with a warm pass as ``(scenario id or None, message)``."""
    problems = []
    warm_dir = done.manifest_dir
    if done.computed:
        problems.append((None, f"warm pass computed {done.computed} campaigns"))
    owners = {os.path.basename(path): sid for sid, path in manifest_stores(cold_dir).items()}
    for name in sorted(set(os.listdir(cold_dir)) | set(os.listdir(warm_dir))):
        if name == TIMINGS_SIDECAR:
            continue
        left, right = os.path.join(cold_dir, name), os.path.join(warm_dir, name)
        if not (os.path.isfile(left) and os.path.isfile(right)
                and filecmp.cmp(left, right, shallow=False)):
            problems.append((owners.get(name), f"warm {name} differs from cold"))
    return problems


def failed_scenarios(suite, problems: List[tuple]) -> int:
    """Scenarios a pass failed: all of them when a problem names none."""
    ids = {sid for sid, _ in problems}
    return len(suite) if None in ids else len(ids)


# ----------------------------------------------------------------------
# Measurement (inside the workload process)
# ----------------------------------------------------------------------
class Pass(NamedTuple):
    """What the checks and metrics need from one pass (results are dropped)."""

    manifest_dir: str
    started: float
    wall: float
    computed: int
    injections: int
    campaign_s: float
    error: Optional[str]
    # Seconds of speed probes inside the pass, and inside its campaigns.
    probe_s: float = 0.0
    campaign_probe_s: float = 0.0


def run_pass(suite, manifest_dir: str, cache_dir: str,
             sampler: Optional[SpeedSampler] = None) -> Pass:
    """One ``SuiteRunner`` pass into ``manifest_dir`` against ``cache_dir``.

    With a ``sampler`` the pass is bracketed by speed probes.
    """
    from repro.scenarios.runner import SuiteRunner

    # Start every timed pass with the writes and deletes of earlier passes
    # flushed, so their disk traffic is not charged to this one.
    os.sync()
    if sampler is not None:
        sampler.probe_unless_fresh()
        spent, campaign_spent = sampler.spent, sampler.campaign_spent
    tick = time.perf_counter()
    try:
        with SuiteRunner(suite, manifest_dir=manifest_dir, cache_dir=cache_dir) as runner:
            result = runner.run()
    except Exception as error:  # a crashing pass fails all its scenarios
        done = Pass(manifest_dir, tick, time.perf_counter() - tick, 0, 0, 0.0, repr(error))
    else:
        wall = time.perf_counter() - tick
        computed = [run for run in result if run.source == "computed"]
        done = Pass(
            manifest_dir,
            tick,
            wall,
            len(computed),
            sum(run.result.num_injections for run in computed),
            sum(run.seconds for run in computed),
            None,
        )
    if sampler is None:
        return done
    done = done._replace(
        probe_s=sampler.spent - spent, campaign_probe_s=sampler.campaign_spent - campaign_spent
    )
    sampler.probe()
    return done


def measure(name: str, suite, expected: Dict[str, int], seconds: float, trace: bool,
            work_dir: str) -> Dict[str, object]:
    """Run the workload's iterations; return samples, checks and trace data.

    In a traced run the odd iterations are traced and the even ones are
    not; iteration 0 absorbs the process's first-pass costs and is left
    out of the overhead comparison once a later untraced one exists.
    """
    from perfbench import layers
    from perfbench.tracer import Tracer

    workload = load_json(HERE / "workloads.json")[name]
    seeded = workload["seeded"]
    goldens = load_json(HERE / "goldens.json").get(name, {})
    tracer = Tracer(work_dir) if trace else None
    cold_phase, warm_phase = layers.Phase(), layers.Phase()

    # Passes that completed, unscaled, as (kind, Pass).
    passes: List[Tuple[str, Pass]] = []
    sampler = SpeedSampler()
    # Probes inside passes would add to the spans of traced passes.
    probe_hooks = None if trace else sampler.install()

    traced_cold, untraced_cold = [], []
    traced_wall = 0.0
    attempted = failed = 0
    problems: List[str] = []
    missing_hooks = set(probe_hooks.missing) if probe_hooks is not None else set()
    iterations = 0
    needed = 3 if trace else 1
    deadline = time.perf_counter() + seconds
    try:
        while True:
            traced = trace and iterations % 2 == 1
            root = os.path.join(work_dir, f"iteration-{iterations}")
            cache_dir = os.path.join(root, "cache")
            hooks = layers.install(tracer) if traced else None
            checked = []
            try:
                first = run_pass(suite, os.path.join(root, "cold"), cache_dir, sampler)
                if traced:
                    cold_phase.add(tracer.drain(), 1)
                now = time.perf_counter()
                share_end = now + WARM_SHARE * first.wall
                # The last iteration spends what is left of the budget on
                # warm passes instead of leaving it idle.
                last = (iterations + 1 >= needed
                        and share_end + (1 + WARM_SHARE) * first.wall > deadline)
                warm_end = max(share_end, deadline) if last else share_end
                while True:
                    done = run_pass(suite, os.path.join(root, "warm"), cache_dir, sampler)
                    # Checked before the next pass reuses the directory; the
                    # check reads files only, so it traces nothing.
                    bad = [] if done.error else check_warm(done, first.manifest_dir)
                    checked.append((done, bad))
                    shutil.rmtree(done.manifest_dir, ignore_errors=True)
                    if time.perf_counter() >= warm_end:
                        break
                if traced:
                    warm_phase.add(tracer.drain(), len(checked))
            finally:
                if hooks is not None:
                    hooks.uninstall()
                    missing_hooks.update(hooks.missing)

            bad = [] if first.error else check_cold(suite, first, expected, goldens, seeded)
            checked.insert(0, (first, bad))
            for index, (done, bad) in enumerate(checked):
                attempted += len(suite)
                if done.error is not None:
                    bad = [(None, f"pass {done.manifest_dir} raised {done.error}")]
                if bad:
                    failed += failed_scenarios(suite, bad)
                    problems.extend(message if sid is None else f"{sid}: {message}"
                                    for sid, message in bad)
                if done.error is not None:
                    continue
                passes.append(("warm" if index else "cold", done))
            if traced:
                traced_cold.append(first.wall)
                traced_wall += sum(done.wall for done, _ in checked)
            else:
                untraced_cold.append(first.wall)
            shutil.rmtree(root, ignore_errors=True)
            iterations += 1
            if last:
                break
    finally:
        if probe_hooks is not None:
            probe_hooks.uninstall()

    # Each pass at reference speed: net of its probes and scaled by the
    # probes around it, all parts unless the workload names others.
    cold, warm, rates = [], [], []
    for kind, done in passes:
        parts = workload.get("probe", {}).get(kind, list(PROBE_REFERENCE_S))
        scale = sampler.scale_over(done.started, done.started + done.wall, parts)
        net = (done.wall - done.probe_s) * scale
        if kind == "warm":
            warm.append(net)
            continue
        cold.append(net)
        campaign = (done.campaign_s - done.campaign_probe_s) * scale
        if campaign > 0:
            rates.append(done.injections / campaign)

    out = {
        "iterations": iterations,
        "cold": cold,
        "warm": warm,
        "rates": rates,
        "passes": [
            [kind, done.started, done.wall, done.probe_s, done.campaign_s,
             done.campaign_probe_s, done.injections]
            for kind, done in passes
        ],
        "probes": sampler.probes,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if trace:
        metrics = layers.layer_metrics(cold_phase, warm_phase, traced_wall, tracer.root_pid)
        baseline = statistics.median(untraced_cold[1:] or untraced_cold)
        metrics["trace.overhead_frac"] = statistics.median(traced_cold) / baseline - 1.0
        out["layers"] = metrics
    out["missing_hooks"] = sorted(missing_hooks)
    return out


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def workload_process(args) -> int:
    """Body of the workload process: set up, say ``ready``, then measure."""
    suite = build_suite(args.workload, args.seed, args.tiny)
    expected = build_factories(suite)
    print("ready", flush=True)
    if args.probe_setup:
        return 0
    work_root = ROOT / ".perfbench-work"
    work_dir = work_root / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        data = measure(args.workload, suite, expected, args.seconds, bool(args.trace),
                       str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
        os.sync()
    # The probes are other processes, so this peak is the workload's own.
    data["peak_rss_mib"] = peak_rss_mib()
    data["host"] = host_fingerprint()
    print(json.dumps(data))
    return 0


# ----------------------------------------------------------------------
# One run (outside the workload process)
# ----------------------------------------------------------------------
def start_until_ready(flags: List[str]) -> Tuple[float, str]:
    """Run this script with ``flags`` in a fresh process.

    Returns the seconds from starting it until it printed ``ready``, and
    the rest of its standard output.
    """
    command = [sys.executable, str(Path(__file__).resolve()), *flags]
    tick = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - tick
        rest = child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"{' '.join(flags)} failed with exit code {code}")
    return elapsed, rest


def median_or_zero(samples: List[float]) -> float:
    """The median; 0 when every pass raised (the run then reads incorrect)."""
    return statistics.median(samples) if samples else 0.0


def benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
              probes: int = SETUP_PROBES) -> Dict[str, object]:
    """One benchmark run: the result object plus the details printed before it."""
    definition = load_json(ROOT / "BENCHMARK.json")
    if name not in {w["name"] for w in definition["workloads"]}:
        raise SystemExit(f"unknown workload {name!r}")
    workload = load_json(HERE / "workloads.json")[name]
    load_at_start = os.getloadavg()
    flags = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])

    def host_speed() -> float:
        return statistics.median(python_probe() for _ in range(3))

    def probe() -> float:
        return start_until_ready(["--probe-setup", *flags])[0]

    # Set-up times and the host speed taken between them: each set-up is
    # scaled by the mean speed on either side of it.
    setups, speeds, scaled_setups = [], [host_speed()], []
    started = time.perf_counter()
    if not trace:
        for _ in range(probes // 2):
            setups.append(probe())
            speeds.append(host_speed())
    # The probes after the workload take about as long as those before.
    budget = max(0.0, seconds - 2 * (time.perf_counter() - started))
    ready_s, output = start_until_ready(
        ["--measure", *flags, "--seconds", repr(budget), "--trace", str(int(trace))]
    )
    data = json.loads(output.rstrip("\n").splitlines()[-1])
    if trace:
        values = data["layers"]
        specs = definition["per_layer"]
    else:
        setups.append(ready_s)
        speeds.append(host_speed())
        for _ in range(probes - probes // 2):
            setups.append(probe())
            speeds.append(host_speed())
        scaled_setups = [
            setup * 2 * PROBE_REFERENCE_S["python"] / (before + after)
            for setup, before, after in zip(setups, speeds, speeds[1:])
        ]
        values = {
            "setup_s": statistics.median(scaled_setups),
            "injections_per_s": median_or_zero(data["rates"]),
            "suite_cold_s": median_or_zero(data["cold"]),
            "suite_warm_s": median_or_zero(data["warm"]),
            "peak_rss_mib": data["peak_rss_mib"],
        }
        specs = definition["end_to_end"]
    if set(values) != {spec["name"] for spec in specs}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs
    }
    # End-to-end metrics are never 0 on a run whose passes all completed.
    correct = data["failed"] == 0 and all(
        math.isfinite(v) and (trace or v) for v in values.values()
    )
    details = {
        "workload": name,
        "seed": seed,
        "scenario_seed": scenario_seed(seed) if workload["seeded"] else None,
        "trace": trace,
        "host": {**data["host"], "loadavg_at_start": list(load_at_start)},
        "iterations": data["iterations"],
        "samples": {
            "setup_s": scaled_setups,
            "suite_cold_s": data["cold"],
            "suite_warm_s": data["warm"],
            "injections_per_s": data["rates"],
        },
        # Unscaled, as measured on this host: set-up times with the
        # python-probe times between them, every pass as [kind, start,
        # wall, probe_s, campaign_s, campaign_probe_s, injections] and
        # every probe as [midpoint, seconds of each probe part].
        "raw": {
            "setup_s": setups,
            "python_probe_s": speeds,
            "passes": data["passes"],
            "probes": data["probes"],
        },
        "problems": data["problems"][:20],
        "missing_hooks": data.get("missing_hooks", []),
    }
    result = {
        "correct": correct,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": metrics,
    }
    return {"details": details, "result": result}


def write_goldens() -> None:
    """Recompute every workload's per-scenario mean QVF into ``goldens.json``."""
    from repro.scenarios.runner import SuiteRunner

    workloads = load_json(HERE / "workloads.json")
    goldens: Dict[str, Dict[str, float]] = {}
    for name, workload in workloads.items():
        seeds = range(SEED_VARIANTS) if workload["seeded"] else [0]
        table = goldens.setdefault(name, {})
        for tiny in (False, True):
            for seed in seeds:
                suite = build_suite(name, seed, tiny)
                with SuiteRunner(suite, use_cache=False) as runner:
                    result = runner.run()
                for run in result:
                    table[golden_key(run.spec, workload["seeded"])] = run.result.mean_qvf()
                print(f"{name} tiny={tiny} seed={seed}: {len(result)} scenarios", file=sys.stderr)
    with open(HERE / "goldens.json", "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


def print_run(name: str, run: Dict[str, object]) -> None:
    for metric, entry in run["result"]["metrics"].items():
        print(f"{name:>16} {metric:<26} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(run["details"]), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="the smoke-test sizes")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)

    if args.write_goldens:
        write_goldens()
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.probe_setup or args.measure:
        return workload_process(args)
    if args.workload == "all":
        # Each workload still runs in its own workload process.
        results = {}
        for name in load_json(HERE / "workloads.json"):
            run = benchmark(name, args.seed, args.seconds, bool(args.trace), args.tiny)
            print_run(name, run)
            results[name] = run["result"]
        print(json.dumps(results))
        return 0
    run = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print_run(args.workload, run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
