"""Outside-in span tracer for the QuFI benchmark.

The benchmark times the program's layers without touching ``src/``: it
replaces a layer's public functions with wrappers that open and close a
span around each call, then puts the originals back. A span records its
layer, an optional tag (e.g. the backend kind), its start and end on the
monotonic clock, the span that caused it, and one work count ``n``
(branches, rows, bytes — whatever the layer's unit of work is).

A call into a layer from inside the same layer is folded into the outer
span: one ``pertask`` span per emulator run, not one for the emulator and
another for the density-matrix simulation it runs inside.

Process pools fork, so a worker inherits the installed wrappers and the
tracer. The first span a worker opens notices the new pid, drops the
state copied from the parent, and every time the worker's span stack
empties it appends its spans and counters to ``worker-<pid>.jsonl`` in
the tracer's directory; :func:`merge_worker_files` reads those back.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    pid: int
    sid: int
    parent: Optional[int]
    layer: str
    tag: Optional[str]
    t0: float
    t1: float
    n: float


class Tracer:
    """Span stack, finished spans and counters of one process."""

    def __init__(self, worker_dir: str) -> None:
        self.worker_dir = worker_dir
        self.root_pid = os.getpid()
        self._pid = self.root_pid
        self._next = 0
        self._stack: List[Tuple[int, str]] = []
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)

    def _adopt_process(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # A forked worker: the parent's open spans and records are
            # the parent's to report, not this process's.
            self._pid = pid
            self._stack = []
            self.spans = []
            self.counters = defaultdict(float)

    def open(self, layer: str, tag: Optional[str] = None):
        """Start a span; ``None`` when the call folds into its caller."""
        self._adopt_process()
        if self._stack and self._stack[-1][1] == layer:
            return None
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, layer))
        return (sid, parent, layer, tag, time.perf_counter())

    def close(self, token, t1: float, n: float = 0) -> None:
        """Finish the span ``token`` opened, ending at ``t1``."""
        sid, parent, layer, tag, t0 = token
        self._stack.pop()
        self.spans.append(Span(self._pid, sid, parent, layer, tag, t0, t1, n))
        if not self._stack and self._pid != self.root_pid:
            self._flush_worker()

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` of the current process."""
        self._adopt_process()
        self.counters[name] += amount

    def _flush_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(["span", *span]) + "\n")
            if self.counters:
                handle.write(json.dumps(["counters", dict(self.counters)]) + "\n")
        self.spans = []
        self.counters = defaultdict(float)

    def drain(self) -> Tuple[List[Span], Dict[str, float]]:
        """This process's spans and counters plus every worker's, then reset."""
        spans, counters = self.spans, dict(self.counters)
        self.spans = []
        self.counters = defaultdict(float)
        worker_spans, worker_counters = merge_worker_files(self.worker_dir)
        for name, value in worker_counters.items():
            counters[name] = counters.get(name, 0.0) + value
        return spans + worker_spans, counters


def merge_worker_files(worker_dir: str) -> Tuple[List[Span], Dict[str, float]]:
    """Read and delete the ``worker-<pid>.jsonl`` files in ``worker_dir``."""
    spans: List[Span] = []
    counters: Dict[str, float] = defaultdict(float)
    for path in sorted(glob.glob(os.path.join(worker_dir, "worker-*.jsonl"))):
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                kind, *payload = json.loads(line)
                if kind == "span":
                    spans.append(Span(*payload))
                else:
                    for name, value in payload[0].items():
                        counters[name] += value
        os.unlink(path)
    return spans, dict(counters)


class LayerTotals(NamedTuple):
    calls: int
    self_s: float
    incl_s: float
    n: float


def self_times(spans: Iterable[Span]) -> Dict[Span, float]:
    """Each span's duration minus the time its child spans cover.

    Children are the spans of the same process naming it as parent. They
    nest and run one after another, so the covered part is the union of
    their intervals clipped to the parent's.
    """
    spans = list(spans)
    children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[(span.pid, span.parent)].append(span)
    result: Dict[Span, float] = {}
    for span in spans:
        covered = 0.0
        edge = span.t0
        for child in sorted(children.get((span.pid, span.sid), ()), key=lambda c: c.t0):
            start = max(child.t0, edge)
            end = min(child.t1, span.t1)
            if end > start:
                covered += end - start
                edge = end
        result[span] = (span.t1 - span.t0) - covered
    return result


def layer_totals(spans: Iterable[Span]) -> Dict[Tuple[str, Optional[str]], LayerTotals]:
    """Per ``(layer, tag)``: call count, self and inclusive seconds, work."""
    own = self_times(spans)
    acc: Dict[Tuple[str, Optional[str]], List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for span, self_s in own.items():
        row = acc[(span.layer, span.tag)]
        row[0] += 1
        row[1] += self_s
        row[2] += span.t1 - span.t0
        row[3] += span.n
    return {key: LayerTotals(int(r[0]), r[1], r[2], r[3]) for key, r in acc.items()}


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
Measure = Callable[[tuple, dict, object, float, Tracer], float]
# The program's package: its modules hold the bindings a wrapper replaces.
PACKAGE = "repro"


def _wrap(tracer: Tracer, fn, layer: str, tag, measure: Optional[Measure]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = tracer.open(layer, tag(args) if callable(tag) else tag)
        if token is None:
            return fn(*args, **kwargs)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            n = measure(args, kwargs, result, t1 - token[4], tracer) if measure else 0
            tracer.close(token, t1, n)

    return wrapper


class Hooks:
    """Wrappers installed into the program's modules and classes.

    ``add_function`` replaces a module-level function everywhere the
    program's modules bound it (``from .store import compact`` makes a
    second binding); ``add_method`` replaces a method on the class that
    defines it, keeping classmethods classmethods. A target that no
    longer exists is skipped and listed in :attr:`missing`, so a renamed
    function costs its layer's numbers, not the benchmark run.
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        # ``None`` serves callers that only use ``replace_*``.
        self.tracer = tracer
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        for name, module in list(sys.modules.items()):
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
                yield module

    def replace_function(self, module_name: str, attr: str, make) -> None:
        """Swap ``module_name.attr`` for ``make(original)`` in every binding."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        replacement = make(original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, replacement)

    def replace_method(self, cls, attr: str, make) -> None:
        """Swap ``cls.attr`` (defined on ``cls`` itself) for ``make(function)``."""
        raw = vars(cls).get(attr)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def add_function(self, module_name: str, attr: str, layer: str, tag=None, measure=None) -> None:
        self.replace_function(
            module_name, attr, lambda fn: _wrap(self.tracer, fn, layer, tag, measure)
        )

    def add_method(self, cls, attr: str, layer: str, tag=None, measure=None) -> None:
        self.replace_method(cls, attr, lambda fn: _wrap(self.tracer, fn, layer, tag, measure))

    def uninstall(self) -> None:
        """Put every original back (last replaced, first restored)."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
