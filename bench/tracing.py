"""Traced passes, recorded from outside the program.

The tracer replaces the public functions of each ``qkshots`` module with
timing wrappers wherever they are looked up: in the defining module, in
every module that imported the name, and in the package namespace. No file
under ``src/`` changes. Each call becomes a span (name, start, end, parent,
thread) kept in memory; counts are computed from call arguments and
results at the same boundary. Work handed to ``parallel_map`` keeps the
calling span as its parent, so spans from pool threads nest correctly.

A span's self time is its duration minus the part of it covered by the
union of its children's intervals. A function that a later refactor removes
or stops calling simply reports zero calls; the run goes on.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _state_bytes(args, kwargs, _):
    # one pass over a 2**n complex128 vector, computed, not measured
    return 16 * 2 ** _arg(args, kwargs, 0, "state").n_qubits


def _pairs(m: int) -> int:
    return m * (m - 1) // 2


def _written(result) -> int:
    paths = result if isinstance(result, tuple) else [result]
    return sum(Path(p).stat().st_size for p in paths)


# (module, function) -> (span name, counter(args, kwargs, result) -> counts)
TARGETS = {
    ("statevector", "apply_hadamard_layer"): ("statevector.hadamard", lambda a, k, r: {
        "statevector.hadamard_calls": 1,
        "statevector.bytes_computed": _state_bytes(a, k, r)}),
    ("statevector", "apply_diagonal_phase"): ("statevector.phase", lambda a, k, r: {
        "statevector.bytes_computed": _state_bytes(a, k, r)}),
    ("statevector", "reduce_to_qubit"): ("statevector.reduce", lambda a, k, r: {
        "statevector.reduce_calls": 1,
        "statevector.bytes_computed": _state_bytes(a, k, r)}),
    ("feature_map", "phase_profile"): ("feature_map.phase_profile", None),
    ("feature_map", "embed"): ("feature_map.embed", lambda a, k, r: {
        "feature_map.embed_calls": 1}),
    ("kernels", "embedding_matrix"): ("kernels.embedding_matrix", None),
    ("kernels", "reduced_component_table"): ("kernels.component_table", None),
    ("kernels", "fidelity_gram_values"): ("kernels.gram", lambda a, k, r: {
        "kernels.entries": _pairs(r.shape[0])}),
    ("kernels", "projected_gram_values"): ("kernels.gram", lambda a, k, r: {
        "kernels.entries": _pairs(r.shape[0])}),
    ("kernels", "kernel_statistics"): ("kernels.statistics", None),
    ("measurement", "sample_gram"): ("measurement.sample_gram", lambda a, k, r: {
        "measurement.draws": _pairs(r.m) if r.family == "fidelity" else 0,
        "measurement.shots_simulated": int(r.metadata["total_shots"])}),
    ("measurement", "sample_tomography"): ("measurement.tomography", lambda a, k, r: {
        "measurement.draws": 3 * len(_arg(a, k, 0, "rho_list"))}),
    ("shot_bounds", "entry_budget_fq"): ("shot_bounds.entry_budget", lambda a, k, r: {
        "shot_bounds.entries_budgeted": 1,
        "shot_bounds.degenerate_entries": int(r.degenerate),
        "shot_bounds.unbounded_entries": int(math.isinf(r.n_ca))}),
    ("shot_bounds", "entry_budget_pq"): ("shot_bounds.entry_budget", lambda a, k, r: {
        "shot_bounds.entries_budgeted": 1,
        "shot_bounds.degenerate_entries": int(r.degenerate),
        "shot_bounds.unbounded_entries": int(math.isinf(r.n_ca))}),
    ("shot_bounds", "dataset_budget"): ("shot_bounds.dataset_budget", None),
    ("shot_bounds", "n_ca_binomial_exact"): ("shot_bounds.exact_ca", lambda a, k, r: {
        "shot_bounds.exact_ca_calls": 1}),
    ("shot_bounds", "n_ca_noisy_binomial_exact"): ("shot_bounds.exact_ca", lambda a, k, r: {
        "shot_bounds.exact_ca_calls": 1}),
    ("serialize", "write_json"): ("serialize.write", lambda a, k, r: {
        "serialize.bytes_written": _written(r)}),
    ("serialize", "write_kernel_csv"): ("serialize.write", lambda a, k, r: {
        "serialize.bytes_written": _written(r)}),
    ("serialize", "write_series_csv"): ("serialize.write", lambda a, k, r: {
        "serialize.bytes_written": _written(r)}),
    ("scaling", "sweep"): ("scaling.sweep", None),
    ("scaling", "fit_exponential"): ("scaling.fit", lambda a, k, r: {
        "scaling.fits": 1, "scaling.valid_fits": int(r.valid)}),
    ("characteristics", "expressibility"): ("characteristics.expressibility", None),
    ("characteristics", "mean_relative_entropy"): ("characteristics.relative_entropy", None),
    ("resources", "quantum_cost"): ("resources.cost", None),
    ("resources", "classical_cost"): ("resources.cost", None),
    ("resources", "find_crossover"): ("resources.cost", None),
    ("datasets", "load_csv"): ("datasets.load", None),
    ("datasets", "preprocess"): ("datasets.load", None),
    ("datasets", "select_features"): ("datasets.load", None),
    ("datasets", "stratify"): ("datasets.load", None),
}
# spans whose peak traced allocation is recorded (tracemalloc, traced run only)
MEMORY_SPANS = {"shot_bounds.dataset_budget": "shot_bounds.dataset_budget_peak_mb"}
# spans the benchmark opens itself around each step
CLI_SPAN = "cli"
LIBRARY_SPAN = "bench.library"
SPAN_METRIC = {CLI_SPAN: "cli.self_s"}

TIME_METRICS = [SPAN_METRIC.get(name, name + "_s") for name in
                dict.fromkeys([span for span, _ in TARGETS.values()] + [CLI_SPAN])]
# counts -> (unit, better): work a workload asks for is "higher" (it should
# not shrink), redundant or wasted work is "lower"
COUNTS = {
    "statevector.hadamard_calls": ("count", "lower"),
    "statevector.reduce_calls": ("count", "lower"),
    "statevector.bytes_computed": ("B", "lower"),
    "feature_map.embed_calls": ("count", "lower"),
    "kernels.entries": ("count", "higher"),
    "measurement.draws": ("count", "higher"),
    "measurement.shots_simulated": ("count", "higher"),
    "shot_bounds.entries_budgeted": ("count", "higher"),
    "shot_bounds.exact_ca_calls": ("count", "higher"),
    "shot_bounds.degenerate_entries": ("count", "lower"),
    "shot_bounds.unbounded_entries": ("count", "lower"),
    "serialize.bytes_written": ("B", "lower"),
    "scaling.fits": ("count", "higher"),
    "scaling.valid_fits": ("count", "higher"),
}
EMBEDS_PER_POINT = "feature_map.embeds_per_point"
OVERHEAD = "trace.overhead_s"


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every metric of a traced run: name -> (unit, better)."""
    metrics = {name: ("s", "lower") for name in TIME_METRICS}
    metrics.update(COUNTS)
    metrics.update({name: ("MB", "lower") for name in MEMORY_SPANS.values()})
    metrics[EMBEDS_PER_POINT] = ("ratio", "lower")
    metrics[OVERHEAD] = ("s", "lower")
    return metrics


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Span recorder that patches a loaded ``qkshots`` package in place."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.sites: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append((sid, name))
        return sid, parent

    def _close(self, sid, name, parent, start, end, counts) -> None:
        self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent and parent[0],
                               threading.get_ident(), counts))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around one step."""
        sid, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, parent, start, time.perf_counter(), {})

    def _wrap(self, original, name, counter):
        memory_key = MEMORY_SPANS.get(name)

        def wrapper(*args, **kwargs):
            sid, parent = self._open(name)
            counts = {}
            if memory_key:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if memory_key:
                    counts[memory_key] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._close(sid, name, parent, start, end, counts)
            # a same-named parent already counts this work (a noisy bound
            # delegating to the exact one), so only the outermost span counts
            if counter is not None and not (parent and parent[1] == name):
                counts.update(counter(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_parallel_map(self, original):
        def parallel_map(fn, items, threads: int = 1):
            stack = self._stack()
            parent = stack[-1] if stack else None

            def bound(item):
                inner = self._stack()
                inner.append(parent)
                try:
                    return fn(item)
                finally:
                    inner.pop()

            return original(bound, items, threads)

        return parallel_map

    def install(self, package: str = "qkshots") -> None:
        """Wrap every target at every module attribute bound to it."""
        self.missing, self.sites = [], {}
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == package or name.startswith(package + "."))]
        replacements = []
        for (module, function), (name, counter) in TARGETS.items():
            home = sys.modules.get(f"{package}.{module}")
            original = getattr(home, function, None)
            if original is None:
                self.missing.append(f"{module}.{function}")
                continue
            replacements.append((f"{module}.{function}", original,
                                 self._wrap(original, name, counter)))
        util = sys.modules.get(f"{package}._util")
        if getattr(util, "parallel_map", None) is not None:
            replacements.append(("_util.parallel_map", util.parallel_map,
                                 self._wrap_parallel_map(util.parallel_map)))
        for label, original, wrapper in replacements:
            self.sites[label] = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
                        self.sites[label] += 1

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans = []

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - _covered(
            [(max(s, span.start), min(e, span.end)) for s, e in children.get(span.id, [])
             if min(e, span.end) > max(s, span.start)])
        for span in spans
    }


def subtree(spans: list[Span], root_id: int) -> list[Span]:
    kids: dict[int, list[Span]] = {}
    for span in spans:
        kids.setdefault(span.parent, []).append(span)
    out, todo = [], [s for s in spans if s.id == root_id]
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(kids.get(span.id, []))
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and counts of a set of spans."""
    own = self_times(spans)
    metrics = {name: 0.0 for name in TIME_METRICS}
    metrics.update({name: 0 for name in COUNTS})
    metrics.update({name: 0.0 for name in MEMORY_SPANS.values()})
    for span in spans:
        key = SPAN_METRIC.get(span.name, span.name + "_s")
        if key in metrics:
            metrics[key] += own[span.id]
        for name, value in span.counts.items():
            if name in MEMORY_SPANS.values():
                metrics[name] = max(metrics[name], value)
            else:
                metrics[name] += value
    return metrics
