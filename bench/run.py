#!/usr/bin/env python3
"""qkshots benchmark: one workload, closed loop, one caller.

    python3 bench/run.py --workload many-pairs --seed 1 --seconds 55 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
checkout this file sits in, and every step calls ``qkshots.cli.main``
in-process (the exact-bound step calls the library). The steps of a pass run
back to back; passes repeat for ``--seconds``, at least three of them, on
the same inputs. After the last pass, and after ``peak_rss_mb`` is read, the
last pass's artifacts are checked; every earlier pass must have produced
the same bytes, since outputs are bit-identical for a given seed.

Pass times are reported as the median pass; the fastest pass and the
quartiles are printed beside it. On a shared machine interference comes in
phases of tens of seconds to minutes. Over four sets of ten 55 s runs
(5 to 7 passes each) on a 2-core shared virtual machine, the run-to-run
spread (quartile distance over median) of the median pass was 0.07 to 0.20
on many-pairs and 0.07 to 0.18 on size-sweep, and of the fastest pass 0.12
to 0.25 and 0.11 to 0.19. The first pass also pays the program's one-time
lazy set-up, as every fresh CLI invocation does; it is reported on its own
as ``first_pass_s``, so that set-up moved into the first call still shows.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer self times and counts
plus the tracing overhead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, so that pool threads plus BLAS
# threads never exceed the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 3
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
PROBE_TIMEOUT_S = 60
END_TO_END_UNITS = {
    "wall_s": "s", "first_pass_s": "s", **{name: "s" for name in workloads.STEP_METRICS},
    "peak_rss_mb": "MB", "setup_s": "s", "error_rate": "ratio",
}
# the end-to-end metrics every workload reports, and so the ones scored in
# the result line; first_pass_s, per-step times and error_rate are printed
# beside them
SCORED = ("wall_s", "peak_rss_mb", "setup_s")


def load_program():
    """Import qkshots from this checkout's ``src`` and the test oracles."""
    package = ROOT / "src" / "qkshots"
    oracle_file = ROOT / "tests" / "oracles.py"
    if not (package / "__init__.py").is_file() or not oracle_file.is_file():
        raise SystemExit(f"error: no qkshots sources under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import qkshots
    import qkshots.cli

    if Path(qkshots.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported qkshots from {qkshots.__file__}, not {package}")
    spec = importlib.util.spec_from_file_location("qkshots_test_oracles", oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return qkshots, oracles


def machine_facts(qkshots) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qkshots": qkshots.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def setup_time(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that start Python, import qkshots and
    generate the workload's inputs, then exit."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def run_step(step, out_dir: Path, qkshots, seed: int):
    """Run one step; returns the CLI exit code or the library values."""
    if step.command is None:
        return workloads.run_exact_ca(qkshots)
    argv = [step.command, "--config", str(step.config_path), "--out", str(out_dir),
            "--seed", str(seed), "--threads", str(step.threads)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = qkshots.cli.main(argv)
    if code != 0:
        print(f"step {step.name} exited {code}: {sink.getvalue().strip()}", file=sys.stderr)
    return code


def fingerprint(workload, work: Path, outcomes: dict) -> dict:
    """Per step: its outcome and the SHA-256 of every artifact it wrote."""
    prints = {}
    for step in workload.steps:
        outcome = outcomes[step.name]
        files = {}
        out_dir = work / step.name
        if step.command is not None and out_dir.is_dir():
            for path in sorted(out_dir.rglob("*")):
                if path.is_file():
                    with path.open("rb") as handle:
                        files[path.relative_to(out_dir).as_posix()] = hashlib.file_digest(
                            handle, "sha256").hexdigest()
        prints[step.name] = (repr(outcome) if isinstance(outcome, BaseException) else outcome,
                             files)
    return prints


class Passes:
    """Runs passes and keeps what the checks need: the last pass's outcomes
    (its artifacts stay in the work directory) and every pass's fingerprint."""

    def __init__(self, workload, work: Path, qkshots, seed: int) -> None:
        self.workload, self.work, self.qkshots, self.seed = workload, work, qkshots, seed
        self.outcomes: dict = {}
        self.prints: list = []

    def run(self, tracer=None) -> dict:
        """One pass: every step back to back. Returns step name -> seconds;
        each step's outcome is the CLI exit code, the library step's values
        or the exception the step raised."""
        times, self.outcomes = {}, {}
        for step in self.workload.steps:
            out_dir = self.work / step.name
            shutil.rmtree(out_dir, ignore_errors=True)
            root = tracing.LIBRARY_SPAN if step.command is None else tracing.CLI_SPAN
            span = tracer.span(root) if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    result = run_step(step, out_dir, self.qkshots, self.seed)
            except (Exception, SystemExit) as exc:  # a crashing step is a failed check
                print(f"step {step.name} raised {exc!r}", file=sys.stderr)
                result = exc
            times[step.name] = time.perf_counter() - start
            self.outcomes[step.name] = result
        self.prints.append(fingerprint(self.workload, self.work, self.outcomes))
        return times

    def check(self, checker) -> None:
        """Check the last pass's artifacts, then that every earlier pass
        produced the same ones."""
        for step in self.workload.steps:
            checker.check(step, self.work / step.name, self.outcomes[step.name])
        for k, earlier in enumerate(self.prints[:-1], start=1):
            for step in self.workload.steps:
                checker.record(step.name, f"pass {k} output identical to the last pass",
                               earlier[step.name] == self.prints[-1][step.name])


def group_times(workload, times: dict) -> dict:
    out = {"wall_s": sum(times.values())}
    for step in workload.steps:
        if step.group:
            out[step.group] = out.get(step.group, 0.0) + times[step.name]
    return out


def _another_pass(started: float, seconds: float, walls: list, minimum: int) -> bool:
    """Run at least ``minimum`` passes; after that, start a pass only if one
    more typical pass still ends within the measured time."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def measure(runner: Passes, seconds):
    started = time.perf_counter()
    passes = []
    while _another_pass(started, seconds, [p["wall_s"] for p in passes], MIN_PASSES):
        passes.append(group_times(runner.workload, runner.run()))
    return passes


def traced(runner: Passes, seconds):
    """Alternate untraced and traced passes. Returns the tracer holding the
    last traced pass's spans, both lists of pass times and the per-layer
    metrics of every traced pass."""
    tracer = tracing.Tracer()
    plain, traced_walls, layers = [], [], []
    started = time.perf_counter()
    while _another_pass(started, seconds, [a + b for a, b in zip(plain, traced_walls)],
                        MIN_TRACED_PAIRS):
        plain.append(sum(runner.run().values()))
        tracer.reset()
        tracer.install()
        try:
            times = runner.run(tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(sum(times.values()))
        layers.append(tracing.layer_metrics(tracer.spans))
    return tracer, plain, traced_walls, layers


def step_report(workload, spans) -> list[dict]:
    """Per step: wall, embeds per distinct (point, n) and the self time of
    each layer (summed over pool threads, so it can exceed the wall)."""
    roots = [s for s in spans if s.parent is None]
    roots.sort(key=lambda s: s.start)
    rows = []
    for step, root in zip(workload.steps, roots):
        members = tracing.subtree(spans, root.id)
        own = tracing.self_times(members)
        layers: dict = {}
        for span in members:
            layer = span.name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own[span.id]
        embeds = sum(s.counts.get("feature_map.embed_calls", 0) for s in members)
        rows.append({
            "step": step.name, "group": step.group, "wall_s": root.end - root.start,
            "layers": layers,
            "embeds_per_point": embeds / step.distinct_embeddings if step.distinct_embeddings else None,
        })
    return rows


def _shares(layers: dict) -> str:
    """Layer self times as shares of their sum (busy time), largest first."""
    busy = sum(layers.values())
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{k} {100 * v / busy:.0f}%" for k, v in ranked if v >= 0.01 * busy)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_probe:
        parser.error("--seconds is required")

    qkshots, oracles = load_program()
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload, data = workloads.build(args.workload, work, args.seed)
        if args.setup_probe:
            return 0
        import checks

        checker = checks.Checker(data, oracles)
        facts = machine_facts(qkshots)
        print(f"qkshots benchmark: workload={workload.name} seed={args.seed} "
              f"trace={args.trace} closed loop, one caller")
        print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
        runner = Passes(workload, work, qkshots, args.seed)
        if args.trace:
            metrics = report_traced(args, runner, checker)
        else:
            metrics = report_untraced(args, runner, checker, facts)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    for failure in checker.failures[:20]:
        print(f"check failed: {failure}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def report_untraced(args, runner: Passes, checker, facts: dict) -> dict:
    setups = setup_time(args.workload, args.seed)
    passes = measure(runner, args.seconds)
    # read before any check runs, so the checks' references never set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.check(checker)
    values = {name: [p[name] for p in passes] for name in passes[0]}
    summary = {name: statistics.median(v) for name, v in values.items()}
    summary["first_pass_s"] = passes[0]["wall_s"]
    summary["peak_rss_mb"] = peak_rss_mb
    summary["setup_s"] = statistics.median(setups)
    summary["error_rate"] = checker.failed / checker.attempted
    print(f"passes: {len(passes)}; pass times are the median pass, fastest and "
          f"quartiles beside (fewer than 11 samples, so no tail percentile); "
          f"first_pass_s is the first pass alone; "
          f"setup_s is the median of {SETUP_PROBES} fresh processes")
    for name, unit in END_TO_END_UNITS.items():
        if name not in summary:
            continue
        line = f"  {name:<18} {summary[name]:>12.6g} {unit}"
        if name in values:
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            line += f"   fastest {min(values[name]):.4g}, quartiles {q1:.4g}..{q3:.4g}"
        print(line)
    print("detail: " + json.dumps({"passes": values, "setup_probes_s": setups,
                                   "summary": summary, "machine": facts}))
    return {name: {"value": summary[name], "unit": END_TO_END_UNITS[name]} for name in SCORED}


def report_traced(args, runner: Passes, checker) -> dict:
    workload = runner.workload
    tracer, plain, traced_walls, layers = traced(runner, args.seconds)
    runner.check(checker)
    trace_file = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(trace_file)
    # self times are medians over the traced passes; counts repeat exactly,
    # so the last pass's counts stand for all of them
    metrics = {name: statistics.median([layer[name] for layer in layers])
               if name in tracing.TIME_METRICS else layers[-1][name] for name in layers[0]}
    changed = [k for k in tracing.COUNTS if len({layer[k] for layer in layers}) > 1]
    overhead = min(traced_walls) - min(plain)
    metrics[tracing.EMBEDS_PER_POINT] = metrics["feature_map.embed_calls"] / sum(
        s.distinct_embeddings for s in workload.steps)
    metrics[tracing.OVERHEAD] = overhead
    print(f"traced passes: {len(layers)}, untraced passes: {len(plain)}; "
          f"overhead {overhead:.4g} s on a fastest untraced pass of {min(plain):.4g} s "
          f"({100 * overhead / min(plain):.1f}%)")
    print(f"spans of the last traced pass: {len(tracer.spans)} written to {trace_file}")
    print(f"wrapped {len(tracer.sites)} functions at {sum(tracer.sites.values())} "
          f"import sites")
    if tracer.missing:
        print("wrapped names missing (reported as 0): " + ", ".join(tracer.missing))
    if changed:
        print("WARNING: counts differ between traced passes: " + ", ".join(changed))
    print("layer shares of busy time (sum of self times) in the last traced pass:")
    rows = step_report(workload, tracer.spans)
    groups: dict = {}
    for row in rows:
        ratio = row["embeds_per_point"]
        print(f"  step {row['step']:<30} wall {row['wall_s']:.3f} s  embeds/point "
              f"{'-' if ratio is None else f'{ratio:.2f}'}  [{_shares(row['layers'])}]")
        group = groups.setdefault(row["group"] or "wall_s only", {})
        for layer, value in row["layers"].items():
            group[layer] = group.get(layer, 0.0) + value
    for group, layer_times in groups.items():
        print(f"  group {group:<29} [{_shares(layer_times)}]")
    for name in sorted(metrics):
        print(f"  {name:<40} {metrics[name]:.6g}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in tracing.per_layer_metrics().items()}


if __name__ == "__main__":
    sys.exit(main())
