#!/usr/bin/env python3
"""Compare two checkouts with the benchmark, pair by pair.

    python3 bench/compare.py --base ../parent --change . --seed 100 [--trace 1]

Both checkouts must hold the same BENCHMARK.json and the same files under
its ``paths``: a change that claims a gain may not edit the benchmark. Each
run lasts ``run_seconds``. Pair k (of ten) runs every workload on both sides
with seed ``--seed + k``, alternating which side runs first. Each metric of
each workload is then reported as

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the base's quartile
  spread;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json (per-step times and ``first_pass_s`` use
  the ``wall_s`` bound); a metric without a bound is worse when the base
  wins 9 of 10 pairs by more than the base's spread;
* ``unresolved``: the base's own quartile spread is wider than the bound,
  unless every change run beats every base run;
* ``unchanged``: otherwise.

Use a seed not used while the change was written to re-check a claim.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from runner import load_spec, run_once  # noqa: E402
from workloads import STEP_METRICS  # noqa: E402

LOWER_IS_BETTER = "lower"
PAIRS = 10
# unscored times, judged against the wall_s bound
WALL_BOUND_TIMES = (*STEP_METRICS, "first_pass_s")


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: list[float], change: list[float], better: str = LOWER_IS_BETTER,
            bound: float | None = None) -> str:
    """Classify one metric from paired runs (``base[k]`` with ``change[k]``)."""
    sign = 1.0 if better == LOWER_IS_BETTER else -1.0
    gains = [sign * (b - c) for b, c in zip(base, change)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    median_base = statistics.median(base)
    gain = sign * (median_base - statistics.median(change))
    spread = _spread(base)
    if wins >= 0.9 * len(gains) and gain > spread:
        return "improved"
    if bound is None:
        return "worse" if losses >= 0.9 * len(gains) and -gain > spread else "unchanged"
    if -gain > bound * abs(median_base):
        return "worse"
    if better == LOWER_IS_BETTER:
        every_run_better = max(change) < min(base)
    else:
        every_run_better = min(change) > max(base)
    if spread > bound * abs(median_base) and not every_run_better:
        return "unresolved"
    return "unchanged"


def run_side(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in ``checkout``; returns its metrics by name,
    including the summary of the detail line."""
    out = run_once(checkout, workload, seed, trace)
    metrics = {name: m["value"] for name, m in out["result"]["metrics"].items()}
    if out["detail"]:
        metrics.update({k: v for k, v in out["detail"]["summary"].items() if k not in metrics})
    metrics["failed"] = out["result"]["failed"]
    return metrics


def benchmark_files(checkout: Path) -> dict:
    """BENCHMARK.json and every file under its ``paths``, by relative path."""
    files = {"BENCHMARK.json": (checkout / "BENCHMARK.json").read_bytes()}
    for top in load_spec(checkout)["paths"]:
        for path in sorted((checkout / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                files[path.relative_to(checkout).as_posix()] = path.read_bytes()
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if benchmark_files(args.base) != benchmark_files(args.change):
        raise SystemExit("error: the two checkouts run different benchmark code")
    spec = load_spec(args.base)
    workloads = [w["name"] for w in spec["workloads"]]
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    wall_bound = declared["wall_s"]["bound"]

    runs = {w: {"base": [], "change": []} for w in workloads}
    for k in range(PAIRS):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for workload in workloads:
            for side in order:
                checkout = args.base if side == "base" else args.change
                runs[workload][side].append(run_side(checkout, workload, args.seed + k, args.trace))
            print(f"pair {k + 1}/{PAIRS} {workload} done", file=sys.stderr)

    report = {}
    print(f"{'workload':<12} {'metric':<40} {'base median':>12} {'change median':>14} "
          f"{'wins':>5}  verdict")
    for workload, sides in runs.items():
        names = [n for n in sides["base"][0] if all(n in r for r in sides["change"])]
        for name in names:
            base = [r[name] for r in sides["base"]]
            change = [r[name] for r in sides["change"]]
            meta = declared.get(name, {})
            better = meta.get("better", LOWER_IS_BETTER)
            bound = wall_bound if name in WALL_BOUND_TIMES else meta.get("bound")
            result = verdict(base, change, better, bound)
            sign = 1 if better == LOWER_IS_BETTER else -1
            wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
            report.setdefault(workload, {})[name] = {
                "base": base, "change": change, "verdict": result, "wins": wins}
            print(f"{workload:<12} {name:<40} {statistics.median(base):>12.5g} "
                  f"{statistics.median(change):>14.5g} {wins:>2}/{len(base):<2}  {result}")
    print(json.dumps({"pairs": PAIRS, "seed": args.seed, "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
