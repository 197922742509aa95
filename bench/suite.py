#!/usr/bin/env python3
"""Run every workload, each in a fresh process, and print one table.

    python3 bench/suite.py --seed 1 [--trace]

Each run lasts ``run_seconds`` of BENCHMARK.json. Prints every end-to-end
metric with its unit per workload ("-" where the workload has no such
step), and with ``--trace`` a second, traced run per workload with the
per-layer self times, counts and tracing overhead.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from runner import ROOT, run_once  # noqa: E402


def main(argv=None) -> int:
    from run import END_TO_END_UNITS
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    results = {w: run_once(ROOT, w, args.seed, 0) for w in WORKLOADS}
    print(f"{'metric':<18} {'unit':<6}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name, unit in END_TO_END_UNITS.items():
        cells = []
        for w in WORKLOADS:
            value = results[w]["detail"]["summary"].get(name)
            cells.append(f"{value:>16.6g}" if value is not None else f"{'-':>16}")
        print(f"{name:<18} {unit:<6}" + "".join(cells))
    print("passes: " + ", ".join(
        f"{w} {len(results[w]['detail']['passes']['wall_s'])}" for w in WORKLOADS))
    print(next(line for line in results[WORKLOADS[0]]["log"] if line.startswith("machine: ")))
    traced = {}
    if args.trace:
        for w in WORKLOADS:
            traced[w] = run_once(ROOT, w, args.seed, 1)
            print(f"\n== traced {w}")
            for line in traced[w]["log"][2:]:
                print(line)
    return 0 if all(r["result"]["correct"] for r in [*results.values(), *traced.values()]) else 1


if __name__ == "__main__":
    sys.exit(main())
