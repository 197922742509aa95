"""Run ``bench/run.py`` once in a checkout and parse what it prints.

Shared by ``suite.py`` and ``compare.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def load_spec(checkout: Path = ROOT) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One run of ``workload`` for the checkout's ``run_seconds``. Returns
    the result line, the lines before it and the parsed ``detail:`` line
    (None for a traced run)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(load_spec(checkout)["run_seconds"]), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(line[len("detail: "):]) for line in lines
                   if line.startswith("detail: ")), None)
    return {"result": json.loads(lines[-1]), "log": lines[:-1], "detail": detail}
