"""Regenerate ``reference/exact_ca.json`` by an exhaustive CDF scan.

For every case of the many-pairs exact-bound grid this scans N = 1, 2, ...
in blocks and stores the first N at which the binomial correct-side
probability reaches p_ca. Nothing is searched or bisected, so the stored
values are the true minima the program's exact bounds must return. Run
from the repository root: ``python3 bench/make_reference.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy import stats

import workloads as wl

BLOCK = 1 << 20
OUT = Path(__file__).resolve().parent / "reference" / "exact_ca.json"


def correct_side(n: np.ndarray, p: float, mu: float) -> np.ndarray:
    """P[Binomial(n, p) lands strictly on p's side of n * mu]."""
    if p > mu:
        return stats.binom.sf(np.floor(n * mu + 1e-9), n, p)
    top = np.ceil(n * mu - 1e-9) - 1.0
    return np.where(top >= 0, stats.binom.cdf(np.maximum(top, 0.0), n, p), 0.0)


def first_n(p: float, mu: float, p_ca: float) -> int:
    start = 1
    while True:
        n = np.arange(start, start + BLOCK, dtype=float)
        hits = np.nonzero(correct_side(n, p, mu) >= p_ca)[0]
        if hits.size:
            return int(n[hits[0]])
        start += BLOCK


def main() -> None:
    rows = []
    for case in wl.exact_ca_cases():
        p = case["p"]
        if case["p_error"]:
            mixed = 2.0 ** -case["n_qubits"] if case["family"] == "fidelity" else 0.5
            p = (1.0 - case["p_error"]) * p + case["p_error"] * mixed
        rows.append({**case, "n": first_n(p, case["mu"], case["p_ca"])})
        print(rows[-1]["case"], rows[-1]["n"], flush=True)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
