"""The two benchmark workloads: generated inputs, CLI configs and steps.

Every workload turns ``--seed`` into two-Gaussian points with 20 features,
writes them as a CSV file and hands that file to the ``qkshots`` CLI as a
``dataset.type: csv`` input, so the program sees only generated data.
Feature maps use two repetitions and full entanglement throughout.

Why these two (each check runs every workload 22 times, so a grid of m x n
configs would cost too much, and on a shared 2-core machine a run needs
about a minute to hold steady):

* ``many-pairs``: many points on 6-qubit states. Per-entry shot budgets,
  JSON writing, per-pair shot draws and the exact-CDF bound search dominate;
  embedding is a few percent.
* ``size-sweep``: states from 2 to 14 qubits. 200 points on 14-qubit states
  (16,384 amplitudes, two threads), where embedding and statevector work is
  array bandwidth, then 100 points over n = 2..12, where per-call overhead
  and double embedding dominate. Also exercises tomography sampling, the
  scaling fits, the embedding diagnostics, the resource model and the
  dataset budget. No per-entry budgets or exact bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_FEATURES = 20
FEATURE_MAP = {"repetitions": 2, "entanglement": "full"}
N_SHOTS = 1024
P_ERROR = 0.001
P_CA = 0.99
SWEEP_N = list(range(2, 13))
RESOURCE_N = [8, 16, 24, 32, 40, 48]

# per-step end-to-end times, each present only on the workloads whose steps
# feed it (every workload reports wall_s, peak_rss_mb and setup_s)
STEP_METRICS = ("kernels_s", "estimate_shots_s", "exact_bounds_s", "sweep_s", "characterize_s")

# Exact concentration-avoidance grid of the many-pairs workload:
# (proportion, concentration value). Proportions run from 2**-12 up to
# 1/2 +- 0.002; 0.5005 needs N above the 4M full-scan cap of
# n_ca_binomial_exact, so its bisection branch runs as well as the scan.
EXACT_CA_GRID = [
    (2.0**-12, 0.0),
    (2.0**-10, 0.0),
    (2.0**-8, 0.0),
    (2.0**-6, 0.0),
    (2.0**-12, 0.5),
    (0.1, 0.5),
    (0.25, 0.5),
    (0.4, 0.5),
    (0.45, 0.5),
    (0.48, 0.5),
    (0.498, 0.5),
    (0.502, 0.5),
    (0.5005, 0.5),
]
# The same grid through the noisy entry point; the fidelity rows use this
# qubit count for the 2**-n mixed-state shift.
EXACT_CA_NOISY_QUBITS = 6


@dataclass
class Step:
    """One step of a pass: a CLI command or the exact-bound library grid.

    ``group`` names the end-to-end metric the step's time counts toward
    (``None``: it counts only toward ``wall_s``).
    """

    name: str
    group: str | None
    command: str | None = None
    config: dict = field(default_factory=dict)
    threads: int = 1
    points: int = 0
    qubit_counts: tuple = ()
    config_path: Path | None = None

    @property
    def distinct_embeddings(self) -> int:
        """Distinct (point, n) pairs the step needs embedded."""
        return self.points * len(self.qubit_counts)


@dataclass
class Workload:
    name: str
    steps: list


WHY = {
    "many-pairs": "6-qubit states, up to 44,850 pairs: per-entry budgets, JSON "
    "writing, per-pair draws and exact-CDF bounds dominate",
    "size-sweep": "2 to 14 qubits: wide-state kernels on 2 threads, then many "
    "small states with double embedding, fits, diagnostics and resources",
}
WORKLOADS = tuple(WHY)


def two_gaussian(m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Balanced two-class Gaussian points: unit covariance, class centres
    at +-(a, ..., a) with a = 2 / sqrt(20), rows shuffled."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    centre = 2.0 / np.sqrt(N_FEATURES)
    half = m // 2
    features = np.vstack(
        [
            rng.normal(-centre, 1.0, size=(half, N_FEATURES)),
            rng.normal(+centre, 1.0, size=(m - half, N_FEATURES)),
        ]
    )
    labels = np.array([0] * half + [1] * (m - half))
    order = rng.permutation(m)
    return features[order], labels[order]


def write_csv(path: Path, features: np.ndarray, labels: np.ndarray) -> None:
    header = [f"f{i}" for i in range(features.shape[1])] + ["label"]
    lines = [",".join(header)]
    for row, label in zip(features, labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _dataset(path: Path) -> dict:
    return {"type": "csv", "path": str(path), "label_column": "label"}


def _feature_map(n: int | None = None) -> dict:
    section = dict(FEATURE_MAP)
    if n is not None:
        section["n_qubits"] = n
    return section


def exact_ca_cases() -> list[dict]:
    """Every grid point through the noiseless and the noisy entry point."""
    cases = []
    for p, mu in EXACT_CA_GRID:
        family = "fidelity" if mu == 0.0 else "projected"
        base = {"p": p, "mu": mu, "p_ca": P_CA}
        cases.append({**base, "case": f"exact(p={p!r}, mu={mu})", "p_error": 0.0,
                      "family": None, "n_qubits": None})
        cases.append({**base, "case": f"noisy-{family}(p={p!r}, mu={mu})",
                      "p_error": P_ERROR, "family": family,
                      "n_qubits": EXACT_CA_NOISY_QUBITS})
    return cases


def run_exact_ca(qkshots) -> list[int]:
    """The exact-bound step: library calls through the package namespace."""
    out = []
    for c in exact_ca_cases():
        if c["p_error"]:
            n = qkshots.n_ca_noisy_binomial_exact(
                c["p"], c["mu"], c["p_ca"], c["p_error"],
                family=c["family"], n_qubits=c["n_qubits"],
            )
        else:
            n = qkshots.n_ca_binomial_exact(c["p"], c["mu"], c["p_ca"])
        out.append(int(n))
    return out


def build(name: str, work_dir: Path, seed: int) -> tuple[Workload, dict]:
    """Generate the workload's inputs under ``work_dir`` and return its
    steps plus the generated features keyed by point count."""
    sizes = {"many-pairs": (150, 300), "size-sweep": (100, 200)}[name]
    features, labels = two_gaussian(max(sizes), seed)
    data, paths = {}, {}
    for m in sizes:
        paths[m] = work_dir / f"points{m}.csv"
        write_csv(paths[m], features[:m], labels[:m])
        data[m] = features[:m]

    if name == "many-pairs":
        budget = {"eps": 1.0, "p_spread": 0.9, "p_ca": P_CA}
        steps = [
            Step("estimate-shots-projected", "estimate_shots_s", "estimate-shots", {
                "dataset": _dataset(paths[150]), "feature_map": _feature_map(6),
                "kernel": {"family": "projected", "gamma": 1.0},
                "budget": budget,
            }, points=150, qubit_counts=(6,)),
            Step("estimate-shots-fidelity-noisy", "estimate_shots_s", "estimate-shots", {
                "dataset": _dataset(paths[150]), "feature_map": _feature_map(6),
                "kernel": {"family": "fidelity"},
                "budget": {**budget, "p_error": P_ERROR},
            }, points=150, qubit_counts=(6,)),
            Step("kernels-fidelity-sampled", "kernels_s", "kernels", {
                "dataset": _dataset(paths[300]), "feature_map": _feature_map(6),
                "kernel": {"family": "fidelity"},
                "sampling": {"n_shots": N_SHOTS, "p_error": P_ERROR},
            }, points=300, qubit_counts=(6,)),
            Step("exact-ca-grid", "exact_bounds_s"),
        ]
    elif name == "size-sweep":
        wide = _dataset(paths[200])
        ds = _dataset(paths[100])
        sweep = {"n_values": SWEEP_N, "include_budgets": True, "extrapolate_to": [20, 30]}
        steps = [
            Step("kernels-fidelity-exact", "kernels_s", "kernels", {
                "dataset": wide, "feature_map": _feature_map(14),
                "kernel": {"family": "fidelity"},
            }, threads=2, points=200, qubit_counts=(14,)),
            Step("kernels-projected-sampled", "kernels_s", "kernels", {
                "dataset": wide, "feature_map": _feature_map(14),
                "kernel": {"family": "projected", "gamma": 1.0},
                "sampling": {"n_shots": N_SHOTS, "p_error": P_ERROR},
            }, threads=2, points=200, qubit_counts=(14,)),
            Step("sweep-projected", "sweep_s", "sweep", {
                "dataset": ds, "feature_map": _feature_map(),
                "kernel": {"family": "projected", "gamma": 1.0}, "sweep": sweep,
            }, points=100, qubit_counts=tuple(SWEEP_N)),
            Step("sweep-fidelity", "sweep_s", "sweep", {
                "dataset": ds, "feature_map": _feature_map(),
                "kernel": {"family": "fidelity"}, "sweep": sweep,
            }, points=100, qubit_counts=tuple(SWEEP_N)),
            Step("characterize", "characterize_s", "characterize", {
                "dataset": ds, "feature_map": _feature_map(),
                "characterize": {"n_values": SWEEP_N},
            }, points=100, qubit_counts=tuple(SWEEP_N)),
            Step("resources", None, "resources", {
                "feature_map": _feature_map(), "kernel": {"family": "fidelity"},
                "resources": {
                    "m": 100, "shots_per_estimate": N_SHOTS, "n_values": RESOURCE_N,
                    "corrected": True, "error_budget": P_ERROR,
                    "classical": {"c0": 1.0e7},
                },
            }),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")

    for step in steps:
        if step.command is not None:
            step.config["qubit_cap"] = 14
            # JSON is a subset of YAML, so the CLI reads this file as is
            step.config_path = work_dir / f"{step.name}.yaml"
            step.config_path.write_text(json.dumps(step.config, indent=1), encoding="utf-8")
    return Workload(name, steps), data
