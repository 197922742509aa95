"""Reference artifacts of every CLI command, for ``tests/test_reference.py``.

Each case is one command on one config, small enough (m <= 40, n <= 4) to
rerun in tier-1. Its artifacts live in ``tests/reference/<case>/``. Rerun
this script only when an output changes on purpose, and say in CHANGES.md
which fields moved and by how much:

    PYTHONPATH=src python tests/reference/regenerate.py

Configs that read a dataset file name it relative to this directory, and
every case runs with this directory as the working directory, so the
config written into the provenance does not depend on the checkout.
"""

from __future__ import annotations

import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent

FEATURE_MAP = {"n_qubits": 3, "repetitions": 2, "entanglement": "full"}
FIDELITY = {"family": "fidelity"}
PROJECTED = {"family": "projected", "gamma": 0.5}


def _twonorm(m: int, kernel: dict, **sections) -> dict:
    return {
        "seed": 7,
        "dataset": {"type": "twonorm", "m": m, "n_features": 6},
        "feature_map": FEATURE_MAP,
        "kernel": kernel,
        **sections,
    }


def _repeated(kernel: dict, **sections) -> dict:
    """``repeated.csv``: the two features of largest variance repeat across
    rows, so the Gram matrix gathers from fewer distinct embeddings."""
    return {
        "seed": 7,
        "dataset": {"type": "csv", "path": "repeated.csv", "label_column": "label"},
        "feature_map": {"n_qubits": 2, "repetitions": 2, "entanglement": "linear"},
        "kernel": kernel,
        **sections,
    }


def _sampling(p_error: float) -> dict:
    return {"n_shots": 64, "p_error": p_error, "seed": 3}


# the noiseless budgets take every default of the budget section
NOISY_BUDGET = {"p_error": 0.01}
SIZES = [2, 3, 4]

# case name -> (command, config)
CASES = {
    "kernels-fidelity-exact": ("kernels", _twonorm(12, FIDELITY)),
    "kernels-projected-exact": ("kernels", _twonorm(12, PROJECTED)),
    "kernels-fidelity-sampled": ("kernels", _twonorm(12, FIDELITY, sampling=_sampling(0.0))),
    "kernels-fidelity-noisy": ("kernels", _twonorm(12, FIDELITY, sampling=_sampling(0.01))),
    "kernels-projected-sampled": ("kernels", _twonorm(12, PROJECTED, sampling=_sampling(0.0))),
    "kernels-projected-noisy": ("kernels", _twonorm(12, PROJECTED, sampling=_sampling(0.01))),
    "kernels-repeated-fidelity": ("kernels", _repeated(FIDELITY)),
    "kernels-repeated-projected-noisy": (
        "kernels", _repeated(PROJECTED, sampling=_sampling(0.01))),
    "estimate-shots-fidelity": ("estimate-shots", _twonorm(6, FIDELITY)),
    "estimate-shots-fidelity-noisy": (
        "estimate-shots", _twonorm(6, FIDELITY, budget=NOISY_BUDGET)),
    "estimate-shots-projected": ("estimate-shots", _twonorm(6, PROJECTED)),
    "estimate-shots-projected-noisy": (
        "estimate-shots", _twonorm(6, PROJECTED, budget=NOISY_BUDGET)),
    "sweep-fidelity": ("sweep", _twonorm(
        40, FIDELITY, sweep={"n_values": SIZES, "extrapolate_to": [6]})),
    "sweep-projected": ("sweep", _twonorm(
        40, PROJECTED, budget=NOISY_BUDGET, sweep={"n_values": SIZES, "extrapolate_to": [6]})),
    "characterize": ("characterize", _twonorm(40, FIDELITY, characterize={"n_values": SIZES})),
    "resources": ("resources", {
        "kernel": PROJECTED,
        "feature_map": FEATURE_MAP,
        "resources": {"m": 40, "shots_per_estimate": 1000, "n_values": [2, 4, 8, 16],
                      "corrected": True, "error_budget": 0.01, "classical": {}},
    }),
}


@contextmanager
def _here():
    """Run with this directory as the working directory."""
    previous = os.getcwd()
    os.chdir(HERE)
    try:
        yield
    finally:
        os.chdir(previous)


def run_case(name: str, out_dir: Path, scratch: Path) -> int:
    """Run case ``name`` through ``cli.main``, its artifacts into
    ``out_dir`` and its config file into ``scratch``; returns the exit
    code."""
    from qkshots.cli import main

    command, config = CASES[name]
    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / f"{name}.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    with _here():
        return main([command, "--config", str(path), "--out", str(out_dir)])


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for name in CASES:
            out_dir = HERE / name
            shutil.rmtree(out_dir, ignore_errors=True)
            if run_case(name, out_dir, Path(scratch)) != 0:
                print(f"case {name} failed", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
