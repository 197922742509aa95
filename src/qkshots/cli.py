"""Command-line surface: one YAML config in, CSV/JSON artifacts out.

Commands
--------
kernels         exact or finite-shot Gram matrix -> gram.csv (+ .meta.json)
estimate-shots  per-entry and dataset-level shot budgets -> shot_budgets.json
sweep           statistics vs qubit count, exponential fits, extrapolations
                -> series.csv, fits.json
resources       runtime/energy for quantum (ideal/corrected) and classical
                execution, with crossover -> resources.json
characterize    expressibility and relative-entropy series -> series CSV/fits

Every artifact embeds (directly or through its sidecar) the resolved
configuration and tool version. All randomness flows from one top-level
seed: stream k of a run uses SeedSequence(entropy=seed, spawn_key=(k,)),
with stream 0 for dataset synthesis, 1 for stratification and 2 for shot
sampling.

The optional sections (``budget``, ``sampling``, ``resources.hardware`` and
``resources.classical``) must be mappings when present; an absent or null
section takes its defaults.

Exit codes: 0 on success, 2 for configuration problems, 1 for any other
failure; errors are reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .characteristics import embedding_diagnostics
from .datasets import (
    Dataset,
    generate_random_angles,
    generate_twonorm,
    load_csv,
    preprocess,
    select_features,
    stratify,
)
from .feature_map import ENTANGLEMENT_STRATEGIES, FeatureMapConfig
from .kernels import (
    FIDELITY,
    PROJECTED,
    check_family,
    check_gamma,
    gram_matrix,
    kernel_statistics,
)
from .measurement import NoiseModel, sample_gram
from .resources import (
    CLASSICAL_ALPHA_DEFAULTS,
    ClassicalProfile,
    HardwareProfile,
    classical_cost,
    find_crossover,
    quantum_cost,
)
from .scaling import ScalingSeries, extrapolate, sweep
from .serialize import (
    fit_payload,
    provenance,
    write_json,
    write_kernel_csv,
    write_series_csv,
)
from .shot_bounds import dataset_budget, entry_budgets, error_budget
from .statevector import ConfigurationError


def _require(section: dict, key: str, context: str):
    if key not in section:
        raise ConfigurationError(f"{context}.{key} is required")
    return section[key]


def _section(config: dict, key: str, required: bool = True, prefix: str = "") -> dict | None:
    """The mapping at ``config[key]``; an optional section that is absent
    or null gives None. ``prefix`` names the parent section in messages."""
    value = config.get(key)
    if value is None:
        if required:
            raise ConfigurationError(f"config section {prefix + key!r} is required")
        return None
    if not isinstance(value, dict):
        raise ConfigurationError(f"config section {prefix + key!r} must be a mapping")
    return value


def _derived_seed(seed: int, stream: int) -> int:
    return int(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,)).generate_state(1)[0]
    )


def _resolve_dataset(config: dict, seed: int) -> Dataset:
    section = _section(config, "dataset")
    kind = _require(section, "type", "dataset")
    ds_seed = int(section.get("seed", _derived_seed(seed, 0)))
    if kind == "twonorm":
        dataset = generate_twonorm(
            m=int(_require(section, "m", "dataset")),
            n_features=int(section.get("n_features", 20)),
            seed=ds_seed,
        )
        do_preprocess = section.get("preprocess", True)
    elif kind == "random_angles":
        dataset = generate_random_angles(
            m=int(_require(section, "m", "dataset")),
            n_features=int(_require(section, "n_features", "dataset")),
            seed=ds_seed,
        )
        do_preprocess = section.get("preprocess", False)
    elif kind == "csv":
        dataset = load_csv(
            _require(section, "path", "dataset"),
            label_column=_require(section, "label_column", "dataset"),
        )
        do_preprocess = section.get("preprocess", True)
    else:
        raise ConfigurationError(
            f"dataset.type must be one of ('twonorm', 'random_angles', 'csv'), "
            f"got {kind!r}"
        )
    if do_preprocess:
        dataset = preprocess(dataset)
    if "subset_size" in section:
        subsets = stratify(
            dataset,
            subset_size=int(section["subset_size"]),
            seed=int(section.get("stratify_seed", _derived_seed(seed, 1))),
        )
        index = int(section.get("subset_index", 0))
        if not 0 <= index < len(subsets):
            raise ConfigurationError(
                f"dataset.subset_index must be in [0, {len(subsets) - 1}], "
                f"got {index}"
            )
        dataset = subsets[index]
    return dataset


def _resolve_feature_map(config: dict, n_qubits: int | None = None) -> FeatureMapConfig:
    """The feature map of the config; ``n_qubits`` overrides the section's.
    Commands that set n per point pass 1 to resolve the rest of it."""
    section = _section(config, "feature_map")
    entanglement = section.get("entanglement", "linear")
    if entanglement not in ENTANGLEMENT_STRATEGIES:
        raise ConfigurationError(
            f"feature_map.entanglement must be one of "
            f"{ENTANGLEMENT_STRATEGIES}, got {entanglement!r}"
        )
    n = n_qubits if n_qubits is not None else int(_require(section, "n_qubits", "feature_map"))
    return FeatureMapConfig(
        n_qubits=n,
        repetitions=int(section.get("repetitions", 1)),
        entanglement=entanglement,
    )


def _resolve_kernel(config: dict) -> tuple[str, float]:
    section = _section(config, "kernel")
    family = check_family(section.get("family", FIDELITY), "kernel.family")
    gamma = float(section.get("gamma", 1.0))
    if family == PROJECTED:
        check_gamma(gamma, "kernel.gamma")
    return family, gamma


def _resolve_noise(section: dict) -> NoiseModel:
    return NoiseModel(p_error=float(section.get("p_error", 0.0)))


def _resolve_budget(config: dict) -> dict:
    """Keyword arguments eps, p_spread, p_ca and noise of the budget
    section, with their defaults."""
    section = _section(config, "budget", required=False) or {}
    return {
        "eps": float(section.get("eps", 1.0)),
        "p_spread": float(section.get("p_spread", 0.9)),
        "p_ca": float(section.get("p_ca", 0.99)),
        "noise": _resolve_noise(section),
    }


def _resolve_cap(config: dict) -> int | None:
    cap = config.get("qubit_cap")
    return int(cap) if cap is not None else None


def _float_values(section: dict) -> dict:
    # YAML 1.1 reads exponent literals without a sign ("1e7") as strings;
    # profile fields are all numeric, so coerce them uniformly
    return {key: float(value) for key, value in section.items()}


def cmd_kernels(config: dict, out_dir: Path, seed: int, threads: int) -> list[Path]:
    dataset = _resolve_dataset(config, seed)
    family, gamma = _resolve_kernel(config)
    fmap = _resolve_feature_map(config)
    cap = _resolve_cap(config)
    subset = select_features(dataset, fmap.n_qubits)
    sampling = _section(config, "sampling", required=False)
    if sampling:
        kernel = sample_gram(
            subset.features,
            fmap,
            family=family,
            gamma=gamma,
            n_shots=int(_require(sampling, "n_shots", "sampling")),
            noise=_resolve_noise(sampling),
            seed=int(sampling.get("seed", _derived_seed(seed, 2))),
            cap=cap,
            threads=threads,
        )
    else:
        kernel = gram_matrix(
            subset.features, fmap, family=family, gamma=gamma, cap=cap,
            threads=threads,
        )
    kernel.metadata.setdefault("dataset", subset.describe())
    csv_path, meta_path = write_kernel_csv(
        out_dir / "gram.csv",
        kernel,
        extra={"provenance": provenance("kernels", config, seed)},
    )
    return [csv_path, meta_path]


def cmd_estimate_shots(config: dict, out_dir: Path, seed: int, threads: int) -> list[Path]:
    dataset = _resolve_dataset(config, seed)
    family, gamma = _resolve_kernel(config)
    fmap = _resolve_feature_map(config)
    cap = _resolve_cap(config)
    subset = select_features(dataset, fmap.n_qubits)
    budget = _resolve_budget(config)

    kernel = gram_matrix(
        subset.features, fmap, family=family, gamma=gamma, cap=cap,
        threads=threads,
    )
    stats = kernel_statistics(kernel)
    dataset_level = dataset_budget(kernel, **budget)
    entries = entry_budgets(
        family, kernel.values, budget["eps"], stats.iqr, budget["p_spread"],
        budget["p_ca"], budget["noise"].p_error,
        table=kernel.component_table, gamma=gamma, n_qubits=fmap.n_qubits,
    )

    p_budget = error_budget(
        family, stats.median, budget["eps"], stats.iqr, n_qubits=fmap.n_qubits
    )
    payload = {
        "dataset_budget": dataset_level.to_dict(),
        "entries": entries,
        "error_budget": {
            "p_max": p_budget.p_max,
            "unconstrained": p_budget.unconstrained,
        },
        "statistics": {
            "mean": stats.mean,
            "std": stats.std,
            "median": stats.median,
            "iqr": stats.iqr,
            "log_mean": stats.log_mean,
        },
        "provenance": provenance("estimate-shots", config, seed),
    }
    return [write_json(out_dir / "shot_budgets.json", payload)]


def _fits_for_series(series_map: dict[str, ScalingSeries], targets) -> dict:
    fits = {}
    for name, series in series_map.items():
        if np.any(series.values <= 0) or not np.all(np.isfinite(series.values)):
            fits[name] = {"skipped": "series has non-positive or non-finite values"}
            continue
        if series.values.size < 4:
            fits[name] = {"skipped": "fewer than 4 points"}
            continue
        fit = series.fit()
        extrapolations = {}
        if fit.valid:
            max_fitted = int(series.qubit_counts.max())
            for target in targets:
                if target < max_fitted:
                    print(
                        f"warning: extrapolation target n={target} lies below "
                        f"the largest fitted size n={max_fitted}",
                        file=sys.stderr,
                    )
                extrapolations[int(target)] = extrapolate(fit, int(target))
        fits[name] = fit_payload(fit, extrapolations)
    return fits


def cmd_sweep(config: dict, out_dir: Path, seed: int, threads: int) -> list[Path]:
    dataset = _resolve_dataset(config, seed)
    family, gamma = _resolve_kernel(config)
    shape = _resolve_feature_map(config, n_qubits=1)
    sweep_cfg = _section(config, "sweep")
    n_values = [int(n) for n in _require(sweep_cfg, "n_values", "sweep")]
    series_map = sweep(
        dataset,
        family=family,
        repetitions=shape.repetitions,
        entanglement=shape.entanglement,
        n_values=n_values,
        gamma=gamma,
        **_resolve_budget(config),
        include_budgets=bool(sweep_cfg.get("include_budgets", True)),
        cap=_resolve_cap(config),
        threads=threads,
    )
    series_path = write_series_csv(out_dir / "series.csv", series_map.values())
    targets = [int(n) for n in sweep_cfg.get("extrapolate_to", [])]
    fits = _fits_for_series(series_map, targets)
    fits_path = write_json(
        out_dir / "fits.json",
        {"fits": fits, "provenance": provenance("sweep", config, seed)},
    )
    write_json(
        out_dir / "series.meta.json",
        {
            "series": sorted(series_map),
            "provenance": provenance("sweep", config, seed),
        },
    )
    return [series_path, fits_path, out_dir / "series.meta.json"]


def cmd_resources(config: dict, out_dir: Path, seed: int, threads: int) -> list[Path]:
    family, _ = _resolve_kernel(config)
    shape = _resolve_feature_map(config, n_qubits=1)
    res_cfg = _section(config, "resources")
    m = int(_require(res_cfg, "m", "resources"))
    shots = int(_require(res_cfg, "shots_per_estimate", "resources"))
    n_values = [int(n) for n in _require(res_cfg, "n_values", "resources")]
    corrected = bool(res_cfg.get("corrected", False))
    budget = res_cfg.get("error_budget")
    hardware_section = _section(res_cfg, "hardware", required=False, prefix="resources.")
    try:
        hardware = HardwareProfile(**_float_values(hardware_section or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"resources.hardware: {exc}") from None
    classical_section = _section(res_cfg, "classical", required=False, prefix="resources.")
    classical_profile = None
    if classical_section is not None:
        try:
            params = _float_values(classical_section)
            params.setdefault("alpha", CLASSICAL_ALPHA_DEFAULTS[family])
            classical_profile = ClassicalProfile(**params)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"resources.classical: {exc}") from None

    rows = []
    for n in n_values:
        cost = quantum_cost(
            shots, replace(shape, n_qubits=n), family, m, profile=hardware,
            corrected=corrected,
            error_budget=float(budget) if budget is not None else None,
        )
        row = {"n": n, "quantum": cost.to_dict()}
        if classical_profile is not None:
            row["classical"] = classical_cost(family, n, m, classical_profile).to_dict()
        rows.append(row)
    payload: dict = {
        "family": family,
        "m": m,
        "shots_per_estimate": shots,
        "corrected": corrected,
        "scenarios": rows,
        "provenance": provenance("resources", config, seed),
    }
    if classical_profile is not None:
        payload["crossover_n"] = {
            "runtime": find_crossover(
                n_values,
                [r["quantum"]["runtime_s"] for r in rows],
                [r["classical"]["runtime_s"] for r in rows],
            ),
            "energy": find_crossover(
                n_values,
                [r["quantum"]["energy_j"] for r in rows],
                [r["classical"]["energy_j"] for r in rows],
            ),
        }
    return [write_json(out_dir / "resources.json", payload)]


def cmd_characterize(config: dict, out_dir: Path, seed: int, threads: int) -> list[Path]:
    dataset = _resolve_dataset(config, seed)
    shape = _resolve_feature_map(config, n_qubits=1)
    char_cfg = _section(config, "characterize")
    n_values = sorted(int(n) for n in _require(char_cfg, "n_values", "characterize"))
    cap = _resolve_cap(config)
    expr, entropy = [], []
    for n in n_values:
        subset = select_features(dataset, n)
        expressive, entangled = embedding_diagnostics(
            subset.features, replace(shape, n_qubits=n), cap=cap, threads=threads
        )
        expr.append(expressive)
        entropy.append(entangled)
    meta = {
        "dataset_id": dataset.dataset_id,
        "repetitions": shape.repetitions,
        "entanglement": shape.entanglement,
    }
    series = [
        ScalingSeries("expressibility", np.array(n_values), np.array(expr), meta),
        ScalingSeries("relative_entropy", np.array(n_values), np.array(entropy), meta),
    ]
    series_path = write_series_csv(out_dir / "characteristics.csv", series)
    fits = _fits_for_series({s.statistic: s for s in series}, [])
    fits_path = write_json(
        out_dir / "characteristics_fits.json",
        {"fits": fits, "provenance": provenance("characterize", config, seed)},
    )
    return [series_path, fits_path]


_COMMANDS = {
    "kernels": cmd_kernels,
    "estimate-shots": cmd_estimate_shots,
    "sweep": cmd_sweep,
    "resources": cmd_resources,
    "characterize": cmd_characterize,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkshots",
        description="Quantum kernel shot budgets, scaling fits and resource estimates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="YAML config file")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--threads", type=int, default=1)
    return parser


def _emit_error(kind: str, message: str) -> None:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as handle:
            config = yaml.safe_load(handle)
        if not isinstance(config, dict):
            raise ConfigurationError("config must be a YAML mapping")
    except (OSError, yaml.YAMLError, ConfigurationError) as exc:
        _emit_error("configuration", str(exc))
        return 2
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out_dir = Path(args.out if args.out != "." else config.get("out_dir", "."))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            written = _COMMANDS[args.command](config, out_dir, seed, args.threads)
    except ConfigurationError as exc:
        _emit_error("configuration", str(exc))
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    except OSError as exc:
        _emit_error("io", str(exc))
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
