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
section, like an absent or null key, takes its defaults.

Exit codes: 0 on success. 2 for configuration problems: an unreadable or
malformed config, a missing key or a value of the wrong type, and every
parameter the library refuses with a ConfigurationError (eps <= 0, a
probability outside its range, an odd twonorm m or subset size, fewer than
2 points, repeated sizes, more qubits than features or than qubit_cap).
1 for failures that come from the data or the files, such as an unreadable
or malformed CSV, a zero IQR or a zero kernel entry. Either way the error
is one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict, replace
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
from .scaling import ScalingSeries, check_qubit_counts, extrapolate, sweep
from .serialize import provenance, write_json, write_kernel_csv, write_series_csv
from .shot_bounds import dataset_budget, entry_budgets, error_budget
from .statevector import ConfigurationError


_REQUIRED = object()
# libyaml's scanner and parser, when PyYAML was built with it, under the same
# Python constructor and resolver, so configs resolve alike either way
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _field(section: dict, name: str, cast=None, default=_REQUIRED):
    """The value of the key that ends the dotted ``name``, passed through
    ``cast``; an absent or null key gives ``default``. A missing required
    key, or a value that ``cast`` rejects, raises a ConfigurationError
    naming ``name``."""
    value = section.get(name.rpartition(".")[2])
    if value is None:
        if default is _REQUIRED:
            raise ConfigurationError(f"{name} is required")
        return default
    if cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name}: {exc}") from None


def _ints(values) -> list[int]:
    return [int(n) for n in values]


def _flag(value) -> bool:
    """A YAML boolean; a string such as "false" is refused, not read as
    a true value."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


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
    kind = _field(section, "dataset.type")
    ds_seed = _field(section, "dataset.seed", int, _derived_seed(seed, 0))
    if kind == "twonorm":
        dataset = generate_twonorm(
            m=_field(section, "dataset.m", int),
            n_features=_field(section, "dataset.n_features", int, 20),
            seed=ds_seed,
        )
        do_preprocess = _field(section, "dataset.preprocess", _flag, True)
    elif kind == "random_angles":
        dataset = generate_random_angles(
            m=_field(section, "dataset.m", int),
            n_features=_field(section, "dataset.n_features", int),
            seed=ds_seed,
        )
        do_preprocess = _field(section, "dataset.preprocess", _flag, False)
    elif kind == "csv":
        dataset = load_csv(
            _field(section, "dataset.path"),
            label_column=_field(section, "dataset.label_column"),
        )
        do_preprocess = _field(section, "dataset.preprocess", _flag, True)
    else:
        raise ConfigurationError(
            f"dataset.type must be one of ('twonorm', 'random_angles', 'csv'), "
            f"got {kind!r}"
        )
    if do_preprocess:
        dataset = preprocess(dataset)
    subset_size = _field(section, "dataset.subset_size", int, None)
    if subset_size is not None:
        subsets = stratify(
            dataset,
            subset_size=subset_size,
            seed=_field(section, "dataset.stratify_seed", int, _derived_seed(seed, 1)),
        )
        index = _field(section, "dataset.subset_index", int, 0)
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
    if n_qubits is None:
        n_qubits = _field(section, "feature_map.n_qubits", int)
    return FeatureMapConfig(
        n_qubits=n_qubits,
        repetitions=_field(section, "feature_map.repetitions", int, 1),
        entanglement=entanglement,
    )


def _resolve_kernel(config: dict) -> tuple[str, float]:
    section = _section(config, "kernel")
    family = check_family(section.get("family", FIDELITY), "kernel.family")
    gamma = _field(section, "kernel.gamma", float, 1.0)
    if family == PROJECTED:
        check_gamma(gamma, "kernel.gamma")
    return family, gamma


def _resolve_gram(config: dict, seed: int) -> tuple[Dataset, FeatureMapConfig, dict]:
    """The feature subset, the feature map, and the family, gamma and cap
    keywords of a command on one feature map. Sections resolve in the order
    dataset, kernel, feature map, cap, so the first error of a config is
    the one reported."""
    dataset = _resolve_dataset(config, seed)
    family, gamma = _resolve_kernel(config)
    fmap = _resolve_feature_map(config)
    cap = _field(config, "qubit_cap", int, None)
    subset = select_features(dataset, fmap.n_qubits)
    return subset, fmap, {"family": family, "gamma": gamma, "cap": cap}


def _resolve_noise(section: dict, prefix: str) -> NoiseModel:
    return NoiseModel(p_error=_field(section, prefix + "p_error", float, 0.0))


def _resolve_budget(config: dict) -> dict:
    """Keyword arguments eps, p_spread, p_ca and noise of the budget
    section, with their defaults."""
    section = _section(config, "budget", required=False) or {}
    return {
        "eps": _field(section, "budget.eps", float, 1.0),
        "p_spread": _field(section, "budget.p_spread", float, 0.9),
        "p_ca": _field(section, "budget.p_ca", float, 0.99),
        "noise": _resolve_noise(section, "budget."),
    }


def _resolve_profile(res_cfg: dict, key: str, cls, defaults: dict):
    """The ``cls`` profile of the optional section ``resources.<key>``, its
    values over ``defaults``; None when the section is absent."""
    section = _section(res_cfg, key, required=False, prefix="resources.")
    if section is None:
        return None
    try:
        # YAML 1.1 reads exponent literals without a sign ("1e7") as strings;
        # profile fields are all numeric, so coerce them uniformly
        return cls(**{**defaults, **{k: float(v) for k, v in section.items()}})
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"resources.{key}: {exc}") from None


def _write_series(out_dir: Path, names: tuple[str, str], series_map: dict[str, ScalingSeries],
                  targets: list[int], prov: dict) -> list[Path]:
    """Write the series CSV and the fits JSON, named by ``names``. A series
    that :func:`fit_exponential` refuses records why under "skipped"; a
    valid fit is extrapolated to every target."""
    series_path = write_series_csv(out_dir / names[0], series_map.values())
    fits = {}
    for name, series in series_map.items():
        try:
            fit = series.fit()
        except ValueError as exc:
            fits[name] = {"skipped": str(exc)}
            continue
        fits[name] = asdict(fit)
        if not fit.valid:
            continue
        max_fitted = int(series.qubit_counts.max())
        for target in targets:
            if target < max_fitted:
                print(
                    f"warning: extrapolation target n={target} lies below "
                    f"the largest fitted size n={max_fitted}",
                    file=sys.stderr,
                )
            fits[name].setdefault("extrapolations", {})[str(target)] = extrapolate(fit, target)
    fits_path = write_json(out_dir / names[1], {"fits": fits, "provenance": prov})
    return [series_path, fits_path]


def cmd_kernels(config: dict, out_dir: Path, seed: int, threads: int) -> list[Path]:
    subset, fmap, kernel_args = _resolve_gram(config, seed)
    sampling = _section(config, "sampling", required=False)
    if sampling:
        kernel = sample_gram(
            subset.features,
            fmap,
            **kernel_args,
            n_shots=_field(sampling, "sampling.n_shots", int),
            noise=_resolve_noise(sampling, "sampling."),
            seed=_field(sampling, "sampling.seed", int, _derived_seed(seed, 2)),
            threads=threads,
        )
    else:
        kernel = gram_matrix(subset.features, fmap, **kernel_args, threads=threads)
    kernel.metadata.setdefault("dataset", subset.describe())
    csv_path, meta_path = write_kernel_csv(
        out_dir / "gram.csv",
        kernel,
        extra={"provenance": provenance("kernels", config, seed)},
    )
    return [csv_path, meta_path]


def cmd_estimate_shots(config: dict, out_dir: Path, seed: int, threads: int) -> list[Path]:
    subset, fmap, kernel_args = _resolve_gram(config, seed)
    budget = _resolve_budget(config)

    kernel = gram_matrix(subset.features, fmap, **kernel_args, threads=threads)
    stats = kernel_statistics(kernel)
    dataset_level = dataset_budget(kernel, **budget)
    entries = entry_budgets(
        kernel.family, kernel.values, budget["eps"], stats.iqr, budget["p_spread"],
        budget["p_ca"], budget["noise"].p_error,
        table=kernel.component_table, gamma=kernel_args["gamma"], n_qubits=fmap.n_qubits,
    )
    p_budget = error_budget(
        kernel.family, stats.median, budget["eps"], stats.iqr, n_qubits=fmap.n_qubits
    )
    payload = {
        "dataset_budget": dataset_level.to_dict(),
        "entries": entries,
        "error_budget": asdict(p_budget),
        "statistics": asdict(stats),
        "provenance": provenance("estimate-shots", config, seed),
    }
    return [write_json(out_dir / "shot_budgets.json", payload)]


def cmd_sweep(config: dict, out_dir: Path, seed: int, threads: int) -> list[Path]:
    dataset = _resolve_dataset(config, seed)
    family, gamma = _resolve_kernel(config)
    shape = _resolve_feature_map(config, n_qubits=1)
    sweep_cfg = _section(config, "sweep")
    series_map = sweep(
        dataset,
        family=family,
        repetitions=shape.repetitions,
        entanglement=shape.entanglement,
        n_values=_field(sweep_cfg, "sweep.n_values", _ints),
        gamma=gamma,
        **_resolve_budget(config),
        include_budgets=_field(sweep_cfg, "sweep.include_budgets", _flag, True),
        cap=_field(config, "qubit_cap", int, None),
        threads=threads,
    )
    targets = _field(sweep_cfg, "sweep.extrapolate_to", _ints, [])
    prov = provenance("sweep", config, seed)
    paths = _write_series(out_dir, ("series.csv", "fits.json"), series_map, targets, prov)
    meta_path = write_json(
        out_dir / "series.meta.json", {"series": sorted(series_map), "provenance": prov}
    )
    return [*paths, meta_path]


def cmd_resources(config: dict, out_dir: Path, seed: int, threads: int) -> list[Path]:
    family, _ = _resolve_kernel(config)
    shape = _resolve_feature_map(config, n_qubits=1)
    res_cfg = _section(config, "resources")
    m = _field(res_cfg, "resources.m", int)
    shots = _field(res_cfg, "resources.shots_per_estimate", int)
    n_values = _field(res_cfg, "resources.n_values", _ints)
    corrected = _field(res_cfg, "resources.corrected", _flag, False)
    budget = _field(res_cfg, "resources.error_budget", float, None)
    hardware = _resolve_profile(res_cfg, "hardware", HardwareProfile, {}) or HardwareProfile()
    profile = _resolve_profile(
        res_cfg, "classical", ClassicalProfile, {"alpha": CLASSICAL_ALPHA_DEFAULTS[family]}
    )

    quantum = [
        quantum_cost(
            shots, replace(shape, n_qubits=n), family, m, profile=hardware,
            corrected=corrected, error_budget=budget,
        )
        for n in n_values
    ]
    rows = [{"n": n, "quantum": asdict(cost)} for n, cost in zip(n_values, quantum)]
    payload: dict = {
        "family": family,
        "m": m,
        "shots_per_estimate": shots,
        "corrected": corrected,
        "scenarios": rows,
        "provenance": provenance("resources", config, seed),
    }
    if profile is not None:
        classical = [classical_cost(family, n, m, profile) for n in n_values]
        for row, cost in zip(rows, classical):
            row["classical"] = asdict(cost)
        payload["crossover_n"] = {
            "runtime": find_crossover(
                n_values, [q.runtime_s for q in quantum], [c.runtime_s for c in classical]
            ),
            "energy": find_crossover(
                n_values, [q.energy_j for q in quantum], [c.energy_j for c in classical]
            ),
        }
    return [write_json(out_dir / "resources.json", payload)]


def cmd_characterize(config: dict, out_dir: Path, seed: int, threads: int) -> list[Path]:
    dataset = _resolve_dataset(config, seed)
    shape = _resolve_feature_map(config, n_qubits=1)
    char_cfg = _section(config, "characterize")
    n_values = sorted(_field(char_cfg, "characterize.n_values", _ints))
    check_qubit_counts(n_values)
    cap = _field(config, "qubit_cap", int, None)
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
    series = {
        "expressibility": ScalingSeries("expressibility", n_values, expr, meta),
        "relative_entropy": ScalingSeries("relative_entropy", n_values, entropy, meta),
    }
    return _write_series(
        out_dir, ("characteristics.csv", "characteristics_fits.json"), series, [],
        provenance("characterize", config, seed),
    )


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
            config = yaml.load(handle, Loader=_YAML_LOADER)
        if not isinstance(config, dict):
            raise ConfigurationError("config must be a YAML mapping")
        seed = args.seed if args.seed is not None else _field(config, "seed", int, 0)
    except (OSError, yaml.YAMLError, ConfigurationError) as exc:
        _emit_error("configuration", str(exc))
        return 2
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
