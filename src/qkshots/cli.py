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

Every JSON artifact embeds the config as written and the tool version;
``gram.csv`` comes with its ``.meta.json``, a series CSV with its fits JSON.
All randomness flows from one top-level seed: stream k of a run uses
SeedSequence(entropy=seed, spawn_key=(k,)), with stream 0 for dataset
synthesis, 1 for stratification and 2 for shot sampling.

``_KEYS`` lists every config key with its cast and default. A section must
be a mapping when present; an absent or null section, like an absent or
null key, takes its defaults. A ``sampling`` section that is present, even
empty, makes ``kernels`` sample, and a ``resources.classical`` section
turns on the classical baseline. Every section may appear in the config of
every command, and every value present goes through its key's cast before
any work. Integer keys refuse booleans and fractional floats; seeds (>= 0),
extrapolation targets and ``qubit_cap`` (>= 1) carry their bound in the
cast, and each ``n_values`` list is sorted and refused when empty or
repeated; float keys refuse NaN and infinities. Other range checks, such as
eps > 0, stay with the commands that read the key. ``--seed`` takes
the seed cast and ``--threads`` must be at least 1. ``--out`` names the
output directory; without it, ``out_dir`` does.

``qubit_cap`` (default 14) is the only qubit limit; the library has none.
``kernels`` and ``estimate-shots`` check ``feature_map.n_qubits`` against
it, and ``sweep`` and ``characterize`` every size of their ``n_values``,
before any embedding. ``resources`` simulates nothing and is not capped.

Exit codes: 0 on success. 2 for configuration problems: a bad command or
flag (the message names it), an unreadable or malformed config, a key the
table does not know (the message names the closest known key), a missing
key or a value of the wrong type, and every parameter the library refuses
with a ConfigurationError (eps <= 0 or too small for a finite spread
bound, a probability outside its range, an odd twonorm m or subset size,
fewer than 2 points or no features, sampling past 2**63 - 1 shots, more
qubits than features), an empty or repeated list of sizes, and a qubit
count past qubit_cap.
1 for failures that come from the data or the files, such as an unreadable
or malformed CSV, a zero IQR or a zero kernel entry. Either way the error
is one JSON object on stderr; ``--help`` and ``--version`` exit 0.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import json
import math
import sys
import warnings
from dataclasses import MISSING, asdict, fields, replace
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
from .feature_map import ENTANGLEMENT_STRATEGIES, LINEAR, FeatureMapConfig
from .kernels import (
    FIDELITY,
    KERNEL_FAMILIES,
    PROJECTED,
    check_gamma,
    gram_matrix,
    kernel_statistics,
)
from .measurement import sample_gram
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
from .shot_bounds import check_ensemble_iqr, dataset_budget, entry_budgets, error_budget
from .statevector import ConfigurationError


_REQUIRED = object()  # the key has no default: a command that reads it needs it
_PER_RUN = object()  # the default depends on the run, and the caller passes it
# libyaml's scanner and parser, when PyYAML was built with it, under the same
# Python constructor and resolver, so configs resolve alike either way
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _integer(value) -> int:
    """``int(value)``, refusing the booleans and the fractional floats that
    ``int`` would silently truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and int(value) != value):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _at_least(low: int):
    """An integer cast that refuses values below ``low``."""
    def cast(value) -> int:
        value = _integer(value)
        if value < low:
            raise ValueError(f"expected an integer >= {low}, got {value}")
        return value
    return cast


def _finite(value) -> float:
    """A float cast that refuses NaN and +-inf."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")
    return value


def _ints(item=_integer):
    """A cast to a YAML list of integers, each through ``item``; a string
    or a mapping is refused, not iterated."""
    def cast(values) -> list[int]:
        if not isinstance(values, list):
            raise TypeError(f"expected a list of integers, got {values!r}")
        return [item(n) for n in values]
    return cast


def _sizes(values) -> list[int]:
    """A list of qubit counts, sorted; refused unless non-empty and distinct."""
    return check_qubit_counts(sorted(_ints()(values)))


def _flag(value) -> bool:
    """A YAML boolean; a string such as "false" is refused, not read as
    a true value."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _choice(*options):
    """A cast that passes one of ``options`` and refuses anything else."""
    def cast(value):
        if value not in options:
            raise ValueError(f"must be one of {options}, got {value!r}")
        return value
    return cast


_SEED = _at_least(0)  # seeds are SeedSequence entropy, never negative
_PROFILES = {"resources.hardware": HardwareProfile, "resources.classical": ClassicalProfile}

# Every config key: dotted name -> (cast, default). The profile dataclasses
# own their keys and defaults; the classical alpha has none, since it
# depends on the kernel family. YAML 1.1 reads exponent literals without a
# sign ("1e7") as strings, which ``_finite`` reads as numbers.
_KEYS = {
    "seed": (_SEED, 0),
    "out_dir": (_text, "."),
    "qubit_cap": (_at_least(1), 14),
    "dataset.type": (_choice("twonorm", "random_angles", "csv"), _REQUIRED),
    "dataset.m": (_integer, _REQUIRED),
    "dataset.n_features": (_integer, _PER_RUN),
    "dataset.path": (_text, _REQUIRED),
    "dataset.label_column": (_text, _REQUIRED),
    "dataset.preprocess": (_flag, _PER_RUN),
    "dataset.seed": (_SEED, _PER_RUN),
    "dataset.subset_size": (_integer, None),
    "dataset.subset_index": (_integer, 0),
    "dataset.stratify_seed": (_SEED, _PER_RUN),
    "feature_map.n_qubits": (_integer, _REQUIRED),
    "feature_map.repetitions": (_integer, 1),
    "feature_map.entanglement": (_choice(*ENTANGLEMENT_STRATEGIES), LINEAR),
    "kernel.family": (_choice(*KERNEL_FAMILIES), FIDELITY),
    "kernel.gamma": (_finite, 1.0),
    "sampling.n_shots": (_integer, _REQUIRED),
    "sampling.p_error": (_finite, 0.0),
    "sampling.seed": (_SEED, _PER_RUN),
    "budget.eps": (_finite, 1.0),
    "budget.p_spread": (_finite, 0.9),
    "budget.p_ca": (_finite, 0.99),
    "budget.p_error": (_finite, 0.0),
    "sweep.n_values": (_sizes, _REQUIRED),
    "sweep.extrapolate_to": (_ints(_at_least(1)), ()),
    "sweep.include_budgets": (_flag, True),
    "characterize.n_values": (_sizes, _REQUIRED),
    "resources.m": (_integer, _REQUIRED),
    "resources.shots_per_estimate": (_integer, _REQUIRED),
    "resources.n_values": (_sizes, _REQUIRED),
    "resources.corrected": (_flag, False),
    "resources.error_budget": (_finite, None),
    **{
        f"{section}.{f.name}": (_finite, _PER_RUN if f.default is MISSING else f.default)
        for section, cls in _PROFILES.items()
        for f in fields(cls)
    },
}
_SECTIONS = {key[:i] for key in _KEYS for i, char in enumerate(key) if char == "."}


def _cast(key: str, value, cast=None):
    """``value`` through ``cast``, by default the table's cast for ``key``;
    a value the cast refuses raises a ConfigurationError naming ``key``."""
    try:
        return (cast or _KEYS[key][0])(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{key}: {exc}") from None


def _check_keys(config: dict, prefix: str = "") -> None:
    """Refuse a key the table does not know, naming the closest known key,
    a section that is neither a mapping nor null, and a value that its
    key's cast refuses, whether or not the command reads it."""
    for name, value in config.items():
        key = f"{prefix}{name}"
        if key in _SECTIONS:
            if value is not None and not isinstance(value, dict):
                raise ConfigurationError(f"config section {key!r} must be a mapping")
            _check_keys(value or {}, key + ".")
        elif key not in _KEYS:
            closest = difflib.get_close_matches(key, [*_KEYS, *_SECTIONS], n=1, cutoff=0)
            raise ConfigurationError(
                f"unknown config key {key!r}; the closest known key is {closest[0]!r}"
            )
        elif value is not None:
            _cast(key, value)


def _lookup(config: dict, key: str):
    """The value of the dotted ``key`` as written; None when it, or a
    section above it, is absent or null."""
    value = config
    for part in key.split("."):
        value = (value or {}).get(part)
    return value


def _field(config: dict, key: str, run_default=_REQUIRED):
    """The value of the dotted ``key`` through the table's cast; an absent
    or null key gives the table's default, or ``run_default`` where the
    default depends on the run. A missing required key, or a value that the
    cast refuses, raises a ConfigurationError naming ``key``."""
    value = _lookup(config, key)
    if value is None:
        default = _KEYS[key][1]
        if default is _PER_RUN:
            default = run_default
        if default is _REQUIRED:
            raise ConfigurationError(f"{key} is required")
        return default
    return _cast(key, value)


def _profile(config: dict, section: str, run_default=_REQUIRED):
    cls = _PROFILES[section]
    values = {f.name: _field(config, f"{section}.{f.name}", run_default) for f in fields(cls)}
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{section}: {exc}") from None


def _derived_seed(seed: int, stream: int) -> int:
    return int(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,)).generate_state(1)[0]
    )


def _resolve_dataset(config: dict, seed: int) -> Dataset:
    kind = _field(config, "dataset.type")
    ds_seed = _field(config, "dataset.seed", _derived_seed(seed, 0))
    if kind == "twonorm":
        dataset = generate_twonorm(
            m=_field(config, "dataset.m"),
            n_features=_field(config, "dataset.n_features", 20),
            seed=ds_seed,
        )
        do_preprocess = _field(config, "dataset.preprocess", True)
    elif kind == "random_angles":
        dataset = generate_random_angles(
            m=_field(config, "dataset.m"),
            n_features=_field(config, "dataset.n_features"),
            seed=ds_seed,
        )
        do_preprocess = _field(config, "dataset.preprocess", False)
    else:
        dataset = load_csv(
            _field(config, "dataset.path"),
            label_column=_field(config, "dataset.label_column"),
        )
        do_preprocess = _field(config, "dataset.preprocess", True)
    if do_preprocess:
        dataset = preprocess(dataset)
    subset_size = _field(config, "dataset.subset_size")
    if subset_size is not None:
        subsets = stratify(
            dataset,
            subset_size=subset_size,
            seed=_field(config, "dataset.stratify_seed", _derived_seed(seed, 1)),
        )
        index = _field(config, "dataset.subset_index")
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
    entanglement = _field(config, "feature_map.entanglement")
    if n_qubits is None:
        n_qubits = _field(config, "feature_map.n_qubits")
    return FeatureMapConfig(
        n_qubits=n_qubits,
        repetitions=_field(config, "feature_map.repetitions"),
        entanglement=entanglement,
    )


def _resolve_kernel(config: dict) -> tuple[str, float]:
    family = _field(config, "kernel.family")
    gamma = _field(config, "kernel.gamma")
    if family == PROJECTED:
        check_gamma(gamma, "kernel.gamma")
    return family, gamma


def _check_qubit_cap(config: dict, key: str, n_values) -> None:
    """Refuse a qubit count of ``key`` past ``qubit_cap``, before any
    embedding; the library itself has no qubit limit."""
    cap, largest = _field(config, "qubit_cap"), max(n_values)
    if largest > cap:
        raise ConfigurationError(f"{key}: {largest} exceeds qubit_cap = {cap}")


def _resolve_gram(config: dict, seed: int) -> tuple[Dataset, FeatureMapConfig, dict]:
    """The feature subset, the feature map, and the family and gamma
    keywords of a command on one feature map. Sections resolve in the order
    dataset, kernel, feature map, then the features and the cap check, so
    the first error of a config is the one reported."""
    dataset = _resolve_dataset(config, seed)
    family, gamma = _resolve_kernel(config)
    fmap = _resolve_feature_map(config)
    subset = select_features(dataset, fmap.n_qubits)
    _check_qubit_cap(config, "feature_map.n_qubits", [fmap.n_qubits])
    return subset, fmap, {"family": family, "gamma": gamma}


def _resolve_budget(config: dict) -> dict:
    """Keyword arguments eps, p_spread, p_ca and p_error of the budget
    section."""
    return {
        "eps": _field(config, "budget.eps"),
        "p_spread": _field(config, "budget.p_spread"),
        "p_ca": _field(config, "budget.p_ca"),
        "p_error": _field(config, "budget.p_error"),
    }


def _write_series(out_dir: Path, names: tuple[str, str], series_map: dict[str, ScalingSeries],
                  targets: list[int], prov: dict) -> list[Path]:
    """Write the series CSV and the fits JSON, named by ``names``. A series
    that :func:`fit_exponential` refuses records why under "skipped"; a
    valid fit is extrapolated to every target, and a target below the
    largest fitted size is warned about once."""
    series_path = write_series_csv(out_dir / names[0], series_map.values())
    fits, largest = {}, 0
    for name, series in series_map.items():
        try:
            fit = series.fit()
        except ValueError as exc:
            fits[name] = {"skipped": str(exc)}
            continue
        fits[name] = asdict(fit)
        if fit.valid and targets:
            largest = max(largest, int(series.qubit_counts.max()))
            fits[name]["extrapolations"] = {str(n): extrapolate(fit, n) for n in targets}
    for target in dict.fromkeys(targets):
        if target < largest:
            print(f"warning: extrapolation target n={target} lies below "
                  f"the largest fitted size n={largest}", file=sys.stderr)
    fits_path = write_json(out_dir / names[1], {"fits": fits, "provenance": prov})
    return [series_path, fits_path]


def cmd_kernels(config: dict, out_dir: Path, seed: int, threads: int) -> list[Path]:
    subset, fmap, kernel_args = _resolve_gram(config, seed)
    kernel = gram_matrix(subset.features, fmap, **kernel_args, threads=threads)
    if _lookup(config, "sampling") is not None:
        kernel = sample_gram(
            kernel,
            n_shots=_field(config, "sampling.n_shots"),
            p_error=_field(config, "sampling.p_error"),
            seed=_field(config, "sampling.seed", _derived_seed(seed, 2)),
        )
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
    # the dataset-level refusal comes first; the pair pass then serves both
    # budgets
    check_ensemble_iqr(stats.iqr)
    entries = entry_budgets(kernel, budget["eps"], stats.iqr, budget["p_spread"],
                            budget["p_ca"], budget["p_error"], threads)
    dataset_level = dataset_budget(kernel, **budget, entries=entries, statistics=stats)
    p_budget = error_budget(
        kernel.family, stats.median, budget["eps"], stats.iqr, n_qubits=fmap.n_qubits
    )
    payload = {
        "dataset_budget": asdict(dataset_level),
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
    n_values = _field(config, "sweep.n_values")
    _check_qubit_cap(config, "sweep.n_values", n_values)
    series_map = sweep(
        dataset,
        family=family,
        repetitions=shape.repetitions,
        entanglement=shape.entanglement,
        n_values=n_values,
        gamma=gamma,
        **_resolve_budget(config),
        include_budgets=_field(config, "sweep.include_budgets"),
        threads=threads,
    )
    return _write_series(
        out_dir, ("series.csv", "fits.json"), series_map, _field(config, "sweep.extrapolate_to"),
        provenance("sweep", config, seed),
    )


def cmd_resources(config: dict, out_dir: Path, seed: int, threads: int) -> list[Path]:
    family, _ = _resolve_kernel(config)
    shape = _resolve_feature_map(config, n_qubits=1)
    m = _field(config, "resources.m")
    shots = _field(config, "resources.shots_per_estimate")
    n_values = _field(config, "resources.n_values")
    corrected = _field(config, "resources.corrected")
    budget = _field(config, "resources.error_budget")
    hardware = _profile(config, "resources.hardware")
    profile = None
    if _lookup(config, "resources.classical") is not None:
        profile = _profile(config, "resources.classical", CLASSICAL_ALPHA_DEFAULTS[family])

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
    n_values = _field(config, "characterize.n_values")
    _check_qubit_cap(config, "characterize.n_values", n_values)
    # every size is checked against the features before any embedding
    subsets = [select_features(dataset, n) for n in n_values]
    rows = [embedding_diagnostics(subset.features, replace(shape, n_qubits=n), threads=threads)
            for n, subset in zip(n_values, subsets)]
    series = {name: ScalingSeries(name, n_values, values)
              for name, values in zip(("expressibility", "relative_entropy"), np.array(rows).T)}
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


class _Parser(argparse.ArgumentParser):
    """Parse errors raise a ConfigurationError: one JSON line, not usage."""

    def error(self, message: str):
        raise ConfigurationError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="qkshots",
        description="Quantum kernel shot budgets, scaling fits and resource estimates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="YAML config file")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--out", default=None,
                         help="output directory (default: the config's out_dir)")
        cmd.add_argument("--threads", type=int, default=1)
    return parser


def _emit_error(kind: str, message: str) -> None:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        with open(args.config, encoding="utf-8") as handle:
            config = yaml.load(handle, Loader=_YAML_LOADER)
        if not isinstance(config, dict):
            raise ConfigurationError("config must be a YAML mapping")
        _check_keys(config)
        seed = _field(config, "seed") if args.seed is None else _cast("--seed", args.seed, _SEED)
        threads = _cast("--threads", args.threads, _at_least(1))
        out_dir = Path(args.out if args.out is not None else _field(config, "out_dir"))
    except (OSError, yaml.YAMLError, ConfigurationError) as exc:
        _emit_error("configuration", str(exc))
        return 2
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            written = _COMMANDS[args.command](config, out_dir, seed, threads)
    except ConfigurationError as exc:
        _emit_error("configuration", str(exc))
        return 2
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
