"""File formats: kernel matrices as CSV with a JSON metadata sidecar,
scaling series as long-format CSV, budgets and fits as JSON.

All JSON is written UTF-8 with sorted keys and an indent of 2; every file
(or its sidecar) embeds a provenance block with the tool version and the
configuration, as written, that produced it. Per-entry shot budgets are
streamed straight from their arrays, in the bytes ``json.dump`` would
give their ``EntryBudgets.entries()`` records.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .feature_map import FeatureMapConfig
from .kernels import KernelMatrix
from .scaling import ScalingSeries
from .shot_bounds import CONCENTRATION_AVOIDANCE, SPREAD, EntryBudgets

# budget records encoded per write: one big string would cost its size in
# peak memory, one write per record the call overhead
ENTRY_BLOCK = 1024
# kernel cells per write (whole rows, at least one row): the strings of a
# block are held at once, so a larger block costs peak memory
CELL_BLOCK = 2**12
# stands in for a streamed value while the rest of a payload is encoded
_SLOT = "\x00"


def _jsonable(value):
    """Plain JSON values; every float or array element that is NaN or +-inf
    becomes None."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def provenance(command: str, config: dict, seed: int | None) -> dict:
    return {
        "tool": "qkshots",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": _jsonable(config),
    }


def _dumps(value) -> str:
    # a non-finite float that bypasses _jsonable raises instead of writing NaN
    return json.dumps(_jsonable(value), indent=2, sort_keys=True, allow_nan=False)


def _slot(name: str) -> str:
    """The encoded placeholder of ``name`` in a template."""
    return json.dumps(_SLOT + name)


def _record_template(budgets: EntryBudgets) -> tuple[str, list[str]]:
    """%-format template of one budget record, indented as an item of a
    top-level list, and its per-entry fields in template order. Everything
    else in the record is the same for every pair and encoded once."""
    record = {"i": 0, "j": 0, **budgets.budget(0).to_dict()}
    fields = ["i", "j", "n_spread", "n_ca", "n_required", "unbounded",
              "effect_dominant", "degenerate"]
    inputs = ["kappa"] + (["ca_imposed"] if budgets.ca_imposed is not None else [])
    record.update((name, _SLOT + name) for name in fields)
    record["inputs"].update((name, _SLOT + name) for name in inputs)
    text = "    " + _dumps(record).replace("%", "%%").replace("\n", "\n    ")
    fields = sorted(fields + inputs, key=lambda name: text.index(_slot(name)))
    for name in fields:
        text = text.replace(_slot(name), "%s")
    return text, fields


# JSON tokens looked up by a boolean: index False, then True
_BOOLEANS = np.array(["false", "true"], dtype=object)
_EFFECTS = np.array([json.dumps(CONCENTRATION_AVOIDANCE), json.dumps(SPREAD)], dtype=object)


def _tokens(flags) -> list[str]:
    return _BOOLEANS.take(flags).tolist()


def _counts(values, null) -> list:
    """``int()`` of every Python float, "null" where ``null``."""
    tokens = list(map(int, np.where(null, 0.0, values).tolist()))
    for k in np.flatnonzero(null).tolist():
        tokens[k] = "null"
    return tokens


def _entry_columns(budgets: EntryBudgets, rows: slice) -> dict[str, list]:
    """JSON tokens of every per-entry field of the pairs in ``rows``, as
    ``ShotBudget.to_dict`` and ``_jsonable`` would encode them."""
    kappa = budgets.kappa[rows]
    n_spread = np.trunc(budgets.n_spread[rows])
    n_ca = np.trunc(budgets.n_ca[rows])
    unbounded = np.isinf(n_ca)
    columns = {
        "i": budgets.i[rows].tolist(),
        "j": budgets.j[rows].tolist(),
        "kappa": list(map(repr, kappa.tolist())),
        "n_spread": _counts(n_spread, False),
        "n_ca": _counts(n_ca, unbounded),
        "n_required": _counts(np.maximum(n_spread, n_ca), unbounded),
        "unbounded": _tokens(unbounded),
        "effect_dominant": _EFFECTS.take(n_spread >= n_ca).tolist(),
        "degenerate": _tokens(budgets.degenerate[rows]),
    }
    for k in np.flatnonzero(~np.isfinite(kappa)).tolist():
        columns["kappa"][k] = json.dumps(_jsonable(float(kappa[k])))
    if budgets.ca_imposed is not None:
        columns["ca_imposed"] = _tokens(budgets.ca_imposed[rows])
    return columns


def _write_entries(handle, budgets: EntryBudgets) -> None:
    """Write the budget records of all pairs as an indented JSON list, one
    block of :data:`ENTRY_BLOCK` records per write."""
    size = budgets.i.size
    if size == 0:
        handle.write("[]")
        return
    template, fields = _record_template(budgets)
    separator = "[\n"
    for start in range(0, size, ENTRY_BLOCK):
        columns = _entry_columns(budgets, slice(start, start + ENTRY_BLOCK))
        records = zip(*(columns[name] for name in fields))
        handle.write(separator + ",\n".join(template % record for record in records))
        separator = ",\n"
    handle.write("\n  ]")


def write_json(path, payload: dict) -> Path:
    """Write ``payload`` as indented JSON with sorted keys. Top-level
    :class:`EntryBudgets` values are written as their ``entries()`` lists,
    streamed from the arrays."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    streamed = {key: value for key, value in payload.items()
                if isinstance(value, EntryBudgets)}
    text = _dumps({key: _SLOT + key if key in streamed else value
                   for key, value in payload.items()}) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        for key in sorted(streamed):
            head, text = text.split(_slot(key), 1)
            handle.write(head)
            _write_entries(handle, streamed[key])
        handle.write(text)
    return path


def _csv_rows(block: np.ndarray, row_format: str) -> str:
    """The CSV lines of a block of kernel rows, each value ``%.17g``.

    A finite-shot kernel holds at most n_shots + 1 distinct values, so each
    distinct bit pattern (``-0.0`` keeps its sign) is formatted once and
    the lines are joined from those strings. When most cells are distinct,
    as in an exact kernel, formatting every cell costs less."""
    block = np.ascontiguousarray(block, dtype=float)
    bits, index = np.unique(block.view(np.int64), return_inverse=True)
    if 2 * bits.size > block.size:
        return "".join([row_format % tuple(row) for row in block.tolist()])
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    cells = text[index.reshape(-1)].tolist()
    width = block.shape[1]
    return "".join([",".join(cells[k:k + width]) + "\r\n"
                    for k in range(0, len(cells), width)])


def write_kernel_csv(path, kernel: KernelMatrix, extra: dict | None = None) -> tuple[Path, Path]:
    """Write an m x m kernel matrix as CSV plus a `.meta.json` sidecar with
    family, feature-map and sampling metadata."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # the bytes csv.writer would write: no field needs quoting, \r\n line ends
    m = kernel.m
    rows = max(1, CELL_BLOCK // m)
    row_format = ",".join(["%.17g"] * m) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(f"k{i}" for i in range(m)) + "\r\n")
        for start in range(0, m, rows):
            handle.write(_csv_rows(kernel.values[start:start + rows], row_format))
    meta = {
        "family": kernel.family,
        "gamma": kernel.gamma,
        "m": kernel.m,
        "feature_map": asdict(kernel.config),
        "metadata": dict(kernel.metadata),
    }
    meta.update(extra or {})
    meta_path = write_json(path.with_suffix(".meta.json"), meta)
    return path, meta_path


def read_kernel_csv(path, meta_path=None) -> KernelMatrix:
    """Round-trip loader for :func:`write_kernel_csv` output."""
    path = Path(path)
    meta_path = Path(meta_path) if meta_path else path.with_suffix(".meta.json")
    with open(meta_path, encoding="utf-8") as handle:
        meta = json.load(handle)
    values = np.loadtxt(path, delimiter=",", skiprows=1)
    return KernelMatrix(
        values=np.atleast_2d(values),
        family=meta["family"],
        config=FeatureMapConfig(**meta["feature_map"]),
        gamma=meta["gamma"],
        metadata=meta.get("metadata", {}),
    )


def write_series_csv(path, series_list) -> Path:
    """Long-format series CSV: statistic, n, value (plot-ready)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["statistic", "n", "value"])
        for series in series_list:
            for n, value in zip(series.qubit_counts, series.values):
                writer.writerow([series.statistic, int(n), f"{value:.17g}"])
    return path


def read_series_csv(path) -> dict[str, ScalingSeries]:
    path = Path(path)
    rows: dict[str, list[tuple[int, float]]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for record in reader:
            rows.setdefault(record["statistic"], []).append(
                (int(record["n"]), float(record["value"]))
            )
    out = {}
    for name, pairs in rows.items():
        pairs.sort()
        out[name] = ScalingSeries(
            statistic=name,
            qubit_counts=np.array([p[0] for p in pairs]),
            values=np.array([p[1] for p in pairs]),
        )
    return out
