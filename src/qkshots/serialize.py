"""File formats: kernel matrices as CSV with a JSON metadata sidecar,
scaling series as long-format CSV, budgets and fits as JSON.

``gram.csv`` holds the full m x m matrix: the writer expands the packed
triangle of a :class:`KernelMatrix` block by block of rows, and the reader,
the one place a full matrix comes in, checks it and packs its triangle.

All JSON is written UTF-8 with sorted keys and an indent of 2; every file
(or its sidecar) embeds a provenance block with the tool version and the
configuration, as written, that produced it. Per-entry shot budgets are
streamed from their arrays in blocks of records, each block joined from a
record's constant text and the token columns of its fields (each pair's
``ShotBudget`` fields plus "i" and "j"), in the bytes ``json.dump`` gives.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .feature_map import FeatureMapConfig
from .kernels import KernelMatrix, _point_count, expand, pack, pair_indices, row_blocks
from .scaling import ScalingSeries
from .shot_bounds import CONCENTRATION_AVOIDANCE, SPREAD, EntryBudgets, ShotBudget

# budget records per write, in whole kernel rows: one big string would cost
# its size in peak memory, one write per record the call overhead
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
    """The encoded placeholder of ``name`` in an encoded payload."""
    return json.dumps(_SLOT + name)


def _record_pieces(budgets: EntryBudgets) -> tuple[list[str], list[str]]:
    """The constant text of one budget record, indented as an item of a
    top-level list, cut at its per-entry fields, and those fields in text
    order: the :class:`ShotBudget` fields, "i" and "j", with the shared
    family, noisy and inputs encoded once."""
    shared = {"family": budgets.family, "noisy": budgets.noisy}
    names = ["i", "j"] + [f.name for f in fields(ShotBudget) if f.name not in {*shared, "inputs"}]
    inputs = ["kappa"] + (["ca_imposed"] if budgets.ca_imposed is not None else [])
    record = {**{name: _SLOT + name for name in names}, **shared,
              "inputs": {**budgets.inputs, **{name: _SLOT + name for name in inputs}}}
    text = "    " + _dumps(record).replace("\n", "\n    ")
    slots = {_slot(name): name for name in names + inputs}
    pieces = re.split("(" + "|".join(map(re.escape, slots)) + ")", text)
    return pieces[0::2], [slots[slot] for slot in pieces[1::2]]


# JSON tokens looked up by a boolean: index False, then True
_BOOLEANS = np.array(["false", "true"], dtype=object)
_EFFECTS = np.array([json.dumps(CONCENTRATION_AVOIDANCE), json.dumps(SPREAD)], dtype=object)


def _distinct_tokens(distinct: np.ndarray, index: np.ndarray, token) -> np.ndarray:
    """``token`` of each of the ``distinct`` values, formatted once, taken at ``index``."""
    return np.array([token(value) for value in distinct.tolist()], dtype=object)[index]


def _integers(values: np.ndarray) -> np.ndarray:
    """The JSON token of every integer-valued float or int: "null" for inf."""
    return _distinct_tokens(*np.unique(values, return_inverse=True),
                            lambda value: "null" if math.isinf(value) else str(int(value)))


def _entry_columns(budgets: EntryBudgets, rows: slice, i, j) -> dict:
    """JSON tokens of every per-entry field of the pairs ``rows`` (indices ``i``, ``j``),
    as ``_jsonable`` would encode the ``asdict`` of their ``ShotBudget``."""
    kappa = budgets.kappa[rows]
    n_spread = np.trunc(budgets.n_spread[rows])
    n_ca = np.trunc(budgets.n_ca[rows])
    columns = {
        "i": _integers(i),
        "j": _integers(j),
        "kappa": [repr(v) if math.isfinite(v) else "null" for v in kappa.tolist()],
        "n_spread": _integers(n_spread),
        "n_ca": _integers(n_ca),
        "n_required": _integers(np.maximum(n_spread, n_ca)),
        "unbounded": _BOOLEANS.take(np.isinf(n_ca)),
        "effect_dominant": _EFFECTS.take(n_spread >= n_ca),
        "degenerate": _BOOLEANS.take(budgets.degenerate[rows]),
    }
    if budgets.ca_imposed is not None:
        columns["ca_imposed"] = _BOOLEANS.take(budgets.ca_imposed[rows])
    return columns


def _write_entries(handle, budgets: EntryBudgets) -> None:
    """Write the budget records of all pairs as an indented JSON list, one
    block of :data:`ENTRY_BLOCK` records, or of one kernel row, per write,
    joined from the record's constant text and its fields' token columns."""
    m = _point_count(budgets.kappa.size)
    if m < 2:
        handle.write("[]")
        return
    pieces, names = _record_pieces(budgets)
    constant = np.array([",\n" + pieces[0], *pieces[1:]], dtype=object)
    for start, end, part in row_blocks(m, max(1, ENTRY_BLOCK // m)):
        columns = _entry_columns(budgets, part, *pair_indices(m, start, end))
        items = np.empty((part.stop - part.start, 2 * len(names) + 1), dtype=object)
        items[:, 0::2] = constant
        items[:, 1::2] = np.array([columns[name] for name in names], dtype=object).T
        if start == 0:
            items[0, 0] = "[\n" + pieces[0]
        handle.write("".join(items.ravel().tolist()))
    handle.write("\n  ]")


def write_json(path, payload: dict) -> Path:
    """Write ``payload`` as indented JSON with sorted keys. Top-level
    :class:`EntryBudgets` values are written as lists of per-pair records,
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
    cells = _distinct_tokens(bits.view(np.float64), index.reshape(-1), "%.17g".__mod__).tolist()
    width = block.shape[1]
    return "".join([",".join(cells[k:k + width]) + "\r\n"
                    for k in range(0, len(cells), width)])


def write_kernel_csv(path, kernel: KernelMatrix, extra: dict | None = None) -> tuple[Path, Path]:
    """Write a kernel as its m x m matrix in CSV, each block of rows
    expanded from the packed triangle as it is written, plus a `.meta.json`
    sidecar with family, feature-map and sampling metadata."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # the bytes csv.writer would write: no field needs quoting, \r\n line ends
    m = kernel.m
    rows = max(1, CELL_BLOCK // m)
    row_format = ",".join(["%.17g"] * m) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(f"k{i}" for i in range(m)) + "\r\n")
        for start in range(0, m, rows):
            handle.write(_csv_rows(expand(kernel.upper, range(start, min(start + rows, m))),
                                   row_format))
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


def read_kernel_csv(path) -> KernelMatrix:
    """Round-trip loader for :func:`write_kernel_csv` output, the CSV and
    its ``.meta.json`` sidecar. The matrix must be square and symmetric,
    with a unit diagonal and every entry in [0, 1] (up to 1e-10 for
    symmetry and the diagonal); its strict upper triangle is kept."""
    path = Path(path)
    meta = json.loads(path.with_suffix(".meta.json").read_text(encoding="utf-8"))
    values = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"kernel matrix must be square, got {values.shape}")
    # written so that NaN fails each check
    if not np.max(np.abs(np.diag(values) - 1.0)) <= 1e-10:
        raise ValueError("kernel diagonal must equal 1")
    if not np.max(np.abs(values - values.T)) <= 1e-10:
        raise ValueError("kernel matrix is not symmetric")
    return KernelMatrix(
        pack(len(values), lambda start, end: values[start:end, start + 1:]),
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
    """Round-trip loader for :func:`write_series_csv` output; each series
    is sorted by n."""
    rows: dict[str, list[tuple[int, float]]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            rows.setdefault(record["statistic"], []).append(
                (int(record["n"]), float(record["value"]))
            )
    return {name: ScalingSeries(name, *zip(*sorted(pairs))) for name, pairs in rows.items()}
