"""File writers against the standard-library encoders they replace.

``write_json`` streams per-entry shot budgets straight from the
``EntryBudgets`` arrays and ``write_kernel_csv`` formats each distinct
value of a block of rows once; the
references here are ``json.dump`` of records the oracle builds from the
arrays in a loop, and ``csv.writer``; the bytes must be equal.
"""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from qkshots import (FeatureMapConfig, KernelMatrix, entry_budgets, gram_matrix, sample_gram,
                     serialize)
from qkshots.kernels import projected_gram_values
from qkshots.serialize import _jsonable, read_kernel_csv, write_json, write_kernel_csv

from oracles import budget_json

EPS, DELTA, P_SPREAD, P_CA, GAMMA, N_QUBITS = 0.8, 0.2, 0.9, 0.99, 0.7, 3


def reference_json(payload: dict, budgets) -> bytes:
    return budget_json(payload, budgets).encode("utf-8")


def written_json(tmp_path, payload: dict, budgets) -> bytes:
    return write_json(tmp_path / "budgets.json", {**payload, "entries": budgets}).read_bytes()


def _payload():
    # keys sorting before and after "entries", nested values, inf -> null
    return {"dataset_budget": {"n_ca": 12, "inputs": {"m": float("inf")}},
            "statistics": {"iqr": np.float64(0.25), "median": 0.5},
            "provenance": {"version": "x", "config": {"seed": 3}}}


CFG = FeatureMapConfig(N_QUBITS, 2, "full")


def _fidelity_kernel():
    """Random entries plus an orthogonal pair (kappa = 0: unbounded at
    p_error 0, and degenerate), a nearly orthogonal one (1e-33: n_ca about
    4.6e33, past int64) and a duplicated point (kappa = 1: degenerate)."""
    points = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, size=(7, N_QUBITS))
    points[6] = points[5]
    upper = gram_matrix(points, CFG).upper.copy()
    upper[:2] = 0.0, 1e-33  # pairs (0, 1) and (0, 2)
    return KernelMatrix(upper, family="fidelity", config=CFG)


def _projected_kernel():
    """Random points plus two maximally mixed ones: their pair has no
    proportion off 1/2 (ca_imposed false, degenerate)."""
    points = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, size=(6, N_QUBITS))
    kernel = gram_matrix(points, CFG, family="projected", gamma=GAMMA)
    mixed = np.tile([0.5, 0.0, 0.0], (2, N_QUBITS, 1))
    table = np.concatenate([kernel.component_table, mixed])
    return KernelMatrix(projected_gram_values(table, GAMMA), family="projected",
                        config=CFG, gamma=GAMMA, component_table=table)


@pytest.mark.parametrize("p_error", [0.0, 0.05])
def test_fidelity_budget_bytes_equal_stdlib_encoder(tmp_path, p_error):
    budgets = entry_budgets(_fidelity_kernel(), EPS, DELTA, P_SPREAD, P_CA, p_error)
    if p_error == 0.0:
        assert budgets.n_ca[1] > 2.0**63
        assert budgets.unbounded[0] and budgets.degenerate[0] and budgets.degenerate[-1]
    assert written_json(tmp_path, _payload(), budgets) == reference_json(_payload(), budgets)


@pytest.mark.parametrize("p_error", [0.0, 0.05])
def test_projected_budget_bytes_equal_stdlib_encoder(tmp_path, p_error):
    budgets = entry_budgets(_projected_kernel(), EPS, DELTA, P_SPREAD, P_CA, p_error)
    assert not budgets.ca_imposed[-1] and budgets.degenerate[-1]
    assert budgets.ca_imposed[:-1].all()
    assert written_json(tmp_path, _payload(), budgets) == reference_json(_payload(), budgets)


@pytest.mark.parametrize("kernel", [_fidelity_kernel, _projected_kernel])
@pytest.mark.parametrize("block, rows", [(4, 1), (24, 3)])
def test_budget_blocks_join_like_one_list(tmp_path, monkeypatch, kernel, block, rows):
    """Records written in blocks of whole kernel rows, one row per write when
    a row holds more than ENTRY_BLOCK records and several rows otherwise,
    give the same bytes as one list."""
    kernel = kernel()
    budgets = entry_budgets(kernel, EPS, DELTA, P_SPREAD, P_CA, 0.05)
    monkeypatch.setattr(serialize, "ENTRY_BLOCK", block)
    written_rows = []
    columns = serialize._entry_columns

    def spy(budgets, part, i, j):
        written_rows.append(sorted(set(i.tolist())))
        return columns(budgets, part, i, j)

    monkeypatch.setattr(serialize, "_entry_columns", spy)
    payload = _payload()
    assert written_json(tmp_path, payload, budgets) == reference_json(payload, budgets)
    starts = range(0, kernel.m - 1, rows)
    assert written_rows == [list(range(r, min(r + rows, kernel.m - 1))) for r in starts]


@pytest.mark.parametrize("family", ["fidelity", "projected"])
@pytest.mark.parametrize("m", [150, 300, 600])
def test_budget_writer_holds_one_block_at_a_time(tmp_path, family, m):
    """The writer's traced peak is one block of records, whatever m: the
    file at m = 600 is 75-86 MB, the peak stays under 2 MB."""
    points = np.random.default_rng(m).uniform(0.0, 2.0 * np.pi, size=(m, N_QUBITS))
    budgets = entry_budgets(gram_matrix(points, CFG, family=family, gamma=GAMMA),
                            EPS, DELTA, P_SPREAD, P_CA, 0.05)
    tracemalloc.start()
    try:
        path = write_json(tmp_path / "budgets.json", {"entries": budgets})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    path.unlink()
    assert size > 400 * m * (m - 1) / 2
    assert peak < 2 * 2**20


def test_empty_budgets_and_plain_payloads(tmp_path):
    one_point = KernelMatrix(np.empty(0), family="fidelity", config=CFG)
    budgets = entry_budgets(one_point, EPS, DELTA, P_SPREAD, P_CA)
    assert written_json(tmp_path, _payload(), budgets) == reference_json(_payload(), budgets)
    plain = write_json(tmp_path / "plain.json", _payload()).read_text(encoding="utf-8")
    assert plain == json.dumps(_jsonable(_payload()), indent=2, sort_keys=True) + "\n"


def _continuous_kernel():
    """Mostly distinct entries: each cell is formatted directly."""
    rng = np.random.default_rng(8)
    values = rng.uniform(size=(5, 5))
    values[0, 1:] = [0.0, 1e-33, 1.0, 1.0 / 3.0]
    return np.triu(values, 1) + np.triu(values, 1).T + np.eye(5)


def _sampled_kernel():
    """Finite-shot entries k / 4 of 12 points: at most 5 distinct values, so
    every block of at least one row formats each distinct value once."""
    points = np.random.default_rng(9).uniform(0.0, 2.0 * np.pi, size=(12, 2))
    values = sample_gram(gram_matrix(points, FeatureMapConfig(2)), n_shots=4, seed=5).values
    assert np.unique(values).size <= 5 and np.any(values == 0.0)
    return values


def _signed_zero_kernel():
    """-0.0 beside 0.0: equal as floats, written "-0" and "0"."""
    values = _sampled_kernel()
    i, j = np.argwhere(values == 0.0)[0]
    values[i, j] = values[j, i] = -0.0
    return values


def _csv_writer_bytes(values) -> bytes:
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow([f"k{i}" for i in range(len(values))])
    for row in values:
        writer.writerow([f"{v:.17g}" for v in row])
    return reference.getvalue().encode("utf-8")


@pytest.mark.parametrize("make_values, cell_block", [
    (_continuous_kernel, serialize.CELL_BLOCK),
    (_sampled_kernel, serialize.CELL_BLOCK),
    (_signed_zero_kernel, serialize.CELL_BLOCK),
    (_signed_zero_kernel, 30),  # blocks of 2 rows
    (_sampled_kernel, 5),       # a block is one row, as at m past CELL_BLOCK
], ids=["continuous", "sampled", "signed-zero", "row-blocks", "one-row-blocks"])
def test_gram_csv_bytes_equal_csv_writer_and_round_trip(tmp_path, monkeypatch,
                                                        make_values, cell_block):
    values = make_values()
    m = len(values)
    kernel = KernelMatrix(values[np.triu_indices(m, k=1)], family="fidelity",
                          config=FeatureMapConfig(2))
    monkeypatch.setattr(serialize, "CELL_BLOCK", cell_block)
    path, _ = write_kernel_csv(tmp_path / "gram.csv", kernel)
    assert path.read_bytes() == _csv_writer_bytes(values)
    loaded = read_kernel_csv(path)
    assert np.array_equal(loaded.values, values)
    assert np.array_equal(np.signbit(loaded.values), np.signbit(values))
    assert (loaded.family, loaded.config) == ("fidelity", FeatureMapConfig(2))


@pytest.mark.parametrize("distinct, formatted_once", [(4, True), (5, False)])
def test_gram_csv_bytes_on_both_sides_of_the_distinct_cell_switch(tmp_path, monkeypatch,
                                                                  distinct, formatted_once):
    """A block of one row of 8 cells holding 4 distinct values formats each
    distinct value once; one holding 5 formats every cell. Both give the
    bytes of csv.writer. The kernel is circulant, entry (i, j) a function of
    (j - i) mod 8 and of (i - j) mod 8 alike, with sampled values k / 16, so
    every row holds the same values."""
    offsets = [1.0, 3 / 16, 0.0, 9 / 16, 9 / 16 if distinct == 4 else 5 / 16]
    m = 8
    steps = np.subtract.outer(np.arange(m), np.arange(m)) % m
    values = np.array(offsets)[np.minimum(steps, m - steps)]
    assert [np.unique(row).size for row in values] == [distinct] * m
    kernel = KernelMatrix(values[np.triu_indices(m, k=1)], family="fidelity",
                          config=FeatureMapConfig(2))
    monkeypatch.setattr(serialize, "CELL_BLOCK", m)  # one row per block
    calls = []
    shared = serialize._distinct_tokens

    def spy(*args):
        calls.append(args)
        return shared(*args)

    monkeypatch.setattr(serialize, "_distinct_tokens", spy)
    path, _ = write_kernel_csv(tmp_path / "gram.csv", kernel)
    assert path.read_bytes() == _csv_writer_bytes(values)
    assert len(calls) == (m if formatted_once else 0)


def _asymmetric():
    values = np.eye(2)
    values[0, 1] = 0.3
    return values


def _nan_cell():
    values = np.full((3, 3), 0.5)
    np.fill_diagonal(values, 1.0)
    values[1, 2] = np.nan
    return values


def _above_one():
    values = np.full((3, 3), 1.5)
    np.fill_diagonal(values, 1.0)
    return values


@pytest.mark.parametrize("values, message", [
    (_asymmetric(), "not symmetric"),
    (np.full((2, 2), 0.5), "diagonal must equal 1"),
    (_nan_cell(), "not symmetric"),
    (np.diag([1.0, np.nan]), "diagonal must equal 1"),
    (_above_one(), r"\[0, 1\]"),
    (np.ones((2, 3)), "must be square"),
], ids=["asymmetric", "bad-diagonal", "nan-cell", "nan-diagonal", "above-one", "not-square"])
def test_read_kernel_csv_refuses_what_is_not_a_kernel_matrix(tmp_path, values, message):
    """The reader is the one place a full matrix comes in, so it checks the
    matrix before packing its triangle."""
    path = tmp_path / "gram.csv"
    header = ",".join(f"k{i}" for i in range(values.shape[1]))
    np.savetxt(path, values, delimiter=",", header=header, comments="", fmt="%.17g")
    meta = {"family": "fidelity", "gamma": None, "feature_map": {"n_qubits": 2}}
    path.with_suffix(".meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=message):
        read_kernel_csv(path)


def test_jsonable_maps_every_infinity_to_null():
    payload = {"f64": np.float64("inf"), "f32": np.float32("-inf"), "py": float("inf"),
               "array": np.array([1.5, np.inf, -np.inf]), "finite": np.float32(0.5),
               "ints": np.array([[1, 2]]), "count": np.int64(7)}
    text = json.dumps(_jsonable(payload), allow_nan=False)
    assert json.loads(text) == {"f64": None, "f32": None, "py": None,
                                "array": [1.5, None, None], "finite": 0.5,
                                "ints": [[1, 2]], "count": 7}


def test_jsonable_maps_nan_to_null():
    payload = {"a": float("nan"), "b": np.array([np.nan, 2.0]), "c": np.float32("nan")}
    text = json.dumps(_jsonable(payload), allow_nan=False)
    assert json.loads(text) == {"a": None, "b": [None, 2.0], "c": None}


def test_dumps_refuses_a_non_finite_float_that_skips_jsonable(monkeypatch):
    monkeypatch.setattr(serialize, "_jsonable", lambda value: value)
    with pytest.raises(ValueError):
        serialize._dumps({"a": float("nan")})
