"""File writers against the standard-library encoders they replace.

``write_json`` streams per-entry shot budgets straight from the
``EntryBudgets`` arrays and ``write_kernel_csv`` formats each distinct
value of a block of rows once; the
references here are ``json.dump`` of ``EntryBudgets.entries()`` and
``csv.writer``, and the bytes must be equal.
"""

import csv
import io
import json

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


def _fidelity_values():
    """Random entries plus an orthogonal pair (kappa = 0: unbounded at
    p_error 0, and degenerate), a nearly orthogonal one (1e-33: n_ca about
    4.6e33, past int64) and a duplicated point (kappa = 1: degenerate)."""
    points = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, size=(7, N_QUBITS))
    points[6] = points[5]
    values = gram_matrix(points, FeatureMapConfig(N_QUBITS, 2, "full")).values.copy()
    values[0, 1] = values[1, 0] = 0.0
    values[0, 2] = values[2, 0] = 1e-33
    return values


def _projected_table():
    """Random points plus two maximally mixed ones: their pair has no
    proportion off 1/2 (ca_imposed false, degenerate)."""
    points = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, size=(6, N_QUBITS))
    kernel = gram_matrix(points, FeatureMapConfig(N_QUBITS, 2, "full"),
                         family="projected", gamma=GAMMA)
    mixed = np.tile([0.5, 0.0, 0.0], (2, N_QUBITS, 1))
    return np.concatenate([kernel.component_table, mixed])


@pytest.mark.parametrize("p_error", [0.0, 0.05])
def test_fidelity_budget_bytes_equal_stdlib_encoder(tmp_path, p_error):
    budgets = entry_budgets("fidelity", _fidelity_values(), EPS, DELTA, P_SPREAD, P_CA,
                            p_error, n_qubits=N_QUBITS)
    if p_error == 0.0:
        assert budgets.n_ca[1] > 2.0**63
        assert budgets.unbounded[0] and budgets.degenerate[0] and budgets.degenerate[-1]
    assert written_json(tmp_path, _payload(), budgets) == reference_json(_payload(), budgets)


@pytest.mark.parametrize("p_error", [0.0, 0.05])
def test_projected_budget_bytes_equal_stdlib_encoder(tmp_path, p_error):
    table = _projected_table()
    budgets = entry_budgets("projected", projected_gram_values(table, GAMMA), EPS, DELTA,
                            P_SPREAD, P_CA, p_error, table=table, gamma=GAMMA)
    assert not budgets.ca_imposed[-1] and budgets.degenerate[-1]
    assert budgets.ca_imposed[:-1].all()
    assert written_json(tmp_path, _payload(), budgets) == reference_json(_payload(), budgets)


def test_budget_blocks_join_like_one_list(tmp_path, monkeypatch):
    """Records spanning several write blocks give the same bytes."""
    budgets = entry_budgets("fidelity", _fidelity_values(), EPS, DELTA, P_SPREAD, P_CA)
    monkeypatch.setattr(serialize, "ENTRY_BLOCK", 4)
    assert written_json(tmp_path, {}, budgets) == reference_json({}, budgets)


def test_empty_budgets_and_plain_payloads(tmp_path):
    budgets = entry_budgets("fidelity", np.ones((1, 1)), EPS, DELTA, P_SPREAD, P_CA)
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
    kernel = KernelMatrix(values=values, family="fidelity", config=FeatureMapConfig(2))
    monkeypatch.setattr(serialize, "CELL_BLOCK", cell_block)
    path, _ = write_kernel_csv(tmp_path / "gram.csv", kernel)
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow([f"k{i}" for i in range(m)])
    for row in values:
        writer.writerow([f"{v:.17g}" for v in row])
    assert path.read_bytes() == reference.getvalue().encode("utf-8")
    loaded = read_kernel_csv(path)
    assert np.array_equal(loaded.values, values)
    assert np.array_equal(np.signbit(loaded.values), np.signbit(values))
    assert (loaded.family, loaded.config) == ("fidelity", FeatureMapConfig(2))


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
