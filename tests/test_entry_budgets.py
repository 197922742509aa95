"""Per-entry budgets over all pairs against a per-pair loop of closed forms.

``entry_budgets`` computes every upper-triangle pair with array operations;
the reference here walks the pairs one at a time with the literal
variance sums of ``oracles`` and the scalar closed forms.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
import yaml
from scipy.special import ndtri

from qkshots import (
    FeatureMapConfig,
    dataset_budget,
    entry_budgets,
    gram_matrix,
    kernel_statistics,
    shot_bounds,
)
from qkshots.cli import _resolve_dataset, main
from qkshots.datasets import select_features

from oracles import first_success_shots, pq_noise_robust_term_sum, pq_variance_term_sum

EPS, P_SPREAD, P_CA, GAMMA = 0.8, 0.9, 0.99, 0.7


def _ceil(x):
    return max(1, math.ceil(x - 1e-9))


def _kernel(family, n, m=20, seed=4):
    points = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(m, n))
    cfg = FeatureMapConfig(n_qubits=n, repetitions=2, entanglement="full")
    return gram_matrix(points, cfg, family=family, gamma=GAMMA)


def _reference(kernel, delta, p_error, n):
    """Per-pair loop: (n_spread, n_ca, degenerate) of every pair i < j."""
    denom = (1.0 - P_SPREAD) * EPS**2 * delta**2
    noisy = p_error > 0.0
    out = []
    if kernel.family == "projected":
        z = float(ndtri(P_CA))
        props = [
            [[(1.0 - p_error) * q + p_error * 0.5 for q in (d, r + 0.5, 0.5 - im)]
             for d, r, im in row]
            for row in kernel.component_table
        ]
        worst = []
        for row in props:
            offsets = [q for qubit in row for q in qubit if abs(q - 0.5) >= 1e-15]
            worst.append(max([1] + [_ceil(z**2 * q * (1 - q) / (q - 0.5) ** 2) for q in offsets]))
    for i in range(kernel.m):
        for j in range(i + 1, kernel.m):
            kappa = kernel.values[i, j]
            if kernel.family == "fidelity":
                q = (1.0 - p_error) * kappa + p_error * 2.0**-n
                spread = _ceil(4.0 / denom) if noisy else _ceil(kappa * (1 - kappa) / denom)
                out.append((spread, first_success_shots(q, P_CA), False))
                continue
            term = pq_noise_robust_term_sum if noisy else pq_variance_term_sum
            v = sum(term(props[i][k], props[j][k]) for k in range(n))
            kappa_eff = kappa ** ((1.0 - p_error) ** 2)
            factor = 4.0 if noisy else 1.0
            spread = 1 if v == 0 else _ceil(factor * n * GAMMA**2 * kappa_eff**2 * v / denom)
            out.append((spread, max(worst[i], worst[j]), v == 0))
    return out


@pytest.mark.parametrize("family", ["fidelity", "projected"])
@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("p_error", [0.0, 0.01])
def test_entry_budgets_match_per_pair_loop(family, n, p_error):
    kernel = _kernel(family, n)
    delta = kernel_statistics(kernel).iqr
    got = entry_budgets(
        family, kernel.values, EPS, delta, P_SPREAD, P_CA, p_error,
        table=kernel.component_table, gamma=GAMMA, n_qubits=n,
    )
    iu = np.triu_indices(kernel.m, k=1)
    assert np.array_equal(got.i, iu[0]) and np.array_equal(got.j, iu[1])
    assert np.array_equal(got.kappa, kernel.values[iu])
    expected = np.array(_reference(kernel, delta, p_error, n), dtype=float)
    assert np.array_equal(got.n_spread, expected[:, 0])
    assert np.array_equal(got.n_ca, expected[:, 1])
    assert np.array_equal(got.degenerate, expected[:, 2].astype(bool))
    assert not got.unbounded.any()
    assert got.noisy == (p_error > 0.0)


def test_one_pair_functions_are_the_array_case():
    """Every pair of the batch equals the m = 2 case on its own two points,
    whatever row block it fell in."""
    kernel = _kernel("projected", 3, m=6)
    budgets = entry_budgets(
        "projected", kernel.values, EPS, 0.2, P_SPREAD, P_CA, 0.02,
        table=kernel.component_table, gamma=GAMMA,
    )
    for k, (i, j) in enumerate(zip(budgets.i, budgets.j)):
        pair = [i, j]
        single = entry_budgets(
            "projected", kernel.values[np.ix_(pair, pair)], EPS, 0.2, P_SPREAD, P_CA, 0.02,
            table=kernel.component_table[pair], gamma=GAMMA,
        ).budget(0)
        batch = budgets.budget(k)
        assert (single.n_spread, single.n_ca, single.degenerate) == (
            batch.n_spread, batch.n_ca, batch.degenerate)
        assert single.inputs == batch.inputs


def test_fidelity_zero_entry_is_unbounded():
    values = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 1.0], [0.3, 1.0, 1.0]])
    budgets = entry_budgets("fidelity", values, 1.0, 0.2, 0.9, 0.99)
    assert budgets.unbounded.tolist() == [True, False, False]
    assert budgets.degenerate.tolist() == [True, False, True]
    first = budgets.entries()[0]
    assert first["n_ca"] is None and first["n_required"] is None and first["unbounded"]


def test_fidelity_nearly_orthogonal_entry_is_finite():
    """Nearly orthogonal states leave Gram entries of about 1e-33, not 0; the
    one-success bound is then about 4.6e33 shots and must still end."""
    values = np.array([[1.0, 1e-33], [1e-33, 1.0]])
    entry = entry_budgets("fidelity", values, 1.0, 0.2, 0.9, 0.99).entries()[0]
    assert not entry["unbounded"]
    assert entry["n_ca"] == pytest.approx(-math.log(0.01) * 1e33, rel=1e-12)
    assert json.loads(json.dumps(entry))["n_required"] == entry["n_ca"]


@pytest.mark.parametrize("family", ["fidelity", "projected"])
def test_zero_p_error_is_noiseless(family):
    kernel = _kernel(family, n=3)
    quiet = dataset_budget(kernel, p_error=0.0)
    assert quiet.to_dict() == dataset_budget(kernel).to_dict()


def test_fidelity_qubit_count_unused_without_noise():
    kernel = _kernel("fidelity", n=3)
    delta = kernel_statistics(kernel).iqr
    unset, given = (entry_budgets("fidelity", kernel.values, EPS, delta, P_SPREAD, P_CA, 0.0,
                                  n_qubits=n) for n in (None, 3))
    for name in ("i", "j", "kappa", "n_spread", "n_ca", "degenerate"):
        assert np.array_equal(getattr(unset, name), getattr(given, name))
    assert not unset.noisy and unset.ca_imposed is None
    with pytest.raises(ValueError, match="n_qubits"):
        entry_budgets("fidelity", kernel.values, EPS, delta, P_SPREAD, P_CA, 0.05)


def test_projected_budgets_refuse_a_table_of_other_points():
    kernel = _kernel("projected", n=2, m=6)
    for table in (None, kernel.component_table[:5]):
        with pytest.raises(ValueError, match="component table"):
            entry_budgets("projected", kernel.values, EPS, 0.2, P_SPREAD, P_CA,
                          table=table, gamma=GAMMA)


def test_mean_pair_variance_terms_chunked_equals_one_block(monkeypatch):
    """The dataset budget's pair mean runs over several row blocks and
    matches the single-block evaluation."""
    m, n = 150, 8
    assert shot_bounds.PAIR_BLOCK // (m * n) < (m - 1) // 2  # several blocks
    table = _kernel("projected", n, m=m, seed=9).component_table
    blocked = [shot_bounds._mean_pair_variance_terms(table, p, robust)
               for p, robust in ((0.0, False), (0.05, True))]
    monkeypatch.setattr(shot_bounds, "PAIR_BLOCK", 1 << 40)
    single = [shot_bounds._mean_pair_variance_terms(table, p, robust)
              for p, robust in ((0.0, False), (0.05, True))]
    assert blocked == pytest.approx(single, rel=1e-12, abs=0)


@pytest.mark.parametrize("p_error", [0.0, 0.05])
def test_entry_pass_gives_the_standalone_dataset_budget(p_error):
    """The pair-variance sum accumulated while budgeting the entries gives
    the dataset budget of a separate pass over the table, field by field,
    over several row blocks."""
    m, n = 150, 8
    assert shot_bounds.PAIR_BLOCK // (m * n) < (m - 1) // 2  # several blocks
    kernel = _kernel("projected", n, m=m, seed=9)
    delta = kernel_statistics(kernel).iqr
    entries = entry_budgets("projected", kernel.values, EPS, delta, P_SPREAD, P_CA, p_error,
                            table=kernel.component_table, gamma=GAMMA)
    shared = dataset_budget(kernel, EPS, P_SPREAD, P_CA, p_error, entries=entries)
    assert shared.inputs["spread_path"] == "components"
    assert asdict(shared) == asdict(dataset_budget(kernel, EPS, P_SPREAD, P_CA, p_error))
    with pytest.raises(ValueError, match="another kernel or p_error"):
        dataset_budget(kernel, EPS, P_SPREAD, P_CA, 0.01, entries=entries)


@pytest.mark.parametrize("family, p_error", [("projected", 0.0), ("fidelity", 0.01)])
def test_shot_budgets_json_round_trip(tmp_path, family, p_error):
    config = {
        "seed": 3,
        "dataset": {"type": "twonorm", "m": 20, "n_features": 6},
        "feature_map": {"n_qubits": 3, "repetitions": 2, "entanglement": "full"},
        "kernel": {"family": family, "gamma": GAMMA},
        "budget": {"eps": EPS, "p_spread": P_SPREAD, "p_ca": P_CA, "p_error": p_error},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert main(["estimate-shots", "--config", str(path), "--out", str(out),
                     "--threads", str(threads)]) == 0
        outputs.append((out / "shot_budgets.json").read_bytes())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    entries = payload["entries"]
    assert len(entries) == 20 * 19 // 2
    first = entries[0]
    assert set(first) == {"i", "j", "family", "noisy", "n_spread", "n_ca", "n_required",
                          "unbounded", "effect_dominant", "degenerate", "inputs"}
    expected_inputs = {"kappa", "eps", "delta_ensemble", "p_spread", "p_ca", "p_error"}
    if family == "projected":
        expected_inputs |= {"gamma", "ca_imposed"}
    assert set(first["inputs"]) == expected_inputs
    for entry in entries:
        assert entry["n_required"] == max(entry["n_spread"], entry["n_ca"])
        assert entry["effect_dominant"] == (
            "spread" if entry["n_spread"] >= entry["n_ca"] else "concentration_avoidance")
        assert entry["noisy"] == (p_error > 0.0)
    # the integer counts equal the per-pair loop on the same kernel
    subset = select_features(_resolve_dataset(config, 3), 3)
    kernel = gram_matrix(subset.features, FeatureMapConfig(3, 2, "full"),
                         family=family, gamma=GAMMA)
    delta = payload["statistics"]["iqr"]
    reference = _reference(kernel, delta, p_error, 3)
    assert [(e["n_spread"], e["n_ca"], e["degenerate"]) for e in entries] == [
        (int(a), int(b), bool(c)) for a, b, c in reference]
    kappa = np.array([e["inputs"]["kappa"] for e in entries])
    assert np.allclose(kappa, kernel.off_diagonal(), rtol=0, atol=1e-12)
