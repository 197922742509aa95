"""Per-entry budgets over all pairs against a per-pair loop of closed forms.

``entry_budgets`` computes every upper-triangle pair with array operations;
the reference here walks the pairs one at a time with the literal
variance sums of ``oracles`` and the scalar closed forms.
"""

import json
import math
import sys
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
import yaml
from scipy.special import ndtri

from qkshots import (
    FeatureMapConfig,
    KernelMatrix,
    dataset_budget,
    entry_budgets,
    gram_matrix,
    kernel_statistics,
    shot_bounds,
)
from qkshots.cli import _resolve_dataset, main
from qkshots.datasets import generate_twonorm, select_features
from qkshots.measurement import component_proportions
from qkshots.serialize import write_json

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
    values = kernel.values
    for i in range(kernel.m):
        for j in range(i + 1, kernel.m):
            kappa = values[i, j]
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
    got = entry_budgets(kernel, EPS, delta, P_SPREAD, P_CA, p_error)
    # the arrays follow the kernel's packed order: pair k is (i, j) of triu_indices
    assert got.kappa is kernel.upper
    assert np.array_equal(got.kappa, kernel.values[np.triu_indices(kernel.m, k=1)])
    expected = np.array(_reference(kernel, delta, p_error, n), dtype=float)
    assert np.array_equal(got.n_spread, expected[:, 0])
    assert np.array_equal(got.n_ca, expected[:, 1])
    assert np.array_equal(got.degenerate, expected[:, 2].astype(bool))
    assert not got.unbounded.any()
    assert got.noisy == (p_error > 0.0)


@pytest.mark.parametrize("p_error", [0.0, 0.01])
def test_pair_passes_equal_on_one_and_two_threads(p_error, monkeypatch):
    """The projected pair blocks give the same bits on one pool thread as on
    two and four, at the default block size (two blocks) and at one kernel
    row per block (99 blocks, whose totals must be added in block order),
    and the per-pair loop's budgets and variance sum. Threads switch often,
    so a block written over by another would show."""
    m, n = 100, 8
    assert len(list(shot_bounds._pair_blocks(m, n))) == 2
    kernel = _kernel("projected", n, m=m, seed=5)
    delta = kernel_statistics(kernel).iqr
    props = component_proportions(kernel.component_table, p_error)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for pair_block in (shot_bounds.PAIR_BLOCK, m * n):
            monkeypatch.setattr(shot_bounds, "PAIR_BLOCK", pair_block)
            one, *more = (entry_budgets(kernel, EPS, delta, P_SPREAD, P_CA, p_error,
                                        threads=threads) for threads in (1, 2, 4))
            for other in more:
                for name in ("kappa", "n_spread", "n_ca", "degenerate", "ca_imposed"):
                    assert getattr(one, name).tobytes() == getattr(other, name).tobytes(), name
                assert one.variance_total == other.variance_total
            totals = {shot_bounds._pair_variance_total(props, p_error > 0.0, threads)
                      for threads in (1, 2, 4)}
            assert totals == {one.variance_total}
            assert (dataset_budget(kernel, p_error=p_error, threads=1)
                    == dataset_budget(kernel, p_error=p_error, threads=2))
    finally:
        sys.setswitchinterval(interval)
    expected = np.array(_reference(kernel, delta, p_error, n), dtype=float)
    assert np.array_equal(one.n_spread, expected[:, 0])
    assert np.array_equal(one.n_ca, expected[:, 1])
    assert np.array_equal(one.degenerate, expected[:, 2].astype(bool))
    term = pq_noise_robust_term_sum if p_error > 0.0 else pq_variance_term_sum
    pairs = sum(term(props[i, k], props[j, k])
                for i, j in zip(*np.triu_indices(m, k=1)) for k in range(n))
    assert one.variance_total == pytest.approx(pairs, rel=1e-12, abs=0)


def test_projected_budget_memory_in_multiples_of_its_arrays():
    """The pair pass holds one block of V_k per thread, not copies of both
    ends of every pair, and no pair index arrays: the peak stays within
    three times the bytes of the four budget columns the call allocates and
    returns (kappa is the kernel's own triangle)."""
    m, n = 300, 6
    kernel = _kernel("projected", n, m=m, seed=6)
    delta = kernel_statistics(kernel).iqr
    tracemalloc.start()
    try:
        budgets = entry_budgets(kernel, EPS, delta, P_SPREAD, P_CA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert budgets.kappa is kernel.upper
    returned = sum(getattr(budgets, name).nbytes for name in
                   ("n_spread", "n_ca", "degenerate", "ca_imposed"))
    assert returned == 18 * m * (m - 1) // 2
    assert peak <= 3.0 * returned


def test_one_pair_functions_are_the_array_case():
    """Every pair of the batch equals the m = 2 case on its own two points,
    whatever row block it fell in."""
    kernel = _kernel("projected", 3, m=6)
    budgets = entry_budgets(kernel, EPS, 0.2, P_SPREAD, P_CA, 0.02)
    values = kernel.values
    singles = [
        entry_budgets(replace(kernel, upper=[values[i, j]],
                              component_table=kernel.component_table[[i, j]]),
                      EPS, 0.2, P_SPREAD, P_CA, 0.02)
        for i, j in zip(*np.triu_indices(kernel.m, k=1))
    ]
    for name in ("kappa", "n_spread", "n_ca", "degenerate", "ca_imposed"):
        single = np.concatenate([getattr(pair, name) for pair in singles])
        assert np.array_equal(single, getattr(budgets, name)), name
    assert all(pair.inputs == budgets.inputs for pair in singles)


def _fidelity(upper):
    return KernelMatrix(np.array(upper), "fidelity", FeatureMapConfig(2))


def _written_entries(tmp_path, budgets):
    return json.loads(write_json(tmp_path / "b.json", {"entries": budgets}).read_text())["entries"]


def test_fidelity_zero_entry_is_unbounded(tmp_path):
    budgets = entry_budgets(_fidelity([0.0, 0.3, 1.0]), 1.0, 0.2, 0.9, 0.99)
    assert budgets.unbounded.tolist() == [True, False, False]
    assert budgets.degenerate.tolist() == [True, False, True]
    first = _written_entries(tmp_path, budgets)[0]
    assert first["n_ca"] is None and first["n_required"] is None and first["unbounded"]


def test_fidelity_nearly_orthogonal_entry_is_finite(tmp_path):
    """Nearly orthogonal states leave Gram entries of about 1e-33, not 0; the
    one-success bound is then about 4.6e33 shots and must still end."""
    budgets = entry_budgets(_fidelity([1e-33]), 1.0, 0.2, 0.9, 0.99)
    assert not budgets.unbounded[0]
    assert budgets.n_ca[0] == pytest.approx(-math.log(0.01) * 1e33, rel=1e-12)
    entry = _written_entries(tmp_path, budgets)[0]
    assert entry["n_required"] == entry["n_ca"] == int(budgets.n_ca[0])


@pytest.mark.parametrize("family", ["fidelity", "projected"])
def test_zero_p_error_is_noiseless(family):
    kernel = _kernel(family, n=3)
    quiet = dataset_budget(kernel, p_error=0.0)
    assert quiet == dataset_budget(kernel)


def test_fidelity_qubit_count_unused_without_noise():
    """The depolarised value is kappa itself at p_error = 0, whatever the
    kernel's qubit count; with noise it moves towards 2**-n."""
    kernel = _kernel("fidelity", n=3)
    other = replace(kernel, config=FeatureMapConfig(1, 2, "full"))
    delta = kernel_statistics(kernel).iqr
    for p_error in (0.0, 0.05):
        given, moved = (entry_budgets(k, EPS, delta, P_SPREAD, P_CA, p_error)
                        for k in (kernel, other))
        for name in ("kappa", "n_spread", "degenerate"):
            assert np.array_equal(getattr(given, name), getattr(moved, name))
        assert np.array_equal(given.n_ca, moved.n_ca) == (p_error == 0.0)
        assert given.noisy == (p_error > 0.0) and given.ca_imposed is None


def test_projected_budgets_need_the_component_table():
    kernel = replace(_kernel("projected", n=2, m=6), component_table=None)
    with pytest.raises(ValueError, match="projected budgets need the component table"):
        entry_budgets(kernel, EPS, 0.2, P_SPREAD, P_CA)


def test_pair_variance_total_chunked_equals_one_block(monkeypatch):
    """The pair pass behind the dataset budget's pair mean runs over several
    row blocks and matches the single-block evaluation."""
    m, n = 150, 8
    assert shot_bounds.PAIR_BLOCK // (m * n) < (m - 1) // 2  # several blocks
    table = _kernel("projected", n, m=m, seed=9).component_table
    props = [(component_proportions(table, p), p > 0.0) for p in (0.0, 0.05)]
    blocked = [shot_bounds._pair_variance_total(*args) for args in props]
    monkeypatch.setattr(shot_bounds, "PAIR_BLOCK", 1 << 40)
    single = [shot_bounds._pair_variance_total(*args) for args in props]
    assert blocked == pytest.approx(single, rel=1e-12, abs=0)


@pytest.mark.parametrize("p_error", [0.0, 0.05])
def test_entry_pass_gives_the_standalone_dataset_budget(p_error):
    """The pair-variance sum accumulated while budgeting the entries gives
    the dataset budget of a separate pass over the table, field by field,
    over several row blocks; so do the caller's kernel statistics. Entries
    of another kernel, even one of the same size, are refused."""
    m, n = 150, 8
    assert shot_bounds.PAIR_BLOCK // (m * n) < (m - 1) // 2  # several blocks
    kernel = _kernel("projected", n, m=m, seed=9)
    stats = kernel_statistics(kernel)
    entries = entry_budgets(kernel, EPS, stats.iqr, P_SPREAD, P_CA, p_error)
    shared = dataset_budget(kernel, EPS, P_SPREAD, P_CA, p_error, entries=entries,
                            statistics=stats)
    assert shared.inputs["spread_path"] == "components"
    assert asdict(shared) == asdict(dataset_budget(kernel, EPS, P_SPREAD, P_CA, p_error))
    with pytest.raises(ValueError, match="another kernel or p_error"):
        dataset_budget(kernel, EPS, P_SPREAD, P_CA, 0.01, entries=entries)
    first, second = (_twonorm_kernel(seed) for seed in (1, 2))
    other = entry_budgets(first, EPS, kernel_statistics(first).iqr, P_SPREAD, P_CA, p_error)
    with pytest.raises(ValueError, match="another kernel or p_error"):
        dataset_budget(second, EPS, P_SPREAD, P_CA, p_error, entries=other)
    # the two kernels' own budgets differ, so taking the other's entries
    # would have been a wrong answer, not a harmless one
    assert (dataset_budget(first, EPS, P_SPREAD, P_CA, p_error, entries=other).n_spread
            != dataset_budget(second, EPS, P_SPREAD, P_CA, p_error).n_spread)


def _twonorm_kernel(seed, m=40, n=4):
    subset = select_features(generate_twonorm(m, n_features=n, seed=seed), n)
    return gram_matrix(subset.features, FeatureMapConfig(n, 2, "full"), family="projected",
                       gamma=GAMMA)


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
    assert np.allclose(kappa, kernel.upper, rtol=0, atol=1e-12)
