"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantities (run with ``pytest -s`` to see
them). Stated runtime budgets are asserted as hard limits."""

import math
import time

import numpy as np
import pytest

from qkshots import (
    FeatureMapConfig,
    HardwareProfile,
    fit_exponential,
    generate_random_angles,
    generate_twonorm,
    gram_matrix,
    kernel_statistics,
    logical_error_rate,
    mean_relative_entropy,
    n_ca_binomial_exact,
    n_ca_fq,
    n_ca_noisy_binomial_exact,
    n_ca_noisy_fq,
    n_ca_noisy_pq_normal,
    n_ca_pq_normal,
    n_spread_fq,
    preprocess,
    qubit_components,
    select_features,
    stratify,
    total_shots,
)

from oracles import components_to_matrix, dense_partial_trace


def _elapsed_guard(start, limit_s, label):
    elapsed = time.monotonic() - start
    assert elapsed < limit_s, f"{label} took {elapsed:.1f}s, budget {limit_s}s"
    return elapsed


def test_criterion_01_closed_form_kernel():
    """Single-qubit fidelity kernel equals cos^2 of the angle difference."""
    start = time.monotonic()
    cfg = FeatureMapConfig(n_qubits=1, repetitions=1)
    grid = np.linspace(-np.pi, np.pi, 100)
    kernel = gram_matrix(grid[:, None], cfg)
    assert kernel.values.shape == (100, 100)
    worst = float(np.max(np.abs(kernel.values - np.cos(grid[:, None] - grid[None, :]) ** 2)))
    assert worst < 1e-10
    elapsed = _elapsed_guard(start, 1.0, "criterion 1")
    print(f"criterion 1 PASS: closed-form kernel, max error {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_02_haar_scaling():
    """Scrambling embedding reproduces the 2^-n mean-kernel decay."""
    start = time.monotonic()
    ns = list(range(2, 10))
    means = []
    for n in ns:
        data = generate_random_angles(200, n, seed=1000 + n)
        cfg = FeatureMapConfig(n_qubits=n, repetitions=6, entanglement="full")
        kernel = gram_matrix(data.features, cfg)
        means.append(kernel_statistics(kernel).mean)
    fit = fit_exponential(ns, means)
    assert fit.r_squared >= 0.99
    assert -1.2 <= fit.alpha <= -0.8
    elapsed = _elapsed_guard(start, 300.0, "criterion 2")
    print(
        f"criterion 2 PASS: mean-kernel decay alpha {fit.alpha:.3f} "
        f"(R^2 {fit.r_squared:.5f}, drop {fit.dropped_prefix}) ({elapsed:.1f}s)"
    )


def test_criterion_03_twonorm_scaling_exponents():
    """Generated two-Gaussian benchmark reproduces the reference decay
    exponents for the median and IQR (linear entanglement, one repetition)."""
    start = time.monotonic()
    dataset = preprocess(generate_twonorm(7400, n_features=20, seed=7))
    subsets = stratify(dataset, subset_size=100, seed=11)[:5]
    ns = list(range(2, 11))
    alpha_m, alpha_iqr = [], []
    for subset in subsets:
        medians, iqrs = [], []
        for n in ns:
            sel = select_features(subset, n)
            cfg = FeatureMapConfig(n_qubits=n, repetitions=1, entanglement="linear")
            stats = kernel_statistics(gram_matrix(sel.features, cfg))
            medians.append(stats.median)
            iqrs.append(stats.iqr)
        fit_m = fit_exponential(ns, medians)
        fit_i = fit_exponential(ns, iqrs)
        assert fit_m.r_squared >= 0.99, f"median fit R^2 {fit_m.r_squared:.4f}"
        assert fit_i.r_squared >= 0.99, f"IQR fit R^2 {fit_i.r_squared:.4f}"
        alpha_m.append(-fit_m.alpha)
        alpha_iqr.append(-fit_i.alpha)
    mean_m = float(np.mean(alpha_m))
    mean_iqr = float(np.mean(alpha_iqr))
    assert abs(mean_m - 1.22) <= 0.25
    assert abs(mean_iqr - 1.16) <= 0.25
    elapsed = _elapsed_guard(start, 900.0, "criterion 3")
    print(
        f"criterion 3 PASS: mean decay exponents median {mean_m:.3f} "
        f"(target 1.22 +- 0.25), IQR {mean_iqr:.3f} (target 1.16 +- 0.25) "
        f"({elapsed:.1f}s)"
    )


def test_criterion_04_chebyshev_spread_coverage():
    """Spread-bound shot counts keep the deviation rate within budget."""
    start = time.monotonic()
    eps, delta, p_spread = 0.5, 0.2, 0.9
    reps = 10_000
    rates = {}
    for kappa in (0.1, 0.3, 0.5):
        n = int(n_spread_fq(kappa, eps, delta, p_spread))
        rng = np.random.default_rng(404)
        estimates = rng.binomial(n, kappa, size=reps) / n
        violation = float(np.mean(np.abs(estimates - kappa) >= eps * delta))
        rates[kappa] = (n, violation)
        assert violation <= (1 - p_spread) + 0.01
    elapsed = _elapsed_guard(start, 60.0, "criterion 4")
    summary = ", ".join(
        f"kappa={k}: N={n}, rate={v:.4f}" for k, (n, v) in rates.items()
    )
    print(f"criterion 4 PASS: spread coverage ({summary}) ({elapsed:.1f}s)")


def test_criterion_05_concentration_avoidance_coverage():
    """CA shot counts give at least one success with the target probability,
    and one shot fewer misses it (minimality)."""
    start = time.monotonic()
    reps = 10_000
    results = {}
    for m_true in (2.0**-4, 2.0**-8):
        n = int(n_ca_fq(m_true, 0.99))
        rng = np.random.default_rng(505)
        successes = rng.binomial(n, m_true, size=reps) > 0
        rate = float(np.mean(successes))
        results[m_true] = (n, rate)
        assert rate >= 0.99 - 0.003
    # minimality at m = 2^-4: with N - 1 shots the guarantee breaks
    n_minus = int(n_ca_fq(2.0**-4, 0.99)) - 1
    exact_rate = -math.expm1(n_minus * math.log1p(-(2.0**-4)))
    assert exact_rate < 0.99
    rng = np.random.default_rng(506)
    empirical = float(np.mean(rng.binomial(n_minus, 2.0**-4, size=reps) > 0))
    assert empirical < 0.99
    elapsed = _elapsed_guard(start, 60.0, "criterion 5")
    summary = ", ".join(f"m=2^{int(np.log2(m))}: N={n}, rate={r:.4f}"
                        for m, (n, r) in results.items())
    print(
        f"criterion 5 PASS: CA coverage ({summary}); N-1 rate "
        f"{empirical:.4f} < 0.99 (exact {exact_rate:.5f}) ({elapsed:.1f}s)"
    )


def test_criterion_06_exact_vs_normal_bound():
    """Exact binomial CA bound agrees with the z-score approximation."""
    start = time.monotonic()
    exact = int(n_ca_binomial_exact(0.55, 0.5, 0.9772))
    normal = int(n_ca_pq_normal(0.55, 0.5, 0.9772))
    assert abs(exact - normal) <= 0.1 * normal
    elapsed = _elapsed_guard(start, 1.0, "criterion 6")
    print(
        f"criterion 6 PASS: exact CA bound {exact} vs normal {normal} "
        f"({100 * abs(exact - normal) / normal:.1f}% apart) ({elapsed:.2f}s)"
    )


def test_criterion_07_noisy_bounds_reduce_at_zero_error():
    """Every noise-parameterised bound collapses to its noiseless twin at
    zero error probability."""
    start = time.monotonic()
    rng = np.random.default_rng(707)
    checked = 0
    while checked < 50:
        kappa = float(rng.uniform(0.01, 0.95))
        p_ca = float(rng.uniform(0.5, 0.995))
        n_qubits = int(rng.integers(1, 9))
        q = float(rng.uniform(0.05, 0.95))
        if abs(q - 0.5) < 0.02:
            continue
        assert n_ca_noisy_fq(kappa, p_ca, 0.0, n_qubits) == n_ca_fq(kappa, p_ca)
        assert n_ca_noisy_pq_normal(q, 0.5, p_ca, 0.0) == n_ca_pq_normal(q, 0.5, p_ca)
        assert n_ca_noisy_binomial_exact(q, 0.5, p_ca, 0.0) == n_ca_binomial_exact(
            q, 0.5, p_ca
        )
        checked += 1
    elapsed = _elapsed_guard(start, 1.0, "criterion 7")
    print(f"criterion 7 PASS: {checked} zero-noise reductions exact ({elapsed:.2f}s)")


def test_criterion_08_partial_trace_oracle():
    """The one-qubit reduction of the batched embedding matches the dense
    partial-trace oracle."""
    start = time.monotonic()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        k = int(rng.integers(n))
        fast = components_to_matrix(qubit_components(amps[None], n)[0, k])
        dense = dense_partial_trace(amps, n, k)
        worst = max(worst, float(np.max(np.abs(fast - dense))))
    assert worst < 1e-10
    elapsed = _elapsed_guard(start, 30.0, "criterion 8")
    print(f"criterion 8 PASS: partial-trace max deviation {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_09_entanglement_strategy_signature():
    """Full connectivity drives the one-qubit marginals exponentially
    towards maximally mixed; the chain strategy does not."""
    start = time.monotonic()
    dataset = preprocess(generate_twonorm(7400, n_features=20, seed=7))
    subset = stratify(dataset, subset_size=100, seed=11)[0]
    ns = list(range(2, 11))
    values = {}
    for strategy in ("full", "linear"):
        series = []
        for n in ns:
            sel = select_features(subset, n)
            cfg = FeatureMapConfig(n_qubits=n, repetitions=2, entanglement=strategy)
            series.append(mean_relative_entropy(sel.features, cfg))
        values[strategy] = series
    fit_full = fit_exponential(ns, values["full"])
    assert fit_full.valid, f"full-strategy fit R^2 {fit_full.r_squared:.4f}"
    assert fit_full.alpha < -0.2
    ratio = values["linear"][-1] / values["full"][-1]
    assert ratio >= 2.0
    elapsed = _elapsed_guard(start, 600.0, "criterion 9")
    print(
        f"criterion 9 PASS: full-strategy decay alpha {fit_full.alpha:.3f} "
        f"(R^2 {fit_full.r_squared:.4f}); linear/full at n=10: {ratio:.0f}x "
        f"({elapsed:.1f}s)"
    )


def test_criterion_10_resource_model_spot_values():
    """Surface-code and shot-count constants match their sources."""
    start = time.monotonic()
    # exact up to floating-point representation of the decimal constants
    # (the computed value differs from the literal 3e-5 by 2 ulp)
    assert logical_error_rate(5, 1e-3) == pytest.approx(3e-5, rel=1e-15)
    assert total_shots("fidelity", 100, 1000) == 4_950_000
    assert total_shots("projected", 100, 1000) == 300_000
    assert HardwareProfile().power_per_qubit_w == 0.030
    elapsed = _elapsed_guard(start, 1.0, "criterion 10")
    print(
        "criterion 10 PASS: logical error rate 3e-5, shot totals "
        f"4950000/300000, power 0.030 W per qubit ({elapsed:.2f}s)"
    )
