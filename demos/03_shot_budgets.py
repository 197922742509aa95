"""Shot-count bounds: how many circuit runs does a useful estimate need?

Two effects drive the requirement. The spread bound keeps single-entry
uncertainty below a fraction of the ensemble spread (IQR); the
concentration-avoidance bound keeps the measured proportion on the
correct side of the value the kernels concentrate to (0 for fidelity,
1/2 for tomography proportions). The run budget is the larger of the two,
and depolarising noise tightens both.
"""

import numpy as np

from qkshots import (
    FeatureMapConfig,
    dataset_budget,
    error_budget,
    generate_twonorm,
    gram_matrix,
    kernel_statistics,
    n_ca_fq,
    n_spread_fq,
    preprocess,
    select_features,
)

# --- single-entry bounds ----------------------------------------------------
print("single fidelity entry, eps=1, IQR=0.1, p_spread=0.9, p_ca=0.99:")
for kappa in (0.5, 0.1, 0.01, 0.001):
    ns = n_spread_fq(kappa, eps=1.0, delta_ensemble=0.1, p_spread=0.9)
    nc = n_ca_fq(kappa, p_ca=0.99)
    print(f"  kappa = {kappa:<6}: N_spread = {int(ns):>6}, N_ca = {int(nc):>6}, "
          f"required = {max(int(ns), int(nc)):>6}")

# --- dataset-level budgets from kernel statistics ---------------------------
n = 6
cfg = FeatureMapConfig(n_qubits=n, repetitions=2, entanglement="full")
data = select_features(preprocess(generate_twonorm(100, seed=9)), n)

for family in ("fidelity", "projected"):
    kernel = gram_matrix(data.features, cfg, family=family, gamma=1.0)
    stats = kernel_statistics(kernel)
    clean = dataset_budget(kernel, eps=1.0, p_spread=0.9, p_ca=0.99)
    noisy = dataset_budget(kernel, eps=1.0, p_spread=0.9, p_ca=0.99, p_error=0.05)
    print(f"\n{family} dataset budget at n={n} "
          f"(median {stats.median:.4f}, IQR {stats.iqr:.4f}):")
    print(f"  noiseless: spread {clean.n_spread}, ca {clean.n_ca}, "
          f"required {clean.n_required} (dominant: {clean.effect_dominant})")
    print(f"  p=0.05:    spread {noisy.n_spread}, ca {noisy.n_ca}, "
          f"required {noisy.n_required}")

    budget = error_budget(family, stats.median, 1.0, stats.iqr, n_qubits=n)
    print(f"  per-run error budget p_max = {budget.p_max:.4g}"
          + (" (unconstrained)" if budget.unconstrained else ""))
