"""Embeddings and exact kernel matrices.

Walks through the basic objects: embedding a data point into a
statevector, evaluating fidelity and projected kernel values (a projected
pair is a two-point Gram matrix), and building Gram matrices with their
ensemble statistics.
"""

import numpy as np

from qkshots import (
    FeatureMapConfig,
    embed,
    fidelity_kernel,
    generate_twonorm,
    gram_matrix,
    kernel_statistics,
    preprocess,
    reduce_to_qubit,
    select_features,
)

# --- single-qubit embedding has a closed form -----------------------------
cfg1 = FeatureMapConfig(n_qubits=1, repetitions=1)
x, y = 0.4, 1.3
kappa = fidelity_kernel(embed([x], cfg1), embed([y], cfg1))
print(f"single-qubit kernel k({x}, {y}) = {kappa:.6f}")
print(f"analytic cos^2(x - y)          = {np.cos(x - y) ** 2:.6f}")

# --- a four-qubit pair, both kernel families -------------------------------
cfg = FeatureMapConfig(n_qubits=4, repetitions=2, entanglement="full")
rng = np.random.default_rng(1)
a, b = rng.normal(size=4), rng.normal(size=4)
state_a, state_b = embed(a, cfg), embed(b, cfg)
print(f"\nfidelity kernel:  {fidelity_kernel(state_a, state_b):.6f}")

print("one-qubit reduced state of qubit 0 of a:")
print(np.round(reduce_to_qubit(state_a, 0).entries, 4))
for gamma in (0.5, 1.0, 2.0):
    pair = gram_matrix([a, b], cfg, family="projected", gamma=gamma)
    print(f"projected kernel (gamma={gamma}): {pair.values[0, 1]:.6f}")

# --- Gram matrices over a small dataset ------------------------------------
dataset = select_features(preprocess(generate_twonorm(30, seed=5)), 4)
for family in ("fidelity", "projected"):
    kernel = gram_matrix(dataset.features, cfg, family=family, gamma=1.0)
    stats = kernel_statistics(kernel)
    eigmin = np.linalg.eigvalsh(kernel.values).min()
    print(f"\n{family} Gram over {kernel.m} points:")
    print(f"  median {stats.median:.4f}, IQR {stats.iqr:.4f}, "
          f"mean {stats.mean:.4f}, std {stats.std:.4f}")
    print(f"  min eigenvalue {eigmin:.2e} (positive semidefinite)")
