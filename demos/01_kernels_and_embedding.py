"""Embeddings and exact kernel matrices.

Walks through the array API: embedding data points into the rows of an
amplitude matrix, reading fidelity and projected kernel values off Gram
matrices (a pair of points is a two-point Gram matrix), reducing states
to their one-qubit components, and building Gram matrices over a dataset
with their ensemble statistics.
"""

import numpy as np

from qkshots import (
    FeatureMapConfig,
    embedding_matrix,
    generate_twonorm,
    gram_matrix,
    kernel_statistics,
    preprocess,
    qubit_components,
    select_features,
)

# --- single-qubit embedding has a closed form -----------------------------
cfg1 = FeatureMapConfig(n_qubits=1, repetitions=1)
x, y = 0.4, 1.3
kappa = gram_matrix([[x], [y]], cfg1).values[0, 1]
print(f"single-qubit kernel k({x}, {y}) = {kappa:.6f}")
print(f"analytic cos^2(x - y)          = {np.cos(x - y) ** 2:.6f}")

# --- a four-qubit pair, both kernel families -------------------------------
cfg = FeatureMapConfig(n_qubits=4, repetitions=2, entanglement="full")
rng = np.random.default_rng(1)
a, b = rng.normal(size=4), rng.normal(size=4)
states = embedding_matrix([a, b], cfg)  # row i holds point i's amplitudes
print(f"\nfidelity kernel:  {gram_matrix([a, b], cfg).values[0, 1]:.6f}")

population, re, im = qubit_components(states, cfg.n_qubits)[0, 0]
rho = np.array([[population, re + 1j * im], [re - 1j * im, 1.0 - population]])
print("one-qubit reduced state of qubit 0 of a:")
print(np.round(rho, 4))
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
