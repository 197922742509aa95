"""Finite-shot kernel estimation and the effect of depolarising noise.

Every kernel entry is a binomial proportion: N circuit runs give an
estimate with standard error sqrt(q (1 - q) / N). This script samples
Gram matrices at increasing shot counts and shows the error shrinking
like 1/sqrt(N), then switches noise on and shows the systematic bias
towards the maximally mixed value.
"""

import numpy as np

from qkshots import (
    FeatureMapConfig,
    generate_twonorm,
    gram_matrix,
    preprocess,
    sample_gram,
    select_features,
)

cfg = FeatureMapConfig(n_qubits=4, repetitions=1, entanglement="full")
dataset = select_features(preprocess(generate_twonorm(20, seed=3)), 4)
exact = gram_matrix(dataset.features, cfg)

print("shot count vs worst-case entry error (noiseless):")
for n_shots in (100, 1_000, 10_000, 100_000):
    sampled = sample_gram(exact, n_shots=n_shots, seed=8)
    worst = np.max(np.abs(sampled.values - exact.values))
    print(f"  N = {n_shots:>7}: max |error| = {worst:.5f}   "
          f"(binomial scale {0.5 / np.sqrt(n_shots):.5f}), "
          f"total runs {sampled.metadata['total_shots']}")

print("\ndepolarising noise shifts estimates towards 2^-n "
      "(one qubit: 1/2; kappa = cos^2(x - y) = 0.6):")
kappa_true, k = 0.6, 15
one_qubit = FeatureMapConfig(n_qubits=1)
# k copies of x = 0 and of y = arccos(sqrt(kappa)): k^2 entries of value kappa
points = [[0.0]] * k + [[np.arccos(np.sqrt(kappa_true))]] * k
pair_kernel = gram_matrix(points, one_qubit)
for p_error in (0.0, 0.1, 0.3):
    noisy = sample_gram(pair_kernel, n_shots=2_000, p_error=p_error, seed=5)
    mean = noisy.values[:k, k:].mean()
    expected = (1 - p_error) * kappa_true + p_error * 0.5
    print(f"  p = {p_error:.1f}: mean estimate {mean:.4f}, "
          f"depolarised value {expected:.4f}")

print("\nprojected kernels sample one tomography per point, so entries that "
      "share a point are correlated:")
pq_exact = gram_matrix(dataset.features, cfg, family="projected")
pq_sampled = sample_gram(pq_exact, n_shots=4_096, seed=21)
worst = np.max(np.abs(pq_sampled.values - pq_exact.values))
print(f"  N = 4096 per basis: max |error| = {worst:.5f}, "
      f"total runs {pq_sampled.metadata['total_shots']}")
