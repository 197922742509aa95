"""Embedding diagnostics: expressibility and an entanglement proxy.

Expressibility compares the second-moment statistics of the embedded
dataset with the Haar ensemble: the average fourth power of pairwise state
overlaps (i.e. the mean squared fidelity kernel, diagonal included) minus
the Haar value 1 / (2**(n-1) (2**n + 1)). Zero means the data embedding is
indistinguishable from Haar up to the second moment.

Entanglement is measured per qubit as the quantum relative entropy of the
one-qubit reduced state with respect to the maximally mixed state,
S(rho || I/2) = sum lam ln lam + ln 2 over the eigenvalues, averaged over
qubits and data points. It lives in [0, ln 2]; highly entangling maps push
it towards 0.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .feature_map import FeatureMapConfig, block_rows
from .kernels import embedding_matrix, expand, fidelity_gram_values, reduced_component_table
from .statevector import qubit_components

LN2 = float(np.log(2.0))


def haar_second_moment(n_qubits: int) -> float:
    """Haar average of the squared fidelity: 1 / (2**(n-1) (2**n + 1))."""
    return 1.0 / (2.0 ** (n_qubits - 1) * (2.0**n_qubits + 1.0))


def expressibility(points, cfg: FeatureMapConfig, threads: int = 1) -> float:
    """Dataset expressibility estimate.

    Averages |overlap|^4 over all ordered pairs of embedded points,
    including the i = j diagonal, then subtracts the Haar term. Values
    near 0 indicate a 2-design-like embedding.
    """
    amplitudes = embedding_matrix(points, cfg, threads=threads)
    return _expressibility(amplitudes, cfg.n_qubits)


def _expressibility(amplitudes: np.ndarray, n_qubits: int) -> float:
    # the mean of the m x m matrix; (m + 2 sum(upper**2)) / m**2 rounds differently
    fidelities = expand(fidelity_gram_values(amplitudes))
    return float(np.mean(fidelities**2) - haar_second_moment(n_qubits))


def component_relative_entropy(table) -> np.ndarray:
    """S(rho || I/2) in nats for every one-qubit state of a (..., 3)
    component table, from the closed-form eigenvalues
    1/2 +- sqrt((d - 1/2)^2 + re^2 + im^2). Eigenvalues are clamped into
    [0, 1] to absorb numerical dust, 0 ln 0 is taken as 0, and the result
    is clamped into [0, ln 2]."""
    d, re, im = np.moveaxis(np.asarray(table, dtype=float), -1, 0)
    radius = np.sqrt((d - 0.5) ** 2 + re**2 + im**2)
    lo, hi = np.clip(0.5 - radius, 0.0, 1.0), np.clip(0.5 + radius, 0.0, 1.0)
    return np.clip(LN2 + xlogy(lo, lo) + xlogy(hi, hi), 0.0, LN2)


def mean_relative_entropy(points, cfg: FeatureMapConfig, threads: int = 1) -> float:
    """Relative entropy to the maximally mixed state, averaged over the n
    one-qubit reduced states of every embedded point."""
    table = reduced_component_table(points, cfg, threads=threads)
    return float(np.mean(component_relative_entropy(table)))


def embedding_diagnostics(points, cfg: FeatureMapConfig, threads: int = 1) -> tuple[float, float]:
    """(expressibility, mean relative entropy) from one embedding of the
    points: the component table is read off the same amplitude rows, one
    row block at a time, so its temporaries stay block-sized."""
    amplitudes = embedding_matrix(points, cfg, threads=threads)
    step = block_rows(cfg.n_qubits)
    table = np.concatenate([
        qubit_components(amplitudes[start:start + step], cfg.n_qubits)
        for start in range(0, len(amplitudes), step)
    ])
    entropy = float(np.mean(component_relative_entropy(table)))
    return _expressibility(amplitudes, cfg.n_qubits), entropy
