"""Batched reference simulation for the output checks.

Written apart from ``src/qkshots``: a whole batch of points is simulated at
once with an explicit butterfly Hadamard transform, and the one-qubit
reductions are read straight off the amplitude blocks. The self-test in
``bench/tests`` compares it with the dense oracles of ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def prepared_features(features: np.ndarray) -> np.ndarray:
    """Standardise each column and order columns by decreasing raw variance
    (stable), the preprocessing the CLI applies to a CSV dataset."""
    features = np.asarray(features, dtype=float)
    variances = features.var(axis=0)
    scaled = (features - features.mean(axis=0)) / features.std(axis=0)
    return scaled[:, np.argsort(-variances, kind="stable")]


def _hadamard_all(psi: np.ndarray, n: int) -> np.ndarray:
    m = psi.shape[0]
    for k in range(n):
        blocks = psi.reshape(m, 2 ** (n - 1 - k), 2, 2**k)
        lo, hi = blocks[:, :, 0, :], blocks[:, :, 1, :]
        psi = np.stack((lo + hi, lo - hi), axis=2).reshape(m, -1) * _INV_SQRT2
    return psi


def states(points: np.ndarray, n: int, repetitions: int = 2) -> np.ndarray:
    """(m, 2**n) amplitudes of the full-entanglement ZZ-style embedding of
    the first ``n`` features of every point."""
    x = np.asarray(points, dtype=float)[:, :n]
    basis = np.arange(2**n)
    z = np.where((basis[None, :] >> np.arange(n)[:, None]) & 1, -1.0, 1.0)
    phase = x @ z
    for i in range(n):
        for j in range(i + 1, n):
            phase += np.outer((math.pi - x[:, i]) * (math.pi - x[:, j]), z[i] * z[j])
    rotation = np.exp(1j * phase)
    psi = np.zeros((x.shape[0], 2**n), dtype=complex)
    psi[:, 0] = 1.0
    for _ in range(repetitions):
        psi = _hadamard_all(psi, n) * rotation
    return psi


def components(psi: np.ndarray, n: int) -> np.ndarray:
    """(m, n, 3) one-qubit reductions: (|0> population, Re, Im of the
    off-diagonal entry) per qubit."""
    m = psi.shape[0]
    out = np.empty((m, n, 3))
    for k in range(n):
        blocks = psi.reshape(m, 2 ** (n - 1 - k), 2, 2**k)
        zero, one = blocks[:, :, 0, :], blocks[:, :, 1, :]
        out[:, k, 0] = np.sum(np.abs(zero) ** 2, axis=(1, 2))
        coherence = np.sum(zero * one.conj(), axis=(1, 2))
        out[:, k, 1] = coherence.real
        out[:, k, 2] = coherence.imag
    return out


def fidelity_kernel(psi: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """|<psi_j|psi_i>|^2 between the rows of ``psi`` and ``other``."""
    other = psi if other is None else other
    return np.abs(psi @ other.conj().T) ** 2


def projected_kernel(comps: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """exp(-gamma D_ij) with D_ij = sum_k ||rho_k(i) - rho_k(j)||_2^2, which is
    twice the squared distance of the component rows."""
    diff = comps[:, None, :, :] - comps[None, :, :, :]
    return np.exp(-gamma * 2.0 * np.sum(diff**2, axis=(2, 3)))


def chunked(points: np.ndarray, n: int, rows, chunk: int = 16):
    """Components of every point plus fidelity values of the given rows
    against all points, simulating ``chunk`` points at a time so that wide
    states never sit in memory together."""
    rows = list(rows)
    pinned = states(points[rows], n)
    comps, fids = [], []
    for start in range(0, points.shape[0], chunk):
        psi = states(points[start:start + chunk], n)
        comps.append(components(psi, n))
        fids.append(fidelity_kernel(pinned, psi))
    return np.concatenate(comps), np.concatenate(fids, axis=1)


def relative_entropy(comps: np.ndarray) -> float:
    """Mean over points and qubits of S(rho || I/2) in nats."""
    d, re, im = comps[..., 0], comps[..., 1], comps[..., 2]
    radius = np.sqrt((d - 0.5) ** 2 + re**2 + im**2)
    total = np.full(d.shape, math.log(2.0))
    for lam in (0.5 - radius, 0.5 + radius):
        lam = np.clip(lam, 0.0, 1.0)
        total += lam * np.log(np.where(lam > 0.0, lam, 1.0))  # 0 ln 0 = 0
    return float(np.mean(np.clip(total, 0.0, math.log(2.0))))


def haar_second_moment(n: int) -> float:
    return 1.0 / (2.0 ** (n - 1) * (2.0**n + 1.0))
