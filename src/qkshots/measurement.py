"""Finite-shot kernel estimation as binomial sampling.

Each circuit run is a Bernoulli trial: for the fidelity kernel, success
means the encode-decode circuit collapsed back to the vacuum state; for
tomography, success means the measured qubit returned 0 in the chosen
basis. Success probabilities are therefore exact kernel values or
reduced-matrix components, and a batch of N shots is one binomial draw.

Noise enters analytically: with per-run error probability p the state is
replaced by the maximally mixed one, so a success probability q becomes
(1-p) q + p q_mix with q_mix = 2**-n for full-state projection and 1/2 for
a single-qubit marginal. Tomography bits are sampled as independent
per-qubit binomials; every estimator in scope depends only on its own
marginal, so joint bitstring correlations never matter and sampling stays
O(n) per batch.

Sampling draws from the exact kernel of :func:`kernels.gram_matrix`: a
fidelity Gram matrix from its values, a projected one from its component
table. Points whose encoded features agree therefore draw from kappa = 1.

Reproducibility: every draw comes from a generator keyed by
``SeedSequence(entropy=seed, spawn_key=(key,))``. A sampled fidelity Gram
matrix draws row i of its upper triangle, one vectorised binomial, from key
i; a sampled projected one draws point i's (n, 3) basis counts from key i.
Draws run after the embedding, in one thread, so results are bit-identical
for a given seed whatever the thread count.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .kernels import FIDELITY, KernelMatrix, check_family, projected_gram_values
from .statevector import ConfigurationError


def check_p_error(p_error: float) -> None:
    """Raise a ConfigurationError unless ``p_error`` is in [0, 1]."""
    if not 0.0 <= p_error <= 1.0:
        raise ConfigurationError(f"p_error must be in [0, 1], got {p_error}")


def depolarized_fidelity_probability(
    kappa: float, p_error: float, n_qubits: int
) -> float:
    """Success probability of the vacuum projection under depolarising
    noise: (1-p) kappa + p 2**-n."""
    check_p_error(p_error)
    return (1.0 - p_error) * kappa + p_error * 2.0 ** (-n_qubits)


def depolarized_component_probability(q: float, p_error: float) -> float:
    """Single-qubit marginal success probability under depolarising noise:
    (1-p) q + p/2."""
    check_p_error(p_error)
    return (1.0 - p_error) * q + p_error * 0.5


def component_proportions(table, p_error: float = 0.0) -> np.ndarray:
    """Success probabilities of the three tomography bases (z, x, y) of a
    (..., 3) component table, depolarised towards 1/2 by ``p_error``: z
    reads the population, x reads Re offdiag + 1/2 and y reads
    1/2 - Im offdiag."""
    check_p_error(p_error)
    table = np.asarray(table, dtype=float)
    props = np.stack([table[..., 0], table[..., 1] + 0.5, 0.5 - table[..., 2]], axis=-1)
    return depolarized_component_probability(props, p_error) if p_error else props


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    )


def _check_shots(n_shots: int) -> None:
    if n_shots < 1:
        raise ConfigurationError(f"n_shots must be >= 1, got {n_shots}")


def _clip_physical(d, r, i) -> tuple[np.ndarray, np.ndarray]:
    """Project estimated components onto the physical (PSD) set.

    The population is a binomial proportion and already lies in [0, 1]; the
    off-diagonal pair is radially rescaled where it exceeds the PSD radius
    sqrt(d (1-d)). Returns the (..., 3) components and the mask of the
    rescaled estimates.
    """
    d = np.clip(d, 0.0, 1.0)
    radius_sq = d * (1.0 - d)
    coh_sq = r * r + i * i
    outside = coh_sq > radius_sq  # so coh_sq > 0 wherever it is used
    scale = np.where(outside, np.sqrt(radius_sq / np.where(outside, coh_sq, 1.0)), 1.0)
    return np.stack([d, r * scale, i * scale], axis=-1), outside


def _estimated_components(counts, n_shots: int) -> tuple[np.ndarray, np.ndarray]:
    """Physical components from (..., 3) basis counts, and the clip mask;
    inverts :func:`component_proportions` at p_error = 0."""
    z, x, y = np.moveaxis(counts / n_shots, -1, 0)
    return _clip_physical(z, x - 0.5, 0.5 - y)


def total_shots(family: str, m: int, n_shots: int) -> int:
    """Circuit runs needed for a full m-point Gram matrix (m >= 2).

    Fidelity estimates each of the m(m-1)/2 independent entries with
    n_shots runs; projected tomography spends 3 n_shots runs per data
    point."""
    if m < 2:
        raise ConfigurationError(f"need at least 2 points, got {m}")
    _check_shots(n_shots)
    if check_family(family) == FIDELITY:
        return n_shots * m * (m - 1) // 2
    return 3 * m * n_shots


def sample_gram(
    exact: KernelMatrix, n_shots: int = 1024, p_error: float = 0.0, seed: int = 0
) -> KernelMatrix:
    """Finite-shot estimate of the full Gram matrix, drawn from the exact
    kernel ``exact`` that :func:`gram_matrix` built; each run is
    depolarised with probability ``p_error``.

    Fidelity: every upper-triangle entry is sampled independently.
    Projected: each point's tomography is sampled once (per basis), then
    all entries follow by classical post-processing, so estimation errors
    of entries sharing a data point are correlated, exactly as on hardware;
    ``metadata["psd_clipped"]`` counts the (point, qubit) estimates that
    were rescaled onto the physical set. An estimated kernel, or a
    projected one without its component table, raises a ValueError.
    """
    if exact.metadata.get("estimated"):
        raise ValueError("sample_gram draws from an exact kernel, got an estimated one")
    if exact.family != FIDELITY and exact.component_table is None:
        raise ValueError("sampling a projected kernel needs its component table")
    check_p_error(p_error)
    m = exact.m
    metadata = {
        "estimated": True,
        "n_shots": n_shots,
        "p_error": p_error,
        "seed": seed,
        "total_shots": total_shots(exact.family, m, n_shots),
    }
    if exact.family == FIDELITY:
        q = depolarized_fidelity_probability(exact.values, p_error, exact.config.n_qubits)
        values = np.zeros((m, m))
        for i in range(m - 1):
            values[i, i + 1:] = _rng(seed, i).binomial(n_shots, q[i, i + 1:]) / n_shots
        values = values + values.T
        np.fill_diagonal(values, 1.0)
    else:
        # the clip guards rounding dust at the edges
        q = np.clip(component_proportions(exact.component_table, p_error), 0.0, 1.0)
        counts = np.stack([_rng(seed, i).binomial(n_shots, q[i]) for i in range(m)])
        estimated, clipped = _estimated_components(counts, n_shots)
        values = projected_gram_values(estimated, exact.gamma)
        metadata["psd_clipped"] = int(clipped.sum())
    return replace(exact, values=values, metadata=metadata, component_table=None)
