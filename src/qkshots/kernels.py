"""Exact (infinite-shot) fidelity and projected kernel values and Gram matrices.

The fidelity kernel of two embedded states is their squared overlap. The
projected kernel is a Gaussian of the squared 2-norm differences between
one-qubit reduced density matrices,

    k(x, y) = exp(-gamma * sum_k ||rho_k(x) - rho_k(y)||_2^2),

where for 2x2 Hermitian differences the squared 2-norm equals twice the
sum of squared component differences (population, Re offdiag, Im offdiag).

Ensemble statistics are always taken over the strictly-upper-triangle
entries; the diagonal is identically 1 and carries no information.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zherk

from .feature_map import FeatureMapConfig, embed_batch
from .statevector import ConfigurationError

FIDELITY = "fidelity"
PROJECTED = "projected"
KERNEL_FAMILIES = (FIDELITY, PROJECTED)


def check_family(family: str, name: str = "family") -> str:
    """Return ``family`` if it names a kernel family, else raise a
    ConfigurationError; ``name`` is the field the message reports."""
    if family not in KERNEL_FAMILIES:
        raise ConfigurationError(
            f"{name} must be one of {KERNEL_FAMILIES}, got {family!r}"
        )
    return family


def check_gamma(gamma: float, name: str = "gamma") -> float:
    """Return ``gamma`` if it is > 0, else raise a ConfigurationError;
    ``name`` is the field the message reports."""
    if not gamma > 0:
        raise ConfigurationError(f"{name} must be > 0, got {gamma}")
    return gamma


@dataclass
class KernelMatrix:
    """Symmetric m x m kernel matrix plus the configuration that produced it.

    ``metadata`` records provenance (dataset id, sampling parameters, ...);
    exact and shot-estimated matrices share this container. An exact
    projected matrix also keeps the (m, n, 3) ``component_table`` it was
    built from, so callers need not embed the points again.
    """

    values: np.ndarray
    family: str
    config: FeatureMapConfig
    gamma: float | None = None
    metadata: dict = field(default_factory=dict)
    component_table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_family(self.family)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"kernel matrix must be square, got {vals.shape}")
        if np.max(np.abs(vals - vals.T)) > 1e-10:
            raise ValueError("kernel matrix is not symmetric")
        if np.max(np.abs(np.diag(vals) - 1.0)) > 1e-10:
            raise ValueError("kernel diagonal must equal 1")
        self.values = vals

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def off_diagonal(self) -> np.ndarray:
        """The m(m-1)/2 independent entries (strict upper triangle)."""
        iu = np.triu_indices(self.m, k=1)
        return self.values[iu]


@dataclass(frozen=True)
class KernelStatistics:
    """Summary statistics of the independent kernel entries."""

    mean: float
    std: float
    median: float
    iqr: float
    log_mean: float | None = None  # mean of ln(entries); projected family only


def embedding_matrix(points, cfg: FeatureMapConfig, threads: int = 1) -> np.ndarray:
    """Embed every data point once; rows are statevector amplitudes."""
    return embed_batch(points, cfg, threads=threads)


def reduced_component_table(points, cfg: FeatureMapConfig, threads: int = 1) -> np.ndarray:
    """(m, n_qubits, 3) table of reduced-matrix components per data point.

    The last axis holds (population, Re offdiag, Im offdiag). Amplitudes
    live one row block at a time.
    """
    return embed_batch(points, cfg, components=True, threads=threads)


def _symmetrised(upper: np.ndarray) -> np.ndarray:
    """Mirror the strict upper triangle and set the diagonal to exactly 1."""
    sym = np.triu(upper, k=1)
    sym = sym + sym.T
    np.fill_diagonal(sym, 1.0)
    return sym


def fidelity_gram_values(embeddings: np.ndarray) -> np.ndarray:
    """|<psi_j|psi_i>|^2 for all pairs, bit-exactly symmetric, unit diagonal."""
    # Hermitian rank-k product: only the upper triangle, and no conjugated
    # copy of the (m, 2**n) embeddings
    overlaps = zherk(1.0, np.asarray(embeddings, dtype=complex).T, trans=2)
    values = np.clip(np.abs(overlaps) ** 2, 0.0, 1.0)
    return _symmetrised(values)


def projected_gram_values(table: np.ndarray, gamma: float) -> np.ndarray:
    """Projected-kernel matrix from a component table (m, n, 3)."""
    check_gamma(gamma)
    flat = table.reshape(table.shape[0], -1)
    sq = np.sum(flat**2, axis=1)
    dists = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (flat @ flat.T), 0.0)
    # ||rho_i - rho_j||_2^2 summed over qubits = 2 * squared component distance
    values = np.exp(-2.0 * gamma * dists)
    return _symmetrised(values)


def gram_matrix(
    points,
    cfg: FeatureMapConfig,
    family: str = FIDELITY,
    gamma: float = 1.0,
    threads: int = 1,
) -> KernelMatrix:
    """Exact Gram matrix over a dataset; each distinct encoded point is
    embedded once and reused for all pairs, so points whose first
    ``n_qubits`` features agree have kernel value exactly 1."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 2:
        raise ConfigurationError(f"need at least 2 points, got {points.shape[0]}")
    # distinct encoded rows in order of first appearance, and each point's row
    _, first, inverse = np.unique(
        points[:, : cfg.n_qubits], axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    index = np.argsort(order)[inverse.reshape(-1)]
    distinct = points[first[order]]
    table = None
    if check_family(family) == FIDELITY:
        values = fidelity_gram_values(embedding_matrix(distinct, cfg, threads=threads))
        gamma_out = None
    else:
        table = reduced_component_table(distinct, cfg, threads=threads)
        values = projected_gram_values(table, gamma)
        table = table[index]
        gamma_out = gamma
    return KernelMatrix(
        values=values[np.ix_(index, index)],
        family=family,
        config=cfg,
        gamma=gamma_out,
        component_table=table,
    )


def kernel_statistics(kernel: KernelMatrix) -> KernelStatistics:
    """Mean/std/median/IQR of the independent entries (median and IQR use
    linearly interpolated quantiles). For the projected family the mean of
    ln(entries) is also reported; zero entries yield -inf with a warning."""
    entries = kernel.off_diagonal()
    if entries.size == 0:
        raise ValueError("kernel matrix has no independent entries")
    q25, q50, q75 = np.percentile(entries, [25.0, 50.0, 75.0])
    log_mean = None
    if kernel.family == PROJECTED:
        if np.any(entries == 0.0):
            warnings.warn(
                "projected kernel has zero entries; mean log is -inf",
                RuntimeWarning,
                stacklevel=2,
            )
            log_mean = float("-inf")
        else:
            log_mean = float(np.mean(np.log(entries)))
    return KernelStatistics(
        mean=float(np.mean(entries)),
        std=float(np.std(entries)),
        median=float(q50),
        iqr=float(q75 - q25),
        log_mean=log_mean,
    )
