"""Exact (infinite-shot) fidelity and projected kernel values and Gram matrices.

The fidelity kernel of two embedded states is their squared overlap. The
projected kernel is a Gaussian of the squared 2-norm differences between
one-qubit reduced density matrices,

    k(x, y) = exp(-gamma * sum_k ||rho_k(x) - rho_k(y)||_2^2),

where for 2x2 Hermitian differences the squared 2-norm equals twice the
sum of squared component differences (population, Re offdiag, Im offdiag).

A kernel matrix is stored as its packed strict upper triangle, the
m(m-1)/2 entries of the pairs i < j in row-major order; the unit diagonal
carries no information. This module owns that order: :func:`row_blocks`
maps rows [start, end) to their slice of the packed array, and the
builders, draws, budgets, statistics and CSV files all go through it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zherk

from .feature_map import FeatureMapConfig, embed_batch
from .statevector import ConfigurationError

FIDELITY = "fidelity"
PROJECTED = "projected"
KERNEL_FAMILIES = (FIDELITY, PROJECTED)


def check_family(family: str) -> str:
    """Return ``family`` if it names a kernel family, else raise a
    ConfigurationError."""
    if family not in KERNEL_FAMILIES:
        raise ConfigurationError(
            f"family must be one of {KERNEL_FAMILIES}, got {family!r}"
        )
    return family


def check_gamma(gamma: float, name: str = "gamma") -> float:
    """Return ``gamma`` if it is > 0, else raise a ConfigurationError;
    ``name`` is the field the message reports."""
    if not gamma > 0:
        raise ConfigurationError(f"{name} must be > 0, got {gamma}")
    return gamma


# cells per block of whole rows when packing or expanding a triangle
ROW_BLOCK_CELLS = 2**16


def _row_start(m: int, i):
    """Index of pair (i, i + 1), the first of row i, in the packed triangle
    of an m x m matrix; ``i`` may be an array."""
    return i * (2 * m - i - 1) // 2


def row_blocks(m: int, rows: int):
    """Blocks of ``rows`` whole rows of the strict upper triangle of an
    m x m matrix, as (start, end, part): rows [start, end) are the entries
    ``part`` of the packed triangle, which holds the pairs i < j in
    row-major order. An m of 1 gives one empty block."""
    for start in range(0, max(m - 1, 1), rows):
        end = min(start + rows, m - 1)
        yield start, end, slice(_row_start(m, start), _row_start(m, end))


def pair_indices(m: int, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs of rows [start, end) of the packed
    triangle, in its order."""
    first = np.arange(start, end)
    i = np.repeat(first, m - 1 - first)
    return i, np.arange(_row_start(m, start), _row_start(m, end)) - _row_start(m, i) + i + 1


def pack(m: int, block, finish=None) -> np.ndarray:
    """The packed strict upper triangle of an m x m matrix. ``block(start,
    end)`` returns its rows [start, end) over the columns [start + 1, m);
    ``finish``, if given, maps the packed entries of each block elementwise."""
    upper = np.empty(m * (m - 1) // 2)
    for start, end, part in row_blocks(m, max(1, ROW_BLOCK_CELLS // m)):
        entries = block(start, end)[np.arange(m - start - 1) >= np.arange(end - start)[:, None]]
        upper[part] = entries if finish is None else finish(entries)
    return upper


def _point_count(pairs: int) -> int | None:
    """The m with m(m-1)/2 = ``pairs``, or None when ``pairs`` is not a
    triangular number (0 gives 1)."""
    m = (1 + math.isqrt(1 + 8 * pairs)) // 2
    return m if m * (m - 1) // 2 == pairs else None


def expand(upper: np.ndarray, rows=None) -> np.ndarray:
    """Rows ``rows`` (indices, all by default) of the symmetric,
    unit-diagonal m x m matrix whose packed strict upper triangle is
    ``upper``, in blocks of rows. A block gathers its cells left of its
    last row's diagonal; then each row i copies its columns j > i from
    their contiguous slice of ``upper``."""
    m = _point_count(upper.size)
    rows = np.arange(m) if rows is None else np.asarray(rows)
    out = np.empty((len(rows), m))
    # pair (k, i), k < i, sits at base[k] + i; other cells get a wrapped
    # index, and the row copies and the 1 below overwrite them
    cols = np.arange(m)
    base = _row_start(m, cols) - cols - 1
    step = max(1, ROW_BLOCK_CELLS // m)
    for first in range(0, len(rows), step):
        block, indices = out[first:first + step], rows[first:first + step]
        width = indices.max()
        upper.take(base[:width] + indices[:, None], mode="wrap", out=block[:, :width])
        for row, i in zip(block, indices.tolist()):
            row[i + 1:] = upper[_row_start(m, i):_row_start(m, i + 1)]
            row[i] = 1.0
    return out


@dataclass
class KernelMatrix:
    """Kernel matrix of m points plus the configuration that produced it.

    ``upper`` holds the m(m-1)/2 entries of pairs i < j in row-major order
    (:func:`row_blocks`); the matrix is symmetric with a unit diagonal by
    construction, and every entry lies in [0, 1]. ``values`` builds the
    m x m matrix on each read. ``metadata`` records provenance (dataset id,
    sampling parameters, ...); exact and shot-estimated matrices share this
    container. An exact projected matrix also keeps the (m, n_qubits, 3)
    ``component_table`` it was built from, so callers need not embed the
    points again; a table of any other shape is refused.
    """

    upper: np.ndarray
    family: str
    config: FeatureMapConfig
    gamma: float | None = None
    metadata: dict = field(default_factory=dict)
    component_table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_family(self.family)
        upper = np.asarray(self.upper, dtype=float)
        if upper.ndim != 1 or _point_count(upper.size) is None:
            raise ValueError(f"kernel entries must be a 1-D packed triangle of m(m-1)/2 "
                             f"values, got shape {upper.shape}")
        # min and max are NaN when any entry is, so NaN is refused too
        if upper.size and not (upper.min() >= 0.0 and upper.max() <= 1.0):
            raise ValueError("kernel entries must lie in [0, 1]")
        self.upper = upper
        shape, expected = np.shape(self.component_table), (self.m, self.config.n_qubits, 3)
        if self.component_table is not None and shape != expected:
            raise ValueError(f"component table has shape {shape}, expected {expected}")

    @property
    def m(self) -> int:
        return _point_count(self.upper.size)

    @property
    def values(self) -> np.ndarray:
        """The m x m matrix, built from ``upper`` on each read."""
        return expand(self.upper)


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


def fidelity_gram_values(embeddings: np.ndarray) -> np.ndarray:
    """|<psi_i|psi_j>|^2 of every pair i < j, packed (:func:`pack`)."""
    # Hermitian rank-k product: only the upper triangle, and no conjugated
    # copy of the (m, 2**n) embeddings
    overlaps = zherk(1.0, np.asarray(embeddings, dtype=complex).T, trans=2)
    return pack(len(overlaps), lambda start, end: overlaps[start:end, start + 1:],
                lambda entries: np.clip(np.abs(entries) ** 2, 0.0, 1.0))


def projected_gram_values(table: np.ndarray, gamma: float) -> np.ndarray:
    """Projected-kernel entries of every pair i < j of a component table
    (m, n, 3), packed (:func:`pack`)."""
    check_gamma(gamma)
    flat = table.reshape(table.shape[0], -1)
    sq = np.sum(flat**2, axis=1)
    products = flat @ flat.T
    # ||rho_i - rho_j||_2^2 summed over qubits = 2 * squared component distance
    return pack(
        len(flat),
        lambda start, end: (sq[start:end, None] + sq[None, start + 1:])
        - 2.0 * products[start:end, start + 1:],
        lambda dists: np.exp(-2.0 * gamma * np.maximum(dists, 0.0)),
    )


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
    m = points.shape[0]
    if m < 2:
        raise ConfigurationError(f"need at least 2 points, got {m}")
    # distinct encoded rows in order of first appearance, and each point's row
    _, first, inverse = np.unique(
        points[:, : cfg.n_qubits], axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    index = np.argsort(order)[inverse.reshape(-1)]
    distinct = points[first[order]]
    table = None
    if check_family(family) == FIDELITY:
        upper = fidelity_gram_values(embedding_matrix(distinct, cfg, threads=threads))
        gamma_out = None
    else:
        table = reduced_component_table(distinct, cfg, threads=threads)
        upper = projected_gram_values(table, gamma)
        gamma_out = gamma
    if len(distinct) < m:  # gather the entries of each point's distinct row
        packed = upper
        upper = pack(m, lambda start, end: expand(packed, index[start:end])[:, index[start + 1:]])
        table = None if table is None else table[index]
    return KernelMatrix(upper, family, cfg, gamma=gamma_out, component_table=table)


def kernel_statistics(kernel: KernelMatrix) -> KernelStatistics:
    """Mean/std/median/IQR of the independent entries (median and IQR use
    linearly interpolated quantiles). For the projected family the mean of
    ln(entries) is also reported; zero entries yield -inf with a warning."""
    entries = kernel.upper
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
