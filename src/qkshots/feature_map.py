"""Data embedding circuit: Hadamard layers plus data-dependent Z phases.

One repetition applies a Hadamard on every qubit followed by a diagonal
phase built from single-qubit angles ``x_i`` and pair angles
``(pi - x_i) * (pi - x_j)``, with the pair set chosen by the entanglement
strategy. The whole block is repeated ``repetitions`` times. The map
carries no trainable parameters; it is a function of the data alone.

A data point is a plain 1-D float array with at least ``n_qubits`` finite
entries; only the first ``n_qubits`` features are encoded.

All points are simulated together: one matmul of the (m, n + P) angle
table with the (n + P, 2**n) Z-sign table gives every point's phases, and
the Hadamard layers run as Kronecker-factored Walsh-Hadamard transforms
(a few real matrix products each) over fixed row blocks of the (m, 2**n)
amplitude batch.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .statevector import (
    ConfigurationError,
    StateVector,
    check_qubit_count,
    qubit_components,
    walsh_hadamard,
)

LINEAR = "linear"
FULL = "full"
ENTANGLEMENT_STRATEGIES = (LINEAR, FULL)

# amplitudes per row block of the batched path (2 MB of complex128); blocks
# of 2**15 to 2**18 embedded 14 qubits equally fast, and larger blocks raise
# peak memory by their per-thread temporaries
ROW_BLOCK_AMPLITUDES = 2**17


def block_rows(n_qubits: int) -> int:
    """Rows per block of the batched path: ``ROW_BLOCK_AMPLITUDES`` amplitudes,
    and at least one row."""
    return max(1, ROW_BLOCK_AMPLITUDES >> n_qubits)


@dataclass(frozen=True)
class FeatureMapConfig:
    """Shape of the embedding circuit: width, depth and pair connectivity."""

    n_qubits: int
    repetitions: int = 1
    entanglement: str = LINEAR

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ConfigurationError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.repetitions < 1:
            raise ConfigurationError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        if self.entanglement not in ENTANGLEMENT_STRATEGIES:
            raise ConfigurationError(
                f"entanglement must be one of {ENTANGLEMENT_STRATEGIES}, "
                f"got {self.entanglement!r}"
            )

    def pair_indices(self) -> list[tuple[int, int]]:
        """Qubit pairs coupled by the strategy: the chain (i, i+1) for
        'linear', all unordered pairs for 'full'."""
        n = self.n_qubits
        if self.entanglement == LINEAR:
            return [(i, i + 1) for i in range(n - 1)]
        return [(i, j) for i in range(n) for j in range(i + 1, n)]


def angle_table(points, cfg: FeatureMapConfig) -> np.ndarray:
    """(m, n + P) rotation angles of m data points: ``x_i`` for each of the
    n qubits, then ``(pi - x_i) * (pi - x_j)`` for each of the P coupled
    pairs in :meth:`FeatureMapConfig.pair_indices` order."""
    n = cfg.n_qubits
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if x.shape[1] < n:
        raise ValueError(
            f"data point has {x.shape[1]} features, need at least {n}"
        )
    x = x[:, :n]
    if not np.all(np.isfinite(x)):
        raise ValueError("data point contains non-finite features")
    i, j = np.array(cfg.pair_indices(), dtype=int).reshape(-1, 2).T
    return np.concatenate([x, (np.pi - x[:, i]) * (np.pi - x[:, j])], axis=1)


def sign_table(cfg: FeatureMapConfig) -> np.ndarray:
    """(n + P, 2**n) Z eigenvalues matching :func:`angle_table`: ``z_i(b)``
    for each qubit, then ``z_i(b) z_j(b)`` for each coupled pair, where
    ``z_i(b) = +1`` when bit ``i`` of ``b`` is 0."""
    n = cfg.n_qubits
    bits = (np.arange(2**n)[None, :] >> np.arange(n)[:, None]) & 1
    z = 1.0 - 2.0 * bits
    i, j = np.array(cfg.pair_indices(), dtype=int).reshape(-1, 2).T
    return np.concatenate([z, z[i] * z[j]])


def embed_batch(
    points, cfg: FeatureMapConfig, components: bool = False,
    cap: int | None = None, threads: int = 1,
) -> np.ndarray:
    """Embed every data point, one fixed row block at a time.

    Returns the (m, 2**n) amplitude matrix, or with ``components`` the
    (m, n, 3) table of :func:`qubit_components`, for which amplitudes live
    one block at a time. Blocks go to ``threads`` pool threads; their
    boundaries depend on (m, n) only, so results are bit-identical for any
    thread count.
    """
    angles = angle_table(points, cfg)
    check_qubit_count(cfg.n_qubits, cap)
    signs = sign_table(cfg)
    m, n = angles.shape[0], cfg.n_qubits
    out = np.empty((m, n, 3)) if components else np.empty((m, 2**n), dtype=complex)
    step = block_rows(n)

    def one(start: int) -> None:
        rows = slice(start, start + step)
        # H|0...0> is the uniform superposition, so the first repetition is
        # the scaled rotation itself; the 2**(-n/2) of later Hadamard layers
        # rides on the rotation too
        rotation = np.exp(1j * (angles[rows] @ signs)) * 2.0 ** (-n / 2)
        amps = np.empty_like(rotation) if components else out[rows]
        amps[...] = rotation
        for _ in range(cfg.repetitions - 1):
            walsh_hadamard(amps, n)
            amps *= rotation
        if components:
            out[rows] = qubit_components(amps, n)

    starts = range(0, m, step)
    if threads <= 1 or len(starts) <= 1:
        for start in starts:
            one(start)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, starts))  # re-raises a block's exception
    return out


def embed(x, cfg: FeatureMapConfig, cap: int | None = None) -> StateVector:
    """Embed a data point: apply ``repetitions`` blocks of (Hadamard layer,
    diagonal phase) to the vacuum state."""
    amps = embed_batch(np.reshape(x, (1, -1)), cfg, cap=cap)
    return StateVector(cfg.n_qubits, amps[0])
