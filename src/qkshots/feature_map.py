"""Data embedding circuit: Hadamard layers plus data-dependent Z phases.

One repetition applies a Hadamard on every qubit followed by a diagonal
phase built from single-qubit angles ``x_i`` and pair angles
``(pi - x_i) * (pi - x_j)``, with the pair set chosen by the entanglement
strategy. The whole block is repeated ``repetitions`` times. The map
carries no trainable parameters; it is a function of the data alone.

A data point is a plain 1-D float array with at least ``n_qubits`` finite
entries; only the first ``n_qubits`` features are encoded.

All points are simulated together: the (m, n + P) angle table is
exponentiated once, every point's diagonal rotation is the Kronecker
product of those n + P factors, built by doubling over the qubits, and
the Hadamard layers run as Kronecker-factored Walsh-Hadamard transforms
(a few real matrix products each) over fixed row blocks of the (m, 2**n)
amplitude batch.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .statevector import ConfigurationError, qubit_components, walsh_hadamard

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


def _rotation(factors: np.ndarray, couplings: list, out: np.ndarray) -> None:
    """Write ``2**(-n/2) * exp(i * phase(b))`` of every row into the
    (rows, 2**n) block ``out``.

    ``factors`` holds ``exp(i * angle)`` of the rows' :func:`angle_table`
    plus a last column of ones, and ``couplings[t]`` the columns of the
    pairs (t, k) for k = t + 1..n - 1, the last column where uncoupled.
    Qubit by qubit, the entries over the low bits double into bit t = 0,
    times ``V_t``, and bit t = 1, times ``conj(V_t)``, where ``V_t(b)`` is
    ``e^{i x_t}`` times ``e^{i a_it z_i(b)}`` over the pairs (i, t). The
    ``V_k`` of every later qubit double along, one bit per step, so each
    entry is a product of n + P factors and no phase sum is rounded.
    """
    rows, n = out.shape[0], len(couplings)
    out[:, 0] = 2.0 ** (-n / 2)
    # V_k over the bits below t, for k = t..n-1
    v = factors[:, :n, None]
    for t, columns in enumerate(couplings):
        low, high = out[:, : 2**t], out[:, 2**t : 2 ** (t + 1)]
        np.conjugate(v[:, 0], out=high)
        high *= low
        low *= v[:, 0]
        if not columns:
            break
        pair = factors[:, columns, None]
        doubled = np.empty((rows, n - 1 - t, 2, 2**t), dtype=complex)
        np.multiply(v[:, 1:], pair, out=doubled[:, :, 0])
        np.multiply(v[:, 1:], pair.conj(), out=doubled[:, :, 1])
        v = doubled.reshape(rows, n - 1 - t, 2 ** (t + 1))


def embed_batch(
    points, cfg: FeatureMapConfig, components: bool = False, threads: int = 1,
) -> np.ndarray:
    """Embed every data point, one fixed row block at a time.

    Returns the (m, 2**n) amplitude matrix, or with ``components`` the
    (m, n, 3) table of :func:`qubit_components`, for which amplitudes live
    one block at a time. Blocks go to ``threads`` pool threads; their
    boundaries depend on (m, n) only, so results are bit-identical for any
    thread count.
    """
    angles = angle_table(points, cfg)
    m, n = angles.shape[0], cfg.n_qubits
    # a zero angle after the pair angles stands in for every uncoupled pair
    factors = np.exp(1j * np.concatenate([angles, np.zeros((m, 1))], axis=1))
    column = {pair: n + p for p, pair in enumerate(cfg.pair_indices())}
    couplings = [[column.get((t, k), -1) for k in range(t + 1, n)] for t in range(n)]
    out = np.empty((m, n, 3)) if components else np.empty((m, 2**n), dtype=complex)
    step = block_rows(n)

    def one(start: int) -> None:
        rows = slice(start, start + step)
        block = factors[rows]
        amps = np.empty((len(block), 2**n), dtype=complex) if components else out[rows]
        # H|0...0> is the uniform superposition, so the first repetition is
        # the scaled rotation itself; the 2**(-n/2) of later Hadamard layers
        # rides on the rotation too
        _rotation(block, couplings, amps)
        rotation = amps.copy() if cfg.repetitions > 1 else None
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

