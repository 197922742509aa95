"""Independent reference implementations used as test oracles.

Everything here is written as plain straight-line arithmetic, structured
differently from the library code paths it checks (explicit loops, dense
matrices, log-space sums), so agreement is meaningful.
"""

from __future__ import annotations

import io
import json
import math
from functools import reduce

import numpy as np
from scipy import stats

H1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def dense_partial_trace(psi: np.ndarray, n: int, k: int) -> np.ndarray:
    """Build the full 2^n x 2^n density matrix and trace out all qubits
    except k by explicit index summation (qubit 0 = least significant bit)."""
    rho = np.outer(psi, psi.conj())
    out = np.zeros((2, 2), dtype=complex)
    for rest in range(2 ** (n - 1)):
        low = rest % (2**k)
        high = rest // (2**k)
        base = high * 2 ** (k + 1) + low
        for a in (0, 1):
            for b in (0, 1):
                out[a, b] += rho[base + a * 2**k, base + b * 2**k]
    return out


def components_to_matrix(components) -> np.ndarray:
    """The 2 x 2 reduced matrix [[p, r + i c], [r - i c, 1 - p]] of one
    (population p, Re r, Im c) triple of a component table."""
    population, re, im = components
    return np.array([[population, re + 1j * im], [re - 1j * im, 1.0 - population]])


def matrix_components(rho: np.ndarray) -> list[float]:
    """The (population, Re, Im) triple of a 2 x 2 reduced matrix: the
    inverse of ``components_to_matrix``."""
    return [rho[0, 0].real, rho[0, 1].real, rho[0, 1].imag]


def blocked_partial_trace(psi: np.ndarray, n: int, k: int) -> np.ndarray:
    """The reduced matrix of qubit k as one contraction over the
    (high bits, bit k, low bits) blocks of the amplitudes, without the
    2^n x 2^n density matrix: the reference at widths where
    ``dense_partial_trace`` does not fit in memory."""
    blocks = np.asarray(psi).reshape(2 ** (n - 1 - k), 2, 2**k)
    return np.einsum("hil,hjl->ij", blocks, blocks.conj())


def embedding_unitary(x, n: int, r: int, pairs) -> np.ndarray:
    """Full 2^n x 2^n embedding unitary built from explicit matrix products:
    r repetitions of diag(exp(i phases)) @ H^(tensor n)."""
    x = np.asarray(x, dtype=float)
    h_full = reduce(np.kron, [H1] * n)
    phases = np.zeros(2**n)
    for b in range(2**n):
        z = [1.0 if ((b >> i) & 1) == 0 else -1.0 for i in range(n)]
        total = sum(x[i] * z[i] for i in range(n))
        for (i, j) in pairs:
            total += (math.pi - x[i]) * (math.pi - x[j]) * z[i] * z[j]
        phases[b] = total
    diag = np.diag(np.exp(1j * phases))
    step = diag @ h_full
    out = np.eye(2**n, dtype=complex)
    for _ in range(r):
        out = step @ out
    return out


def quantile_type7(values, q: float) -> float:
    """Sort-and-interpolate quantile (linear interpolation between order
    statistics)."""
    v = sorted(float(x) for x in values)
    h = (len(v) - 1) * q
    lo = math.floor(h)
    if lo >= len(v) - 1:
        return v[-1]
    return v[lo] + (h - lo) * (v[lo + 1] - v[lo])


def binom_logpmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def binom_cdf(k: int, n: int, p: float) -> float:
    """Log-space term accumulation of P[X <= k]."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    terms = [binom_logpmf(j, n, p) for j in range(0, k + 1)]
    top = max(terms)
    return math.exp(top) * sum(math.exp(t - top) for t in terms)


def correct_side_probability(n: int, p: float, mu: float) -> float:
    """P[X strictly on the same side of n*mu as p is of mu], X ~ Bin(n, p)."""
    if p > mu:
        cut = math.floor(n * mu + 1e-9)
        return 1.0 - binom_cdf(cut, n, p)
    cut = math.ceil(n * mu - 1e-9) - 1
    return binom_cdf(cut, n, p)


def correct_side_probabilities(n, p: float, mu: float) -> np.ndarray:
    """``correct_side_probability`` over an integer array of n, from the
    scipy binomial tail."""
    n = np.asarray(n)
    if p > mu:
        return stats.binom.sf(np.floor(n * mu + 1e-9), n, p)
    top = np.ceil(n * mu - 1e-9) - 1.0
    return np.where(top >= 0, stats.binom.cdf(np.maximum(top, 0.0), n, p), 0.0)


def exhaustive_ca_shots(p: float, mu: float, p_ca: float, max_chunk: int = 1 << 16) -> int:
    """Smallest N whose correct-side probability reaches ``p_ca``, by
    evaluating the binomial tail at every N from 1 upward, in chunks that
    double up to ``max_chunk`` candidates (memory stays bounded however
    large N is). The cut follows the library's convention: the count must
    exceed floor(N mu + 1e-9) when p > mu and stay below
    ceil(N mu - 1e-9) otherwise."""
    start, chunk = 1, 256
    while True:
        n = np.arange(start, start + chunk)
        passing = np.flatnonzero(correct_side_probabilities(n, p, mu) >= p_ca)
        if passing.size:
            return int(n[passing[0]])
        start += chunk
        chunk = min(2 * chunk, max_chunk)


def first_success_shots(q: float, p_ca: float) -> int:
    """Smallest N with 1 - (1 - q)^N >= p_ca, stepping up from just below
    the logarithmic estimate."""
    n = max(1, math.floor(math.log(1.0 - p_ca) / math.log(1.0 - q)) - 2)
    while 1.0 - (1.0 - q) ** n < p_ca:
        n += 1
    return n


def pq_noise_robust_term_sum(zx, zy) -> float:
    """Literal 6 x 6 double sum of derivative magnitudes |dX/dZ_i dX/dZ_j|
    (every variance and covariance factor bounded by 1), with the six
    measured proportions ordered (x1, x2, x3, y1, y2, y3)."""
    z = list(zx) + list(zy)
    grads = [4.0 * abs(z[i % 3] - z[i % 3 + 3]) for i in range(6)]
    return sum(grads[i] * grads[j] for i in range(6) for j in range(6))


def pq_variance_term_sum(zx, zy) -> float:
    """Literal three-block double sum for the per-qubit variance factor:
    V/16 = sum over same-x, same-y and twice the cross block of
    |difference_i difference_j| sqrt(var_i var_j), with the six measured
    proportions ordered (x1, x2, x3, y1, y2, y3)."""
    z = list(zx) + list(zy)
    diff = [abs(z[i] - z[i + 3]) for i in range(3)]

    def w(i):
        return math.sqrt(max(z[i] * (1.0 - z[i]), 0.0))

    total = 0.0
    for i in range(3):
        for j in range(3):
            total += diff[i] * diff[j] * w(i) * w(j)
    for i in range(3, 6):
        for j in range(3, 6):
            total += diff[i - 3] * diff[j - 3] * w(i) * w(j)
    for i in range(3):
        for j in range(3, 6):
            total += 2.0 * diff[i] * diff[j - 3] * w(i) * w(j)
    return 16.0 * total


def ols_line(xs, ys) -> tuple[float, float, float]:
    """Slope, intercept and R^2 of a least-squares line, by the textbook
    centred-sum formulas."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    slope = sxy / sxx
    intercept = my - slope * mx
    if syy == 0.0:
        return slope, intercept, 1.0
    return slope, intercept, (sxy * sxy) / (sxx * syy)


def budget_json(payload: dict, budgets) -> str:
    """The shot-budget file as the standard-library encoder writes it: the
    per-pair ``EntryBudgets.entries()`` dicts under "entries", through
    ``json.dump`` with indent 2 and sorted keys."""
    from qkshots.serialize import _jsonable

    text = io.StringIO()
    json.dump(_jsonable({**payload, "entries": budgets.entries()}), text,
              indent=2, sort_keys=True)
    return text.getvalue() + "\n"
