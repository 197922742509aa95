"""Shot-count bounds: spread, concentration avoidance, noisy variants and
per-run error budgets.

Two effects set the number of circuit runs N needed for a useful kernel
estimate. The *spread* bound (Chebyshev) keeps the single-entry estimation
uncertainty below a fraction ``eps`` of the ensemble spread
``delta_ensemble`` with probability ``p_spread``:

    N >= G / ((1 - p_spread) * eps^2 * delta_ensemble^2),

with G the estimator variance factor: kappa (1 - kappa) for fidelity, and
``gamma^2 kappa^2 n sum_k V_k`` for the projected kernel, where V_k is the
delta-method variance bound of the per-qubit squared 2-norm difference
(binomial variances plus Cauchy-Schwarz covariance bounds).

The *concentration avoidance* bound keeps the measured proportion on the
correct side of the concentration value mu with probability ``p_ca``. For
fidelity (mu = 0) it reduces to N >= log_{1-q}(1 - p_ca), i.e. at least
one success with probability p_ca. The exact binomial CDF gives the
bound at both concentration values, mu = 0 and mu = 1/2, with a Gaussian
z-score approximation available for proportions concentrating at 1/2.

Noisy circuits keep the same structure: depolarising noise shifts success
probabilities towards their mixed-state values, the spread numerator picks
up a factor 4 (the error budget consumes half the allowed deviation) and
the binomial variance must be replaced by its worst-case bound.

Per-entry budgets are array functions: :func:`entry_budgets` computes all
pairs of a kernel matrix at once. One pair is its m = 2 case, the 2 x 2
Gram matrix, which is how :func:`dataset_budget` budgets the fidelity
median.
All bounds return integer shot counts: ceilings of the real-valued
expressions (with a 1e-9 guard against floating dust), floored at 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, ndtri

from .kernels import (
    FIDELITY,
    PROJECTED,
    KernelMatrix,
    check_family,
    check_gamma,
    kernel_statistics,
)
from .measurement import (
    check_p_error,
    component_proportions,
    depolarized_component_probability,
    depolarized_fidelity_probability,
)
from .statevector import ConfigurationError

PQ_CONCENTRATION_VALUE = 0.5  # measured tomography proportions concentrate here

_CEIL_GUARD = 1e-9
_SEARCH_CAP = 1 << 50

# projected pairs are budgeted in blocks of whole kernel rows holding about
# this many (pair, qubit) cells, so temporaries stay O(block) whatever m is
PAIR_BLOCK = 2**16


class ShotCount(int):
    """Integer shot count carrying a degeneracy flag.

    ``degenerate`` marks inputs for which the bound is not informative
    (zero variance, vanishing derivatives); the count is then the floor
    value 1.
    """

    degenerate: bool

    def __new__(cls, value: int, degenerate: bool = False) -> "ShotCount":
        obj = super().__new__(cls, value)
        obj.degenerate = degenerate
        return obj


def _ceil_array(x):
    """max(1, ceil(x - 1e-9)) elementwise, as integer-valued floats."""
    return np.maximum(1.0, np.ceil(x - _CEIL_GUARD))


def _spread_denominator(eps: float, delta_ensemble: float, p_spread: float) -> float:
    if not eps > 0.0:
        raise ConfigurationError(f"eps must be > 0, got {eps}")
    if not delta_ensemble > 0.0:
        raise ValueError(
            "delta_ensemble must be > 0 (an ensemble with zero spread has "
            f"indistinguishable entries), got {delta_ensemble}"
        )
    if not 0.0 < p_spread < 1.0:
        raise ConfigurationError(f"p_spread must be in (0, 1), got {p_spread}")
    return (1.0 - p_spread) * eps**2 * delta_ensemble**2


def _check_probability(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ConfigurationError(f"{name} must be in (0, 1), got {value}")


# ---------------------------------------------------------------------------
# spread bounds
# ---------------------------------------------------------------------------

def _binomial_sd(props) -> np.ndarray:
    """sqrt(Z (1 - Z)) of every proportion, clipped at 0 against rounding."""
    return np.sqrt(np.clip(props * (1.0 - props), 0.0, None))


def _variance_terms(zx, zy, noise_robust: bool, weights=None) -> np.ndarray:
    """Per-qubit V_k of proportion pairs (..., n, 3) -> (..., n).

    With Z the six measured proportions of a qubit pair, the derivative
    magnitudes are |dX/dZ_i| = 4 |Z_i - Z_(i+-3)| and

        V_k = (sum_i |dX/dZ_i| sqrt(Z_i (1 - Z_i)))^2,

    the closed form of the full variance-plus-covariance double sum. The
    noise-robust form bounds every variance factor by 1. ``weights`` is
    ``_binomial_sd(zx) + _binomial_sd(zy)``, computed here when not given.
    """
    grads = 4.0 * np.abs(zx - zy)
    if noise_robust:
        return (2.0 * grads.sum(axis=-1)) ** 2
    if weights is None:
        weights = _binomial_sd(zx) + _binomial_sd(zy)
    grads *= weights
    return grads.sum(axis=-1) ** 2


def _spread_shots(numerator, denominator: float, degenerate):
    """Chebyshev spread shots numerator / denominator; 1 where degenerate.
    A count past the float range (a tiny eps) raises a ConfigurationError."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shots = np.where(degenerate, 1.0, _ceil_array(np.divide(numerator, denominator)))
    if not np.isfinite(shots).all():
        raise ConfigurationError("eps is too small: the spread bound exceeds the float range")
    return shots


def _pq_spread(v_total, n: int, kappa, gamma: float, denominator: float, noisy: bool):
    """Spread shots and degeneracy (all derivatives vanish) of projected
    entries from sum_k V_k and the kernel value, both depolarised when
    ``noisy``."""
    numerator = (4.0 if noisy else 1.0) * n * gamma**2 * kappa**2 * v_total
    return _spread_shots(numerator, denominator, v_total == 0.0), v_total == 0.0


def _fq_spread(kappa, denominator: float):
    """Noiseless fidelity spread shots and degeneracy (kappa in {0, 1})."""
    outside = (kappa < 0.0) | (kappa > 1.0)
    if outside.any():
        raise ValueError(f"kappa must be in [0, 1], got {kappa[outside][0]}")
    degenerate = (kappa == 0.0) | (kappa == 1.0)
    return _spread_shots(kappa * (1.0 - kappa), denominator, degenerate), degenerate


def n_spread_fq(
    kappa: float, eps: float, delta_ensemble: float, p_spread: float
) -> ShotCount:
    """Chebyshev spread bound for a fidelity-kernel entry with true value
    ``kappa``. Degenerate at kappa in {0, 1} (zero binomial variance)."""
    denominator = _spread_denominator(eps, delta_ensemble, p_spread)
    shots, degenerate = _fq_spread(np.asarray(kappa, dtype=float), denominator)
    return ShotCount(int(shots), bool(degenerate))


def n_spread_noisy_fq(
    eps: float, delta_ensemble: float, p_spread: float
) -> ShotCount:
    """Noisy spread bound for fidelity entries: 4 in the numerator (half
    the deviation is budgeted to circuit errors) and worst-case variance 1,
    so the bound no longer depends on the kernel value."""
    denominator = _spread_denominator(eps, delta_ensemble, p_spread)
    return ShotCount(int(_spread_shots(4.0, denominator, False)))


# ---------------------------------------------------------------------------
# concentration avoidance bounds
# ---------------------------------------------------------------------------

def _first_success_shots(m_true, p_ca: float) -> np.ndarray:
    """Smallest N with 1 - (1 - m)^N >= p_ca, elementwise.

    inf at m = 0 and where N exceeds the float range (m below about
    1e-308). Beyond 2**53 counts are floats, so N is the smallest float
    that reaches p_ca rather than the smallest integer.
    """
    m_true = np.asarray(m_true, dtype=float)
    outside = (m_true < 0.0) | (m_true > 1.0)
    if outside.any():
        raise ValueError(f"success probability must be in [0, 1], got {m_true[outside][0]}")
    out = np.where(m_true == 0.0, math.inf, 1.0)
    inner = (m_true > 0.0) & (m_true < 1.0)
    log_miss = np.log1p(-m_true[inner])
    with np.errstate(over="ignore"):
        n = _ceil_array(math.log1p(-p_ca) / log_miss)

    def reached(shots):
        return -np.expm1(shots * log_miss) >= p_ca

    def step(shots):
        return np.maximum(1.0, np.spacing(np.where(np.isfinite(shots), shots, 1.0)))

    # absorb ceiling rounding on both sides; every step moves n, and
    # reached() is monotone in n, so both loops end
    while (down := (n > 1.0) & np.isfinite(n) & reached(n - step(n))).any():
        n[down] -= step(n[down])
    while (up := ~reached(n)).any():
        n[up] += step(n[up])
    out[inner] = n
    return out


def n_ca_fq(m_true: float, p_ca: float) -> ShotCount | float:
    """Smallest N giving at least one success with probability ``p_ca``
    when the per-run success probability is ``m_true``.

    Returns ``math.inf`` when ``m_true == 0`` (no N suffices).
    """
    _check_probability("p_ca", p_ca)
    shots = float(_first_success_shots(m_true, p_ca))
    return shots if math.isinf(shots) else ShotCount(int(shots))


def ca_condition_probability(n, m_true: float, mu: float):
    """Exact probability that the success count of Binomial(n, m_true)
    lands strictly on the correct side of ``n * mu``. Vectorised over n."""
    # float64 holds every N up to 2**53 exactly; a Python int past 2**63
    # would otherwise reach scipy as an object array
    n = np.asarray(n, dtype=float)
    # binomial tails as regularised incomplete beta functions, which stay
    # accurate where scipy.stats.binom returns 0.5 (N past about 1e17):
    # P(X > k) = I_m(k + 1, n - k) and P(X <= k) = I_(1-m)(n - k, k + 1)
    if m_true > mu:
        k = np.floor(n * mu + _CEIL_GUARD)
        return np.where(k < n, betainc(k + 1.0, n - k, m_true), 0.0)
    k = np.ceil(n * mu - _CEIL_GUARD) - 1.0
    return np.where(k >= 0, betainc(n - k, k + 1.0, 1.0 - m_true), 0.0)


def n_ca_binomial_exact(m_true: float, mu: float, p_ca: float) -> ShotCount:
    """Smallest N satisfying the exact binomial correct-side condition at a
    concentration value mu of 0 (fidelity) or 1/2 (tomography proportions);
    any other mu is refused with a ConfigurationError.

    At both values the condition rises along one sequence of N, so the
    minimum is its first passing N, found by doubling k, then bisecting:

    * mu = 0, N = 1 + k: P(X_N >= 1) = I_m(1, N) = 1 - (1 - m)^N.
    * mu = 1/2, N = 2k + 1: take q > 1/2 (q < 1/2 mirrors with 1 - q) and
      X_N ~ Binomial(N, q). An even N never passes before N - 1 does, since
      P(X_2k > k) = P(X_(2k-1) >= k) - (1 - q) P(X_(2k-1) = k). Over odd N
      the correct-majority probability strictly rises (Condorcet):
      P_(2k+1) - P_(2k-1) = (2q - 1) C(2k - 1, k - 1) (q (1 - q))^k > 0.
      At odd N the condition is I_x(k + 1, k + 1), x = max(q, 1 - q).

    Both evaluate the scalar betainc arguments of
    :func:`ca_condition_probability`. A RuntimeError reports that no
    N <= ``_SEARCH_CAP`` passes.
    """
    if mu not in (0.0, PQ_CONCENTRATION_VALUE):
        raise ConfigurationError(f"exact bounds need mu = 0 or mu = 0.5, got {mu}")
    _check_ca_inputs(m_true, mu, p_ca)
    if mu == 0.0:
        step = 1

        def passes(k: int) -> bool:
            return betainc(1.0, k + 1.0, m_true) >= p_ca
    else:
        step, x = 2, max(m_true, 1.0 - m_true)

        def passes(k: int) -> bool:
            return betainc(k + 1.0, k + 1.0, x) >= p_ca

    top = (_SEARCH_CAP - 1) // step
    failing, k = -1, 0
    while not passes(k):
        if k == top:
            raise RuntimeError(f"no N <= {_SEARCH_CAP} satisfies the condition "
                               f"(m={m_true}, mu={mu}, p_ca={p_ca})")
        failing, k = k, min(2 * k + 1, top)
    while k - failing > 1:
        mid = (failing + k) // 2
        if passes(mid):
            k = mid
        else:
            failing = mid
    return ShotCount(1 + step * k)


def _check_ca_inputs(m_true: float, mu: float, p_ca: float) -> None:
    _check_probability("p_ca", p_ca)
    if not 0.0 < m_true < 1.0:
        raise ValueError(f"success probability must be in (0, 1), got {m_true}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    if m_true == mu:
        raise ValueError(
            "bound not imposed: the true proportion equals the concentration value"
        )


def _z_score_shots(m_true, mu: float, p_ca: float) -> np.ndarray:
    """z^2 m (1 - m) / (m - mu)^2 shots elementwise (callers mask m = mu)."""
    z = float(ndtri(p_ca))
    if z <= 0.0:
        return np.ones(np.shape(m_true))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _ceil_array(z**2 * m_true * (1.0 - m_true) / (m_true - mu) ** 2)


def n_ca_pq_normal(m_true: float, mu: float, p_ca: float) -> ShotCount:
    """Gaussian z-score approximation of the correct-side condition,
    appropriate for proportions concentrating away from the range edges:
    N >= z^2 m (1 - m) / (m - mu)^2 with z the p_ca normal quantile."""
    _check_ca_inputs(m_true, mu, p_ca)
    return ShotCount(int(_z_score_shots(m_true, mu, p_ca)))


def _pq_point_ca(props: np.ndarray, p_ca: float):
    """Worst z-score bound over each point's 3 n proportions, skipping those
    equal to 1/2 (no bound imposed there), and whether any was imposed."""
    flat = props.reshape(props.shape[0], -1)
    imposed = np.abs(flat - PQ_CONCENTRATION_VALUE) >= 1e-15
    outside = imposed & ((flat <= 0.0) | (flat >= 1.0))
    if outside.any():
        raise ValueError(f"success probability must be in (0, 1), got {flat[outside][0]}")
    bounds = np.where(imposed, _z_score_shots(flat, PQ_CONCENTRATION_VALUE, p_ca), 1.0)
    return bounds.max(axis=1, initial=1.0), imposed.any(axis=1)


def n_ca_noisy_fq(
    kappa: float, p_ca: float, p_error: float, n_qubits: int
) -> ShotCount | float:
    """Noisy fidelity concentration-avoidance bound: the noiseless formula
    evaluated at the depolarised success probability."""
    return n_ca_fq(
        depolarized_fidelity_probability(kappa, p_error, n_qubits), p_ca
    )


def n_ca_noisy_pq_normal(
    m_true: float, mu: float, p_ca: float, p_error: float
) -> ShotCount:
    """Noisy z-score bound for a tomography proportion; depolarising leaves
    the concentration value 1/2 fixed."""
    return n_ca_pq_normal(
        depolarized_component_probability(m_true, p_error), mu, p_ca
    )


def n_ca_noisy_binomial_exact(
    m_true: float,
    mu: float,
    p_ca: float,
    p_error: float,
    family: str = PROJECTED,
    n_qubits: int | None = None,
) -> ShotCount:
    """Noisy exact-CDF bound with the family's depolarised proportion."""
    if check_family(family) == FIDELITY:
        if n_qubits is None:
            raise ValueError("n_qubits is required for the fidelity family")
        shifted = depolarized_fidelity_probability(m_true, p_error, n_qubits)
    else:
        shifted = depolarized_component_probability(m_true, p_error)
    return n_ca_binomial_exact(shifted, mu, p_ca)


# ---------------------------------------------------------------------------
# error budgets
# ---------------------------------------------------------------------------

_DENOMINATOR_FLOOR = 1e-15


@dataclass(frozen=True)
class ErrorBudget:
    """Maximum tolerable per-run circuit error probability.

    ``unconstrained`` flags a vanishing sensitivity denominator (the noise
    shift cannot move the estimate), in which case ``p_max`` is 1.
    """

    p_max: float
    unconstrained: bool = False


def error_budget(
    family: str,
    kappa: float,
    eps: float,
    delta_ensemble: float,
    n_qubits: int | None = None,
) -> ErrorBudget:
    """Depolarising error budget for an entry of value ``kappa``:
    p <= eps * delta_ensemble / D with D = 2 |2**-n - kappa| for fidelity
    (needs ``n_qubits``) and D = 4 |kappa ln kappa| for projected entries,
    where the feature-map gamma cancels analytically."""
    if check_family(family) == FIDELITY and n_qubits is None:
        raise ValueError("n_qubits is required for the fidelity family")
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must be in (0, 1), got {kappa}")
    if family == FIDELITY:
        denom = 2.0 * abs(2.0 ** (-n_qubits) - kappa)
    else:
        denom = 4.0 * abs(kappa * math.log(kappa))
    if denom < _DENOMINATOR_FLOOR:
        return ErrorBudget(p_max=1.0, unconstrained=True)
    return ErrorBudget(p_max=min(1.0, eps * delta_ensemble / denom))


# ---------------------------------------------------------------------------
# representative scales of tomography proportions
# ---------------------------------------------------------------------------

def epsilon_r_from_kernel(
    kernel: KernelMatrix | np.ndarray, gamma: float, n_qubits: int
) -> float:
    """Root-mean-square proportion offset inferred from kernel entries
    alone: sqrt(-<ln k> / (12 gamma n)). Off-diagonal entries equal to 1
    carry no offset information and are excluded with a warning."""
    entries = (
        kernel.off_diagonal()
        if isinstance(kernel, KernelMatrix)
        else np.asarray(kernel, dtype=float).reshape(-1)
    )
    if np.any(entries <= 0.0):
        raise ValueError("kernel entries must be positive to take logarithms")
    if np.any(entries >= 1.0):
        ones = int(np.sum(entries >= 1.0))
        warnings.warn(
            f"excluding {ones} off-diagonal unit entries from the log mean",
            RuntimeWarning,
            stacklevel=2,
        )
        entries = entries[entries < 1.0]
        if entries.size == 0:
            raise ValueError("all off-diagonal entries equal 1; scale undefined")
    mean_log = float(np.mean(np.log(entries)))
    return math.sqrt(-mean_log / (12.0 * gamma * n_qubits))


# ---------------------------------------------------------------------------
# combined budgets
# ---------------------------------------------------------------------------

SPREAD = "spread"
CONCENTRATION_AVOIDANCE = "concentration_avoidance"


@dataclass
class ShotBudget:
    """Shot requirement combining both effects: N = max(N_spread, N_ca)."""

    family: str
    n_spread: int
    n_ca: int | float
    noisy: bool = False
    degenerate: bool = False
    inputs: dict = field(default_factory=dict)

    @property
    def n_required(self) -> int | float:
        return max(self.n_spread, self.n_ca)

    @property
    def effect_dominant(self) -> str:
        return SPREAD if self.n_spread >= self.n_ca else CONCENTRATION_AVOIDANCE

    def to_dict(self) -> dict:
        unbounded = math.isinf(self.n_ca)
        return {
            "family": self.family,
            "noisy": self.noisy,
            "n_spread": int(self.n_spread),
            "n_ca": None if unbounded else int(self.n_ca),
            "n_required": None if unbounded else int(self.n_required),
            "unbounded": unbounded,
            "effect_dominant": self.effect_dominant,
            "degenerate": self.degenerate,
            "inputs": dict(self.inputs),
        }


@dataclass
class EntryBudgets:
    """Budgets of every upper-triangle pair (i < j) in row-major order, one
    array per quantity. Shot counts are integer-valued floats, ``n_ca`` is
    inf where no N suffices; ``ca_imposed`` (projected only) is False where
    all of a pair's proportions sit at 1/2; ``inputs`` holds the shared
    parameters. ``variance_total`` (projected only) is sum_k V_k summed over
    all pairs, which :func:`dataset_budget` averages for its spread bound."""

    family: str
    noisy: bool
    i: np.ndarray
    j: np.ndarray
    kappa: np.ndarray
    n_spread: np.ndarray
    n_ca: np.ndarray
    degenerate: np.ndarray
    ca_imposed: np.ndarray | None
    inputs: dict
    variance_total: float | None = None

    @property
    def unbounded(self) -> np.ndarray:
        return np.isinf(self.n_ca)

    def budget(self, k: int) -> ShotBudget:
        """The ShotBudget of pair k."""
        inputs = {"kappa": float(self.kappa[k]), **self.inputs}
        if self.ca_imposed is not None:
            inputs["ca_imposed"] = bool(self.ca_imposed[k])
        n_ca = float(self.n_ca[k])
        return ShotBudget(self.family, int(self.n_spread[k]),
                          n_ca if math.isinf(n_ca) else int(n_ca), self.noisy,
                          bool(self.degenerate[k]), inputs)

    def entries(self) -> list[dict]:
        """``ShotBudget.to_dict`` of every pair, with its "i" and "j"."""
        return [{"i": i, "j": j, **self.budget(k).to_dict()}
                for k, (i, j) in enumerate(zip(self.i.tolist(), self.j.tolist()))]


def _pair_blocks(m: int, n: int):
    """Index arrays (i, j) of the upper-triangle pairs i < j in row-major
    order, in blocks of whole rows; boundaries depend on (m, n) only."""
    rows = max(1, PAIR_BLOCK // max(1, m * n))
    for start in range(0, max(m - 1, 1), rows):
        first = np.arange(start, min(start + rows, m - 1))
        counts = m - 1 - first
        i = np.repeat(first, counts)
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        yield i, np.arange(i.size) - offsets + i + 1


def _pair_variance_blocks(props: np.ndarray, noise_robust: bool):
    """Per-qubit V_k of the upper-triangle pairs of the (m, n, 3)
    proportions, as (i, j, (pairs, n) terms) per row block of
    :func:`_pair_blocks`. Each point's standard deviations are computed
    once and gathered for its pairs."""
    sd = None if noise_robust else _binomial_sd(props)
    # np.take copies whole rows faster than fancy indexing
    for i, j in _pair_blocks(props.shape[0], props.shape[1]):
        weights = None
        if sd is not None:
            weights = np.take(sd, i, axis=0)
            weights += np.take(sd, j, axis=0)
        terms = _variance_terms(np.take(props, i, axis=0), np.take(props, j, axis=0),
                                noise_robust, weights)
        del weights  # not held while the caller works on the block
        yield i, j, terms


def entry_budgets(
    family: str, values, eps: float, delta_ensemble: float, p_spread: float,
    p_ca: float, p_error: float = 0.0, *, table=None, gamma: float = 1.0,
    n_qubits: int | None = None,
) -> EntryBudgets:
    """Per-entry budgets of all pairs of an exact kernel matrix ``values``;
    ``p_error > 0`` selects the noisy bounds.

    Fidelity: n_spread from kappa (1 - kappa) (noisy: the worst case 4),
    n_ca the fewest shots giving one success at the depolarised value.
    Projected (needs the (m, n, 3) component ``table``): n_spread from the
    pair's variance factors (noise-robust and at kappa^((1-p)^2) when
    noisy), n_ca the worst z-score bound over its 6 n depolarised
    proportions, skipping those at 1/2. Pairs run in blocks of whole rows
    (:data:`PAIR_BLOCK`), so temporaries stay O(block).
    """
    check_family(family)
    _check_probability("p_ca", p_ca)
    check_p_error(p_error)
    denominator = _spread_denominator(eps, delta_ensemble, p_spread)
    values = np.asarray(values, dtype=float)
    noisy = p_error > 0.0
    inputs = dict(eps=eps, delta_ensemble=delta_ensemble, p_spread=p_spread,
                  p_ca=p_ca, p_error=p_error)
    if family == FIDELITY:
        i, j = np.triu_indices(values.shape[0], k=1)
        kappa = values[i, j]
        if not noisy:
            n_spread, degenerate = _fq_spread(kappa, denominator)
        elif n_qubits is None:
            raise ValueError("n_qubits is required for noisy fidelity budgets")
        else:
            n_spread = np.full(kappa.shape, float(n_spread_noisy_fq(eps, delta_ensemble, p_spread)))
            degenerate = np.zeros(kappa.shape, dtype=bool)
        # the depolarised value is kappa itself at p_error = 0, whatever n
        q = depolarized_fidelity_probability(kappa, p_error, n_qubits or 0)
        return EntryBudgets(FIDELITY, noisy, i, j, kappa, n_spread,
                            _first_success_shots(q, p_ca), degenerate, None, inputs)

    check_gamma(gamma)
    if table is None:
        raise ValueError("projected budgets need the component table")
    props = component_proportions(table, p_error)
    if props.shape[0] != values.shape[0]:
        raise ValueError(f"component table has {props.shape[0]} points, "
                         f"kernel matrix {values.shape[0]}")
    worst, imposed = _pq_point_ca(props, p_ca)
    blocks, variance_total = [], 0.0
    for i, j, terms in _pair_variance_blocks(props, noisy):
        # summed as _mean_pair_variance_terms sums, so both give equal means
        variance_total += float(terms.sum())
        kappa = values[i, j]
        v_total = terms.sum(axis=-1)
        n_spread, degenerate = _pq_spread(
            v_total, props.shape[1], kappa ** ((1.0 - p_error) ** 2), gamma,
            denominator, noisy,
        )
        pair_imposed = imposed[i] | imposed[j]
        blocks.append((i, j, kappa, n_spread, np.maximum(worst[i], worst[j]),
                       degenerate | ~pair_imposed, pair_imposed))
    columns = [np.concatenate(column) for column in zip(*blocks)]
    return EntryBudgets(PROJECTED, noisy, *columns, inputs={"gamma": gamma, **inputs},
                        variance_total=variance_total)


def check_ensemble_iqr(iqr: float) -> None:
    """Refuse an ensemble whose inter-quartile range is zero: its entries
    are indistinguishable and no finite spread budget exists."""
    if iqr <= 0.0:
        raise ValueError(
            "ensemble IQR is zero; entries are indistinguishable and no "
            "finite spread budget exists"
        )


def dataset_budget(
    kernel: KernelMatrix,
    eps: float = 1.0,
    p_spread: float = 0.9,
    p_ca: float = 0.99,
    p_error: float = 0.0,
    entries: EntryBudgets | None = None,
) -> ShotBudget:
    """Whole-dataset shot budget from kernel-matrix statistics;
    ``p_error > 0`` selects the noisy bounds.

    Fidelity: the :func:`entry_budgets` budget of the ensemble median, with
    the inter-quartile range as the spread.

    Projected: the concentration bound uses the z-score formula at the
    root-mean-square proportion offset inferred from the kernel entries
    (``epsilon_r_from_kernel``). The spread bound averages the per-pair
    variance factors over ``kernel.component_table`` when the kernel has
    one (``inputs["spread_path"] == "components"``), as an exact
    ``gram_matrix`` does; otherwise, as for a sampled or hand-built kernel,
    it evaluates a representative pair whose proportions all sit at
    1/2 +- the inferred offset (``"kernel_scale"``). ``entries``, the
    :func:`entry_budgets` of the same kernel and ``p_error``, supplies that
    average from the pass that budgeted the pairs instead of a second pass
    over the table.
    """
    check_p_error(p_error)
    stats_ = kernel_statistics(kernel)
    check_ensemble_iqr(stats_.iqr)
    noisy = p_error > 0.0
    kappa_repr = stats_.median
    delta_ensemble = stats_.iqr
    n = kernel.config.n_qubits
    inputs: dict = {
        "kappa_repr": kappa_repr,
        "delta_ensemble": delta_ensemble,
        "eps": eps,
        "p_spread": p_spread,
        "p_ca": p_ca,
        "p_error": p_error,
    }

    if kernel.family == FIDELITY:
        budget = entry_budgets(
            FIDELITY, [[1.0, kappa_repr], [kappa_repr, 1.0]], eps, delta_ensemble,
            p_spread, p_ca, p_error, n_qubits=n,
        ).budget(0)
        if noisy:
            inputs["kappa_repr_noisy"] = depolarized_fidelity_probability(
                kappa_repr, p_error, n
            )
        budget.inputs = inputs
        return budget

    gamma = kernel.gamma if kernel.gamma is not None else 1.0
    scale = epsilon_r_from_kernel(kernel, gamma, n)
    scale_eff = (1.0 - p_error) * scale
    inputs.update({"gamma": gamma, "epsilon_r": scale, "epsilon_r_noisy": scale_eff})
    if scale_eff <= 0.0:
        raise ValueError("inferred proportion offset is zero; no finite budget")
    mu = PQ_CONCENTRATION_VALUE
    z = float(ndtri(p_ca))
    n_ca = _ceil_array(z**2 * mu * (1.0 - mu) / scale_eff**2) if z > 0 else 1.0

    if kernel.component_table is not None:
        pairs = kernel.m * (kernel.m - 1) // 2
        if entries is None:
            v_mean = _mean_pair_variance_terms(kernel.component_table, p_error, noisy)
        elif (entries.variance_total is None or entries.inputs["p_error"] != p_error
              or entries.i.size != pairs):
            raise ValueError("entries were budgeted for another kernel or p_error")
        else:
            v_mean = entries.variance_total / pairs
        inputs["spread_path"] = "components"
    else:
        offset = np.full((1, 3), scale_eff)
        v_mean = n * float(_variance_terms(0.5 + offset, 0.5 - offset, noisy)[0])
        inputs["spread_path"] = "kernel_scale"
    n_spread, degenerate = _pq_spread(
        v_mean, n, kappa_repr ** ((1.0 - p_error) ** 2), gamma,
        _spread_denominator(eps, delta_ensemble, p_spread), noisy,
    )
    return ShotBudget(PROJECTED, int(n_spread), int(n_ca), noisy, bool(degenerate), inputs)


def _mean_pair_variance_terms(table, p_error: float, noise_robust: bool) -> float:
    """Mean over all point pairs of sum_k V_k, accumulated over the row
    blocks of :func:`_pair_blocks`."""
    props = component_proportions(table, p_error)
    m = props.shape[0]
    if m < 2:
        raise ValueError("component table needs at least two points")
    total = 0.0
    for _, _, terms in _pair_variance_blocks(props, noise_robust):
        total += float(terms.sum())
    return total / (m * (m - 1) // 2)
