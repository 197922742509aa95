"""Exponential scaling of kernel statistics with qubit count.

Statistics-vs-n series are fitted as ``value = C * 2**(alpha * n)`` by
least squares on the log2-transformed values. Pre-asymptotic small-n
points are discarded by an elbow rule on the R^2 of the candidate fits:

* compute R^2(d) for every prefix drop d in {0, ..., len-3},
* take the smallest interior d maximising the discrete curvature
  ``2 R^2(d) - R^2(d-1) - R^2(d+1)`` when a strictly positive bend exists,
* otherwise the smallest d with R^2 >= threshold, otherwise argmax R^2.

A fit is valid when its R^2 reaches the threshold 0.99; only
valid fits may be extrapolated. Exponential value concentration holds when
the deviation-from-mu series admits a valid fit with negative alpha, i.e.
decay like 1/b**n with b = 2**(-alpha) > 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, select_features
from .feature_map import FeatureMapConfig
from .kernels import gram_matrix, kernel_statistics
from .measurement import check_p_error
from .shot_bounds import dataset_budget
from .statevector import ConfigurationError

R_SQUARED_THRESHOLD = 0.99

_CURVATURE_TOL = 1e-12

STATISTIC_NAMES = ("mean", "std", "median", "iqr", "n_spread", "n_ca")


def check_qubit_counts(qubit_counts):
    """Return ``qubit_counts`` if they are non-empty and strictly increase,
    else raise a ConfigurationError."""
    counts = np.asarray(qubit_counts, dtype=int)
    if counts.size == 0 or np.any(np.diff(counts) <= 0):
        raise ConfigurationError(
            f"qubit counts must be non-empty and strictly increasing, got {counts.tolist()}"
        )
    return qubit_counts


@dataclass
class ScalingSeries:
    """One statistic evaluated at one or more strictly increasing qubit counts."""

    statistic: str
    qubit_counts: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.qubit_counts = check_qubit_counts(np.asarray(self.qubit_counts, dtype=int))
        self.values = np.asarray(self.values, dtype=float)
        if self.qubit_counts.shape != self.values.shape:
            raise ValueError("qubit counts and values must have equal length")

    def fit(self) -> "ScalingFit":
        return fit_exponential(self.qubit_counts, self.values)


@dataclass(frozen=True)
class ScalingFit:
    """Fitted value = 2**(log2_scale + alpha * n) on points[dropped_prefix:]."""

    log2_scale: float
    alpha: float
    r_squared: float
    dropped_prefix: int
    valid: bool
    threshold: float = R_SQUARED_THRESHOLD


def _line_fit(ns: np.ndarray, logs: np.ndarray) -> tuple[float, float, float]:
    """OLS slope/intercept/R^2; R^2 is 1 for an exactly constant target."""
    design = np.vstack([ns, np.ones_like(ns)]).T
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    predicted = design @ coef
    ss_res = float(np.sum((logs - predicted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r_squared = 1.0 if ss_tot < 1e-20 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r_squared


def fit_exponential(qubit_counts, values) -> ScalingFit:
    """Fit ``value = C * 2**(alpha n)`` with elbow-selected prefix drop.
    A series with a non-positive or non-finite value, or with fewer than 4
    points, raises a ValueError saying which (in that order)."""
    ns = np.asarray(qubit_counts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.size != values.size:
        raise ValueError("qubit counts and values must have equal length")
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("series has non-positive or non-finite values")
    if ns.size < 4:
        raise ValueError("fewer than 4 points")
    logs = np.log2(values)
    max_drop = ns.size - 3
    slopes, intercepts, r2 = [], [], []
    for d in range(max_drop + 1):
        a, b, r = _line_fit(ns[d:], logs[d:])
        slopes.append(a)
        intercepts.append(b)
        r2.append(r)
    r2_arr = np.asarray(r2)

    chosen: int | None = None
    if max_drop >= 2:
        curvature = 2.0 * r2_arr[1:-1] - r2_arr[:-2] - r2_arr[2:]
        best = float(curvature.max())
        if best > _CURVATURE_TOL:
            chosen = 1 + int(np.argmax(curvature >= best - _CURVATURE_TOL))
    if chosen is None:
        above = np.nonzero(r2_arr >= R_SQUARED_THRESHOLD)[0]
        chosen = int(above[0]) if above.size else int(np.argmax(r2_arr))

    return ScalingFit(
        log2_scale=intercepts[chosen],
        alpha=slopes[chosen],
        r_squared=float(r2_arr[chosen]),
        dropped_prefix=chosen,
        valid=bool(r2_arr[chosen] >= R_SQUARED_THRESHOLD),
    )


def extrapolate(fit: ScalingFit, n_target: int) -> float:
    """Evaluate the fitted exponential at ``n_target`` qubits. Refuses
    invalid fits: extrapolating a failed fit is meaningless."""
    if not fit.valid:
        raise ValueError(
            f"cannot extrapolate: fit R^2 = {fit.r_squared:.4f} is below "
            f"the {fit.threshold} validity threshold"
        )
    exponent = fit.log2_scale + fit.alpha * n_target
    # past the float range the value is inf, which the JSON writers write as null
    return np.inf if exponent >= 1024 else 2.0 ** exponent


@dataclass(frozen=True)
class ConcentrationReport:
    """Outcome of the exponential-concentration test on a deviation series."""

    concentrated: bool
    decay_base: float | None
    fit: ScalingFit
    mu: float


def concentration_check(series: ScalingSeries, mu: float = 0.0) -> ConcentrationReport:
    """Decide exponential concentration towards ``mu``.

    ``series`` must hold statistics of the deviation |kernel - mu|: the
    maximum for the deterministic criterion, the standard deviation for the
    probabilistic one. Concentration requires a valid fit with a genuinely
    negative alpha (below -1e-9, guarding least-squares dust on flat
    series); the decay base is then b = 2**(-alpha) > 1.
    """
    fit = series.fit()
    concentrated = bool(fit.valid and fit.alpha < -1e-9)
    base = float(2.0 ** (-fit.alpha)) if concentrated else None
    return ConcentrationReport(
        concentrated=concentrated, decay_base=base, fit=fit, mu=mu
    )


def sweep(
    dataset: Dataset,
    family: str,
    repetitions: int,
    entanglement: str,
    n_values,
    gamma: float = 1.0,
    eps: float = 1.0,
    p_spread: float = 0.9,
    p_ca: float = 0.99,
    p_error: float = 0.0,
    include_budgets: bool = True,
    threads: int = 1,
) -> dict[str, ScalingSeries]:
    """Kernel-statistic series over a range of machine sizes.

    For each n the first n variance-ordered features are selected, the
    exact Gram matrix is built, and the ensemble mean/std/median/IQR are
    recorded; with ``include_budgets`` the dataset-level spread and
    concentration shot counts are recorded as well, noisy when
    ``p_error > 0``.
    """
    check_p_error(p_error)
    n_values = check_qubit_counts(sorted(int(n) for n in n_values))
    # every size is checked against the features before any embedding
    subsets = [select_features(dataset, n) for n in n_values]
    rows = []
    for n, subset in zip(n_values, subsets):
        cfg = FeatureMapConfig(
            n_qubits=n, repetitions=repetitions, entanglement=entanglement
        )
        kernel = gram_matrix(
            subset.features, cfg, family=family, gamma=gamma, threads=threads
        )
        stats = kernel_statistics(kernel)
        row = [stats.mean, stats.std, stats.median, stats.iqr]
        if include_budgets:
            budget = dataset_budget(
                kernel, eps=eps, p_spread=p_spread, p_ca=p_ca, p_error=p_error,
                statistics=stats, threads=threads,
            )
            row += [budget.n_spread, budget.n_ca]
        rows.append(row)
    # without budgets the rows end after the iqr, and so do the series
    columns = np.array(rows, dtype=float).T
    return {name: ScalingSeries(name, n_values, values)
            for name, values in zip(STATISTIC_NAMES, columns)}
