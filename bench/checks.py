"""Output checks behind ``error_rate``.

Every step's artifacts are read back from disk and compared with values
computed apart from the code under test: the batched reference of
``reference.py``, the dense oracles of ``tests/oracles.py`` on a few
sampled rows (n <= 8 only), closed-form shot bounds, and the exact
concentration-avoidance values stored in ``reference/exact_ca.json``.
Sampled kernels are checked against binomial tolerances, never against
seed-exact values, so re-keying the program's random streams keeps them
passing. A failed check is recorded and the run goes on.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
from scipy import stats

import reference as ref
import workloads as wl

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# per-side tail probability below which a sampled entry counts as wrong;
# with ~45k entries per pass a false alarm stays below 1e-7 per pass
TAIL = 1e-12
# six-sigma multiplier for Gaussian-approximated tolerances
SIGMAS = 6.0
Z_CA = NormalDist().inv_cdf(wl.P_CA)
# absolute error allowed in a proportion computed from a reduced state: far
# above float64 rounding (1e-16 per operation), far below any real error
PROPORTION_ERROR = 1e-13
P_SPREAD = 0.9
GAMMA = 1.0


def _ceil(x):
    # the shot-count convention: ceiling with a 1e-9 guard, floored at 1
    return np.maximum(1, np.ceil(np.asarray(x, dtype=float) - 1e-9))


def _close(a, b, rtol=1e-7, atol=1e-12) -> bool:
    return bool(np.allclose(np.asarray(a, float), np.asarray(b, float), rtol=rtol, atol=atol))


def _same_count(a, b) -> bool:
    # a shot count recomputed in another float order may round across an
    # integer, and near-concentrated proportions amplify rounding dust
    a, b = np.asarray(a, float), np.asarray(b, float)
    return bool(np.all(np.abs(a - b) <= 1.0 + 1e-6 * np.abs(b)))


def _upper(matrix: np.ndarray) -> np.ndarray:
    return matrix[np.triu_indices(matrix.shape[0], k=1)]


def _stats(entries: np.ndarray, oracles) -> dict:
    return {
        "mean": float(np.mean(entries)),
        "std": float(np.std(entries)),
        "median": oracles.quantile_type7(entries, 0.5),
        "iqr": oracles.quantile_type7(entries, 0.75) - oracles.quantile_type7(entries, 0.25),
    }


def _sample_rows(m: int) -> list[int]:
    return [0, m // 2, m - 1]


class Checker:
    """Checks one workload's step outputs; references are built once."""

    def __init__(self, data: dict, oracles) -> None:
        self.oracles = oracles
        self.points = {m: ref.prepared_features(f) for m, f in data.items()}
        self.exact_ca = json.loads((REFERENCE_DIR / "exact_ca.json").read_text())
        self._cache: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- bookkeeping -----------------------------------------------------

    def record(self, step: str, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{step}: {name}")

    def check(self, step: wl.Step, out_dir: Path, result) -> None:
        """``result`` is the CLI exit code or the library step's values;
        a step that raised is passed as an exception."""
        if isinstance(result, BaseException) or (step.command and result != 0):
            self.record(step.name, f"step failed: {result!r}", False)
            return
        try:
            getattr(self, "_" + step.name.replace("-", "_"))(step, out_dir, result)
        except Exception as exc:  # an unreadable artifact is a failed check
            self.record(step.name, f"artifact unreadable: {exc!r}", False)

    # -- references ------------------------------------------------------

    def _fidelity(self, m: int, n: int) -> np.ndarray:
        key = ("fid", m, n)
        if key not in self._cache:
            values = ref.fidelity_kernel(ref.states(self.points[m], n))
            np.fill_diagonal(values, 1.0)
            self._cache[key] = values
        return self._cache[key]

    def _components(self, m: int, n: int) -> np.ndarray:
        key = ("comp", m, n)
        if key not in self._cache:
            self._cache[key] = ref.components(ref.states(self.points[m], n), n)
        return self._cache[key]

    def _wide(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact projected kernel and sampled fidelity rows at n = 14."""
        if "wide" not in self._cache:
            comps, rows = ref.chunked(self.points[200], 14, _sample_rows(200))
            self._cache["wide"] = ref.projected_kernel(comps, GAMMA), rows
        return self._cache["wide"]

    def _oracle_states(self, m: int, n: int) -> dict:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return {
            i: self.oracles.embedding_unitary(self.points[m][i, :n], n, 2, pairs)[:, 0]
            for i in _sample_rows(m)
        }

    # -- Gram matrices ---------------------------------------------------

    def _gram(self, name: str, path: Path) -> np.ndarray:
        values = np.loadtxt(path, delimiter=",", skiprows=1)
        self.record(name, "gram symmetric", bool(np.array_equal(values, values.T)))
        self.record(name, "gram unit diagonal", bool(np.all(np.diag(values) == 1.0)))
        self.record(name, "gram in [0, 1]", bool(np.all((values >= 0.0) & (values <= 1.0))))
        lowest = float(np.linalg.eigvalsh(values)[0])
        self.record(name, "gram PSD", lowest >= -1e-8)
        return values

    def _kernels_fidelity_exact(self, step, out_dir, _):
        values = self._gram(step.name, out_dir / "gram.csv")
        _, rows = self._wide()
        self.record(step.name, "sampled rows match reference",
                    _close(values[_sample_rows(200)], rows, rtol=0, atol=1e-9))

    def _kernels_projected_sampled(self, step, out_dir, _):
        values = self._gram(step.name, out_dir / "gram.csv")
        exact, _ = self._wide()
        tol = _projected_tolerance(exact, 14, wl.N_SHOTS, wl.P_ERROR)
        self.record(step.name, "entries within sampling tolerance",
                    bool(np.all(np.abs(values - exact) <= tol)))

    def _kernels_fidelity_sampled(self, step, out_dir, _):
        name = step.name
        exact = self._fidelity(300, 6)
        values = np.loadtxt(out_dir / "gram.csv", delimiter=",", skiprows=1)
        self.record(name, "gram symmetric", bool(np.array_equal(values, values.T)))
        self.record(name, "gram unit diagonal", bool(np.all(np.diag(values) == 1.0)))
        self.record(name, "gram in [0, 1]", bool(np.all((values >= 0.0) & (values <= 1.0))))
        q = (1.0 - wl.P_ERROR) * _upper(exact) + wl.P_ERROR * 2.0**-6
        # finite-shot fidelity estimates are not PSD; by Weyl's inequality
        # lambda_min(values) >= lambda_min(exact) - ||values - exact||_F
        lowest = float(np.linalg.eigvalsh(values)[0])
        self.record(name, "gram PSD up to sampling error",
                    lowest >= float(np.linalg.eigvalsh(exact)[0])
                    - _fidelity_error_norm(_upper(exact), q, wl.N_SHOTS) - 1e-9)
        successes = np.rint(_upper(values) * wl.N_SHOTS)
        low = stats.binom.cdf(successes, wl.N_SHOTS, q)
        high = stats.binom.sf(successes - 1, wl.N_SHOTS, q)
        self.record(name, "entries within binomial tails",
                    bool(np.all((low >= TAIL) & (high >= TAIL))))

    # -- shot budgets ----------------------------------------------------

    def _budget_entries(self, name: str, payload: dict, m: int, exact: np.ndarray):
        entries = payload["entries"]
        iu = np.triu_indices(m, k=1)
        pairs = np.array([(e["i"], e["j"]) for e in entries])
        self.record(name, "one entry per pair", np.array_equal(pairs, np.column_stack(iu)))
        kappa = np.array([e["inputs"]["kappa"] for e in entries])
        self.record(name, "kappa matches reference", _close(kappa, exact[iu], rtol=0, atol=1e-9))
        n_spread = np.array([e["n_spread"] for e in entries], dtype=float)
        n_ca = np.array([e["n_ca"] for e in entries], dtype=float)
        required = np.array([e["n_required"] for e in entries], dtype=float)
        self.record(name, "n_required = max(n_spread, n_ca), bounded",
                    bool(np.all(required == np.maximum(n_spread, n_ca)))
                    and not any(e["unbounded"] for e in entries))
        truth = _stats(exact[iu], self.oracles)
        self.record(name, "statistics match reference",
                    all(_close(payload["statistics"][k], v) for k, v in truth.items()))
        return entries, kappa, n_spread, n_ca, truth

    def _oracle_block(self, name: str, entries, kappa, m: int, n: int, projected: bool) -> None:
        """Kernel values of the sampled rows against the dense oracles."""
        index = {(e["i"], e["j"]): k for k, e in enumerate(entries)}
        psi = self._oracle_states(m, n)
        rows = sorted(psi)
        ok = True
        for a in rows:
            for b in rows:
                if a >= b:
                    continue
                if projected:
                    dist = sum(
                        np.sum(np.abs(self.oracles.dense_partial_trace(psi[a], n, k)
                                      - self.oracles.dense_partial_trace(psi[b], n, k)) ** 2)
                        for k in range(n)
                    )
                    expected = math.exp(-GAMMA * dist)
                else:
                    expected = abs(np.vdot(psi[b], psi[a])) ** 2
                ok &= abs(kappa[index[(a, b)]] - expected) <= 1e-9
        self.record(name, "oracle rows match", bool(ok))

    def _estimate_shots_projected(self, step, out_dir, _):
        name, m, n = step.name, 150, 6
        payload = json.loads((out_dir / "shot_budgets.json").read_text())
        comps = self._components(m, n)
        exact = ref.projected_kernel(comps, GAMMA)
        entries, kappa, n_spread, n_ca, truth = self._budget_entries(name, payload, m, exact)
        self._oracle_block(name, entries, kappa, m, n, projected=True)
        # concentration avoidance: z-score bound, worst over the 6n proportions.
        # Near 0.5 the bound is ill-conditioned (relative change 2 delta /
        # offset), so it is bracketed by moving every offset by PROPORTION_ERROR.
        props = np.stack([comps[..., 0], comps[..., 1] + 0.5, 0.5 - comps[..., 2]], -1)
        props = props.reshape(m, -1)
        offset = np.abs(props - 0.5)

        def worst(shift: float) -> np.ndarray:
            gap = np.maximum(offset + shift, 1e-300)
            with np.errstate(over="ignore"):
                bound = _ceil(Z_CA**2 * props * (1 - props) / gap**2)
            return np.where(offset > 1e-15, bound, 1.0).max(axis=1)

        iu = np.triu_indices(m, k=1)
        low, high = (np.maximum(b[iu[0]], b[iu[1]])
                     for b in (worst(PROPORTION_ERROR), worst(-PROPORTION_ERROR)))
        self.record(name, "n_ca matches z-score bound",
                    bool(np.all((n_ca >= low - 1.0) & (n_ca <= high + 1.0))))
        # spread: literal double sum of the oracle on a fixed sample of pairs
        denom = (1.0 - P_SPREAD) * truth["iqr"] ** 2
        ok = True
        for k in range(0, len(entries), 997):
            i, j = entries[k]["i"], entries[k]["j"]
            v = sum(self.oracles.pq_variance_term_sum(props[i].reshape(n, 3)[q],
                                                      props[j].reshape(n, 3)[q])
                    for q in range(n))
            ok &= _same_count(n_spread[k], _ceil(n * GAMMA**2 * kappa[k] ** 2 * v / denom))
        self.record(name, "n_spread matches oracle variance sum", bool(ok))
        logs = np.log(exact[iu])
        self.record(name, "log mean matches reference",
                    _close(payload["statistics"]["log_mean"], np.mean(logs)))
        scale = math.sqrt(-np.mean(logs) / (12.0 * GAMMA * n))
        self.record(name, "dataset n_ca matches z-score bound",
                    _same_count(payload["dataset_budget"]["n_ca"],
                                _ceil(Z_CA**2 * 0.25 / scale**2)))

    def _estimate_shots_fidelity_noisy(self, step, out_dir, _):
        name, m, n = step.name, 150, 6
        payload = json.loads((out_dir / "shot_budgets.json").read_text())
        exact = self._fidelity(m, n)
        entries, kappa, n_spread, n_ca, truth = self._budget_entries(name, payload, m, exact)
        self._oracle_block(name, entries, kappa, m, n, projected=False)
        self.record(name, "noisy n_spread = 4 / ((1 - p) iqr^2)",
                    _same_count(n_spread, _ceil(4.0 / ((1.0 - P_SPREAD) * truth["iqr"] ** 2))))
        q = (1.0 - wl.P_ERROR) * kappa + wl.P_ERROR * 2.0**-n
        self.record(name, "noisy n_ca is the minimal N for one success",
                    _same_count(n_ca, _ceil(math.log(1.0 - wl.P_CA) / np.log1p(-q))))

    # -- exact concentration-avoidance bounds ----------------------------

    def _exact_ca_grid(self, step, _, values):
        for row, got in zip(self.exact_ca, values):
            self.record(step.name, f"exact N at {row['case']}", got == row["n"])
        self.record(step.name, "one value per reference case", len(values) == len(self.exact_ca))

    # -- sweeps, characteristics and resources ---------------------------

    def _series(self, path: Path) -> dict:
        rows: dict = {}
        for line in path.read_text().splitlines()[1:]:
            statistic, n, value = line.split(",")
            rows.setdefault(statistic, []).append((int(n), float(value)))
        return {k: np.array(sorted(v)) for k, v in rows.items()}

    def _fits(self, name: str, series: dict, fits: dict) -> None:
        ok = True
        for statistic, fit in fits.items():
            ns, values = series[statistic][:, 0], series[statistic][:, 1]
            if "skipped" in fit:
                ok &= bool(np.any(values <= 0) or values.size < 4)
                continue
            d = fit["dropped_prefix"]
            slope, intercept, r2 = self.oracles.ols_line(ns[d:], np.log2(values[d:]))
            ok &= abs(fit["alpha"] - slope) <= 1e-9 * max(1.0, abs(slope))
            ok &= abs(fit["log2_scale"] - intercept) <= 1e-9 * max(1.0, abs(intercept))
            ok &= abs(fit["r_squared"] - r2) <= 1e-9
            ok &= fit["valid"] == (fit["r_squared"] >= fit["threshold"])
            for target, value in fit.get("extrapolations", {}).items():
                ok &= _close(value, 2.0 ** (intercept + slope * int(target)), rtol=1e-9)
        self.record(name, "fit alpha, R^2 and extrapolations match OLS oracle", bool(ok))

    def _sweep(self, step, out_dir, projected: bool):
        name, m = step.name, 100
        series = self._series(out_dir / "series.csv")
        fits = json.loads((out_dir / "fits.json").read_text())["fits"]
        ok_stats, ok_ca = True, True
        for idx, n in enumerate(wl.SWEEP_N):
            if projected:
                kernel = ref.projected_kernel(self._components(m, n), GAMMA)
            else:
                kernel = self._fidelity(m, n)
            entries = _upper(kernel)
            truth = _stats(entries, self.oracles)
            ok_stats &= all(_close(series[k][idx, 1], v) for k, v in truth.items())
            if projected:
                scale = math.sqrt(-np.mean(np.log(entries)) / (12.0 * GAMMA * n))
                expected = _ceil(Z_CA**2 * 0.25 / scale**2)
            else:
                expected = _ceil(math.log(1.0 - wl.P_CA) / math.log1p(-truth["median"]))
            ok_ca &= _same_count(series["n_ca"][idx, 1], expected)
        self.record(name, "series statistics match reference", bool(ok_stats))
        self.record(name, "dataset n_ca matches closed form", bool(ok_ca))
        self.record(name, "budgets are finite shot counts",
                    bool(np.all(series["n_spread"][:, 1] >= 1)
                         and np.all(np.isfinite(series["n_spread"][:, 1]))))
        self._fits(name, series, fits)

    def _sweep_projected(self, step, out_dir, _):
        self._sweep(step, out_dir, projected=True)

    def _sweep_fidelity(self, step, out_dir, _):
        self._sweep(step, out_dir, projected=False)

    def _characterize(self, step, out_dir, _):
        name, m = step.name, 100
        series = self._series(out_dir / "characteristics.csv")
        expr = [np.mean(self._fidelity(m, n) ** 2) - ref.haar_second_moment(n) for n in wl.SWEEP_N]
        entropy = [ref.relative_entropy(self._components(m, n)) for n in wl.SWEEP_N]
        self.record(name, "expressibility matches reference",
                    _close(series["expressibility"][:, 1], expr, rtol=1e-7, atol=1e-12))
        self.record(name, "relative entropy matches reference",
                    _close(series["relative_entropy"][:, 1], entropy, rtol=1e-7, atol=1e-12))
        fits = json.loads((out_dir / "characteristics_fits.json").read_text())["fits"]
        self._fits(name, series, fits)

    def _resources(self, step, out_dir, _):
        name = step.name
        payload = json.loads((out_dir / "resources.json").read_text())
        rows = payload["scenarios"]
        self.record(name, "one scenario per n", [r["n"] for r in rows] == wl.RESOURCE_N)
        m = step.config["resources"]["m"]
        self.record(name, "total shots = shots x m(m-1)/2",
                    all(r["quantum"]["total_shots"] == wl.N_SHOTS * m * (m - 1) // 2 for r in rows))
        runtimes = [r["quantum"]["runtime_s"] for r in rows]
        classical = [r["classical"]["runtime_s"] for r in rows]
        self.record(name, "costs positive, finite and growing with n",
                    all(math.isfinite(v) and v > 0 for v in runtimes + classical)
                    and runtimes == sorted(runtimes) and classical == sorted(classical))
        self.record(name, "crossover reported", set(payload.get("crossover_n", {})) == {"runtime", "energy"})


def _projected_tolerance(exact: np.ndarray, n: int, shots: int, p_error: float) -> np.ndarray:
    """Per-entry bound on |sampled - exact| for the projected kernel.

    With D = -ln(k) / gamma the exact distance, every component difference
    carries estimation noise of variance at most s^2 = 2 * 1/(4 N) (two
    independent binomial proportions) and a depolarising shrink of p |Delta|.
    A six-sigma bound on D_hat - D = 2 sum (2 Delta delta + delta^2) is then
    4 p S + 24 s sqrt(S) + 4 (p^2 S + K s^2 + 6 s^2 sqrt(2K)), S = D / 2,
    K = 3n components, and the kernel moves by at most k (exp(gamma T) - 1).
    """
    s2 = 2.0 / (4.0 * shots)
    k_terms = 3 * n
    big_s = -np.log(np.maximum(exact, 1e-300)) / (2.0 * GAMMA)
    bound = (
        4.0 * p_error * big_s
        + 4.0 * SIGMAS * np.sqrt(s2 * big_s)
        + 4.0 * (p_error**2 * big_s + k_terms * s2 + SIGMAS * s2 * math.sqrt(2.0 * k_terms))
    )
    return exact * np.expm1(GAMMA * bound) + 1e-12


def _fidelity_error_norm(exact: np.ndarray, q: np.ndarray, shots: int) -> float:
    """Bound on ||sampled - exact||_F for a sampled fidelity Gram, fixed in
    advance from the binomial model of its upper-triangle entries.

    ``exact`` and ``q`` (the success probabilities) are the upper triangle;
    the diagonal is exact. With X = B / N - q, B ~ Binomial(N, q), the noise
    part 2 sum X^2 has mean 2 sum v, v = q (1 - q) / N, and variance
    4 sum (E X^4 - v^2), E X^4 = q (1 - q) (1 + 3 (N - 2) q (1 - q)) / N^3.
    The bound is the depolarising bias ||q - exact||_F plus the square root
    of that mean plus six standard deviations.
    """
    pq = q * (1.0 - q)
    v = pq / shots
    fourth = pq * (1.0 + 3.0 * (shots - 2) * pq) / shots**3
    noise = 2.0 * np.sum(v) + SIGMAS * math.sqrt(4.0 * np.sum(fourth - v**2))
    return math.sqrt(2.0) * float(np.linalg.norm(q - exact)) + math.sqrt(noise)
