import numpy as np
import pytest

from qkshots import (
    ConfigurationError,
    Dataset,
    ScalingSeries,
    concentration_check,
    extrapolate,
    fit_exponential,
    sweep,
)

from oracles import ols_line


def exact_series(ns, log2_scale=3.0, alpha=-0.5):
    ns = np.asarray(ns, dtype=float)
    return 2.0 ** (log2_scale + alpha * ns)


class TestFitExponential:
    def test_exact_series_recovered(self):
        ns = np.arange(2, 11)
        fit = fit_exponential(ns, exact_series(ns))
        assert fit.alpha == pytest.approx(-0.5, abs=1e-9)
        assert fit.log2_scale == pytest.approx(3.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.dropped_prefix == 0
        assert fit.valid

    def test_contaminated_prefix_dropped(self):
        ns = np.arange(2, 11)
        values = exact_series(ns)
        values[:3] *= 10.0
        fit = fit_exponential(ns, values)
        assert fit.dropped_prefix == 3
        assert fit.alpha == pytest.approx(-0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        # oracle: exhaustive scan confirms drop 3 is the first exact fit
        for d in range(len(ns) - 2):
            _, _, r2 = ols_line(ns[d:], np.log2(values[d:]))
            if d < 3:
                assert r2 < 0.99
            else:
                assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_white_noise_mostly_invalid(self):
        rng = np.random.default_rng(55)
        ns = np.arange(2, 12)
        invalid = 0
        for _ in range(100):
            values = np.exp(rng.normal(size=ns.size))
            fit = fit_exponential(ns, values)
            invalid += not fit.valid
        assert invalid >= 95

    def test_scale_shift_consistency(self):
        ns = np.arange(2, 11)
        rng = np.random.default_rng(4)
        values = exact_series(ns) * np.exp(rng.normal(scale=0.02, size=ns.size))
        base = fit_exponential(ns, values)
        scaled = fit_exponential(ns, values * 64.0)
        assert scaled.alpha == pytest.approx(base.alpha, abs=1e-12)
        assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-12)
        assert scaled.dropped_prefix == base.dropped_prefix
        assert scaled.log2_scale - base.log2_scale == pytest.approx(6.0, abs=1e-12)

    def test_alpha_recovered_for_any_drop_on_exact_input(self):
        ns = np.arange(2, 11)
        values = exact_series(ns)
        for d in range(len(ns) - 2):
            slope, _, _ = ols_line(ns[d:], np.log2(values[d:]))
            assert slope == pytest.approx(-0.5, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_exponential([2, 3, 4], [1.0, 0.5, 0.25])

    def test_non_positive_values(self):
        with pytest.raises(ValueError):
            fit_exponential([2, 3, 4, 5], [1.0, 0.5, 0.0, 0.25])

    def test_four_points_uses_threshold_fallback(self):
        ns = np.array([2, 3, 4, 5])
        fit = fit_exponential(ns, exact_series(ns))
        assert fit.dropped_prefix == 0 and fit.valid


class TestExtrapolate:
    def test_direct_evaluation(self):
        ns = np.arange(2, 11)
        fit = fit_exponential(ns, exact_series(ns))
        assert extrapolate(fit, 20) == pytest.approx(8 * 2**-10.0, rel=1e-12)

    def test_matches_line_at_last_fitted_point(self):
        ns = np.arange(2, 11)
        fit = fit_exponential(ns, exact_series(ns))
        assert extrapolate(fit, 10) == pytest.approx(
            2.0 ** (fit.log2_scale + fit.alpha * 10), rel=0
        )

    def test_invalid_fit_rejected(self):
        rng = np.random.default_rng(1)
        ns = np.arange(2, 12)
        fit = fit_exponential(ns, np.exp(rng.normal(size=ns.size)))
        if fit.valid:  # extremely unlikely under this seed
            pytest.skip("noise fit happened to be valid")
        with pytest.raises(ValueError):
            extrapolate(fit, 20)


class TestConcentrationCheck:
    def test_power_of_two_decay(self):
        ns = np.arange(2, 11)
        series = ScalingSeries("mean", ns, 2.0 ** (-ns.astype(float)))
        report = concentration_check(series, mu=0.0)
        assert report.concentrated
        assert report.decay_base == pytest.approx(2.0, abs=1e-9)

    def test_constant_series_not_concentrated(self):
        ns = np.arange(2, 11)
        series = ScalingSeries("mean", ns, np.full(ns.size, 0.3))
        report = concentration_check(series, mu=0.0)
        assert not report.concentrated
        assert report.fit.alpha == pytest.approx(0.0, abs=1e-12)

    def test_scrambled_embedding_concentrates_at_haar_rate(self):
        # random angles under a deep fully-connected map: mean kernel decays
        # towards 0 roughly like 2^-n, so the decay base should be near 2
        from qkshots import (
            FeatureMapConfig,
            generate_random_angles,
            gram_matrix,
            kernel_statistics,
        )

        ns = list(range(2, 10))
        means = []
        for n in ns:
            data = generate_random_angles(80, n, seed=300 + n)
            cfg = FeatureMapConfig(n_qubits=n, repetitions=6, entanglement="full")
            means.append(kernel_statistics(gram_matrix(data.features, cfg)).mean)
        report = concentration_check(
            ScalingSeries("mean", np.array(ns), np.array(means)), mu=0.0
        )
        assert report.concentrated
        assert report.decay_base == pytest.approx(2.0, abs=0.3)


class TestSweep:
    def _toy_dataset(self):
        rng = np.random.default_rng(10)
        return Dataset(
            features=rng.normal(size=(8, 4)),
            labels=np.array([0, 1] * 4),
            dataset_id="toy",
        )

    def test_emits_requested_series(self):
        series = sweep(
            self._toy_dataset(),
            family="fidelity",
            repetitions=1,
            entanglement="linear",
            n_values=[2, 3],
        )
        assert set(series) == {"mean", "std", "median", "iqr", "n_spread", "n_ca"}
        for s in series.values():
            assert list(s.qubit_counts) == [2, 3]

    def test_empty_sizes_give_the_shared_message(self):
        with pytest.raises(ConfigurationError,
                           match=r"^qubit counts must be non-empty and strictly increasing, got \[\]$"):
            sweep(self._toy_dataset(), family="fidelity", repetitions=1,
                  entanglement="linear", n_values=[])

    def test_projected_sweep_runs(self):
        series = sweep(
            self._toy_dataset(),
            family="projected",
            repetitions=1,
            entanglement="full",
            n_values=[2, 3],
            gamma=0.5,
        )
        assert np.all(series["mean"].values > 0)

    def test_insufficient_features(self):
        with pytest.raises(ConfigurationError):
            sweep(
                self._toy_dataset(),
                family="fidelity",
                repetitions=1,
                entanglement="linear",
                n_values=[2, 9],
            )

    def test_budget_columns_optional(self):
        series = sweep(
            self._toy_dataset(),
            family="fidelity",
            repetitions=1,
            entanglement="linear",
            n_values=[2, 3],
            include_budgets=False,
        )
        assert set(series) == {"mean", "std", "median", "iqr"}

    def test_twonorm_subset_median_decay(self):
        # reference decay exponent for the two-Gaussian benchmark: the
        # median of a 100-point subset falls like 2^(-alpha n) with
        # alpha near 1.22 for the chain strategy at one repetition
        from qkshots import generate_twonorm, preprocess, stratify

        dataset = preprocess(generate_twonorm(7400, n_features=20, seed=7))
        subset = stratify(dataset, subset_size=100, seed=11)[0]
        series = sweep(
            subset,
            family="fidelity",
            repetitions=1,
            entanglement="linear",
            n_values=list(range(2, 11)),
            include_budgets=False,
        )
        fit = series["median"].fit()
        assert fit.valid
        assert -fit.alpha == pytest.approx(1.22, abs=0.2)


class TestScalingSeriesValidation:
    def test_rejects_non_increasing_counts(self):
        with pytest.raises(ValueError):
            ScalingSeries("mean", [2, 2, 3], [1.0, 2.0, 3.0])

    def test_rejects_empty_counts(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            ScalingSeries("mean", [], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ScalingSeries("mean", [2, 3], [1.0])
