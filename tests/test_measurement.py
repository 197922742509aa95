import numpy as np
import pytest

from qkshots import (
    ConfigurationError,
    FeatureMapConfig,
    NoiseModel,
    ReducedDensityMatrix,
    gram_matrix,
    sample_fidelity,
    sample_gram,
    sample_tomography,
)
from qkshots.kernels import projected_gram_values, reduced_component_table
from qkshots.measurement import (
    depolarized_component_probability,
    depolarized_fidelity_probability,
    measured_proportions,
    total_shot_count,
)


class TestNoiseModel:
    def test_rejects_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            NoiseModel(p_error=1.5)

    def test_depolarized_probabilities(self):
        assert depolarized_fidelity_probability(0.8, 0.1, 1) == pytest.approx(0.77)
        assert depolarized_fidelity_probability(0.5, 0.0, 4) == 0.5
        assert depolarized_component_probability(0.9, 0.2) == pytest.approx(0.82)


class TestSampleFidelity:
    def test_zero_kernel_never_succeeds(self):
        result = sample_fidelity(0.0, 500, seed=1)
        assert result.estimate == 0.0 and result.successes == 0

    def test_unit_kernel_always_succeeds(self):
        result = sample_fidelity(1.0, 500, seed=1)
        assert result.estimate == 1.0

    def test_deterministic_under_seed(self):
        a = sample_fidelity(0.37, 1000, seed=99)
        b = sample_fidelity(0.37, 1000, seed=99)
        assert (a.successes, a.estimate) == (b.successes, b.estimate)
        c = sample_fidelity(0.37, 1000, seed=100)
        assert c.successes != a.successes  # different stream

    def test_noisy_mean_matches_arithmetic(self):
        # q = 0.9 * 0.8 + 0.1 * 0.5 = 0.77 for a single qubit
        noise = NoiseModel(p_error=0.1)
        n_shots, reps = 10, 100_000
        total = 0.0
        for i in range(reps):
            total += sample_fidelity(
                0.8, n_shots, noise=noise, n_qubits=1, seed=7, stream=i
            ).estimate
        mean = total / reps
        se = np.sqrt(0.77 * 0.23 / (n_shots * reps))
        assert abs(mean - 0.77) <= 3 * se

    def test_unbiased_noiseless(self):
        kappa, n_shots, reps = 0.3, 50, 10_000
        estimates = [
            sample_fidelity(kappa, n_shots, seed=13, stream=i).estimate
            for i in range(reps)
        ]
        tolerance = 4 * np.sqrt(kappa * (1 - kappa) / (n_shots * reps))
        assert abs(np.mean(estimates) - kappa) <= tolerance

    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.9])
    def test_variance_law(self, kappa):
        n_shots, reps = 100, 10_000
        estimates = np.array(
            [
                sample_fidelity(kappa, n_shots, seed=5, stream=i).estimate
                for i in range(reps)
            ]
        )
        expected = kappa * (1 - kappa) / n_shots
        assert abs(np.var(estimates) - expected) <= 0.1 * expected

    def test_rejects_invalid_kappa(self):
        with pytest.raises(ValueError):
            sample_fidelity(1.2, 10)


class TestSampleTomography:
    def test_maximally_mixed_fixed_point(self):
        rho = [ReducedDensityMatrix.maximally_mixed()]
        n_shots = 200_000
        result = sample_tomography(rho, n_shots, seed=3)
        d, r, i = result.matrices[0].components
        sigma = np.sqrt(0.25 / n_shots)
        assert abs(d - 0.5) <= 3 * sigma
        assert abs(r) <= 3 * sigma
        assert abs(i) <= 3 * sigma

    def test_pure_state_population_exact(self):
        rho = [ReducedDensityMatrix.from_components(1.0, 0.0, 0.0)]
        result = sample_tomography(rho, 1_000_000, seed=8)
        # success probability 1 has zero binomial spread
        assert result.matrices[0].population == 1.0

    def test_full_depolarising_forgets_the_state(self):
        rho = [ReducedDensityMatrix.from_components(1.0, 0.0, 0.0)]
        n_shots = 200_000
        result = sample_tomography(rho, n_shots, noise=NoiseModel(1.0), seed=4)
        d, r, i = result.matrices[0].components
        sigma = np.sqrt(0.25 / n_shots)
        assert abs(d - 0.5) <= 3 * sigma
        assert abs(r) <= 3 * sigma and abs(i) <= 3 * sigma

    def test_marginal_moments_match_binomial(self):
        rho = [ReducedDensityMatrix.from_components(0.3, 0.2, -0.1)]
        q = measured_proportions(rho[0])[0]  # population proportion
        n_shots, reps = 100, 10_000
        draws = np.array(
            [
                sample_tomography(rho, n_shots, seed=21, stream=i).matrices[0].population
                for i in range(reps)
            ]
        )
        se = np.sqrt(q * (1 - q) / (n_shots * reps))
        assert abs(draws.mean() - q) <= 4 * se
        expected_var = q * (1 - q) / n_shots
        assert abs(draws.var() - expected_var) <= 0.1 * expected_var

    def test_estimates_stay_physical(self):
        # near-pure state with strong coherence provokes the PSD clip
        rho = [ReducedDensityMatrix.from_components(0.97, 0.15, 0.05)]
        for stream in range(200):
            result = sample_tomography(rho, 8, seed=31, stream=stream)
            assert min(result.matrices[0].eigenvalues()) >= -1e-10

    def test_success_counts_shape(self):
        rhos = [ReducedDensityMatrix.maximally_mixed() for _ in range(3)]
        result = sample_tomography(rhos, 10, seed=0)
        assert result.successes.shape == (3, 3)
        assert np.all(result.successes >= 0) and np.all(result.successes <= 10)


class TestSampleGram:
    def test_total_shot_formulas(self):
        assert total_shot_count("fidelity", 100, 1000) == 4_950_000
        assert total_shot_count("projected", 100, 1000) == 300_000
        assert total_shot_count("fidelity", 2, 77) == 77

    def test_estimates_converge_to_exact(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(5, 2))
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        exact = gram_matrix(points, cfg)
        n_shots = 10_000_000
        sampled = sample_gram(points, cfg, n_shots=n_shots, seed=12)
        worst = 5 * np.sqrt(0.25 / n_shots)
        assert np.max(np.abs(sampled.values - exact.values)) <= worst

    def test_metadata_records_run(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(4, 2))
        cfg = FeatureMapConfig(n_qubits=2)
        sampled = sample_gram(
            points, cfg, n_shots=64, noise=NoiseModel(0.05), seed=77
        )
        assert sampled.metadata["seed"] == 77
        assert sampled.metadata["n_shots"] == 64
        assert sampled.metadata["p_error"] == 0.05
        assert sampled.metadata["total_shots"] == 64 * 6

    def test_projected_diagonal_is_exactly_one(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(4, 2))
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        sampled = sample_gram(points, cfg, family="projected", n_shots=32, seed=5)
        assert np.all(np.diag(sampled.values) == 1.0)
        assert sampled.metadata["total_shots"] == 3 * 4 * 32

    @pytest.mark.parametrize("family", ["fidelity", "projected"])
    def test_thread_count_never_changes_draws(self, family):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(6, 2))
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        serial = sample_gram(points, cfg, family=family, n_shots=256, seed=42)
        pooled = sample_gram(
            points, cfg, family=family, n_shots=256, seed=42, threads=4
        )
        assert np.array_equal(serial.values, pooled.values)

    def test_projected_estimate_close_at_large_n(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(4, 2))
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        exact = gram_matrix(points, cfg, family="projected", gamma=1.0)
        sampled = sample_gram(
            points, cfg, family="projected", gamma=1.0, n_shots=1_000_000, seed=6
        )
        assert np.max(np.abs(sampled.values - exact.values)) < 5e-3

    @pytest.mark.parametrize("p_error", [0.0, 0.05])
    def test_projected_point_is_one_point_tomography(self, p_error):
        """Point i of the batch draws what sample_tomography draws with
        stream i, so the estimated tables and Gram matrices agree exactly."""
        rng = np.random.default_rng(12)
        points = rng.normal(size=(5, 3))
        cfg = FeatureMapConfig(n_qubits=3, repetitions=2, entanglement="full")
        noise = NoiseModel(p_error)
        batch = sample_gram(points, cfg, family="projected", gamma=0.7, n_shots=16,
                            noise=noise, seed=19)
        table = reduced_component_table(points, cfg)
        results = [
            sample_tomography([ReducedDensityMatrix.from_components(*c) for c in row],
                              16, noise=noise, seed=19, stream=i)
            for i, row in enumerate(table)
        ]
        estimated = np.array([[rho.components for rho in r.matrices] for r in results])
        assert np.array_equal(batch.values, projected_gram_values(estimated, 0.7))
        assert batch.metadata["psd_clipped"] == sum(
            r.metadata["psd_clipped"] for r in results)

    def test_psd_clipped_counts_rescaled_estimates(self):
        """At 4 shots many estimates leave the Bloch ball; the count equals a
        per-(point, qubit) check of the drawn proportions."""
        rng = np.random.default_rng(13)
        points = rng.normal(size=(8, 3))
        cfg = FeatureMapConfig(n_qubits=3, repetitions=2, entanglement="full")
        sampled = sample_gram(points, cfg, family="projected", n_shots=4, seed=23)
        table = reduced_component_table(points, cfg)
        expected = 0
        for i, row in enumerate(table):
            rhos = [ReducedDensityMatrix.from_components(*c) for c in row]
            counts = sample_tomography(rhos, 4, seed=23, stream=i).successes
            for z, x, y in counts / 4:
                expected += (x - 0.5) ** 2 + (0.5 - y) ** 2 > z * (1 - z)
        assert sampled.metadata["psd_clipped"] == expected > 0
        assert "psd_clipped" not in sample_gram(points, cfg, n_shots=4, seed=23).metadata
