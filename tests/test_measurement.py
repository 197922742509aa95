import numpy as np
import pytest

import qkshots
from qkshots import (
    ConfigurationError,
    FeatureMapConfig,
    KernelMatrix,
    dataset_budget,
    entry_budgets,
    generate_twonorm,
    gram_matrix,
    n_ca_noisy_binomial_exact,
    n_ca_noisy_fq,
    n_ca_noisy_pq_normal,
    sample_gram,
    sweep,
)
from qkshots.kernels import projected_gram_values, reduced_component_table
from qkshots.measurement import (
    _estimated_components,
    _rng,
    component_proportions,
    depolarized_component_probability,
    depolarized_fidelity_probability,
    total_shots,
)

from oracles import components_to_matrix

ONE_QUBIT = FeatureMapConfig(n_qubits=1)


def sample_entries(kappa, n_shots, reps, p_error=0.0, seed=0):
    """``reps`` sampled fidelity entries of true value ``kappa``: one-qubit
    points 0 and arccos(sqrt(kappa)) have kernel cos^2(x - y) = kappa, and
    a Gram matrix of k copies of each holds k^2 such entries."""
    k = int(np.ceil(np.sqrt(reps)))
    y = np.arccos(np.sqrt(kappa))
    points = [[0.0]] * k + [[y]] * k
    sampled = sample_gram(gram_matrix(points, ONE_QUBIT), n_shots, p_error, seed)
    return sampled.values[:k, k:].reshape(-1)[:reps]


def tomography(table, n_shots, p_error=0.0, seed=0, stream=0):
    """One point's tomography as ``sample_gram`` draws point ``stream``:
    (n, 3) basis counts, then the estimated physical (n, 3) components and
    the clip mask."""
    q = np.clip(component_proportions(np.reshape(table, (-1, 3)), p_error), 0.0, 1.0)
    counts = _rng(seed, stream).binomial(n_shots, q)
    return (counts, *_estimated_components(counts, n_shots))


def test_one_noise_spelling_and_one_run_count():
    for name in ("NoiseModel", "IDEAL", "total_shot_count"):
        assert not hasattr(qkshots, name) and not hasattr(qkshots.measurement, name)
    assert qkshots.total_shots is qkshots.measurement.total_shots
    assert qkshots.resources.total_shots is qkshots.measurement.total_shots


class TestDepolarisation:
    def test_depolarized_probabilities(self):
        assert depolarized_fidelity_probability(0.8, 0.1, 1) == pytest.approx(0.77)
        assert depolarized_fidelity_probability(0.5, 0.0, 4) == 0.5
        assert depolarized_component_probability(0.9, 0.2) == pytest.approx(0.82)


KAPPAS = np.array([0.3, 0.2, 0.5])
TABLE = np.full((3, 2, 3), [0.7, 0.1, 0.05])
TWONORM = generate_twonorm(m=8, n_features=3, seed=2)
EXACT = {family: gram_matrix(TWONORM.features, FeatureMapConfig(2), family=family)
         for family in ("fidelity", "projected")}


@pytest.mark.parametrize("p_error", [-0.5, 1.2, 1.5, float("nan")])
@pytest.mark.parametrize("call", [
    lambda p: sample_gram(EXACT["fidelity"], 16, p),
    lambda p: sample_gram(EXACT["projected"], 16, p),
    lambda p: sweep(TWONORM, "fidelity", 1, "linear", [1, 2], p_error=p, include_budgets=False),
    lambda p: dataset_budget(EXACT["projected"], p_error=p),
    lambda p: entry_budgets(KernelMatrix(KAPPAS, "fidelity", FeatureMapConfig(3)),
                            1.0, 0.2, 0.9, 0.99, p),
    lambda p: entry_budgets(KernelMatrix(KAPPAS, "projected", FeatureMapConfig(2),
                                         component_table=TABLE), 1.0, 0.2, 0.9, 0.99, p),
    lambda p: n_ca_noisy_fq(0.3, 0.99, p, 3),
    lambda p: n_ca_noisy_pq_normal(0.3, 0.5, 0.99, p),
    lambda p: n_ca_noisy_binomial_exact(0.3, 0.5, 0.99, p),
    lambda p: n_ca_noisy_binomial_exact(0.3, 0.0, 0.99, p, family="fidelity", n_qubits=3),
    lambda p: depolarized_fidelity_probability(0.3, p, 3),
    lambda p: depolarized_component_probability(0.3, p),
    lambda p: component_proportions(TABLE, p),
], ids=["sample_gram-fidelity", "sample_gram-projected", "sweep", "dataset_budget",
        "entry_budgets-fidelity", "entry_budgets-projected", "n_ca_noisy_fq",
        "n_ca_noisy_pq_normal", "n_ca_noisy_binomial_exact-projected",
        "n_ca_noisy_binomial_exact-fidelity", "depolarized_fidelity_probability",
        "depolarized_component_probability", "component_proportions"])
def test_every_p_error_entry_point_shares_one_check(call, p_error):
    with pytest.raises(ConfigurationError) as err:
        call(p_error)
    assert str(err.value) == f"p_error must be in [0, 1], got {p_error}"


class TestSampleFidelity:
    def test_zero_kernel_never_succeeds(self):
        estimate = sample_entries(0.0, 500, 1, seed=1)
        assert estimate[0] == 0.0

    def test_unit_kernel_always_succeeds(self):
        estimate = sample_entries(1.0, 500, 1, seed=1)
        assert estimate[0] == 1.0

    def test_deterministic_under_seed(self):
        a = sample_entries(0.37, 1000, 4, seed=99)
        b = sample_entries(0.37, 1000, 4, seed=99)
        assert np.array_equal(a, b)
        c = sample_entries(0.37, 1000, 4, seed=100)
        assert not np.array_equal(c, a)  # different stream

    def test_noisy_mean_matches_arithmetic(self):
        # q = 0.9 * 0.8 + 0.1 * 0.5 = 0.77 for a single qubit
        n_shots, reps = 10, 100_000
        mean = sample_entries(0.8, n_shots, reps, p_error=0.1, seed=7).mean()
        se = np.sqrt(0.77 * 0.23 / (n_shots * reps))
        assert abs(mean - 0.77) <= 3 * se

    def test_unbiased_noiseless(self):
        kappa, n_shots, reps = 0.3, 50, 10_000
        estimates = sample_entries(kappa, n_shots, reps, seed=13)
        tolerance = 4 * np.sqrt(kappa * (1 - kappa) / (n_shots * reps))
        assert abs(np.mean(estimates) - kappa) <= tolerance

    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.9])
    def test_variance_law(self, kappa):
        n_shots, reps = 100, 10_000
        estimates = sample_entries(kappa, n_shots, reps, seed=5)
        expected = kappa * (1 - kappa) / n_shots
        assert abs(np.var(estimates) - expected) <= 0.1 * expected


class TestSampleTomography:
    def test_maximally_mixed_fixed_point(self):
        n_shots = 200_000
        _, estimated, _ = tomography([0.5, 0.0, 0.0], n_shots, seed=3)
        d, r, i = estimated[0]
        sigma = np.sqrt(0.25 / n_shots)
        assert abs(d - 0.5) <= 3 * sigma
        assert abs(r) <= 3 * sigma
        assert abs(i) <= 3 * sigma

    def test_pure_state_population_exact(self):
        _, estimated, _ = tomography([1.0, 0.0, 0.0], 1_000_000, seed=8)
        # success probability 1 has zero binomial spread
        assert estimated[0, 0] == 1.0

    def test_full_depolarising_forgets_the_state(self):
        n_shots = 200_000
        _, estimated, _ = tomography([1.0, 0.0, 0.0], n_shots, p_error=1.0, seed=4)
        d, r, i = estimated[0]
        sigma = np.sqrt(0.25 / n_shots)
        assert abs(d - 0.5) <= 3 * sigma
        assert abs(r) <= 3 * sigma and abs(i) <= 3 * sigma

    def test_marginal_moments_match_binomial(self):
        table = [0.3, 0.2, -0.1]
        q = component_proportions(table)[0]  # population proportion
        n_shots, reps = 100, 10_000
        draws = np.array(
            [tomography(table, n_shots, seed=21, stream=i)[1][0, 0] for i in range(reps)]
        )
        se = np.sqrt(q * (1 - q) / (n_shots * reps))
        assert abs(draws.mean() - q) <= 4 * se
        expected_var = q * (1 - q) / n_shots
        assert abs(draws.var() - expected_var) <= 0.1 * expected_var

    def test_estimates_stay_physical(self):
        # near-pure state with strong coherence provokes the PSD clip
        for stream in range(200):
            _, estimated, _ = tomography([0.97, 0.15, 0.05], 8, seed=31, stream=stream)
            rho = components_to_matrix(estimated[0])
            assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_success_counts_shape(self):
        counts, _, _ = tomography([[0.5, 0.0, 0.0]] * 3, 10, seed=0)
        assert counts.shape == (3, 3)
        assert np.all(counts >= 0) and np.all(counts <= 10)


class TestSampleGram:
    def test_total_shot_formulas(self):
        assert total_shots("fidelity", 100, 1000) == 4_950_000
        assert total_shots("projected", 100, 1000) == 300_000
        assert total_shots("fidelity", 2, 77) == 77

    def test_estimates_converge_to_exact(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(5, 2))
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        exact = gram_matrix(points, cfg)
        n_shots = 10_000_000
        sampled = sample_gram(exact, n_shots=n_shots, seed=12)
        worst = 5 * np.sqrt(0.25 / n_shots)
        assert np.max(np.abs(sampled.values - exact.values)) <= worst

    def test_metadata_records_run(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(4, 2))
        cfg = FeatureMapConfig(n_qubits=2)
        sampled = sample_gram(gram_matrix(points, cfg), n_shots=64, p_error=0.05, seed=77)
        assert sampled.metadata["seed"] == 77
        assert sampled.metadata["n_shots"] == 64
        assert sampled.metadata["p_error"] == 0.05
        assert sampled.metadata["total_shots"] == 64 * 6

    def test_projected_diagonal_is_exactly_one(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(4, 2))
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        exact = gram_matrix(points, cfg, family="projected")
        sampled = sample_gram(exact, n_shots=32, seed=5)
        assert np.all(np.diag(sampled.values) == 1.0)
        assert sampled.metadata["total_shots"] == 3 * 4 * 32

    @pytest.mark.parametrize("family", ["fidelity", "projected"])
    def test_thread_count_never_changes_draws(self, family):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(6, 2))
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        serial = sample_gram(gram_matrix(points, cfg, family=family), n_shots=256, seed=42)
        pooled = sample_gram(
            gram_matrix(points, cfg, family=family, threads=4), n_shots=256, seed=42
        )
        assert np.array_equal(serial.values, pooled.values)

    def test_projected_estimate_close_at_large_n(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(4, 2))
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        exact = gram_matrix(points, cfg, family="projected", gamma=1.0)
        sampled = sample_gram(exact, n_shots=1_000_000, seed=6)
        assert np.max(np.abs(sampled.values - exact.values)) < 5e-3

    @pytest.mark.parametrize("p_error", [0.0, 0.05])
    def test_projected_point_is_one_point_tomography(self, p_error):
        """Point i of the batch draws one point's tomography from stream i,
        so the estimated tables and Gram matrices agree exactly."""
        rng = np.random.default_rng(12)
        points = rng.normal(size=(5, 3))
        cfg = FeatureMapConfig(n_qubits=3, repetitions=2, entanglement="full")
        batch = sample_gram(gram_matrix(points, cfg, family="projected", gamma=0.7),
                            n_shots=16, p_error=p_error, seed=19)
        table = reduced_component_table(points, cfg)
        results = [tomography(row, 16, p_error=p_error, seed=19, stream=i)
                   for i, row in enumerate(table)]
        estimated = np.array([r[1] for r in results])
        assert np.array_equal(batch.upper, projected_gram_values(estimated, 0.7))
        assert batch.metadata["psd_clipped"] == sum(int(r[2].sum()) for r in results)

    @pytest.mark.parametrize("p_error", [0.0, 0.05])
    @pytest.mark.parametrize("family", ["fidelity", "projected"])
    def test_draws_from_exact_gram_matrix(self, family, p_error):
        """Fidelity row i is one binomial from key i at the depolarised upper
        triangle of gram_matrix's values; projected point i draws its counts
        from key i at the proportions of gram_matrix's component table. Rows
        0, 3 and 5 share their encoded features, so their noiseless fidelity
        pairs read exactly 1."""
        rng = np.random.default_rng(14)
        points = rng.normal(size=(6, 4))
        points[[3, 5], :3] = points[0, :3]
        cfg = FeatureMapConfig(n_qubits=3, repetitions=2, entanglement="full")
        exact = gram_matrix(points, cfg, family=family, gamma=0.7)
        sampled = sample_gram(exact, n_shots=64, p_error=p_error, seed=31)
        if family == "fidelity":
            q = depolarized_fidelity_probability(exact.values, p_error, 3)
            expected = np.concatenate([_rng(31, i).binomial(64, q[i, i + 1:]) / 64
                                       for i in range(5)])
        else:
            estimated = np.array([tomography(row, 64, p_error=p_error, seed=31, stream=i)[1]
                                  for i, row in enumerate(exact.component_table)])
            expected = projected_gram_values(estimated, 0.7)
        assert np.array_equal(sampled.upper, expected)
        assert sampled.gamma == exact.gamma and sampled.component_table is None
        if family == "fidelity" and p_error == 0.0:
            assert np.all(sampled.values[np.ix_([0, 3, 5], [0, 3, 5])] == 1.0)

    def test_psd_clipped_counts_rescaled_estimates(self):
        """At 4 shots many estimates leave the Bloch ball; the count equals a
        per-(point, qubit) check of the drawn proportions."""
        rng = np.random.default_rng(13)
        points = rng.normal(size=(8, 3))
        cfg = FeatureMapConfig(n_qubits=3, repetitions=2, entanglement="full")
        sampled = sample_gram(gram_matrix(points, cfg, family="projected"), n_shots=4, seed=23)
        table = reduced_component_table(points, cfg)
        expected = 0
        for i, row in enumerate(table):
            counts = tomography(row, 4, seed=23, stream=i)[0]
            for z, x, y in counts / 4:
                expected += (x - 0.5) ** 2 + (0.5 - y) ** 2 > z * (1 - z)
        assert sampled.metadata["psd_clipped"] == expected > 0
        assert "psd_clipped" not in sample_gram(gram_matrix(points, cfg), 4, seed=23).metadata

    @pytest.mark.parametrize("family", ["fidelity", "projected"])
    def test_refuses_an_estimated_kernel(self, family):
        sampled = sample_gram(EXACT[family], n_shots=8, seed=1)
        with pytest.raises(ValueError, match="got an estimated one"):
            sample_gram(sampled, n_shots=8, seed=1)

    def test_refuses_a_projected_kernel_without_its_table(self):
        exact = EXACT["projected"]
        bare = KernelMatrix(exact.upper, "projected", exact.config, gamma=exact.gamma)
        with pytest.raises(ValueError, match="needs its component table"):
            sample_gram(bare, n_shots=8, seed=1)
