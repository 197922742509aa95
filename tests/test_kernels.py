import numpy as np
import pytest

from qkshots import (
    ClassicalProfile,
    ConfigurationError,
    FeatureMapConfig,
    HardwareProfile,
    KernelMatrix,
    circuit_depth,
    classical_cost,
    embedding_matrix,
    entry_budgets,
    error_budget,
    gram_matrix,
    kernel_statistics,
    n_ca_noisy_binomial_exact,
    n_spread_fq,
    n_spread_noisy_fq,
    quantum_cost,
    total_shots,
)
from qkshots.kernels import check_gamma, fidelity_gram_values, projected_gram_values

from oracles import quantile_type7


def kernel_from_offdiag(entries, family="fidelity", n_qubits=2, gamma=None):
    """Symmetric unit-diagonal matrix with the given strict upper triangle."""
    entries = np.asarray(entries, dtype=float)
    m = int((1 + np.sqrt(1 + 8 * entries.size)) / 2)
    values = np.zeros((m, m))
    values[np.triu_indices(m, k=1)] = entries
    values = values + values.T
    np.fill_diagonal(values, 1.0)
    return KernelMatrix(
        values=values,
        family=family,
        config=FeatureMapConfig(n_qubits=n_qubits),
        gamma=gamma,
    )


class TestFidelityKernel:
    def test_self_kernel_is_one(self):
        # the same point embedded twice, so the overlap itself is computed
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        states = embedding_matrix([[0.4, 1.2], [0.4, 1.2]], cfg)
        assert abs(fidelity_gram_values(states)[0, 1] - 1.0) < 1e-12

    def test_quarter_period_vanishes(self):
        kernel = gram_matrix([[0.0], [np.pi / 2]], FeatureMapConfig(n_qubits=1))
        assert kernel.values[0, 1] < 1e-10

    def test_orthogonal_basis_states(self):
        assert fidelity_gram_values(np.eye(2, dtype=complex))[0, 1] == 0.0

    def test_symmetry(self):
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        states = embedding_matrix([[0.3, 0.9], [1.1, -0.4]], cfg)
        forward = fidelity_gram_values(states)[0, 1]
        assert abs(fidelity_gram_values(states[::-1])[0, 1] - forward) < 1e-12

    def test_closed_form_grid(self):
        grid = np.linspace(-3, 3, 100)
        kernel = gram_matrix(grid[:, None], FeatureMapConfig(n_qubits=1))
        assert np.max(np.abs(kernel.values[:, 0] - np.cos(grid - grid[0]) ** 2)) < 1e-10


def projected_pair(x, y, gamma):
    """Projected kernel of two points given their (n, 3) component rows."""
    return projected_gram_values(np.array([x, y], dtype=float), gamma)[0, 1]


class TestProjectedKernel:
    GROUND, EXCITED = (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)

    def test_identical_lists(self):
        rho = [(0.7, 0.1, 0.05)]
        assert projected_pair(rho, rho, gamma=2.0) == 1.0

    def test_opposite_poles_single_qubit(self):
        value = projected_pair([self.GROUND], [self.EXCITED], gamma=1.0)
        assert value == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_additivity_over_qubits(self):
        value = projected_pair([self.GROUND] * 2, [self.EXCITED] * 2, gamma=1.0)
        assert value == pytest.approx(np.exp(-4.0), abs=1e-12)

    def test_invalid_gamma(self):
        rho = [(0.5, 0.0, 0.0)]
        with pytest.raises(ConfigurationError):
            projected_pair(rho, rho, gamma=0.0)

    def test_monotone_in_gamma(self):
        a, b = [(0.8, 0.1, 0.0)], [(0.5, -0.2, 0.1)]
        values = [projected_pair(a, b, gamma=g) for g in np.linspace(0.1, 5, 20)]
        assert all(x >= y for x, y in zip(values, values[1:]))


class TestGramMatrix:
    def test_identical_points(self):
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        kernel = gram_matrix([[0.5, 0.5], [0.5, 0.5]], cfg)
        assert np.allclose(kernel.values, 1.0)

    @pytest.mark.parametrize("family,gamma", [("fidelity", 1.0), ("projected", 0.7)])
    def test_positive_semidefinite(self, family, gamma):
        rng = np.random.default_rng(42)
        points = rng.normal(size=(50, 3))
        cfg = FeatureMapConfig(n_qubits=3, repetitions=2, entanglement="full")
        kernel = gram_matrix(points, cfg, family=family, gamma=gamma)
        assert np.linalg.eigvalsh(kernel.values).min() >= -1e-8

    @pytest.mark.parametrize("family", ["fidelity", "projected"])
    def test_bit_exact_symmetry_and_unit_diagonal(self, family):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(12, 2))
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        kernel = gram_matrix(points, cfg, family=family)
        assert np.array_equal(kernel.values, kernel.values.T)
        assert np.all(np.diag(kernel.values) == 1.0)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(10, 3))
        cfg = FeatureMapConfig(n_qubits=3, entanglement="linear")
        kernel = gram_matrix(points, cfg)
        assert kernel.values.min() >= 0.0 and kernel.values.max() <= 1.0

    @pytest.mark.parametrize("entanglement", ["linear", "full"])
    @pytest.mark.parametrize("family", ["fidelity", "projected"])
    def test_equal_encoded_points_give_exactly_one(self, family, entanglement):
        """Points whose first n features agree embed to one state, whatever
        their other features and wherever they sit."""
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 9))
            points = rng.uniform(0.0, 2.0 * np.pi, size=(12, n + 1))
            copies = rng.integers(0, 12, size=(4, 2))
            points[copies[:, 1], :n] = points[copies[:, 0], :n]
            cfg = FeatureMapConfig(n_qubits=n, repetitions=2, entanglement=entanglement)
            kernel = gram_matrix(points, cfg, family=family, gamma=0.7)
            same = (points[:, None, :n] == points[None, :, :n]).all(axis=2)
            assert np.all(kernel.values[same] == 1.0)
            if family == "projected":
                table = kernel.component_table.reshape(12, -1)
                assert np.all((table[:, None] == table[None, :]).all(axis=2)[same])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            gram_matrix([[0.1, 0.2]], FeatureMapConfig(n_qubits=2))

    @pytest.mark.parametrize("family", ["fidelity", "projected"])
    def test_no_qubit_limit_past_fourteen(self, family):
        # the library has no qubit cap; two points at n = 15 take 1 MB
        points = np.random.default_rng(15).uniform(0.0, 2.0 * np.pi, size=(2, 15))
        cfg = FeatureMapConfig(n_qubits=15)
        kernel = gram_matrix(points, cfg, family=family, gamma=0.5)
        assert kernel.values.shape == (2, 2)
        assert np.array_equal(kernel.values, kernel.values.T)
        assert np.all(np.diag(kernel.values) == 1.0)
        assert 0.0 < kernel.values[0, 1] < 1.0
        if family == "fidelity":
            amps = embedding_matrix(points, cfg)
            assert kernel.values[0, 1] == pytest.approx(abs(np.vdot(amps[0], amps[1])) ** 2)
        else:
            # one repetition leaves every qubit's population at 1/2
            table = kernel.component_table
            assert np.allclose(table[:, :, 0], 0.5, atol=1e-12)
            distance = np.sum((table[0] - table[1]) ** 2)
            assert kernel.values[0, 1] == pytest.approx(np.exp(-2.0 * 0.5 * distance))

    def test_threads_do_not_change_result(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(8, 3))
        cfg = FeatureMapConfig(n_qubits=3, entanglement="full")
        serial = gram_matrix(points, cfg, threads=1)
        pooled = gram_matrix(points, cfg, threads=4)
        assert np.array_equal(serial.values, pooled.values)


class TestKernelStatistics:
    def test_median_of_three(self):
        stats = kernel_statistics(kernel_from_offdiag([0.1, 0.2, 0.3]))
        assert stats.median == pytest.approx(0.2)

    def test_constant_entries(self):
        stats = kernel_statistics(kernel_from_offdiag([0.4] * 6))
        assert stats.iqr == 0.0
        assert stats.std == pytest.approx(0.0, abs=1e-15)

    def test_quantiles_match_sort_interpolate_oracle(self):
        entries = np.arange(1, 11) / 10.0
        stats = kernel_statistics(kernel_from_offdiag(entries))
        q25 = quantile_type7(entries, 0.25)
        q50 = quantile_type7(entries, 0.50)
        q75 = quantile_type7(entries, 0.75)
        assert stats.median == pytest.approx(q50, abs=1e-12)
        assert stats.iqr == pytest.approx(q75 - q25, abs=1e-12)

    def test_log_mean_projected_only(self):
        entries = [0.5, 0.25, 0.125]
        fq = kernel_statistics(kernel_from_offdiag(entries))
        assert fq.log_mean is None
        pq = kernel_statistics(
            kernel_from_offdiag(entries, family="projected", gamma=1.0)
        )
        assert pq.log_mean == pytest.approx(np.mean(np.log(entries)))

    def test_zero_entry_warns_with_inf_sentinel(self):
        kernel = kernel_from_offdiag([0.5, 0.0, 0.25], family="projected", gamma=1.0)
        with pytest.warns(RuntimeWarning):
            stats = kernel_statistics(kernel)
        assert stats.log_mean == float("-inf")


class TestKernelMatrixValidation:
    def test_rejects_asymmetric(self):
        values = np.eye(2)
        values[0, 1] = 0.3
        with pytest.raises(ValueError):
            KernelMatrix(values=values, family="fidelity", config=FeatureMapConfig(2))

    def test_rejects_bad_diagonal(self):
        values = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            KernelMatrix(values=values, family="fidelity", config=FeatureMapConfig(2))

    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigurationError):
            KernelMatrix(values=np.eye(2), family="swap", config=FeatureMapConfig(2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: KernelMatrix(values=np.eye(2), family="swap", config=FeatureMapConfig(2)),
        lambda: gram_matrix(np.zeros((2, 2)), FeatureMapConfig(2), family="swap"),
        lambda: quantum_cost(10, FeatureMapConfig(2), "swap", 4),
        lambda: total_shots("swap", 4, 10),
        lambda: circuit_depth(FeatureMapConfig(2), "swap"),
        lambda: classical_cost("swap", 2, 4, ClassicalProfile(c0=1.0, alpha=1.0)),
        lambda: error_budget("swap", 0.5, 1.0, 0.2),
        lambda: n_ca_noisy_binomial_exact(0.4, 0.5, 0.9, 0.01, family="swap"),
        lambda: entry_budgets("swap", np.eye(2), 1.0, 0.2, 0.9, 0.99),
    ],
)
def test_every_family_dispatch_shares_one_check(call):
    with pytest.raises(ConfigurationError) as err:
        call()
    assert str(err.value) == "family must be one of ('fidelity', 'projected'), got 'swap'"


NAN = float("nan")


@pytest.mark.parametrize("call, error, message", [
    (lambda: check_gamma(NAN), ConfigurationError, "gamma must be > 0, got nan"),
    (lambda: n_spread_fq(0.5, NAN, 0.2, 0.9), ConfigurationError, "eps must be > 0, got nan"),
    (lambda: n_spread_noisy_fq(1.0, NAN, 0.9), ValueError,
     "delta_ensemble must be > 0 (an ensemble with zero spread has indistinguishable "
     "entries), got nan"),
    (lambda: HardwareProfile(gate_time_s=NAN), ConfigurationError,
     "gate_time_s must be positive"),
    (lambda: ClassicalProfile(alpha=1.0, c0=NAN), ConfigurationError,
     "classical profile constants must be positive"),
], ids=["check_gamma", "eps", "delta_ensemble", "HardwareProfile", "ClassicalProfile"])
def test_positivity_checks_refuse_nan(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
