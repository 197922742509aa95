import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from qkshots import (
    FeatureMapConfig,
    KernelMatrix,
    ShotBudget,
    dataset_budget,
    entry_budgets,
    epsilon_r_from_kernel,
    error_budget,
    gram_matrix,
    n_ca_binomial_exact,
    n_ca_fq,
    n_ca_noisy_binomial_exact,
    n_ca_noisy_fq,
    n_ca_noisy_pq_normal,
    n_ca_pq_normal,
    n_spread_fq,
    n_spread_noisy_fq,
)
from qkshots.kernels import projected_gram_values
from qkshots.measurement import component_proportions
from qkshots.serialize import _jsonable
from qkshots.shot_bounds import _variance_terms, ca_condition_probability

from oracles import correct_side_probability, pq_variance_term_sum


def random_physical_components(rng):
    d = rng.uniform(0.05, 0.95)
    radius = math.sqrt(d * (1 - d))
    angle = rng.uniform(0, 2 * np.pi)
    rho = rng.uniform(0, 0.9) * radius
    return (d, rho * math.cos(angle), rho * math.sin(angle))


def pair_budget(rho_x, rho_y, gamma, eps, delta, p_spread, p_ca=0.99, p_error=0.0):
    """The budgets of one projected pair, arrays of length 1: the m = 2 case
    of entry_budgets on the (2, n, 3) table of the two points' component
    rows."""
    table = np.array([rho_x, rho_y], dtype=float)
    kernel = KernelMatrix(
        projected_gram_values(table, gamma), family="projected",
        config=FeatureMapConfig(n_qubits=table.shape[1]), gamma=gamma, component_table=table,
    )
    return entry_budgets(kernel, eps, delta, p_spread, p_ca, p_error)


def variance_terms(rho_x, rho_y, noise_robust=False):
    """Per-qubit V_k of one pair of (n, 3) component rows."""
    z = component_proportions(np.array([rho_x, rho_y], dtype=float))
    return _variance_terms(z[0], z[1], noise_robust)


class TestSpreadFidelity:
    def test_hand_arithmetic(self):
        assert n_spread_fq(0.5, eps=0.1, delta_ensemble=0.5, p_spread=0.9) == 1000

    def test_doubling_spread_quarters_bound(self):
        assert n_spread_fq(0.5, eps=0.1, delta_ensemble=1.0, p_spread=0.9) == 250

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_degenerate_kernel_values(self, kappa):
        bound = n_spread_fq(kappa, eps=0.1, delta_ensemble=0.5, p_spread=0.9)
        assert bound == 1 and bound.degenerate

    def test_zero_spread_rejected(self):
        with pytest.raises(ValueError):
            n_spread_fq(0.5, eps=0.1, delta_ensemble=0.0, p_spread=0.9)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            n_spread_fq(0.5, eps=0.1, delta_ensemble=0.5, p_spread=1.0)


class TestSpreadProjected:
    def test_identical_matrices_degenerate(self):
        rho = [(0.6, 0.1, 0.2), (0.4, 0.0, -0.1)]
        bound = pair_budget(rho, rho, gamma=1.0, eps=0.5, delta=0.3, p_spread=0.9)
        assert bound.n_spread.tolist() == [1] and bound.degenerate.tolist() == [True]

    def test_variance_term_ground_vs_mixed(self):
        # ground state vs maximally mixed: proportions (1, .5, .5) vs (.5, .5, .5)
        terms = variance_terms([(1.0, 0.0, 0.0)], [(0.5, 0.0, 0.0)])
        assert terms.shape == (1,)
        assert terms[0] == pytest.approx(1.0, abs=1e-12)

    def test_variance_terms_match_triple_sum_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            rho_x = [random_physical_components(rng) for _ in range(3)]
            rho_y = [random_physical_components(rng) for _ in range(3)]
            got = variance_terms(rho_x, rho_y)
            for k in range(3):
                zx = component_proportions(rho_x[k])
                zy = component_proportions(rho_y[k])
                assert got[k] == pytest.approx(
                    pq_variance_term_sum(zx, zy), rel=1e-9
                )

    def test_bound_equals_explicit_formula(self):
        rng = np.random.default_rng(15)
        rho_x = [random_physical_components(rng) for _ in range(2)]
        rho_y = [random_physical_components(rng) for _ in range(2)]
        gamma, eps, delta, p = 0.8, 0.4, 0.2, 0.9
        got = pair_budget(rho_x, rho_y, gamma=gamma, eps=eps, delta=delta, p_spread=p)
        kappa = got.kappa[0]
        v_sum = sum(
            pq_variance_term_sum(component_proportions(rx), component_proportions(ry))
            for rx, ry in zip(rho_x, rho_y)
        )
        expected = 2 * gamma**2 * kappa**2 * v_sum / ((1 - p) * eps**2 * delta**2)
        assert got.n_spread.tolist() == [math.ceil(expected - 1e-9)]

    def test_gamma_kappa_scaling(self):
        # holding the variance terms fixed, the bound scales as gamma^2 kappa^2
        rho_x = [(0.9, 0.05, 0.0)]
        rho_y = [(0.3, -0.1, 0.05)]
        v = float(variance_terms(rho_x, rho_y)[0])
        for gamma in (0.5, 1.0, 2.0):
            got = pair_budget(rho_x, rho_y, gamma=gamma, eps=0.5, delta=0.2, p_spread=0.9)
            kappa = got.kappa[0]
            expected = gamma**2 * kappa**2 * v / ((1 - 0.9) * 0.25 * 0.04)
            assert got.n_spread.tolist() == [max(1, math.ceil(expected - 1e-9))]


class TestConcentrationAvoidanceFidelity:
    def test_half_probability(self):
        assert n_ca_fq(0.5, 0.99) == 7

    def test_certain_success(self):
        assert n_ca_fq(1.0, 0.99) == 1

    def test_zero_probability_unbounded(self):
        assert math.isinf(n_ca_fq(0.0, 0.99))

    def test_small_probability_value(self):
        n = n_ca_fq(2**-10, 0.99)
        assert n == 4714
        # bound is satisfied at n and violated at n - 1
        assert -math.expm1(n * math.log1p(-(2**-10))) >= 0.99
        assert -math.expm1((n - 1) * math.log1p(-(2**-10))) < 0.99

    def test_monotone_in_p_ca_and_probability(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = rng.uniform(0.01, 0.9)
            p1, p2 = sorted(rng.uniform(0.5, 0.999, size=2))
            assert n_ca_fq(m, p1) <= n_ca_fq(m, p2)
            m2 = min(0.95, m * 1.5)
            assert n_ca_fq(m2, p1) <= n_ca_fq(m, p1)


class TestConcentrationAvoidanceExact:
    def test_reduces_to_fidelity_case(self):
        assert n_ca_binomial_exact(0.5, 0.0, 0.99) == 7

    def test_monotone_in_p_ca(self):
        low = n_ca_binomial_exact(0.6, 0.5, 0.5)
        high = n_ca_binomial_exact(0.6, 0.5, 0.9)
        assert low <= high
        assert low == 1  # one shot already lands above mu with probability 0.6

    def test_close_to_normal_approximation(self):
        exact = n_ca_binomial_exact(0.6, 0.5, 0.9772)
        normal = n_ca_pq_normal(0.6, 0.5, 0.9772)
        assert exact >= 50
        assert abs(exact - normal) <= 0.1 * normal

    def test_equal_proportion_rejected(self):
        with pytest.raises(ValueError):
            n_ca_binomial_exact(0.5, 0.5, 0.9)

    def test_minimality_against_scan_oracle(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 50:
            mu = 0.5 if rng.random() < 0.6 else 0.0
            m = float(rng.uniform(0.05, 0.95))
            if abs(m - mu) < 0.05:
                continue
            p_ca = float(rng.uniform(0.5, 0.99))
            n = n_ca_binomial_exact(m, mu, p_ca)
            assert correct_side_probability(n, m, mu) >= p_ca
            if n > 1:
                assert correct_side_probability(n - 1, m, mu) < p_ca
            # global minimality: nothing below n satisfies the condition
            for candidate in range(1, n):
                assert correct_side_probability(candidate, m, mu) < p_ca
            checked += 1

    def test_library_probability_matches_log_space_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(25):
            m = float(rng.uniform(0.05, 0.95))
            mu = float(rng.choice([0.0, 0.3, 0.5]))
            if abs(m - mu) < 0.05:
                continue
            n = int(rng.integers(1, 400))
            assert float(ca_condition_probability(n, m, mu)) == pytest.approx(
                correct_side_probability(n, m, mu), abs=1e-10
            )

    def test_below_mu_branch(self):
        n = n_ca_binomial_exact(0.4, 0.5, 0.9)
        assert correct_side_probability(n, 0.4, 0.5) >= 0.9


class TestConcentrationAvoidanceNormal:
    def test_z_two_case(self):
        assert n_ca_pq_normal(0.6, 0.5, 0.9772) == 96

    def test_median_probability_floors_at_one(self):
        assert n_ca_pq_normal(0.6, 0.5, 0.5) == 1

    def test_halving_gap_quadruples_bound(self):
        z = float(ndtri(0.9772))
        wide = z**2 * 0.6 * 0.4 / 0.1**2
        narrow = z**2 * 0.6 * 0.4 / 0.05**2
        assert narrow == pytest.approx(4 * wide)
        assert n_ca_pq_normal(0.6, 0.55, 0.9772) == math.ceil(narrow - 1e-9)

    def test_equal_proportion_rejected(self):
        with pytest.raises(ValueError):
            n_ca_pq_normal(0.5, 0.5, 0.9)

    def test_inverse_normal_against_quadrature(self):
        for p in (0.5, 0.6, 0.9, 0.975, 0.9772, 0.999):
            z = float(ndtri(p))
            integral, _ = quad(
                lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi),
                -12.0,
                z,
            )
            assert abs(integral - p) < 1e-9


class TestNoisyBounds:
    def test_noisy_fidelity_spread_value(self):
        assert n_spread_noisy_fq(eps=0.1, delta_ensemble=0.5, p_spread=0.9) == 16000

    def test_noisy_to_noiseless_spread_ratio(self):
        noiseless = n_spread_fq(0.5, eps=0.1, delta_ensemble=0.5, p_spread=0.9)
        noisy = n_spread_noisy_fq(eps=0.1, delta_ensemble=0.5, p_spread=0.9)
        assert noisy == 16 * noiseless  # 4 / (kappa (1 - kappa)) at kappa = 1/2

    def test_noisy_pq_degenerate(self):
        rho = [(0.7, 0.1, 0.0)]
        bound = pair_budget(
            rho, rho, gamma=1.0, eps=0.5, delta=0.2, p_spread=0.9, p_error=0.01
        )
        assert bound.noisy
        assert bound.n_spread.tolist() == [1] and bound.degenerate.tolist() == [True]

    def test_noisy_pq_uses_derivative_only_terms(self):
        robust = variance_terms([(1.0, 0.0, 0.0)], [(0.5, 0.0, 0.0)], noise_robust=True)
        # only the population pair differs by 1/2: (2 * 4 * 1/2)^2 = 16
        assert robust[0] == pytest.approx(16.0)

    def test_noisy_ca_reduces_at_zero_noise(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            kappa = float(rng.uniform(0.01, 0.9))
            p_ca = float(rng.uniform(0.5, 0.995))
            n = int(rng.integers(1, 8))
            assert n_ca_noisy_fq(kappa, p_ca, 0.0, n) == n_ca_fq(kappa, p_ca)
            q = float(rng.uniform(0.05, 0.95))
            if abs(q - 0.5) > 0.02:
                assert n_ca_noisy_pq_normal(q, 0.5, p_ca, 0.0) == n_ca_pq_normal(
                    q, 0.5, p_ca
                )
                assert n_ca_noisy_binomial_exact(
                    q, 0.5, p_ca, 0.0
                ) == n_ca_binomial_exact(q, 0.5, p_ca)

    def test_noisy_fidelity_ca_worked_example(self):
        # 0.8 * 0.1 + 0.2 / 16 = 0.0925 -> ceil(ln 0.01 / ln 0.9075) = 48
        assert n_ca_noisy_fq(0.1, 0.99, 0.2, 4) == 48

    def test_depolarising_fixes_pq_concentration_point(self):
        for p_error in (0.0, 0.3, 0.9):
            with pytest.raises(ValueError):
                n_ca_noisy_pq_normal(0.5, 0.5, 0.99, p_error)


class TestErrorBudget:
    def test_fidelity_hand_arithmetic(self):
        budget = error_budget("fidelity", 0.1, eps=0.1, delta_ensemble=0.2, n_qubits=2)
        assert budget.p_max == pytest.approx(0.02 / (2 * 0.15))
        assert not budget.unconstrained

    def test_projected_hand_arithmetic(self):
        kappa = math.exp(-1.0)
        budget = error_budget("projected", kappa, eps=0.1, delta_ensemble=0.4)
        assert budget.p_max == pytest.approx(0.04 / (4 * math.exp(-1.0)))

    def test_unconstrained_at_mixed_state_value(self):
        budget = error_budget("fidelity", 2**-3, eps=0.1, delta_ensemble=0.2, n_qubits=3)
        assert budget.unconstrained and budget.p_max == 1.0

    def test_caps_at_one(self):
        budget = error_budget("fidelity", 0.9, eps=10.0, delta_ensemble=10.0, n_qubits=8)
        assert budget.p_max == 1.0


class TestRepresentativeScales:
    def test_component_scale_of_constant_offsets(self):
        c = 0.07
        table = np.zeros((5, 3, 3))
        table[..., 0] = 0.5 + c  # population offset +c
        table[..., 1] = c        # Re offdiag offset c
        table[..., 2] = -c       # Im offdiag offset -c (absolute value counts)
        # the mean absolute offset of the measured proportions from 1/2
        offsets = np.abs(component_proportions(table) - 0.5)
        assert np.mean(offsets) == pytest.approx(c)

    def test_kernel_scale_inverts_definition(self):
        gamma, n, c = 0.7, 3, 0.04
        value = math.exp(-12 * gamma * n * c**2)
        kernel = _kernel_from_offdiag([value] * 6, family="projected", n_qubits=n, gamma=gamma)
        assert epsilon_r_from_kernel(kernel, gamma, n) == pytest.approx(c, abs=1e-12)

    def test_unit_entries_excluded_with_warning(self):
        kernel = _kernel_from_offdiag(
            [0.5, 1.0, 0.25], family="projected", n_qubits=2, gamma=1.0
        )
        with pytest.warns(RuntimeWarning):
            scale = epsilon_r_from_kernel(kernel, 1.0, 2)
        expected = math.sqrt(-np.mean(np.log([0.5, 0.25])) / 24.0)
        assert scale == pytest.approx(expected)


def _kernel_from_offdiag(entries, family="fidelity", n_qubits=2, gamma=None):
    return KernelMatrix(
        np.asarray(entries, dtype=float), family=family,
        config=FeatureMapConfig(n_qubits=n_qubits), gamma=gamma,
    )


class TestDatasetBudget:
    def test_fidelity_median_half_gives_seven(self):
        kernel = _kernel_from_offdiag([0.3, 0.4, 0.5, 0.5, 0.6, 0.7])
        budget = dataset_budget(kernel, eps=1.0, p_spread=0.9, p_ca=0.99)
        assert budget.n_ca == 7
        assert budget.inputs["kappa_repr"] == pytest.approx(0.5)

    def test_fidelity_spread_uses_median_and_iqr(self):
        kernel = _kernel_from_offdiag([0.3, 0.4, 0.5, 0.5, 0.6, 0.7])
        budget = dataset_budget(kernel, eps=0.5, p_spread=0.9, p_ca=0.99)
        iqr = budget.inputs["delta_ensemble"]
        expected = math.ceil(0.25 / (0.1 * 0.25 * iqr**2) - 1e-9)
        assert budget.n_spread == expected
        assert budget.n_required == max(budget.n_spread, budget.n_ca)

    def test_projected_kernel_scale_path(self):
        gamma, n = 1.0, 2
        entries = [0.80, 0.85, 0.88, 0.90, 0.92, 0.95]
        kernel = _kernel_from_offdiag(entries, family="projected", n_qubits=n, gamma=gamma)
        budget = dataset_budget(kernel, eps=1.0, p_spread=0.9, p_ca=0.9772)
        z = float(ndtri(0.9772))
        scale = math.sqrt(-np.mean(np.log(entries)) / (12 * gamma * n))
        assert budget.n_ca == math.ceil(z**2 * 0.25 / scale**2 - 1e-9)
        assert budget.inputs["spread_path"] == "kernel_scale"
        assert budget.inputs["epsilon_r"] == pytest.approx(scale)

    def test_projected_component_path(self):
        rng = np.random.default_rng(3)
        table = np.array(
            [[random_physical_components(rng) for _ in range(2)] for _ in range(4)]
        )
        kernel = KernelMatrix(
            projected_gram_values(table, 1.0),
            family="projected",
            config=FeatureMapConfig(n_qubits=2),
            gamma=1.0,
            component_table=table,
        )
        budget = dataset_budget(kernel)
        assert budget.inputs["spread_path"] == "components"
        assert budget.n_spread >= 1 and budget.n_ca >= 1

    def test_exact_projected_gram_takes_the_component_path(self):
        points = np.random.default_rng(5).uniform(0, 2 * np.pi, size=(6, 2))
        kernel = gram_matrix(points, FeatureMapConfig(n_qubits=2), family="projected")
        assert dataset_budget(kernel).inputs["spread_path"] == "components"

    def test_zero_iqr_rejected(self):
        kernel = _kernel_from_offdiag([0.4] * 6)
        with pytest.raises(ValueError):
            dataset_budget(kernel)

    def test_noisy_fidelity_budget(self):
        kernel = _kernel_from_offdiag([0.3, 0.4, 0.5, 0.5, 0.6, 0.7])
        noisy = dataset_budget(kernel, p_error=0.2)
        clean = dataset_budget(kernel)
        assert noisy.noisy and not clean.noisy
        assert noisy.n_spread == n_spread_noisy_fq(1.0, clean.inputs["delta_ensemble"], 0.9)
        # depolarising lowers the representative value, so more CA shots
        assert noisy.n_ca >= clean.n_ca

    def test_serialisation_round_trip(self):
        kernel = _kernel_from_offdiag([0.3, 0.4, 0.5, 0.5, 0.6, 0.7])
        payload = json.loads(json.dumps(_jsonable(asdict(dataset_budget(kernel)))))
        assert payload["n_required"] == max(payload["n_spread"], payload["n_ca"])
        assert payload["effect_dominant"] in ("spread", "concentration_avoidance")
        assert not payload["unbounded"]

    @pytest.mark.parametrize("n_spread, n_ca, record", [
        (3.0, 7.0, {"n_spread": 3, "n_ca": 7, "n_required": 7, "unbounded": False,
                    "effect_dominant": "concentration_avoidance"}),
        (7, 7, {"n_spread": 7, "n_ca": 7, "n_required": 7, "unbounded": False,
                "effect_dominant": "spread"}),
        (3, math.inf, {"n_spread": 3, "n_ca": None, "n_required": None, "unbounded": True,
                       "effect_dominant": "concentration_avoidance"}),
    ], ids=["ca", "tie", "unbounded"])
    def test_constructor_sets_the_derived_fields(self, n_spread, n_ca, record):
        budget = ShotBudget("fidelity", n_spread, n_ca, inputs={"eps": 1.0})
        payload = json.loads(json.dumps(_jsonable(asdict(budget)), allow_nan=False))
        assert payload == {**record, "family": "fidelity", "noisy": False,
                           "degenerate": False, "inputs": {"eps": 1.0}}
        assert type(budget.n_spread) is int and type(budget.n_required) is type(budget.n_ca)


class TestEntryBudgets:
    def test_fidelity_entry_budget(self):
        budget = entry_budgets(_kernel_from_offdiag([0.5]), 1.0, 0.2, 0.9, 0.99)
        assert budget.n_spread.tolist() == [n_spread_fq(0.5, 1.0, 0.2, 0.9)]
        assert budget.n_ca.tolist() == [n_ca_fq(0.5, 0.99)]

    def test_projected_entry_budget_worst_component(self):
        rho_x = [(0.8, 0.1, 0.0)]
        rho_y = [(0.4, -0.1, 0.1)]
        budget = pair_budget(rho_x, rho_y, 1.0, 1.0, 0.2, 0.9, 0.9772)
        proportions = component_proportions([rho_x, rho_y]).reshape(-1)
        expected = max(
            int(n_ca_pq_normal(q, 0.5, 0.9772))
            for q in proportions
            if abs(q - 0.5) > 1e-15
        )
        assert budget.n_ca.tolist() == [expected]

    def test_projected_entry_all_components_at_mu(self):
        rho = [(0.5, 0.0, 0.0)]
        budget = pair_budget(rho, rho, 1.0, 1.0, 0.2, 0.9, 0.99)
        assert budget.degenerate.tolist() == [True]
        assert budget.n_ca.tolist() == [1]


class TestMonotonicity:
    def test_spread_bounds_monotone(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            kappa = rng.uniform(0.05, 0.95)
            eps = rng.uniform(0.1, 1.0)
            delta = rng.uniform(0.05, 0.5)
            p = rng.uniform(0.5, 0.99)
            base = n_spread_fq(kappa, eps, delta, p)
            assert n_spread_fq(kappa, eps * 2, delta, p) <= base
            assert n_spread_fq(kappa, eps, delta * 2, p) <= base
            higher_p = p + (1 - p) / 2
            assert n_spread_fq(kappa, eps, delta, higher_p) >= base

    def test_exact_ca_monotone_in_gap(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            gap1 = rng.uniform(0.02, 0.2)
            gap2 = gap1 / 2
            p_ca = rng.uniform(0.6, 0.99)
            near = n_ca_binomial_exact(0.5 + gap2, 0.5, p_ca)
            far = n_ca_binomial_exact(0.5 + gap1, 0.5, p_ca)
            assert far <= near
