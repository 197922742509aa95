import math

import pytest

from qkshots import (
    ClassicalProfile,
    ConfigurationError,
    FeatureMapConfig,
    HardwareProfile,
    choose_code_distance,
    circuit_depth,
    classical_cost,
    find_crossover,
    logical_error_rate,
    quantum_cost,
    total_shots,
)
from qkshots.resources import CLASSICAL_ALPHA_DEFAULTS, pair_layer_count


class TestTotalShots:
    def test_full_matrix_run_counts(self):
        assert total_shots("fidelity", 100, 1000) == 4_950_000
        assert total_shots("projected", 100, 1000) == 300_000

    def test_two_points_fidelity(self):
        assert total_shots("fidelity", 2, 123) == 123

    def test_rejects_tiny_dataset(self):
        with pytest.raises(ValueError):
            total_shots("fidelity", 1, 10)


class TestCircuitDepth:
    def test_linear_projected_example(self):
        cfg = FeatureMapConfig(n_qubits=4, repetitions=1, entanglement="linear")
        assert circuit_depth(cfg, "projected") == 5  # 1 + 3 pair layers + basis change

    def test_fidelity_doubles_embedding(self):
        cfg = FeatureMapConfig(n_qubits=4, repetitions=1, entanglement="linear")
        assert circuit_depth(cfg, "fidelity") == 2 * (1 + 3)

    def test_repetitions_scale_embedding(self):
        one = FeatureMapConfig(n_qubits=4, repetitions=1, entanglement="linear")
        two = FeatureMapConfig(n_qubits=4, repetitions=2, entanglement="linear")
        assert circuit_depth(two, "fidelity") == 2 * circuit_depth(one, "fidelity")

    def test_full_entanglement_layer_counts(self):
        assert pair_layer_count(4, "full") == 3   # even: n - 1
        assert pair_layer_count(5, "full") == 5   # odd: n
        assert pair_layer_count(2, "full") == 1
        assert pair_layer_count(1, "full") == 0

    def test_single_qubit(self):
        cfg = FeatureMapConfig(n_qubits=1, repetitions=3)
        assert circuit_depth(cfg, "fidelity") == 6
        assert circuit_depth(cfg, "projected") == 4


class TestLogicalErrorRate:
    def test_distance_five_value(self):
        assert logical_error_rate(5, 1e-3) == pytest.approx(3e-5, rel=1e-12)

    def test_direct_substitution(self):
        assert logical_error_rate(3, 1e-2) == pytest.approx(0.03, rel=1e-12)

    def test_decreasing_in_distance_below_threshold(self):
        rates = [logical_error_rate(d, 1e-3) for d in (3, 5, 7, 9, 11)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_even_distance_rejected(self):
        with pytest.raises(ValueError):
            logical_error_rate(4, 1e-3)


class TestChooseCodeDistance:
    def test_scan_example(self):
        # weight 10, budget 1e-2: need p_L <= 1e-3; d=3 gives 3e-4 already
        assert choose_code_distance(1e-2, 10, 1, 1e-3) == 3

    def test_matches_exhaustive_scan(self):
        for budget in (1e-2, 1e-4, 1e-8):
            got = choose_code_distance(budget, 8, 5, 1e-3)
            scan = next(
                d
                for d in range(3, 53, 2)
                if 40 * logical_error_rate(d, 1e-3) <= budget
            )
            assert got == scan
            if got > 3:  # minimality: the next smaller odd distance fails
                assert 40 * logical_error_rate(got - 2, 1e-3) > budget

    def test_tiny_budget_with_raised_cap(self):
        # 1e-30 needs d > 51; the default cap refuses, a raised cap computes
        with pytest.raises(ConfigurationError):
            choose_code_distance(1e-30, 8, 5, 1e-3)
        got = choose_code_distance(1e-30, 8, 5, 1e-3, max_distance=101)
        scan = next(
            d
            for d in range(3, 103, 2)
            if 40 * logical_error_rate(d, 1e-3) <= 1e-30
        )
        assert got == scan

    def test_looser_budget_never_needs_larger_distance(self):
        tight = choose_code_distance(1e-9, 10, 10, 1e-3)
        loose = choose_code_distance(1e-3, 10, 10, 1e-3)
        assert loose <= tight

    def test_unreachable_budget_raises(self):
        # above-threshold physical error: p_L grows with d, budget unreachable
        with pytest.raises(ConfigurationError):
            choose_code_distance(1e-6, 10, 10, 0.02)


class TestQuantumCost:
    def test_ideal_runtime_example(self):
        # m=2, N=1e6 gives 1e6 total shots; depth 10 from n=5 linear fidelity
        cfg = FeatureMapConfig(n_qubits=5, repetitions=1, entanglement="linear")
        assert circuit_depth(cfg, "fidelity") == 10
        cost = quantum_cost(1_000_000, cfg, "fidelity", m=2)
        assert cost.runtime_s == pytest.approx(0.6, rel=1e-12)
        assert cost.physical_qubits == 5
        assert cost.code_distance is None

    def test_ideal_energy_uses_default_power(self):
        cfg = FeatureMapConfig(n_qubits=5, repetitions=1, entanglement="linear")
        cost = quantum_cost(1_000_000, cfg, "fidelity", m=2)
        assert HardwareProfile().power_per_qubit_w == 0.030
        assert cost.energy_j == pytest.approx(cost.runtime_s * 5 * 0.030, rel=1e-12)

    def test_corrected_overheads(self):
        cfg = FeatureMapConfig(n_qubits=4, repetitions=1, entanglement="linear")
        ideal = quantum_cost(1000, cfg, "fidelity", m=10)
        corrected = quantum_cost(
            1000, cfg, "fidelity", m=10, corrected=True, error_budget=1e-3
        )
        d = corrected.code_distance
        assert d is not None and d % 2 == 1
        assert corrected.physical_qubits == 4 * 2 * d**2
        assert corrected.total_shots == ideal.total_shots
        assert corrected.runtime_s > ideal.runtime_s

    def test_corrected_requires_budget(self):
        cfg = FeatureMapConfig(n_qubits=4)
        with pytest.raises(ConfigurationError):
            quantum_cost(1000, cfg, "fidelity", m=10, corrected=True)

    def test_costs_monotone_in_shots_and_points(self):
        cfg = FeatureMapConfig(n_qubits=3, repetitions=1, entanglement="linear")
        small = quantum_cost(100, cfg, "fidelity", m=10)
        more_shots = quantum_cost(200, cfg, "fidelity", m=10)
        more_points = quantum_cost(100, cfg, "fidelity", m=20)
        assert more_shots.runtime_s > small.runtime_s
        assert more_points.runtime_s > small.runtime_s
        assert small.runtime_s > 0 and small.energy_j > 0


class TestClassicalCost:
    def test_default_exponents(self):
        assert CLASSICAL_ALPHA_DEFAULTS["fidelity"] == 1.07
        assert CLASSICAL_ALPHA_DEFAULTS["projected"] == 2.30

    def test_doubling_qubits_scales_runtime(self):
        profile = ClassicalProfile(alpha=1.07)
        small = classical_cost("fidelity", 10, 50, profile)
        large = classical_cost("fidelity", 12, 50, profile)
        assert large.runtime_s / small.runtime_s == pytest.approx(2 ** (1.07 * 2))

    def test_projected_counts_points_not_pairs(self):
        profile = ClassicalProfile(alpha=1.0, c0=1.0, flops_per_second=1.0)
        fq = classical_cost("fidelity", 2, 10, profile)
        pq = classical_cost("projected", 2, 10, profile)
        assert fq.flops == pytest.approx(4 * 45)
        assert pq.flops == pytest.approx(4 * 10)


class TestCrossover:
    def test_scan_finds_first_win(self):
        ns = [2, 4, 6, 8]
        quantum = [10.0, 8.0, 5.0, 4.0]
        classical = [1.0, 2.0, 6.0, 20.0]
        n = find_crossover(ns, quantum, classical)
        assert n == 6
        # consistency: at the preceding n the inequality reverses
        idx = ns.index(n)
        assert quantum[idx - 1] >= classical[idx - 1]

    def test_smallest_passing_size_in_any_order(self):
        # 8 and 6 both pass; list order must not pick 8
        ns = [8, 6, 4, 2]
        quantum = [4.0, 5.0, 8.0, 10.0]
        classical = [20.0, 6.0, 2.0, 1.0]
        assert find_crossover(ns, quantum, classical) == 6

    def test_no_crossover(self):
        assert find_crossover([2, 3], [5.0, 5.0], [1.0, 1.0]) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            find_crossover([2, 3], [1.0], [1.0, 2.0])


class TestProfiles:
    def test_hardware_defaults_match_model_constants(self):
        profile = HardwareProfile()
        assert profile.gate_time_s == 50e-9
        assert profile.measurement_time_s == 100e-9
        assert profile.physical_error_rate == 1e-3
        assert profile.power_per_qubit_w == 0.030

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            HardwareProfile(gate_time_s=0.0)
        with pytest.raises(ConfigurationError):
            ClassicalProfile(alpha=1.0, c0=0.0)
