import numpy as np
import pytest

from qkshots import (
    FeatureMapConfig,
    embedding_diagnostics,
    expressibility,
    haar_second_moment,
    mean_relative_entropy,
)
from qkshots.characteristics import component_relative_entropy

from oracles import components_to_matrix

LN2 = np.log(2.0)


def relative_entropy_from_eigenvalues(d, r, i):
    """S(rho || I/2) of one matrix from numerical eigenvalues, clamped into
    [0, 1], with 0 ln 0 = 0, and the result clamped into [0, ln 2]."""
    rho = components_to_matrix((d, r, i))
    total = LN2
    for lam in np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0):
        if lam > 0.0:
            total += lam * np.log(lam)
    return float(min(max(total, 0.0), LN2))


class TestExpressibility:
    def test_single_point_one_qubit(self):
        value = expressibility([[0.4]], FeatureMapConfig(n_qubits=1))
        assert value == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-12)

    def test_single_point_two_qubits(self):
        value = expressibility(
            [[0.4, 1.1]], FeatureMapConfig(n_qubits=2, entanglement="full")
        )
        assert value == pytest.approx(0.9, abs=1e-12)

    def test_identical_points_reduce_to_single_point(self):
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        single = expressibility([[0.4, 1.1]], cfg)
        repeated = expressibility([[0.4, 1.1]] * 5, cfg)
        assert repeated == pytest.approx(single, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(7)
        cfg = FeatureMapConfig(n_qubits=3, repetitions=2, entanglement="full")
        value = expressibility(rng.uniform(0, 2 * np.pi, size=(30, 3)), cfg)
        assert -haar_second_moment(3) <= value <= 1.0

    def test_scrambling_map_approaches_haar(self):
        # many repetitions over random angles: mean kappa^2 near the Haar value
        rng = np.random.default_rng(11)
        cfg = FeatureMapConfig(n_qubits=4, repetitions=6, entanglement="full")
        value = expressibility(rng.uniform(0, 2 * np.pi, size=(60, 4)), cfg)
        assert value < 0.05


class TestRelativeEntropy:
    def test_maximally_mixed_is_zero(self):
        assert component_relative_entropy([0.5, 0.0, 0.0]) == 0.0

    def test_pure_state_is_ln_two(self):
        assert component_relative_entropy([1.0, 0.0, 0.0]) == pytest.approx(LN2, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = rng.uniform(0, 1)
            radius = np.sqrt(d * (1 - d))
            r = rng.uniform(-radius, radius)
            cap = np.sqrt(max(radius**2 - r**2, 0.0))
            i = rng.uniform(-cap, cap)
            value = component_relative_entropy([d, r, i])
            assert -1e-12 <= value <= LN2 + 1e-12

    def test_component_table_matches_single_matrix_form(self):
        rng = np.random.default_rng(13)
        rows = [(1.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.5, 0.0)]
        for _ in range(200):
            d = rng.uniform(0, 1)
            radius = np.sqrt(d * (1 - d)) * rng.uniform(0, 1)
            angle = rng.uniform(0, 2 * np.pi)
            rows.append((d, radius * np.cos(angle), radius * np.sin(angle)))
        table = np.array(rows).reshape(-1, 2, 3)
        got = component_relative_entropy(table)
        assert got.shape == (len(rows) // 2, 2)
        want = [relative_entropy_from_eigenvalues(*row) for row in rows]
        assert np.max(np.abs(got.reshape(-1) - want)) < 1e-12

    def test_mean_over_dataset_in_range(self):
        rng = np.random.default_rng(5)
        cfg = FeatureMapConfig(n_qubits=3, repetitions=2, entanglement="full")
        value = mean_relative_entropy(rng.normal(size=(10, 3)), cfg)
        assert 0.0 <= value <= LN2

    def test_product_map_stays_pure(self):
        # single qubit: embedding is a pure state, marginal entropy ln 2
        value = mean_relative_entropy([[0.7]], FeatureMapConfig(n_qubits=1))
        assert value == pytest.approx(LN2, abs=1e-10)

    def test_full_entanglement_decays_with_size(self):
        rng = np.random.default_rng(9)
        points = rng.uniform(0, 2 * np.pi, size=(20, 8))
        small = mean_relative_entropy(
            points[:, :4], FeatureMapConfig(n_qubits=4, repetitions=2, entanglement="full")
        )
        large = mean_relative_entropy(
            points, FeatureMapConfig(n_qubits=8, repetitions=2, entanglement="full")
        )
        assert large < small


@pytest.mark.parametrize(
    "n, entanglement", [(3, "linear"), (7, "full"), (11, "full"), (12, "full")]
)
def test_embedding_diagnostics_match_separate_calls(n, entanglement):
    points = np.random.default_rng(n).uniform(0, 2 * np.pi, size=(40, n))
    cfg = FeatureMapConfig(n_qubits=n, repetitions=2, entanglement=entanglement)
    expressive, entangled = embedding_diagnostics(points, cfg)
    assert expressive == pytest.approx(expressibility(points, cfg), rel=0, abs=1e-12)
    assert entangled == pytest.approx(mean_relative_entropy(points, cfg), rel=0, abs=1e-12)
