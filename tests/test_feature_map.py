import tracemalloc

import numpy as np
import pytest

from qkshots import ConfigurationError, FeatureMapConfig, embedding_matrix, gram_matrix
from qkshots.feature_map import ROW_BLOCK_AMPLITUDES, angle_table, block_rows, embed_batch

from oracles import embedding_unitary


class TestConfig:
    def test_pair_sets(self):
        linear = FeatureMapConfig(n_qubits=4, entanglement="linear")
        assert linear.pair_indices() == [(0, 1), (1, 2), (2, 3)]
        full = FeatureMapConfig(n_qubits=4, entanglement="full")
        assert len(full.pair_indices()) == 6

    def test_invalid_strategy(self):
        with pytest.raises(ConfigurationError):
            FeatureMapConfig(n_qubits=2, entanglement="circular")

    def test_invalid_repetitions(self):
        with pytest.raises(ConfigurationError):
            FeatureMapConfig(n_qubits=2, repetitions=0)


class TestEncodingAngles:
    """angle_table rows: n single angles, then the pair angles in
    pair_indices order."""

    def test_pi_point_kills_pair_angle(self):
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        angles = angle_table([[np.pi, np.pi]], cfg)[0]
        assert np.allclose(angles[:2], np.pi)
        assert angles[2] == 0.0

    def test_zero_point_pair_angle(self):
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        angles = angle_table([[0.0, 0.0]], cfg)[0]
        assert angles[2] == pytest.approx(np.pi**2, abs=1e-12)

    def test_pair_counts(self):
        full = FeatureMapConfig(n_qubits=4, entanglement="full")
        linear = FeatureMapConfig(n_qubits=4, entanglement="linear")
        assert angle_table(np.zeros((1, 4)), full).shape == (1, 4 + 6)
        assert angle_table(np.zeros((1, 4)), linear).shape == (1, 4 + 3)

    def test_too_few_features(self):
        with pytest.raises(ValueError):
            angle_table([[0.1]], FeatureMapConfig(n_qubits=2))

    def test_non_finite_features(self):
        with pytest.raises(ValueError):
            angle_table([[0.1, np.nan]], FeatureMapConfig(n_qubits=2))

    def test_extra_features_ignored(self):
        cfg = FeatureMapConfig(n_qubits=2, entanglement="full")
        angles = angle_table([[0.3, 0.4, 99.0]], cfg)[0]
        assert np.array_equal(angles[:2], [0.3, 0.4])


def embed_one(x, cfg: FeatureMapConfig) -> np.ndarray:
    """The amplitudes of one point: its row of the embedding matrix."""
    return embedding_matrix([x], cfg)[0]


class TestEmbed:
    def test_single_qubit_closed_form(self):
        x0 = 1.234
        state = embed_one([x0], FeatureMapConfig(n_qubits=1))
        expected = np.array([np.exp(1j * x0), np.exp(-1j * x0)]) / np.sqrt(2)
        assert np.max(np.abs(state - expected)) < 1e-12

    def test_norm_is_one(self):
        rng = np.random.default_rng(2)
        cfg = FeatureMapConfig(n_qubits=4, repetitions=3, entanglement="full")
        states = embedding_matrix(rng.normal(size=(10, 4)), cfg)
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) < 1e-10

    def test_two_reps_at_zero_angle_return_to_vacuum(self):
        state = embed_one([0.0], FeatureMapConfig(n_qubits=1, repetitions=2))
        assert np.max(np.abs(state - [1.0, 0.0])) < 1e-12

    def test_deterministic(self):
        cfg = FeatureMapConfig(n_qubits=3, repetitions=2, entanglement="full")
        x = [0.2, -1.4, 2.2]
        assert np.array_equal(embed_one(x, cfg), embed_one(x, cfg))

    @pytest.mark.parametrize("entanglement", ["linear", "full"])
    @pytest.mark.parametrize("n,r", [(2, 1), (3, 2), (4, 1), (4, 3)])
    def test_matches_matrix_oracle(self, n, r, entanglement):
        rng = np.random.default_rng(n * 10 + r)
        cfg = FeatureMapConfig(n_qubits=n, repetitions=r, entanglement=entanglement)
        x = rng.uniform(-2, 2, size=n)
        unitary = embedding_unitary(x, n, r, cfg.pair_indices())
        expected = unitary[:, 0]  # acting on the vacuum state
        got = embed_one(x, cfg)
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_zero_point_against_matrix_oracle(self):
        # all features zero: single-qubit phases vanish, pair phases are pi^2
        for n in (2, 3, 4):
            cfg = FeatureMapConfig(n_qubits=n, repetitions=1, entanglement="full")
            x = np.zeros(n)
            angles = angle_table([x], cfg)[0]
            assert np.allclose(angles[:n], 0.0)
            assert np.allclose(angles[n:], np.pi**2, rtol=0, atol=1e-12)
            expected = embedding_unitary(x, n, 1, cfg.pair_indices())[:, 0]
            assert np.max(np.abs(embed_one(x, cfg) - expected)) < 1e-10

    def test_phase_profile_matches_loop_evaluation(self):
        cfg = FeatureMapConfig(n_qubits=3, entanglement="full")
        rng = np.random.default_rng(8)
        x = rng.normal(size=3)
        rotation = embed_batch([x], cfg)[0] * 2.0 ** 1.5
        for b in range(8):
            z = [1.0 if ((b >> i) & 1) == 0 else -1.0 for i in range(3)]
            want = sum(x[i] * z[i] for i in range(3))
            for (i, j) in cfg.pair_indices():
                want += (np.pi - x[i]) * (np.pi - x[j]) * z[i] * z[j]
            assert rotation[b] == pytest.approx(np.exp(1j * want), abs=1e-12)

    def test_single_qubit_fidelity_closed_form(self):
        cfg = FeatureMapConfig(n_qubits=1)
        xs = np.linspace(-2, 2, 10)
        ys = np.linspace(0, 3, 10)
        values = gram_matrix(np.concatenate([xs, ys])[:, None], cfg).values[:10, 10:]
        assert np.max(np.abs(values - np.cos(xs[:, None] - ys[None, :]) ** 2)) < 1e-10


def reference_rotation(points, cfg: FeatureMapConfig) -> np.ndarray:
    """exp(i * phase(b)) of every point from the phase sum over the
    (n + P, 2**n) table of Z eigenvalues, in long double."""
    n = cfg.n_qubits
    bits = (np.arange(2**n)[None, :] >> np.arange(n)[:, None]) & 1
    z = (1 - 2 * bits).astype(np.longdouble)
    i, j = np.array(cfg.pair_indices(), dtype=int).reshape(-1, 2).T
    phases = angle_table(points, cfg).astype(np.longdouble) @ np.concatenate([z, z[i] * z[j]])
    return np.cos(phases).astype(float) + 1j * np.sin(phases).astype(float)


def rotation(points, cfg: FeatureMapConfig) -> np.ndarray:
    """The diagonal rotation of one repetition: its embedding without the
    uniform 2**(-n/2) of the first Hadamard layer."""
    return embed_batch(points, cfg) * 2.0 ** (cfg.n_qubits / 2)


class TestRotation:
    @pytest.mark.parametrize("entanglement", ["linear", "full"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_phase_sum_for_one_point_and_several_blocks(self, n, entanglement):
        cfg = FeatureMapConfig(n_qubits=n, entanglement=entanglement)
        rng = np.random.default_rng(20 * n + len(entanglement))
        for m in (1, 2 * block_rows(n) + 1):
            points = rng.uniform(0.0, 2.0 * np.pi, size=(m, n))
            got = rotation(points, cfg)
            assert got.shape == (m, 2**n)
            assert np.max(np.abs(got - reference_rotation(points, cfg))) < 1e-14

    def test_accurate_at_fourteen_qubits(self):
        # phases reach hundreds of radians; their exp loses about 1e-13
        cfg = FeatureMapConfig(n_qubits=14, entanglement="full")
        points = np.random.default_rng(14).uniform(0.0, 2.0 * np.pi, size=(3, 14))
        assert np.max(np.abs(rotation(points, cfg) - reference_rotation(points, cfg))) < 1e-14

    @pytest.mark.parametrize("components", [False, True])
    def test_no_table_over_all_basis_states(self, components):
        """Eight points at n = 14 are one row block; the embedding allocates
        a few block-sized arrays beyond its result, not the (n + P, 2**n)
        table of a phase sum (105 x 2**14 doubles, 13.8 MB)."""
        cfg = FeatureMapConfig(n_qubits=14, repetitions=2, entanglement="full")
        points = np.random.default_rng(9).normal(size=(block_rows(14), 14))
        embed_batch(points[:1], cfg, components=components)  # lazy set-up
        tracemalloc.start()
        try:
            out = embed_batch(points, cfg, components=components)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 4 * ROW_BLOCK_AMPLITUDES * 16
