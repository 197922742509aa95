"""The batched embedding core against the dense oracles, the per-point
path (one-point batches), and itself across thread counts."""

import numpy as np
import pytest

from qkshots import (
    FeatureMapConfig,
    embedding_matrix,
    gram_matrix,
    mean_relative_entropy,
    reduced_component_table,
    sample_gram,
)
from qkshots.feature_map import ROW_BLOCK_AMPLITUDES

from oracles import (
    blocked_partial_trace,
    dense_partial_trace,
    embedding_unitary,
    matrix_components,
)


@pytest.mark.parametrize("entanglement", ["linear", "full"])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batch_matches_dense_oracles(n, r, entanglement):
    rng = np.random.default_rng(100 * n + 10 * r + len(entanglement))
    cfg = FeatureMapConfig(n_qubits=n, repetitions=r, entanglement=entanglement)
    points = rng.uniform(-2.5, 2.5, size=(4, n + 1))
    amps = embedding_matrix(points, cfg)
    table = reduced_component_table(points, cfg)
    assert amps.shape == (4, 2**n) and table.shape == (4, n, 3)
    for i, x in enumerate(points):
        dense = embedding_unitary(x, n, r, cfg.pair_indices())[:, 0]
        assert np.max(np.abs(amps[i] - dense)) < 1e-12
        for k in range(n):
            want = matrix_components(dense_partial_trace(dense, n, k))
            assert np.max(np.abs(table[i, k] - want)) < 1e-12


def test_batch_matches_per_point_path_at_ten_qubits():
    # each point embedded alone, and reduced one state at a time
    rng = np.random.default_rng(10)
    cfg = FeatureMapConfig(n_qubits=10, repetitions=2, entanglement="full")
    points = rng.normal(size=(3, 10))
    amps = embedding_matrix(points, cfg)
    table = reduced_component_table(points, cfg)
    for i, x in enumerate(points):
        state = embedding_matrix([x], cfg)[0]
        assert np.max(np.abs(amps[i] - state)) < 1e-12
        for k in range(10):
            want = matrix_components(blocked_partial_trace(state, 10, k))
            assert np.max(np.abs(table[i, k] - want)) < 1e-12


def test_projected_gram_hands_back_its_component_table():
    rng = np.random.default_rng(4)
    cfg = FeatureMapConfig(n_qubits=3, repetitions=2, entanglement="full")
    points = rng.normal(size=(5, 3))
    kernel = gram_matrix(points, cfg, family="projected")
    assert np.array_equal(kernel.component_table, reduced_component_table(points, cfg))
    assert gram_matrix(points, cfg).component_table is None


def test_results_bit_identical_across_threads_over_several_blocks():
    n = 13
    rows_per_block = ROW_BLOCK_AMPLITUDES >> n
    m = 2 * rows_per_block + 3  # two full blocks and a short one
    points = np.random.default_rng(12).normal(size=(m, n))
    cfg = FeatureMapConfig(n_qubits=n, repetitions=2, entanglement="full")

    def run(threads: int) -> list:
        fidelity = gram_matrix(points, cfg, threads=threads)
        projected = gram_matrix(points, cfg, family="projected", threads=threads)
        return [
            fidelity.values,
            projected.values,
            sample_gram(fidelity, n_shots=64, seed=3).values,
            sample_gram(projected, n_shots=64, seed=3).values,
            mean_relative_entropy(points, cfg, threads=threads),
        ]

    serial = run(1)
    for threads in (2, 4):
        pooled = run(threads)
        assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))
