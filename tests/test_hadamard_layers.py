"""The two statevector layers of the batched embedding, on whole amplitude
blocks: the Kronecker-factored Walsh-Hadamard transform and the one-qubit
reduction, against the dense and blocked oracles, and bit for bit across
pool and BLAS thread counts."""

import hashlib
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import qkshots
from qkshots import FeatureMapConfig, embedding_matrix, reduced_component_table
from qkshots.feature_map import block_rows
from qkshots.statevector import qubit_components, walsh_hadamard

from oracles import H1, blocked_partial_trace, dense_partial_trace, matrix_components

WIDE = 14
WIDE_ROWS = block_rows(WIDE)


def random_block(rng, rows: int, n: int) -> np.ndarray:
    """(rows, 2**n) block of normalised random amplitudes."""
    block = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
    return block / np.linalg.norm(block, axis=1, keepdims=True)


@pytest.mark.parametrize("n", range(1, 11))
def test_walsh_hadamard_matches_dense_kronecker_product(n):
    block = random_block(np.random.default_rng(n), 5, n)
    dense = reduce(np.kron, [H1] * n)  # normalised Hadamard layer
    want = block @ dense.T
    walsh_hadamard(block, n)
    assert np.max(np.abs(block * 2.0 ** (-n / 2) - want)) < 1e-13


def test_walsh_hadamard_twice_scales_by_dimension():
    block = random_block(np.random.default_rng(14), WIDE_ROWS, WIDE)
    twice = block.copy()
    walsh_hadamard(twice, WIDE)
    walsh_hadamard(twice, WIDE)
    assert np.max(np.abs(twice / 2.0**WIDE - block)) < 1e-13


def test_qubit_components_match_per_state_reduction_at_fourteen_qubits():
    # one state at a time through the blocked oracle, where a dense partial
    # trace would need a 2**14 x 2**14 density matrix
    block = random_block(np.random.default_rng(15), WIDE_ROWS, WIDE)
    table = qubit_components(block, WIDE)
    assert table.shape == (WIDE_ROWS, WIDE, 3)
    for r, row in enumerate(block):
        for k in range(WIDE):
            want = matrix_components(blocked_partial_trace(row, WIDE, k))
            assert np.max(np.abs(table[r, k] - want)) < 1e-13


@pytest.mark.parametrize("n", range(1, 9))
def test_qubit_components_match_dense_partial_trace(n):
    block = random_block(np.random.default_rng(20 + n), 3, n)
    table = qubit_components(block, n)
    for r, row in enumerate(block):
        for k in range(n):
            want = matrix_components(dense_partial_trace(row, n, k))
            assert np.max(np.abs(table[r, k] - want)) < 1e-13


def test_wide_embedding_bit_identical_across_pool_threads():
    m = 3 * WIDE_ROWS + 5  # three full blocks and a short one
    points = np.random.default_rng(16).normal(size=(m, WIDE))
    cfg = FeatureMapConfig(n_qubits=WIDE, repetitions=3, entanglement="full")
    serial = (embedding_matrix(points, cfg), reduced_component_table(points, cfg))
    for threads in (2, 4):
        assert np.array_equal(serial[0], embedding_matrix(points, cfg, threads=threads))
        assert np.array_equal(
            serial[1], reduced_component_table(points, cfg, threads=threads)
        )


_DIGEST = """
import hashlib
import numpy as np
from qkshots import FeatureMapConfig, embedding_matrix, reduced_component_table
points = np.random.default_rng(17).normal(size=(2 * {rows} + 3, {n}))
cfg = FeatureMapConfig(n_qubits={n}, repetitions=3, entanglement="full")
digest = hashlib.sha256(embedding_matrix(points, cfg).tobytes())
digest.update(reduced_component_table(points, cfg).tobytes())
print(digest.hexdigest())
"""


def _digest_with_blas_threads(threads: int) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(qkshots.__file__).parents[1])}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    code = _DIGEST.format(rows=WIDE_ROWS, n=WIDE)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return run.stdout.strip()


def test_wide_embedding_bit_identical_across_blas_threads():
    digests = {threads: _digest_with_blas_threads(threads) for threads in (1, 2)}
    assert digests[1] == digests[2]
    assert len(digests[1]) == len(hashlib.sha256().hexdigest())
