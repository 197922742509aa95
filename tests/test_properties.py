"""Property tests: sampled Gram matrices, pair variance terms and the
budget writer on random small inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkshots import FeatureMapConfig, entry_budgets, gram_matrix, sample_gram, shot_bounds
from qkshots.serialize import write_json

from oracles import budget_json

FAMILIES = st.sampled_from(["fidelity", "projected"])
PROPERTY = settings(max_examples=12, deadline=None, database=None)


def _points(seed: int, m: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(m, n))


@PROPERTY
@given(family=FAMILIES, m=st.integers(2, 7), n=st.integers(1, 3),
       n_shots=st.integers(1, 300), p_error=st.sampled_from([0.0, 0.05]),
       seed=st.integers(0, 2**32 - 1))
def test_sampled_gram_is_a_thread_independent_kernel(family, m, n, n_shots, p_error, seed):
    cfg = FeatureMapConfig(n_qubits=n, repetitions=2, entanglement="full")
    runs = [
        sample_gram(gram_matrix(_points(seed, m, n), cfg, family=family, threads=threads),
                    n_shots, p_error, seed).values
        for threads in (1, 2, 4)
    ]
    values = runs[0]
    assert all(np.array_equal(values, other) for other in runs[1:])
    assert np.array_equal(values, values.T)
    assert np.all(np.diag(values) == 1.0)
    assert np.all((values >= 0.0) & (values <= 1.0))
    if family == "fidelity":
        assert np.array_equal(np.rint(values * n_shots) / n_shots, values)


@PROPERTY
@given(family=FAMILIES, m=st.integers(2, 7), n=st.integers(1, 3),
       p_error=st.sampled_from([0.0, 0.05]), eps=st.floats(0.05, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_budget_writer_bytes_equal_stdlib_encoder(tmp_path_factory, family, m, n,
                                                  p_error, eps, seed):
    kernel = gram_matrix(_points(seed, m, n), FeatureMapConfig(n, 2, "full"),
                         family=family, gamma=0.7)
    budgets = entry_budgets(family, kernel.values, eps, 0.3, 0.9, 0.99, p_error,
                            table=kernel.component_table, gamma=0.7, n_qubits=n)
    payload = {"statistics": {"iqr": 0.3}, "provenance": {"seed": seed}}
    path = write_json(tmp_path_factory.mktemp("budgets") / "b.json",
                      {**payload, "entries": budgets})
    assert path.read_text(encoding="utf-8") == budget_json(payload, budgets)


@PROPERTY
@given(m=st.integers(2, 9), n=st.integers(1, 4), pair_block=st.integers(1, 64),
       robust=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_pair_variances_from_point_weights_equal_per_pair_terms(m, n, pair_block, robust,
                                                                seed):
    """Per-point standard deviations gathered per pair give the V_k of
    ``_variance_terms`` on the pair's proportions, bit for bit, over row
    blocks that cover every upper-triangle pair once."""
    rng = np.random.default_rng(seed)
    props = rng.uniform(-1e-12, 1.0 + 1e-12, size=(m, n, 3))
    props[rng.uniform(size=props.shape) < 0.2] = 0.5
    props[rng.uniform(size=props.shape) < 0.1] = 1.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shot_bounds, "PAIR_BLOCK", pair_block)
        blocks = list(shot_bounds._pair_variance_blocks(props, robust))
    for i, j, terms in blocks:
        reference = shot_bounds._variance_terms(props[i], props[j], robust)
        assert terms.tobytes() == reference.tobytes()
    pairs = np.concatenate([np.stack([i, j]) for i, j, _ in blocks], axis=1)
    assert np.array_equal(pairs, np.triu_indices(m, k=1))
