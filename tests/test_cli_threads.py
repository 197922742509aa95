"""CLI artifacts do not depend on ``--threads``.

Embedding runs in fixed row blocks spread over the pool threads, and
sampling draws from sub-streams keyed by row or point, so every file a
command writes must have the same bytes on one thread and on two. The
points span several embedding row blocks, so the blocks really go to
different threads; the projected budget cases span several pair blocks of
the shot bounds' pair pass.
"""

import pytest
import yaml

from qkshots import shot_bounds
from qkshots.cli import main
from qkshots.feature_map import block_rows

M, N_QUBITS = 40, 12
# pair-pass cases: kernel rows per pair block, PAIR_BLOCK // (m n), stay
# below the m - 1 rows of pairs at every size
PAIR_M, PAIR_N_VALUES = 200, [4, 8]

FIDELITY = {"family": "fidelity"}
PROJECTED = {"family": "projected", "gamma": 0.8}
SAMPLING = {"n_shots": 256, "p_error": 0.01}


def _config(kernel, m=M, n_qubits=N_QUBITS, **sections):
    return {
        "seed": 11,
        "dataset": {"type": "twonorm", "m": m},
        "feature_map": {"n_qubits": n_qubits, "repetitions": 2, "entanglement": "full"},
        "kernel": kernel,
        **sections,
    }


@pytest.mark.parametrize("command, config", [
    ("kernels", _config(FIDELITY)),
    ("kernels", _config(PROJECTED)),
    ("kernels", _config(FIDELITY, sampling=SAMPLING)),
    ("kernels", _config(PROJECTED, sampling=SAMPLING)),
    ("estimate-shots", _config(FIDELITY, budget={"p_error": 0.001})),
    ("estimate-shots", _config(PROJECTED)),
], ids=["fidelity-exact", "projected-exact", "fidelity-sampled", "projected-sampled",
        "estimate-shots-fidelity-noisy", "estimate-shots-projected"])
def test_artifacts_equal_on_one_and_two_threads(tmp_path, command, config):
    assert M > block_rows(N_QUBITS)  # at least two blocks
    _assert_equal_on_one_and_two_threads(tmp_path, command, config)


def _assert_equal_on_one_and_two_threads(tmp_path, command, config):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    written = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert main([command, "--config", str(path), "--out", str(out),
                     "--threads", str(threads)]) == 0
        written[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert written[1] and written[1] == written[2]


@pytest.mark.parametrize("command, config", [
    ("sweep", _config(PROJECTED, m=PAIR_M, sweep={"n_values": PAIR_N_VALUES,
                                                    "include_budgets": True})),
    ("estimate-shots", _config(PROJECTED, m=PAIR_M, n_qubits=PAIR_N_VALUES[-1],
                               budget={"p_error": 0.001})),
], ids=["sweep-projected-budgets", "estimate-shots-projected-noisy"])
def test_pair_pass_artifacts_equal_on_one_and_two_threads(tmp_path, command, config):
    for n in PAIR_N_VALUES:
        assert shot_bounds.PAIR_BLOCK // (PAIR_M * n) < PAIR_M - 1  # at least two blocks
    _assert_equal_on_one_and_two_threads(tmp_path, command, config)
