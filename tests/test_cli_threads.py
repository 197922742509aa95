"""CLI artifacts do not depend on ``--threads``.

Embedding runs in fixed row blocks spread over the pool threads, and
sampling draws from sub-streams keyed by row or point, so every file a
command writes must have the same bytes on one thread and on two. The
points span several embedding row blocks, so the blocks really go to
different threads.
"""

import pytest
import yaml

from qkshots.cli import main
from qkshots.feature_map import block_rows

M, N_QUBITS = 40, 12

FIDELITY = {"family": "fidelity"}
PROJECTED = {"family": "projected", "gamma": 0.8}
SAMPLING = {"n_shots": 256, "p_error": 0.01}


def _config(kernel, **sections):
    return {
        "seed": 11,
        "dataset": {"type": "twonorm", "m": M},
        "feature_map": {"n_qubits": N_QUBITS, "repetitions": 2, "entanglement": "full"},
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
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    written = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert main([command, "--config", str(path), "--out", str(out),
                     "--threads", str(threads)]) == 0
        written[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert written[1] and written[1] == written[2]
