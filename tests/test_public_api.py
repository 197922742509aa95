"""The package namespace: one array API, and every name the acceptance
criteria import still exported."""

import ast
from pathlib import Path

import qkshots

# per-object names whose work the array functions do (README, "Removed in
# 0.4.0" and "Removed in 0.9.0")
REMOVED = {
    "vacuum_state", "apply_hadamard_layer", "apply_diagonal_phase", "inner_product",
    "encoding_angles", "phase_profile", "projected_kernel",
    "sample_fidelity", "ShotResult", "sample_tomography", "TomographyResult",
    "measured_proportions", "components_from_proportions",
    "pq_variance_terms", "pq_variance_terms_noise_robust", "n_spread_pq",
    "n_spread_noisy_pq", "entry_budget_fq", "entry_budget_pq",
    "epsilon_r_from_components", "relative_entropy_to_mixed",
    # README, "Removed in 0.9.0"
    "StateVector", "ReducedDensityMatrix", "reduce_to_qubit", "fidelity_kernel", "embed",
    # README, "Removed in 0.13.0": the qubit cap is the CLI's qubit_cap key
    "check_qubit_count", "DEFAULT_QUBIT_CAP",
}


def _acceptance_imports():
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "qkshots"
            for alias in node.names}


def test_namespace_is_the_array_api():
    assert REMOVED.isdisjoint(qkshots.__all__)
    assert not [name for name in REMOVED
                if any(hasattr(getattr(qkshots, mod), name) for mod in (
                    "statevector", "feature_map", "kernels", "measurement",
                    "shot_bounds", "characteristics"))]
    acceptance = _acceptance_imports()
    assert len(acceptance) > 20
    assert acceptance <= set(qkshots.__all__)


def test_records_have_no_hand_written_dicts():
    # README, "Removed in 0.6.0": dataclasses.asdict writes these records
    from qkshots import serialize

    records = (qkshots.QuantumCost, qkshots.ClassicalCost, qkshots.ScalingFit)
    assert not [cls.__name__ for cls in records if hasattr(cls, "to_dict")]
    assert not hasattr(serialize, "fit_payload")
