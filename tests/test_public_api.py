"""The package namespace: one array API, and every name the acceptance
criteria import still exported."""

import ast
import inspect
import re
from dataclasses import fields
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
    # README, "Removed in 0.6.0" and "Removed in 0.15.0": dataclasses.asdict
    # writes these records
    from qkshots import serialize

    records = (qkshots.QuantumCost, qkshots.ClassicalCost, qkshots.ScalingFit,
               qkshots.ShotBudget)
    assert not [cls.__name__ for cls in records if hasattr(cls, "to_dict")]
    assert not hasattr(serialize, "fit_payload")


def test_entry_budgets_build_no_per_pair_object():
    # README, "Removed in 0.15.0": the pairs are arrays, and the writer
    # streams their records from the arrays
    assert not [name for name in ("budget", "entries") if hasattr(qkshots.EntryBudgets, name)]


def test_entry_budgets_hold_only_their_budget_columns():
    # README, "Removed in 0.18.0": no stored pair indices; the budget pass
    # indexes no array by pair, and its one entry point is the pair pass
    names = [f.name for f in fields(qkshots.EntryBudgets)]
    assert names == ["family", "noisy", "kappa", "n_spread", "n_ca", "degenerate",
                     "ca_imposed", "inputs", "variance_total"]
    assert not [name for name in ("i", "j") if hasattr(qkshots.EntryBudgets, name)]
    tree = ast.parse(Path(qkshots.shot_bounds.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "pair_indices" not in imported
    assert not hasattr(qkshots.shot_bounds, "_mean_pair_variance_terms")


def test_size_series_carry_no_metadata():
    # README, "Removed in 0.19.0": a series is its statistic, sizes and
    # values; the size rule has one owner, scaling.check_qubit_counts; and
    # no caller set the family name or the sidecar path
    from qkshots import cli, kernels, serialize

    assert [f.name for f in fields(qkshots.ScalingSeries)] == [
        "statistic", "qubit_counts", "values"]
    assert not hasattr(cli, "_qubit_counts")
    assert list(inspect.signature(kernels.check_family).parameters) == ["family"]
    assert list(inspect.signature(serialize.read_kernel_csv).parameters) == ["path"]


def test_budget_records_are_joined_without_a_format_template():
    # README, "Removed in 0.20.0": records are constant text and token
    # columns, joined; c0 calibration is a one-line formula, not a function
    from qkshots import resources, serialize

    assert not [name for name in ("_record_template", "_tokens", "_counts")
                if hasattr(serialize, name)]
    assert "%s" not in Path(serialize.__file__).read_text(encoding="utf-8")
    assert not hasattr(resources, "calibrate_c0")
    assert "calibrate_c0" not in qkshots.__all__


def test_kernel_matrix_stores_one_packed_triangle():
    # README, "Removed in 0.16.0": the packed triangle is the only storage,
    # and no module re-derives the pair order or symmetrises a matrix
    names = [f.name for f in fields(qkshots.KernelMatrix)]
    assert names == ["upper", "family", "config", "gamma", "metadata", "component_table"]
    assert not hasattr(qkshots.KernelMatrix, "off_diagonal")
    source = Path(qkshots.__file__).parent
    assert not [path.name for path in sorted(source.glob("*.py"))
                if re.search(r"triu_indices|np\.ix_|_symmetrised|off_diagonal",
                             path.read_text(encoding="utf-8"))]
