"""qkshots: quantum kernel simulation with shot-budget and resource models.

The package simulates fidelity and projected quantum kernels over a
ZZ-style data embedding at desk scale, computes the shot-count bounds
needed to resolve kernel values (spread and concentration-avoidance
effects, with and without depolarising noise), fits exponential
concentration scaling laws, and converts shot budgets into runtime and
energy estimates for ideal, error-corrected and classical execution.
"""

__version__ = "0.3.0"

from .statevector import (
    DEFAULT_QUBIT_CAP,
    ConfigurationError,
    ReducedDensityMatrix,
    StateVector,
    apply_diagonal_phase,
    apply_hadamard_layer,
    inner_product,
    reduce_to_qubit,
    vacuum_state,
)
from .feature_map import (
    FULL,
    LINEAR,
    FeatureMapConfig,
    embed,
    encoding_angles,
    phase_profile,
)
from .kernels import (
    FIDELITY,
    PROJECTED,
    KernelMatrix,
    KernelStatistics,
    embedding_matrix,
    fidelity_kernel,
    gram_matrix,
    kernel_statistics,
    projected_kernel,
    reduced_component_table,
)
from .measurement import (
    IDEAL,
    NoiseModel,
    ShotResult,
    TomographyResult,
    depolarized_component_probability,
    depolarized_fidelity_probability,
    sample_fidelity,
    sample_gram,
    sample_tomography,
)
from .shot_bounds import (
    EntryBudgets,
    ErrorBudget,
    ShotBudget,
    ShotCount,
    dataset_budget,
    entry_budget_fq,
    entry_budget_pq,
    entry_budgets,
    epsilon_r_from_components,
    epsilon_r_from_kernel,
    error_budget,
    n_ca_binomial_exact,
    n_ca_fq,
    n_ca_noisy_binomial_exact,
    n_ca_noisy_fq,
    n_ca_noisy_pq_normal,
    n_ca_pq_normal,
    n_spread_fq,
    n_spread_noisy_fq,
    n_spread_noisy_pq,
    n_spread_pq,
    pq_variance_terms,
    pq_variance_terms_noise_robust,
)
from .scaling import (
    ConcentrationReport,
    ScalingFit,
    ScalingSeries,
    concentration_check,
    extrapolate,
    fit_exponential,
    sweep,
)
from .characteristics import (
    embedding_diagnostics,
    expressibility,
    haar_second_moment,
    mean_relative_entropy,
    relative_entropy_to_mixed,
)
from .resources import (
    ClassicalCost,
    ClassicalProfile,
    HardwareProfile,
    QuantumCost,
    choose_code_distance,
    circuit_depth,
    classical_cost,
    calibrate_c0,
    find_crossover,
    logical_error_rate,
    quantum_cost,
    total_shots,
)
from .datasets import (
    Dataset,
    generate_random_angles,
    generate_twonorm,
    load_csv,
    preprocess,
    select_features,
    stratify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
