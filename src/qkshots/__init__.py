"""qkshots: quantum kernel simulation with shot-budget and resource models.

The package simulates fidelity and projected quantum kernels over a
ZZ-style data embedding at desk scale, computes the shot-count bounds
needed to resolve kernel values (spread and concentration-avoidance
effects, with and without depolarising noise), fits exponential
concentration scaling laws, and converts shot budgets into runtime and
energy estimates for ideal, error-corrected and classical execution.
"""

__version__ = "0.20.0"

from .statevector import (
    ConfigurationError,
    qubit_components,
)
from .feature_map import (
    FULL,
    LINEAR,
    FeatureMapConfig,
)
from .kernels import (
    FIDELITY,
    PROJECTED,
    KernelMatrix,
    KernelStatistics,
    embedding_matrix,
    gram_matrix,
    kernel_statistics,
    reduced_component_table,
)
from .measurement import (
    depolarized_component_probability,
    depolarized_fidelity_probability,
    sample_gram,
    total_shots,
)
from .shot_bounds import (
    EntryBudgets,
    ErrorBudget,
    ShotBudget,
    ShotCount,
    dataset_budget,
    entry_budgets,
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
)
from .resources import (
    ClassicalCost,
    ClassicalProfile,
    HardwareProfile,
    QuantumCost,
    choose_code_distance,
    circuit_depth,
    classical_cost,
    find_crossover,
    logical_error_rate,
    quantum_cost,
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
