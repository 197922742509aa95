"""Runtime and energy estimates for executing a shot budget.

Quantum execution is modelled as total_shots * (layers * t_layer + t_meas)
with per-layer time equal to the physical gate time on an ideal machine,
or to a surface-code logical cycle d * (t_gate + t_meas) on an
error-corrected one. The code distance d is the smallest odd value whose
logical error rate

    p_L = 0.03 * (p_phys / 0.01) ** ((d + 1) / 2)

keeps the whole circuit (logical qubit count times layer count) within the
per-run error budget. Physical qubit overhead is 2 d^2 per logical qubit
and power draw is 30 mW per physical qubit by default.

The classical baseline is a configurable flop model c0 * 2**(alpha n) per
kernel entry (fidelity) or per data point (projected), with default
exponents alpha of 1.07 and 2.30. The machine constants (flops, watts) and
c0 are free parameters, not measured values; calibrate c0 against a real
run before reading absolute numbers off this model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feature_map import FULL, FeatureMapConfig
from .kernels import FIDELITY, PROJECTED, check_family
from .measurement import total_shots
from .statevector import ConfigurationError

MAX_CODE_DISTANCE = 51

CLASSICAL_ALPHA_DEFAULTS = {FIDELITY: 1.07, PROJECTED: 2.30}


@dataclass(frozen=True)
class HardwareProfile:
    """Quantum machine constants for the timing/energy model."""

    gate_time_s: float = 50e-9
    measurement_time_s: float = 100e-9
    physical_error_rate: float = 1e-3
    power_per_qubit_w: float = 0.030
    qubit_overhead_factor: float = 2.0  # physical per logical = factor * d**2

    def __post_init__(self) -> None:
        for name in (
            "gate_time_s",
            "measurement_time_s",
            "physical_error_rate",
            "power_per_qubit_w",
            "qubit_overhead_factor",
        ):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive")


@dataclass(frozen=True)
class ClassicalProfile:
    """Classical simulation baseline; flops and watts are placeholders to
    be overridden with real machine figures."""

    alpha: float
    c0: float = 1.0
    flops_per_second: float = 1e15
    power_w: float = 1e5

    def __post_init__(self) -> None:
        if not (self.c0 > 0 and self.flops_per_second > 0 and self.power_w > 0):
            raise ConfigurationError("classical profile constants must be positive")


@dataclass(frozen=True)
class QuantumCost:
    runtime_s: float
    energy_j: float
    physical_qubits: int
    total_shots: int
    gate_layers: int
    code_distance: int | None = None


@dataclass(frozen=True)
class ClassicalCost:
    runtime_s: float
    energy_j: float
    flops: float


def pair_layer_count(n_qubits: int, entanglement: str) -> int:
    """Gate layers needed to schedule all pair rotations of one repetition.

    The linear chain is applied sequentially (n - 1 layers). Full
    connectivity is scheduled by round-robin edge colouring: n - 1 layers
    for even n, n for odd n > 1.
    """
    if n_qubits < 2:
        return 0
    if entanglement != FULL:
        return n_qubits - 1
    return n_qubits - 1 if n_qubits % 2 == 0 else n_qubits


def circuit_depth(cfg: FeatureMapConfig, family: str) -> int:
    """Gate-layer count of the full estimation circuit.

    One embedding repetition costs one Hadamard layer plus its pair
    layers. Fidelity estimation concatenates encode and decode (twice the
    embedding depth); projected estimation appends one basis-change layer.
    """
    embed_layers = cfg.repetitions * (
        1 + pair_layer_count(cfg.n_qubits, cfg.entanglement)
    )
    if check_family(family) == FIDELITY:
        return 2 * embed_layers
    return embed_layers + 1


def logical_error_rate(code_distance: int, physical_error_rate: float) -> float:
    """Surface-code logical error rate 0.03 (p/0.01)**((d+1)/2)."""
    if code_distance < 3 or code_distance % 2 == 0:
        raise ValueError(
            f"code distance must be an odd integer >= 3, got {code_distance}"
        )
    return 0.03 * (physical_error_rate / 0.01) ** ((code_distance + 1) / 2)


def choose_code_distance(
    error_budget: float,
    n_logical: int,
    layers: int,
    physical_error_rate: float,
    max_distance: int = MAX_CODE_DISTANCE,
) -> int:
    """Smallest odd distance keeping the whole circuit within the per-run
    error budget: n_logical * layers * p_L(d) <= error_budget."""
    if not 0.0 < error_budget < 1.0:
        raise ConfigurationError(
            f"error budget must be in (0, 1), got {error_budget}"
        )
    weight = n_logical * layers
    for d in range(3, max_distance + 1, 2):
        if weight * logical_error_rate(d, physical_error_rate) <= error_budget:
            return d
    raise ConfigurationError(
        f"error budget {error_budget:g} unreachable with distance up to "
        f"{max_distance} at physical error rate {physical_error_rate:g} "
        f"(circuit weight {weight})"
    )


def quantum_cost(
    shots_per_estimate: int,
    cfg: FeatureMapConfig,
    family: str,
    m: int,
    profile: HardwareProfile = HardwareProfile(),
    corrected: bool = False,
    error_budget: float | None = None,
) -> QuantumCost:
    """Wall-clock time and energy to estimate a full Gram matrix.

    Ideal execution uses physical gate/measurement times and n qubits.
    Error-corrected execution replaces the per-layer time by the logical
    cycle d (t_gate + t_meas) and multiplies the qubit count by 2 d^2,
    leaving the shot count unchanged.
    """
    n_total = total_shots(family, m, shots_per_estimate)
    layers = circuit_depth(cfg, family)
    n_logical = cfg.n_qubits
    if corrected:
        if error_budget is None:
            raise ConfigurationError(
                "corrected execution requires an error budget"
            )
        distance = choose_code_distance(
            error_budget, n_logical, layers, profile.physical_error_rate
        )
        layer_time = distance * (
            profile.gate_time_s + profile.measurement_time_s
        )
        qubits = int(
            round(n_logical * profile.qubit_overhead_factor * distance**2)
        )
    else:
        distance = None
        layer_time = profile.gate_time_s
        qubits = n_logical
    runtime = n_total * (layers * layer_time + profile.measurement_time_s)
    energy = runtime * qubits * profile.power_per_qubit_w
    return QuantumCost(
        runtime_s=float(runtime),
        energy_j=float(energy),
        physical_qubits=qubits,
        total_shots=n_total,
        gate_layers=layers,
        code_distance=distance,
    )


def _entry_count(family: str, m: int) -> int:
    """Kernel entries (fidelity) or data points (projected): not the 3 m
    runs per shot that total_shots counts for projected tomography."""
    if check_family(family) == FIDELITY:
        return m * (m - 1) // 2
    return m


def classical_cost(
    family: str, n_qubits: int, m: int, profile: ClassicalProfile
) -> ClassicalCost:
    """Classical simulation cost under the exponential flop model."""
    flops = profile.c0 * 2.0 ** (profile.alpha * n_qubits) * _entry_count(family, m)
    runtime = flops / profile.flops_per_second
    return ClassicalCost(
        runtime_s=float(runtime),
        energy_j=float(runtime * profile.power_w),
        flops=float(flops),
    )


def calibrate_c0(
    measured_runtime_s: float,
    family: str,
    n_qubits: int,
    m: int,
    profile: ClassicalProfile,
) -> float:
    """The c0 that makes the model reproduce one measured run exactly."""
    if measured_runtime_s <= 0:
        raise ValueError("measured runtime must be positive")
    flops_needed = measured_runtime_s * profile.flops_per_second
    return flops_needed / (2.0 ** (profile.alpha * n_qubits) * _entry_count(family, m))


def find_crossover(n_values, quantum_values, classical_values) -> int | None:
    """Smallest n at which the quantum value drops below the classical one;
    None when it never does within the scanned range."""
    n_values = list(n_values)
    q = np.asarray(quantum_values, dtype=float)
    c = np.asarray(classical_values, dtype=float)
    if not (len(n_values) == q.size == c.size):
        raise ValueError("n_values and cost arrays must have equal length")
    return min((int(n) for n, qv, cv in zip(n_values, q, c) if qv < cv), default=None)
