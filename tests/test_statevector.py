import numpy as np
import pytest

from qkshots import (
    ConfigurationError,
    FeatureMapConfig,
    ReducedDensityMatrix,
    StateVector,
    fidelity_kernel,
    reduce_to_qubit,
)
from qkshots.feature_map import embed_batch
from qkshots.kernels import fidelity_gram_values
from qkshots.statevector import check_qubit_count, walsh_hadamard

from oracles import dense_partial_trace


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def vacuum(n):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


def hadamard_layer(amplitudes):
    """A Hadamard layer on every row of an amplitude block: the unnormalised
    transform times 2**(-n/2)."""
    block = np.array(amplitudes, dtype=complex, ndmin=2)
    n = block.shape[1].bit_length() - 1
    walsh_hadamard(block, n)
    return block * 2.0 ** (-n / 2)


class TestVacuumState:
    """The vacuum every embedding starts from, and the checks on states."""

    def test_single_qubit(self):
        # two repetitions at angle 0: H H |0> = |0>
        out = embed_batch([[0.0]], FeatureMapConfig(n_qubits=1, repetitions=2))
        assert np.max(np.abs(out[0] - [1.0, 0.0])) < 1e-12

    def test_two_qubits(self):
        # at (pi, pi) every linear-chain phase is a multiple of 2 pi
        cfg = FeatureMapConfig(n_qubits=2, repetitions=2, entanglement="linear")
        out = embed_batch([[np.pi, np.pi]], cfg)
        assert np.max(np.abs(out[0] - [1.0, 0.0, 0.0, 0.0])) < 1e-12

    def test_zero_qubits_rejected(self):
        with pytest.raises(ConfigurationError):
            check_qubit_count(0)
        with pytest.raises(ConfigurationError):
            StateVector(0, [1.0])

    def test_cap_enforced(self):
        with pytest.raises(ConfigurationError):
            check_qubit_count(15)
        check_qubit_count(15, cap=16)

    def test_non_normalised_rejected(self):
        with pytest.raises(ValueError):
            StateVector(1, [1.0, 1.0])

    def test_amplitudes_read_only(self):
        state = vacuum(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestHadamardLayer:
    def test_uniform_superposition(self):
        assert np.allclose(hadamard_layer(vacuum(2).amplitudes), 0.25**0.5)

    def test_involution(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 3)
        twice = hadamard_layer(hadamard_layer(state.amplitudes))
        assert np.max(np.abs(twice - state.amplitudes)) < 1e-12

    def test_on_excited_state(self):
        out = hadamard_layer([0.0, 1.0])
        assert np.allclose(out, [[2**-0.5, -(2**-0.5)]], atol=1e-12)


class TestDiagonalPhase:
    """One repetition of the embedding is H|0...0> times its phases."""

    def test_zero_phases_identity(self):
        out = embed_batch([[0.0]], FeatureMapConfig(n_qubits=1))
        assert np.array_equal(out[0], hadamard_layer([1.0, 0.0])[0])

    def test_global_phase_keeps_magnitudes(self):
        out = embed_batch([[np.pi]], FeatureMapConfig(n_qubits=1))
        assert np.allclose(np.abs(out[0]), np.abs(hadamard_layer([1.0, 0.0])[0]))

    def test_hand_computed_two_level(self):
        # H|0> then phases (x, -x): amplitudes (e^ix, e^-ix)/sqrt(2)
        x = 0.83
        out = embed_batch([[x]], FeatureMapConfig(n_qubits=1))
        expected = np.array([np.exp(1j * x), np.exp(-1j * x)]) / np.sqrt(2)
        assert np.max(np.abs(out[0] - expected)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            embed_batch([[0.0]], FeatureMapConfig(n_qubits=2))


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, 4)
        assert abs(fidelity_kernel(state, state) - 1.0) < 1e-12

    def test_orthogonal_basis_states(self):
        assert fidelity_kernel(vacuum(1), StateVector(1, [0.0, 1.0])) == 0.0

    def test_cauchy_schwarz_over_random_pairs(self):
        rng = np.random.default_rng(21)
        states = np.array([random_state(rng, 3).amplitudes for _ in range(100)])
        overlaps = np.abs(states.conj() @ states.T) ** 2
        assert overlaps.max() <= 1.0 + 1e-12
        assert np.allclose(fidelity_gram_values(states), overlaps, rtol=0, atol=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(9)
        states = np.array([random_state(rng, 3).amplitudes for _ in range(2)])
        values = fidelity_gram_values(states)
        assert values[0, 1] == values[1, 0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_kernel(vacuum(1), vacuum(2))


class TestReduceToQubit:
    def test_bell_state_is_maximally_mixed(self):
        bell = StateVector(2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
        rho = reduce_to_qubit(bell, 0)
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_product_state_marginals(self):
        # qubit 1 in |+>, qubit 0 in |0>: amplitudes on indices 0 and 2
        amps = np.zeros(4)
        amps[0] = amps[2] = 2**-0.5
        state = StateVector(2, amps)
        plus = reduce_to_qubit(state, 1)
        assert np.allclose(plus.entries, np.full((2, 2), 0.5), atol=1e-12)
        zero = reduce_to_qubit(state, 0)
        assert np.allclose(zero.entries, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_matches_dense_oracle_on_random_state(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 3)
        for k in range(3):
            expected = dense_partial_trace(state.amplitudes, 3, k)
            assert np.max(np.abs(reduce_to_qubit(state, k).entries - expected)) < 1e-10

    def test_dense_oracle_all_sizes(self):
        rng = np.random.default_rng(17)
        for n in range(2, 7):
            for _ in range(5):
                state = random_state(rng, n)
                for k in range(n):
                    expected = dense_partial_trace(state.amplitudes, n, k)
                    got = reduce_to_qubit(state, k).entries
                    assert np.max(np.abs(got - expected)) < 1e-10

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            reduce_to_qubit(vacuum(2), 2)

    def test_trace_and_positivity_over_many_states(self):
        rng = np.random.default_rng(123)
        checked = 0
        for n in range(2, 9):
            for _ in range(150):
                state = random_state(rng, n)
                k = int(rng.integers(n))
                rho = reduce_to_qubit(state, k)
                assert abs(np.trace(rho.entries).real - 1.0) < 1e-10
                assert np.linalg.eigvalsh(rho.entries).min() >= -1e-10
                checked += 1
        assert checked >= 1000


class TestNormPreservation:
    def test_random_gate_sequences(self):
        rng = np.random.default_rng(31)
        amps = vacuum(4).amplitudes
        for _ in range(20):
            if rng.random() < 0.5:
                amps = hadamard_layer(amps)[0]
            else:
                amps = amps * np.exp(1j * rng.normal(size=16))
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-10


class TestReducedDensityMatrix:
    def test_components_match_entries(self):
        rho = ReducedDensityMatrix([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])
        assert rho.components == (0.7, 0.1, -0.2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            ReducedDensityMatrix([[0.5, 0.3], [0.1, 0.5]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            ReducedDensityMatrix([[0.5, 0.9], [0.9, 0.5]])
