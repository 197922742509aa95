import numpy as np
import pytest

from qkshots import ConfigurationError, FeatureMapConfig, qubit_components
from qkshots.feature_map import embed_batch
from qkshots.kernels import fidelity_gram_values
from qkshots.statevector import walsh_hadamard

from oracles import components_to_matrix, dense_partial_trace


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def vacuum(n):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return amps


def reduced(amps, k):
    """The 2 x 2 reduced matrix of qubit k, rebuilt from the components
    that qubit_components gives for the state."""
    amps = np.asarray(amps, dtype=complex)
    n = amps.size.bit_length() - 1
    return components_to_matrix(qubit_components(amps[None], n)[0, k])


def hadamard_layer(amplitudes):
    """A Hadamard layer on every row of an amplitude block: the unnormalised
    transform times 2**(-n/2)."""
    block = np.array(amplitudes, dtype=complex, ndmin=2)
    n = block.shape[1].bit_length() - 1
    walsh_hadamard(block, n)
    return block * 2.0 ** (-n / 2)


class TestVacuumState:
    """The vacuum every embedding starts from."""

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
            FeatureMapConfig(n_qubits=0)


class TestHadamardLayer:
    def test_uniform_superposition(self):
        assert np.allclose(hadamard_layer(vacuum(2)), 0.25**0.5)

    def test_involution(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 3)
        twice = hadamard_layer(hadamard_layer(state))
        assert np.max(np.abs(twice - state)) < 1e-12

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
    """Overlaps of amplitude rows, as fidelity_gram_values computes them."""

    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, 4)
        values = fidelity_gram_values(np.array([state, state]))
        assert abs(values[0, 1] - 1.0) < 1e-12

    def test_orthogonal_basis_states(self):
        assert fidelity_gram_values(np.eye(2, dtype=complex))[0, 1] == 0.0

    def test_cauchy_schwarz_over_random_pairs(self):
        rng = np.random.default_rng(21)
        states = np.array([random_state(rng, 3) for _ in range(100)])
        overlaps = np.abs(states.conj() @ states.T) ** 2
        assert overlaps.max() <= 1.0 + 1e-12
        assert np.allclose(fidelity_gram_values(states), overlaps, rtol=0, atol=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(9)
        states = np.array([random_state(rng, 3) for _ in range(2)])
        values = fidelity_gram_values(states)
        assert values[0, 1] == values[1, 0]
        assert abs(fidelity_gram_values(states[::-1])[0, 1] - values[0, 1]) < 1e-12


class TestReduceToQubit:
    """One-qubit reductions of states, as qubit_components computes them."""

    def test_bell_state_is_maximally_mixed(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        for k in range(2):
            assert np.allclose(reduced(bell, k), np.eye(2) / 2, atol=1e-12)

    def test_product_state_marginals(self):
        # qubit 1 in |+>, qubit 0 in |0>: amplitudes on indices 0 and 2
        amps = np.zeros(4)
        amps[0] = amps[2] = 2**-0.5
        assert np.allclose(reduced(amps, 1), np.full((2, 2), 0.5), atol=1e-12)
        assert np.allclose(reduced(amps, 0), [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_matches_dense_oracle_on_random_state(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 3)
        for k in range(3):
            expected = dense_partial_trace(state, 3, k)
            assert np.max(np.abs(reduced(state, k) - expected)) < 1e-10

    def test_dense_oracle_all_sizes(self):
        rng = np.random.default_rng(17)
        for n in range(2, 7):
            for _ in range(5):
                state = random_state(rng, n)
                for k in range(n):
                    expected = dense_partial_trace(state, n, k)
                    assert np.max(np.abs(reduced(state, k) - expected)) < 1e-10

    def test_trace_and_positivity_over_many_states(self):
        rng = np.random.default_rng(123)
        checked = 0
        for n in range(2, 9):
            for _ in range(150):
                state = random_state(rng, n)
                population, re, im = qubit_components(state[None], n)[0, int(rng.integers(n))]
                # the component layout fixes the trace at 1; [[p, z], [z*, 1 - p]]
                # is positive exactly when p is in [0, 1] and |z|^2 <= p (1 - p)
                assert -1e-10 <= population <= 1.0 + 1e-10
                assert re**2 + im**2 <= population * (1.0 - population) + 1e-10
                checked += 1
        assert checked >= 1000


class TestNormPreservation:
    def test_random_gate_sequences(self):
        rng = np.random.default_rng(31)
        amps = vacuum(4)
        for _ in range(20):
            if rng.random() < 0.5:
                amps = hadamard_layer(amps)[0]
            else:
                amps = amps * np.exp(1j * rng.normal(size=16))
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-10

