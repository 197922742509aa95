"""The exact concentration-avoidance search against the exhaustive scan.

``n_ca_binomial_exact`` searches at the two concentration values: at
mu = 0 it bisects over all N, at mu = 1/2 over odd N. These tests pin its
result to ``oracles.exhaustive_ca_shots``, which evaluates the CDF at
every N from 1. Where the minimal N runs into the millions (gaps of 1e-3
and 5e-4 from 1/2 at p_ca >= 0.9) a full scan takes seconds per case, so
one such case is scanned in full and the others are probed below their
minimum. Every other mu is refused; ``ca_condition_probability`` still
evaluates the condition there.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from qkshots import n_ca_binomial_exact, n_ca_fq, n_ca_noisy_binomial_exact
from qkshots.shot_bounds import ca_condition_probability
from qkshots.statevector import ConfigurationError

from oracles import correct_side_probabilities, exhaustive_ca_shots

P_ERROR = 1e-3
N_QUBITS = 6
EXACT_MU = (0.0, 0.5)


def _cases():
    cases = []
    for p_ca in (0.6, 0.9, 0.99):
        # mu = 0 is the fidelity concentration value: only q > mu exists
        cases += [(q, 0.0, p_ca) for q in (0.02, 2.0**-12)]
        # no search runs at these mu; the cases pin the refusal and the
        # condition the library still evaluates there
        for mu in (0.1, 0.3, 0.7):
            cases += [(mu + s * gap, mu, p_ca) for gap in (0.05, 0.02) for s in (-1, 1)]
    for gap, p_ca in [(2e-3, 0.6), (1e-3, 0.6), (5e-4, 0.6), (2e-3, 0.9), (2e-3, 0.99)]:
        cases += [(0.5 + s * gap, 0.5, p_ca) for s in (-1, 1)]
    return cases


def _shifted(q, mu):
    """Depolarised proportion of the noisy entry point for this mu."""
    if mu == 0.0:
        return (1.0 - P_ERROR) * q + P_ERROR * 2.0**-N_QUBITS, "fidelity"
    return (1.0 - P_ERROR) * q + P_ERROR * 0.5, "projected"


def _check_outside_exact_mu(search, q, mu, p_ca):
    """``search`` refuses mu, and the first N at which the library's
    ``ca_condition_probability`` reaches p_ca is the oracle's."""
    with pytest.raises(ConfigurationError, match="mu = 0 or mu = 0.5"):
        search()
    expected = exhaustive_ca_shots(q, mu, p_ca)
    passing = ca_condition_probability(np.arange(1, expected + 1), q, mu) >= p_ca
    assert passing[-1] and not passing[:-1].any()


@pytest.mark.parametrize("q, mu, p_ca", _cases())
def test_search_equals_exhaustive_scan(q, mu, p_ca):
    if mu not in EXACT_MU:
        _check_outside_exact_mu(lambda: n_ca_binomial_exact(q, mu, p_ca), q, mu, p_ca)
        return
    assert n_ca_binomial_exact(q, mu, p_ca) == exhaustive_ca_shots(q, mu, p_ca)


@pytest.mark.parametrize("q, mu, p_ca", [c for c in _cases() if c[1] != 0.5 or c[2] == 0.6])
def test_noisy_search_equals_exhaustive_scan(q, mu, p_ca):
    shifted, family = _shifted(q, mu)

    def search():
        return n_ca_noisy_binomial_exact(q, mu, p_ca, P_ERROR, family=family,
                                         n_qubits=N_QUBITS)

    if mu not in EXACT_MU:
        _check_outside_exact_mu(search, shifted, mu, p_ca)
        return
    assert search() == exhaustive_ca_shots(shifted, mu, p_ca)


@pytest.mark.parametrize("mu", [0.1, 0.3, 0.7, 1.0])
def test_both_exact_entry_points_refuse_other_concentration_values(mu):
    with pytest.raises(ConfigurationError, match="mu = 0 or mu = 0.5"):
        n_ca_binomial_exact(0.45, mu, 0.9)
    with pytest.raises(ConfigurationError, match="mu = 0 or mu = 0.5"):
        n_ca_noisy_binomial_exact(0.45, mu, 0.9, P_ERROR)


@pytest.mark.parametrize("gap", [1e-3, 5e-4])
@pytest.mark.parametrize("p_ca", [0.9, 0.99])
@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("noisy", [False, True])
def test_million_shot_cases_equal_exhaustive_scan(gap, p_ca, side, noisy):
    """Minima of 0.4M to 5.4M shots. The minimum passes, and the two N
    before it, the 1,024 N just below it and 2,048 evenly spaced N from 1
    up to it fail; q = 0.501 at p_ca 0.9 is scanned at every N."""
    q = 0.5 + side * gap
    if noisy:
        shifted, _ = _shifted(q, 0.5)
        got = n_ca_noisy_binomial_exact(q, 0.5, p_ca, P_ERROR)
    else:
        shifted, got = q, n_ca_binomial_exact(q, 0.5, p_ca)
    assert got > 400_000
    assert correct_side_probabilities(got, shifted, 0.5) >= p_ca
    below = np.unique(np.concatenate([
        [got - 1, got - 2],
        np.arange(got - 1024, got),
        np.linspace(1, got - 1, 2048).astype(int),
    ]))
    assert np.all(correct_side_probabilities(below, shifted, 0.5) < p_ca)
    if (gap, p_ca, side, noisy) == (1e-3, 0.9, 1, False):
        assert got == exhaustive_ca_shots(q, 0.5, p_ca) == 410_593


# every proportion 0.01 .. 0.99 but 1/2
HALF_GRID = [k / 100 for k in range(1, 100) if k != 50]


@pytest.mark.parametrize("p_ca", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("noisy", [False, True])
def test_bisection_at_one_half_equals_exhaustive_scan(p_ca, noisy):
    """At mu = 1/2 the search bisects over odd N; its result is the scan's
    minimum, odd, and the odd N before it fails."""
    for q in HALF_GRID:
        if noisy:
            shifted, _ = _shifted(q, 0.5)
            got = n_ca_noisy_binomial_exact(q, 0.5, p_ca, P_ERROR)
        else:
            shifted, got = q, n_ca_binomial_exact(q, 0.5, p_ca)
        assert got == exhaustive_ca_shots(shifted, 0.5, p_ca), q
        assert got % 2 == 1
        assert got == 1 or ca_condition_probability(got - 2, shifted, 0.5) < p_ca


@pytest.mark.parametrize("q", [0.5 + 1e-12, 0.5 - 1e-12])
def test_bisection_at_one_half_stops_at_the_search_cap(q):
    with pytest.raises(RuntimeError, match="no N <= "):
        n_ca_binomial_exact(q, 0.5, 0.99)


def test_fidelity_search_is_tight_for_tiny_probabilities():
    """At mu = 0 the search bisects over all N, and its minimum is within
    one of the closed form even where it is in the billions."""
    q, p_ca = 1e-9, 0.99
    got = n_ca_binomial_exact(q, 0.0, p_ca)
    expected = math.ceil(math.log(1.0 - p_ca) / math.log1p(-q))
    assert abs(got - expected) <= 1
    assert ca_condition_probability(got, q, 0.0) >= p_ca
    assert ca_condition_probability(got - 1, q, 0.0) < p_ca


def test_fidelity_search_at_one_in_a_trillion():
    """q = 1e-12 needs trillions of shots; the bisection finds the minimum
    in under a hundred evaluations."""
    got = n_ca_binomial_exact(1e-12, 0.0, 0.99)
    assert got == 4_605_170_185_986
    assert ca_condition_probability(got, 1e-12, 0.0) >= 0.99
    assert ca_condition_probability(got - 1, 1e-12, 0.0) < 0.99


def test_first_success_bound_is_minimal_for_tiny_probabilities():
    """ln(1 - q) loses digits for tiny q; the bound must still be the
    smallest N with 1 - (1 - q)^N >= p_ca."""
    rng = np.random.default_rng(5)
    for q in 10 ** rng.uniform(-11, -6, size=300):
        n = int(n_ca_fq(q, 0.99))
        assert -math.expm1(n * math.log1p(-q)) >= 0.99
        assert -math.expm1((n - 1) * math.log1p(-q)) < 0.99


def test_first_success_bound_finishes_beyond_exact_integers():
    """For q below about 5e-16 the count passes 2**53, where floats no
    longer hold every integer; the bound must still end, at the smallest
    float count that reaches p_ca in float arithmetic, and be inf only past
    the float range."""
    rng = np.random.default_rng(6)
    for p_ca in (0.6, 0.99):
        for q in 10 ** rng.uniform(-20, -15, size=300):
            n = float(n_ca_fq(q, p_ca))
            step = max(1.0, float(np.spacing(n)))
            assert -np.expm1(n * np.log1p(-q)) >= p_ca
            assert -np.expm1((n - step) * np.log1p(-q)) < p_ca
    assert n_ca_fq(1e-33, 0.99) == pytest.approx(-math.log(0.01) * 1e33, rel=1e-12)
    assert math.isinf(n_ca_fq(1e-310, 0.99))


@pytest.mark.parametrize("n", [10**20, 2**64, 2**63, 2**50, 12345])
@pytest.mark.parametrize("q, mu", [(0.3, 0.5), (0.7, 0.5), (1e-3, 0.0), (0.5 - 1e-9, 0.5)])
def test_condition_probability_takes_python_ints_past_int64(n, q, mu):
    """A Python int N is read as the float64 N: the same probability, in
    [0, 1], also where N no longer fits an int64."""
    got = ca_condition_probability(n, q, mu)
    assert got == ca_condition_probability(float(n), q, mu)
    assert 0.0 <= got <= 1.0


@pytest.mark.parametrize("n", [10**17, 10**18])
@pytest.mark.parametrize("side", [-1, 1])
def test_condition_probability_past_1e17_matches_normal_approximation(n, side):
    """At N = 1e17 and 1e18 a proportion 1e-9 from 1/2 lands on the correct
    side with probability Phi(1e-9 sqrt(N) / (1/2)), 0.736 and 0.977; the
    binomial is then normal to far better than the tolerance."""
    q = 0.5 + side * 1e-9
    expected = float(ndtr(1e-9 * math.sqrt(n) / math.sqrt(q * (1.0 - q))))
    assert ca_condition_probability(n, q, 0.5) == pytest.approx(expected, abs=1e-6)
