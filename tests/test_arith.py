import math
import random

import numpy as np
import pytest

from conftest import naive_is_prime, naive_primes
from primroot import arith
from primroot.arith import (
    TABLE_BUDGET_BYTES,
    euler_phi,
    factorization_times_prime,
    factorize,
    first_primes,
    is_prime,
    is_prime_info,
    mobius,
    omega,
    primes_in_range,
    primes_upto,
    spf_table,
)
from primroot.errors import ContractError, ResourceLimitError

CARMICHAELS = (561, 1105, 1729, 41041, 512461)
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051)


def test_is_prime_catalogued_primes():
    assert is_prime(40487)
    assert is_prime(6692367337)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(40487 * 40487)


def test_is_prime_matches_trial_division():
    for n in range(10**4):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_hard_composites():
    for n in CARMICHAELS + STRONG_PSEUDOPRIMES:
        assert not is_prime(n)


def test_is_prime_near_word_size():
    assert is_prime(18446744073709551557)  # largest prime below 2^64
    assert not is_prime(2**64 - 1)
    info = is_prime_info(18446744073709551557)
    assert info.deterministic


def test_is_prime_above_certificate_bound():
    m89 = 2**89 - 1  # Mersenne prime
    info = is_prime_info(m89)
    assert info.probably_prime
    assert not info.deterministic
    assert info.rounds > 12
    assert not is_prime(m89 + 2)


def test_primes_in_range_examples():
    assert primes_in_range(2, 10) == [2, 3, 5, 7]
    # trial division finds exactly 40483 and 40487 in this window
    assert primes_in_range(40480, 40490) == [n for n in range(40480, 40491) if naive_is_prime(n)]
    assert 40487 in primes_in_range(40480, 40490)
    window = primes_in_range(10**6, 10**6 + 100)
    assert window == [n for n in range(10**6, 10**6 + 101) if naive_is_prime(n)]


@pytest.mark.parametrize("seg", [64, 97, 1024])
def test_primes_in_range_segment_boundaries(monkeypatch, seg):
    want = [n for n in range(900, 1201) if naive_is_prime(n)]
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT_SIZE", seg)
    assert primes_in_range(900, 1200) == want
    assert primes_in_range(2, 1000) == naive_primes(1000)


def test_primes_in_range_guards():
    with pytest.raises(ContractError):
        primes_in_range(10, 5)
    with pytest.raises(ResourceLimitError):
        primes_in_range(0, 10**12)


def test_primes_upto_complete():
    assert primes_upto(10**5) == naive_primes(10**5)


def test_first_primes():
    assert first_primes(5) == [2, 3, 5, 7, 11]
    ps = first_primes(10**4)
    assert len(ps) == 10**4
    assert ps[-1] == 104729


def test_small_primes_equal_the_numpy_sieve():
    # factorize's trial-division list is built without numpy
    assert arith._SMALL_PRIMES == primes_in_range(2, arith._TRIAL_BOUND)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 1000, 46341])
def test_sieve_flags_match_trial_division(n):
    assert list(arith._sieve(n)) == [int(naive_is_prime(i)) for i in range(n + 1)]


def window_primes(lo, hi):
    """The odd primes of [lo, hi] as prime_windows lists them."""
    return [int(p) for ps, _, _ in arith.prime_windows(lo, hi) for p in ps]


@pytest.mark.parametrize("walk", [primes_in_range, window_primes])
def test_base_primes_keep_the_table_budget(walk):
    # a walk to 2**60 needs flags for the 2**30 integers up to its square
    # root, over the budget: refused before the sieve runs
    def no_sieve(n):
        raise AssertionError(f"sieved up to {n}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_sieve", no_sieve)
        with pytest.raises(ResourceLimitError, match="budget"):
            walk(2**60, 2**60 + 10)
    lo = 10**12
    assert walk(lo, lo + 1000) == [m for m in range(lo, lo + 1001) if is_prime(m)]


def test_factorize_examples():
    assert factorize(40486).factors == ((2, 1), (31, 1), (653, 1))
    assert factorize(1).factors == ()
    assert factorize(1639197169).factors == ((40487, 2),)


def test_factorize_structure():
    f = factorize(2**10 * 3**5 * 101)
    assert f.factors == ((2, 10), (3, 5), (101, 1))
    primes = [p for p, _ in f.factors]
    assert primes == sorted(primes)
    assert all(is_prime(p) for p in primes)


def test_factorize_recomposes_random():
    rng = random.Random(12)
    for _ in range(100000):
        n = rng.randrange(1, 10**18)
        f = factorize(n)
        assert f.recompose() == n
        assert all(is_prime(p) for p, _ in f.factors)


def test_factorize_recompose_check_raises(monkeypatch):
    # the recompose check is a raise, not an assert, so it holds under python -O
    monkeypatch.setattr(arith, "_brent_rho", lambda n: 2)
    with pytest.raises(ArithmeticError):
        factorize(1000003 * 999983)


def test_factorize_deterministic():
    semiprime = 1000003 * 999983
    assert factorize(semiprime).factors == factorize(semiprime).factors


def test_factorization_times_prime():
    f = factorize(40486)
    g = factorization_times_prime(f, 40487)
    assert g.n == 40486 * 40487
    assert g.factors == ((2, 1), (31, 1), (653, 1), (40487, 1))
    assert factorization_times_prime(f, 2, 2).factors[0] == (2, 3)


def test_euler_phi():
    assert euler_phi(factorize(1)) == 1
    assert euler_phi(factorize(41)) == 40
    assert euler_phi(factorize(40487 * 40487)) == 40487 * 40486


def test_phi_of_prime_powers():
    for p in primes_upto(1000):
        if p == 2:
            continue
        for k in range(1, 5):
            phi_pk = euler_phi(factorize(p**k))
            assert phi_pk == p ** (k - 1) * (p - 1)
            assert euler_phi(factorize(2 * p**k)) == phi_pk


def test_omega_mobius():
    assert omega(factorize(40486)) == 3
    assert mobius(factorize(1)) == 1
    assert mobius(factorize(12)) == 0
    assert mobius(factorize(30)) == -1
    assert mobius(factorize(6)) == 1


def segment_values(n):
    """phi, omega and mu of every 0 <= m <= n from the segment helpers, over _segments(0, n)."""
    phi, w, mu = [], [], []
    for _, _, marks, big in arith._segments(0, n):
        phi += arith._phi_segment(marks, big).tolist()
        w_seg, mu_seg = arith._omega_mobius_segment(marks, big)
        w += w_seg.tolist()
        mu += mu_seg.tolist()
    return phi, w, mu


@pytest.mark.parametrize("seg", [None, 64])
def test_tables_match_pointwise_functions(monkeypatch, seg):
    # 2209 = 47^2 sits on the isqrt(n) cut-off; 3000 leaves many m with one
    # prime factor above isqrt(n) for the cofactor fix-up
    if seg:
        monkeypatch.setattr(arith, "DEFAULT_SEGMENT_SIZE", seg)
    for n in (1, 2, 3, 4, 2209, 3000):
        phi, w, mu = segment_values(n)
        spf = spf_table(n)
        assert len(phi) == len(w) == len(mu) == len(spf) == n + 1
        assert (phi[0], w[0], spf[0]) == (0, 0, 0)
        for m in range(1, n + 1):
            f = factorize(m)
            assert phi[m] == euler_phi(f), (n, m)
            assert w[m] == omega(f), (n, m)
            assert mu[m] == mobius(f), (n, m)
            assert spf[m] == (f.factors[0][0] if f.factors else 0), (n, m)


def test_table_dtypes_are_narrow():
    (_, _, marks, big), = arith._segments(0, 100)
    w, mu = arith._omega_mobius_segment(marks, big)
    assert w.dtype == mu.dtype == np.int8
    assert arith._phi_segment(marks, big).dtype == spf_table(100).dtype == np.int32


@pytest.mark.parametrize("table", [spf_table])
def test_tables_refuse_sizes_over_budget(table):
    # refused before any allocation, so this allocates nothing
    with pytest.raises(ResourceLimitError, match="budget"):
        table(TABLE_BUDGET_BYTES)
    with pytest.raises(ContractError):
        table(-1)
