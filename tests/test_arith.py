import math
import os
import random
import subprocess
import sys
import time
import weakref
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import mobius, naive_factorize, naive_is_prime, naive_primes
from primroot import arith
from primroot.arith import (
    EXTRA_MR_ROUNDS,
    euler_phi,
    factorization_times_prime,
    factorize,
    first_primes,
    is_prime,
    is_prime_info,
    primes_in_range,
    primes_upto,
)
from primroot.errors import ContractError, ResourceLimitError

CARMICHAELS = (561, 1105, 1729, 41041, 512461)
# psi_t of OEIS A014233: the least odd n > 1 that is a strong pseudoprime to
# each of the first t prime bases, t = 1..13
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
STRONG_PSEUDOPRIMES = tuple(sorted(set(PSI)))
FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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
    # psi_12 passes all twelve bases 2..37, the whole witness list before base 41
    assert PSI_12 == 399165290221 * 798330580441
    for n in CARMICHAELS + STRONG_PSEUDOPRIMES:
        info = is_prime_info(n)
        assert not info.probably_prime, n
        assert info.deterministic, n


def test_is_prime_near_word_size():
    assert is_prime(18446744073709551557)  # largest prime below 2^64
    assert not is_prime(2**64 - 1)
    info = is_prime_info(18446744073709551557)
    assert info.deterministic
    assert info.rounds == 12  # psi_11 < n < psi_12


def free_of_bases(n, step):
    """The first of n, n + step, n + 2 * step, ... that none of the 13 bases divides."""
    while any(n % p == 0 for p in FIRST_13_PRIMES):
        n += step
    return n


# (start, step, the bases its size needs) on both sides of tier boundaries:
# the n tested is free_of_bases(start, step), so no division settles it
TIER_ROUNDS = [
    (2047 - 2, -2, 1),
    (2047 + 2, 2, 2),
    (PSI[4] - 2, -2, 5),
    (PSI[4], 2, 6),
    (PSI[4] + 2, 2, 6),
    (PSI[6] - 2, -2, 7),
    (PSI[6], 2, 9),  # psi_7 == psi_8: the tier skips 8
    (PSI[8] - 2, -2, 9),
    (PSI[8] + 2, 2, 12),  # psi_9 == psi_10 == psi_11
    (PSI_12 - 2, -2, 12),
    (PSI_12, 2, 13),
    (PSI_12 + 2, 2, 13),
    (PSI[-1] - 2, -2, 13),
]


@pytest.mark.parametrize("start,step,tier", TIER_ROUNDS)
def test_rounds_equal_the_tier(start, step, tier):
    n = free_of_bases(start, step)
    assert abs(n - start) < 100
    info = is_prime_info(n)
    assert info.rounds == tier
    assert info.deterministic


def sprp(n, a):
    """n is a strong probable prime to base a (odd n > a)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def all_13_bases(n):
    """The verdict of every one of the 13 bases, whatever n's size."""
    if n < 2:
        return False
    if any(n % p == 0 for p in FIRST_13_PRIMES):
        return n in FIRST_13_PRIMES
    return all(sprp(n, a) for a in FIRST_13_PRIMES)


# each tier's range [psi_(t-1), psi_t), the empty ones left out
TIER_RANGES = [(lo, hi) for lo, hi in zip((3,) + PSI, PSI) if lo < hi]


@st.composite
def tier_inputs(draw):
    """An n from one tier's range, moved up to the next odd n free of the 13
    bases that base 2 cannot witness composite: a prime or a hard composite.
    A draw that the move takes out of its range is rejected."""
    lo, hi = draw(st.sampled_from(TIER_RANGES))
    n = free_of_bases(draw(st.integers(lo, hi - 1)) | 1, 2)
    while not sprp(n, 2):
        n = free_of_bases(n + 2, 2)
    assume(n < hi)
    return n


@settings(max_examples=200, deadline=None)
@given(tier_inputs())
@example(PSI[4])
@example(PSI[8])
@example(PSI_12)
def test_tiered_verdict_equals_all_13_bases(n):
    assert is_prime(n) == all_13_bases(n)


def test_is_prime_above_certificate_bound():
    m89 = 2**89 - 1  # Mersenne prime
    info = is_prime_info(m89)
    assert info.probably_prime
    assert not info.deterministic
    assert info.rounds == 13 + EXTRA_MR_ROUNDS
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


def test_first_primes_bound_covers_every_count(monkeypatch):
    # Rosser (1941): p_n < n (ln n + ln ln n) for n >= 6, so the one sieve
    # that first_primes asks for holds the first `count` primes
    primes = primes_upto(300_000)
    asked = []

    def upto(n):
        asked.append(n)
        return primes[: bisect_right(primes, n)]

    monkeypatch.setattr(arith, "primes_upto", upto)
    for count in range(6, 20_001):
        assert first_primes(count) == primes[:count], count
    assert len(asked) == 20_000 - 5 and max(asked) <= primes[-1]


def test_budget_messages_give_a_long_count_by_its_digits():
    assert arith._count(10**20 - 1) == "99999999999999999999"
    for d in (21, 700, 5000):  # 5000 digits is past the int-to-str conversion limit
        assert arith._count(10 ** (d - 1)) == arith._count(10**d - 1) == f"a {d}-digit number of"


def test_budget_messages_count_a_power_by_its_logarithm():
    # past 10**20, p**e is never built; its digit count must equal the built number's.
    # (5, 8) and (5, 352) are the lift roots mod 5^(e+2) and their bytes
    for p, n in ((3, 1), (5, 8), (5, 352), (1009, 1008 * 288), (2147483647, 7)):
        for e in (1, 5, 40, 41, 299, 300, 1000):
            assert arith._count(n, p, e) == arith._count(n * p**e), (p, n, e)
    assert arith._count(8, 5, 10**7 - 1) == "a 6989701-digit number of"


def test_small_primes_equal_the_numpy_sieve():
    # factorize's trial-division list is built without numpy
    assert arith._SMALL_PRIMES == primes_in_range(2, arith._TRIAL_BOUND)
    # factorize takes a cofactor below the square of the next prime as prime
    assert arith._PRIME_BELOW == primes_in_range(arith._TRIAL_BOUND + 1, 2 * arith._TRIAL_BOUND)[0] ** 2


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


def test_a_walk_whose_base_primes_pass_the_budget_is_refused_unsieved(monkeypatch):
    # isqrt(2**60 - 2) = 2**30 - 1: the flags alone fit the 2**30-byte budget,
    # but not with the crossing-off temporary and the base primes' marks
    def no_sieve(n):
        raise AssertionError(f"sieved up to {n}")

    monkeypatch.setattr(arith, "_sieve", no_sieve)
    refused = r"^the base primes up to 1073741823 and their flags need \d+ bytes"
    with pytest.raises(ResourceLimitError, match=refused):
        primes_in_range(2**60 - 12, 2**60 - 2)
    assert math.isqrt(2**60 - 2) + 1 <= arith.TABLE_BUDGET_BYTES


WALK_RSS = """
import resource, sys
import numpy
from primroot import arith
lo = 10**13
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.argv[1] == "range":
    arith.primes_in_range(lo, lo + 1000)
else:
    for _ in arith.prime_windows(lo, lo + 1000):
        pass
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024)
"""


@pytest.mark.parametrize("walk, cofactors", [("range", False), ("windows", True)])
def test_a_walk_stays_inside_its_charge(walk, cofactors):
    # in a fresh interpreter with numpy loaded, the peak RSS that a walk over
    # m in [1e13 - 1, 1e13 + 999] adds stays below what _segments charged for
    # it (ru_maxrss counts KiB on Linux).  Linux carries ru_maxrss across
    # execve from the process that execs, so a small interpreter in between
    # keeps this test process's own peak out of the reading.
    env = {**os.environ, "PYTHONPATH": str(Path(arith.__file__).parents[1])}
    relay = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", relay, sys.executable, "-c", WALK_RSS, walk],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    grown = int(done.stdout.split()[-1])
    charged = arith._walk_bytes(10**13 + 999, cofactors)
    assert 0 < grown < charged, (grown, charged)


def test_prime_windows_frees_each_segments_flags(monkeypatch):
    # once _window_segment returns, nothing of the walk holds that segment's prime flags
    flags = []
    window_segment = arith._window_segment

    def spy(start, size, marks, big, prime):
        flags.append(weakref.ref(prime))
        return window_segment(start, size, marks, big, prime)

    monkeypatch.setattr(arith, "_window_segment", spy)
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT_SIZE", 64)
    for _ in arith.prime_windows(3, 1000):
        assert flags[-1]() is None
    assert len(flags) == 16


def test_factorize_examples():
    assert factorize(40486).factors == ((2, 1), (31, 1), (653, 1))
    assert factorize(1).factors == ()
    assert factorize(1639197169).factors == ((40487, 2),)


@pytest.mark.parametrize(
    "n",
    [997**3 * 1009, 991 * 997 * 1009**2, 1009**2, 1, 2**60, 1018057],
    ids=["997^3*1009", "991*997*1009^2", "1009^2", "1", "2^60", "prime-below-1009^2"],
)
def test_factorize_at_the_trial_bound(n):
    # 997 is the largest trial prime and 1009 the least prime above the bound
    assert factorize(n).factors == naive_factorize(n)


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


def test_brent_rho_gives_up_past_its_step_cap(monkeypatch):
    # two 20-digit primes: rho would need some 10**10 steps to split them
    n = 62547923166421707407 * 25564905056860924567
    monkeypatch.setattr(arith, "RHO_STEPS", 1 << 10)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="no factor of a 40-digit cofactor in 1024 steps"):
        factorize(n)
    assert time.perf_counter() - start < 0.1


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


def segment_values(n):
    """phi, omega and mu of every 0 <= m <= n from the segment helpers, over _segments(0, n)."""
    phi, w, mu = [], [], []
    for _, _, marks, big, _ in arith._segments(0, n):
        phi += arith._phi_segment(marks, big).tolist()
        w_seg, mu_seg = arith._omega_mobius_segment(marks, big)
        w += w_seg.tolist()
        mu += mu_seg.tolist()
    return phi, w, mu


def test_omega_mobius():
    # hand values, in the segment tables and in the reference mobius
    _, w, mu = segment_values(40486)
    assert w[40486] == 3
    assert [mu[m] for m in (1, 6, 12, 30)] == [1, 1, 0, -1]
    assert [mobius(factorize(m).factors) for m in (1, 6, 12, 30)] == [1, 1, 0, -1]


@pytest.mark.parametrize("seg", [None, 64])
def test_tables_match_pointwise_functions(monkeypatch, seg):
    # 2209 = 47^2 sits on the isqrt(n) cut-off; 3000 leaves many m with one
    # prime factor above isqrt(n) for the cofactor fix-up
    if seg:
        monkeypatch.setattr(arith, "DEFAULT_SEGMENT_SIZE", seg)
    for n in (1, 2, 3, 4, 2209, 3000):
        phi, w, mu = segment_values(n)
        assert len(phi) == len(w) == len(mu) == n + 1
        assert (phi[0], w[0]) == (0, 0)
        for m in range(1, n + 1):
            f = factorize(m)
            assert phi[m] == euler_phi(f), (n, m)
            assert w[m] == len(f.factors), (n, m)
            assert mu[m] == mobius(f.factors), (n, m)


def test_table_dtypes_are_narrow():
    (_, _, marks, big, _), = arith._segments(0, 100)
    w, mu = arith._omega_mobius_segment(marks, big)
    assert w.dtype == mu.dtype == np.int8
    assert arith._phi_segment(marks, big).dtype == np.int32
