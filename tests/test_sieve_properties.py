"""Property tests: the factor-sieve fast paths against their pointwise routes."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mobius, naive_is_prime
from primroot import arith
from primroot.arith import (
    DEFAULT_MAX_SPAN,
    euler_phi,
    factorize,
    first_primes,
    prime_windows,
    primes_in_range,
    primes_upto,
)
from primroot.errors import ResourceLimitError
from primroot.roots import RootClass, classify
from primroot.surveys import fixed_g_density

# g = 0, +-1 and perfect squares are excluded by fixed_g_density
non_square_g = st.integers(-10**6, 10**6).filter(
    lambda g: g not in (-1, 0, 1) and not (g > 1 and math.isqrt(g) ** 2 == g)
)


@settings(max_examples=25, deadline=None)
@given(g=non_square_g, x=st.integers(3, 30_000))
@example(g=-3, x=30_000)
@example(g=2, x=3)
def test_fixed_g_density_equals_classify_loop(g, x):
    primes = primes_upto(x)
    hits = sum(
        1
        for p in primes[1:]
        if g % p and classify(g % p, p) is RootClass.STATIONARY
    )
    rep = fixed_g_density(g, x)
    assert (rep.stationary_count, rep.prime_count) == (hits, len(primes))
    assert rep.fraction == hits / len(primes)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 30_000), picks=st.lists(st.integers(0, 30_000), max_size=40))
@example(n=2209, picks=[2209, 2208, 2162, 47 * 43, 46 * 47])
def test_table_entries_equal_factorize(n, picks):
    (_, _, marks, big, _), = arith._segments(0, n)  # one segment at the default size
    phi = arith._phi_segment(marks, big)
    w, mu = arith._omega_mobius_segment(marks, big)
    for m in {pick % (n + 1) for pick in picks} - {0}:
        f = factorize(m)
        assert phi[m] == euler_phi(f)
        assert w[m] == len(f.factors)
        assert mu[m] == mobius(f.factors)


# hi at q^2 - 1, q^2 or q^2 + 1 for a prime q: where isqrt(hi) steps past q
square_edges = st.sampled_from(primes_upto(173)).flatmap(
    lambda q: st.sampled_from([q * q - 1, q * q, q * q + 1])
)


@pytest.mark.parametrize("seg", [64, 97])
@settings(max_examples=40, deadline=None)
@given(lo=st.integers(2, 30_000), hi=st.one_of(st.integers(2, 30_000), square_edges))
@example(lo=2, hi=49)
@example(lo=48, hi=49)
@example(lo=3, hi=3)
@example(lo=2**31, hi=2**31)  # a segment of m = p - 1 starting at 2**31 - 1
@example(lo=2**31 - 1, hi=2**31)
def test_window_primes_of_p_minus_1_equal_factorize(seg, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "DEFAULT_SEGMENT_SIZE", seg)
        window = list(prime_windows(lo, hi))
    primes = [p for p in primes_in_range(lo, hi) if p % 2]
    assert [int(p) for seg_p, _, _ in window for p in seg_p] == primes
    got = [[] for _ in primes]
    start = 0
    for seg_p, owner, q in window:
        for i, qi in zip(owner.tolist(), q.tolist()):
            got[start + i].append(qi)
        start += len(seg_p)
    assert got == [[q for q, _ in factorize(p - 1).factors] for p in primes]


CROSSOVER = arith._SIEVE_CROSSOVER


def assert_primes_upto(n, primes):
    """primes is every prime <= n: the segmented sieve's list, and trial division
    agrees on the last 2,000 integers, where an off-by-one at n would show."""
    assert primes == primes_in_range(2, n)
    tail = range(max(n - 2000, 0), n + 1)
    assert [p for p in primes if p >= tail.start] == [m for m in tail if naive_is_prime(m)]


def test_primes_upto_agrees_on_both_sides_of_the_crossover():
    rng = random.Random(13)
    below = [rng.randrange(2, CROSSOVER) for _ in range(3)]
    above = [rng.randrange(CROSSOVER, 3 * CROSSOVER) for _ in range(3)]
    for n in [CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, *below, *above]:
        assert_primes_upto(n, primes_upto(n))


def first_primes_bound(count: int) -> int:
    """The n that first_primes(count) asks primes_upto for first."""

    class Asked(Exception):
        pass

    def spy(n):
        raise Asked(n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "primes_upto", spy)
        with pytest.raises(Asked) as asked:
            first_primes(count)
    return asked.value.args[0]


def test_first_primes_agrees_where_its_bound_crosses_over():
    lo, hi = 6, CROSSOVER  # the least count whose bound reaches the crossover is in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if first_primes_bound(mid) >= CROSSOVER else (mid, hi)
    assert first_primes_bound(lo) < CROSSOVER <= first_primes_bound(hi)
    for count in (lo, hi):
        primes = first_primes(count)
        assert len(primes) == count
        assert_primes_upto(primes[-1], primes)


def test_primes_upto_keeps_the_span_guard():
    assert primes_upto(1) == []
    with pytest.raises(ResourceLimitError, match="exceeds budget"):
        primes_upto(DEFAULT_MAX_SPAN + 3)
