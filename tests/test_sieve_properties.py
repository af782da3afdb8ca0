"""Property tests: the factor-sieve fast paths against their pointwise routes."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primroot import arith
from primroot.arith import (
    euler_phi,
    factorize,
    mobius,
    omega,
    omega_mobius_tables,
    phi_table,
    prime_windows,
    primes_in_range,
    primes_upto,
    spf_table,
)
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
    phi = phi_table(n)
    w, mu = omega_mobius_tables(n)
    spf = spf_table(n)
    for m in {pick % (n + 1) for pick in picks} - {0}:
        f = factorize(m)
        assert phi[m] == euler_phi(f)
        assert w[m] == omega(f)
        assert mu[m] == mobius(f)
        assert spf[m] == (f.factors[0][0] if f.factors else 0)


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
