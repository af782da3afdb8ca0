"""Property tests: the factor-sieve fast paths against their pointwise routes."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from primroot.arith import (
    euler_phi,
    factorize,
    mobius,
    omega,
    omega_mobius_tables,
    phi_table,
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
