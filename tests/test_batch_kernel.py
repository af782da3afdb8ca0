"""The batch root-classification kernel against the scalar routes it replaces."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primroot import _kernel, arith, surveys
from primroot._kernel import (
    BATCH_PRIME_LIMIT,
    _batch_primes,
    _fermat_quotient_batch,
    _half_power_p2,
    _int_mod,
    _mul_mod_p2_batch,
    _pow_mod_batch,
)
from primroot.arith import factorize, is_prime, primes_upto
from primroot.errors import ContractError
from primroot.roots import RootClass, _classify_unit, classify, least_roots
from primroot.surveys import SurveyRow, _survey_block, fixed_g_density, stationary_survey

# the two largest primes below 2**31, where products come closest to 2**62
TOP_PRIMES = (2147483647, 2147483629)
SMALL_PRIMES = [p for p in primes_upto(5000) if p > 2]

odd_primes = st.one_of(st.sampled_from(SMALL_PRIMES), st.sampled_from(TOP_PRIMES))


def block(primes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A _survey_block block (p, bounds, q), with the primes of each p - 1 from factorize."""
    qs = [[q for q, _ in factorize(p - 1).factors] for p in primes]
    bounds = np.cumsum([0] + [len(f) for f in qs])
    return np.array(primes, dtype=np.int64), bounds, np.array([q for f in qs for q in f], dtype=np.int64)


def survey_row(p: int, z: int) -> SurveyRow:
    """One survey row by the scalar route: classify each g in [2, 2z], then least_roots(p)."""
    counts = Counter(classify(g, p) for g in range(2, 2 * z + 1))
    n_s, n_n = counts[RootClass.STATIONARY], counts[RootClass.NONSTATIONARY]
    r = least_roots(p)
    return SurveyRow(p=p, z=z, n_pr=n_s + n_n, n_s=n_s, n_n=n_n, g=r.g, h=r.h, gs=r.gs)


def fermat_quotient(a: int, p: int) -> int:
    return (pow(a, p - 1, p * p) - 1) // p % p


def test_top_primes_are_the_kernel_extremes():
    assert all(is_prime(p) for p in TOP_PRIMES)
    assert max(TOP_PRIMES) == BATCH_PRIME_LIMIT - 1


@settings(max_examples=60, deadline=None)
@given(p=odd_primes, a=st.integers(1, 2**62), b=st.integers(1, 2**62))
@example(p=3, a=2, b=5)
def test_fermat_quotient_is_additive(p, a, b):
    a, b = a % (p * p) or 1, b % (p * p) or 1
    if a % p == 0 or b % p == 0:
        a, b = a + (a % p == 0), b + (b % p == 0)
    want = (fermat_quotient(a, p) + fermat_quotient(b, p)) % p
    assert fermat_quotient(a * b, p) == want
    got = _fermat_quotient_batch(np.array([a, b, a * b % (p * p)]), p)
    assert (int(got[0]) + int(got[1])) % p == int(got[2]) == want


@settings(max_examples=40, deadline=None)
@given(
    p=odd_primes,
    data=st.lists(st.tuples(st.integers(0, 2**62), st.integers(0, 2**40)), min_size=1, max_size=30),
)
@example(p=2147483647, data=[(2147483646, 2147483646), (2, 2147483645), (0, 0), (1, 5)])
@example(p=2147483629, data=[(2147483628, 2147483628), (3, 1073741814)])
def test_kernel_pow_and_fermat_quotient_match_python(p, data):
    base = np.array([b % p for b, _ in data], dtype=np.int64)
    exp = np.array([e for _, e in data], dtype=np.int64)
    assert _pow_mod_batch(base, exp, p).tolist() == [pow(int(b), int(e), p) for b, e in zip(base, exp)]
    units = [b % (p * p) for b, _ in data if b % p]
    if units:
        got = _fermat_quotient_batch(np.array(units, dtype=np.int64), p).tolist()
        assert got == [fermat_quotient(a, p) for a in units]


@pytest.mark.parametrize("p", TOP_PRIMES)
def test_mul_mod_p2_at_the_largest_kernel_primes(p):
    # every digit p - 1 puts the high digit's sum at its bound (p-1)(2p-1) < 2**63
    top = p - 1
    digits = [
        (top, top, top, top), (top, top, 0, top), (0, top, top, top),
        (top, 0, top, 0), (top, 1, 1, top), (0, 0, top, top),
    ]
    a1, a0, b1, b0 = (np.array(d, dtype=np.int64) for d in zip(*digits))
    hi, lo = _mul_mod_p2_batch(a1, a0, b1, b0, p)
    want = [divmod((x1 * p + x0) * (y1 * p + y0) % (p * p), p) for x1, x0, y1, y0 in digits]
    assert list(zip(hi.tolist(), lo.tolist())) == want


@settings(max_examples=60, deadline=None)
@given(p=odd_primes, data=st.lists(st.integers(0, 2**62), min_size=1, max_size=30))
@example(p=3, data=[0, 1, 2, 3, 8])
@example(p=2147483647, data=[2147483646, 2147483647**2 - 1, 2147483648])
def test_half_power_p2_matches_python_and_euler(p, data):
    a = [x % (p * p) for x in data]
    hi, lo = _half_power_p2(np.array(a, dtype=np.int64), p)
    e = (p - 1) // 2
    assert [h * p + lo_ for h, lo_ in zip(hi.tolist(), lo.tolist())] == [pow(x, e, p * p) for x in a]
    assert lo.tolist() == [pow(x, e, p) for x in a]  # Euler's criterion: 1, p - 1, or 0 where p | a


def test_kernel_refuses_primes_outside_its_domain():
    assert _batch_primes(TOP_PRIMES).dtype == np.int64
    with pytest.raises(ContractError, match="2\\*\\*31"):
        _batch_primes([3, BATCH_PRIME_LIMIT + 11])


@pytest.mark.parametrize("gmax", [2, 3, 4, 48, 49, 50, 2209, 3000])
def test_g_levels_order_the_composites_by_their_least_prime(gmax):
    # 49 = 7^2 and 2209 = 47^2 sit on the isqrt(gmax) cut-off of the marking primes
    spf, ell, levels = _kernel._g_levels.__wrapped__(gmax)
    assert ell.tolist() == primes_upto(gmax)
    level_of = {}
    for i, level in enumerate(levels):
        for n in level.tolist():
            assert n not in level_of, n
            level_of[n] = i
    assert sorted(level_of) == [n for n in range(4, gmax + 1) if not is_prime(n)]
    for n in range(2, gmax + 1):
        assert spf[n] == factorize(n).factors[0][0], n
    for n, i in level_of.items():
        for part in (int(spf[n]), n // int(spf[n])):
            assert is_prime(part) or level_of[part] < i, (n, part)


@settings(max_examples=30, deadline=None)
@given(x=st.integers(2, 3000), z=st.integers(2, 60))
@example(x=2, z=2)  # p = 3 with 2z = 4 < 9
@example(x=3, z=12)  # p = 3, 5 divide some g <= 2z
@example(x=5, z=12)
@example(x=30, z=200)  # p <= 2z for every p in the window
def test_survey_blocks_equal_survey_row(x, z):
    try:
        rep = stationary_survey(x, z)
    except ContractError:  # 2z reaches p^2 at the window's smallest prime
        return
    assert list(rep.rows) == [survey_row(r.p, z) for r in rep.rows]


def test_survey_block_at_the_largest_kernel_primes():
    assert _survey_block(block(TOP_PRIMES), 100) == [survey_row(p, 100) for p in TOP_PRIMES]


@pytest.mark.parametrize("primes, z", [((1009, 1013, 2147483647), 300), ((5, 7, 11), 12)])
def test_survey_block_in_small_chunks(monkeypatch, primes, z):
    # one (p, q) pair per Lucas table and 7 columns per numpy pass
    monkeypatch.setattr(_kernel, "KERNEL_CELLS", 7)
    assert _survey_block(block(primes), z) == [survey_row(p, z) for p in primes]


@pytest.fixture
def scanned(monkeypatch):
    """The primes whose least roots _survey_block takes from the scalar scan."""
    primes = []

    def spy(p, qs, _fn=surveys._least_roots):
        primes.append(p)
        return _fn(p, qs)

    monkeypatch.setattr(surveys, "_least_roots", spy)
    return primes


@pytest.mark.parametrize("p, z", [(40487, 4), (41, 2)])
def test_survey_block_scans_a_prime_whose_least_roots_pass_2z(scanned, p, z):
    # 40487: g = 5 <= 2z but h = 10 is not; 41: g = 6 > 2z already
    assert _survey_block(block((p,)), z) == [survey_row(p, z)]
    assert scanned == [p]


def test_survey_reads_every_least_root_off_the_kernel_at_the_benchmark_size(scanned):
    rep = stationary_survey(10**4, 100)
    assert scanned == []
    assert max(r.h for r in rep.rows) <= 200


@settings(max_examples=40, deadline=None)
@given(n=st.integers(-(2**200), 2**200))
@example(n=-3)
@example(n=2**31)
def test_int_mod_matches_python(n):
    p = np.array([3, 5, 65537] + list(TOP_PRIMES), dtype=np.int64)
    assert _int_mod(n, p).tolist() == [n % int(q) for q in p]


def test_fixed_g_density_past_a_block_with_no_prime():
    # the second segment of [3, x] starts at 3 + 2**19 = 29 * 101 * 179; the next prime is 2**19 + 21
    x = 3 + arith.DEFAULT_SEGMENT_SIZE + 1
    assert not any(is_prime(n) for n in range(3 + arith.DEFAULT_SEGMENT_SIZE, x + 1))
    hits = 0
    primes = primes_upto(x)
    for p in primes[1:]:
        qs = [q for q, _ in factorize(p - 1).factors]
        hits += _classify_unit(2, p, qs) is RootClass.STATIONARY
    rep = fixed_g_density(2, x)
    assert (rep.stationary_count, rep.prime_count) == (hits, len(primes))


@pytest.mark.parametrize("g", [2, -3, 8])
def test_fixed_g_density_in_small_passes(monkeypatch, g):
    # 7 cells a pass over segments of 64: no Lucas or Fermat-quotient pass
    # spans more, and the count is unchanged.  -3 and 8 classify g mod p, as
    # the classify loop of test_fixed_g_density_equals_classify_loop does, so
    # 8 counts p = 3 although 8**2 = 1 mod 9
    x = 3000
    primes = primes_upto(x)
    hits = sum(1 for p in primes[1:] if g % p and classify(g % p, p) is RootClass.STATIONARY)
    want = fixed_g_density(g, x)
    assert (want.stationary_count, want.prime_count) == (hits, len(primes))
    widths = []
    for name in ("_pow_mod_batch", "_fermat_quotient_batch"):
        def spy(a, *rest, _fn=getattr(_kernel, name)):
            widths.append(len(a))
            return _fn(a, *rest)

        monkeypatch.setattr(_kernel, name, spy)
    monkeypatch.setattr(_kernel, "KERNEL_CELLS", 7)
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT_SIZE", 64)
    assert fixed_g_density(g, x) == want
    assert max(widths) == 7
