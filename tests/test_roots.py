import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_is_primitive_root, naive_order
from primroot.arith import euler_phi, factorize, is_prime, primes_upto
from primroot.characters import psi_s_formula
from primroot.errors import ContractError, ResourceLimitError
from primroot.modmath import inv_mod
from primroot.roots import (
    SPEC_CACHE_SIZE,
    CyclicGroupSpec,
    RootClass,
    bad_lift_residue,
    classify,
    is_primitive_root,
    least_roots,
    lift_enumerate,
    lift_pair_check,
    stationary_propagation,
)
from primroot.surveys import period

ROOTS_41 = [6, 7, 11, 12, 13, 15, 17, 19, 22, 24, 26, 28, 29, 30, 34, 35]
ROOTS_43 = [3, 5, 12, 18, 19, 20, 26, 28, 29, 30, 33, 34]
ROOTS_43_SQ_BELOW_64 = [3, 5, 12, 18, 20, 26, 28, 29, 30, 33, 34, 46, 48, 55, 61, 62, 63]


def test_spec_validation():
    for bad in (1, 2, 4, 8, 12, 15, 100):
        with pytest.raises(ContractError):
            CyclicGroupSpec.for_modulus(bad)
    spec = CyclicGroupSpec.for_modulus(2 * 49)
    assert (spec.prime, spec.power, spec.doubled) == (7, 2, True)
    assert spec.group_order == 42
    assert CyclicGroupSpec.for_modulus(41).group_order == 40


def factorized_spec(n):
    """for_modulus by factoring n: the spec of p^k or 2p^k, or None where its unit group is not cyclic."""
    m, doubled = (n // 2, True) if n % 2 == 0 else (n, False)
    factors = factorize(m).factors
    if m % 2 == 0 or len(factors) != 1:
        return None
    p, k = factors[0]
    return CyclicGroupSpec.for_prime(p).raised(k, doubled)


def test_for_modulus_matches_factorization():
    for n in range(3, 5001):
        want = factorized_spec(n)
        if want is None:
            with pytest.raises(ContractError, match=f"^{n} does not have a cyclic unit group$"):
                CyclicGroupSpec.for_modulus(n)
        else:
            assert CyclicGroupSpec.for_modulus(n) == want, n


def test_for_modulus_finds_large_prime_powers_without_factoring(monkeypatch):
    import primroot.roots as roots_mod

    p = 2**61 - 1
    for k, doubled in ((1, False), (2, True), (3, False), (7, True)):
        spec = CyclicGroupSpec.for_modulus((2 if doubled else 1) * p**k)
        assert (spec.prime, spec.power, spec.doubled) == (p, k, doubled)
    for root, k in ((3, 40), (5, 3), (3**20 + 2, 5)):  # 3**20 + 2 = 5 * 697372691
        assert roots_mod._integer_root(root**k, k) == root
        assert roots_mod._integer_root(root**k - 1, k) == root - 1
    # a semiprime, a prime times a cube and an odd power of a composite are
    # refused with no factorization
    monkeypatch.setattr(roots_mod, "factorize", None)
    for n in (300000000000000001940000000000000002091, 3 * 5**21, 15**7, 2 * 9**11 * 7):
        with pytest.raises(ContractError, match="does not have a cyclic unit group"):
            CyclicGroupSpec.for_modulus(n)


def test_with_generator_finds_least():
    spec = CyclicGroupSpec.for_prime(41).with_generator()
    assert spec.generator == 6
    spec2 = CyclicGroupSpec.for_prime_power(43, 2).with_generator()
    assert spec2.generator == 3


def test_primitive_root_sets_match_tables():
    spec41 = CyclicGroupSpec.for_prime(41)
    assert [g for g in range(1, 42) if is_primitive_root(g, spec41)] == ROOTS_41
    spec43 = CyclicGroupSpec.for_prime(43)
    assert [g for g in range(1, 44) if is_primitive_root(g, spec43)] == ROOTS_43
    spec43sq = CyclicGroupSpec.for_prime_power(43, 2)
    assert [g for g in range(1, 64) if is_primitive_root(g, spec43sq)] == ROOTS_43_SQ_BELOW_64


def test_is_primitive_root_edges():
    assert not is_primitive_root(19, CyclicGroupSpec.for_prime_power(43, 2))
    for p in (5, 7, 41):
        assert not is_primitive_root(1, CyclicGroupSpec.for_prime(p))
        assert not is_primitive_root(p, CyclicGroupSpec.for_prime(p))
    assert not is_primitive_root(0, CyclicGroupSpec.for_prime(7))


def test_is_primitive_root_matches_naive():
    for n in (41, 43, 49, 343, 2 * 49, 2 * 27, 121):
        spec = CyclicGroupSpec.for_modulus(n)
        for g in range(1, n):
            assert is_primitive_root(g, spec) == naive_is_primitive_root(g, n)


@pytest.mark.parametrize(
    "lift_fn",
    [lambda g: bad_lift_residue(g, 43), lambda g: lift_pair_check(g, 43, 2)],
)
def test_lift_functions_refuse_non_roots_alike(lift_fn):
    # 1, 2 and 42 = -1 have orders 1, 14 and 2 mod 43
    for g in (1, 2, 42):
        with pytest.raises(ContractError, match=f"^{g} is not a primitive root mod 43$"):
            lift_fn(g)


def test_lift_criterion_equals_full_test():
    # for a root mod p: generating mod p^2 <=> g^(p-1) != 1 mod p^2
    rng = random.Random(13)
    for p in primes_upto(1000):
        if p == 2:
            continue
        spec_p = CyclicGroupSpec.for_prime(p)
        spec_p2 = CyclicGroupSpec.for_prime_power(p, 2)
        p2 = p * p
        cands = list(range(2, min(p2, 6 * p)))
        cands += [rng.randrange(2, p2) for _ in range(300)]
        for g in cands:
            full = is_primitive_root(g, spec_p2)
            short = is_primitive_root(g, spec_p) and pow(g, p - 1, p2) != 1
            assert full == short, (p, g)


def twice_prime_power(p, k):
    return CyclicGroupSpec.for_prime(p).raised(k, doubled=True)


def test_twice_prime_power_roots_examples():
    # cross-check against the plain order test on the 2p^k group
    for (g, p, k) in ((3, 7, 2), (5, 7, 2), (3, 7, 1)):
        want = naive_is_primitive_root(g, 2 * p**k)
        assert is_primitive_root(g, twice_prime_power(p, k)) == want
    assert is_primitive_root(40492, twice_prime_power(40487, 2)) is False  # even
    assert is_primitive_root(40492 + 40487**2, twice_prime_power(40487, 2)) is True


def test_twice_prime_power_roots_follow_the_lift_criterion():
    # g generates mod 2p^k iff g is odd and a root mod p that, for k >= 2, is stationary
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for k in range(1, 5):
            spec = twice_prime_power(p, k)
            lifting = {RootClass.STATIONARY} if k > 1 else {RootClass.STATIONARY, RootClass.NONSTATIONARY}
            for g in range(1, min(spec.modulus, 500)):
                want = g % 2 == 1 and classify(g, p) in lifting
                assert is_primitive_root(g, spec) == want, (g, p, k)


def test_bad_lift_check_raises(monkeypatch):
    # the re-verification is a raise, not an assert, so it holds under python -O
    import primroot.roots as roots_mod

    monkeypatch.setattr(roots_mod, "inv_mod", lambda a, n: 1)
    with pytest.raises(ArithmeticError):
        bad_lift_residue(3, 43)  # stationary, so its failing residue is nonzero


def test_classify_examples():
    assert classify(19, 43) is RootClass.NONSTATIONARY
    assert classify(5, 40487) is RootClass.NONSTATIONARY
    assert classify(41, 41) is RootClass.NOT_COPRIME
    assert classify(2, 7) is RootClass.NOT_ROOT
    assert classify(3, 43) is RootClass.STATIONARY
    assert classify(62, 43) is RootClass.STATIONARY
    with pytest.raises(ContractError):
        classify(3, 42)
    with pytest.raises(ContractError):
        classify(0, 43)


def test_bad_lift_residue_examples():
    assert bad_lift_residue(19, 43) == 0
    assert bad_lift_residue(5, 40487) == 0
    # exhaustive scan oracle for (6, 41)
    hits = [a for a in range(41) if pow(6 + 41 * a, 40, 41 * 41) == 1]
    assert len(hits) == 1
    assert bad_lift_residue(6, 41) == hits[0]
    with pytest.raises(ContractError):
        bad_lift_residue(2, 43)
    with pytest.raises(ContractError):
        bad_lift_residue(43 + 3, 43)


def test_bad_lift_uniqueness_small():
    for p in primes_upto(100):
        if p == 2:
            continue
        spec = CyclicGroupSpec.for_prime(p)
        p2 = p * p
        for tau in range(2, p):
            if not is_primitive_root(tau, spec):
                continue
            hits = [a for a in range(p) if pow(tau + a * p, p - 1, p2) == 1]
            assert hits == [bad_lift_residue(tau, p)], (p, tau)


def test_nonstationary_count_is_phi_of_p_minus_1():
    # classified over a full period [1, p^2]
    for p in (5, 7, 11, 13, 31, 61):
        fac = factorize(p - 1)
        count = sum(
            1 for g in range(1, p * p + 1) if classify(g, p) is RootClass.NONSTATIONARY
        )
        assert count == euler_phi(fac), p
    # larger p via the one-bad-residue-per-root scan
    for p in (101, 499, 997):
        spec = CyclicGroupSpec.for_prime(p)
        roots_p = [t for t in range(2, p) if is_primitive_root(t, spec)]
        count = sum(
            1 for t in roots_p for a in range(p) if pow(t + a * p, p - 1, p * p) == 1
        )
        assert count == euler_phi(factorize(p - 1)) == len(roots_p)


def test_least_roots_table():
    r = least_roots(40487)
    assert (r.g, r.h, r.gs) == (5, 10, 10)
    r = least_roots(43)
    assert (r.g, r.gs) == (3, 3)
    r = least_roots(3)
    assert (r.g, r.h, r.gs) == (2, 2, 2)
    with pytest.raises(ContractError):
        least_roots(40488)


def test_least_roots_scan_has_no_earlier_hit():
    # everything below g fails mod p; everything below h fails mod p^2
    for p in (41, 43, 40487):
        r = least_roots(p)
        spec_p = CyclicGroupSpec.for_prime(p)
        spec_p2 = CyclicGroupSpec.for_prime_power(p, 2)
        for cand in range(2, r.g):
            assert not is_primitive_root(cand, spec_p)
        for cand in range(2, r.h):
            assert not is_primitive_root(cand, spec_p2)
        assert r.g <= r.gs
        assert is_primitive_root(r.gs, spec_p) and is_primitive_root(r.gs, spec_p2)


def test_least_roots_agree_below_1e5():
    # the only g(p) != h(p) below 10^5 is 40487
    mismatches = [p for p in primes_upto(10**5) if p > 2 and (lambda r: r.g != r.h)(least_roots(p))]
    assert mismatches == [40487]


def test_lift_enumerate_small():
    spec5 = CyclicGroupSpec.for_prime(5)
    level1 = [g for g in range(1, 6) if is_primitive_root(g, spec5)]
    lifted = lift_enumerate(5, 1, level1)
    spec25 = CyclicGroupSpec.for_prime_power(5, 2)
    assert lifted == [g for g in range(1, 26) if is_primitive_root(g, spec25)]


def test_lift_enumerate_counts():
    spec43 = CyclicGroupSpec.for_prime(43)
    level1 = [g for g in range(1, 44) if is_primitive_root(g, spec43)]
    lifted = lift_enumerate(43, 1, level1)
    assert len(lifted) == euler_phi(factorize(43 * 42))  # 504
    with pytest.raises(ContractError):
        lift_enumerate(43, 1, level1[:-1])  # incomplete input detected by count


def test_lift_enumerate_41_all_survive():
    spec41 = CyclicGroupSpec.for_prime(41)
    level1 = [g for g in range(1, 42) if is_primitive_root(g, spec41)]
    assert level1 == ROOTS_41
    lifted = lift_enumerate(41, 1, level1)
    assert set(level1) <= set(lifted)  # every root of 41 is again a root mod 41^2


def test_lift_chain_counts_match_scan():
    for p in (3, 5, 7, 11, 31):
        spec = CyclicGroupSpec.for_prime(p)
        level = [g for g in range(1, p + 1) if is_primitive_root(g, spec)]
        for k in (1, 2):
            level = lift_enumerate(p, k, level)
            spec_up = CyclicGroupSpec.for_prime_power(p, k + 1)
            want = [g for g in range(1, p ** (k + 1) + 1) if is_primitive_root(g, spec_up)]
            assert level == want


def lift_by_full_test(p, k, roots_k):
    """The enumeration by definition: a full generator test on every tau + a*p^k."""
    spec_up = CyclicGroupSpec.for_prime_power(p, k + 1)
    pk = p**k
    found = []
    for tau in roots_k:
        for a in range(p):
            if is_primitive_root(tau + a * pk, spec_up):
                found.append(tau + a * pk)
    return sorted(found)


def roots_mod_prime(p):
    spec = CyclicGroupSpec.for_prime(p)
    return [g for g in range(1, p + 1) if is_primitive_root(g, spec)]


ODD_PRIMES_BELOW_200 = [p for p in primes_upto(200) if p > 2]


@settings(max_examples=30, deadline=None)
@given(
    pk=st.one_of(
        st.tuples(st.sampled_from(ODD_PRIMES_BELOW_200), st.just(1)),
        st.tuples(st.sampled_from([p for p in ODD_PRIMES_BELOW_200 if p < 60]), st.just(2)),
    ),
    rng=st.randoms(use_true_random=False),
)
def test_lift_enumerate_matches_full_test(pk, rng):
    # the complete level-k set, shuffled, with some non-roots mixed in
    p, k = pk
    level = roots_mod_prime(p)
    if k == 2:
        level = lift_by_full_test(p, 1, level)
    non_roots = sorted(set(range(1, p**k + 1)) - set(level))  # only 2 at p = 3 and 3 at p = 5
    roots_k = level + rng.sample(non_roots, rng.randint(0, min(5, len(non_roots))))
    rng.shuffle(roots_k)
    assert lift_enumerate(p, k, roots_k) == lift_by_full_test(p, k, roots_k)


def test_lift_enumerate_refuses_a_set_over_the_table_budget(monkeypatch):
    import primroot.arith as arith_mod
    from primroot.roots import LIFT_ROOT_BYTES

    # the 8 roots mod 25, at LIFT_ROOT_BYTES each
    need = 8 * LIFT_ROOT_BYTES
    monkeypatch.setattr(arith_mod, "TABLE_BUDGET_BYTES", need)
    assert len(lift_enumerate(5, 1, [2, 3])) == 8
    monkeypatch.setattr(arith_mod, "TABLE_BUDGET_BYTES", need - 1)
    with pytest.raises(ResourceLimitError, match="budget"):
        lift_enumerate(5, 1, [2, 3])
    monkeypatch.undo()
    # refused before the input is read: a short input would otherwise fail the count
    with pytest.raises(ResourceLimitError, match="budget"):
        lift_enumerate(10007, 1, [])


def test_lift_enumerate_rejects_repeated_roots():
    level1 = roots_mod_prime(43)
    # the count check alone passes this input: 504 entries, 462 of them distinct
    with pytest.raises(ContractError, match=r"^root 3 repeated in the level-1 set$"):
        lift_enumerate(43, 1, level1[:-1] + [level1[0]])


@pytest.mark.parametrize("k", [1, 2])
def test_lift_enumerate_tests_each_input_root_once(monkeypatch, k):
    import primroot.roots as roots_mod

    roots_k = roots_mod_prime(59)
    if k == 2:
        roots_k = lift_by_full_test(59, 1, roots_k)
    moduli = []

    def counting_is_primitive_root(g, spec):
        moduli.append(spec.modulus)
        return is_primitive_root(g, spec)

    monkeypatch.setattr(roots_mod, "is_primitive_root", counting_is_primitive_root)
    lift_enumerate(59, k, roots_k)
    assert moduli == [59**k] * len(roots_k)


def test_lift_pair_check_refuses_a_top_modulus_past_the_bit_budget(monkeypatch):
    import primroot.roots as roots_mod

    # 3**323 has 512 bits, 3**324 has 514: the first is checked, the second refused unbuilt
    assert lift_pair_check(2, 3, 323).all_pairs_ok
    monkeypatch.setattr(CyclicGroupSpec, "raised", None)
    refused = r"^lift pairs up to 3\^324 need a 514-bit modulus, over the 512-bit budget$"
    with pytest.raises(ResourceLimitError, match=refused):
        lift_pair_check(2, 3, 324)
    assert roots_mod.LIFT_PAIR_BITS == 512


def test_lift_pair_check():
    rep = lift_pair_check(5, 40487, 2)
    assert not rep.steps[1].root_ok
    assert rep.steps[1].shifted_ok  # 5 + 40487 = 40492 generates mod p^2
    assert rep.all_pairs_ok
    rep = lift_pair_check(19, 43, 2)
    assert not rep.steps[1].root_ok
    assert rep.steps[1].shifted_ok  # 62 generates mod 43^2
    assert rep.all_pairs_ok
    rep = lift_pair_check(3, 7, 4)
    assert rep.all_pairs_ok
    assert all(s.root_ok for s in rep.steps)


def test_lift_pairs_hold_broadly():
    for p in primes_upto(200):
        if p == 2:
            continue
        spec = CyclicGroupSpec.for_prime(p)
        for tau in range(2, p):
            if is_primitive_root(tau, spec):
                assert lift_pair_check(tau, p, 3).all_pairs_ok, (tau, p)


def test_stationary_propagation_examples():
    assert stationary_propagation(10, 40487, 2)
    assert stationary_propagation(3, 43, 4)
    assert stationary_propagation(2, 5, 5)
    with pytest.raises(ContractError):
        stationary_propagation(19, 43, 3)  # nonstationary
    with pytest.raises(ContractError):
        stationary_propagation(2, 7, 3)  # not a root at all


def test_even_stationary_roots_use_odd_companion():
    # 10 is even; mod 2*40487^k the companion 10 + 40487^k is checked
    assert classify(10, 40487) is RootClass.STATIONARY
    assert stationary_propagation(10, 40487, 3)


def test_inverse_pairs_both_roots():
    # tau inverse mod p is again a root mod p; the pairing argument rests on it
    spec = CyclicGroupSpec.for_prime(43)
    for tau in ROOTS_43:
        assert is_primitive_root(inv_mod(tau, 43), spec)


def test_raised_specs_equal_validated_builds():
    spec_p = CyclicGroupSpec.for_prime(43)
    assert spec_p.raised(1) == spec_p
    for k in range(1, 5):
        assert spec_p.raised(k) == CyclicGroupSpec.for_prime_power(43, k)
        assert spec_p.raised(k, doubled=True) == CyclicGroupSpec.for_modulus(2 * 43**k)
    with pytest.raises(ContractError):
        spec_p.raised(2).raised(2)  # only a prime's spec is raised
    with pytest.raises(ContractError):
        spec_p.raised(0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: stationary_propagation(10, 40487, 4),
        lambda: lift_pair_check(5, 40487, 4),
        lambda: psi_s_formula(10, 40487).matches_table,
        lambda: is_primitive_root(13, twice_prime_power(40487, 3)),  # 13 is an odd stationary root
        lambda: least_roots(40487),
        lambda: classify(10, 40487),
        lambda: CyclicGroupSpec.for_prime_power(40487, 3),
        lambda: period(10, 40487, 2),
        lambda: bad_lift_residue(5, 40487) == 0,  # 5 is a root of 40487 but not of its square
    ],
    ids=[
        "stationary_propagation", "lift_pair_check", "psi_s_formula", "raised_doubled",
        "least_roots", "classify", "for_prime_power", "period",
        "bad_lift_residue",
    ],
)
def test_lift_checks_validate_p_once(monkeypatch, call):
    import primroot.roots as roots_mod
    from primroot.arith import factorize as real_factorize
    from primroot.arith import is_prime as real_is_prime

    calls = []

    def counting_is_prime(n):
        calls.append(("is_prime", n))
        return real_is_prime(n)

    def counting_factorize(n):
        calls.append(("factorize", n))
        return real_factorize(n)

    monkeypatch.setattr(roots_mod, "is_prime", counting_is_prime)
    monkeypatch.setattr(roots_mod, "factorize", counting_factorize)
    assert call()
    assert calls == [("is_prime", 40487), ("factorize", 40486)]
    calls.clear()
    assert call()
    assert calls == []  # the spec of 40487 is memoized


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=10**15))
def test_for_prime_memo_equals_the_uncached_build(n):
    p = n
    while not is_prime(p):
        p += 1
    uncached = CyclicGroupSpec.for_prime.__wrapped__(CyclicGroupSpec, p)
    assert CyclicGroupSpec.for_prime(p) == uncached
    assert CyclicGroupSpec.for_prime(p) is CyclicGroupSpec.for_prime(p)
    assert CyclicGroupSpec.for_prime(p).with_generator() is CyclicGroupSpec.for_prime(p).with_generator()


def test_for_prime_memo_keeps_no_failure():
    for n in (1, 2, 9, 40485, 40487 * 40493):
        for _ in range(2):
            with pytest.raises(ContractError):
                CyclicGroupSpec.for_prime(n)
    assert CyclicGroupSpec.for_prime.cache_info().currsize == 0


def test_for_prime_memo_keeps_a_float_a_type_error():
    CyclicGroupSpec.for_prime(5)
    with pytest.raises(TypeError):
        CyclicGroupSpec.for_prime(5.0)


def test_spec_memos_are_bounded():
    from primroot.roots import _with_least_generator

    primes = primes_upto(10**4)[1 : SPEC_CACHE_SIZE + 11]
    assert len(primes) == SPEC_CACHE_SIZE + 10
    for p in primes:
        spec = CyclicGroupSpec.for_prime(p).with_generator()
        assert is_primitive_root(spec.generator, spec)
    for memo in (CyclicGroupSpec.for_prime, _with_least_generator):
        info = memo.cache_info()
        assert (info.misses, info.currsize) == (SPEC_CACHE_SIZE + 10, SPEC_CACHE_SIZE)
    # the least recently used entries went first
    misses = CyclicGroupSpec.for_prime.cache_info().misses
    CyclicGroupSpec.for_prime(primes[-1])
    assert CyclicGroupSpec.for_prime.cache_info().misses == misses
    CyclicGroupSpec.for_prime(primes[0])
    assert CyclicGroupSpec.for_prime.cache_info().misses == misses + 1
