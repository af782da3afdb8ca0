import cmath
import math
import random
from fractions import Fraction

import pytest

from conftest import naive_order, naive_phi
from primroot import characters
from primroot.arith import primes_upto
from primroot.characters import (
    CharacterIndex,
    UnitRoot,
    additive_char_sum,
    char_sum,
    character_of_index,
    discrete_log,
    psi_indicator,
    psi_n_formula,
    psi_s_formula,
    random_bound_trials,
)
from primroot.errors import ContractError, NotInvertibleError, ResourceLimitError
from primroot.modmath import multiplicative_order
from primroot.roots import CyclicGroupSpec, RootClass


def test_unit_root_reduction():
    assert UnitRoot.from_angle(5, 10) == UnitRoot(1, 2)
    assert UnitRoot.from_angle(13, 10) == UnitRoot(3, 10)
    assert UnitRoot.from_angle(-1, 4) == UnitRoot(3, 4)
    assert UnitRoot.from_angle(0, 7) == UnitRoot(0, 1)


def product(a: UnitRoot, b: UnitRoot) -> UnitRoot:
    """a * b, by adding the angles."""
    num = a.numerator * b.denominator + b.numerator * a.denominator
    return UnitRoot.from_angle(num, a.denominator * b.denominator)


def test_unit_root_algebra_matches_complex():
    rng = random.Random(14)
    for _ in range(500):
        a = UnitRoot.from_angle(rng.randrange(60), rng.randrange(1, 60))
        b = UnitRoot.from_angle(rng.randrange(60), rng.randrange(1, 60))
        assert abs(product(a, b).to_complex() - a.to_complex() * b.to_complex()) < 1e-12
        conjugate = UnitRoot.from_angle(-a.numerator, a.denominator)
        assert abs(conjugate.to_complex() - a.to_complex().conjugate()) < 1e-12
        assert abs(abs(a.to_complex()) - 1) < 1e-12


def test_discrete_log_basics():
    spec = CyclicGroupSpec.for_prime(41).with_generator()
    g = spec.generator
    assert discrete_log(1, spec) == 0
    assert discrete_log(g, spec) == 1
    assert discrete_log(pow(g, 17, 41), spec) == 17
    with pytest.raises(NotInvertibleError):
        discrete_log(82, spec)
    with pytest.raises(ContractError):
        discrete_log(5, CyclicGroupSpec.for_prime(41))  # no generator attached


def test_discrete_log_roundtrip():
    for n in (499, 13 * 13, 2 * 49):
        spec = CyclicGroupSpec.for_modulus(n).with_generator()
        for t in range(spec.group_order):
            assert discrete_log(pow(spec.generator, t, n), spec) == t


def test_discrete_log_table_cap(monkeypatch):
    monkeypatch.setattr(characters, "BSGS_TABLE_CAP", 4)
    spec = CyclicGroupSpec.for_prime(499).with_generator()
    with pytest.raises(ResourceLimitError):
        discrete_log(5, spec)


def test_character_construction():
    spec = CyclicGroupSpec.for_prime(41).with_generator()
    chi = CharacterIndex(spec, 8, 3)
    assert chi.value(spec.generator) == UnitRoot(3, 8)
    with pytest.raises(ContractError):
        CharacterIndex(spec, 7, 1)  # 7 does not divide 40
    with pytest.raises(ContractError):
        CharacterIndex(spec, 8, 2)  # gcd(2, 8) != 1, order would drop
    assert character_of_index(spec, 0).trivial
    assert character_of_index(spec, 5).d == 8
    assert character_of_index(spec, 20).d == 2


def test_character_multiplicativity():
    spec = CyclicGroupSpec.for_prime(61).with_generator()
    chi = character_of_index(spec, 7)
    rng = random.Random(15)
    for _ in range(200):
        u = rng.randrange(1, 61)
        v = rng.randrange(1, 61)
        lhs = chi.value(u * v % 61)
        rhs = product(chi.value(u), chi.value(v))
        assert lhs == rhs


def test_orthogonality():
    # sum of chi(u) over the group vanishes for every nontrivial character
    for p in primes_upto(61):
        if p == 2:
            continue
        spec = CyclicGroupSpec.for_prime(p).with_generator()
        for m in range(1, p - 1):
            chi = character_of_index(spec, m)
            total = sum(chi.value(u).to_complex() for u in range(1, p))
            assert abs(total) < 1e-9, (p, m)


def test_psi_indicator_examples():
    for p in (5, 7, 41):
        spec = CyclicGroupSpec.for_prime(p).with_generator()
        assert psi_indicator(1, spec) == 0
    spec41 = CyclicGroupSpec.for_prime(41).with_generator()
    assert psi_indicator(6, spec41) == 1
    spec7 = CyclicGroupSpec.for_prime(7).with_generator()
    assert psi_indicator(2, spec7) == 0  # ord_7(2) = 3
    with pytest.raises(NotInvertibleError):
        psi_indicator(14, spec7)


def test_psi_indicator_equals_order_test_mod_p():
    for p in primes_upto(31):
        if p == 2:
            continue
        spec = CyclicGroupSpec.for_prime(p).with_generator()
        for u in range(1, p):
            want = int(naive_order(u, p) == p - 1)
            assert psi_indicator(u, spec) == want, (u, p)


def test_psi_indicator_equals_order_test_mod_p2():
    for p in (3, 5, 7, 11):
        n = p * p
        spec = CyclicGroupSpec.for_prime_power(p, 2).with_generator()
        for u in range(1, n):
            if u % p == 0:
                continue
            want = int(naive_order(u, n) == naive_phi(n))
            assert psi_indicator(u, spec) == want, (u, p)


def test_psi_indicator_at_the_omega_cap():
    # p - 1 = 2*3*5*...*31: omega = 11, the most a group order within the
    # baby-step cap (at most 2**40) can have
    p = 200560490131
    spec = CyclicGroupSpec.for_prime(p).with_generator()
    assert len(spec.order_factorization.factors) == 11
    g = spec.generator
    try:
        for u in (g, g * g % p, pow(g, 7, p), pow(g, 31 * 29, p)):
            want = int(multiplicative_order(u, spec).order == p - 1)
            assert psi_indicator(u, spec) == want, u
    finally:
        characters._bsgs_table.cache_clear()  # drop the 447840-entry table


def test_psi_formulas_examples():
    res = psi_s_formula(3, 43)
    assert res.formula == 1
    assert res.classification is RootClass.STATIONARY
    assert res.matches_table

    res = psi_s_formula(19, 43)
    assert res.formula == Fraction(1, 2)
    assert res.table == 0
    assert res.classification is RootClass.NONSTATIONARY
    assert not res.matches_table

    res = psi_n_formula(19, 43)
    assert res.formula == Fraction(1, 2)
    assert res.table == 1
    assert not res.matches_table

    res = psi_s_formula(2, 7)
    assert res.formula == 0
    assert res.classification is RootClass.NOT_ROOT


def test_psi_formulas_take_g_under_classify_rule():
    # -1846 = 3 mod 43^2 is a stationary root, but g < 1 is outside classify's
    # domain; it used to be reported as NotCoprime with a false mismatch
    for fn in (psi_s_formula, psi_n_formula):
        for g in (-1846, 0):
            with pytest.raises(ContractError):
                fn(g, 43)


def test_psi_formula_discrepancy_is_exactly_nonstationary():
    # formula == 1/2 precisely where the class is Nonstationary
    for p in primes_upto(61):
        if p == 2:
            continue
        for g in range(1, p):
            res = psi_s_formula(g, p)
            assert (res.formula == Fraction(1, 2)) == (
                res.classification is RootClass.NONSTATIONARY
            )
            resn = psi_n_formula(g, p)
            assert (resn.formula == Fraction(1, 2)) == (
                res.classification is RootClass.NONSTATIONARY
            )


def test_char_sum_singletons():
    spec = CyclicGroupSpec.for_prime(43).with_generator()
    chi = character_of_index(spec, 1)
    rep = char_sum({1}, {1}, chi)
    assert abs(rep.magnitude - 1) < 1e-12
    assert rep.bound == math.sqrt(43)
    assert rep.slack <= 1
    assert rep.pairs_used == 1


def test_char_sum_full_group_vanishes():
    # over the full unit group every w != 0 appears p-2 times, so the sum is 0
    p = 199
    spec = CyclicGroupSpec.for_prime(p).with_generator()
    chi = character_of_index(spec, 3)
    full = range(1, p)
    rep = char_sum(full, full, chi)
    assert rep.magnitude < 1e-9
    assert rep.pairs_skipped == p - 1
    assert rep.slack <= 1


def test_char_sum_contracts():
    spec = CyclicGroupSpec.for_prime(43).with_generator()
    with pytest.raises(ContractError):
        char_sum({1}, {2}, character_of_index(spec, 0))  # trivial character
    spec49 = CyclicGroupSpec.for_prime_power(7, 2).with_generator()
    with pytest.raises(ContractError):
        char_sum({1}, {2}, character_of_index(spec49, 1))  # composite modulus


def test_additive_char_sum():
    rep = additive_char_sum({1}, {1}, 1, 499)
    assert abs(rep.magnitude - 1) < 1e-12
    # full grid: each inner geometric sum is -1, so the total is -(N-1)
    n = 101
    rep = additive_char_sum(range(1, n), range(1, n), 1, n)
    assert abs(rep.total - (-(n - 1))) < 1e-6
    assert rep.slack <= 1
    with pytest.raises(ContractError):
        additive_char_sum({1}, {2}, 0, 499)
    with pytest.raises(ContractError):
        additive_char_sum({1}, {2}, 499, 499)


def test_random_trials_bound_and_determinism():
    a = random_bound_trials(25, seed=3)
    b = random_bound_trials(25, seed=3)
    assert a == b
    assert all(r.slack <= 1 for r in a)
    c = random_bound_trials(25, seed=4)
    assert a != c
    adds = random_bound_trials(15, seed=3, additive=True)
    assert all(r.slack <= 1 for r in adds)
