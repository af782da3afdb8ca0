"""Acceptance gate: one test per criterion, run at the stated tolerances.

Each test prints a PASS line with its runtime; run with `pytest -v -s` (or
-rA) to see them.  Budgets are asserted with time.perf_counter.
"""

import json
import math
import time

from conftest import naive_classify_counts, naive_repetend_length
from primroot.arith import euler_phi, factorize, primes_upto
from primroot.characters import psi_indicator, random_bound_trials
from primroot.cli import main
from primroot.modmath import multiplicative_order
from primroot.roots import (
    CyclicGroupSpec,
    RootClass,
    bad_lift_residue,
    classify,
    is_primitive_root,
    stationary_propagation,
)
from primroot.surveys import density_constants, euler_product_constant, stationary_survey

A1_DIGITS = "0.373956099060845279979647798266673361"
A2_DIGITS = "0.1473496249460471189049141150422354"
C2_DIGITS = "0.26065286200344619944228095665445442967965"
C3_DIGITS = "0.11330323705739908053736684161221893192939"

ROOTS_41 = [6, 7, 11, 12, 13, 15, 17, 19, 22, 24, 26, 28, 29, 30, 34, 35]
ROOTS_43 = [3, 5, 12, 18, 19, 20, 26, 28, 29, 30, 33, 34]


def report(n, elapsed, detail=""):
    print(f"ACCEPTANCE {n} PASS ({elapsed:.2f}s) {detail}")


def test_criterion_01_table1_least_roots(capsys):
    t0 = time.perf_counter()
    rc = main(["least", "--p", "40487", "--format", "json"])
    small = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert (data["g"], data["h"]) == (5, 10)
    assert small < 1.0

    t1 = time.perf_counter()
    rc = main(["least", "--p", "6692367337", "--format", "json"])
    big = time.perf_counter() - t1
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert (data["g"], data["h"]) == (5, 7)
    assert big < 300.0
    with capsys.disabled():
        report(1, small + big, "least roots of 40487 and 6692367337")


def test_criterion_02_section4_examples(capsys):
    t0 = time.perf_counter()
    spec41 = CyclicGroupSpec.for_prime(41)
    found41 = [g for g in range(1, 42) if is_primitive_root(g, spec41)]
    assert found41 == ROOTS_41
    assert len(found41) == 16
    assert all(pow(g, 40, 41 * 41) != 1 for g in found41)  # every one lifts

    spec43 = CyclicGroupSpec.for_prime(43)
    found43 = [g for g in range(1, 44) if is_primitive_root(g, spec43)]
    assert found43 == ROOTS_43
    non_lifting = [g for g in found43 if pow(g, 42, 43 * 43) == 1]
    assert non_lifting == [19]
    assert is_primitive_root(62, CyclicGroupSpec.for_prime_power(43, 2))

    p = 40487
    p2 = p * p
    assert factorize(p - 1).factors == ((2, 1), (31, 1), (653, 1))
    assert pow(5, 31 * 653, p) == p - 1
    assert pow(5, 2 * 653, p) == 32940
    assert pow(5, 2 * 31, p) == 4413
    assert pow(5, 31 * 653, p2) == p2 - 1
    assert pow(5, 2 * 653, p2) == 1089538110
    assert pow(5, 2 * 31, p2) == 1388749000
    assert pow(5, 2 * 31 * 653, p2) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        report(2, elapsed, "root sets for 41, 43 and all 40487 congruences")


def test_criterion_03_euler_product_digits(capsys):
    t0 = time.perf_counter()
    a1 = euler_product_constant(1, 10**4)
    a2 = euler_product_constant(2, 10**4)
    rep = density_constants(10**4)
    elapsed = time.perf_counter() - t0
    for got, digits in (
        (a1, A1_DIGITS),
        (a2, A2_DIGITS),
        (rep.c2, C2_DIGITS),
        (rep.c3, C3_DIGITS),
    ):
        want = float(digits)
        assert abs(got - want) / want <= 1e-12, (got, digits)
    assert elapsed < 1.0
    with capsys.disabled():
        report(3, elapsed, "a1, a2, c2, c3 to 1e-12 over first 10^4 primes")


def test_criterion_04_psi_oracle(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    for p in primes_upto(61):
        if p == 2:
            continue
        spec = CyclicGroupSpec.for_prime(p).with_generator()
        for u in range(1, p):
            direct = int(multiplicative_order(u, spec).order == p - 1)
            if psi_indicator(u, spec) != direct:
                mismatches += 1
    for p in primes_upto(13):
        if p == 2:
            continue
        spec = CyclicGroupSpec.for_prime_power(p, 2).with_generator()
        n = p * p
        for u in range(1, n):
            if u % p == 0:
                continue
            direct = int(multiplicative_order(u, spec).order == spec.group_order)
            if psi_indicator(u, spec) != direct:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 30.0
    with capsys.disabled():
        report(4, elapsed, "characteristic function == order test, zero mismatches")


def test_criterion_05_bad_lift_uniqueness(capsys):
    t0 = time.perf_counter()
    checked = 0
    for p in primes_upto(1000):
        if p == 2:
            continue
        spec = CyclicGroupSpec.for_prime(p)
        p2 = p * p
        for tau in range(2, p):
            if not is_primitive_root(tau, spec):
                continue
            hits = [a for a in range(p) if pow(tau + a * p, p - 1, p2) == 1]
            assert len(hits) == 1, (p, tau)
            assert hits[0] == bad_lift_residue(tau, p), (p, tau)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        report(5, elapsed, f"unique failing lift for {checked} roots, all match the formula")


def test_criterion_06_character_sum_bound(capsys):
    t0 = time.perf_counter()
    mult = random_bound_trials(200, seed=0, max_prime=499, additive=False)
    add = random_bound_trials(100, seed=0, max_prime=499, additive=True)
    elapsed = time.perf_counter() - t0
    assert all(r.slack <= 1.0 for r in mult)
    assert all(r.slack <= 1.0 for r in add)
    assert elapsed < 60.0
    with capsys.disabled():
        worst = max(r.slack for r in mult + add)
        report(6, elapsed, f"300 seeded trials within bound (worst slack {worst:.3f})")


def test_criterion_07_totient_ratio_asymptotics(capsys):
    from primroot.surveys import totient_ratio_sum

    t0 = time.perf_counter()
    rep1 = totient_ratio_sum(10**6, 1)
    rep2 = totient_ratio_sum(10**6, 2)
    elapsed = time.perf_counter() - t0
    a1 = float(A1_DIGITS)
    a2 = float(A2_DIGITS)
    dev1 = abs(rep1.per_prime - a1) / a1
    dev2 = abs(rep2.per_prime - a2) / a2
    assert dev1 <= 0.02, dev1
    assert dev2 <= 0.03, dev2
    assert elapsed < 60.0
    with capsys.disabled():
        report(7, elapsed, f"x=1e6 ratios off a1 by {dev1:.2%}, a2 by {dev2:.2%}")


def test_criterion_08_stationary_propagation(capsys):
    t0 = time.perf_counter()
    checked = 0
    for p in primes_upto(200):
        if p == 2:
            continue
        for g in range(2, 2 * p + 1):
            if classify(g, p) is RootClass.STATIONARY:
                assert stationary_propagation(g, p, kmax=4), (g, p)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        report(8, elapsed, f"{checked} stationary roots generate mod p^k and 2p^k, k<=4")


def test_criterion_09_maximal_periods(capsys):
    from primroot.surveys import period

    t0 = time.perf_counter()
    pairs = 0
    for p in primes_upto(50):
        if p == 2:
            continue
        for base in range(2, 13):
            if base % p == 0 or classify(base, p) is not RootClass.STATIONARY:
                continue
            for k in range(1, 5):
                rep = period(base, p, k)
                assert rep.period == p ** (k - 1) * (p - 1), (base, p, k)
                assert rep.maximal
            if p <= 31:
                assert naive_repetend_length(p * p, base) == period(base, p, 2).period
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert pairs > 0
    assert elapsed < 30.0
    with capsys.disabled():
        report(9, elapsed, f"maximal periods for {pairs} stationary (base, p) pairs")


def test_criterion_10_survey_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rep = stationary_survey(10**3, 50)
    for row in rep.rows:
        assert (row.n_pr, row.n_s, row.n_n) == naive_classify_counts(row.p, 50), row.p
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        report(10, elapsed, f"{len(rep.rows)} survey rows equal the order-loop recount")
