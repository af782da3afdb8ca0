import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import mobius, naive_classify_counts, naive_order, naive_repetend_length
from primroot import _kernel, arith, surveys
from primroot.arith import (
    euler_phi,
    factorize,
    first_primes,
    is_prime,
    primes_in_range,
    primes_upto,
)
from primroot.errors import ContractError, ResourceLimitError
from primroot.report import SCHEMA_VERSION, render
from primroot.roots import least_roots
from primroot.surveys import (
    KNOWN_LEAST_ROOT_EXCEPTIONS,
    GsStatsReport,
    SURVEY_COLUMNS,
    SurveyRow,
    density_constants,
    euler_product_constant,
    fixed_g_density,
    least_gs_stats,
    least_root_agreement,
    mixed_main_term,
    omega_sums,
    period,
    repetend_digits,
    stationary_survey,
    totient_ratio_sum,
)

# reference digits for the partial products over the first 10^4 primes
A1_REF = 0.373956099060845279979647798266673361
A2_REF = 0.1473496249460471189049141150422354
C2_REF = 0.26065286200344619944228095665445442967965
C3_REF = 0.11330323705739908053736684161221893192939


def test_euler_product_single_prime():
    assert euler_product_constant(1, 1) == 0.5
    assert euler_product_constant(2, 1) == 0.25


def test_euler_product_reference_digits():
    assert abs(euler_product_constant(1, 10**4) - A1_REF) / A1_REF < 1e-12
    assert abs(euler_product_constant(2, 10**4) - A2_REF) / A2_REF < 1e-12


def test_euler_product_mpmath_oracle():
    from mpmath import mp, mpf

    mp.dps = 40
    for k in (1, 2):
        prod = mpf(1)
        for p in first_primes(2000):
            pk = mpf(p) ** k
            prod *= 1 - (pk - mpf(p - 1) ** k) / (pk * (p - 1))
        ours = euler_product_constant(k, 2000)
        assert abs(ours - float(prod)) < 1e-14


def test_euler_product_strictly_decreasing():
    for k in (1, 2):
        values = [euler_product_constant(k, n) for n in range(1, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))


def local_factor(p, k):
    """The exact factor 1 - (p^k - (p-1)^k) / (p^k (p-1)) of euler_product_constant at p."""
    return 1 - Fraction(p**k - (p - 1) ** k, p**k * (p - 1))


def test_local_factor_ordering():
    for p in primes_upto(1000):
        assert local_factor(p, 2) < local_factor(p, 1)
        assert 0 < local_factor(p, 2) < 1


def test_density_constants():
    rep = density_constants(1)
    assert (rep.a1, rep.a2) == (0.5, 0.25)
    assert (rep.c2, rep.c3) == (0.375, 0.125)
    rep = density_constants(10**4)
    assert abs(rep.c2 - C2_REF) / C2_REF < 1e-12
    assert abs(rep.c3 - C3_REF) / C3_REF < 1e-12
    assert abs((rep.c2 + rep.c3) - rep.a1) < 1e-15
    assert abs((rep.c2 - rep.c3) - rep.a2) < 1e-15


def test_totient_ratio_exact_small():
    rep = totient_ratio_sum(10, 1)
    assert rep.exact
    assert rep.total == Fraction(7, 3)  # 1 + 1/2 + 1/2 + 1/3
    assert rep.prime_count == 4


def test_totient_ratio_fixed_point_matches_exact(monkeypatch):
    exact = totient_ratio_sum(2000, 1)
    exact2 = totient_ratio_sum(2000, 2)
    assert exact.exact
    monkeypatch.setattr(surveys, "EXACT_SUM_LIMIT", 1999)
    fixed = totient_ratio_sum(2000, 1)
    assert not fixed.exact
    assert abs(exact.total - fixed.total) < Fraction(1, 10**20)
    fixed2 = totient_ratio_sum(2000, 2)
    assert abs(exact2.total - fixed2.total) < Fraction(1, 10**20)


def test_mixed_main_term_single_prime_window():
    # [1, 2] holds only p = 2: phi(1)/1 * (1 + phi(phi(4))/4) / 2 = 5/8
    rep = mixed_main_term(1)
    assert rep.prime_count == 1
    assert abs(rep.total - 0.625) < 1e-12


def test_mixed_main_term_identity_bound():
    # r * phi(phi(p^2))/p^2 stays within 2/p of r^2
    from primroot.arith import euler_phi

    for p in primes_upto(500):
        f = euler_phi(factorize(p - 1))
        r = f / (p - 1)
        lhs = r * ((p - 1) * f / (p * p))
        assert abs(lhs - r * r) <= 2 / p


def test_mixed_main_term_tracks_c2():
    rep = mixed_main_term(10**4)
    assert abs(rep.ratio_to_c2_x_log_x - 1) < 0.10


def test_survey_rows_match_naive_oracle():
    rep = stationary_survey(10, 5)
    assert [r.p for r in rep.rows] == [11, 13, 17, 19]
    for row in rep.rows:
        assert (row.n_pr, row.n_s, row.n_n) == naive_classify_counts(row.p, row.z)
    assert rep.n_pr_total == sum(r.n_pr for r in rep.rows)


def test_survey_row_43_counts_19_nonstationary():
    rep = stationary_survey(30, 10)
    row43 = next(r for r in rep.rows if r.p == 43)
    assert row43.n_n == 1  # g = 19 is the only non-lifting root below 2z = 20
    assert row43.n_pr == naive_classify_counts(43, 10)[0]


def test_survey_contract_errors():
    with pytest.raises(ContractError):
        stationary_survey(10, 100)  # 2z reaches p^2 for p = 11
    with pytest.raises(ContractError):
        stationary_survey(1, 2)


def test_survey_refuses_z_over_budget():
    # checked before the window is sieved or any block is built
    with pytest.raises(ResourceLimitError, match="budget"):
        stationary_survey(10**8, 2 * 10**7)
    # every worker holds its own g tables
    with pytest.raises(ResourceLimitError, match="budget"):
        stationary_survey(10**8, 6 * 10**6, workers=3)


@pytest.mark.parametrize(
    "lo, hi, twice_z",
    [
        (300690391, 300690391, 10**4),  # one prime, nine primes in p - 1: the most below 2**29
        (300690391, 300690391, 2 * 10**6),
        (300_000_000, 300_006_000, 128),  # a block of 256 primes, the most (p, g) cells one holds
    ],
)
def test_survey_charge_covers_the_peak_of_each_block(lo, hi, twice_z):
    # tracemalloc's peak of one worker's block, its g tables built afresh
    peaks = []

    def measured(block):
        _kernel._g_levels.cache_clear()
        tracemalloc.start()
        try:
            surveys._survey_block(block, twice_z // 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return []

    try:
        surveys._window_map(measured, _kernel._window(lo, hi), twice_z, 1)
    finally:
        _kernel._g_levels.cache_clear()
    assert max(peaks) <= surveys.SURVEY_CELL_BYTES * (twice_z + _kernel.KERNEL_CELLS), peaks


@pytest.mark.parametrize("workers", [0, -2])
def test_survey_refuses_workers_below_1(workers):
    with pytest.raises(ContractError, match="workers must be >= 1"):
        stationary_survey(50, 5, workers=workers)


def test_survey_nonstationary_rare():
    rep = stationary_survey(1000, 100)
    assert rep.n_n_total / rep.n_pr_total < 0.05
    assert rep.n_s_total + rep.n_n_total == rep.n_pr_total
    assert rep.ns_per_z2 == rep.n_s_total / 100**2


def test_survey_workers_deterministic():
    a = stationary_survey(100, 10, workers=1)
    b = stationary_survey(100, 10, workers=2)
    assert a == b


def test_survey_csv_roundtrip():
    rep = stationary_survey(10, 5)
    header, *lines = render(rep, "csv", {"rows": SURVEY_COLUMNS}, None).splitlines()
    assert header == ",".join(("schema_version", *SURVEY_COLUMNS))
    cells = [[int(c) for c in line.split(",")] for line in lines]
    assert {ver for ver, *_ in cells} == {SCHEMA_VERSION}
    assert tuple(SurveyRow(*row) for _, *row in cells) == rep.rows


def test_agreement_small_window_clean():
    rep = least_root_agreement(10)
    assert rep.n_disagree == 0
    assert rep.n_agree == 4  # 11, 13, 17, 19
    assert rep.exceptions == ()


@pytest.mark.parametrize("workers", [0, -2])
def test_agreement_refuses_workers_below_1(workers):
    with pytest.raises(ContractError, match="workers must be >= 1"):
        least_root_agreement(50, workers=workers)


def test_agreement_window_finds_40487():
    rep = least_root_agreement(40000)
    assert rep.n_disagree == 1
    exc = rep.exceptions[0]
    assert (exc.p, exc.g, exc.h) == (40487, 5, 10)


def test_known_exceptions_pointwise():
    from primroot.roots import least_roots

    assert KNOWN_LEAST_ROOT_EXCEPTIONS[1][0] == 6692367337
    for p, g, h in KNOWN_LEAST_ROOT_EXCEPTIONS:
        r = least_roots(p)
        assert (r.g, r.h) == (g, h), p


def test_fixed_g_density_contracts():
    for bad in (-1, 0, 1, 4, 9, 49):
        with pytest.raises(ContractError):
            fixed_g_density(bad, 100)


def test_fixed_g_density_brute_small():
    from primroot.roots import RootClass, classify

    rep = fixed_g_density(2, 100)
    want = 0
    for p in primes_upto(100):
        if p == 2:
            continue
        if naive_order(2, p) == p - 1 and naive_order(2, p * p) == p * (p - 1):
            want += 1
    assert rep.stationary_count == want
    assert rep.fraction == want / rep.prime_count


def test_fixed_g_density_artin_vicinity():
    rep = fixed_g_density(2, 10**4)
    assert 0.3 <= rep.fraction <= 0.45


def test_omega_sums_hand_value():
    rep = omega_sums(10)
    assert rep.sum_two_omega_all == 23


def test_omega_sums_brute():
    rep = omega_sums(1000)
    want_all = sum(2 ** len(factorize(n).factors) for n in range(1, 1001))
    assert rep.sum_two_omega_all == want_all
    ps = [p for p in primes_upto(1000)]
    assert rep.sum_two_omega_shifted == sum(2 ** len(factorize(p - 1).factors) for p in ps)
    assert rep.sum_omega_shifted == sum(len(factorize(p - 1).factors) for p in ps)
    mu_want = 0
    for p in ps:
        f = factorize(p - 1).factors
        mu_want += mobius(f) * len(f)
    assert rep.sum_mu_omega_shifted == mu_want
    assert rep.prime_count == len(ps)


def test_omega_sums_40487_contributes_three():
    # 40487 is prime and omega(40486) = 3; no other prime sits in between
    hi = omega_sums(40487)
    lo = omega_sums(40483)
    assert hi.sum_omega_shifted - lo.sum_omega_shifted == 3


# The sums below fold the m = p - 1 walk segment by segment; the references
# factorize each m.  With 64 or 97 integers a segment, the x cover both sides
# of segment edges for each walk (omega: [1, x], totient: [1, x - 1], mixed:
# [x - 1, 2x - 1]), and x = 129 and 98 leave omega's last segment without a
# prime <= x.
STREAMED_X = (2, 3, 63, 64, 65, 66, 96, 97, 98, 99, 128, 129, 130, 194, 195, 1000)


def table_omega_sums(x):
    fs = [factorize(m).factors for m in range(1, x + 1)]  # fs[m - 1] factors m
    shifted = [(len(fs[p - 2]), mobius(fs[p - 2])) for p in primes_upto(x)]
    return (
        sum(2 ** len(f) for f in fs),
        sum(2**v for v, _ in shifted),
        sum(v * m for v, m in shifted),
        sum(v for v, _ in shifted),
        len(shifted),
    )


@pytest.mark.parametrize("seg", [64, 97])
def test_streamed_omega_sums_match_tables(monkeypatch, seg):
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT_SIZE", seg)
    for x in STREAMED_X:
        rep = omega_sums(x)
        got = (
            rep.sum_two_omega_all,
            rep.sum_two_omega_shifted,
            rep.sum_mu_omega_shifted,
            rep.sum_omega_shifted,
            rep.prime_count,
        )
        assert got == table_omega_sums(x), x


def phi_p_minus_1(ps):
    return [euler_phi(factorize(p - 1)) for p in ps]


@pytest.mark.parametrize("seg", [64, 97])
def test_streamed_totient_sums_match_tables(monkeypatch, seg):
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT_SIZE", seg)
    for x in STREAMED_X:
        ps = primes_upto(x)
        phi = phi_p_minus_1(ps)
        for k in (1, 2):
            exact = sum(Fraction(f, p - 1) ** k for p, f in zip(ps, phi))
            fixed = sum((f**k << 128) // (p - 1) ** k for p, f in zip(ps, phi))
            rep = totient_ratio_sum(x, k)
            assert (rep.total, rep.prime_count) == (exact, len(ps)), (x, k)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(surveys, "EXACT_SUM_LIMIT", 1)
                assert totient_ratio_sum(x, k).total == Fraction(fixed, 1 << 128), (x, k)


@pytest.mark.parametrize("seg", [64, 97])
def test_streamed_mixed_main_term_matches_tables(monkeypatch, seg):
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT_SIZE", seg)
    for x in (1,) + STREAMED_X:
        ps = [p for p in primes_upto(2 * x) if p >= x]
        acc = 0
        for p, f in zip(ps, phi_p_minus_1(ps)):
            acc += (f * (p * p + (p - 1) * f) << 128) // ((p - 1) * p * p)
        rep = mixed_main_term(x)
        assert (rep.total, rep.prime_count) == (acc / 2 / 2**128, len(ps)), x


def test_period_examples():
    rep = period(10, 7, 2)
    assert rep.period == 42
    assert rep.maximal
    assert rep.repetend_length == 42
    rep = period(10, 3, 1)
    assert rep.period == 1
    assert not rep.maximal
    with pytest.raises(ContractError):
        period(10, 5, 1)  # base divisible by p
    with pytest.raises(ContractError):
        period(1, 7, 1)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 4, 0), "base must be >= 2, got 1"),
        ((8, 4, 0), "k must be >= 1, got 0"),
        ((8, 4, 1), "4 is not an odd prime"),
        ((8, 2, 1), "2 is not an odd prime"),
        ((14, 7, 1), "base 14 divisible by 7"),
    ],
)
def test_period_reports_the_first_bad_argument(args, message):
    # checked in order: base, then k, then p, then base mod p
    with pytest.raises(ContractError, match=message):
        period(*args)


def test_period_stationary_bases_maximal():
    from primroot.roots import RootClass, classify

    for p in primes_upto(20):
        if p == 2:
            continue
        for base in range(2, 13):
            if base % p == 0:
                continue
            if classify(base, p) is RootClass.STATIONARY:
                for k in range(1, 5):
                    rep = period(base, p, k)
                    assert rep.maximal, (base, p, k)


def test_period_by_lifting_the_exponent_equals_the_order():
    # the acceptance bases and primes, k <= 50, and three pairs whose v_p(base^t - 1) > 1
    from primroot.modmath import multiplicative_order
    from primroot.roots import CyclicGroupSpec

    pairs = [(base, p) for p in primes_upto(50)[1:] for base in range(2, 13) if base % p]
    for base, p in pairs + [(2, 1093), (3, 11), (5, 40487)]:
        for k in range(1, 51):
            spec = CyclicGroupSpec.for_prime_power(p, k)
            order = multiplicative_order(base, spec).order
            assert (period(base, p, k).period, period(base, p, k).maximal) == (order, order == spec.group_order)


def test_repetend_matches_order_exhaustive():
    for p in primes_upto(60):
        if p == 2:
            continue
        pk, k = p, 1
        while pk <= 3000:
            for base in range(2, 13):
                if base % p == 0:
                    continue
                assert naive_repetend_length(pk, base) == period(base, p, k).period
            pk *= p
            k += 1


def test_repetend_matches_order_sampled():
    rng = random.Random(16)
    odd_primes = [p for p in primes_upto(300) if p > 2]
    for _ in range(200):
        p = rng.choice(odd_primes)
        k = rng.randint(1, 3)
        if p**k > 10**5:
            continue
        base = rng.randint(2, 12)
        if base % p == 0:
            continue
        assert naive_repetend_length(p**k, base) == period(base, p, k).period


def test_repetend_digits_value():
    # 1/7 in base 10 repeats 142857
    assert repetend_digits(1, 7, 10) == [1, 4, 2, 8, 5, 7]


def scalar_gs(x: int) -> list[tuple[int, int]]:
    """(p, gs(p)) for every odd prime p <= x, by the scalar least_roots."""
    return [(p, least_roots(p).gs) for p in primes_upto(x)[1:]]


def scalar_gs_stats(x: int, values) -> GsStatsReport:
    """least_gs_stats(x) computed from the (p, gs) pairs of scalar_gs(x)."""
    gs = [g for _, g in values]
    return GsStatsReport(
        x=x,
        count=len(gs),
        max_gs=max(gs),
        mean_gs=sum(gs) / len(gs),
        max_gs_over_log_p=max(g / math.log(p) for p, g in values),
        histogram={g: gs.count(g) for g in sorted(set(gs))},
    )


def test_least_gs_stats_small():
    rep = least_gs_stats(100)
    assert rep == scalar_gs_stats(100, scalar_gs(100))
    assert sum(rep.histogram.values()) == rep.count


@pytest.mark.parametrize("workers", [0, -2])
def test_least_gs_stats_refuses_workers_below_1(workers):
    with pytest.raises(ContractError, match="workers must be >= 1"):
        least_gs_stats(50, workers=workers)


def test_least_gs_envelope():
    rep = least_gs_stats(1000)
    values = scalar_gs(1000)
    for p, gs in values:
        assert gs <= p ** 0.6 * math.log(p), (p, gs)
    assert rep == scalar_gs_stats(1000, values)
    assert rep.mean_gs > 0
    assert rep.max_gs_over_log_p > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_least_root_scans_over_small_blocks_and_segments(monkeypatch, workers):
    # blocks of 4 primes cut across segments of 64, so every block's bounds are
    # rebased, and passes of 5 (p, q) pairs cut across primes
    monkeypatch.setattr(_kernel, "KERNEL_CELLS", 5)
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT_SIZE", 64)
    x = 20300  # the window [x, 2x] holds 40487, whose g and h differ
    want = [r for r in map(least_roots, primes_in_range(x, 2 * x)) if r.g != r.h]
    rep = least_root_agreement(x, workers=workers)
    assert rep.exceptions == tuple(want) and [r.p for r in want] == [40487]
    assert rep.n_agree + rep.n_disagree == len(primes_in_range(x, 2 * x))
    assert least_gs_stats(3000, workers=workers) == scalar_gs_stats(3000, scalar_gs(3000))


def test_one_block_starts_no_pool(monkeypatch):
    # [1000, 2000] holds 135 primes and [3, 1000] 167: one block of 256 for the
    # least-root scans and for a survey with z = 20, so workers 2 runs in-process
    import multiprocessing

    want = least_root_agreement(1000), least_gs_stats(1000), stationary_survey(1000, 20)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for one block")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    got = least_root_agreement(1000, 2), least_gs_stats(1000, 2), stationary_survey(1000, 20, 2)
    assert got == want


def test_no_pool_beyond_one_cpu(monkeypatch):
    # at 256 cells the agreement window of x = 20300 holds 8 blocks
    import multiprocessing
    import os

    want = least_root_agreement(20300)
    monkeypatch.setattr(_kernel, "KERNEL_CELLS", 256)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on one CPU")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert least_root_agreement(20300, 2) == want


def test_pool_is_no_larger_than_the_machine(monkeypatch):
    import multiprocessing
    import os

    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, blocks):
            return map(fn, blocks)

    want = least_root_agreement(20300)
    monkeypatch.setattr(_kernel, "KERNEL_CELLS", 256)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    assert least_root_agreement(20300, 64) == want
    assert sizes == [2]


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_reports_each_multiple_of_256_primes(workers):
    # a block of least-root scans holds 32768 primes, so one block passes several multiples
    def progress_of(job):
        calls = []
        job(lambda done, total: calls.append((done, total)))
        return calls

    agreement = progress_of(lambda cb: least_root_agreement(10**4, workers, cb))
    assert agreement == [(k, 1033) for k in (256, 512, 768, 1024)]
    assert progress_of(lambda cb: least_gs_stats(3000, workers, cb)) == [(256, 429)]
    assert progress_of(lambda cb: stationary_survey(3000, 20, workers, cb)) == [(256, 353)]


def test_workers_under_spawn_equal_one_worker(monkeypatch):
    # a spawned worker gets the block function and its block by pickle alone;
    # the survey's window (z = 50) holds 2 blocks, and the agreement window
    # one, which runs in process
    import multiprocessing

    want = least_root_agreement(20300), stationary_survey(3000, 50)
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
    assert (least_root_agreement(20300, 2), stationary_survey(3000, 50, 2)) == want


def test_least_gs_stats_1e5_report():
    # evidence only: the mean stays tiny, the histogram mass sits at 2 and 3
    rep = least_gs_stats(10**5)
    print(
        f"gs stats at 1e5: max={rep.max_gs} mean={rep.mean_gs:.3f} "
        f"max gs/ln p={rep.max_gs_over_log_p:.3f}"
    )
    assert rep.count == len([p for p in primes_upto(10**5) if p > 2])
    assert rep.mean_gs > 2


def test_period_cross_check_raises(monkeypatch):
    # the long-division cross-check is a raise, not an assert, so it holds under python -O
    import primroot.surveys as surveys_mod

    monkeypatch.setattr(surveys_mod, "repetend_digits", lambda *args: [0])
    with pytest.raises(ArithmeticError):
        period(10, 7, 2)


@pytest.mark.parametrize(
    "job",
    [
        lambda: stationary_survey(1000, 20),
        lambda: least_root_agreement(1000),
        lambda: least_gs_stats(1000),
        lambda: fixed_g_density(2, 10**4),
    ],
    ids=["survey", "agreement", "gs-stats", "fixed-g"],
)
def test_window_jobs_never_prove_or_factor(monkeypatch, job):
    # p and the primes of p - 1 come off the sieve, never from Miller-Rabin or rho
    import primroot

    calls = []
    for name, fn in (("is_prime", is_prime), ("factorize", factorize)):
        def counting(n, _fn=fn, _name=name):
            calls.append((_name, n))
            return _fn(n)

        for module in vars(primroot).values():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting)
    job()
    assert calls == []


JOB_RSS = """
import resource, sys
import primroot._kernel, primroot.surveys as surveys
job = {
    "fixed-g": lambda: surveys.fixed_g_density(7, 10**6),
    "omega": lambda: surveys.omega_sums(10**7),
    "totient": lambda: surveys.totient_ratio_sum(10**6, 2),
    "agreement": lambda: surveys.least_root_agreement(10**6),
}[sys.argv[1]]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
job()
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024)
"""
# What one job may add to the peak RSS of an interpreter with numpy and the
# kernel loaded.  On a 2-core x86-64 host with numpy 2.4 the jobs below grew
# it by 8.8, 9.3, 9.4 and 8.3 MiB; with segments of 2**20 and fixed-g's
# kernel in one pass, by 24.9, 15.8, 14.3 and 11.6 MiB.
JOB_GROWTH_BYTES = 12 << 20


@pytest.mark.parametrize("job", ["fixed-g", "omega", "totient", "agreement"])
def test_a_bulk_job_stays_inside_its_memory_bound(job):
    # ru_maxrss counts KiB on Linux and is carried across execve, so a small
    # interpreter in between keeps this test process's own peak out of the reading
    env = {**os.environ, "PYTHONPATH": str(Path(surveys.__file__).parents[1])}
    relay = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", relay, sys.executable, "-c", JOB_RSS, job],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    grown = int(done.stdout.split()[-1])
    assert 0 < grown <= JOB_GROWTH_BYTES, grown
