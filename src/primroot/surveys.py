"""Bulk empirical computations over prime windows.

Euler-product density constants, totient-ratio sums, stationary and
nonstationary root counts, least-root statistics, omega sums, and repetend
periods.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import TYPE_CHECKING

from .arith import (
    _check_table_budget,
    _digits,
    _omega_mobius_segment,
    _phi_segment,
    _segments,
    first_primes,
    prime_windows,
)
from .errors import ContractError, ResourceLimitError
from .modmath import multiplicative_order
from .report import Report
from .roots import CyclicGroupSpec, LeastRoots, _least_roots

if TYPE_CHECKING:  # fractions, and decimal with it, loads only in totient_ratio_sum
    from fractions import Fraction

# Peak bytes of one stationary_survey worker per column, for 2z columns of g
# and KERNEL_CELLS more for one block of (p, g) cells: the cached g tables,
# the rows of a block, and a fill pass of up to KERNEL_CELLS cells.
# tracemalloc read, per column, 34.6 for a block of 256 primes at 2z = 128
# (the most), and for one prime with nine primes in p-1 (the most below
# 2**29) 14.0 at 2z = 1e4, 12.9 at 2e4 and 21.1 at 2e6.
SURVEY_CELL_BYTES = 36
PROGRESS_EVERY = 256  # rows between progress reports
TOTIENT_SLICE = 1 << 14  # primes per list handed to the totient sums

FIXED_POINT_BITS = 128  # fractional bits for large accumulations
EXACT_SUM_LIMIT = 10_000  # exact Fraction accumulation up to this x
LONG_DIVISION_LIMIT = 10**6  # repetend cross-check while p^k stays below this

#: The only primes below 1e12 whose least root mod p differs from mod p^2,
#: as (p, g, h); windows that large are out of sieve reach, so these are
#: verified pointwise.
KNOWN_LEAST_ROOT_EXCEPTIONS = ((40487, 5, 10), (6692367337, 5, 7))


# ---------------------------------------------------------------------------
# Euler products and derived constants


@dataclass(frozen=True)
class ConstantsReport(Report):
    """a1, a2 partial products plus c2 = (a1+a2)/2 and c3 = (a1-a2)/2."""

    prime_count: int
    a1: float
    a2: float
    c2: float
    c3: float


def euler_product_constant(k: int, prime_count: int) -> float:
    """Product of 1 - (p^k - (p-1)^k) / (p^k (p-1)) over the first `prime_count` primes.

    Accumulated as compensated sums of log1p terms, giving 15+ significant
    digits; the two printed reference constants are reproduced to better
    than 1e-12 relative error at prime_count = 10**4.
    """
    if k < 1 or prime_count < 1:
        raise ContractError("k and prime_count must be >= 1")
    terms = []
    for p in first_primes(prime_count):
        num = p**k - (p - 1) ** k
        den = p**k * (p - 1)
        if num >= den:  # exactly: the local factor 1 - num/den is <= 0
            raise ArithmeticError(f"local factor at {p} not positive")
        terms.append(math.log1p(-num / den))
    return math.exp(math.fsum(terms))


def density_constants(prime_count: int) -> ConstantsReport:
    """c2 and c3 derived from a1 and a2 over the same prime set."""
    a1 = euler_product_constant(1, prime_count)
    a2 = euler_product_constant(2, prime_count)
    return ConstantsReport(
        prime_count=prime_count,
        a1=a1,
        a2=a2,
        c2=(a1 + a2) / 2,
        c3=(a1 - a2) / 2,
    )


@lru_cache(maxsize=1)
def _reference_c2() -> float:
    return density_constants(10_000).c2


# ---------------------------------------------------------------------------
# Totient-ratio sums


@dataclass(frozen=True)
class TotientRatioReport(Report):
    """Sum over p <= x of (phi(p-1)/(p-1))^k with two normalizations."""

    x: int
    k: int
    total: Fraction
    exact: bool
    prime_count: int
    per_prime: float
    per_x_log_x: float


def totient_ratio_sum(x: int, k: int = 1) -> TotientRatioReport:
    """Accumulate (phi(p-1)/(p-1))^k over primes p <= x.

    x up to EXACT_SUM_LIMIT is summed as exact rationals.  Larger x
    switches to a 128-fractional-bit fixed-point accumulator: each term is
    still formed exactly, and the total carries at worst pi(x) * 2^-128 of
    rounding, far below anything a float report can show.
    """
    from fractions import Fraction

    if x < 2 or k < 1:
        raise ContractError("need x >= 2 and k >= 1")
    exact = x <= EXACT_SUM_LIMIT
    total, acc, count = Fraction(0), 0, 0
    for ps, fs in _prime_totients(2, x):
        count += len(ps)
        if exact:
            total = sum((Fraction(f, p - 1) ** k for p, f in zip(ps, fs)), total)
        else:
            acc += sum((f**k << FIXED_POINT_BITS) // (p - 1) ** k for p, f in zip(ps, fs))
    if not exact:
        total = Fraction(acc, 1 << FIXED_POINT_BITS)
    value = float(total)
    return TotientRatioReport(
        x=x,
        k=k,
        total=total,
        exact=exact,
        prime_count=count,
        per_prime=value / count,
        per_x_log_x=value / (x / math.log(x)),
    )


def _prime_totients(lo: int, hi: int):
    """The primes p of [lo, hi] and phi(p - 1), as two lists of at most TOTIENT_SLICE each."""
    for start, size, marks, big, prime in _segments(max(lo - 1, 1), hi - 1):
        at = prime.nonzero()[0]
        ps, fs = at + start + 1, _phi_segment(marks, big)[at]
        for i in range(0, len(at), TOTIENT_SLICE):
            yield ps[i : i + TOTIENT_SLICE].tolist(), fs[i : i + TOTIENT_SLICE].tolist()


@dataclass(frozen=True)
class MixedMainTermReport(Report):
    """(1/2) sum over x <= p <= 2x of (phi(p-1)/(p-1)) (1 + phi(phi(p^2))/p^2)."""

    x: int
    total: float
    prime_count: int
    reference_c2: float
    ratio_to_c2_x_log_x: float


def mixed_main_term(x: int) -> MixedMainTermReport:
    """Main-term sum for the window [x, 2x], reported against c2 * x/log x.

    phi(phi(p^2)) = (p-1) phi(p-1) since phi(p^2) = p(p-1) with p prime, so
    each term is rational and is accumulated in fixed point.
    """
    if x < 1:
        raise ContractError(f"need x >= 1, got {x}")
    acc = count = 0
    for ps, fs in _prime_totients(x, 2 * x):
        count += len(ps)
        acc += sum(
            (f * (p * p + (p - 1) * f) << FIXED_POINT_BITS) // ((p - 1) * p * p) for p, f in zip(ps, fs)
        )
    total = acc / 2 / 2**FIXED_POINT_BITS
    c2 = _reference_c2()
    expected = c2 * x / math.log(x) if x > 1 else float("nan")
    return MixedMainTermReport(
        x=x,
        total=total,
        prime_count=count,
        reference_c2=c2,
        ratio_to_c2_x_log_x=total / expected if x > 1 else float("nan"),
    )


# ---------------------------------------------------------------------------
# Stationary / nonstationary survey


@dataclass(frozen=True)
class SurveyRow(Report):
    """Counts of root classes among g in [2, 2z] for one prime."""

    p: int
    z: int
    n_pr: int
    n_s: int
    n_n: int
    g: int
    h: int
    gs: int


SURVEY_COLUMNS = tuple(f.name for f in fields(SurveyRow))


@dataclass(frozen=True)
class StationarySurveyReport(Report):
    x: int
    z: int
    rows: tuple[SurveyRow, ...]
    n_pr_total: int
    n_s_total: int
    n_n_total: int
    #: N_s / (z * number of primes in the window)
    ns_per_z_pi: float
    #: N_s / z^2, the pair-count normalization
    ns_per_z2: float
    nn_per_z_pi: float
    nn_per_z2: float


def _least_block(block) -> list[LeastRoots]:
    """The least roots of each prime of a block (p, bounds, q) of the window."""
    p, bounds, q = block
    cuts, qs = bounds.tolist(), q.tolist()
    return [_least_roots(x, qs[a:b]) for x, a, b in zip(p.tolist(), cuts, cuts[1:])]


def _survey_block(block, z: int) -> list[SurveyRow]:
    """The survey row of each prime of a block, by the batch kernel.

    The least roots come from the kernel's rows, or from a scan of the prime
    whose least stationary root exceeds 2z.
    """
    from ._kernel import _count_roots_batch
    p, bounds, q = block
    cuts, qs = bounds.tolist(), q.tolist()
    n_s, n_n, g, h = (a.tolist() for a in _count_roots_batch(*block, 2 * z))
    rows = []
    for i, x in enumerate(p.tolist()):
        r = LeastRoots(x, g[i], h[i], h[i]) if h[i] else _least_roots(x, qs[cuts[i] : cuts[i + 1]])
        rows.append(SurveyRow(p=x, z=z, n_pr=n_s[i] + n_n[i], n_s=n_s[i], n_n=n_n[i], g=r.g, h=r.h, gs=r.gs))
    return rows


def _disagreements_block(block) -> list[LeastRoots]:
    """The least roots of the block's primes with g(p) != h(p)."""
    return [r for r in _least_block(block) if r.g != r.h]


def _gs_block(block) -> list[tuple[int, int]]:
    return [(r.p, r.gs) for r in _least_block(block)]


def _require_workers(workers: int) -> None:
    if workers < 1:
        raise ContractError(f"workers must be >= 1, got {workers}")


def _window_map(fn, window, cells: int, workers: int, progress=None) -> list:
    """Concatenated fn(block) over the window, whose primes cost `cells` (p, g) pairs each, in order.

    A block is a slice of the window's arrays, in the window's own form
    (p, bounds, q) with bounds rebased to 0.  progress(done, total) is called
    whenever the count of primes done passes a multiple of PROGRESS_EVERY.
    A block holds PROGRESS_EVERY primes, or the largest power of two of them
    whose pairs fit KERNEL_CELLS if that is fewer, so block ends fall on its
    multiples.  The pool gets at most one process per block and per CPU.
    """
    from ._kernel import KERNEL_CELLS
    p, bounds, q = window
    size = min(PROGRESS_EVERY, 1 << (max(1, KERNEL_CELLS // cells).bit_length() - 1))
    cuts = [*range(0, len(p), size), len(p)]
    blocks = ((p[i:j], bounds[i : j + 1] - bounds[i], q[bounds[i] : bounds[j]]) for i, j in zip(cuts, cuts[1:]))
    workers = min(workers, len(cuts) - 1, os.cpu_count() or 1)
    if workers == 1:
        return _collect(map(fn, blocks), size, len(p), progress)
    import multiprocessing

    with multiprocessing.Pool(workers) as pool:
        return _collect(pool.imap(fn, blocks), size, len(p), progress)


def _collect(results, size: int, total: int, progress) -> list:
    out: list = []
    done = 0
    for res in results:
        out.extend(res)
        before, done = done, min(done + size, total)
        if progress and done // PROGRESS_EVERY > before // PROGRESS_EVERY:
            progress(done, total)
    return out


def stationary_survey(
    x: int, z: int, workers: int = 1, progress=None
) -> StationarySurveyReport:
    """Per-prime root-class counts over the window [x, 2x] with g <= 2z.

    Rows are ordered by p and aggregates are summed in that order, so the
    output is identical for any worker count.
    """
    from ._kernel import KERNEL_CELLS, _g_levels, _window
    if x < 2 or z < 2:
        raise ContractError("need x >= 2 and z >= 2")
    _require_workers(workers)
    # every worker holds the g tables and one block
    _check_table_budget(
        (2 * z + KERNEL_CELLS) * workers, SURVEY_CELL_BYTES, "survey columns ((2z + KERNEL_CELLS) x workers)"
    )
    window = _window(x, 2 * x)
    n_p = len(window[0])
    if not n_p:
        raise ContractError(f"no odd primes in [{x}, {2 * x}]")
    if 2 * z >= int(window[0][0]) ** 2:
        raise ContractError(f"2z = {2 * z} reaches p^2 for p = {window[0][0]}")
    try:
        rows = _window_map(partial(_survey_block, z=z), window, 2 * z, workers, progress)
    finally:
        _g_levels.cache_clear()  # the g tables of this z are not needed again
    n_s = sum(r.n_s for r in rows)
    n_n = sum(r.n_n for r in rows)
    n_pr = sum(r.n_pr for r in rows)
    return StationarySurveyReport(
        x=x,
        z=z,
        rows=tuple(rows),
        n_pr_total=n_pr,
        n_s_total=n_s,
        n_n_total=n_n,
        ns_per_z_pi=n_s / (z * n_p),
        ns_per_z2=n_s / (z * z),
        nn_per_z_pi=n_n / (z * n_p),
        nn_per_z2=n_n / (z * z),
    )


# ---------------------------------------------------------------------------
# Least-root agreement


@dataclass(frozen=True)
class AgreementReport(Report):
    """Counts of primes in [x, 2x] with g(p) == h(p) versus g(p) != h(p)."""

    x: int
    n_agree: int
    n_disagree: int
    exceptions: tuple[LeastRoots, ...]


def least_root_agreement(x: int, workers: int = 1, progress=None) -> AgreementReport:
    """Scan [x, 2x] for primes whose least root mod p fails to lift."""
    from ._kernel import _window
    if x < 2:
        raise ContractError(f"need x >= 2, got {x}")
    _require_workers(workers)
    window = _window(x, 2 * x)
    exceptions = tuple(_window_map(_disagreements_block, window, 1, workers, progress))
    return AgreementReport(
        x=x,
        n_agree=len(window[0]) - len(exceptions),
        n_disagree=len(exceptions),
        exceptions=exceptions,
    )


# ---------------------------------------------------------------------------
# Fixed-g density


@dataclass(frozen=True)
class FixedGDensity(Report):
    g: int
    x: int
    stationary_count: int
    prime_count: int
    fraction: float


def fixed_g_density(g: int, x: int) -> FixedGDensity:
    """Fraction of primes p <= x for which g is a stationary root.

    g = 0, +-1 and perfect squares are rejected: they can never generate for
    almost all p, so their density question is vacuous.  p = 2 counts in the
    denominator but never in the numerator.  Each p classifies the residue
    g mod p, not g, so where p <= |g| or g < 0 the count can differ from
    classify(g mod p^2, p): g = 8 counts p = 3, though 8^2 = 1 mod 9.
    """
    from ._kernel import _int_mod, _stationary_batch
    if g in (-1, 0, 1) or (g > 1 and math.isqrt(g) ** 2 == g):
        raise ContractError(f"g = {g} excluded (unit or perfect square)")
    if x < 3:
        raise ContractError(f"need x >= 3, got {x}")
    prime_count = 1  # p = 2 counts in the denominator only
    hits = 0
    for p, owner, q in prime_windows(3, x):
        hits += int(_stationary_batch(_int_mod(g, p), p, owner, q).sum())
        prime_count += len(p)
    return FixedGDensity(
        g=g,
        x=x,
        stationary_count=hits,
        prime_count=prime_count,
        fraction=hits / prime_count,
    )


# ---------------------------------------------------------------------------
# Omega sums


@dataclass(frozen=True)
class OmegaSumsReport(Report):
    """Sieve-built omega sums with unasserted normalizations.

    The shifted-prime sums have no proven asymptotic constants; ratios are
    emitted as data only.
    """

    x: int
    sum_two_omega_all: int
    sum_two_omega_shifted: int
    sum_mu_omega_shifted: int
    sum_omega_shifted: int
    prime_count: int
    all_per_x_log_x: float
    shifted_per_pnt_loglog: float
    omega_shifted_per_prime: float
    mu_omega_per_prime: float


def omega_sums(x: int) -> OmegaSumsReport:
    """Sum 2^omega(n) over n <= x and three shifted-prime sums, one sieve segment at a time."""
    from ._kernel import _sum_two_pow
    if x < 2:
        raise ContractError(f"need x >= 2, got {x}")
    total_all = total_shifted = mu_omega = omega_shifted = n_primes = 0
    for start, size, marks, big, prime in _segments(1, x):
        w, mu = _omega_mobius_segment(marks, big)
        at = prime[: x - start].nonzero()[0]  # m = start + at[k] is p - 1 for a prime p <= x
        w_shifted = w[at]
        total_all += _sum_two_pow(w)
        total_shifted += _sum_two_pow(w_shifted)
        mu_omega += int((mu[at] * w_shifted).sum())
        omega_shifted += int(w_shifted.sum())
        n_primes += len(at)
    lx = math.log(x)
    return OmegaSumsReport(
        x=x,
        sum_two_omega_all=total_all,
        sum_two_omega_shifted=total_shifted,
        sum_mu_omega_shifted=mu_omega,
        sum_omega_shifted=omega_shifted,
        prime_count=n_primes,
        all_per_x_log_x=total_all / (x * lx),
        shifted_per_pnt_loglog=(
            total_shifted / (x / lx * math.log(lx)) if lx > 1 else float("nan")
        ),
        omega_shifted_per_prime=omega_shifted / n_primes,
        mu_omega_per_prime=mu_omega / n_primes,
    )


# ---------------------------------------------------------------------------
# Repetend periods


@dataclass(frozen=True)
class PeriodResult(Report):
    """Multiplicative order of the base mod p^k, i.e. the repetend length of 1/p^k."""

    base: int
    p: int
    k: int
    period: int
    maximal: bool
    repetend_length: int | None


def repetend_digits(numerator: int, modulus: int, base: int) -> list[int]:
    """Digits of the repeating block of numerator/modulus in the given base.

    Requires gcd(base, modulus) = 1 so the expansion is purely periodic.
    """
    digits = []
    r = numerator % modulus
    first = r
    while True:
        r *= base
        digits.append(r // modulus)
        r %= modulus
        if r == first:
            return digits


def period(base: int, p: int, k: int) -> PeriodResult:
    """Period of the base-`base` expansion of 1/p^k.

    The period is the multiplicative order of the base mod p^k.  By lifting
    the exponent it is t * p^(k - v), for t the order mod p and v =
    v_p(base^t - 1) capped at k.  It is maximal, p^(k-1)(p-1), exactly when
    t = p - 1 and v = 1.  A period with more digits than the interpreter
    converts to a string is refused before it is built.  While p^k stays
    small the repetend is also produced by long division and its length is
    checked against the period.
    """
    if base < 2:
        raise ContractError(f"base must be >= 2, got {base}")
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    spec = CyclicGroupSpec.for_prime(p)  # validates p
    if base % p == 0:
        raise ContractError(f"base {base} divisible by {p}; expansion terminates")
    t = multiplicative_order(base, spec).order
    v = _lifted_valuation(base, t, p, k)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before Python 3.10.7
    if limit and (digits := _digits(t, p, k - v)) > limit:
        raise ResourceLimitError(
            f"the period of 1/{p}^{k} in base {base} has {digits} digits, "
            f"over the interpreter's {limit}-digit limit for printing an int"
        )
    n = t * p ** (k - v)
    rep_len = None
    if k < LONG_DIVISION_LIMIT.bit_length() and p**k <= LONG_DIVISION_LIMIT:  # p**k > 2**k: k bounds it unbuilt
        rep_len = len(repetend_digits(1, p**k, base))
        if rep_len != n:
            raise ArithmeticError(f"long division found period {rep_len}, order is {n}")
    return PeriodResult(
        base=base,
        p=p,
        k=k,
        period=n,
        maximal=t == p - 1 and v == 1,
        repetend_length=rep_len,
    )


def _lifted_valuation(base: int, t: int, p: int, k: int) -> int:
    """min(k, v_p(base**t - 1)) for base**t = 1 mod p, read mod p**j for j doubling up to k.

    v is 1 for almost every (base, p), so p**2 mostly suffices at any k.
    """
    j = 1
    while j < k:
        j = min(2 * j, k)
        r = pow(base, t, p**j) - 1
        if r:
            v = 0
            while r % p == 0:
                r //= p
                v += 1
            return v
    return k


# ---------------------------------------------------------------------------
# Least stationary root statistics


@dataclass(frozen=True)
class GsStatsReport(Report):
    """Distribution of the least simultaneous root over primes p <= x."""

    x: int
    count: int
    max_gs: int
    mean_gs: float
    max_gs_over_log_p: float
    histogram: dict[int, int]


def least_gs_stats(x: int, workers: int = 1, progress=None) -> GsStatsReport:
    """Max, mean and histogram of gs(p) for odd p <= x; evidence, no assertion."""
    from ._kernel import _window
    if x < 3:
        raise ContractError(f"need x >= 3, got {x}")
    _require_workers(workers)
    values = _window_map(_gs_block, _window(3, x), 1, workers, progress)
    hist = Counter(gs for _, gs in values)
    return GsStatsReport(
        x=x,
        count=len(values),
        max_gs=max(gs for _, gs in values),
        mean_gs=sum(gs for _, gs in values) / len(values),
        max_gs_over_log_p=max(gs / math.log(p) for p, gs in values),
        histogram=dict(sorted(hist.items())),
    )
