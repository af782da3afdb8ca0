"""Primality, prime enumeration, factorization, and the functions phi, omega, mu.

Everything is deterministic: the Miller-Rabin witness set is fixed, and the
Pollard-rho parameter schedule is fixed, so factorizations are reproducible
bit for bit across runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ResourceLimitError

# Witnesses proving primality for every n below 3317044064679887385961981,
# which covers the full 64-bit range and more (Sorenson & Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981

# Fixed number of extra rounds above the deterministic bound; bases are drawn
# from a splitmix-style generator seeded by n itself, so results stay
# reproducible.  Above the bound the answer is "strong probable prime", not
# a certificate.
EXTRA_MR_ROUNDS = 32

_TRIAL_BOUND = 1000  # strip factors below this before Pollard rho

DEFAULT_SEGMENT_SIZE = 1 << 20  # flags per sieve segment
DEFAULT_MAX_SPAN = 1 << 28  # widest [lo, hi] accepted by primes_in_range
# Bytes a bulk table may hold at its peak: int32 entries over the widest span.
TABLE_BUDGET_BYTES = 4 * DEFAULT_MAX_SPAN
_SIEVE_WORK_BYTES = 5  # per entry: the factor sieve's int32 cofactors and one bool mask


@dataclass(frozen=True)
class Factorization:
    """An integer n >= 1 with its ordered prime-power decomposition."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def recompose(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


@dataclass(frozen=True)
class PrimeRange:
    """All primes in the inclusive interval [lo, hi], ascending."""

    lo: int
    hi: int
    primes: tuple[int, ...]


@dataclass(frozen=True)
class PrimalityInfo:
    """Primality verdict plus how it was reached.

    `deterministic` is True when n is below the proven witness bound; above
    it the verdict means "strong probable prime after `rounds` rounds" and
    can in principle be wrong for adversarial inputs.
    """

    n: int
    probably_prime: bool
    deterministic: bool
    rounds: int


def _mr_round(n: int, a: int, d: int, s: int) -> bool:
    """One strong-pseudoprime round; True means `a` does not witness n composite."""
    a %= n
    if a == 0:
        return True
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _seeded_bases(n: int, count: int):
    # splitmix64 stream seeded by n: fixed, documented, reproducible
    state = n & 0xFFFFFFFFFFFFFFFF
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        z ^= z >> 31
        yield 2 + z % (n - 3)


def is_prime_info(n: int) -> PrimalityInfo:
    if n < 2:
        return PrimalityInfo(n, False, True, 0)
    for p in _MR_BASES:
        if n % p == 0:
            return PrimalityInfo(n, n == p, True, 0)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if not _mr_round(n, a, d, s):
            return PrimalityInfo(n, False, True, len(_MR_BASES))
    if n < _MR_DETERMINISTIC_BOUND:
        return PrimalityInfo(n, True, True, len(_MR_BASES))
    for a in _seeded_bases(n, EXTRA_MR_ROUNDS):
        if not _mr_round(n, a, d, s):
            return PrimalityInfo(n, False, True, len(_MR_BASES) + EXTRA_MR_ROUNDS)
    return PrimalityInfo(n, True, False, len(_MR_BASES) + EXTRA_MR_ROUNDS)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 2**64 (and well beyond); see is_prime_info."""
    return is_prime_info(n).probably_prime


# ---------------------------------------------------------------------------
# Sieves (numpy): prime flags, the factor sieve and the tables built on it.
# Each table checks its memory need against TABLE_BUDGET_BYTES before it
# allocates anything.


def _check_table_budget(n: int, entry_bytes: int) -> None:
    if n < 0:
        raise ContractError(f"table size must be >= 0, got {n}")
    need = (n + 1) * entry_bytes
    if need > TABLE_BUDGET_BYTES:
        raise ResourceLimitError(
            f"tables up to {n} need {need} bytes, over the {TABLE_BUDGET_BYTES}-byte budget"
        )


def prime_flags(n: int) -> np.ndarray:
    """Boolean array a with a[i] == (i prime), for 0 <= i <= n."""
    _check_table_budget(n, 1)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return flags


def _factor_sieve(n: int, mark, cofactors: bool = True) -> np.ndarray | None:
    """The one factor sieve behind every arithmetic table over [0, n].

    Calls mark(p) for each prime p <= isqrt(n), largest first, so that a
    plain assignment per prime leaves the smallest one; only these base
    primes are sieved.  With `cofactors`, it also returns big with
    big[m] = m / (isqrt(n)-smooth part of m): the one prime factor of m
    above isqrt(n), or 1 (two such factors would multiply past n).  Callers
    check the budget for their tables plus _SIEVE_WORK_BYTES per entry
    before they allocate.
    """
    base = np.flatnonzero(prime_flags(math.isqrt(n)))[::-1].tolist()
    if not cofactors:
        for p in base:
            mark(p)
        return None
    smooth = np.ones(n + 1, dtype=np.int32)
    for p in base:
        mark(p)
        q = p
        while q <= n:
            smooth[q::q] *= p
            q *= p
    for lo in range(0, n + 1, DEFAULT_SEGMENT_SIZE):  # m / smooth[m], in place
        block = smooth[lo : lo + DEFAULT_SEGMENT_SIZE]
        np.floor_divide(np.arange(lo, lo + len(block), dtype=np.int32), block, out=block)
    return smooth


def spf_table(n: int) -> np.ndarray:
    """Smallest prime factor of every 0 <= m <= n (int32; 0 at m = 0 and 1)."""
    _check_table_budget(n, 4 + _SIEVE_WORK_BYTES)
    spf = np.zeros(n + 1, dtype=np.int32)

    def mark(p: int) -> None:
        spf[p::p] = p

    _factor_sieve(n, mark, cofactors=False)
    # no base prime divides an unmarked m >= 2, so m is prime
    unmarked = np.flatnonzero(spf[2:] == 0) + 2
    spf[unmarked] = unmarked
    return spf


def phi_table(n: int) -> np.ndarray:
    """phi(m) for all 0 <= m <= n, as int32."""
    _check_table_budget(n, 4 + _SIEVE_WORK_BYTES)
    phi = np.ones(n + 1, dtype=np.int32)

    def mark(p: int) -> None:
        phi[p::p] *= p - 1
        q = p * p
        while q <= n:
            phi[q::q] *= p
            q *= p

    big = _factor_sieve(n, mark)
    big -= big > 1  # phi(r) = r - 1 at the large prime r, 1 where there is none
    phi *= big  # big[0] = 0 sets phi(0) = 0
    return phi


def omega_mobius_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """omega(m) and mu(m) for all 0 <= m <= n, as int8, from one sieve pass."""
    _check_table_budget(n, 2 + _SIEVE_WORK_BYTES)
    w = np.zeros(n + 1, dtype=np.int8)
    mu = np.ones(n + 1, dtype=np.int8)

    def mark(p: int) -> None:
        w[p::p] += 1
        multiples = mu[p::p]
        np.negative(multiples, out=multiples)
        mu[p * p :: p * p] = 0

    big = _factor_sieve(n, mark)
    has_big = big > 1
    w += has_big
    np.negative(mu, out=mu, where=has_big)
    mu[0] = 0
    return w, mu


def omega_table(n: int) -> np.ndarray:
    """omega(m) for all 0 <= m <= n, as int8."""
    return omega_mobius_tables(n)[0]


def mobius_table(n: int) -> np.ndarray:
    """mu(m) for all 0 <= m <= n, as int8."""
    return omega_mobius_tables(n)[1]


def _default_segment_size() -> int:
    raw = os.environ.get("PRIMROOT_SEGMENT_SIZE")
    if raw:
        size = int(raw)
        if size < 64:
            raise ContractError(f"PRIMROOT_SEGMENT_SIZE too small: {size}")
        return size
    return DEFAULT_SEGMENT_SIZE


def primes_in_range(
    lo: int,
    hi: int,
    segment_size: int | None = None,
    max_span: int = DEFAULT_MAX_SPAN,
) -> PrimeRange:
    """Segmented sieve over the inclusive interval [lo, hi].

    Memory use is bounded by the segment size (default 2**20 flags, or the
    PRIMROOT_SEGMENT_SIZE environment variable).  Raises ResourceLimitError
    when the requested span exceeds `max_span`.
    """
    if lo > hi:
        raise ContractError(f"empty range: lo={lo} > hi={hi}")
    if hi - lo > max_span:
        raise ResourceLimitError(f"range width {hi - lo} exceeds budget {max_span}")
    lo = max(lo, 2)
    if lo > hi:
        return PrimeRange(lo, hi, ())
    seg = segment_size if segment_size is not None else _default_segment_size()
    base = np.flatnonzero(prime_flags(math.isqrt(hi))).tolist()
    out: list[int] = []
    start = lo
    while start <= hi:
        end = min(start + seg - 1, hi)
        flags = np.ones(end - start + 1, dtype=bool)
        for p in base:
            first = max(p * p, (start + p - 1) // p * p)
            if first <= end:
                flags[first - start :: p] = False
        out.extend((np.flatnonzero(flags) + start).tolist())
        start = end + 1
    # base primes inside the window survive: marking starts at p*p
    return PrimeRange(lo, hi, tuple(out))


def primes_upto(n: int) -> list[int]:
    """All primes <= n (convenience wrapper over the segmented sieve)."""
    if n < 2:
        return []
    return list(primes_in_range(2, n).primes)


def first_primes(count: int) -> list[int]:
    """The first `count` primes, ascending."""
    if count < 1:
        return []
    if count < 6:
        return [2, 3, 5, 7, 11][:count]
    # PNT upper estimate, padded; grows if the estimate ever falls short
    bound = int(count * (math.log(count) + math.log(math.log(count)))) + 16
    while True:
        ps = primes_upto(bound)
        if len(ps) >= count:
            return ps[:count]
        bound *= 2


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, Brent's cycle variant.

    The polynomial constant c walks 1, 2, 3, ... so the factor found for a
    given n never changes between runs.
    """
    y0, m = 2, 128
    c = 1
    while True:
        y, r, q = y0, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
        c += 1


_SMALL_PRIMES = np.flatnonzero(prime_flags(_TRIAL_BOUND)).tolist()


def factorize(n: int) -> Factorization:
    """Complete prime-power decomposition of n >= 1.

    Trial division below a fixed bound, then deterministic Brent rho on the
    remaining cofactors.  factorize(1) has an empty factor list.
    """
    if n < 1:
        raise ContractError(f"factorize requires n >= 1, got {n}")
    original = n
    found: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    fac = Factorization(original, tuple(sorted(found.items())))
    if fac.recompose() != original:
        raise ArithmeticError(f"factors of {original} recompose to {fac.recompose()}")
    return fac


def factorization_times_prime(f: Factorization, p: int, e: int = 1) -> Factorization:
    """Factorization of f.n * p**e for prime p (merges without refactoring)."""
    d = dict(f.factors)
    d[p] = d.get(p, 0) + e
    return Factorization(f.n * p**e, tuple(sorted(d.items())))


def euler_phi(f: Factorization) -> int:
    """Euler totient from a factorization: product of p**(e-1) * (p-1)."""
    out = 1
    for p, e in f.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def omega(f: Factorization) -> int:
    """Number of distinct prime divisors."""
    return len(f.factors)


def mobius(f: Factorization) -> int:
    """Mobius function: 0 on non-squarefree, else (-1)**omega."""
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def squarefree_divisors(f: Factorization) -> list[tuple[int, int]]:
    """All 2**omega(n) squarefree divisors d of n with their mu(d), ascending."""
    divs = [(1, 1)]
    for p, _ in f.factors:
        divs += [(d * p, -mu) for d, mu in divs]
    divs.sort()
    return divs
