"""Primality, prime enumeration, factorization, and Euler's phi.

Everything is deterministic: the Miller-Rabin witnesses are a fixed prefix of
one base list, sized by n, and the Pollard-rho parameter schedule is fixed,
so factorizations are reproducible bit for bit across runs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, starmap

from .errors import ContractError, ResourceLimitError

# The one witness list, the first 13 primes.  _MR_PSI[t - 1] is psi_t, the
# least strong pseudoprime to all of its first t bases (OEIS A014233; Jaeschke,
# Sorenson & Webster), so those t bases prove every n < psi_t: 5 bases below
# 2152302898747, at most 12 below 2**64, all 13 below psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
_MR_DETERMINISTIC_BOUND = _MR_PSI[-1]

# Fixed number of extra rounds above the deterministic bound; bases are drawn
# from a splitmix-style generator seeded by n itself, so results stay
# reproducible.  Above the bound the answer is "strong probable prime", not
# a certificate.
EXTRA_MR_ROUNDS = 32

_TRIAL_BOUND = 1000  # strip factors below this before Pollard rho
# Squarings Brent rho may spend on one cofactor: a few seconds mod a 40-digit
# n on a 2-core x86-64 host.  The most measured was 104,446 over 10**5 random
# n < 10**18, 118,014 over the pointwise benchmark's queries of seeds 1-10 and
# 211,326 over 300 products of two random primes in [10**9, 3.16 * 10**9).
RHO_STEPS = 1 << 22

# primes_upto(n) reads the bytearray sieve below this n, the segmented sieve
# from it on.  On a 2-core x86-64 host with numpy loaded, the byte sieve takes
# 26-35 ms at 10**6 against 6-8 ms in segments of 2**19, about a third of the
# 65-115 ms that importing numpy costs a process that needs it for nothing
# else; the two break even for such a process near 3 * 10**6 to 4 * 10**6.
_SIEVE_CROSSOVER = 10**6

DEFAULT_SEGMENT_SIZE = 1 << 19  # integers per sieve segment
DEFAULT_MAX_SPAN = 1 << 28  # widest [lo, hi] any sieve walk accepts
# Bytes a bulk table's entries may take: int32 entries over the widest span.
TABLE_BUDGET_BYTES = 4 * DEFAULT_MAX_SPAN
# Peak bytes per mark of a walk: the base prime's int in base, its (p, q)
# tuple, its entry of q_arr and one segment's (p, q, off) tuple with its
# temporaries.  ru_maxrss growth over a 1001-integer walk at 1e12 and 1e13
# (2-core x86-64) was 257 and 253 per base prime for primes_in_range (one
# mark each), and 243 and 241 per mark for prime_windows (two marks each).
BASE_MARK_BYTES = 288


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
class PrimalityInfo:
    """Primality verdict plus how it was reached.

    `deterministic` is True when n is below the proven witness bound; above
    it the verdict means "strong probable prime after `rounds` rounds" and
    can in principle be wrong for adversarial inputs.  `rounds` is the size
    of the witness set n's size calls for: t = bisect_right(_MR_PSI, n) + 1
    bases below the bound, all 13 plus EXTRA_MR_ROUNDS seeded bases above
    it, and 0 when n < 2 or a base divides n.  A composite stops at its
    first witness, so fewer rounds may run than reported.
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
    bases = _MR_BASES[: bisect_right(_MR_PSI, n) + 1]
    for a in bases:
        if not _mr_round(n, a, d, s):
            return PrimalityInfo(n, False, True, len(bases))
    if n < _MR_DETERMINISTIC_BOUND:
        return PrimalityInfo(n, True, True, len(bases))
    for a in _seeded_bases(n, EXTRA_MR_ROUNDS):
        if not _mr_round(n, a, d, s):
            return PrimalityInfo(n, False, True, len(bases) + EXTRA_MR_ROUNDS)
    return PrimalityInfo(n, True, False, len(bases) + EXTRA_MR_ROUNDS)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 2**64 (and well beyond); see is_prime_info."""
    return is_prime_info(n).probably_prime


# ---------------------------------------------------------------------------
# Sieves: one bytearray sieve (the segmented sieve's base primes, factorize's
# trial primes, short prime lists), the one segmented sieve and what is built
# on it.  Each walk charges its base primes and their flags against
# TABLE_BUDGET_BYTES before it allocates anything.  numpy is imported by the
# functions that use it, so importing this module never loads it.


def _sieve(n: int) -> bytearray:
    """Eratosthenes over a bytearray: byte i is 1 exactly when i <= n is prime."""
    flags = bytearray([1]) * (n + 1)
    flags[:2] = bytes(len(flags[:2]))
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return flags


def _check_table_budget(count: int, entry_bytes: int, unit: str, p: int = 1, e: int = 0) -> None:
    """Refuse count * p**e entries of `unit`, entry_bytes each, over TABLE_BUDGET_BYTES.

    A p**e with more bits than the budget is refused by its log2, unbuilt.
    """
    if e * math.log2(p) <= TABLE_BUDGET_BYTES.bit_length() and count * p**e * entry_bytes <= TABLE_BUDGET_BYTES:
        return
    raise ResourceLimitError(
        f"{_count(count, p, e)} {unit} need {_count(count * entry_bytes, p, e)} bytes, "
        f"over the {TABLE_BUDGET_BYTES}-byte budget"
    )


def _count(n: int, p: int = 1, e: int = 0) -> str:
    """n * p**e for a message: its digits up to 20 of them, else how many digits it has."""
    if e * math.log10(p) <= 20 and (m := n * p**e) < 10**20:
        return str(m)
    return f"a {_digits(n, p, e)}-digit number of"


def _digits(n: int, p: int = 1, e: int = 0) -> int:
    """The decimal digits of n * p**e >= 1, with no string built.

    A p**e past 10**20 is never built: the digits are read off log10 of the
    product, in decimal to 20 places, exact unless the product lies within a
    relative 1e-20 of a power of ten.
    """
    if e * math.log10(p) > 20:
        from decimal import Context
        ctx = Context(prec=len(str(e)) + len(str(p)) + 20)
        return int(ctx.add(ctx.log10(n), ctx.multiply(e, ctx.log10(p)))) + 1
    n *= p**e
    digits = int(math.log10(n)) + 1  # the float estimate, then made exact
    return digits + (n >= 10**digits) - (n < 10 ** (digits - 1))


def _segments(lo: int, hi: int, cofactors: bool = True):
    """The one loop over integers: [lo, hi] in segments of DEFAULT_SEGMENT_SIZE.

    Yields (start, size, marks, big, prime) per segment.  marks lists
    (p, q, off), ascending, for each base prime p <= isqrt(hi + 1) and q = p
    or (with cofactors) a power of p up to hi: off indexes the first positive
    multiple of q at or after start, maybe past the segment.  big[i] is the
    prime factor of start + i above the base primes, or 1 (0 at 0): int32
    while hi + 1 fits, in one buffer that the next segment overwrites.
    prime[i] == (start + i + 1 is prime) for start + i >= 1, sieved from the
    same marks: the walk over m = p - 1 sees p, which is why the base primes
    reach one past hi.
    """
    import numpy as np
    if hi - lo > DEFAULT_MAX_SPAN:
        raise ResourceLimitError(f"range width {hi - lo} exceeds budget {DEFAULT_MAX_SPAN}")
    if (need := _walk_bytes(hi, cofactors)) > TABLE_BUDGET_BYTES:
        raise ResourceLimitError(
            f"the base primes up to {math.isqrt(hi + 1)} and their flags need {_count(need)} bytes, "
            f"over the {TABLE_BUDGET_BYTES}-byte budget"
        )
    base = np.flatnonzero(np.frombuffer(_sieve(math.isqrt(hi + 1)), dtype=bool)).tolist()
    top = int(hi).bit_length() if cofactors else 2  # p**k <= hi needs k < its bit length
    pq = [(p, p**k) for p in base for k in range(1, top) if p**k <= hi]
    q_arr = np.array([q for _, q in pq], dtype=np.int64)
    dtype = np.int32 if hi + 1 < 2**31 else np.int64  # prime_windows emits m + 1
    buffer = np.empty(min(DEFAULT_SEGMENT_SIZE, hi + 1 - lo), dtype=dtype) if cofactors else None
    for start in range(lo, hi + 1, DEFAULT_SEGMENT_SIZE):
        size = min(DEFAULT_SEGMENT_SIZE, hi + 1 - start)
        first = max(start, 1)
        marks = [(p, q, off) for (p, q), off in zip(pq, (-first % q_arr + first - start).tolist())]
        big = None
        if cofactors:
            big = buffer[:size]
            big.fill(1)
            for a, b, off in marks:  # the smooth part of each m ...
                big[off::b] *= a
            np.floor_divide(np.arange(start, start + size, dtype=dtype), big, out=big)  # ... divided out
        yield start, size, marks, big, _prime_flags(start, size, marks)


def _walk_bytes(hi: int, cofactors: bool) -> int:
    """What _segments(lo, hi, cofactors) charges against the budget before it allocates.

    _sieve's flags up to r = isqrt(hi + 1) peak at 1.5 bytes an integer, with
    the temporary that crosses off the multiples of 2.  Each base prime has
    one mark, two with cofactors (p**2 <= hi for every base prime; the higher
    powers of the few smallest ride in the measured cost), and there are
    fewer than 1.25506 r / ln r of them (Rosser and Schoenfeld, 1962).
    """
    r = math.isqrt(hi + 1)
    primes = r * 125506 // int(100000 * math.log(r)) + 1 if r > 1 else 0
    return 3 * (r + 1) // 2 + primes * (2 if cofactors else 1) * BASE_MARK_BYTES


def _prime_flags(start: int, size: int, marks):
    """_segments' prime flags, built in a call so that no frame of the walk holds them."""
    import numpy as np
    prime = np.ones(size, dtype=bool)
    for p, q, off in marks:
        if q == p:  # the multiples m + 1 of p from p*p on
            prime[max((off - 1) % p, p * p - 1 - start) :: p] = False
    return prime


def _phi_segment(marks, big):
    """phi over one segment of _segments, in big's dtype (0 at m = 0)."""
    phi = big - (big > 1)  # phi(r) = r - 1 at the large prime r, 1 where there is none
    for p, q, off in marks:
        phi[off::q] *= p - 1 if q == p else p
    return phi


def _omega_mobius_segment(marks, big):
    """omega and mu over one segment of _segments, as int8 (mu = 1 at m = 0)."""
    import numpy as np
    w = np.zeros(len(big), dtype=np.int8)
    squarefree = np.ones(len(big), dtype=np.int8)
    for p, q, off in marks:
        if q == p:
            w[off::p] += 1
        elif q == p * p:
            squarefree[off::q] = 0
    w += big > 1
    return w, (1 - 2 * (w & 1)) * squarefree  # mu = (-1)**omega where squarefree


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in the inclusive interval [lo, hi], ascending, by the segmented sieve.

    Raises ResourceLimitError when hi - lo exceeds DEFAULT_MAX_SPAN.
    """
    if lo > hi:
        raise ContractError(f"empty range: lo={lo} > hi={hi}")
    lo = max(lo, 2)
    if lo > hi:
        return []
    out: list[int] = []
    for start, _, _, _, prime in _segments(lo - 1, hi - 1, cofactors=False):
        out.extend((prime.nonzero()[0] + (start + 1)).tolist())
    return out


def prime_windows(lo: int, hi: int):
    """The odd primes of [lo, hi] with the distinct primes of each p - 1.

    Yields (p, owner, q) arrays per segment: the segment's odd primes p, and
    one pair per prime q of p[owner] - 1, ascending per p but not grouped by
    owner.  Sieves m = p - 1 over [lo - 1, hi - 1]: nothing is re-proved or
    factored per prime.  int32 while hi < 2**31.
    """
    lo = max(lo, 3)
    if lo > hi:
        return
    yield from starmap(_window_segment, _segments(lo - 1, hi - 1))


def _window_segment(start: int, size: int, marks, big, prime):
    """prime_windows' (p, owner, q) for one segment of m = p - 1.

    A function of its own so that its temporaries are freed before the
    consumer of the segment runs.
    """
    import numpy as np
    at = np.flatnonzero(prime)  # m = start + at[k] is p - 1 for the k-th prime
    owners, qs = [], []
    for p, q, off in marks:
        # a p whose multiples hold no prime keeps no arrays: most of them, at high hi
        if q == p and len(hits := np.flatnonzero(prime[off::p])):
            owners.append(np.searchsorted(at, off + p * hits))
            qs.append(np.full(len(hits), p, dtype=big.dtype))
    cofactor = big[at]
    owners.append(np.flatnonzero(cofactor > 1))
    qs.append(cofactor[owners[-1]])
    return at.astype(big.dtype) + (start + 1), np.concatenate(owners, dtype=big.dtype), np.concatenate(qs)


def primes_upto(n: int) -> list[int]:
    """All primes <= n: read off _sieve below _SIEVE_CROSSOVER, else primes_in_range(2, n)."""
    if n < 2:
        return []
    if n < _SIEVE_CROSSOVER:
        return list(compress(range(n + 1), _sieve(n)))
    return primes_in_range(2, n)


def first_primes(count: int) -> list[int]:
    """The first `count` primes, ascending."""
    if count < 1:
        return []
    if count < 6:
        return [2, 3, 5, 7, 11][:count]
    # Rosser (1941): the n-th prime is below n (ln n + ln ln n) for n >= 6;
    # the pad covers the float rounding
    return primes_upto(int(count * (math.log(count) + math.log(math.log(count)))) + 16)[:count]


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, Brent's cycle variant.

    The polynomial constant c walks 1, 2, 3, ... so the factor found for a
    given n never changes between runs.  Past RHO_STEPS squarings, counted
    over every c and checked once per doubling of r, it raises
    ResourceLimitError.
    """
    y0, m = 2, 128
    c = 1
    steps = 0
    while True:
        y, r, q = y0, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            if steps > RHO_STEPS:
                raise ResourceLimitError(
                    f"Brent rho found no factor of a {_digits(n)}-digit cofactor in {RHO_STEPS} steps"
                )
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
            steps += r + min(k, r)
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


# read off the bytearray, so that importing this module never loads numpy
_SMALL_PRIMES = list(compress(range(_TRIAL_BOUND + 1), _sieve(_TRIAL_BOUND)))
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
# 1009 is the least prime above _TRIAL_BOUND: a cofactor free of the trial
# primes and below its square has no second prime factor, so it is prime
_PRIME_BELOW = 1009**2


def factorize(n: int) -> Factorization:
    """Complete prime-power decomposition of n >= 1.

    The primes below a fixed bound come off one gcd with their product, then
    deterministic Brent rho splits the remaining cofactors; a cofactor below
    _PRIME_BELOW is prime without a Miller-Rabin test.  factorize(1) has an
    empty factor list.
    """
    if n < 1:
        raise ContractError(f"factorize requires n >= 1, got {n}")
    original = n
    found: dict[int, int] = {}
    g = math.gcd(n, _SMALL_PRIMORIAL)  # the product of n's primes below the bound
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            found[p] = e
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _PRIME_BELOW or is_prime(m):
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


