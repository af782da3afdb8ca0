"""Batch kernel: many (p, g) pairs at once, in exact int64 numpy arithmetic.

The only module of the library that imports numpy when it is loaded.  The
bulk functions of `surveys` load it on their first call, so that
`import primroot` and the scalar commands never load numpy.

Residues stay below p < 2**31, so every product stays below 2**62.  Mod p^2
a residue a = a1*p + a0 is held as its base-p digits, and
    a*b = a0*b0 + p*(a0*b1 + a1*b0)  (mod p^2)
by two divisions: a0*b0 = hi*p + lo, then the high digit is
(hi + a0*b1 + a1*b0) mod p, whose sum is at most (p-1)(2p-1) < 2**63.
Both maps the test needs are completely multiplicative in g: the Lucas
residues chi_q(g) = g^((p-1)/q) mod p multiply, and the Fermat quotient
Q_p(g) = (g^(p-1) - 1)/p mod p adds (Eisenstein's logarithm property).
A unit g is a root iff no chi_q(g) is 1, and stationary iff also Q_p(g) != 0.
One chain mod p^2 gives both chi_2 and Q_p: y = g^((p-1)/2) mod p^2 has
chi_2(g) = y mod p (Euler's criterion), and y^2 = 1 + p*Q_p(g).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import prime_windows, primes_upto
from .errors import ContractError

BATCH_PRIME_LIMIT = 1 << 31
KERNEL_CELLS = 1 << 15  # the one cell bound of the kernel: per survey window block, per numpy pass


def _batch_primes(primes) -> np.ndarray:
    """The primes as int64, checked once against the kernel's domain."""
    p = np.asarray(primes, dtype=np.int64)
    if p.size and int(p.max()) >= BATCH_PRIME_LIMIT:
        raise ContractError(f"batch kernel needs primes below 2**31, got {int(p.max())}")
    return p


def _pow_mod_batch(base, exp, p) -> np.ndarray:
    """base**exp mod p elementwise, for 0 <= base < p < 2**31 and exp >= 0."""
    base, exp, p = np.broadcast_arrays(base, exp, p)
    result = np.ones(base.shape, dtype=np.int64)
    exp = exp.copy()
    while exp.any():
        odd = (exp & 1) == 1
        result = np.where(odd, result * base % p, result)
        base = base * base % p
        exp >>= 1
    return result


def _mul_mod_p2_batch(a1, a0, b1, b0, p):
    """(a1*p + a0) * (b1*p + b0) mod p^2, as base-p digits (high, low)."""
    hi, lo = np.divmod(a0 * b0, p)
    return (hi + a0 * b1 + a1 * b0) % p, lo


def _half_power_p2(a, p):
    """a**((p-1)/2) mod p**2 elementwise, as base-p digits (high, low).

    For 0 <= a < p**2 and odd p < 2**31.  The low digit is a**((p-1)/2) mod p.
    """
    a, p = np.broadcast_arrays(a, p)
    b1, b0 = np.divmod(a, p)
    r1, r0 = np.zeros(a.shape, dtype=np.int64), np.ones(a.shape, dtype=np.int64)
    exp = p >> 1
    while True:
        odd = (exp & 1) == 1
        m1, m0 = _mul_mod_p2_batch(r1, r0, b1, b0, p)
        r1, r0 = np.where(odd, m1, r1), np.where(odd, m0, r0)
        exp >>= 1
        if not exp.any():
            return r1, r0
        b1, b0 = _mul_mod_p2_batch(b1, b0, b1, b0, p)


def _fermat_quotient_batch(a, p) -> np.ndarray:
    """Q_p(a) = (a**(p-1) - 1)/p mod p elementwise, for 0 <= a < p**2 and odd p < 2**31.

    Meaningless where p divides a; callers mask those entries.
    """
    y1, y0 = _half_power_p2(a, p)
    return _mul_mod_p2_batch(y1, y0, y1, y0, p)[0]  # a**(p-1) = 1 + p*Q_p(a) mod p^2


def _chunks(a: np.ndarray, size: int):
    return (a[i : i + size] for i in range(0, len(a), size))


@lru_cache(maxsize=1)
def _g_levels(gmax: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """(spf, ell, levels) over g in [0, gmax]: what _count_roots_batch needs of g.

    spf[g] is the least prime factor of g >= 2, and ell the primes <= gmax.
    levels[k - 2] holds the composites of [2**k, 2**(k+1)): spf[g] <= sqrt(g)
    and g // spf[g] <= g / 2 are prime or in an earlier level.  Cached so
    that every block of a survey shares one build.
    """
    g = np.arange(gmax + 1, dtype=np.int32)
    spf = g.copy()  # left as is at the primes, and at 0 and 1
    for p in reversed(primes_upto(math.isqrt(gmax))):  # largest first, so the smallest stays
        spf[p * p :: p] = p
    prime = spf == g  # and 0 and 1, which no level reaches
    ell = np.flatnonzero(prime[2:]).astype(np.int32) + 2
    levels = tuple(
        np.flatnonzero(~prime[1 << k : 2 << k]).astype(np.int32) + (1 << k) for k in range(2, gmax.bit_length())
    )
    for a in (spf, ell, *levels):
        a.setflags(write=False)  # shared through the cache
    return spf, ell, levels


def _fill_multiplicative(tables, gmax: int, at_primes, combines) -> None:
    """Each table[:, g] for g in [2, gmax] from the columns at primes.

    at_primes(ell) gives every table's columns at primes ell, in one pass;
    combines[k](a, b) gives table k's column at g = s * c from those at
    s = spf(g) and c.  KERNEL_CELLS cells a pass per table.
    """
    spf, ell, levels = _g_levels(gmax)
    size = max(1, KERNEL_CELLS // len(tables[0]))
    for cols in _chunks(ell, size):
        for table, at in zip(tables, at_primes(cols)):
            table[:, cols] = at
    for level in levels:
        for n in _chunks(level, size):
            s, c = spf[n], n // spf[n]
            for table, combine in zip(tables, combines):
                table[:, n] = combine(table[:, s], table[:, c])


def _count_roots_batch(primes, bounds, q, gmax: int) -> tuple[np.ndarray, ...]:
    """Per odd prime, over g in [2, gmax]: the stationary and nonstationary counts, the least root and stationary root.

    q[bounds[i] : bounds[i + 1]] lists the distinct primes of primes[i] - 1,
    and gmax < p**2 for every p.  A least root above gmax reads 0.
    chi_q and Q_p are computed at the primes l <= gmax only and filled in
    over the composites.  chi_2, as a quadratic-residue flag, and Q_p come
    from one chain mod p^2 for every prime.  The other chi_q are int32
    tables for at most KERNEL_CELLS // (gmax + 1) pairs (p, q) at a time,
    each folded into a not-root flag.
    """
    p = _batch_primes(primes)
    pc = p[:, None]
    width = gmax + 1
    not_root = np.zeros((len(p), width), dtype=bool)
    for i in np.flatnonzero(p <= gmax):
        not_root[i, :: p[i]] = True  # p | g: not a unit
    owner = np.repeat(np.arange(len(p)), np.diff(bounds))
    odd = q != 2  # 2 | p - 1 for every odd p: chi_2 comes with Q_p below
    owner, q = owner[odd], q[odd]
    rows = max(1, KERNEL_CELLS // width)
    for lo in range(0, len(owner), rows):
        own = owner[lo : lo + rows]
        pq = p[own, None]
        chi = np.zeros((len(own), width), dtype=np.int32)
        _fill_multiplicative(
            (chi,), gmax,
            lambda ell: (_pow_mod_batch(ell % pq, (pq - 1) // q[lo : lo + rows, None], pq),),
            (lambda a, b: a.astype(np.int64) * b % pq,),
        )
        starts = np.flatnonzero(np.diff(own, prepend=-1))  # own is sorted: one run per prime
        not_root[own[starts]] |= np.logical_or.reduceat(chi == 1, starts)
    residue = np.zeros((len(p), width), dtype=bool)
    fq = np.zeros((len(p), width), dtype=np.int32)

    def at_primes(ell):
        y1, y0 = _half_power_p2(ell.astype(np.int64), pc)
        return y0 == 1, _mul_mod_p2_batch(y1, y0, y1, y0, pc)[0]

    _fill_multiplicative(
        (residue, fq), gmax, at_primes,
        (np.equal, lambda a, b: (a.astype(np.int64) + b) % pc),
    )
    not_root |= residue
    not_root[:, :2] = True  # g = 0, 1: argmax then reads the least root, or 0 for none
    roots = ~not_root
    stationary = roots & (fq != 0)
    n_s = np.count_nonzero(stationary, axis=1)
    return n_s, np.count_nonzero(roots, axis=1) - n_s, roots.argmax(axis=1), stationary.argmax(axis=1)


def _stationary_batch(u, primes, owner, q) -> np.ndarray:
    """Whether each residue u[i] (0 <= u[i] < p) is a stationary root of primes[i].

    (owner, q) lists every distinct prime q of p-1 for p = primes[owner].  The
    Fermat quotient is computed only where the Lucas test passes.  Each pass
    spans at most KERNEL_CELLS pairs, or KERNEL_CELLS roots.
    """
    p = _batch_primes(primes)
    not_root = u == 0
    for own, qs in zip(_chunks(owner, KERNEL_CELLS), _chunks(q, KERNEL_CELLS)):
        pp = p[own]
        not_root[own[_pow_mod_batch(u[own], (pp - 1) // qs, pp) == 1]] = True
    stationary = np.zeros(len(p), dtype=bool)
    for roots in _chunks(np.flatnonzero(~not_root), KERNEL_CELLS):
        stationary[roots] = _fermat_quotient_batch(u[roots], p[roots]) != 0
    return stationary


# ---------------------------------------------------------------------------
# Array helpers of the bulk functions in surveys


def _window(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """prime_windows(lo, hi) collected as (p, bounds, q).

    The primes of p[i] - 1 are q[bounds[i] : bounds[i + 1]], ascending.
    """
    ps, qs, counts = [], [], []
    for p, owner, q in prime_windows(lo, hi):
        ps.append(p)
        qs.append(q[np.argsort(owner, kind="stable")])
        counts.append(np.bincount(owner, minlength=len(p)))
    bounds = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return np.concatenate(ps), bounds, np.concatenate(qs)


def _int_mod(n: int, p: np.ndarray) -> np.ndarray:
    """n mod p, as int64, for a Python int of any size and primes p < 2**31.

    Horner over 31-bit limbs of |n|: r * 2**31 + limb stays below 2**63.
    """
    m = abs(n)
    r = np.zeros(p.shape, dtype=np.int64)
    for shift in range(m.bit_length() // 31 * 31, -1, -31):
        r = ((r << 31) + ((m >> shift) & 0x7FFFFFFF)) % p
    return -r % p if n < 0 else r


def _sum_two_pow(w: np.ndarray) -> int:
    """Sum of 2**w over an array of small non-negative ints, by value counts.

    Counted one value at a time: np.bincount would first copy w to intp.
    """
    return sum(int(np.count_nonzero(w == k)) << k for k in range(int(w.max(initial=0)) + 1))
