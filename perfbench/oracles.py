"""Independent reference arithmetic for checking the program's outputs.

Nothing here imports primroot.  The primality test uses a different witness
set from the library's, factorization is plain trial division or a
smallest-prime-factor table, and the naive order-loop oracles come read-only
from the repository's own tests/conftest.py.
"""

from __future__ import annotations

import ast
import importlib.util
import math
from pathlib import Path

import numpy as np

# Bases that decide primality for every n < 2**64 (Sinclair 2011); the
# library uses the first twelve primes instead.
_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2**64."""
    if n < 2:
        return False
    for q in _SMALL:
        if n % q == 0:
            return n == q
    if n >= 1 << 64:
        raise ValueError(f"oracle primality covers n < 2**64, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SINCLAIR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Least prime >= n."""
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n >= 1 by trial division (fine below ~1e12)."""
    out = []
    for q in (2, 3):
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
    q = 5
    while q * q <= n:
        for r in (q, q + 2):
            if n % r == 0:
                out.append(r)
                while n % r == 0:
                    n //= r
        q += 6
    if n > 1:
        out.append(n)
    return sorted(out)


def generates(g: int, modulus: int, order: int, order_primes) -> bool:
    """Lucas test: g generates a cyclic group of the given order mod `modulus`."""
    if math.gcd(g, modulus) != 1:
        return False
    return all(pow(g, order // q, modulus) != 1 for q in order_primes)


def is_order(a: int, t: int, modulus: int, group_order: int, group_primes) -> bool:
    """Whether t is exactly the multiplicative order of a mod `modulus`.

    t must divide the group order, whose distinct primes are group_primes.
    """
    return (
        t >= 1
        and group_order % t == 0
        and pow(a, t, modulus) == 1
        and all(pow(a, t // q, modulus) != 1 for q in group_primes if t % q == 0)
    )


def least_roots(p: int, p1_primes) -> tuple[int, int]:
    """(g, h): least primitive root mod p and least one mod p**2."""
    p2 = p * p
    g = h = 0
    cand = 2
    while h == 0:
        if cand % p and generates(cand, p, p - 1, p1_primes):
            g = g or cand
            if pow(cand, p - 1, p2) != 1:
                h = cand
        cand += 1
    return g, h


def stationary(g: int, p: int, p1_primes) -> bool:
    """g generates mod p and keeps generating mod p**2."""
    return g % p != 0 and generates(g, p, p - 1, p1_primes) and pow(g, p - 1, p * p) != 1


# ---------------------------------------------------------------------------
# Sieve-style oracles for the bulk workloads


def prime_flags(n: int) -> np.ndarray:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for q in range(3, math.isqrt(n) + 1, 2):
        if flags[q]:
            flags[q * q :: 2 * q] = False
    return flags


def smallest_factor(n: int) -> np.ndarray:
    """spf[m] = least prime factor of m for 2 <= m <= n."""
    spf = np.zeros(n + 1, dtype=np.int32)
    for q in range(2, math.isqrt(n) + 1):
        if spf[q] == 0:
            part = spf[q * q :: q]
            part[part == 0] = q
    idx = np.flatnonzero(spf == 0)
    spf[idx] = idx
    return spf


def distinct_factors(values: np.ndarray, spf: np.ndarray):
    """Per value m: omega(m), whether m is squarefree, and phi(m)/m.

    Vectorized descent through the smallest-prime-factor table; factors come
    out ascending, so a repeated prime equals the previous one.
    """
    m = values.astype(np.int64)
    last = np.zeros_like(m)
    omega = np.zeros_like(m)
    squarefree = np.ones(len(m), dtype=bool)
    phi_ratio = np.ones(len(m), dtype=np.float64)
    while True:
        live = m > 1
        if not live.any():
            return omega, squarefree, phi_ratio
        q = np.where(live, spf[np.where(live, m, 0)], 1)
        new = live & (q != last)
        squarefree &= ~(live & ~new)
        omega += new
        phi_ratio[new] *= 1 - 1 / q[new]
        last = np.where(live, q, last)
        m = m // q


def factor_with(n: int, spf: np.ndarray) -> list[int]:
    """Distinct prime factors of n from a smallest-prime-factor table."""
    out = []
    while n > 1:
        q = int(spf[n])
        out.append(q)
        while n % q == 0:
            n //= q
    return out


# ---------------------------------------------------------------------------
# Read-only imports from the repository's tests


def naive_oracles(root: Path):
    """The tests' conftest module: naive order-loop reference functions."""
    spec = importlib.util.spec_from_file_location(
        "primroot_test_oracles", root / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def acceptance_constants(root: Path) -> dict[str, float]:
    """The *_DIGITS reference constants pinned by tests/test_acceptance.py."""
    tree = ast.parse((root / "tests" / "test_acceptance.py").read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", "")
            if name.endswith("_DIGITS") and isinstance(node.value, ast.Constant):
                out[name[: -len("_DIGITS")].lower()] = float(node.value.value)
    return out
