"""Shared naive oracles: straight-line reference implementations.

Everything here avoids the library's fast paths on purpose (no witness sets,
no factored orders, no lifting shortcuts) so tests compare two genuinely
different routes to the same numbers.

The file also holds the one pytest hook, and stays importable with the
standard library alone: the benchmark's oracle checks load it as a plain
module.
"""

import math
import sys


def pytest_runtest_setup(item):
    """Start every test with cold memos, so no test sees what another proved.

    Clears the caches of the library modules already loaded and imports none.
    """
    roots = sys.modules.get("primroot.roots")
    if roots is not None:
        roots.CyclicGroupSpec.for_prime.cache_clear()
        roots._with_least_generator.cache_clear()
    characters = sys.modules.get("primroot.characters")
    if characters is not None:
        characters._bsgs_table.cache_clear()


def naive_primes(limit: int) -> list[int]:
    """Trial-division prime list."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def naive_factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(p, e) pairs of n >= 1, ascending, by dividing out each d = 2, 3, ... in turn."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def naive_order(a: int, n: int) -> int:
    """Multiply until 1 reappears."""
    a %= n
    x = a
    t = 1
    while x != 1:
        x = x * a % n
        t += 1
    return t


def naive_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def naive_is_primitive_root(g: int, n: int) -> bool:
    if math.gcd(g, n) != 1:
        return False
    return naive_order(g, n) == naive_phi(n)


def naive_repetend_length(modulus: int, base: int) -> int:
    """Cycle length of the remainder sequence of 1/modulus in `base`."""
    seen = {}
    r = 1 % modulus
    pos = 0
    while r not in seen:
        seen[r] = pos
        r = r * base % modulus
        pos += 1
    return pos - seen[r]


def naive_classify_counts(p: int, z: int) -> tuple[int, int, int]:
    """Survey-row recount with order loops only: (n_pr, n_s, n_n).

    A root mod p has order p-1 or p(p-1) mod p^2; multiplying through the
    first p-1 powers mod p^2 settles which, with no exponentiation shortcut.
    """
    n_s = n_n = 0
    p2 = p * p
    for g in range(2, 2 * z + 1):
        if g % p == 0:
            continue
        if naive_order(g, p) != p - 1:
            continue
        x = g % p2
        reached_one = x == 1
        for _ in range(p - 2):
            if reached_one:
                break
            x = x * g % p2
            reached_one = x == 1
        if reached_one:
            n_n += 1
        else:
            n_s += 1
    return n_s + n_n, n_s, n_n
