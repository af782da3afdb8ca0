"""Exact modular arithmetic and multiplicative orders.

Residues are plain Python integers kept in [0, n).  Python's integers are
arbitrary precision, so products and exponents never overflow; moduli as
large as squares of 10-digit primes cost nothing special.  All functions
here are pure and safe to call from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, NotInvertibleError

if TYPE_CHECKING:
    from .roots import CyclicGroupSpec


def inv_mod(a: int, n: int) -> int:
    """Return b in [0, n) with a*b == 1 (mod n)."""
    if n < 1:
        raise DomainError(f"modulus must be >= 1, got {n}")
    try:
        return pow(a % n, -1, n)
    except ValueError:
        raise NotInvertibleError(f"{a} is not invertible mod {n} (gcd = {math.gcd(a, n)})") from None


@dataclass(frozen=True)
class OrderResult:
    """Multiplicative order of `element` in the unit group mod `modulus`.

    Invariant: element**order == 1 and element**(order // q) != 1 for every
    prime q dividing order.
    """

    element: int
    modulus: int
    order: int


def multiplicative_order(a: int, spec: "CyclicGroupSpec") -> OrderResult:
    """Least t >= 1 with a**t == 1 (mod spec.modulus).

    Starts from the full group order m and, for each prime q | m, divides t
    by q as long as a**(t/q) stays 1.  Requires gcd(a, modulus) = 1.
    """
    n = spec.modulus
    a = a % n
    if math.gcd(a, n) != 1:
        raise NotInvertibleError(f"{a} is not a unit mod {n}")
    t = spec.group_order
    for q, _ in spec.order_factorization.factors:
        while t % q == 0 and pow(a, t // q, n) == 1:
            t //= q
    return OrderResult(element=a, modulus=n, order=t)
