"""Primitive roots over Z/pZ, Z/p^kZ and Z/2p^kZ, and the lifting machinery.

The central fact used throughout: a generator mod p lifts to a generator mod
p^2 (and then automatically mod every higher power and mod 2p^k) exactly when
g**(p-1) != 1 mod p^2.  For each generator tau mod p exactly one residue
a in [0, p) makes tau + a*p fail; a closed form computes it.  lift_enumerate
builds the roots one level up from this criterion alone: every lift but that
one at k = 1, every lift at k >= 2, with no generator test per lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

from .arith import (
    Factorization,
    euler_phi,
    factorization_times_prime,
    factorize,
    is_prime,
)
from .errors import ContractError
from .modmath import inv_mod, multiplicative_order

# Entries kept by each per-prime memo: for_prime's specs and with_generator's
# scans.  tracemalloc measured, per 10-digit prime, about 780 B for a cached
# spec (the spec, its factorization of p-1 and the cache entry) and 280 B for
# a cached scan, so both caches full hold about 1.1 MB.
SPEC_CACHE_SIZE = 1024


class RootClass(Enum):
    """How an integer g relates to an odd prime p."""

    NOT_COPRIME = "NotCoprime"
    NOT_ROOT = "NotRoot"
    NONSTATIONARY = "Nonstationary"
    STATIONARY = "Stationary"


@dataclass(frozen=True)
class CyclicGroupSpec:
    """A modulus with cyclic unit group: p, p^k or 2p^k for an odd prime p.

    Carries the group order phi(modulus), its factorization, and optionally
    a verified generator (needed only by character evaluation).
    """

    modulus: int
    group_order: int
    order_factorization: Factorization
    prime: int
    power: int
    doubled: bool
    generator: int | None = None

    @classmethod
    def for_modulus(cls, n: int) -> "CyclicGroupSpec":
        """Build a spec for n, validating that n is p^k or 2p^k, p an odd prime."""
        if n < 3:
            raise ContractError(f"modulus must be >= 3, got {n}")
        m = n
        doubled = False
        if m % 2 == 0:
            m //= 2
            doubled = True
            if m % 2 == 0:
                raise ContractError(f"{n} does not have a cyclic unit group")
        fac = factorize(m)
        if len(fac.factors) != 1:
            raise ContractError(f"{n} does not have a cyclic unit group")
        p, k = fac.factors[0]
        return cls.for_prime(p).raised(k, doubled)

    @classmethod
    @lru_cache(maxsize=SPEC_CACHE_SIZE, typed=True)
    def for_prime(cls, p: int) -> "CyclicGroupSpec":
        """The spec of the odd prime p: proves p and factors p-1, once per p while cached.

        A failure is not cached, so a p that is not an odd prime raises on
        every call; typed=True keeps 5.0 from hitting the entry of 5.
        """
        if p < 3 or not is_prime(p):
            raise ContractError(f"{p} is not an odd prime")
        return cls(p, p - 1, factorize(p - 1), p, 1, False)

    @classmethod
    def for_prime_power(cls, p: int, k: int) -> "CyclicGroupSpec":
        return cls.for_prime(p).raised(k)

    @classmethod
    def for_twice_prime_power(cls, p: int, k: int) -> "CyclicGroupSpec":
        return cls.for_prime(p).raised(k, True)

    def raised(self, k: int, doubled: bool = False) -> "CyclicGroupSpec":
        """The spec for p^k (2p^k when doubled), derived from this spec of p.

        for_prime alone proves p and factors p-1; neither is done again here.
        """
        if self.power != 1 or self.doubled:
            raise ContractError(f"need the spec of a prime, got modulus {self.modulus}")
        if k < 1:
            raise ContractError(f"power must be >= 1, got {k}")
        p = self.prime
        ofac = self.order_factorization
        if k > 1:
            ofac = factorization_times_prime(ofac, p, k - 1)
        return CyclicGroupSpec((2 if doubled else 1) * p**k, p ** (k - 1) * (p - 1), ofac, p, k, doubled)

    def with_generator(self) -> "CyclicGroupSpec":
        """Return a copy carrying the least generator (found by scan, verified)."""
        if self.generator is not None:
            return self
        return _with_least_generator(self)


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _with_least_generator(spec: CyclicGroupSpec) -> CyclicGroupSpec:
    """with_generator's scan, memoized per spec."""
    g = 2
    while not is_primitive_root(g, spec):
        g += 1
    return replace(spec, generator=g)


def is_primitive_root(g: int, spec: CyclicGroupSpec) -> bool:
    """Lucas test: g generates iff g**(m/q) != 1 for every prime q | m.

    Non-units simply return False.
    """
    n = spec.modulus
    g = g % n
    if math.gcd(g, n) != 1:
        return False
    m = spec.group_order
    return all(pow(g, m // q, n) != 1 for q, _ in spec.order_factorization.factors)


def lifts_to_p2(g: int, p: int) -> bool:
    """Whether a primitive root mod p stays one mod p^2.

    True iff g**(p-1) != 1 mod p^2; equivalent to the full generator test
    mod p^2 under the precondition.  Raises ContractError when g is not a
    primitive root mod p.
    """
    if not is_primitive_root(g, CyclicGroupSpec.for_prime(p)):
        raise ContractError(f"{g} is not a primitive root mod {p}")
    return pow(g, p - 1, p * p) != 1


def is_primitive_root_2pk(g: int, p: int, k: int) -> bool:
    """Generator test for the unit group mod 2p^k.

    Even g (or p | g) is not a unit and returns False.  For odd coprime g the
    test is: generator mod p, and for k >= 2 additionally
    g**(p-1) != 1 mod 2p^2.  The exponent test is applied at the 2p^2 level
    because passing there propagates to every higher power, while the test
    at level k alone does not separate intermediate orders once k >= 3.
    """
    spec_p = CyclicGroupSpec.for_prime(p)  # validates p
    if k < 1:
        raise ContractError(f"power must be >= 1, got {k}")
    if g % 2 == 0 or not is_primitive_root(g, spec_p):
        return False
    if k == 1:
        return True
    return pow(g, p - 1, 2 * p * p) != 1


def _classify_unit(u: int, p: int, primes_p1) -> RootClass:
    """Classify a unit u mod the odd prime p, given the distinct primes of p-1.

    Unchecked kernel: the caller has validated p and u % p != 0, and
    primes_p1 (any iterable, read only as far as needed) is exactly the set
    of primes dividing p-1.  The p^2 test reads u itself, not u % p.
    """
    p1 = p - 1
    for q in primes_p1:
        if pow(u, p1 // q, p) == 1:
            return RootClass.NOT_ROOT
    if pow(u, p1, p * p) != 1:
        return RootClass.STATIONARY
    return RootClass.NONSTATIONARY


def classify(g: int, p: int, fac_p1: Factorization | None = None) -> RootClass:
    """Classify g relative to p: NotCoprime, NotRoot, Nonstationary, Stationary.

    fac_p1, when given, must be the factorization of p - 1; any other raises
    ContractError.
    """
    if g < 1:
        raise ContractError(f"g must be >= 1, got {g}")
    fac = CyclicGroupSpec.for_prime(p).order_factorization
    if fac_p1 is not None and fac_p1 != fac:
        raise ContractError(f"fac_p1 = {fac_p1} is not the factorization of p - 1 = {p - 1}")
    if g % p == 0:
        return RootClass.NOT_COPRIME
    return _classify_unit(g, p, [q for q, _ in fac.factors])


def bad_lift_residue(root: int, p: int) -> int:
    """The unique a in [0, p) for which (root + a*p)**(p-1) == 1 mod p^2.

    Closed form: a = ((1 - root**(p-1))/p) * ((p-1) * root**(p-2))**(-1)
    mod p.  The result is re-verified by direct exponentiation.
    """
    if not 0 < root < p:
        raise ContractError(f"need 0 < root < p, got root={root}, p={p}")
    if not is_primitive_root(root, CyclicGroupSpec.for_prime(p)):
        raise ContractError(f"{root} is not a primitive root mod {p}")
    return _bad_lift_residue(root, p)


def _bad_lift_residue(root: int, p: int) -> int:
    """bad_lift_residue, unchecked: root is a primitive root mod the odd prime p."""
    p2 = p * p
    fermat = pow(root, p - 1, p2)
    # 1 - root**(p-1) is divisible by p by Fermat; the quotient is taken mod p
    q = (1 - fermat) % p2 // p
    a = q * inv_mod((p - 1) * pow(root, p - 2, p) % p, p) % p
    if pow(root + a * p, p - 1, p2) != 1:
        raise ArithmeticError(f"closed-form residue {a} does not fail to lift {root} mod {p}^2")
    return a


@dataclass(frozen=True)
class LeastRoots:
    """Least primitive roots of p: g (mod p), h (mod p^2), gs (simultaneous)."""

    p: int
    g: int
    h: int
    gs: int


def least_roots(p: int) -> LeastRoots:
    """Ascending scan from 2; coprimality is the only filter.

    h uses the one-exponentiation lift shortcut mod p^2, which agrees with
    the full generator test whenever the candidate already generates mod p;
    a generator mod p^2 always reduces to one mod p, so gs coincides with h.
    """
    return _least_roots(p, [q for q, _ in CyclicGroupSpec.for_prime(p).order_factorization.factors])


def _least_roots(p: int, primes_p1) -> LeastRoots:
    """least_roots, unchecked like _classify_unit: p is an odd prime, primes_p1 those of p-1."""
    g = h = 0
    cand = 2
    while h == 0:
        if cand % p != 0 and (cls := _classify_unit(cand, p, primes_p1)) is not RootClass.NOT_ROOT:
            if g == 0:
                g = cand
            if cls is RootClass.STATIONARY:
                h = cand
        cand += 1
    return LeastRoots(p=p, g=g, h=h, gs=h)


def lift_enumerate(p: int, k: int, roots_k: list[int]) -> list[int]:
    """All primitive roots mod p^(k+1) in [1, p^(k+1)], lifted from level k.

    Every generator one level up has the form tau + a*p^k with tau in the
    complete level-k set and a in [0, p).  The lifting criterion says which:
    at k = 1 every a except tau's bad_lift_residue, at k >= 2 every a.  So
    each input costs one generator test mod p^k, a non-root adds nothing,
    and no lift is tested.  A repeated input root is rejected.  The output
    size is checked against phi(phi(p^(k+1))); a short count means the input
    set was incomplete.
    """
    spec_p = CyclicGroupSpec.for_prime(p)  # validates p
    spec_k = spec_p.raised(k)
    spec_up = spec_p.raised(k + 1)
    pk = spec_k.modulus
    seen = set()
    found = []
    for tau in roots_k:
        if not 1 <= tau <= pk:
            raise ContractError(f"root {tau} outside [1, {pk}]")
        if tau in seen:
            raise ContractError(f"root {tau} repeated in the level-{k} set")
        seen.add(tau)
        if is_primitive_root(tau, spec_k):
            bad = _bad_lift_residue(tau, p) if k == 1 else None
            found.extend(tau + a * pk for a in range(p) if a != bad)
    found.sort()
    expected = euler_phi(spec_up.order_factorization)
    if len(found) != expected:
        raise ContractError(
            f"lift produced {len(found)} roots mod {p}^{k + 1}, expected {expected}; "
            "input set incomplete?"
        )
    return found


@dataclass(frozen=True)
class LiftPairStep:
    """Outcome at one level k: which of tau / tau+p / tau^{-1} generates mod p^k."""

    k: int
    root_ok: bool
    shifted_ok: bool
    inverse_ok: bool

    @property
    def adjacent_pair_ok(self) -> bool:
        return self.root_ok or self.shifted_ok

    @property
    def inverse_pair_ok(self) -> bool:
        return self.root_ok or self.inverse_ok


@dataclass(frozen=True)
class LiftPairReport:
    root: int
    p: int
    steps: tuple[LiftPairStep, ...]

    @property
    def all_pairs_ok(self) -> bool:
        return all(s.adjacent_pair_ok and s.inverse_pair_ok for s in self.steps)


def lift_pair_check(root: int, p: int, kmax: int) -> LiftPairReport:
    """Verify that per level at least one of {tau, tau+p} and one of
    {tau, tau^{-1} mod p} generates mod p^k, for each k <= kmax.

    At least one member of each pair is expected to succeed at every level;
    a False pair in the report would be a genuine counterexample.
    """
    spec_p = CyclicGroupSpec.for_prime(p)
    if not is_primitive_root(root, spec_p):
        raise ContractError(f"{root} is not a primitive root mod {p}")
    inverse = inv_mod(root, p)
    steps = []
    for k in range(1, kmax + 1):
        spec = spec_p.raised(k)
        steps.append(
            LiftPairStep(
                k=k,
                root_ok=is_primitive_root(root, spec),
                shifted_ok=is_primitive_root(root + p, spec),
                inverse_ok=is_primitive_root(inverse, spec),
            )
        )
    return LiftPairReport(root=root, p=p, steps=tuple(steps))


def stationary_propagation(g: int, p: int, kmax: int = 4) -> bool:
    """Check that a stationary root generates mod p^k and 2p^k up to kmax.

    Uses full order computation (no lifting shortcut).  Even g is replaced by
    the odd companion g + p^k for the 2p^k groups, since an even integer is
    not a unit there.  Raises ContractError unless classify(g, p) is
    Stationary.
    """
    if g < 1:
        raise ContractError(f"g must be >= 1, got {g}")
    spec_p = CyclicGroupSpec.for_prime(p)  # validates p and factors p-1 once for every level
    primes_p1 = [q for q, _ in spec_p.order_factorization.factors]
    if g % p == 0 or _classify_unit(g, p, primes_p1) is not RootClass.STATIONARY:
        raise ContractError(f"{g} is not a stationary primitive root of {p}")
    for k in range(2, kmax + 1):
        spec = spec_p.raised(k)
        if multiplicative_order(g % spec.modulus, spec).order != spec.group_order:
            return False
        spec2 = spec_p.raised(k, doubled=True)
        u = g if g % 2 == 1 else g + p**k
        if multiplicative_order(u % spec2.modulus, spec2).order != spec2.group_order:
            return False
    return True
