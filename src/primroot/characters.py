"""Dirichlet characters on cyclic unit groups and the generator indicator.

Character values are exact rational angles (roots of unity); the indicator
built from them is assembled entirely in integer and Fraction arithmetic, so
it comes out exactly 0 or 1.  Floating complex numbers appear only in the
bound reports of the double character sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import euler_phi
from .errors import ContractError, NotInvertibleError, ResourceLimitError
from .modmath import inv_mod
from .roots import CyclicGroupSpec, RootClass, classify, is_primitive_root

BSGS_TABLE_CAP = 1 << 20  # max baby steps kept in memory
TRIAL_SET_CAP = 64  # largest U or V drawn by random_bound_trials


@dataclass(frozen=True)
class UnitRoot:
    """The complex number e^(2*pi*i * numerator/denominator), stored exactly."""

    numerator: int
    denominator: int

    @classmethod
    def from_angle(cls, num: int, den: int) -> "UnitRoot":
        if den < 1:
            raise ContractError(f"denominator must be positive, got {den}")
        num %= den
        g = math.gcd(num, den)
        return cls(num // g, den // g)

    def to_complex(self) -> complex:
        if self.numerator == 0:
            return 1 + 0j
        return cmath.exp(2j * cmath.pi * self.numerator / self.denominator)


@lru_cache(maxsize=64)
def _bsgs_table(modulus: int, generator: int, order: int):
    width = math.isqrt(order - 1) + 1 if order > 1 else 1
    if width > BSGS_TABLE_CAP:
        raise ResourceLimitError(
            f"baby-step table for group order {order} exceeds {BSGS_TABLE_CAP} entries"
        )
    baby = {}
    x = 1
    for j in range(width):
        baby.setdefault(x, j)
        x = x * generator % modulus
    stride = inv_mod(pow(generator, width, modulus), modulus)
    return width, baby, stride


def discrete_log(u: int, spec: CyclicGroupSpec) -> int:
    """Index t in [0, group_order) with generator**t == u, by baby-step/giant-step."""
    if spec.generator is None:
        raise ContractError("spec carries no generator")
    n = spec.modulus
    u = u % n
    if math.gcd(u, n) != 1:
        raise NotInvertibleError(f"{u} is not a unit mod {n}")
    width, baby, stride = _bsgs_table(n, spec.generator, spec.group_order)
    y = u
    for i in range(width + 1):
        j = baby.get(y)
        if j is not None:
            return (i * width + j) % spec.group_order
        y = y * stride % n
    raise NotInvertibleError(f"{u} has no discrete log mod {n}")  # unreachable for units


@dataclass(frozen=True)
class CharacterIndex:
    """One Dirichlet character of exact order d on a cyclic unit group.

    chi(generator) = e^(2*pi*i * j/d) with gcd(j, d) = 1, so chi has exact
    order d; d must divide the group order.
    """

    spec: CyclicGroupSpec
    d: int
    j: int

    def __post_init__(self):
        if self.spec.generator is None:
            raise ContractError("character needs a spec with a generator")
        if self.d < 1 or self.spec.group_order % self.d != 0:
            raise ContractError(f"order {self.d} does not divide {self.spec.group_order}")
        if not 0 <= self.j < self.d or math.gcd(self.j, self.d) != 1:
            raise ContractError(f"index {self.j} invalid for exact order {self.d}")

    @property
    def trivial(self) -> bool:
        return self.d == 1

    def value(self, u: int) -> UnitRoot:
        """chi(u) as an exact root of unity."""
        t = discrete_log(u, self.spec)
        return UnitRoot.from_angle(self.j * t, self.d)


def character_of_index(spec: CyclicGroupSpec, m: int) -> CharacterIndex:
    """The character mapping generator to e^(2*pi*i * m/group_order)."""
    order = spec.group_order
    m %= order
    g = math.gcd(m, order)
    return CharacterIndex(spec, order // g, (m // g) % (order // g) if order > g else 0)


def psi_indicator(u: int, spec: CyclicGroupSpec) -> int:
    """Exact 0/1 indicator that u generates the cyclic unit group.

    Evaluates phi(m)/m * sum over squarefree d | m of mu(d)/phi(d) times the
    sum of chi(u) over the characters of exact order d.  At u = generator^t
    that inner sum is the Ramanujan sum c_d(t), multiplicative in d, so the
    Moebius sum equals the Euler product over the primes q | m of
    1 + mu(q) c_q(t)/phi(q), which is 0 when q | t and q/(q - 1) otherwise:
    omega(m) exact Fraction factors.
    """
    spec = spec.with_generator()
    n = spec.modulus
    if math.gcd(u % n, n) != 1:
        raise NotInvertibleError(f"{u} is not a unit mod {n}")
    t = discrete_log(u, spec)
    total = math.prod(Fraction(0 if t % q == 0 else q, q - 1) for q, _ in spec.order_factorization.factors)
    value = Fraction(euler_phi(spec.order_factorization), spec.group_order) * total
    if value not in (0, 1):
        raise ArithmeticError(f"indicator came out {value}, expected 0 or 1")
    return int(value)


@dataclass(frozen=True)
class PsiFormulaResult:
    """Literal formula value next to the boolean case-table value.

    The two disagree (1/2 vs 0 or 1) exactly on nonstationary roots; the
    classification itself always follows the boolean table.
    """

    g: int
    p: int
    formula: Fraction
    table: int
    classification: RootClass
    matches_table: bool


def _psi_formula(g: int, p: int, sign: int, counted: RootClass) -> PsiFormulaResult:
    """Psi_p(g) * (1 + sign * Psi_{p^2}(g)) / 2 next to the table value of `counted`.

    g follows classify's rule (g >= 1); p is proven and p - 1 factored once.
    """
    cls = classify(g, p)
    spec = CyclicGroupSpec.for_prime(p)
    psi_p = 1 if is_primitive_root(g, spec) else 0
    psi_p2 = 1 if is_primitive_root(g, spec.raised(2)) else 0
    formula = Fraction(psi_p * (1 + sign * psi_p2), 2)
    table = 1 if cls is counted else 0
    return PsiFormulaResult(g, p, formula, table, cls, formula == table)


def psi_s_formula(g: int, p: int) -> PsiFormulaResult:
    """Stationary-root formula Psi_p(g) * (1 + Psi_{p^2}(g)) / 2, exactly."""
    return _psi_formula(g, p, 1, RootClass.STATIONARY)


def psi_n_formula(g: int, p: int) -> PsiFormulaResult:
    """Nonstationary-root formula Psi_p(g) * (1 - Psi_{p^2}(g)) / 2, exactly."""
    return _psi_formula(g, p, -1, RootClass.NONSTATIONARY)


@dataclass(frozen=True)
class CharSumReport:
    """A double character sum next to the square-root cardinality bound."""

    modulus: int
    total: complex
    magnitude: float
    bound: float
    slack: float
    pairs_used: int
    pairs_skipped: int
    size_u: int
    size_v: int


def _double_sum(modulus: int, U, V, term) -> CharSumReport:
    """Sum term(u, v) over the sorted sets U x V, skipping pairs where it is None."""
    us = sorted(set(U))
    vs = sorted(set(V))
    parts_re: list[float] = []
    parts_im: list[float] = []
    skipped = 0
    for u in us:
        for v in vs:
            root = term(u, v)
            if root is None:
                skipped += 1
                continue
            z = root.to_complex()
            parts_re.append(z.real)
            parts_im.append(z.imag)
    total = complex(math.fsum(parts_re), math.fsum(parts_im))
    magnitude = abs(total)
    bound = math.sqrt(modulus) * math.sqrt(len(us) * len(vs))
    return CharSumReport(
        modulus=modulus,
        total=total,
        magnitude=magnitude,
        bound=bound,
        slack=magnitude / bound,
        pairs_used=len(parts_re),
        pairs_skipped=skipped,
        size_u=len(us),
        size_v=len(vs),
    )


def char_sum(U, V, chi: CharacterIndex) -> CharSumReport:
    """Sum of chi(u + v) over U x V, skipping pairs with u + v == 0 mod N.

    Requires a nontrivial character over a prime modulus.  The report carries
    |sum|, the bound sqrt(N * #U * #V) and their ratio.
    """
    if chi.trivial:
        raise ContractError("character sum bound needs a nontrivial character")
    n = chi.spec.modulus
    if n != chi.spec.prime:  # the spec's constructor proved its prime
        raise ContractError(f"modulus {n} is not prime")
    return _double_sum(n, U, V, lambda u, v: chi.value(w) if (w := (u + v) % n) else None)


def additive_char_sum(U, V, k: int, modulus: int) -> CharSumReport:
    """Sum of e^(2*pi*i * k*u*v/modulus) over U x V, skipping zero products."""
    if modulus < 1:
        raise ContractError(f"modulus must be >= 1, got {modulus}")
    if k % modulus == 0:
        raise ContractError("frequency k must be nonzero mod the modulus")
    return _double_sum(
        modulus, U, V, lambda u, v: UnitRoot.from_angle(k * w, modulus) if (w := u * v % modulus) else None
    )


def random_bound_trials(
    trials: int,
    seed: int = 0,
    max_prime: int = 499,
    additive: bool = False,
) -> list[CharSumReport]:
    """Seeded random bound checks: random prime, character (or frequency), U, V.

    Every report should come back with slack <= 1; a larger value would
    violate the square-root bound.
    """
    import random

    from .arith import primes_upto

    rng = random.Random(seed)
    primes = [p for p in primes_upto(max_prime) if p >= 3]
    if not primes:
        raise ContractError(f"no odd prime <= max_prime = {max_prime} to sample")
    reports = []
    for _ in range(trials):
        p = rng.choice(primes)
        cap = min(TRIAL_SET_CAP, p - 1)
        us = rng.sample(range(1, p), rng.randint(1, cap))
        vs = rng.sample(range(1, p), rng.randint(1, cap))
        if additive:
            k = rng.randint(1, p - 1)
            reports.append(additive_char_sum(us, vs, k, p))
        else:
            spec = CyclicGroupSpec.for_prime(p).with_generator()
            chi = character_of_index(spec, rng.randint(1, p - 2))
            reports.append(char_sum(us, vs, chi))
    return reports
