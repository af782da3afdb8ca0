import math
import random

import pytest

from conftest import naive_order
from primroot.arith import euler_phi, factorize, primes_upto
from primroot.errors import DomainError, NotInvertibleError
from primroot.modmath import inv_mod, multiplicative_order
from primroot.roots import CyclicGroupSpec


def test_inv_mod():
    assert inv_mod(1, 17) == 1
    assert inv_mod(3, 7) == 5
    u = 42 * pow(19, 41, 43) % 43
    assert u * inv_mod(u, 43) % 43 == 1
    with pytest.raises(NotInvertibleError):
        inv_mod(6, 9)
    with pytest.raises(DomainError):
        inv_mod(3, 0)


def test_multiplicative_order_examples():
    spec41 = CyclicGroupSpec.for_prime(41)
    assert multiplicative_order(1, spec41).order == 1
    assert multiplicative_order(6, spec41).order == 40
    spec343 = CyclicGroupSpec.for_prime_power(7, 3)
    res = multiplicative_order(10, spec343)
    assert res.order == 294
    assert res.order == naive_order(10, 343)


def test_multiplicative_order_rejects_non_units():
    spec = CyclicGroupSpec.for_prime(41)
    with pytest.raises(NotInvertibleError):
        multiplicative_order(82, spec)


def test_order_result_minimality():
    # element^order == 1 and element^(order/q) != 1 for each prime q | order
    rng = random.Random(9)
    spec = CyclicGroupSpec.for_prime_power(13, 2)
    for _ in range(200):
        a = rng.randrange(1, spec.modulus)
        if math.gcd(a, spec.modulus) != 1:
            continue
        res = multiplicative_order(a, spec)
        assert pow(a, res.order, spec.modulus) == 1
        for q, _ in factorize(res.order).factors:
            assert pow(a, res.order // q, spec.modulus) != 1


def test_fermat_euler_exhaustive_small():
    for n in range(2, 300):
        phi = euler_phi(factorize(n))
        for a in range(1, n):
            if math.gcd(a, n) == 1:
                assert pow(a, phi, n) == 1


def test_fermat_euler_sampled_to_1e4():
    rng = random.Random(10)
    for _ in range(20000):
        n = rng.randrange(2, 10**4 + 1)
        a = rng.randrange(1, n)
        if math.gcd(a, n) == 1:
            assert pow(a, euler_phi(factorize(n)), n) == 1


def test_order_divides_group_order():
    rng = random.Random(11)
    for p in primes_upto(200):
        if p == 2:
            continue
        for spec in (
            CyclicGroupSpec.for_prime(p),
            CyclicGroupSpec.for_prime_power(p, 2),
            CyclicGroupSpec.for_prime(p).raised(2, doubled=True),
        ):
            n = spec.modulus
            units = (
                range(1, n)
                if n < 250
                else (rng.randrange(1, n) for _ in range(150))
            )
            for a in units:
                if math.gcd(a, n) != 1:
                    continue
                assert spec.group_order % multiplicative_order(a, spec).order == 0


def test_order_agrees_with_naive_loop():
    # every cyclic modulus p^k, 2p^k up to 1000, all units
    moduli = []
    for p in primes_upto(1000):
        if p == 2:
            continue
        pk = p
        k = 1
        while pk <= 1000:
            moduli.append((p, k, False))
            if 2 * pk <= 1000:
                moduli.append((p, k, True))
            pk *= p
            k += 1
    for p, k, doubled in moduli:
        spec = CyclicGroupSpec.for_prime(p).raised(k, doubled)
        n = spec.modulus
        for a in range(1, n):
            if math.gcd(a, n) == 1:
                assert multiplicative_order(a, spec).order == naive_order(a, n)
