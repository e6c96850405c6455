import math
import random

import pytest
import sympy

from quadfields import arith
from quadfields.arith import (
    InvariantError,
    factorize,
    is_perfect_square,
    is_prime,
    is_squarefree,
    jacobi,
    multiplicative_order,
    primes_up_to,
)


def test_isqrt_contract():
    assert math.isqrt(0) == 0
    assert math.isqrt(144) == 12
    assert math.isqrt(17) == 4
    with pytest.raises(ValueError):
        math.isqrt(-1)


def test_isqrt_random_bracketing():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.getrandbits(512)
        r = math.isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


def test_is_perfect_square_examples():
    assert is_perfect_square(289)
    assert not is_perfect_square(290)
    assert not is_perfect_square(-4)
    assert is_perfect_square(0)


def test_is_perfect_square_random():
    rng = random.Random(2)
    for _ in range(500):
        r = rng.getrandbits(256)
        assert is_perfect_square(r * r)
        assert not is_perfect_square(r * r + 1) or r == 0


def test_jacobi_examples():
    assert jacobi(1, 3) == 1
    assert jacobi(2, 15) == 1  # (2/3)(2/5) = (-1)(-1)
    assert jacobi(3, 9) == 0


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(2, 10)
    with pytest.raises(ValueError):
        jacobi(2, 0)
    with pytest.raises(ValueError):
        jacobi(2, -3)


def test_jacobi_multiplicative_in_numerator():
    rng = random.Random(3)
    for _ in range(300):
        m = 2 * rng.randrange(1, 10**6) + 1
        a = rng.randrange(0, m)
        b = rng.randrange(0, m)
        assert jacobi(a * b % m, m) == jacobi(a, m) * jacobi(b, m)


def test_jacobi_multiplicative_in_modulus():
    rng = random.Random(4)
    small = [p for p in primes_up_to(200) if p > 2]
    for _ in range(200):
        m1, m2 = rng.sample(small, 2)
        a = rng.randrange(0, m1 * m2)
        assert jacobi(a, m1 * m2) == jacobi(a, m1) * jacobi(a, m2)


def test_jacobi_euler_criterion():
    rng = random.Random(5)
    for p in (3, 7, 11, 101, 997, 10007):
        for _ in range(30):
            a = rng.randrange(1, p)
            e = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (1 if e == 1 else -1)


def test_jacobi_matches_sympy():
    rng = random.Random(6)
    for _ in range(300):
        m = 2 * rng.randrange(1, 10**9) + 1
        a = rng.randrange(0, m)
        assert jacobi(a, m) == sympy.jacobi_symbol(a, m)


def test_factorize_examples():
    assert factorize(10) == ((2, 1), (5, 1))
    assert factorize(49) == ((7, 2),)
    fermat = ((3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1))
    assert factorize(2**64 - 1) == fermat


def test_factorize_rejects_small():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**64)


def test_factorize_roundtrip_64bit():
    rng = random.Random(7)
    for _ in range(10**5):
        n = rng.randrange(2, 1 << 64)
        prod = 1
        for p, e in factorize(n):
            prod *= p**e
        assert prod == n


def test_factorize_hard_semiprimes():
    # worst case for rho at this size: product of two 32-bit primes
    rng = random.Random(8)
    pool = []
    while len(pool) < 20:
        c = rng.randrange(1 << 31, 1 << 32) | 1
        if is_prime(c):
            pool.append(c)
    for i in range(0, 20, 2):
        p, q = sorted(pool[i : i + 2])
        got = factorize(p * q)
        assert got == ((p, 1), (q, 1)) if p != q else ((p, 2),)


def test_factorize_matches_sympy():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randrange(2, 1 << 50)
        assert dict(factorize(n)) == sympy.factorint(n)


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 11) == 10
    assert multiplicative_order(1, 97) == 1


def test_multiplicative_order_rejects_non_coprime():
    with pytest.raises(ValueError, match="share a factor"):
        multiplicative_order(14, 7)
    with pytest.raises(ValueError, match="share a factor"):
        multiplicative_order(0, 7)
    for m in (1, 0, -7, 9, 10, 7 * 11):  # only a prime modulus is taken
        with pytest.raises(ValueError, match="must be prime"):
            multiplicative_order(2, m)


def test_multiplicative_order_record_invariants():
    rng = random.Random(10)
    for _ in range(200):
        p = sympy.prevprime(rng.randrange(4, 10**5))
        lam = rng.randrange(-10**6, 10**6)
        if lam % p == 0:
            continue
        t = multiplicative_order(lam, p)
        assert (p - 1) % t == 0
        assert pow(lam, t, p) == 1
        for q, _ in factorize(t) if t > 1 else ():
            assert pow(lam, t // q, p) != 1


def test_multiplicative_order_matches_sympy():
    rng = random.Random(11)
    for _ in range(100):
        p = sympy.prevprime(rng.randrange(4, 10**4))
        lam = rng.randrange(2, 10**4)
        if lam % p == 0:
            continue
        assert multiplicative_order(lam, p) == sympy.n_order(lam, p)


def test_arith_checks_raise_invariant_error(monkeypatch):
    # a factorization that does not multiply back, an order that does not annihilate
    with monkeypatch.context() as mp:
        mp.setattr(arith, "_factor_into", lambda n, out: out.update({n + 2: 1}))
        with pytest.raises(InvariantError, match="multiply back"):
            factorize(10**12 + 39)
    # a composite modulus past a lying primality check: 2 has order 6 mod 9, not
    # a divisor of the descent's start 8
    monkeypatch.setattr(arith, "is_prime", lambda n: True)
    with pytest.raises(InvariantError, match="annihilate"):
        multiplicative_order(2, 9)


def test_is_squarefree():
    assert is_squarefree(15)
    assert not is_squarefree(12)
    assert is_squarefree(1)


def test_is_prime_against_sympy():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randrange(2, 1 << 64)
        assert is_prime(n) == sympy.isprime(n)
    # known strong-pseudoprime trouble spots for small base sets
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        if n < 1 << 64:
            assert is_prime(n) == sympy.isprime(n)


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(100)) == 25
    assert primes_up_to(1) == []
