"""Exact integer kernel: square tests, Jacobi symbols, factoring, orders, prime tables, table cap.

Factorization is deterministic end to end (fixed Miller-Rabin bases, fixed
Pollard rho parameter schedule), so identical inputs always factor along the
identical path.  Everything here is shareable across threads.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from math import gcd, isqrt, prod

__all__ = [
    "InvariantError",
    "is_perfect_square",
    "jacobi",
    "is_prime",
    "primes_up_to",
    "smallest_factors",
    "check_table",
    "factorize",
    "multiplicative_order",
    "is_squarefree",
]

U64_MAX = 2**64 - 1
TABLE_LIMIT = 10**8  # largest table; check_table compares with it before anything is allocated


class InvariantError(Exception):
    """An exact identity failed (a bug, not bad input); raised even under python -O."""


def ensure(holds: bool, *detail) -> None:
    """Raise InvariantError(*detail) unless holds; the package's own checks use it."""
    if not holds:
        raise InvariantError(*detail)


# Sufficient for every n < 3_317_044_064_679_887_385_961_981, far past 64 bits.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_PREFILTER_MODULI = (64, 63, 65, 11)
_SQUARE_RESIDUES = tuple(
    frozenset(i * i % m for i in range(m)) for m in _PREFILTER_MODULI
)


def is_perfect_square(n: int) -> bool:
    """True iff n = r*r for an integer r; negative n is never a square.

    Residue classes mod 64, 63, 65, 11 reject most non-squares before the
    isqrt call ever runs; the moduli are the contract, the speedup is free.
    """
    if n < 0:
        return False
    for m, residues in zip(_PREFILTER_MODULI, _SQUARE_RESIDUES):
        if n % m not in residues:
            return False
    r = isqrt(n)
    return r * r == n


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m >= 1, by binary reciprocity.

    Negative or oversized a is reduced mod m first; (a/1) = 1 by convention.
    """
    if m <= 0 or m % 2 == 0:
        raise ValueError("jacobi: modulus must be odd and positive")
    a %= m
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                sign = -sign
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            sign = -sign
        a %= m
    return sign if m == 1 else 0


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def g3(x: int | float) -> str:
    """x in .3g, also past the float range: the one format of a user's number in a refusal."""
    if abs(x) < 1e300:
        return f"{x:.3g}"
    from decimal import Decimal  # not at the top: decimal slows every CLI start
    return f"{Decimal(x):.3g}"


def check_table(who: str, cells: int, what: str, *sizes: int) -> None:
    """Refuse, before it is built, any table of more than TABLE_LIMIT cells: what they
    are, with each {} filled by a size in .3g, so the message stays short."""
    if cells > TABLE_LIMIT:
        what = what.format(*map(g3, sizes))
        raise ValueError(f"{who}: {what} exceed the table cap {TABLE_LIMIT}")


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by an odd-only Eratosthenes sieve."""
    check_table("primes_up_to", limit, "the numbers to {}", limit)
    if limit < 2:
        return []
    half = (limit - 1) // 2  # flags[i] stands for 2i+1
    flags = bytearray([1]) * (half + 1)
    flags[0] = 0
    for i in range(1, (isqrt(limit) - 1) // 2 + 1):  # odd p = 2i+1 <= sqrt(limit)
        if flags[i]:
            p = 2 * i + 1
            start = (p * p - 1) // 2
            flags[start::p] = bytearray(len(range(start, half + 1, p)))
    return [2] + [2 * i + 1 for i in range(1, half + 1) if flags[i]]


def smallest_factors(hi: int) -> array:
    """Smallest prime factor of every composite n <= hi, 0 where n is prime (and
    at 0 and 1), as one array('H') (no factor passes isqrt(TABLE_LIMIT) < 2^16):
    the table harvest and the order engine read, empty for hi < 0.  Even n start
    at 2 from a repeated [2, 0]; each odd prime p <= sqrt(hi) writes only its odd
    multiples, 2^15 at a time, so nothing beside the table grows with hi."""
    check_table("smallest_factors", hi, "the numbers to {}", hi)
    if hi < 0:
        return array("H")
    spf = array("H", [2, 0]) * (hi // 2 + 2)  # even n hold 2; the cells past hi are cut below
    spf[0:3:2] = array("H", [0, 0])  # 0 and the prime 2
    for p in reversed(primes_up_to(isqrt(hi))[1:]):  # smaller primes overwrite
        block = array("H", [p]) * 2**15
        for lo in range(p * p, hi + 1, 2**16 * p):  # 2^15 odd multiples a slice
            stop = min(lo + 2**16 * p, hi + 1)
            spf[lo : stop : 2 * p] = block[: len(range(lo, stop, 2 * p))]
    del spf[hi + 1 :]
    return spf


@lru_cache(maxsize=1)
def prime_chunks(bound: int) -> tuple[tuple[int, int], ...]:
    """(smallest prime, product) of each run of 64 primes <= bound, cached for the last bound."""
    primes = primes_up_to(bound)
    return tuple((primes[i], prod(primes[i : i + 64])) for i in range(0, len(primes), 64))


# Trial division strips everything below this before rho takes over; any n
# below the bound squared is finished by the strip alone.
_TRIAL_BOUND = 1024
_TRIAL_PRIMES = primes_up_to(_TRIAL_BOUND)


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite odd n, Brent's cycle variant.

    The polynomial increment c walks a fixed schedule 1, 2, 3, ... so the
    factor found for a given n never varies between runs.
    """
    for c in range(1, 1000):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho schedule exhausted on {n}")  # pragma: no cover


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of 2 <= n <= 2^64-1, ascending: trial division,
    then deterministic rho."""
    if n < 2:
        raise ValueError("factorize: n must be >= 2")
    if n > U64_MAX:
        raise ValueError("factorize: n exceeds 64 bits")
    orig, out = n, {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        _factor_into(n, out)
    factors = tuple(sorted(out.items()))
    ensure(prod(p**e for p, e in factors) == orig, f"factorization of {orig} does not multiply back")
    return factors


def multiplicative_order(lam: int, p: int) -> int:
    """Least t >= 1 with lam^t = 1 mod the prime p, via divisor descent from p - 1.

    Descent: start at p - 1 and strip each prime q of it while the power
    lam^(t/q) still fixes 1; what survives is minimal.
    """
    if not is_prime(p):
        raise ValueError("multiplicative_order: modulus must be prime")
    if lam % p == 0:
        raise ValueError("multiplicative_order: base and modulus share a factor")
    t = p - 1
    for q, _ in factorize(t) if t > 1 else ():
        while t % q == 0 and pow(lam, t // q, p) == 1:
            t //= q
    ensure(pow(lam, t, p) == 1, f"order {t} of {lam} mod {p} does not annihilate the base")
    return t


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n; n >= 1."""
    if n < 1:
        raise ValueError("is_squarefree: n must be >= 1")
    if n == 1:
        return True
    return all(e == 1 for _, e in factorize(n))
