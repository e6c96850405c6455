"""Integer polynomials f, the base g, and the sequence u(n) = f(g^n).

Validation decides separability, the hypothesis the census needs, exactly
over the integers.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .arith import ensure

__all__ = [
    "Polynomial",
    "SequenceSpec",
    "validate",
    "u_eval",
    "u_eval_mod",
    "symbol_row",
]


class _PolynomialFields(NamedTuple):
    coefficients: tuple[int, ...]


class Polynomial(_PolynomialFields):
    """Dense integer polynomial, constant term first, leading coeff nonzero."""

    __slots__ = ()

    def __new__(cls, coefficients: tuple[int, ...]) -> Polynomial:
        if not coefficients or coefficients[-1] == 0:
            raise ValueError("polynomial must have a nonzero leading coefficient")
        return super().__new__(cls, coefficients)

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Parse the comma-separated coefficient format, e.g. '1,6,1'."""
        try:
            coeffs = tuple(int(part.strip()) for part in text.split(","))
        except ValueError:
            raise ValueError(f"bad polynomial text {text!r}") from None
        return cls(coeffs)

    def format(self) -> str:
        return ",".join(str(c) for c in self.coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading(self) -> int:
        return self.coefficients[-1]

    @property
    def constant(self) -> int:
        return self.coefficients[0]

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def eval_mod(self, x: int, m: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = (acc * x + c) % m
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            raise ValueError("derivative of a constant is the zero polynomial")
        return Polynomial(
            tuple(i * c for i, c in enumerate(self.coefficients) if i > 0)
        )


def _strip(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def _pseudo_rem(a, b):
    # prem(a, b) over Z: scale a by lc(b)^(deg a - deg b + 1), then divide.
    a, b = list(a), list(b)
    da, db = len(a) - 1, len(b) - 1
    lc = b[-1]
    a = [c * lc ** (da - db + 1) for c in a]
    for shift in range(da - db, -1, -1):
        q, r = divmod(a[db + shift], lc)
        ensure(r == 0, "pseudo-remainder: inexact division")
        if q:
            for i, c in enumerate(b):
                a[i + shift] -= q * c
    return _strip(a[:db])


def gcd_degree(f: Polynomial, g: Polynomial) -> int:
    """Degree of gcd(f, g) over Q, by a primitive pseudo-remainder sequence.

    All arithmetic stays in Z; dividing each remainder by its content keeps
    the coefficients from exploding.
    """
    a, b = list(f.coefficients), list(g.coefficients)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        if r:
            c = gcd(*r)  # the content
            r = [x // c for x in r]
        a, b = b, r
    return len(a) - 1


class SequenceSpec(NamedTuple):
    """A validated pair (f, g) defining u(n) = f(g^n)."""

    f: Polynomial
    g: int
    separable: bool


def validate(f: Polynomial, g: int) -> SequenceSpec:
    """Decide whether f is separable, exactly, and package the sequence.

    Separability is gcd(f, f') having degree 0; everything is integer
    arithmetic, no floating point anywhere.
    """
    if f.degree < 1:
        raise ValueError("validate: deg f must be >= 1")
    if g <= 1:
        raise ValueError("validate: g must be > 1")
    return SequenceSpec(f=f, g=g, separable=gcd_degree(f, f.derivative()) == 0)


def u_eval(spec: SequenceSpec, n: int) -> int:
    """Exact u(n) = f(g^n)."""
    if n < 0:
        raise ValueError("u_eval: n must be >= 0")
    return spec.f(spec.g**n)


def u_eval_mod(spec: SequenceSpec, n: int, m: int) -> int:
    """u(n) mod m without big-integer work."""
    if n < 0:
        raise ValueError("u_eval_mod: n must be >= 0")
    if m < 2:
        raise ValueError("u_eval_mod: modulus must be >= 2")
    return spec.f.eval_mod(pow(spec.g, n, m), m)


def symbol_row(f: Polynomial, g: int, p: int, start: int, count: int, period: int) -> bytes:
    """(f(g^n) / p) + 1, one byte (0, 1 or 2) each, for n = start .. start+count-1.

    The f at powers of g mod p behind the square sieve and the census
    witnesses.  p is an odd prime and period a period of n -> f(g^n) mod p
    over the run (the order of g mod p, or 1 where p | g and n >= 1); both
    are the caller's promise.  Only min(period, count) symbols are computed,
    with incremental powers, Horner over the whole run one coefficient at a
    time, and a square table or Euler's criterion; the rest repeats them.
    """
    m = min(period, count)
    if m < 1:
        raise ValueError("symbol_row: count and period must be >= 1")
    x, step = pow(g, start, p), g % p
    xs = [x]
    for _ in range(m - 1):
        x = x * step % p
        xs.append(x)
    top, *rest = [c % p for c in reversed(f.coefficients)]
    vals = [top] * m
    for c in rest:
        vals = [v * y + c for v, y in zip(vals, xs)]
    if p <= 16 * m:  # the square table costs no more than the symbols
        table = bytearray(p)  # 0: a non-residue
        table[0] = 1
        for i in range(1, (p + 1) // 2):
            table[i * i % p] = 2
        codes = bytes([table[v % p] for v in vals])
    else:
        codes = bytes([(pow(v, p // 2, p) + 1) % p for v in vals])
    return codes * (count // m) + codes[: count % m]
