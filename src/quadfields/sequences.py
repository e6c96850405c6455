"""Integer polynomials f, the base g, and the sequence u(n) = f(g^n).

Validation decides separability, the hypothesis the census needs, exactly
over the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import TABLE_LIMIT, ensure, pow_mod

__all__ = [
    "Polynomial",
    "SequenceSpec",
    "validate",
    "u_eval",
    "u_eval_mod",
    "orbit_symbols",
]

_TILE = 1 << 16  # int64 temporaries are built this many cells at a time


@dataclass(frozen=True)
class Polynomial:
    """Dense integer polynomial, constant term first, leading coeff nonzero."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[-1] == 0:
            raise ValueError("polynomial must have a nonzero leading coefficient")

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


@dataclass(frozen=True)
class SequenceSpec:
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


def orbit_symbols(
    f: Polynomial, base: int, moduli, count: int, start: int = 0, shift: int = 1
) -> np.ndarray:
    """Legendre symbols (f(shift * base^(start+j)) / p) as an int8 matrix,
    one row per odd prime p in moduli and one column per j = 0..count-1.

    The orbit-residue engine behind the square sieve, the character sums and
    the Weil scan.  Powers are built by doubling and f by Horner in int64,
    exact because every p < 2^31; a tile of at most 2^16 cells at a time
    keeps those temporaries small.  Primality of the moduli is the
    caller's promise.
    """
    moduli = tuple(moduli)
    for p in moduli:
        if p % 2 == 0 or not 3 <= p < 2**31:  # products of residues fit int64
            raise ValueError(f"orbit_symbols: modulus {p} must be odd and in [3, 2^31)")
    if count < 1:
        raise ValueError("orbit_symbols: count must be >= 1")
    if len(moduli) * count > TABLE_LIMIT:
        raise ValueError(
            f"orbit_symbols: {len(moduli)} x {count} symbols exceed the table cap {TABLE_LIMIT}"
        )
    out = np.empty((len(moduli), count), dtype=np.int8)
    width = min(count, _TILE)
    rows = _TILE // width
    for lo in range(0, len(moduli), rows):
        block = moduli[lo : lo + rows]
        for c0 in range(0, count, width):
            residues = _orbit_residues(f, base, block, min(width, count - c0), start + c0, shift)
            out[lo : lo + len(block), c0 : c0 + width] = _legendre(residues, block)
    return out


def _orbit_residues(f, base, block, count, start, shift):
    # f(shift * base^(start+j)) mod q for each q in block, all in [0, q)
    p = np.array(block, dtype=np.int64)[:, None]
    x = np.empty((len(block), count), dtype=np.int64)
    x[:, 0] = [shift % q * pow(base, start, q) % q for q in block]
    step = np.array([base % q for q in block], dtype=np.int64)[:, None]  # base^k
    k = 1
    while k < count:
        m = min(k, count - k)
        x[:, k : k + m] = x[:, :m] * step % p
        step = step * step % p
        k += m
    acc = np.zeros_like(x)
    for c in reversed(f.coefficients):
        acc *= x
        acc += np.array([c % q for q in block], dtype=np.int64)[:, None]
        acc %= p
    return acc


def _legendre(v: np.ndarray, block) -> np.ndarray:
    # (v_i/p_i) for residues v_i in [0, p_i): a square table per row when it costs no
    # more than the row, else Euler's v^((p-1)/2) in {0, 1, p-1}, all such rows at once
    out = np.empty(v.shape, dtype=np.int8)
    euler = []
    for i, p in enumerate(block):
        if p > 16 * v.shape[1]:
            euler.append(i)
            continue
        table = np.full(p, -1, dtype=np.int8)
        table[np.arange(1, (p + 1) // 2, dtype=np.int64) ** 2 % p] = 1
        table[0] = 0
        out[i] = table[v[i]]
    if euler:
        p = np.array([block[i] for i in euler], dtype=np.int64)[:, None]
        r = pow_mod(v[euler], (p - 1) // 2, p)
        out[euler] = np.where(r > 1, -1, r)
    return out

