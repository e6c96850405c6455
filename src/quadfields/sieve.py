"""The square-sieve detector over a harvested prime set.

For k = s*u(n), the sum of Jacobi symbols (k/ell) over the set equals
|set| - omega(k) exactly when k is a positive perfect square; non-squares
oscillate.  Everything below is the exact bookkeeping around that identity:
the window partition by omega, the certificate inequality, and the pair
diagnostics U, V, W, T, Q.

The window's symbol table is pure Python: one row of bytes per prime, the
symbol plus one in each cell, tiled from one period of g mod ell
(`sequences.symbol_row`).  Its column sums come from packing each row into
one wide integer, a lane per cell, and adding: one big-int add per row.
A run keeps each per-n result as a column read at n - M - 1: D(n) and
omega_z in 1-4 bytes per n, and the light/heavy partition in one.
"""

from __future__ import annotations

import math
import sys
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .arith import check_table, jacobi
from .census import _window, _witness_window, window_matches
from .harvest import SievePrimeSet
from .sequences import SequenceSpec, symbol_row, u_eval, u_eval_mod

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Partition",
    "Certificate",
    "Diagnostics",
    "SieveRun",
    "omega_z",
    "detector",
    "partition",
    "certificate",
    "diagnostics",
    "run_sieve",
]


def omega_z(spec: SequenceSpec, n: int, s: int, prime_set: SievePrimeSet) -> int:
    """Distinct primes of the set dividing s*u(n), by modular tests only."""
    if u_eval(spec, n) == 0:
        raise ValueError("omega_z: u(n) = 0 has no omega")
    return sum(1 for ell in prime_set.ells if s % ell == 0 or u_eval_mod(spec, n, ell) == 0)


def detector(spec: SequenceSpec, n: int, s: int, prime_set: SievePrimeSet) -> int:
    """D(n) = sum of (s*u(n) / ell) over the set, via residues mod each ell."""
    return sum(jacobi(s * u_eval_mod(spec, n, ell), ell) for ell in prime_set.ells)


def _symbols(spec, M, N, prime_set):
    # R[i][j] = (u(M+1+j) / ell_i) + 1: a row of bytes per prime, off one period of g mod ell
    _window(M, N, "sieve")
    check_table("sieve", len(prime_set) * N, f"{len(prime_set)} x {{}} symbols", N)
    return [
        symbol_row(spec.f, spec.g, sp.ell, M + 1, N, sp.order_g if prime_set.g == spec.g else N)
        for sp in prime_set.members
    ]


_NEGATED = bytes.maketrans(b"\0\2", b"\2\0")  # a row times (s/ell) = -1
_ZEROED = bytes([1]) * 256  # a row times (s/ell) = 0
_ZEROS = bytes.maketrans(b"\0\1\2", b"\1\2\1")  # 2 where the symbol is 0, else 1


def _twisted(R, s, prime_set):
    # (s*u/ell) = (s/ell)(u/ell): one symbol per row turns R into the s-table
    chi = [jacobi(s, ell) for ell in prime_set.ells]
    return [row if c == 1 else row.translate(_NEGATED if c else _ZEROED) for row, c in zip(R, chi)]


def _column_sums(rows, N, view=None):
    # the column sums of (byte - 1) over rows read through view (a translation table, or None
    # for the bytes themselves), as a read-only memoryview of N signed ints: a lane per cell,
    # wide enough for +-len(rows), and one big-int add per row.  Lanes start at half their
    # range less len(rows), so no add carries; flipping their top bits leaves two's complement.
    width = next(w for w in (1, 2, 4) if 2 * len(rows) < 256**w)
    top = 128 << 8 * (width - 1)
    buf = bytearray(N * width)
    ones = ((1 << 8 * len(buf)) - 1) // (256**width - 1)  # a 1 in every lane
    acc = (top - len(rows)) * ones
    for row in rows:
        buf[(width - 1) * (sys.byteorder == "big") :: width] = row.translate(view)  # low bytes
        acc += int.from_bytes(buf, sys.byteorder)
    acc ^= top * ones
    return memoryview(acc.to_bytes(len(buf), sys.byteorder)).cast({1: "b", 2: "h", 4: "i"}[width])


class Partition(NamedTuple):
    heavy: bytes  # 1 where omega_z(u(n)) > floor(|L|/2), else 0, at n - M - 1
    e_ratio: float  # heavy count / (N z^-alpha + log z)


def partition(omega, prime_set: SievePrimeSet) -> Partition:
    """Split the window by its omega_z(u(n)) column against the half-set threshold.

    n with u(n) = 0 land in the heavy side: every modulus divides 0.
    """
    heavy = bytes(map((len(prime_set) // 2).__lt__, omega))
    z, alpha = prime_set.z, prime_set.alpha
    return Partition(heavy, heavy.count(1) / (len(heavy) * z**-alpha + math.log(z)))


class Certificate(NamedTuple):
    lhs: int
    rhs: Fraction
    holds: bool
    matches: tuple[int, ...]  # the n counted by lhs


def certificate(
    spec: SequenceSpec, M: int, s: int, D, part: Partition, prime_set: SievePrimeSet
) -> Certificate:
    """Exact check of |N_{s,z}| <= (2/|L|) * sum of D(n)^2 over the matches.

    lhs counts n in the light part of the window whose s*u(n) is a perfect
    square (the field-census criterion); rhs is exact rational arithmetic.
    Both read the run's columns D(n) and the partition, at n - M - 1.
    """
    from fractions import Fraction  # not at the top: fractions and decimal slow every CLI start
    if not prime_set.members:
        raise ValueError("certificate: prime set must be nonempty")
    matched = tuple(n for n in window_matches(spec, M, len(D), s) if not part.heavy[n - M - 1])
    rhs = Fraction(2 * sum(D[n - M - 1] ** 2 for n in matched), len(prime_set))
    return Certificate(lhs=len(matched), rhs=rhs, holds=len(matched) <= rhs, matches=matched)


class Diagnostics(NamedTuple):
    U: int  # ordered pairs, equal P+(ell-1)
    V: int  # ordered pairs, distinct P+
    W: int  # all ordered pairs, U + V
    T: int  # sum of gcd(ell-1, p-1) over distinct-P+ pairs
    Q_quantity: int  # same pairs, gcd squared
    U_ratio: float
    V_ratio: float
    T_ratio: float
    Q_ratio: float
    max_cross_gcd: int
    gcd_cap: float  # C * z^(1-alpha)
    gcd_bound_holds: bool


def diagnostics(run: SieveRun) -> Diagnostics:
    """The pair sums behind the variance argument, over ordered pairs
    (both orientations, matching the expansion of D(n)^2), read from the
    run's symbol table.

    The per-pair cap gcd(ell-1, p-1) <= C z^(1-alpha) for distinct-P+ pairs
    is reported exactly; it must hold for any honestly harvested set.
    """
    R, N, prime_set = run.symbols, run.N, run.prime_set
    members = prime_set.members
    groups: dict[int, list[bytes]] = {}
    for sp, row in zip(members, R):
        groups.setdefault(sp.p_plus, []).append(row)
    U = sum(_off_diagonal(rows, N) for rows in groups.values() if len(rows) > 1)
    V = _off_diagonal(R, N) - U
    T = Q = max_cross = 0
    for a in members:
        for b in members:
            if a.p_plus != b.p_plus:
                d = gcd(a.ell - 1, b.ell - 1)
                T, Q, max_cross = T + d, Q + d * d, max(max_cross, d)
    z, alpha, C = prime_set.z, prime_set.alpha, prime_set.C
    logz = math.log(z)
    cap = C * z ** (1 - alpha)
    return Diagnostics(
        U=U,
        V=V,
        W=U + V,
        T=T,
        Q_quantity=Q,
        U_ratio=abs(U) / (N * z ** (2 - alpha)),
        V_ratio=abs(V) / (N * z ** (3 - 2 * alpha) / logz**2 + z**3),
        T_ratio=T / (z**2 / logz),
        Q_ratio=Q / z ** (3 - alpha),
        max_cross_gcd=max_cross,
        gcd_cap=cap,
        gcd_bound_holds=max_cross <= cap,
    )


def _off_diagonal(rows, N):
    # sum of <r_i, r_j> over ordered pairs i != j of rows, i.e. the Gram matrix
    # less its diagonal: |sum of rows|^2 - sum of |r_i|^2, entries in {-1, 0, 1}
    c = _column_sums(rows, N)
    return sum(map(mul, c, c)) - sum(N - row.count(1) for row in rows)


class SieveRun(NamedTuple):
    spec: SequenceSpec
    M: int
    N: int
    s: int
    prime_set: SievePrimeSet
    detector: memoryview  # D(n), at n - M - 1
    omega: memoryview  # omega_z(s*u(n)), at n - M - 1
    part: Partition
    cert: Certificate
    symbols: list[bytes]  # (s*u(n) / ell) + 1, a row per prime

    def to_doc(self) -> dict:  # the artifact; the CLI encodes it as sorted JSON
        return {
            "f": self.spec.f.format(),
            "g": self.spec.g,
            "window": [self.M, self.N],
            "s": self.s,
            "prime_set": {
                "z": self.prime_set.z,
                "C": self.prime_set.C,
                "alpha": self.prime_set.alpha,
                "g": self.prime_set.g,
                "variant": self.prime_set.variant,
                "members": [
                    [sp.ell, sp.p_plus, sp.order_g, int(sp.large_order)]
                    for sp in self.prime_set.members
                ],
            },
            "detector": [[n, d] for n, d in enumerate(self.detector, self.M + 1)],
            "omega": [[n, w] for n, w in enumerate(self.omega, self.M + 1)],
            "partition": {
                "n_z": [n for n, h in enumerate(self.part.heavy, self.M + 1) if not h],
                "e_z": [n for n, h in enumerate(self.part.heavy, self.M + 1) if h],
                "e_ratio": self.part.e_ratio,
            },
            "certificate": {
                "lhs": self.cert.lhs,
                "rhs": [self.cert.rhs.numerator, self.cert.rhs.denominator],
                "holds": self.cert.holds,
            },
        }


def run_sieve(
    spec: SequenceSpec, M: int, N: int, s: int, prime_set: SievePrimeSet
) -> SieveRun:
    """Assemble detector values, omega counts, partition, and certificate
    for one window, all read from one symbol table; `partition` and
    `certificate` are its stages, and `diagnostics` reads the table it keeps."""
    _witness_window(M, N, "sieve")  # the certificate's witness rows, priced before the table
    R = _symbols(spec, M, N, prime_set)
    Rs = _twisted(R, s, prime_set)
    D, omega = _column_sums(Rs, N), _column_sums(Rs, N, _ZEROS)
    part = partition(_column_sums(R, N, _ZEROS), prime_set)
    cert = certificate(spec, M, s, D, part, prime_set)
    return SieveRun(spec, M, N, s, prime_set, D, omega, part, cert, Rs)
