"""Harvest sieving primes: ell in [z, Cz] with a large P+(ell-1) and large
multiplicative order of g, plus the empirical density report that backs the
harvest up.

The harvest reads P+(ell-1) and the order of g off arith's
smallest-prime-factor table (16-bit cells: 2 bytes per n up to Cz) in pure
Python, one prime at a time; the density report reads the same columns for
all primes up to z off the numpy twin, `engine.order_tiles`, one tile of
primes at a time, and adds its counts tile by tile: beside the table (20 MB
at z = 10^7) it holds one tile of orders and bars, never a column per prime.
The harvest stays in one process; the report hands its tile calls to
`engine.fork_map`, which splits them across the CPUs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import compress
from operator import not_
from typing import NamedTuple

from .arith import is_prime, smallest_factors

__all__ = [
    "SievePrime",
    "SievePrimeSet",
    "DensityReport",
    "build_prime_set",
    "shift_orders",
    "density_report",
    "format_records",
    "parse_records",
]

VARIANTS = ("standard", "erh")


class _SievePrimeFields(NamedTuple):
    ell: int
    p_plus: int
    order_g: int
    large_order: bool  # order_g > ell / log ell


class SievePrime(_SievePrimeFields):
    """One harvested prime ell with P+(ell-1) and the order of g mod ell."""

    __slots__ = ()

    def __new__(cls, ell: int, p_plus: int, order_g: int, large_order: bool) -> SievePrime:
        if (ell - 1) % p_plus or (ell - 1) % order_g:
            raise ValueError("p_plus and order_g must divide ell-1")
        # When p_plus^2 > ell and the order reaches p_plus, the order cannot
        # fit inside (ell-1)/p_plus, so p_plus must divide it.
        if p_plus * p_plus >= ell and order_g >= p_plus and order_g % p_plus:
            raise ValueError("large p_plus must divide a large order")
        return super().__new__(cls, ell, p_plus, order_g, large_order)


class SievePrimeSet(NamedTuple):
    z: float
    C: float
    alpha: float
    g: int
    variant: str
    members: tuple[SievePrime, ...]

    def __len__(self):
        return len(self.members)

    @property
    def ells(self) -> tuple[int, ...]:
        return tuple(sp.ell for sp in self.members)


def build_prime_set(
    g: int, z: float, C: float = 2.0, alpha: float = 0.677, variant: str = "standard"
) -> SievePrimeSet:
    """Enumerate primes ell in [z, Cz] passing order_g >= P+(ell-1) >= z^alpha.

    The erh variant keeps only members whose order additionally beats
    ell/log ell.  Output is ascending in ell and fully deterministic.
    """
    if g <= 1:
        raise ValueError("build_prime_set: g must be > 1")
    if not 10 <= z < math.inf:
        raise ValueError("build_prime_set: z must be finite and >= 10")
    if not 1 < C < math.inf:
        raise ValueError("build_prime_set: C must be finite and > 1")
    if not 0.5 < alpha < 1:
        raise ValueError("build_prime_set: alpha must lie in (1/2, 1)")
    if variant not in VARIANTS:
        raise ValueError(f"build_prime_set: unknown variant {variant!r}")
    lo, hi = math.ceil(z), math.floor(C * z)
    if hi < lo:
        raise ValueError("build_prime_set: window [z, Cz] contains no integer")
    members = []
    for ell, p_plus, order_g in shift_orders(g, lo, hi, z**alpha):
        if order_g < p_plus:  # order 0 where ell divides g
            continue
        large = order_g > ell / math.log(ell)
        if variant == "erh" and not large:
            continue
        members.append(SievePrime(ell, p_plus, order_g, large))
    return SievePrimeSet(z, C, alpha, g, variant, tuple(members))


def shift_orders(g: int, lo: int, hi: int, bar: float = 0.0) -> Iterator[tuple[int, int, int]]:
    """(ell, P+(ell-1), order of g mod ell) for the odd primes ell in [lo, hi]
    with P+(ell-1) >= bar, ascending; the order is 0 where ell divides g.

    Both come off one smallest-prime-factor table: P+ is the prime left
    after the table peels the smallest factors off ell-1, and the order is
    the divisor descent from ell-1 over its distinct primes q, dividing by q
    while g^(t/q) = 1 mod ell, with the builtin pow.
    """
    spf = smallest_factors(hi)
    lo = max(lo, 3) | 1
    for ell in compress(range(lo, hi + 1, 2), map(not_, spf[lo : hi + 1 : 2])):
        p_plus = ell - 1
        while q := spf[p_plus]:
            p_plus //= q
        if p_plus < bar:
            continue
        base, t = g % ell, ell - 1
        if not base:
            yield ell, p_plus, 0
            continue
        m = t
        while m > 1:
            q = spf[m] or m
            while m % q == 0:
                m //= q
            while t % q == 0 and pow(base, t // q, ell) == 1:
                t //= q
        yield ell, p_plus, t


class DensityReport(NamedTuple):
    z: float
    alpha: float
    g: int
    primes_counted: int
    count_alpha: int  # primes ell <= z with P+(ell-1) >= ell^alpha
    count_order: int  # primes ell <= z, ell not dividing g, with order_g >= ell^alpha
    ratio_alpha: float
    dickman_reference: float


def dickman_reference(alpha: float) -> float:
    """Asymptotic density of n with P+(n) > n^alpha, for alpha in [1/2, 1).

    In this range the Dickman function is rho(1/alpha) = 1 - log(1/alpha),
    and the wanted event is its complement, so the value is log(1/alpha).
    """
    if not 0.5 <= alpha < 1:
        raise ValueError("dickman_reference: alpha must lie in [1/2, 1)")
    return math.log(1 / alpha)


def density_report(g: int, z: float, alpha: float) -> DensityReport:
    """Measure, over all primes ell <= z, how often P+(ell-1) >= ell^alpha
    and how often the order of g mod ell clears the same bar.

    P+ and the order come from the numpy twin of `shift_orders` one tile at
    a time, and the counts grow tile by tile; the bars are Python floats, so
    every comparison is exact.  `engine.order_tiles` builds the table once,
    before the fork, and its tile calls go to `engine.fork_map` with z as
    the work; the shards' integer counts add up to the same report for
    every split.
    """
    from .engine import fork_map, np, order_tiles
    if g <= 1:
        raise ValueError("density_report: g must be > 1")
    if not 10**3 <= z < math.inf:
        raise ValueError("density_report: z must be finite and >= 10^3")
    if not 0.5 <= alpha < 1:
        raise ValueError("density_report: alpha must lie in [1/2, 1)")

    def count(tiles):
        counted = passed_alpha = passed_order = 0
        for ells, p_plus, order in (tile() for tile in tiles):
            bar = np.fromiter((ell**alpha for ell in ells.tolist()), np.float64, len(ells))
            passed_alpha += int(np.count_nonzero(p_plus >= bar))
            passed_order += int(np.count_nonzero(order >= bar))  # order 0 where ell | g
            counted += len(ells)
        return counted, passed_alpha, passed_order

    hi = math.floor(z)
    counts = fork_map(count, order_tiles(g, 3, hi), hi)
    primes_counted, count_alpha, count_order = map(sum, zip(*counts))
    primes_counted += 1  # ell = 2 too: P+(1) = 1 and an order <= 1 stay below 2^alpha
    return DensityReport(
        z=z,
        alpha=alpha,
        g=g,
        primes_counted=primes_counted,
        count_alpha=count_alpha,
        count_order=count_order,
        ratio_alpha=count_alpha / primes_counted,
        dickman_reference=dickman_reference(alpha),
    )


def format_records(pset: SievePrimeSet) -> str:
    """One member per line: ell, P+(ell-1), order of g, large-order flag."""
    lines = [f"{sp.ell} {sp.p_plus} {sp.order_g} {int(sp.large_order)}" for sp in pset.members]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_records(
    text: str, z: float, C: float, alpha: float, g: int, variant: str = "standard"
) -> SievePrimeSet:
    """Inverse of format_records; revalidates every member invariant."""
    members = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        ell, p_plus, order_g, flag = (int(tok) for tok in line.split())
        if not is_prime(ell):
            raise ValueError(f"parse_records: {ell} is not prime")
        members.append(SievePrime(ell, p_plus, order_g, bool(flag)))
    return SievePrimeSet(z, C, alpha, g, variant, tuple(members))
