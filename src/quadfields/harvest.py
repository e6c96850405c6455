"""Harvest sieving primes: ell in [z, Cz] with a large P+(ell-1) and large
multiplicative order of g, plus the empirical density and progression checks
that back the harvest up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import FactorTable, euler_phi, is_prime, order_descent, primes_through

__all__ = [
    "SievePrime",
    "SievePrimeSet",
    "DensityReport",
    "primes_in_range",
    "build_prime_set",
    "density_report",
    "pi_progression",
    "bt_ratio",
    "euler_sum",
    "format_records",
    "parse_records",
]

VARIANTS = ("standard", "erh")


@dataclass(frozen=True)
class SievePrime:
    """One harvested prime ell with P+(ell-1) and the order of g mod ell."""

    ell: int
    p_plus: int
    order_g: int
    large_order: bool  # order_g > ell / log ell

    def __post_init__(self):
        if (self.ell - 1) % self.p_plus or (self.ell - 1) % self.order_g:
            raise ValueError("p_plus and order_g must divide ell-1")
        # When p_plus^2 > ell and the order reaches p_plus, the order cannot
        # fit inside (ell-1)/p_plus, so p_plus must divide it.
        if self.p_plus * self.p_plus >= self.ell and self.order_g >= self.p_plus:
            if self.order_g % self.p_plus:
                raise ValueError("large p_plus must divide a large order")


@dataclass(frozen=True)
class SievePrimeSet:
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


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi], read from a factor table over [0, hi]."""
    return FactorTable(max(hi, 0)).primes(lo)


def build_prime_set(
    g: int, z: float, C: float = 2.0, alpha: float = 0.677, variant: str = "standard"
) -> SievePrimeSet:
    """Enumerate primes ell in [z, Cz] passing order_g >= P+(ell-1) >= z^alpha.

    The erh variant keeps only members whose order additionally beats
    ell/log ell.  Output is ascending in ell and fully deterministic.
    """
    if z < 10:
        raise ValueError("build_prime_set: z must be >= 10")
    if C <= 1:
        raise ValueError("build_prime_set: C must be > 1")
    if not 0.5 < alpha < 1:
        raise ValueError("build_prime_set: alpha must lie in (1/2, 1)")
    if variant not in VARIANTS:
        raise ValueError(f"build_prime_set: unknown variant {variant!r}")
    lo, hi = math.ceil(z), math.floor(C * z)
    if hi < lo:
        raise ValueError("build_prime_set: window [z, Cz] contains no integer")
    threshold = z**alpha
    table = FactorTable(hi)
    members = []
    for ell in table.primes(lo):
        if g % ell == 0:
            continue
        fac = table.factors(ell - 1)
        p_plus = fac[-1][0]
        if p_plus < threshold:
            continue
        order = order_descent(g % ell, ell, ell - 1, fac)
        if order < p_plus:
            continue
        large = order > ell / math.log(ell)
        if variant == "erh" and not large:
            continue
        members.append(SievePrime(ell, p_plus, order, large))
    return SievePrimeSet(z, C, alpha, g, variant, tuple(members))


@dataclass(frozen=True)
class DensityReport:
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

    Factorizations of ell-1 come from one smallest-prime-factor table, not
    per-number factoring.
    """
    if z < 10**3:
        raise ValueError("density_report: z must be >= 10^3")
    if not 0.5 <= alpha < 1:
        raise ValueError("density_report: alpha must lie in [1/2, 1)")
    table = FactorTable(math.floor(z))
    primes = table.primes()
    count_alpha = count_order = 0
    for ell in primes[1:]:  # ell = 2 counts in the denominator only
        bar = ell**alpha
        fac = table.factors(ell - 1)
        if fac[-1][0] >= bar:
            count_alpha += 1
        if g % ell and order_descent(g % ell, ell, ell - 1, fac) >= bar:
            count_order += 1
    return DensityReport(
        z=z,
        alpha=alpha,
        g=g,
        primes_counted=len(primes),
        count_alpha=count_alpha,
        count_order=count_order,
        ratio_alpha=count_alpha / len(primes),
        dickman_reference=dickman_reference(alpha),
    )


def pi_progression(t: float, m: int, a: int) -> int:
    """Exact count of primes p <= t with p = a (mod m)."""
    if t < 2:
        raise ValueError("pi_progression: t must be >= 2")
    if not 1 <= m <= t:
        raise ValueError("pi_progression: need 1 <= m <= t")
    a %= m
    return sum(1 for p in primes_through(math.floor(t)) if p % m == a)


def bt_ratio(t: float, m: int, a: int) -> float:
    """Companion ratio pi(t;m,a) * phi(m) * log(t) / t for the
    Brun-Titchmarsh comparison."""
    return pi_progression(t, m, a) * euler_phi(m) * math.log(t) / t


def euler_sum(t: float) -> float:
    """Sum of n/phi(n)^2 over n <= t.

    Each term is int true division, which rounds the exact rational once,
    and accumulation uses fsum.  A single exact Fraction accumulator is
    hopeless here: the common denominator over n <= 10^6 has millions of
    digits.
    """
    if t < 2:
        raise ValueError("euler_sum: t must be >= 2")
    phi = FactorTable(math.floor(t)).totients()
    return math.fsum(n / (phi[n] * phi[n]) for n in range(1, len(phi)))


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
