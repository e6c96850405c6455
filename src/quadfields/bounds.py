"""Term balancing and the exponent calculus behind the count bounds.

Everything here is shape arithmetic: o(1) exponents are rendered as 0 and
no output is a certified bound for finite N.  The optimizer returns a
constructive guarantee with the explicit constant 2JK in place of the
unprinted constant of the balancing lemma.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import ensure

__all__ = [
    "TermSystem",
    "GrakolResult",
    "ExponentTable",
    "RegimeBound",
    "InterpolationCheck",
    "grakol_optimize",
    "exponent_table",
    "regime_bound",
    "bound_curve_csv",
    "interpolation_check",
    "default_z",
    "endgame_system",
    "av1_system",
]


class _TermSystemFields(NamedTuple):
    ascending: tuple[tuple[float, float], ...]  # (A_j, B_j)
    descending: tuple[tuple[float, float], ...]  # (C_k, D_k)
    z1: float
    z2: float


class TermSystem(_TermSystemFields):
    """B(z) = sum A_j z^B_j + sum C_k z^-D_k over z in [z1, z2]."""

    __slots__ = ()

    def __new__(cls, ascending, descending, z1: float, z2: float) -> TermSystem:
        if not ascending or not descending:
            raise ValueError("TermSystem: term lists must be nonempty")
        for coeff, exp in (*ascending, *descending):
            if coeff <= 0 or exp <= 0:
                raise ValueError("TermSystem: coefficients and exponents must be positive")
        if not 0 < z1 <= z2:
            raise ValueError("TermSystem: need 0 < z1 <= z2")
        return super().__new__(cls, ascending, descending, z1, z2)

    def value(self, z: float) -> float:
        up = sum(a * z**b for a, b in self.ascending)
        down = sum(c * z**-d for c, d in self.descending)
        return up + down


class GrakolResult(NamedTuple):
    z_star: float
    value: float
    T: tuple[tuple[float, ...], ...]  # T[j][k]
    guarantee: float  # 2JK * sum T + edge terms
    holds: bool  # value <= guarantee


def grakol_optimize(ts: TermSystem) -> GrakolResult:
    """Balance ascending against descending power terms over [z1, z2].

    T_jk is closed form.  B is strictly convex in u = log z, so z_star is
    found by one bisection on u over [log z1, log z2]: keep the half where
    dB/du = sum A_j B_j z^B_j - sum C_k D_k z^-D_k changes sign, until the
    midpoint equals an endpoint.  The guarantee
    B(z_star) <= 2JK * sum T_jk + sum A_j z1^B_j + sum C_k z2^-D_k is the
    balancing lemma with its constant made explicit.
    """
    J, K = len(ts.ascending), len(ts.descending)
    T = tuple(
        tuple((a**d * c**b) ** (1 / (b + d)) for c, d in ts.descending)
        for a, b in ts.ascending
    )
    lo, hi = math.log(ts.z1), math.log(ts.z2)
    while lo < (mid := (lo + hi) / 2) < hi:
        z = math.exp(mid)
        up = sum(a * b * z**b for a, b in ts.ascending)
        lo, hi = (lo, mid) if up > sum(c * d * z**-d for c, d in ts.descending) else (mid, hi)
    z_star = min(max(math.exp(lo), ts.z1), ts.z2)
    value = ts.value(z_star)
    edges = sum(a * ts.z1**b for a, b in ts.ascending) + sum(
        c * ts.z2**-d for c, d in ts.descending
    )
    guarantee = 2 * J * K * sum(sum(row) for row in T) + edges
    return GrakolResult(
        z_star=z_star, value=value, T=T, guarantee=guarantee, holds=value <= guarantee
    )


class ExponentTable(NamedTuple):
    alpha: float
    beta: float  # 1/(2 alpha)
    gamma: float  # 2 - 1/alpha
    beta0: float  # 3/(2(1+alpha))
    gamma0: float  # (4+alpha)/(1+alpha)
    switch1: float  # 2(1-alpha)/(1+3 alpha)
    switch2: float  # 4(1-alpha)/(1+3 alpha)
    switch3: float  # 2 alpha/3
    theta: float  # _theta(alpha)


def _require_alpha(alpha: float, who: str) -> None:
    if not 0.5 < alpha < 1:
        raise ValueError(f"{who}: alpha must lie in (1/2, 1)")


def _theta(a: float) -> float:  # the interpolation exponent
    return (1 - a) ** 2 * (1 + 3 * a) / ((1 + a**2) * (3 * a - 1))


def exponent_table(alpha: float) -> ExponentTable:
    """All derived exponents at one alpha.

    switch1 < switch2 always; switch2 < switch3 only once alpha > 2/3
    (below that the averaged regimes never beat the trivial bound at the
    claimed crossover, and the regime cascade collapses).
    """
    _require_alpha(alpha, "exponent_table")
    table = ExponentTable(
        alpha=alpha,
        beta=1 / (2 * alpha),
        gamma=2 - 1 / alpha,
        beta0=3 / (2 * (1 + alpha)),
        gamma0=(4 + alpha) / (1 + alpha),
        switch1=2 * (1 - alpha) / (1 + 3 * alpha),
        switch2=4 * (1 - alpha) / (1 + 3 * alpha),
        switch3=2 * alpha / 3,
        theta=_theta(alpha),
    )
    ensure(0 < table.theta < 1, f"exponent_table: theta {table.theta} outside (0, 1)")
    ensure(table.switch1 < table.switch2, "exponent_table: switch1 >= switch2")
    ensure(alpha <= 2 / 3 or table.switch2 < table.switch3, "exponent_table: switch2 >= switch3")
    return table


class RegimeBound(NamedTuple):
    value: float
    regime: str  # small_s | mid_s | large_s | trivial


def regime_bound(alpha: float, N: float, S: float) -> RegimeBound:
    """Piecewise averaged-count bound with o(1) = 0 (shape comparison only)."""
    _require_alpha(alpha, "regime_bound")
    if not 2 <= N < math.inf:
        raise ValueError("regime_bound: N must be finite and >= 2")
    if not 1 <= S < math.inf:
        raise ValueError("regime_bound: S must be finite and >= 1")
    t = exponent_table(alpha)
    logS = math.log(S) / math.log(N)
    if logS <= t.switch1:
        return RegimeBound(S ** (1 - 1 / (4 * alpha)) * N ** (1 / (2 * alpha)), "small_s")
    if logS <= t.switch2:
        return RegimeBound(S**0.5 * N ** ((3 - alpha) / (1 + 3 * alpha)), "mid_s")
    if logS <= t.switch3:
        return RegimeBound(
            S ** (3 / (3 + alpha)) * N ** ((3 - alpha) / (3 + alpha)), "large_s"
        )
    return RegimeBound(float(N), "trivial")


def bound_curve_csv(alpha: float, N: float, s_values: list[float]) -> str:
    """CSV rows (N, S, bound, regime) for external plotting."""
    lines = ["N,S,bound,regime"]
    for S in s_values:
        rb = regime_bound(alpha, N, S)
        lines.append(f"{N!r},{S!r},{rb.value!r},{rb.regime}")
    return "\n".join(lines) + "\n"


class InterpolationCheck(NamedTuple):
    theta: float
    identity_error: float  # |(1 - theta/2) - rational form|
    inequality_holds: bool  # 1 - theta/2 >= (7a-3)/(6a-2) at this alpha
    grid_holds: bool  # same inequality across a fixed alpha grid


def interpolation_check(alpha: float) -> InterpolationCheck:
    """The convexity step that drops the fourth balanced term.

    theta interpolates between two of the balanced terms; the inequality
    1 - theta/2 >= (7a-3)/(6a-2) is what makes the interpolated term
    dominated.  Checked at alpha and on a grid over (1/2, 1).
    """
    _require_alpha(alpha, "interpolation_check")

    def lhs(a: float) -> float:
        return (-3 + 5 * a + 3 * a**2 + 3 * a**3) / ((6 * a - 2) * (1 + a**2))

    def rhs(a: float) -> float:
        return (7 * a - 3) / (6 * a - 2)

    theta = _theta(alpha)
    ensure(0 < theta < 1, f"interpolation_check: theta {theta} outside (0, 1)")
    err = abs((1 - theta / 2) - lhs(alpha))
    grid = [0.501 + i * 0.002 for i in range(250)]  # 0.501 .. 0.999
    grid_ok = all(
        0 < _theta(a) < 1 and lhs(a) >= rhs(a) - 1e-12 for a in grid
    )
    return InterpolationCheck(
        theta=theta,
        identity_error=err,
        inequality_holds=lhs(alpha) >= rhs(alpha) - 1e-12,
        grid_holds=grid_ok,
    )


def default_z(N: float, alpha: float) -> float:
    """z = N^(1/(2 alpha)) (log N)^(-1/alpha), the choice that balances the
    endgame terms N z^(1-2 alpha) and z (log z)^2."""
    _require_alpha(alpha, "default_z")
    if not 3 <= N < math.inf:
        raise ValueError("default_z: N must be finite and >= 3")
    return N ** (1 / (2 * alpha)) * math.log(N) ** (-1 / alpha)


def endgame_system(N: float, alpha: float, z1: float, z2: float) -> TermSystem:
    """Single-pair system {z} vs {N z^-(2 alpha - 1)}; T_11 = N^(1/(2 alpha))."""
    return TermSystem(
        ascending=((1.0, 1.0),),
        descending=((float(N), 2 * alpha - 1),),
        z1=z1,
        z2=z2,
    )


def av1_system(S: float, N: float, alpha: float, z1: float, z2: float) -> TermSystem:
    """First averaged system: {S z} vs {S^(1/2) N z^-(2a-1), S N z^-a}.

    Balanced terms come out as T_11 = S^(1-1/(4a)) N^(1/(2a)) and
    T_12 = S N^(1/(1+a)).
    """
    return TermSystem(
        ascending=((float(S), 1.0),),
        descending=((math.sqrt(S) * N, 2 * alpha - 1), (float(S) * N, alpha)),
        z1=z1,
        z2=z2,
    )
