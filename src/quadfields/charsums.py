"""Character sums over the orbit of lam: complete sums mod p and mod ell*p,
the exact frequency-split product identity, incomplete sums with their bound
ratios, Weil-ratio scans, and the Heath-Brown average.

Conventions: e(t) = exp(2*pi*i*t), sums run over x = 1..tau unless a K says
otherwise, and every a = 0 path is computed in exact integers.

Each sum reads one row of symbols per prime from `engine.orbit_symbols`,
and the Weil scan its primes and periods from `harvest.shift_orders`, its
primes split across the CPUs by `harvest.fork_map`; numpy is imported inside
the functions that call them.
The shift A of an incomplete sum goes into f, as f_A(X) = f(A X).
"""

from __future__ import annotations

import cmath
import math
import sys
from math import gcd
from typing import NamedTuple

from .arith import check_table, ensure, g3, is_prime, is_squarefree, jacobi, multiplicative_order
from .harvest import shift_orders
from .sequences import Polynomial, gcd_degree

__all__ = [
    "CharSumResult",
    "WeilScanReport",
    "HbAverage",
    "split_frequencies",
    "complete_sum_p",
    "complete_sum_pair",
    "product_formula_residual",
    "incomplete_sum",
    "weil_scan",
    "hb_average",
]

WEIL_SLACK = 1  # asserted bound is (degree + WEIL_SLACK) * sqrt(p)
# priced points of one Weil scan: each prime costs its period plus WEIL_PRIME_POINTS (0.12 ms
# against 0.15 us a point on one CPU, shared x86-64); the largest scans accepted, lam = 2 to pmax
# 123580 and lam = 1 to 7358970, take 66 s and 69 s on one CPU: the cap is about a minute
WEIL_POINT_CAP = 4 * 10**8
WEIL_PRIME_POINTS = 800


class _CharSumFields(NamedTuple):
    value: complex
    modulus: int
    period: int
    frequency: int
    kind: str  # complete_p | complete_lp | incomplete
    bound_ratio: float


class CharSumResult(_CharSumFields):
    __slots__ = ()

    def __new__(cls, value, modulus, period, frequency, kind, bound_ratio) -> CharSumResult:
        # a complete sum has period terms; incomplete_sum checks its own K terms
        ensure(kind == "incomplete" or abs(value) <= period + 1e-6,
               "character sum exceeds its trivial bound")
        return super().__new__(cls, value, modulus, period, frequency, kind, bound_ratio)


def split_frequencies(a: int, tau_ell: int, tau_p: int) -> tuple[int, int]:
    """Split a frequency along coprime periods into (a_ell, a_p) with
    a_ell*tau_p + a_p*tau_ell = a mod tau_ell*tau_p, so the two split sums
    multiply back to the pair sum."""
    if tau_ell < 1 or tau_p < 1:
        raise ValueError("split_frequencies: periods must be >= 1")
    if gcd(tau_ell, tau_p) != 1:
        raise ValueError("split_frequencies: periods must be coprime")
    a_ell = a * pow(tau_p, -1, tau_ell) % tau_ell
    a_p = a * pow(tau_ell, -1, tau_p) % tau_p
    ensure((a_ell * tau_p + a_p * tau_ell - a) % (tau_ell * tau_p) == 0,
           "split congruence violated")
    return a_ell, a_p


def _require_monic_separable(f: Polynomial, who: str) -> None:
    if f.degree < 1:
        raise ValueError(f"{who}: deg f must be >= 1")
    if f.leading != 1:
        raise ValueError(f"{who}: f must be monic")
    if gcd_degree(f, f.derivative()) != 0:
        raise ValueError(f"{who}: f must be separable")


def _orbit_sum(f: Polynomial, lam: int, modulus: int, period: int, a: int) -> complex:
    # core summation, no hypothesis gates: sum over x=1..period of
    # (f(lam^x)/modulus) e(a x / period); the a != 0 terms accumulate one at
    # a time in x order, since a numpy sum would round differently
    from .engine import orbit_symbols
    a %= period
    syms = orbit_symbols(f, lam, modulus, period)
    if a == 0:
        return complex(int(syms.sum()))
    acc = 0j
    for x, sym in enumerate(syms.data, 1):  # Python ints, no list of the row
        if sym:
            acc += sym * cmath.exp(2j * cmath.pi * (a * x % period) / period)
    return acc


def complete_sum_p(f: Polynomial, lam: int, p: int, a: int) -> CharSumResult:
    """Complete sum over one orbit of lam mod an odd prime p.

    Gates are the square-root-cancellation hypotheses: f monic separable and
    p coprime to lam*f(0).  The returned bound_ratio is |value|/sqrt(p).
    """
    _require_monic_separable(f, "complete_sum_p")
    if lam == 0:
        raise ValueError("complete_sum_p: lam must be nonzero")
    if p == 2 or not is_prime(p):
        raise ValueError("complete_sum_p: p must be an odd prime")
    if (lam * f.constant) % p == 0:
        raise ValueError("complete_sum_p: p divides lam*f(0)")
    period = multiplicative_order(lam, p)
    value = _orbit_sum(f, lam, p, period, a)
    return CharSumResult(
        value=value,
        modulus=p,
        period=period,
        frequency=a,
        kind="complete_p",
        bound_ratio=abs(value) / math.sqrt(p),
    )


def _pair_cycles(f, lam, ell, p, who, K=math.inf):
    # J[x] = (f(lam^x) / q) for x = 1..t_q, t_q the order of lam mod q (a shift
    # A is already in f); the sequence mod q has period t_q in x, so two short
    # cycles replace every symbol mod ell*p, each period the length of its cycle.
    from .engine import np, orbit_symbols
    if ell == p:
        raise ValueError(f"{who}: ell and p must be distinct")
    for q in (ell, p):
        if q == 2 or not is_prime(q):
            raise ValueError(f"{who}: {g3(q)} must be an odd prime")
    if lam == 0 or lam % ell == 0 or lam % p == 0:
        raise ValueError(f"{who}: lam must be coprime to ell*p")
    t_ell = multiplicative_order(lam, ell)
    t_p = multiplicative_order(lam, p)
    if gcd(t_ell, t_p) != 1:
        raise ValueError(f"{who}: orders of lam mod ell and mod p share a factor")
    check_table(who, length := min(K, t_ell * t_p), "{} pair terms", length)
    return [orbit_symbols(f, lam, q, t).astype(np.int64) for q, t in ((ell, t_ell), (p, t_p))]


def _pair_terms(jl, jp, length):
    # term n (1-based) is jl[(n-1) % t_ell] * jp[(n-1) % t_p]: each cycle tiled to length
    from .engine import np
    return np.resize(jl, length) * np.resize(jp, length)


def _fourier_sum(cycle, a: int) -> complex:
    # sum over x = 1..t of cycle[x-1] e(a x / t), cycle an int array; exact integers when t | a
    from .engine import np
    t = len(cycle)
    a %= t
    if a == 0:
        return complex(int(cycle.sum()))
    x = np.arange(1, t + 1, dtype=np.int64)
    return complex((cycle * np.exp(2j * np.pi * (a * x % t) / t)).sum())


def complete_sum_pair(f: Polynomial, lam: int, ell: int, p: int, a: int) -> CharSumResult:
    """Complete sum mod ell*p over the full period tau_ell * tau_p.

    No monic gate here: the product identity this feeds is exact for any
    integer f, and the coprimality conditions are the whole hypothesis.
    """
    jl, jp = _pair_cycles(f, lam, ell, p, "complete_sum_pair")
    period = len(jl) * len(jp)
    value = _fourier_sum(_pair_terms(jl, jp, period), a)
    return CharSumResult(
        value=value,
        modulus=ell * p,
        period=period,
        frequency=a,
        kind="complete_lp",
        bound_ratio=abs(value) / math.sqrt(ell * p),
    )


def product_formula_residual(f: Polynomial, lam: int, ell: int, p: int, a: int) -> float:
    """|pair sum - product of split sums|; 0 exactly on the a=0 integer path,
    pure roundoff otherwise."""
    jl, jp = _pair_cycles(f, lam, ell, p, "product_formula_residual")
    a_ell, a_p = split_frequencies(a, len(jl), len(jp))
    lhs = _fourier_sum(_pair_terms(jl, jp, len(jl) * len(jp)), a)
    return abs(lhs - _fourier_sum(jl, a_ell) * _fourier_sum(jp, a_p))


def incomplete_sum(f: Polynomial, A: int, lam: int, ell: int, p: int, K: int) -> CharSumResult:
    """Exact integer sum of (f(A lam^n)/ell*p) for n = 1..K, with the ratio
    against K*sqrt(ell*p)/tau + sqrt(ell*p)*log(ell*p) attached.  The terms have
    period tau, so the sum is q*S_tau + S_r with q, r = divmod(K, tau)."""
    _require_monic_separable(f, "incomplete_sum")
    m = ell * p  # these checks come before the cycles, which cost a term per unit of order
    if gcd(A, m) != 1:
        raise ValueError("incomplete_sum: A must be coprime to ell*p")
    if gcd(lam * f.constant, m) != 1:
        raise ValueError("incomplete_sum: ell*p must be coprime to lam*f(0)")
    if K < 0:
        raise ValueError("incomplete_sum: K must be >= 0")
    if K * K * m > int(sys.float_info.max) ** 2:  # the bound's K*sqrt(ell*p) passes a float
        raise ValueError("incomplete_sum: K*sqrt(ell*p) must stay in the float range")
    # not Polynomial(): A = 0 passes the gates above only at ell*p = +-1, which _pair_cycles refuses
    f_A = f._replace(coefficients=tuple(c * A**i for i, c in enumerate(f.coefficients)))  # f(A X)
    jl, jp = _pair_cycles(f_A, lam, ell, p, "incomplete_sum", K)
    period = len(jl) * len(jp)
    q, r = divmod(K, period)
    terms = _pair_terms(jl, jp, min(K, period))
    total = q * int(terms.sum()) + int(terms[:r].sum())
    ensure(abs(total) <= K, "character sum exceeds its trivial bound")
    bound = K * math.sqrt(m) / period + math.sqrt(m) * math.log(m)
    return CharSumResult(
        value=complex(total),
        modulus=m,
        period=period,
        frequency=0,
        kind="incomplete",
        bound_ratio=abs(total) / bound,
    )


class WeilScanRow(NamedTuple):
    modulus: int
    period: int
    frequency: int  # the a achieving the max ratio for this modulus
    value: complex
    ratio: float
    admissible: bool  # p coprime to lam*f(0), i.e. the bound hypothesis holds


class WeilScanReport(NamedTuple):
    slack: float  # asserted ceiling for admissible ratios, (d+1)
    rows: tuple[WeilScanRow, ...]

    @property
    def max_ratio(self) -> float:
        return max((r.ratio for r in self.rows if r.admissible), default=0.0)

    @property
    def ok(self) -> bool:
        return not any(r.admissible and r.ratio > self.slack for r in self.rows)

    def to_csv(self) -> str:
        lines = ["modulus,period,frequency,re,im,ratio"]
        for r in self.rows:
            lines.append(
                f"{r.modulus},{r.period},{r.frequency},"
                f"{r.value.real:.12g},{r.value.imag:.12g},{r.ratio:.12g}"
            )
        return "\n".join(lines) + "\n"


def weil_scan(f: Polynomial, lam: int, p_max: int):
    """Scan odd primes p <= p_max coprime to lam; for each, take the worst
    frequency of the complete sum and report |value|/sqrt(p).

    One FFT per prime covers every frequency at once.  Rows where p divides
    f(0) carry admissible=False: the square-root bound promises nothing
    there, so they are reported but never asserted against.

    The primes and periods come from `harvest.shift_orders`.  Each prime
    costs its period plus WEIL_PRIME_POINTS, and the first prime whose
    running price passes WEIL_POINT_CAP raises ValueError, before numpy is
    imported.  The (p, period) rows go to `harvest.fork_map` with that
    price as the work, and the shards' rows are merged back in ascending p.
    Each row is computed the same way in whichever process runs it, so the
    report does not depend on the split.
    """
    _require_monic_separable(f, "weil_scan")
    if lam == 0:
        raise ValueError("weil_scan: lam must be nonzero")
    orders, points = [], 0  # (p, period) ascending, and their price
    for p, _, t in shift_orders(lam, 3, p_max):
        if t:  # 0: p | lam
            orders.append((p, t))
            points += t + WEIL_PRIME_POINTS
            if points > WEIL_POINT_CAP:
                raise ValueError(f"weil_scan: past the cap of {WEIL_POINT_CAP} points at p = {p}")
    from .engine import np, orbit_symbols
    from .harvest import fork_map

    def scan(shard):
        rows = []
        for p, period in shard:
            terms = orbit_symbols(f, lam, p, period).astype(np.float64)
            # terms[x-1] holds x = 1..period; numpy's fft sign convention means
            # our sum at frequency a is e(a/period) * conj(fft[a])
            spectrum = np.fft.fft(terms)
            mags = np.abs(spectrum)
            a_best = int(mags.argmax())
            value = cmath.exp(2j * cmath.pi * a_best / period) * spectrum[a_best].conjugate()
            rows.append(
                WeilScanRow(
                    modulus=p,
                    period=period,
                    frequency=a_best,
                    value=complex(value),
                    ratio=float(mags[a_best]) / math.sqrt(p),
                    admissible=f.constant % p != 0,
                )
            )
        return rows

    parts = fork_map(scan, orders, points)
    rows = sorted(row for part in parts for row in part)  # by p: the moduli are distinct
    return WeilScanReport(slack=float(f.degree + WEIL_SLACK), rows=tuple(rows))


class HbAverage(NamedTuple):
    lhs: float


def hb_average(R: int, S: int) -> HbAverage:
    """Sum of |sum of (s/m) over s <= S|^2 over odd squarefree m <= R, the
    Heath-Brown average before its division by S(R+S); lhs is that exact sum."""
    if R < 1 or S < 1:
        raise ValueError("hb_average: R and S must be >= 1")
    lhs = 0
    for m in range(1, R + 1, 2):
        if is_squarefree(m):
            lhs += sum(jacobi(s, m) for s in range(1, S + 1)) ** 2
    return HbAverage(lhs=float(lhs))

