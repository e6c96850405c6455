"""Exact census of the quadratic fields Q(sqrt(u(n))) over a window of n.

Counting goes through squarefree kernels, never through a factorization of
u(n): two positive integers generate the same field exactly when their
product is a perfect square, and s*u(n) is a square exactly when s is the
squarefree kernel of u(n).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, log
from typing import NamedTuple

from .arith import U64_MAX, check_table, ensure, g3, is_perfect_square, is_squarefree, jacobi
from .arith import multiplicative_order, prime_chunks
from .sequences import SequenceSpec, symbol_row, u_eval

__all__ = [
    "KernelResult",
    "CensusResult",
    "same_field",
    "s_matches",
    "window_matches",
    "count_Q",
    "count_Q_total",
    "distinct_fields",
    "squarefree_kernel",
]

# Kernel extraction costs at most about 4 ns per (bit of u(n) + 2048) per 64-prime
# chunk <= B (100- to 120,000-bit u(n), B = 10, 10^6 and 10^7, Python 3.11 on a 2-core
# x86-64; the 2048 stands for the per-chunk gcd).  The layer strip also divides u(n) by
# powers of g's primes, up to peel bits of them: all of u(n) when f(0) = 0 (g^n divides
# it), else at most the part of f(0) built from g's primes.  That costs about 4 ns more
# per bits(u(n)) * peel / 2048: 1.0-4.5 ns measured on f = X and X^2 + X (g from 2 to
# 30030, u(n) of 0.2 to 5 million bits), 1.4-1.7 ns on X + 2^k with g = 2 and X + 6^k
# with g = 6 (k up to 400,000).  A large f(0) coprime to g has peel 1 and the chunk
# term covers its strip (1.5-1.9 ns per unit).  So this cap is about a minute.  The
# model prices every chunk <= B, the worst case (B-smooth parts that are squares, so no
# kernel is decided against S before the last chunk); most windows stop far earlier.
KERNEL_WORK_CAP = 15 * 10**9

# Fixed witnesses for the residue prefilters: (a/p)(b/p) = -1 at any of them
# proves a*b is not a square.  Any odd primes work; these 16, from 1009 to 1097,
# keep each order L of g below p, so a row over a window of a few thousand n is
# read off one period: at most p - 1 symbols and a square table of p/2 entries.
# Zero residues are more frequent than with primes near 10^4: 0.57% of n have
# one for f = X^3 + 2, g = 3 over 12,000 n (0.16% before), and distinct_fields
# finds the classes such an n may join by dict lookups, not a scan.
_WITNESS_PRIMES = (
    1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049,
    1051, 1061, 1063, 1069, 1087, 1091, 1093, 1097,
)

class KernelResult(NamedTuple):
    """Squarefree kernel of n as far as trial division to B can see.

    complete: kernel is exact.  Otherwise kernel is a certified lower bound
    on the true kernel: the unfactored cofactor is a non-square whose prime
    factors are all at least the bound's last factor (B + 1, or a chunk's
    first prime when the division stopped early against S).
    """

    kernel: int
    complete: bool


def _strip_powers(m: int, h: int) -> tuple[int, int]:
    # (m / h^t, t) for the largest t, given h > 1 divides m: O(log t) big divisions
    squares, t = [h], 0  # h^(2^i) while it divides m
    while (sq := squares[-1] * squares[-1]) <= m and m % sq == 0:
        squares.append(sq)
    for i in reversed(range(len(squares))):
        q, r = divmod(m, squares[i])
        if not r:
            m, t = q, t + (1 << i)
    return m, t


def squarefree_kernel(n: int, B: int, S: int | None = None) -> KernelResult:
    """Strip primes <= B to even multiplicity and classify what remains.

    Primes are consumed in chunks: g = gcd(m mod P, P) against the chunk
    product P is the product of the chunk's primes that divide m.  Each layer
    divides out the largest power g^t (O(log t) big divisions by repeated
    squares); the primes of g that no longer divide m had exponent exactly the
    depth reached, and join the kernel when that depth is odd.

    With S, division stops before the first chunk whose smallest prime p has
    small_kernel * p > S: every prime left in m is >= p, so the kernel is
    small_kernel when m is a square (complete) and otherwise at least
    small_kernel * p > S (returned incomplete).  Either way it is decided
    against S; without S the kernel is as exact as B allows.
    """
    if n <= 0:
        raise ValueError("squarefree_kernel: n must be positive")
    if B < 2:
        raise ValueError("squarefree_kernel: B must be >= 2")
    m = n
    small_kernel = 1
    for p, prod in prime_chunks(B):
        if p * p > m:
            break  # no factor below p <= B, so m is 1 or a prime below B^2
        if S is not None and small_kernel * p > S:  # each prime left in m is >= p
            square = is_perfect_square(m)
            return KernelResult(kernel=small_kernel * (1 if square else p), complete=square)
        g, depth = gcd(m % prod, prod), 0
        while g > 1:
            m, t = _strip_powers(m, g)
            depth += t
            h = gcd(m, g)
            if depth & 1:
                small_kernel *= g // h
            g = h
    if m == 1 or is_perfect_square(m):
        return KernelResult(kernel=small_kernel, complete=True)
    if m <= B * B:  # a leftover below B^2 with no factor up to B is prime
        return KernelResult(kernel=small_kernel * m, complete=True)
    return KernelResult(kernel=small_kernel * (B + 1), complete=False)


def same_field(a: int, b: int) -> bool:
    """Q(sqrt(a)) equals Q(sqrt(b)) iff a*b is a perfect square."""
    if a <= 0 or b <= 0:
        raise ValueError("same_field: inputs must be positive")
    return is_perfect_square(a * b)


def _require_census_spec(spec: SequenceSpec, who: str) -> None:
    if not spec.separable:
        raise ValueError(f"{who}: census requires a separable f")


def _u_bits(spec: SequenceSpec, n: int) -> int:
    # |u(n)| <= sum |c_i| * g^(deg n) < 2^_u_bits(spec, n)
    coeff_bits = sum(map(abs, spec.f.coefficients)).bit_length()
    return spec.f.degree * spec.g.bit_length() * n + coeff_bits


def _window_bits(spec: SequenceSpec, M: int, N: int) -> int:
    # bound on the sum of bitlen(u(n)) over the window; _u_bits is affine in n
    return (_u_bits(spec, M + 1) + _u_bits(spec, M + N)) * N // 2


def _smooth_part(c: int, g: int) -> int:
    # the largest divisor of c >= 1 built from g's primes, gcd(c, g^bits(c)), by stripping
    # powers of h = gcd(r, g) until h = 1: a c coprime to g costs one small gcd, not a big one
    r = c
    while (h := gcd(r, g)) > 1:
        r = _strip_powers(r, h)[0]
    return c // r


def _window(M: int, N: int, who: str) -> range:
    if M < 0:
        raise ValueError(f"{who}: M must be >= 0")
    if N < 1:
        raise ValueError(f"{who}: N must be >= 1")
    return range(M + 1, M + N + 1)


def _witness_window(M: int, N: int, who: str) -> range:
    # the window, unless its witness symbols pass the table cap: checked before any u(n)
    check_table(who, len(_WITNESS_PRIMES) * N, f"{len(_WITNESS_PRIMES)} x {{}} symbols", N)
    return _window(M, N, who)


@lru_cache(maxsize=len(_WITNESS_PRIMES))  # the last window's rows
def _witness_row(spec: SequenceSpec, M: int, N: int, p: int) -> bytes:
    # p's row over the window, (u(n)/p) + 1 per n, read off one period of L symbols: L the
    # order of g mod p, or 1 when p | g (as n >= 1)
    L = multiplicative_order(spec.g, p) if spec.g % p else 1
    return symbol_row(spec.f, spec.g, p, M + 1, N, L)


def s_matches(spec: SequenceSpec, n: int, s: int) -> bool:
    """True when u(n) > 0 and s*u(n) is a perfect square."""
    u = u_eval(spec, n)
    return u > 0 and is_perfect_square(s * u)


def window_matches(spec: SequenceSpec, M: int, N: int, s: int) -> list[int]:
    """The n in [M+1, M+N] with u(n) > 0 and s*u(n) a perfect square.

    The witness primes thin the window one at a time, each dropping about half
    of what is left: n goes when (s/p)(u(n)/p) = -1, and thinning stops once none
    is left.  The symbols come from the window's witness rows, each built at most
    once per (f, g, window) across calls.  Only survivors get the exact test,
    `s_matches`.
    """
    live = _witness_window(M, N, "window_matches")
    for p in _WITNESS_PRIMES:
        if not live:
            break
        if j := jacobi(s, p):  # n goes when (u(n)/p) = -(s/p); none when p | s
            row = _witness_row(spec, M, N, p)
            live = [n for n in live if row[n - M - 1] != 1 - j]
    return [n for n in live if s_matches(spec, n, s)]


def count_Q(spec: SequenceSpec, M: int, N: int, s: int) -> int:
    """Number of n in [M+1, M+N] with u(n) > 0 and s*u(n) a perfect square."""
    _require_census_spec(spec, "count_Q")
    if s < 1:
        raise ValueError("count_Q: s must be >= 1")
    if s > U64_MAX:
        raise ValueError("count_Q: cannot certify squarefreeness past 64 bits")
    if not is_squarefree(s):
        raise ValueError("count_Q: s must be squarefree")
    _window(M, N, "count_Q")
    return len(window_matches(spec, M, N, s))


class CensusResult(NamedTuple):
    M: int
    N: int
    S: int | None
    per_s: dict[int, int]
    total: int
    classes: tuple[tuple[int, tuple[int, ...]], ...]  # (representative, members)
    skipped: tuple[int, ...]  # n with u(n) <= 0

    def to_doc(self) -> dict:  # the artifact; the CLI encodes it as sorted JSON
        return {
            "M": self.M,
            "N": self.N,
            "S": self.S,
            "per_s": [[s, c] for s, c in sorted(self.per_s.items())],
            "classes": [[rep, len(members)] for rep, members in self.classes],
            "skipped": list(self.skipped),
        }


def count_Q_total(spec: SequenceSpec, M: int, N: int, S: int) -> CensusResult:
    """Sum of count_Q over all squarefree s <= S, computed per n by kernel
    extraction instead of a loop over s.

    Trial division runs to B = min(S, 2^ceil(top/2)), where every u(n) in the
    window is below 2^top, and each kernel stops as soon as it is decided
    against S.  So a kernel comes out exact (counted iff <= S) or certified to
    exceed S: by the early stop, by a cofactor of primes above B = S, and for
    B < S, B^2 > u(n) leaves no cofactor undecided.  A window whose kernel
    work, priced before any u(n) is built (and before the sieve to B, from a
    lower bound on its chunks), passes KERNEL_WORK_CAP raises ValueError.
    """
    _require_census_spec(spec, "count_Q_total")
    if S < 1:
        raise ValueError("count_Q_total: S must be >= 1")
    ns = _window(M, N, "count_Q_total")
    top = _u_bits(spec, M + N)  # every u(n) in the window is below 2^top
    half = (top + 1) // 2  # min(S, 2^half) by bit lengths: 2^half is not built past S
    B = max(2, S if S.bit_length() <= half else 1 << half)
    check_table("count_Q_total", B, "the numbers to B = {}", B)  # an oversized B fails first
    c = abs(spec.f.constant)
    peel = _smooth_part(c, spec.g).bit_length() if c else top
    per_chunk, rest = _window_bits(spec, M, N) + 2048 * N, N * top * peel // 2048
    # pi(B) > B / ln B for B >= 17 (Rosser-Schoenfeld), 1 chunk below: sieve only if that passes
    chunks, least = -(-int(B / log(B)) // 64), "at least "
    if per_chunk * chunks + rest <= KERNEL_WORK_CAP:
        chunks, least = len(prime_chunks(B)), ""
    if (work := per_chunk * chunks + rest) > KERNEL_WORK_CAP:
        raise ValueError(
            f"count_Q_total: kernel extraction needs {least or 'about '}{g3(work)} steps (bits of "
            f"u(n) and {least}{chunks} prime chunks <= {B}), past the cap {KERNEL_WORK_CAP:.3g}"
        )
    per_s: dict[int, int] = {}
    skipped = []
    for n in ns:
        u = u_eval(spec, n)
        if u <= 0:
            skipped.append(n)
            continue
        k = squarefree_kernel(u, B, S)
        ensure(k.complete or k.kernel > S, f"count_Q_total: kernel of u({n}) undecided against S")
        if k.complete and k.kernel <= S:
            per_s[k.kernel] = per_s.get(k.kernel, 0) + 1
    return CensusResult(M=M, N=N, S=S, per_s=per_s, total=sum(per_s.values()),
                        classes=(), skipped=tuple(skipped))


def _compatible(index: dict, zero: int, plus: int):
    # the classes whose rep's symbols agree with n's wherever neither is zero.  index files
    # each class by its rep's zero mask zr, then plus mask: in group zr a match has n's plus
    # bits off zr, and any bits where n alone is zero; past as many keys as the group
    # holds, its keys are scanned instead
    for zr, group in index.items():
        free, base = zero & ~zr, plus & ~zr
        if 1 << free.bit_count() > len(group):
            yield from (i for key, ids in group.items() if key & ~free == base for i in ids)
            continue
        sub = free
        while True:  # every submask of free, free first
            yield from group.get(base | sub, ())
            if not sub:
                break
            sub = (sub - 1) & free


def distinct_fields(spec: SequenceSpec, M: int, N: int) -> CensusResult:
    """Partition {n in window : u(n) > 0} into field-equality classes.

    Each new n is compared against class representatives only: field equality
    is an equivalence, and ascending n keeps the merge order deterministic.
    The window's witness rows give the signature of n, masks of its zero and
    +1 symbols (the rest are -1).  Where a +1 meets a -1 the fields differ,
    so only the classes whose rep agrees with n wherever neither has a zero
    are tried, found by dict lookups on the masks.  At most one class passes
    the exact test, `same_field`, so the order of trials cannot matter.  A
    class keeps no u(rep), which the exact test recomputes: memory stays
    linear in N.
    """
    _require_census_spec(spec, "distinct_fields")
    ns = _witness_window(M, N, "distinct_fields")
    rows = [_witness_row(spec, M, N, p) for p in _WITNESS_PRIMES]
    ones = int.from_bytes(b"\1" * len(rows), "little")  # a mask bit per prime, bit 8i for p_i
    classes: list[tuple[int, list[int]]] = []  # (rep, members)
    index: dict[int, dict[int, list[int]]] = {}  # zero mask -> plus mask -> classes of such reps
    skipped = []
    for n, col in zip(ns, zip(*rows)):  # col: n's code (u(n)/p_i) + 1 for each p_i
        u = u_eval(spec, n)
        if u <= 0:
            skipped.append(n)
            continue
        sig = int.from_bytes(bytes(col), "little")  # byte i for p_i
        zero, plus = sig & ones, sig >> 1 & ones  # codes 1 and 2
        for i in _compatible(index, zero, plus):
            rep, members = classes[i]
            if same_field(u_eval(spec, rep), u):
                members.append(n)
                break
        else:
            index.setdefault(zero, {}).setdefault(plus, []).append(len(classes))
            classes.append((n, [n]))
    return CensusResult(
        M=M,
        N=N,
        S=None,
        per_s={},
        total=sum(len(members) for _, members in classes),
        classes=tuple((rep, tuple(members)) for rep, members in classes),
        skipped=tuple(skipped),
    )
