"""Harvest sieving primes: ell in [z, Cz] with a large P+(ell-1) and large
multiplicative order of g, the empirical density report that backs the
harvest up, and `fork_map`, which splits the report and the Weil scan
across the CPUs.

Both read P+(ell-1) and the order of g off arith's smallest-prime-factor
table (2 bytes per n up to Cz or z) in pure Python, one prime at a time.
The harvest computes each order in full, in one process; the report only
decides it against the bar ell^alpha, one segment of n per item of
`fork_map`, and holds a few integers beside the table (20 MB at z = 10^7).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator, Sequence
from itertools import compress
from operator import not_
from typing import NamedTuple

from .arith import ensure, is_prime, smallest_factors

__all__ = [
    "SievePrime",
    "SievePrimeSet",
    "DensityReport",
    "build_prime_set",
    "shift_orders",
    "density_report",
    "fork_map",
    "format_records",
    "parse_records",
]

VARIANTS = ("standard", "erh")
_SEGMENT = 1 << 15  # odd n per segment of a density report
_SHARD_CAP = 8  # most shards fork_map makes, whatever the CPU count
_SHARD_WORK = 1 << 18  # least work per shard, in units of about 0.2 us; see fork_map


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

    The table is built once, before the segments of _SEGMENT odd n go to
    `fork_map` with z as the work; the shards' integer counts add up to the
    same report for every split.  Each prime peels the primes of ell-1 off
    the table (P+ is the last), and `_order_clears` decides the order
    against the bar, a Python float, so every comparison is exact.
    """
    if g <= 1:
        raise ValueError("density_report: g must be > 1")
    if not 10**3 <= z < math.inf:
        raise ValueError("density_report: z must be finite and >= 10^3")
    if not 0.5 <= alpha < 1:
        raise ValueError("density_report: alpha must lie in [1/2, 1)")
    hi = math.floor(z)
    spf = smallest_factors(hi)

    def count(starts):
        counted = passed_alpha = passed_order = 0
        for start in starts:
            stop = min(start + 2 * _SEGMENT, hi + 1)
            for ell in compress(range(start, stop, 2), map(not_, spf[start:stop:2])):
                bar, primes, p_plus = ell**alpha, [], ell - 1
                while q := spf[p_plus]:  # the primes of ell-1, ascending, P+ left last
                    primes.append(q)
                    p_plus //= q
                primes.append(p_plus)
                counted += 1
                passed_alpha += p_plus >= bar
                passed_order += _order_clears(g % ell, ell, primes, bar)
        return counted, passed_alpha, passed_order

    counts = fork_map(count, range(3, hi + 1, 2 * _SEGMENT), hi)
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


def _order_clears(base: int, ell: int, primes: list[int], bar: float) -> bool:
    # whether the order of base mod ell (0 where base = 0) is >= bar, primes those of ell-1
    # with multiplicity, ascending; the divisor descent runs on the largest q first, and
    # after each q the order divides t and t / order divides rest, the part of ell-1 below
    # q, so the order lies in [t // rest, t]; at the last q, rest is 1 and a test decides
    if not base:
        return False
    t = rest = ell - 1
    for q in reversed(primes):
        rest //= q
        if rest % q == 0:  # more copies of q follow
            continue
        while t % q == 0 and pow(base, t // q, ell) == 1:
            t //= q
        if t < bar:
            return False
        if t // rest >= bar:
            return True


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


def _cpu_count() -> int:
    # the CPUs this process may run on: taskset and cgroup cpusets narrow it
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_map(fn: Callable, items: Sequence, work: int) -> list:
    """[fn(items[i::k]) for i in range(k)]: the items dealt into k shards,
    the first run in this process and each other in a child made with
    os.fork().

    k is one per CPU in this process's affinity mask, at most _SHARD_CAP,
    and at most one per _SHARD_WORK units of `work` (the priced points of a
    Weil scan, or n up to z for a density report), at least 1.  A unit
    costs about 0.2 us in either loop and a child 10-20 ms of fork and
    copy-on-write faults: two shards lost to one on the scan at pmax 2000
    (4.0*10^5 units) and won at pmax 4000 (1.0*10^6), hence 2^18 units per
    shard; `verify` and the tests' scans and reports stay in one process.

    A child pickles its result, or the exception it raised, back over a
    pipe and ends with os._exit, so it runs no exit handlers and flushes
    none of the parent's buffers.  A child's exception is raised again in
    the parent; a child that dies or sends nothing raises InvariantError.
    Every child is reaped before this returns or raises; when this process
    raises first (its own shard, or a child's error), the children still
    running are killed.  numpy's OpenBLAS stops its worker threads before
    a fork (its own atfork handler) and starts them again at the next BLAS
    call; no shard calls BLAS.
    """
    import pickle

    k = max(1, min(_cpu_count(), _SHARD_CAP, work // _SHARD_WORK))
    children = []  # (pid, read end of its pipe), each dropped once its child is reaped
    try:
        for i in range(1, k):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _child(fn, items[i::k], w)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [fn(items[::k])]
        while children:  # read to EOF first: a child blocks on a full pipe until then
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            ensure(status == 0 and data, f"fork_map: child {pid} ended with wait status {status}"
                   f" after {len(data)} bytes")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
    except BaseException:
        import signal

        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
        raise
    return results


def _child(fn: Callable, shard, w: int) -> None:
    # runs in the forked child and never returns
    import pickle

    code = 1
    try:
        try:
            out = (True, fn(shard))
        except BaseException as exc:
            out = (False, exc)
        with open(w, "wb") as pipe:
            pickle.dump(out, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)
