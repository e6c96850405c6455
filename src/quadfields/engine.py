"""The numpy engine: numpy twins of two pure-Python engines, and the fork
helper that splits the loops over them across the CPUs.

`order_tiles` gives the rows of `harvest.shift_orders` as tiles of arrays,
one call per segment of odd n, and `orbit_symbols` the symbols of
`sequences.symbol_row` (-1/0/1 in place of 0/1/2) as one array.  Both
pairs stay because the pure-Python twin is slower on the density report
and the Weil scan; the numbers are in ROADMAP's standing notes.

The Weil scan and the density report are independent per prime, so each
hands its items (rows of p and period, or tile calls) to `fork_map`, the
only code that picks the number of shards and deals the items to them: the
first shard runs in this process, each other in a forked child.  Outputs do
not depend on the split: the scan puts its rows back in ascending p and the
report adds up integer counts.

The only module that imports numpy at the top.  The density report, the
character sums and `verify` import it inside the functions that read its
arrays, so `census`, `sieve`, `primes` without `--density` and `bounds`
start without numpy.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Callable, Sequence
from functools import partial

import numpy as np

from .arith import check_table, ensure, smallest_factors
from .sequences import Polynomial

__all__ = ["order_tiles", "orbit_symbols", "fork_map"]

_ORDER_TILE = 1 << 15  # odd n per segment of order_tiles; a tile holds its primes
_CELL_TILE = 1 << 16  # orbit_symbols builds its int64 temporaries this many cells at a time
_SHARD_CAP = 8  # most shards fork_map makes, whatever the CPU count
_SHARD_WORK = 1 << 18  # least work per shard, in orbit points or n; see fork_map


def order_tiles(g: int, lo: int, hi: int) -> list[Callable[[], tuple[np.ndarray, ...]]]:
    """One zero-argument call per segment of _ORDER_TILE odd n in [lo, hi],
    ascending, each returning three int64 arrays: the segment's odd primes
    ell (maybe none), P+(ell-1) and the order of g mod ell (0 where ell
    divides g).  The calls' rows joined are those of `harvest.shift_orders`.

    The table is built, or refused past the table cap, at this call, so
    calls made in forked children read the parent's copy, and nothing of
    length pi(hi) is ever built.  The primes are the zero cells at odd n of
    arith's smallest-prime-factor table, viewed as uint16 (2 bytes per n up
    to hi).  Cohen's order algorithm (A Course in Computational Algebraic
    Number Theory, Alg. 1.4.3) runs across a tile: one round per distinct
    prime q of ell-1, read off the same table.  Strip q^e from ell-1 and from
    t (t starts at ell-1), then raise y = g^t to the q until it reaches 1,
    multiplying t by q each time.  Products stay exact in int64:
    ell <= hi <= TABLE_LIMIT < 2^31.
    """
    spf = np.frombuffer(smallest_factors(hi), dtype=np.uint16)
    starts = range(max(lo, 3) | 1, hi + 1, 2 * _ORDER_TILE)
    return [partial(_tile, g, spf, start) for start in starts]


def _tile(g: int, spf: np.ndarray, start: int) -> tuple[np.ndarray, ...]:
    # the tile of the segment at start (odd); spf ends at hi
    ell = np.flatnonzero(spf[start : start + 2 * _ORDER_TILE : 2] == 0) * 2 + start  # 0: prime
    base = np.array([g % e for e in ell.tolist()], dtype=np.int64)
    unit = base != 0  # only these descend; the rest keep order 0
    n, t, big = ell - 1, ell - 1, np.ones_like(ell)
    live = np.arange(len(ell))  # n = ell-1 >= 2
    while live.size:
        q = spf[n[live]].astype(np.int64)
        q = np.where(q == 0, n[live], q)  # n itself when prime
        m, qe = n[live] // q, q.copy()
        j = np.flatnonzero(m % q == 0)
        while j.size:
            m[j] //= q[j]
            qe[j] *= q[j]
            j = j[m[j] % q[j] == 0]
        n[live], big[live] = m, q  # q ascends, so the last one is P+
        u = unit[live]
        idx, q = live[u], q[u]
        tl, mod = t[idx] // qe[u], ell[idx]
        y = _pow_mod(base[idx], tl, mod)
        k = np.flatnonzero(y != 1)
        while k.size:
            tl[k] *= q[k]
            y[k] = _pow_mod(y[k], q[k], mod[k])
            k = k[y[k] != 1]
        t[idx] = tl
        live = live[m > 1]
    return ell, big, np.where(unit, t, 0)


def _pow_mod(b: np.ndarray, e: np.ndarray, m) -> np.ndarray:
    # b^e mod m elementwise for int64 arrays (broadcasting), 0 <= b < m < 2^31, e >= 0
    r = np.ones_like(b)
    for i in range(int(np.max(e, initial=0)).bit_length()):
        if i:
            b = b * b % m
        r = np.where(e >> i & 1, r * b % m, r)
    return r


def orbit_symbols(f: Polynomial, base: int, p: int, count: int) -> np.ndarray:
    """Legendre symbols (f(base^x) / p) for x = 1..count, as one int8 row.

    The orbit-residue engine behind the character sums and the Weil scan.
    Powers are built by doubling and f by Horner in int64, exact because
    p < 2^31; a tile of at most 2^16 cells at a time keeps those temporaries
    small.  The symbols come from a square table when it costs no more than
    the row, else from Euler's criterion.  Primality of p is the caller's
    promise.
    """
    if p % 2 == 0 or not 3 <= p < 2**31:  # products of residues fit int64
        raise ValueError(f"orbit_symbols: modulus {p} must be odd and in [3, 2^31)")
    if count < 1:
        raise ValueError("orbit_symbols: count must be >= 1")
    check_table("orbit_symbols", count, f"1 x {count} symbols")
    width = min(count, _CELL_TILE)
    table = None
    if p <= 16 * width:
        table = np.full(p, -1, dtype=np.int8)
        table[np.arange(1, (p + 1) // 2, dtype=np.int64) ** 2 % p] = 1
        table[0] = 0
    coefficients = [c % p for c in reversed(f.coefficients)]
    out = np.empty(count, dtype=np.int8)
    for c0 in range(0, count, width):
        x = np.empty(min(width, count - c0), dtype=np.int64)
        x[0] = pow(base, 1 + c0, p)
        step, k = base % p, 1  # step = base^k
        while k < len(x):
            m = min(k, len(x) - k)
            x[k : k + m] = x[:m] * step % p
            step, k = step * step % p, k + m
        acc = np.zeros_like(x)
        for c in coefficients:
            acc *= x
            acc += c
            acc %= p
        if table is not None:
            out[c0 : c0 + len(x)] = table[acc]
        else:
            r = _pow_mod(acc, np.int64((p - 1) // 2), p)
            out[c0 : c0 + len(x)] = np.where(r > 1, -1, r)
    return out


def _cpu_count() -> int:
    # the CPUs this process may run on: taskset and cgroup cpusets narrow it
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_map(fn: Callable, items: Sequence, work: int) -> list:
    """[fn(items[i::k]) for i in range(k)]: the items dealt into k shards,
    the first run in this process and each other in a child made with
    os.fork().

    k is one per CPU in this process's affinity mask, at most _SHARD_CAP,
    and at most one per _SHARD_WORK units of `work` (orbit points of a Weil
    scan, or n up to z for a density report), at least 1.  A unit costs
    about 0.2 us in either loop and a child 10-20 ms of fork and
    copy-on-write faults: two shards lost to one at 1.6*10^5 units and won
    from 5*10^5 (ROADMAP's standing notes), hence 2^18 units per shard;
    `verify` and the tests' scans and reports stay in one process.

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
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
        raise
    return results


def _child(fn: Callable, shard, w: int) -> None:
    # runs in the forked child and never returns
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
