"""The numpy engine: numpy twins of two pure-Python engines, one call each.

`shift_orders` gives the rows of `harvest.shift_orders` as tiles of arrays,
one segment of odd n per tile, and `orbit_symbols` the symbols of
`sequences.symbol_row` (with a shift, and -1/0/1 in place of 0/1/2) as one
array.  Both pairs stay because the pure-Python twin is slower
on the density report and the Weil scan; the numbers are in ROADMAP's
standing notes.

The only module that imports numpy at the top.  The density report, the
character sums and `verify` import it inside the functions that read its
arrays, so `census`, `sieve`, `primes` without `--density` and `bounds`
start without numpy.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .arith import check_table, smallest_factors
from .sequences import Polynomial

__all__ = ["shift_orders", "orbit_symbols"]

_ORDER_TILE = 1 << 15  # odd n per segment of shift_orders; a tile holds its primes
_CELL_TILE = 1 << 16  # orbit_symbols builds its int64 temporaries this many cells at a time


def shift_orders(g: int, lo: int, hi: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The odd primes ell in [lo, hi], P+(ell-1) and the order of g mod ell,
    as tiles of three int64 arrays, ascending; the tiles' rows joined are the
    rows of `harvest.shift_orders(g, lo, hi)`, and the order is 0 where ell
    divides g.

    The table is built, or refused past the table cap, at the call, and the
    tiles come as they are iterated, so nothing of length pi(hi) is ever
    built.  The primes are the zero cells at odd n of arith's
    smallest-prime-factor table, viewed as uint16 (2 bytes per n up to hi);
    a tile holds those of one segment of _ORDER_TILE odd n, and a segment
    without a prime gives none.  Cohen's order algorithm (A Course in
    Computational Algebraic Number Theory, Alg. 1.4.3) runs across a tile:
    one round per distinct prime q of ell-1, read off the same table.  Strip
    q^e from ell-1 and from t (t starts at ell-1), then raise y = g^t to the q
    until it reaches 1, multiplying t by q each time.  Products stay exact in
    int64: ell <= hi <= TABLE_LIMIT < 2^31.
    """
    spf = np.frombuffer(smallest_factors(max(hi, 0)), dtype=np.uint16)
    return _tiles(g, spf, max(lo, 3) | 1, hi)


def _tiles(g: int, spf: np.ndarray, lo: int, hi: int) -> Iterator[tuple[np.ndarray, ...]]:
    # the tiles of shift_orders, lo odd, each computed when it is asked for; spf ends at hi
    for start in range(lo, hi + 1, 2 * _ORDER_TILE):
        ell = np.flatnonzero(spf[start : start + 2 * _ORDER_TILE : 2] == 0) * 2 + start
        if not ell.size:  # 0 marks a prime; odd n only
            continue
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
        yield ell, big, np.where(unit, t, 0)


def _pow_mod(b: np.ndarray, e: np.ndarray, m) -> np.ndarray:
    # b^e mod m elementwise for int64 arrays (broadcasting), 0 <= b < m < 2^31, e >= 0
    r = np.ones_like(b)
    for i in range(int(np.max(e, initial=0)).bit_length()):
        if i:
            b = b * b % m
        r = np.where(e >> i & 1, r * b % m, r)
    return r


def orbit_symbols(f: Polynomial, base: int, p: int, count: int, shift: int = 1) -> np.ndarray:
    """Legendre symbols (f(shift * base^x) / p) for x = 1..count, as one int8 row.

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
        x[0] = shift % p * pow(base, 1 + c0, p) % p
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
