"""The numpy engine: `orbit_symbols`, the numpy twin of
`sequences.symbol_row` (-1/0/1 in place of 0/1/2) as one array, behind the
character sums and the Weil scan.  The twin stays because the pure-Python
row is slower on the Weil scan; the numbers are in ROADMAP's standing notes.

The only module that imports numpy at the top.  The character sums and
`verify` import it inside the functions that read its arrays, so `census`,
`sieve`, `primes` (with or without `--density`) and `bounds` start without
numpy.
"""

from __future__ import annotations

import numpy as np

from .arith import check_table
from .sequences import Polynomial

__all__ = ["orbit_symbols"]

_CELL_TILE = 1 << 16  # orbit_symbols builds its int64 temporaries this many cells at a time


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
