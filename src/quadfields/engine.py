"""The numpy engine: the order engine over a factor table and the orbit-residue engine.

The only module that imports numpy at the top.  The density report, the
character sums and `verify` import it inside the functions that build or
read its tables.  The census witnesses and the square sieve read f at
powers of g mod p off one period in pure Python (`sequences.symbol_row`),
and the harvest reads P+(ell-1) and orders off arith's factor table
(`harvest.shift_orders`), so `census`, `sieve`, `primes` without
`--density` and `bounds` start without numpy.
"""

from __future__ import annotations

import numpy as np

from .arith import TABLE_LIMIT, smallest_factors
from .sequences import Polynomial

__all__ = ["FactorTable", "pow_mod", "orbit_symbols"]

_ORDER_TILE = 1 << 12  # primes per pass of the order engine; bounds its int64 temporaries
_CELL_TILE = 1 << 16  # orbit_symbols builds its int64 temporaries this many cells at a time


class FactorTable:
    """arith's smallest-prime-factor table as an int32 view (0 marks a prime):
    the primes of a range and the order engine read it."""

    def __init__(self, hi: int):
        self._spf = np.frombuffer(smallest_factors(hi), dtype=np.intc)

    def primes(self, lo: int = 2) -> np.ndarray:
        """Primes in [lo, hi], ascending, as an int64 array."""
        lo = max(lo, 2)
        return np.flatnonzero(self._spf[lo:] == 0) + lo

    def orders(self, g: int, ells) -> tuple[np.ndarray, np.ndarray]:
        """P+(ell-1) and the multiplicative order of g mod ell for primes ell <= hi,
        as two int64 arrays; P+(1) = 1, and the order is 0 where ell divides g.

        Cohen's order algorithm (A Course in Computational Algebraic Number
        Theory, Alg. 1.4.3) across the array, _ORDER_TILE primes at a time: one
        round per distinct prime q of ell-1, read off this table.  Strip q^e from
        ell-1 and from t (t starts at ell-1), then raise y = g^t to the q until
        it reaches 1, multiplying t by q each time.  Products stay exact in
        int64 because ell <= hi <= TABLE_LIMIT < 2^31.
        """
        ells = np.asarray(ells, dtype=np.int64)
        if ells.size and not (
            ells.min() >= 2 and ells.max() < len(self._spf) and (self._spf[ells] == 0).all()
        ):
            raise ValueError(f"orders: every ell must be a prime <= {len(self._spf) - 1}")
        p_plus, order = np.ones_like(ells), np.zeros_like(ells)
        for lo in range(0, len(ells), _ORDER_TILE):
            ell = ells[lo : lo + _ORDER_TILE]
            base = np.array([g % e for e in ell.tolist()], dtype=np.int64)
            unit = base != 0  # only these descend; the rest keep order 0
            n, t, big = ell - 1, ell - 1, p_plus[lo : lo + _ORDER_TILE]
            live = np.flatnonzero(n > 1)
            while live.size:
                q = self._spf[n[live]].astype(np.int64)
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
                y = pow_mod(base[idx], tl, mod)
                k = np.flatnonzero(y != 1)
                while k.size:
                    tl[k] *= q[k]
                    y[k] = pow_mod(y[k], q[k], mod[k])
                    k = k[y[k] != 1]
                t[idx] = tl
                live = live[m > 1]
            order[lo : lo + _ORDER_TILE] = np.where(unit, t, 0)
        return p_plus, order


def pow_mod(b: np.ndarray, e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """b^e mod m elementwise for int64 arrays (broadcasting), 0 <= b < m < 2^31, e >= 0."""
    r = np.ones_like(b)
    for i in range(int(e.max(initial=0)).bit_length()):
        if i:
            b = b * b % m
        r = np.where(e >> i & 1, r * b % m, r)
    return r


def orbit_symbols(
    f: Polynomial, base: int, moduli, count: int, start: int = 0, shift: int = 1
) -> np.ndarray:
    """Legendre symbols (f(shift * base^(start+j)) / p) as an int8 matrix,
    one row per odd prime p in moduli and one column per j = 0..count-1.

    The orbit-residue engine behind the square sieve, the character sums and
    the Weil scan.  Powers are built by doubling and f by Horner in int64,
    exact because every p < 2^31; a tile of at most 2^16 cells at a time
    keeps those temporaries small.  Primality of the moduli is the
    caller's promise.
    """
    moduli = tuple(moduli)
    for p in moduli:
        if p % 2 == 0 or not 3 <= p < 2**31:  # products of residues fit int64
            raise ValueError(f"orbit_symbols: modulus {p} must be odd and in [3, 2^31)")
    if count < 1:
        raise ValueError("orbit_symbols: count must be >= 1")
    if len(moduli) * count > TABLE_LIMIT:
        raise ValueError(
            f"orbit_symbols: {len(moduli)} x {count} symbols exceed the table cap {TABLE_LIMIT}"
        )
    out = np.empty((len(moduli), count), dtype=np.int8)
    width = min(count, _CELL_TILE)
    rows = _CELL_TILE // width
    for lo in range(0, len(moduli), rows):
        block = moduli[lo : lo + rows]
        for c0 in range(0, count, width):
            residues = _orbit_residues(f, base, block, min(width, count - c0), start + c0, shift)
            out[lo : lo + len(block), c0 : c0 + width] = _legendre(residues, block)
    return out


def _orbit_residues(f, base, block, count, start, shift):
    # f(shift * base^(start+j)) mod q for each q in block, all in [0, q)
    p = np.array(block, dtype=np.int64)[:, None]
    x = np.empty((len(block), count), dtype=np.int64)
    x[:, 0] = [shift % q * pow(base, start, q) % q for q in block]
    step = np.array([base % q for q in block], dtype=np.int64)[:, None]  # base^k
    k = 1
    while k < count:
        m = min(k, count - k)
        x[:, k : k + m] = x[:, :m] * step % p
        step = step * step % p
        k += m
    acc = np.zeros_like(x)
    for c in reversed(f.coefficients):
        acc *= x
        acc += np.array([c % q for q in block], dtype=np.int64)[:, None]
        acc %= p
    return acc


def _legendre(v: np.ndarray, block) -> np.ndarray:
    # (v_i/p_i) for residues v_i in [0, p_i): a square table per row when it costs no
    # more than the row, else Euler's v^((p-1)/2) in {0, 1, p-1}, all such rows at once
    out = np.empty(v.shape, dtype=np.int8)
    euler = []
    for i, p in enumerate(block):
        if p > 16 * v.shape[1]:
            euler.append(i)
            continue
        table = np.full(p, -1, dtype=np.int8)
        table[np.arange(1, (p + 1) // 2, dtype=np.int64) ** 2 % p] = 1
        table[0] = 0
        out[i] = table[v[i]]
    if euler:
        p = np.array([block[i] for i in euler], dtype=np.int64)[:, None]
        r = pow_mod(v[euler], (p - 1) // 2, p)
        out[euler] = np.where(r > 1, -1, r)
    return out
