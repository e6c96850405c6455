"""The symbol engines against the scalar loops they replaced.

The oracles below are per-cell code: one `u_eval_mod` and one `jacobi` per
(ell, n) cell for the square sieve's pure-Python table, the O(|L|^2 N) pair
loop of `diagnostics`, one symbol at a time for `engine.orbit_symbols` and
the orbit sums of the character sums, and the census witness loops (per n
for `count_Q`, per pair through `same_field` for `distinct_fields`).  Every
fast path must agree with them exactly.
"""

import ast
import cmath
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadfields import census, engine, sequences, sieve
from quadfields.arith import (
    TABLE_LIMIT, factorize, is_perfect_square, is_squarefree, jacobi, multiplicative_order,
)
from quadfields.census import same_field
from quadfields.charsums import _orbit_sum, _pair_cycles
from quadfields.harvest import SievePrime, SievePrimeSet, build_prime_set
from quadfields.engine import orbit_symbols
from quadfields.sequences import Polynomial, u_eval, u_eval_mod, validate

SHANKS = Polynomial.parse("1,6,1")
PRIME_SETS = {g: build_prime_set(g, 60.0) for g in range(2, 13)}


def scalar_symbol_rows(spec, M, N, s, prime_set):
    """rows[i][j] = (s*u(M+1+j) / ell_i), one jacobi call per cell."""
    return [
        [jacobi(s % ell * u_eval_mod(spec, n, ell) % ell, ell) for n in range(M + 1, M + N + 1)]
        for ell in prime_set.ells
    ]


def scalar_pair_sums(rows, members):
    """The ordered-pair double loop: U, V, T, Q and the largest cross gcd."""
    U = V = T = Q = 0
    max_cross = 0
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            if i == j:
                continue
            inner = sum(x * y for x, y in zip(rows[i], rows[j]))
            if a.p_plus == b.p_plus:
                U += inner
            else:
                V += inner
                d = gcd(a.ell - 1, b.ell - 1)
                T += d
                Q += d * d
                max_cross = max(max_cross, d)
    return U, V, T, Q, max_cross


def scalar_witness_codes(spec, p, ns):
    """(u(n)/p) + 1 for each n, by Euler's criterion on u(n) mod p."""
    return [(pow(u_eval_mod(spec, n, p), p // 2, p) + 1) % p for n in ns]


def scalar_s_times_u_is_square(spec, n, s, u):
    """The old per-n census witness loop (u > 0 known): a u_eval_mod and a
    jacobi call per witness prime, the big multiply last."""
    for p in census._WITNESS_PRIMES:
        r = (s % p) * u_eval_mod(spec, n, p) % p
        if r and jacobi(r, p) == -1:
            return False
    return is_perfect_square(s * u)


def scalar_s_matches(spec, n, s):
    u = u_eval(spec, n)
    return u > 0 and scalar_s_times_u_is_square(spec, n, s, u)


def scalar_count_Q(spec, M, N, s):
    """The old count_Q loop, without its argument checks."""
    return sum(1 for n in range(M + 1, M + N + 1) if scalar_s_matches(spec, n, s))


def scalar_distinct_fields(spec, M, N):
    """The old distinct_fields loop: same_field against each representative."""
    classes, skipped = [], []
    for n in range(M + 1, M + N + 1):
        u = u_eval(spec, n)
        if u <= 0:
            skipped.append(n)
            continue
        for _, members, u_rep in classes:
            if same_field(u_rep, u):
                members.append(n)
                break
        else:
            classes.append((n, [n], u))
    return tuple((rep, tuple(members)) for rep, members, _ in classes), tuple(skipped)


def scalar_orbit_sum(f, lam, modulus, period, a):
    """_orbit_sum as it was: a power and a jacobi call per step of the orbit."""
    a %= period
    power = lam % modulus
    if a == 0:
        acc = 0
        for _ in range(period):
            acc += jacobi(f.eval_mod(power, modulus), modulus)
            power = power * lam % modulus
        return complex(acc)
    acc = 0j
    for x in range(1, period + 1):
        sym = jacobi(f.eval_mod(power, modulus), modulus)
        if sym:
            acc += sym * cmath.exp(2j * cmath.pi * (a * x % period) / period)
        power = power * lam % modulus
    return acc


def shifted(f, A):
    """f(A X), coefficient by coefficient, for A != 0."""
    return Polynomial(tuple(c * A**i for i, c in enumerate(f.coefficients)))


coefficient = st.one_of(
    st.integers(-50, 50),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 2**64, 2**64 + 1, -(2**65) - 3]),
)
polynomial = st.lists(coefficient, min_size=2, max_size=4).map(
    lambda cs: Polynomial(tuple(cs[:-1]) + (cs[-1] or 1,))
)
# small primes take the square-table path, large ones Euler's criterion
modulus = st.sampled_from([3, 5, 7, 11, 101, 7919, 65537, 1000003, 2**31 - 1, 2147483629])


@settings(max_examples=150, deadline=None)
@given(polynomial, st.integers(-(2**66), 2**66), modulus, st.integers(1, 300),
       st.integers(-(2**66), 2**66))
@example(SHANKS, 2, 7, 1, 1)
@example(SHANKS, 14, 7, 5, 1)  # base = 0 mod 7: the orbit collapses to f(0)
def test_orbit_symbols_match_scalar(f, base, p, count, shift):
    # the shift goes into f as incomplete_sum puts it; p stands in for 0, the same residue
    got = orbit_symbols(shifted(f, shift or p), base, p, count)
    assert got.dtype.name == "int8" and got.shape == (count,)
    want = [jacobi(f.eval_mod(shift * pow(base, x, p) % p, p), p) for x in range(1, count + 1)]
    assert got.tolist() == want


@pytest.mark.parametrize("tile", [1, 3, 64, 450])
def test_orbit_symbols_tiles_agree(monkeypatch, tile):
    # each tile restarts its powers; the tile width also picks table or Euler
    moduli = (3, 7, 101, 7919, 1000003, 2**31 - 1)
    f = shifted(Polynomial((-(2**65), 3, 0, 1)), -5)
    whole = [orbit_symbols(f, 10, p, 200) for p in moduli]
    monkeypatch.setattr(engine, "_CELL_TILE", tile)
    for p, row in zip(moduli, whole):
        assert (orbit_symbols(f, 10, p, 200) == row).all()


@settings(max_examples=60, deadline=None)
@given(st.data(), polynomial, st.integers(2, 12), st.integers(0, 10**4),
       st.integers(1, 25), st.integers(-40, 40))
def test_sieve_matches_scalar_oracles(data, f, g, M, N, s):
    pool = PRIME_SETS[g]
    picked = data.draw(st.lists(st.sampled_from(pool.members), unique=True, max_size=6))
    members = tuple(sorted(picked, key=lambda sp: sp.ell))
    pset = SievePrimeSet(pool.z, pool.C, pool.alpha, g, pool.variant, members)
    if members and data.draw(st.booleans()):
        s *= data.draw(st.sampled_from(members)).ell  # a whole row of zeros
    spec = validate(f, g)
    rows = scalar_symbol_rows(spec, M, N, s, pset)
    light = scalar_symbol_rows(spec, M, N, 1, pset)

    half = len(members) // 2
    ns = range(M + 1, M + N + 1)
    omega1 = [sum(1 for row in light if row[j] == 0) for j in range(N)]
    part = sieve.partition(omega1, pset)
    assert part.heavy == bytes(w > half for w in omega1)
    if not members:
        with pytest.raises(ValueError, match="nonempty"):
            sieve.run_sieve(spec, M, N, s, pset)
        return
    run = sieve.run_sieve(spec, M, N, s, pset)
    assert run.part == part
    U, V, T, Q, max_cross = scalar_pair_sums(rows, members)
    d = sieve.diagnostics(run)
    assert (d.U, d.V, d.W, d.T, d.Q_quantity, d.max_cross_gcd) == (U, V, U + V, T, Q, max_cross)
    D = [sum(row[j] for row in rows) for j in range(N)]
    assert run.detector.tolist() == D
    assert run.omega.tolist() == [sum(1 for row in rows if row[j] == 0) for j in range(N)]
    matched = tuple(n for n, w in zip(ns, omega1) if w <= half and census.s_matches(spec, n, s))
    assert run.cert.matches == matched
    assert run.cert.rhs == Fraction(2 * sum(D[n - M - 1] ** 2 for n in matched), len(members))
    for n in ns[:3]:
        assert D[n - M - 1] == sieve.detector(spec, n, s, pset)


# primes where 2 has order 3 to 14 (7 and 73 share P+(ell-1) = 3, 43 and 127 share 7),
# so a window of up to 300 n repeats each row's period many times
SHORT_ORDERS = tuple(SievePrime(ell, factorize(ell - 1)[-1][0], multiplicative_order(2, ell), False)
                     for ell in (7, 17, 31, 43, 73, 127))


@settings(max_examples=60, deadline=None)
@given(st.data(), polynomial, st.integers(0, 10**4), st.integers(1, 300), st.integers(-40, 40))
def test_sieve_table_tiled_from_one_period(data, f, M, N, s):
    pool = SHORT_ORDERS + PRIME_SETS[2].members
    picked = data.draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=8))
    members = tuple(sorted(picked, key=lambda sp: sp.ell))
    pset = SievePrimeSet(60.0, 2.0, 0.677, 2, "standard", members)
    if data.draw(st.booleans()):
        s *= data.draw(st.sampled_from(members)).ell  # s shares a prime with a member
    spec = validate(f, 2)
    light = scalar_symbol_rows(spec, M, N, 1, pset)
    rows = scalar_symbol_rows(spec, M, N, s, pset)
    R = sieve._symbols(spec, M, N, pset)
    assert [[b - 1 for b in row] for row in R] == light
    assert [[b - 1 for b in row] for row in sieve._twisted(R, s, pset)] == rows

    run = sieve.run_sieve(spec, M, N, s, pset)
    assert run.detector.tolist() == [sum(row[j] for row in rows) for j in range(N)]
    assert run.omega.tolist() == [sum(row[j] == 0 for row in rows) for j in range(N)]
    half = len(members) // 2
    assert run.part.heavy == bytes(sum(row[j] == 0 for row in light) > half for j in range(N))
    U, V, T, Q, max_cross = scalar_pair_sums(rows, members)
    d = sieve.diagnostics(run)
    assert (d.U, d.V, d.W, d.T, d.Q_quantity, d.max_cross_gcd) == (U, V, U + V, T, Q, max_cross)


@pytest.mark.parametrize("f", [SHANKS, Polynomial.parse("2,0,0,1"), Polynomial.parse("0,1")])
@pytest.mark.parametrize("lam, p, period", [(2, 7, 3), (2, 11, 10), (3, 101, 100), (-5, 1009, 1008)])
def test_orbit_sum_keeps_its_bits(f, lam, p, period):
    for a in (0, 1, 7, period - 1):
        assert _orbit_sum(f, lam, p, period, a) == scalar_orbit_sum(f, lam, p, period, a)


def test_symbol_cycles_match_scalar():
    for A in (1, 3, -4, 2**70 + 1):
        jl, jp = _pair_cycles(shifted(SHANKS, A), 2, 7, 101, "test")
        assert (len(jl), len(jp)) == (3, 100)  # the orders of 2 mod 7 and mod 101
        for cyc, q in ((jl, 7), (jp, 101)):
            assert cyc.dtype.name == "int64"
            assert cyc.tolist() == [
                jacobi(SHANKS.eval_mod(A * pow(2, x, q), q), q) for x in range(1, len(cyc) + 1)
            ]


@pytest.mark.parametrize("moduli, count", [
    ((2**31,), 5),
    ((2**31 + 11,), 10**12),  # an allocation first would fail with MemoryError
    ((10,), 3),
    ((4, 2), 1),
    ((1,), 1),
    ((-7,), 1),
    ((7,), 0),
    ((7,), -3),
    ((7,), TABLE_LIMIT + 1),  # the table cap, counted in symbols
    ((2**31 + 1, 0, -3), TABLE_LIMIT // 2),  # bad moduli at a 50 MB row
])
def test_orbit_symbols_rejects_before_allocating(moduli, count):
    t0 = time.perf_counter()
    for p in moduli:
        with pytest.raises(ValueError, match="orbit_symbols"):
            orbit_symbols(SHANKS, 2, p, count)
    assert time.perf_counter() - t0 < 1.0



# f whose classes merge (k*g^n, the dipped 2^n - 5, a square times g^n) or
# whose u(n) is 0 mod a witness prime, besides the random ones
census_polynomial = st.one_of(
    polynomial,
    st.sampled_from([Polynomial.parse(t) for t in (
        "-5,1", "0,3", "0,1", "-1,1", "0,1009", "1,6,1", "2,0,0,1", "-20,0,1")]),
)
# the prime 951193 is a square mod every witness prime, so only the exact
# test tells q^n with n odd from n even
BLIND = 951193
base = st.one_of(st.integers(2, 12), st.sampled_from([1009, BLIND]))
WITNESS_S = [1009, 1009 * 1013, 3 * 1097, 1019 * 1021 * 1031, BLIND]


def _multiplier(data, spec, M, N):
    # any s, one sharing witness primes, or u(n0) itself, which makes
    # s*u(n0) a square whenever u(n0) > 0
    return data.draw(st.one_of(
        st.integers(-30, 10**6),
        st.sampled_from(WITNESS_S),
        st.integers(M + 1, M + N).map(lambda n0: u_eval(spec, n0)),
    ))


def _check_window(spec, M, N, s):
    ns = range(M + 1, M + N + 1)
    want = [n for n in ns if scalar_s_matches(spec, n, s)]
    assert census.window_matches(spec, M, N, s) == want
    assert [n for n in ns if census.s_matches(spec, n, s)] == want
    if spec.separable and 1 <= s <= 2**64 - 1 and is_squarefree(s):
        assert census.count_Q(spec, M, N, s) == scalar_count_Q(spec, M, N, s) == len(want)


@settings(max_examples=80, deadline=None)
@given(st.data(), census_polynomial, base, st.integers(0, 10**4), st.integers(1, 30))
def test_window_matches_and_count_Q_match_scalar(data, f, g, M, N):
    if g > 12:
        M %= 100  # keeps u(n) under a million bits
    spec = validate(f, g)
    _check_window(spec, M, N, _multiplier(data, spec, M, N))


@pytest.mark.parametrize("f, g, M, N, s, hits", [
    ("-5,1", 2, 0, 12, 3, [3, 5, 9]),  # u(1), u(2) < 0; u(9) = 3 * 13^2
    ("-5,1", 2, 0, 1, 3, []),
    ("1,6,1", 2, 0, 1, 17, [1]),
    ("0,1", 10007, 0, 9, 10007, [1, 3, 5, 7, 9]),  # u(n) = 10007^n
    ("0,10007", 2, 0, 9, 10007, [2, 4, 6, 8]),
    ("0,1", 2419489, 0, 6, 1, [2, 4, 6]),  # a prime that 6 of the 16 witnesses call a square
    ("0,1", 2419489, 0, 6, 2419489, [1, 3, 5]),
    ("1,6,1", 2, 10**4 - 5, 5, 17, []),
    ("0,1", 1009, 0, 9, 1009, [1, 3, 5, 7, 9]),  # u(n) = 0 mod the witness 1009
    ("0,1009", 2, 0, 9, 1009, [2, 4, 6, 8]),
    ("0,1", BLIND, 0, 6, 1, [2, 4, 6]),  # no witness rejects any n
    ("0,1", BLIND, 0, 6, BLIND, [1, 3, 5]),
])
def test_window_matches_examples(f, g, M, N, s, hits):
    spec = validate(Polynomial.parse(f), g)
    _check_window(spec, M, N, s)
    assert census.window_matches(spec, M, N, s) == hits


@settings(max_examples=60, deadline=None)
@given(census_polynomial, base, st.integers(0, 10**4), st.integers(1, 30))
@example(Polynomial.parse("-5,1"), 2, 0, 12)  # classes merge at n = 3, 5, 9
@example(Polynomial.parse("0,3"), 4, 0, 1)
@example(Polynomial.parse("0,1"), 1009, 0, 6)
@example(Polynomial.parse("0,1"), BLIND, 0, 6)  # two classes no witness separates
# u(1) = 1 and u(2) = 1009^2: an n with a zero residue joins a class whose rep has none
@example(Polynomial((2 - 1009**2, (1009**2 - 1) // 2)), 2, 0, 4)
# u = 11, 3, 11 * 1009^2: n = 3 has a zero residue where its rep has a -1, (11/1009) = -1,
# and is looked up by submask among the two classes with no zero residue
@example(Polynomial((3732987, -2799730, 466621)), 2, 0, 3)
def test_distinct_fields_matches_scalar(f, g, M, N):
    if g > 12:
        M %= 100
    spec = validate(f, g)
    assume(spec.separable)
    got = census.distinct_fields(spec, M, N)
    assert (got.classes, got.skipped) == scalar_distinct_fields(spec, M, N)


@pytest.mark.parametrize("f, g, M, N", [
    ("1,6,1", 79, 5, 30),  # order 10 mod 1091 and 8 mod 1097, read from n = 6
    ("0,3", 79, 4, 30),  # u(n) = 3 * 79^n: two classes, by the parity of n
    ("2,0,0,1", 45, 4, 25),  # order 4 mod 1013
    ("-1,1", 1010, 3, 12),  # 1010 = 1 mod 1009, so 1009 | u(n) for every n
    ("1,1", 1008, 4, 12),  # 1008 = -1 mod 1009, so 1009 | u(n) for odd n
    ("1,6,1", 2 * 1013, 2, 12),  # 1013 | g: L = 1 and u(n) = f(0) mod 1013
])
def test_witness_period_read_matches_scalar(f, g, M, N):
    # each row is read off one period of min(L, N) symbols, L the order of g, whether
    # L < N (the period repeats) or not
    spec = validate(Polynomial.parse(f), g)
    orders = [multiplicative_order(g, p) if g % p else 1 for p in census._WITNESS_PRIMES]
    assert min(orders) < N <= max(orders)
    ns = range(M + 1, M + N + 1)
    census._witness_row.cache_clear()
    for p in census._WITNESS_PRIMES:
        assert list(census._witness_row(spec, M, N, p)) == scalar_witness_codes(spec, p, ns)
    for s in (1, 2, 3, 22, 1009, 1013 * 3, u_eval(spec, M + 1), u_eval(spec, M + 2)):
        _check_window(spec, M, N, s)
    got = census.distinct_fields(spec, M, N)
    assert (got.classes, got.skipped) == scalar_distinct_fields(spec, M, N)


def _count_symbol_work(monkeypatch):
    # p per symbol_row as census calls it, the symbols each computes, min(count, period),
    # and the u_eval_mod calls, of which census makes none
    rows, computed, mods = [], [], []
    real_row, real_mod = census.symbol_row, sequences.u_eval_mod

    def counted_row(f, g, p, start, count, period):
        rows.append(p)
        computed.append(min(count, period))
        return real_row(f, g, p, start, count, period)

    def counted_mod(spec, n, m):
        mods.append((m, n))
        return real_mod(spec, n, m)

    assert not hasattr(census, "u_eval_mod")
    monkeypatch.setattr(census, "symbol_row", counted_row)
    monkeypatch.setattr(sequences, "u_eval_mod", counted_mod)
    census._witness_row.cache_clear()
    return rows, computed, mods


@pytest.mark.parametrize("f, g, M, N", [
    ("1,6,1", 2, 0, 300),  # orders of 2 from 92 to 1090: some periods repeat over N
    ("1,6,1", 792, 5, 30),  # every order of 792 passes N: a period read is the whole window
    ("1,6,1", 79, 5, 30),  # orders 10 and 8 mod 1091 and 1097: rows read off a period
    ("0,1", 10007, 0, 40),  # order 12 mod 1021
    ("0,1", 1009, 0, 40),  # 1009 | g: L = 1
])
def test_witness_symbols_computed_once_per_window(f, g, M, N, monkeypatch):
    # the count_Q loop over s and the class list after it build each row at most once
    spec = validate(Polynomial.parse(f), g)
    rows, computed, mods = _count_symbol_work(monkeypatch)
    for s in (s for s in range(1, 400) if is_squarefree(s)):
        assert census.count_Q(spec, M, N, s) == scalar_count_Q(spec, M, N, s)
    census.distinct_fields(spec, M, N)
    assert sorted(rows) == list(census._WITNESS_PRIMES) and mods == []
    assert sum(computed) <= len(census._WITNESS_PRIMES) * N


def test_single_s_census_reads_rows_off_one_period(monkeypatch):
    # census -f 1,6,1 -g 2 -N 100000 -s 17 reads each row it needs off one period, at most
    # the sum of the orders of 2 in symbols
    rows, computed, mods = _count_symbol_work(monkeypatch)
    assert census.count_Q(validate(SHANKS, 2), 0, 10**5, 17) == 1
    orders = [multiplicative_order(2, p) for p in census._WITNESS_PRIMES]
    assert sum(computed) <= sum(orders) == 8076
    assert len(rows) == len(set(rows)) and mods == []


@settings(max_examples=40, deadline=None)
@given(st.data(), st.lists(st.tuples(census_polynomial, base, st.integers(0, 10**3),
                                     st.integers(1, 30)), min_size=2, max_size=2))
def test_witness_rows_match_scalar_across_evictions(data, windows):
    # two windows take turns, so the last window's rows are evicted and rebuilt
    census._witness_row.cache_clear()
    windows = [(validate(f, g), M % 100 if g > 12 else M, N) for f, g, M, N in windows]
    for _ in range(6):
        spec, M, N = data.draw(st.sampled_from(windows))
        if data.draw(st.booleans()):
            _check_window(spec, M, N, _multiplier(data, spec, M, N))
            continue
        p = data.draw(st.sampled_from(census._WITNESS_PRIMES))
        ws = range(M + 1, M + N + 1)
        assert list(census._witness_row(spec, M, N, p)) == scalar_witness_codes(spec, p, ws)


@settings(max_examples=60, deadline=None)
@given(st.data(), polynomial, st.integers(2, 12), st.integers(0, 10**4), st.integers(1, 25))
def test_run_sieve_matches_old_s_matches_filter(data, f, g, M, N):
    pool = PRIME_SETS[g]
    members = tuple(sorted(data.draw(st.lists(st.sampled_from(pool.members), unique=True,
                                              min_size=1, max_size=6)), key=lambda sp: sp.ell))
    pset = SievePrimeSet(pool.z, pool.C, pool.alpha, g, pool.variant, members)
    spec = validate(f, g)
    s = _multiplier(data, spec, M, N)
    run = sieve.run_sieve(spec, M, N, s, pset)
    light = (n for n, h in enumerate(run.part.heavy, M + 1) if not h)
    assert run.cert.matches == tuple(n for n in light if scalar_s_matches(spec, n, s))


# squarefree kernels, among them products of witness primes, 2^61 - 1 and 1
KERNELS = (1, 2, 3, 6, 17, 30030, 1009, 1009 * 1013, 3 * 1097, 2**61 - 1, BLIND)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(KERNELS),
                          st.one_of(st.integers(1, 2**80), st.integers(1, 10**6).map(lambda x: 1009 * x))),
                min_size=1, max_size=6))
def test_same_field_is_an_equivalence(pairs):
    # k*x^2 and k'*y^2 with squarefree k, k' give one field iff k = k'
    assert all(is_squarefree(k) for k in KERNELS)
    vals = [k * x * x for k, x in pairs]
    rel = [[same_field(a, b) for b in vals] for a in vals]
    for i, (k, _) in enumerate(pairs):
        assert rel[i][i]
        for j, (k2, _) in enumerate(pairs):
            assert rel[i][j] == rel[j][i] == (k == k2)
            assert all(rel[i][m] for m in range(len(vals)) if rel[i][j] and rel[j][m])


@settings(max_examples=40, deadline=None)
@given(census_polynomial, st.integers(2, 12), st.integers(0, 50), st.integers(1, 8),
       st.integers(1, 1000))
@example(SHANKS, 2, 0, 3, 1000)  # 2^ceil(top/2) = 256 < S: trial division to 256
@example(SHANKS, 2, 0, 8, 1000)  # 2^ceil(top/2) = 2^18 > S: trial division to S
def test_fallback_scan_matches_scalar(f, g, M, N, S):
    # count_Q_total's trial division bound min(S, 2^ceil(top/2)) on either
    # side of S, against the per-s loop
    spec = validate(f, g)
    assume(spec.separable)
    want = {}
    for s in range(1, S + 1):
        if is_squarefree(s) and (c := scalar_count_Q(spec, M, N, s)):
            want[s] = c
    assert census.count_Q_total(spec, M, N, S).per_s == want


def test_fallback_scan_reads_a_zero_witness():
    # u(n) = 1009^n: odd n have kernel 1009, one of the witness primes
    spec = validate(Polynomial.parse("0,1"), 1009)
    assert census.count_Q_total(spec, 0, 7, 1009).per_s == {1: 3, 1009: 4}


def test_only_the_engine_imports_numpy_at_import_time():
    # every other module reaches numpy and the engine inside a function, so
    # importing it (as the CLI imports every layer) loads no numpy
    package = Path(engine.__file__).parent
    for path in sorted(package.glob("*.py")):
        todo, found = list(ast.parse(path.read_text()).body), []
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                continue
            if isinstance(node, ast.Import):
                found += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                found.append("." * node.level + (node.module or ""))
            todo.extend(ast.iter_child_nodes(node))
        loads = [m for m in found
                 if m.split(".")[0] == "numpy" or m in (".engine", "quadfields.engine")]
        assert loads == ([] if path.name != "engine.py" else ["numpy"]), path.name


def test_no_module_imports_dataclasses():
    # the records are NamedTuples: dataclasses, and the inspect and ast it loads,
    # would cost every CLI start more than the whole package does
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        found = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                found.append(node.module.split(".")[0])
        assert "dataclasses" not in found, path.name


def _compares_with(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Compare) and any(
        isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name
        for n in ast.walk(node))]


def test_one_owner_for_the_table_cap_and_for_json():
    # arith.check_table alone compares a size with TABLE_LIMIT, and the CLI alone
    # encodes artifacts: the other modules call the one and hand dicts to the other
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "arith.py":
            (guard,) = [fn for fn in tree.body
                        if isinstance(fn, ast.FunctionDef) and fn.name == "check_table"]
            assert _compares_with(tree, "TABLE_LIMIT") == _compares_with(guard, "TABLE_LIMIT") != []
        else:
            assert _compares_with(tree, "TABLE_LIMIT") == [], path.name
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                found.append(node.module.split(".")[0])
        assert ("json" in found) == (path.name == "cli.py"), path.name
