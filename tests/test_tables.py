"""The prime tables in arith and the factor table in engine, against sympy
and against the per-number harvest they replaced.

The scalar harvest below factors every ell-1 with arith.factorize and takes
orders from arith.multiplicative_order, one number at a time; the table
versions must agree with it member for member.
"""

import math
import time

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadfields import arith, cli, engine
from quadfields.arith import (
    TABLE_LIMIT,
    factorize,
    is_prime,
    multiplicative_order,
    primes_through,
    primes_up_to,
    smallest_factors,
)
from quadfields.engine import FactorTable
from quadfields.harvest import VARIANTS, SievePrime, build_prime_set, density_report, shift_orders

windows = st.integers(-3, 5000).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(lo - 20, lo + 3000))
)


@settings(max_examples=150, deadline=None)
@given(windows)
@example((2, 2))
@example((0, 1))
@example((5, 4))
@example((9973, 9973))
def test_table_primes_match_sympy(window):
    lo, hi = window
    assert FactorTable(max(hi, 0)).primes(lo).tolist() == list(sympy.primerange(lo, hi + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**5))
def test_table_single_prime_windows(n):
    p = sympy.nextprime(n)
    assert FactorTable(p).primes(p).tolist() == [p]
    assert FactorTable(sympy.nextprime(p) - 1).primes(p + 1).tolist() == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3000))
def test_smallest_factors_match_sympy(hi):
    spf = smallest_factors(hi)
    assert len(spf) == hi + 1 and spf.itemsize == 4
    for n in range(2, hi + 1):
        assert spf[n] == (0 if sympy.isprime(n) else min(sympy.factorint(n)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3 * 10**5))
def test_primes_through_matches_sympy(bound):
    # successive examples both grow the shared cache and slice below it
    assert primes_through(bound) == list(sympy.primerange(2, bound + 1))


def test_primes_through_sieves_once_per_limit(monkeypatch):
    real = arith.primes_up_to
    sieved = []

    def counting(limit):
        sieved.append(limit)
        return real(limit)

    monkeypatch.setattr(arith, "primes_up_to", counting)
    monkeypatch.setattr(arith, "_sieved", (0, []))
    for bound in (10**6, 10**6, 5000, 10**6, 10**6 + 1):
        primes_through(bound)
    assert sieved == [10**6, 10**6 + 1]


bases = st.one_of(
    st.integers(-10**6, 10**6), st.integers(2**63 - 5, 2**63 + 5), st.integers(2**64, 2**80)
)


def _scalar_orders(g, ells):
    # P+(ell-1) by factorize and the order by the scalar descent, 0 where ell | g
    return (
        [factorize(ell - 1)[-1][0] if ell > 2 else 1 for ell in ells],
        [multiplicative_order(g, ell) if g % ell else 0 for ell in ells],
    )


@settings(max_examples=80, deadline=None)
@given(bases, st.integers(2, 3 * 10**5), st.integers(0, 3000), st.integers(1, 40))
@example(2, 2, 0, 1)  # ell = 2: P+(1) = 1
@example(-7, 257, 0, 1)  # 256 and 65536 are powers of 2
@example(2**64 + 1, 65537, 0, 1)
@example(0, 2, 100, 7)  # 0 has no order anywhere
@example(30, 2, 40, 4)  # ell = 2, 3, 5 divide the base
def test_orders_match_scalar_descent_and_sympy(g, lo, width, tile):
    table = FactorTable(lo + width)
    ells = table.primes(lo).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_ORDER_TILE", tile)  # so the windows straddle tile edges
        p_plus, order = table.orders(g, ells)
    assert p_plus.dtype == order.dtype == np.int64
    assert (p_plus.tolist(), order.tolist()) == _scalar_orders(g, ells)
    for ell, pp, t in zip(ells, p_plus.tolist(), order.tolist()):
        assert pp == (max(sympy.factorint(ell - 1)) if ell > 2 else 1)
        assert t == (sympy.n_order(g % ell, ell) if g % ell else 0)


def test_orders_edge_cases():
    table = FactorTable(200000)
    p_plus, order = table.orders(3, [2, 3, 257, 65537])
    assert p_plus.tolist() == [1, 2, 2, 2]
    assert order.tolist() == [1, 0, 256, 65536]  # 3 is a primitive root of the Fermat primes
    assert table.orders(-3, [2, 7])[1].tolist() == [1, 3]
    assert table.orders(2**64 + 1, [2, 3, 5])[1].tolist() == [1, 2, 4]
    assert table.orders(2**64 * 257, [257])[1].tolist() == [0]  # masked, never 1
    assert [a.tolist() for a in table.orders(5, [])] == [[], []]
    ells = table.primes(3)
    assert len(ells) > 2 * engine._ORDER_TILE  # more than two tiles, one partial
    assert (table.orders(2, ells)[1] == table.orders(2, ells[::-1])[1][::-1]).all()


@pytest.mark.parametrize("ells", [[2**31 + 11], [2**31 - 1], [101], [91], [1], [0], [-5]])
def test_orders_guard_fails_fast(ells):
    # past the table, past 2^31, not prime or below 2: rejected before any descent
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="must be a prime <= 100"):
        FactorTable(100).orders(2, [3, 5, *ells])
    assert time.perf_counter() - t0 < 0.1


@settings(max_examples=60, deadline=None)
@given(bases, st.integers(0, 10**5), st.integers(0, 3000), st.sampled_from([0.0, 20.0, 300.5]))
@example(3, 3, 2000, 0.0)  # every prime the verify check covers
@example(30, 0, 40, 0.0)  # 3 and 5 divide the base
def test_shift_orders_match_the_order_engine(g, lo, width, bar):
    # the harvest's scalar P+ and descent against the vectorized order engine
    table = FactorTable(lo + width)
    ells = table.primes(max(lo, 3))
    p_plus, order = table.orders(g, ells)
    want = [row for row in zip(ells.tolist(), p_plus.tolist(), order.tolist()) if row[1] >= bar]
    assert list(shift_orders(g, lo, lo + width, bar)) == want


def _engine_prime_set(g, z, C, alpha, variant):
    # the harvest as the order engine ran it: P+ and the order for every prime of [z, Cz]
    table = FactorTable(math.floor(C * z))
    ells = table.primes(math.ceil(z))
    members = []
    for ell, pp, order in zip(ells.tolist(), *(a.tolist() for a in table.orders(g, ells))):
        large = order > ell / math.log(ell)
        if pp >= z**alpha and order >= pp and (variant == "standard" or large):
            members.append(SievePrime(ell, pp, order, large))
    return tuple(members)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10**6), st.floats(10, 5 * 10**4), st.floats(1.01, 3),
       st.floats(0.501, 0.999), st.sampled_from(VARIANTS))
@example(2, 50000.0, 2.0, 0.677, "standard")
@example(6, 10.0, 1.01, 0.6, "erh")  # [10, 10.1] holds the integer 10 and no prime
def test_build_prime_set_matches_the_order_engine(g, z, C, alpha, variant):
    assume(math.floor(C * z) >= math.ceil(z))
    got = build_prime_set(g, z, C, alpha, variant).members
    assert got == _engine_prime_set(g, z, C, alpha, variant)


def _scalar_prime_set(g, z, C, alpha, variant):
    lo, hi = math.ceil(z), math.floor(C * z)
    members = []
    for ell in range(lo, hi + 1):
        if not is_prime(ell) or g % ell == 0:
            continue
        p_plus = factorize(ell - 1)[-1][0]
        if p_plus < z**alpha:
            continue
        order = multiplicative_order(g, ell)
        if order < p_plus:
            continue
        large = order > ell / math.log(ell)
        if variant == "erh" and not large:
            continue
        members.append(SievePrime(ell, p_plus, order, large))
    return tuple(members)


@pytest.mark.parametrize("variant", ["standard", "erh"])
@pytest.mark.parametrize("g", [2, 3, 10, 12])
@pytest.mark.parametrize("z,C,alpha", [
    (10.0, 2.0, 0.677), (50.0, 2.0, 0.677), (100.0, 3.0, 0.6),
    (1000.0, 2.0, 0.677), (4999.5, 1.5, 0.8),
])
def test_build_prime_set_matches_scalar_harvest(g, z, C, alpha, variant):
    got = build_prime_set(g, z, C, alpha, variant).members
    assert got == _scalar_prime_set(g, z, C, alpha, variant)


def _scalar_density(g, z, alpha):
    primes = [p for p in range(2, math.floor(z) + 1) if is_prime(p)]
    count_alpha = count_order = 0
    for ell in primes[1:]:
        bar = ell**alpha
        if factorize(ell - 1)[-1][0] >= bar:
            count_alpha += 1
        if g % ell and multiplicative_order(g, ell) >= bar:
            count_order += 1
    return len(primes), count_alpha, count_order


@pytest.mark.parametrize("g,z,alpha", [
    (2, 1000, 0.677), (3, 5000.5, 0.5), (10, 20000, 0.9), (6, 20000, 0.677),
])
def test_density_report_matches_scalar_harvest(g, z, alpha):
    rep = density_report(g, z, alpha)
    assert (rep.primes_counted, rep.count_alpha, rep.count_order) == \
        _scalar_density(g, z, alpha)


def test_table_limit_rejects_before_allocating():
    before = arith._sieved
    for build in (primes_up_to, primes_through, smallest_factors, FactorTable):
        with pytest.raises(ValueError, match="table cap"):
            build(TABLE_LIMIT + 1)
    assert arith._sieved is before


@pytest.mark.parametrize("argv", [
    ["census", "-f", "1,6,1", "-g", "2", "-M", "1000", "-N", "5", "-S", "1000000000000"],
    ["charsum", "-f", "2,0,0,1", "--lam", "2", "--scan", "--pmax", "1000000000000"],
    ["primes", "-g", "2", "--z", "1e12"],
    ["primes", "-g", "2", "--z", "1e12", "--density"],
    ["sieve", "-f", "1,6,1", "-g", "2", "-N", "10", "--z", "1e12"],
    ["sieve", "-f", "1,6,1", "-g", "2", "-N", "10000000", "--z", "1000"],  # 45 x 10^7 cells
])
def test_table_limit_exits_3_fast(argv, capsys):
    t0 = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "table cap" in capsys.readouterr().err
