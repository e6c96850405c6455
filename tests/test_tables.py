"""The prime tables in arith and the orders read off them in harvest,
against sympy and against the per-number harvest they replaced.

The scalar harvest below factors every ell-1 with arith.factorize and takes
orders from arith.multiplicative_order, one number at a time; the table
versions must agree with it member for member.
"""

import math
import time
import tracemalloc

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadfields import bounds, census, charsums, cli, engine, harvest, sieve
from quadfields.arith import (
    TABLE_LIMIT,
    factorize,
    is_prime,
    multiplicative_order,
    primes_up_to,
    smallest_factors,
)
from quadfields.harvest import VARIANTS, SievePrime, build_prime_set, density_report, shift_orders
from quadfields.sequences import Polynomial, validate


def _ells(lo, hi):
    # the ell column of shift_orders: the odd primes of [lo, hi]
    return [ell for ell, _, _ in shift_orders(2, lo, hi)]


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
    assert _ells(lo, hi) == list(sympy.primerange(max(lo, 3), hi + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**5))
def test_table_single_prime_windows(n):
    p = sympy.nextprime(n)
    assert _ells(p, p) == [p]
    assert _ells(p + 1, sympy.nextprime(p) - 1) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3000))
def test_smallest_factors_match_sympy(hi):
    spf = smallest_factors(hi)
    assert len(spf) == hi + 1 and spf.itemsize == 2
    for n in range(2, hi + 1):
        assert spf[n] == (0 if sympy.isprime(n) else min(sympy.factorint(n)))


@pytest.mark.parametrize("hi, table", [
    (0, [0]), (1, [0, 0]), (2, [0, 0, 0]), (3, [0, 0, 0, 0]), (4, [0, 0, 0, 0, 2]),
    (9, [0, 0, 0, 0, 2, 0, 2, 0, 2, 3]),
    (25, [0, 0, 0, 0, 2, 0, 2, 0, 2, 3, 2, 0, 2, 0, 2, 3, 2, 0, 2, 0, 2, 3, 2, 0, 2, 5]),
    (-1, []), (-5, []),
])
def test_smallest_factors_small_tables(hi, table):
    # the [2, 0] pattern cut at hi, with 0 and 2 cleared and odd squares written; none below 0
    assert smallest_factors(hi).tolist() == table


def test_smallest_factors_fit_16_bits():
    # every factor in a table is at most the square root of its cap
    assert math.isqrt(TABLE_LIMIT) < 2**16


@pytest.mark.parametrize("hi", [2, 3, 4, 1013, 2000])
@pytest.mark.parametrize("lo", [0, 1, 2, 3, 4, 1000])
@pytest.mark.parametrize("g", [2, 3, 12])
def test_order_engine_window_ends(g, lo, hi):
    # even and odd ends for shift_orders' odd-only prime scan; 1013 is prime
    ells = list(sympy.primerange(max(lo, 3), hi + 1))
    assert list(shift_orders(g, lo, hi)) == list(zip(ells, *_scalar_orders(g, ells)))


SIEVE_PRIMES = build_prime_set(2, bounds.default_z(2 * 10**5, 0.677))  # 12 primes


@pytest.mark.parametrize("build, mib", [
    (lambda: smallest_factors(10**6), 2.1),  # 16-bit cells, written in slices of 2^15
    (lambda: density_report(2, 1e6, 0.677), 2.2),  # the table and a few integers per prime
    # the table's 2 bytes per n and at most 0.3 MiB beside it, whatever pi(z) is
    (lambda: density_report(2, 4e6, 0.677), 2 * (4 * 10**6 + 1) / 2**20 + 0.3),
    # the first row of shift_orders: the table and one segment's slice, no copy of its odd half
    (lambda: next(shift_orders(2, 3, 10**6)), 2 * (10**6 + 1) / 2**20 + 0.3),
    # 200 classes, whose u(rep) of 1000 n bits each would sum to 2.5 MiB
    (lambda: census.distinct_fields(validate(Polynomial.parse("1,6,1"), 2**500), 0, 200), 0.5),
    # 12 bytes of symbols per n, a few of columns and mask, and the witness filter's lists
    (lambda: sieve.run_sieve(SHANKS, 0, 2 * 10**5, 1, SIEVE_PRIMES), 10),
    # the witness rows a single s reads, a byte per n each, and the thinned lists of n
    (lambda: (census._witness_row.cache_clear(), census.count_Q(SHANKS, 0, 10**5, 17)), 2.5),
], ids=["smallest_factors", "density_report", "density_report_4e6", "shift_orders", "classes",
        "run_sieve", "count_Q"])
def test_table_traced_peak(build, mib):
    # allocations counted by tracemalloc, not RSS, so heap layout cannot move them
    build()  # numpy and first-call state are loaded before tracing
    tracemalloc.start()
    try:
        build()
        assert tracemalloc.get_traced_memory()[1] <= mib * 2**20
    finally:
        tracemalloc.stop()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3 * 10**5))
def test_primes_up_to_matches_sympy(bound):
    assert primes_up_to(bound) == list(sympy.primerange(2, bound + 1))


bases = st.one_of(
    st.integers(-10**6, 10**6), st.integers(2**63 - 5, 2**63 + 5), st.integers(2**64, 2**80)
)


def _scalar_orders(g, ells):
    # P+(ell-1) by factorize and the order by the scalar descent, 0 where ell | g
    return (
        [factorize(ell - 1)[-1][0] for ell in ells],
        [multiplicative_order(g, ell) if g % ell else 0 for ell in ells],
    )


@settings(max_examples=80, deadline=None)
@given(bases, st.integers(2, 3 * 10**5), st.integers(0, 3000),
       st.sampled_from([0.0, 20.0, 300.5]))
@example(2, 2, 1, 0.0)  # ell = 3: P+(2) = 2
@example(-7, 257, 0, 0.0)  # 256 and 65536 are powers of 2
@example(2**64 + 1, 65537, 0, 0.0)
@example(0, 2, 100, 0.0)  # 0 has no order anywhere
@example(30, 2, 40, 0.0)  # ell = 3, 5 divide the base
@example(2, 1327, 200, 20.0)  # 1327..1361 is a prime gap of 34
@example(3, 3, 2000, 0.0)  # every prime the verify check covers
def test_orders_match_scalar_descent_and_sympy(g, lo, width, bar):
    rows = list(shift_orders(g, lo, lo + width))
    ells, p_plus, order = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    assert ells == list(sympy.primerange(max(lo, 3), lo + width + 1))
    assert (p_plus, order) == _scalar_orders(g, ells)
    for ell, pp, t in rows:
        assert pp == max(sympy.factorint(ell - 1))
        assert t == (sympy.n_order(g % ell, ell) if g % ell else 0)
    # the bar drops the rows whose P+ is below it, and no other
    assert list(shift_orders(g, lo, lo + width, bar)) == [row for row in rows if row[1] >= bar]


def _orders(g, *ells):
    # (P+(ell-1), order of g) for the given primes, read off shift_orders' window
    rows = {ell: (pp, t) for ell, pp, t in shift_orders(g, min(ells), max(ells))}
    return [rows[ell] for ell in ells]


def test_orders_edge_cases():
    # 3 is a primitive root of the Fermat primes
    assert _orders(3, 3, 257, 65537) == [(2, 0), (2, 256), (2, 65536)]
    assert _orders(-3, 7) == [(3, 3)]
    assert _orders(2**64 + 1, 3, 5) == [(2, 2), (2, 4)]
    assert _orders(2**64 * 257, 257) == [(2, 0)]  # masked, never 1
    assert list(shift_orders(5, 8, 10)) == []  # no prime
    ells, _, order = zip(*shift_orders(2, 0, 200000))
    assert list(order) == [multiplicative_order(2, ell) for ell in ells]


@pytest.mark.parametrize("ells", [
    (3, TABLE_LIMIT + 1), (2**31 - 1, 2**31 + 11), (0, 10**12),  # past the table cap
    (91, 91), (1, 2), (0, 0), (-5, -1),  # no odd prime in the window
])
def test_orders_guard_fails_fast(ells):
    # shift_orders picks its primes from the window [lo, hi]: past the table cap the first
    # row raises before allocating, and a window without an odd prime gives no row
    lo, hi = ells
    t0 = time.perf_counter()
    if hi > TABLE_LIMIT:
        with pytest.raises(ValueError, match="table cap"):
            next(shift_orders(2, lo, hi))
    else:
        assert list(shift_orders(2, lo, hi)) == []
    assert time.perf_counter() - t0 < 0.1


def _scalar_prime_set(g, z, C, alpha, variant):
    # the harvest one number at a time: is_prime, factorize and multiplicative_order
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


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10**6), st.floats(10, 5 * 10**4), st.floats(1.01, 3),
       st.floats(0.501, 0.999), st.sampled_from(VARIANTS))
@example(2, 50000.0, 2.0, 0.677, "standard")
@example(6, 10.0, 1.01, 0.6, "erh")  # [10, 10.1] holds the integer 10 and no prime
def test_build_prime_set_any_window_matches_scalar_harvest(g, z, C, alpha, variant):
    assume(math.floor(C * z) >= math.ceil(z))
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


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10**6), st.floats(10**3, 4000), st.floats(0.5, 0.999), st.integers(8, 64))
@example(6, 1000.0, 0.677, 8)  # 2 and 3 divide g
@example(2, 1400.0, 0.677, 8)  # 1327..1361 is a prime gap of 34: segments without a prime
def test_density_report_counts_tile_by_tile(g, z, alpha, span):
    # the counts summed over segments of a few dozen odd n, against the scalar harvest
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harvest, "_SEGMENT", span)
        rep = density_report(g, z, alpha)
    assert (rep.primes_counted, rep.count_alpha, rep.count_order) == \
        _scalar_density(g, z, alpha)


@settings(max_examples=150, deadline=None)
@given(bases, windows, st.floats(0.5, 0.999))
@example(2, (3, 3), 0.999)  # ell = 3: the order 2 is below 3^0.999
@example(2, (7, 7), 0.5)  # 2 has order 3 mod 7: 3 >= sqrt(7) with a factor 2 of 6 left
@example(30, (3, 40), 0.677)  # 3 and 5 divide the base
def test_density_order_decision_is_the_full_order_against_the_bar(g, window, alpha):
    # the report decides each order from bounds on the way down; the decision must be
    # the full order compared with the bar, including when the order lies inside [t // rest, t]
    lo, hi = window
    for ell, _, t in shift_orders(g, lo, hi):
        primes = [q for q, e in factorize(ell - 1) for _ in range(e)]
        bar = ell**alpha
        assert harvest._order_clears(g % ell, ell, primes, bar) == (t >= bar), (ell, t, bar)


def test_table_limit_rejects_before_allocating():
    for build in (primes_up_to, smallest_factors, lambda hi: density_report(2, hi, 0.677)):
        with pytest.raises(ValueError, match="table cap"):
            build(TABLE_LIMIT + 1)


SHANKS = validate(Polynomial.parse("1,6,1"), 2)


@pytest.mark.parametrize("who, build", [
    ("primes_up_to", lambda: primes_up_to(TABLE_LIMIT + 1)),
    ("smallest_factors", lambda: smallest_factors(TABLE_LIMIT + 1)),
    # census._witness_window: 16 witness symbols per n
    ("window_matches", lambda: census.window_matches(SHANKS, 0, TABLE_LIMIT // 16 + 1, 1)),
    # sieve._symbols: the 45 primes harvested at z = 1000, one row each, past the cap where
    # the 16 witness rows that run_sieve prices first are not
    ("sieve", lambda: sieve.run_sieve(SHANKS, 0, TABLE_LIMIT // 45 + 1, 1,
                                      build_prime_set(2, 1000.0))),
    ("orbit_symbols", lambda: engine.orbit_symbols(Polynomial((1, 1)), 2, 7, TABLE_LIMIT + 1)),
    # charsums._pair_cycles: 2 has coprime orders near 3 * 10^6 mod both primes
    ("complete_sum_pair",
     lambda: charsums.complete_sum_pair(Polynomial((2, 0, 0, 1)), 2, 3000017, 3000047, 0)),
    ("count_Q_total", lambda: census.count_Q_total(SHANKS, 1000, 5, 10**12)),  # B = 10^12
], ids=["primes", "factors", "witness", "sieve", "orbit", "pair", "census-B"])
def test_table_cap_guard_sites(who, build):
    # each table whose size comes from the input is refused through arith.check_table,
    # by name and before it is built
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="table cap") as exc:
        build()
    assert time.perf_counter() - t0 < 1.0
    assert str(exc.value).startswith(f"{who}: ")


@pytest.mark.parametrize("argv", [
    ["census", "-f", "1,6,1", "-g", "2", "-M", "1000", "-N", "5", "-S", "1000000000000"],
    ["charsum", "-f", "2,0,0,1", "--lam", "2", "--scan", "--pmax", "1000000000000"],
    ["primes", "-g", "2", "--z", "1e12"],
    ["primes", "-g", "2", "--z", "1e12", "--density"],
    ["sieve", "-f", "1,6,1", "-g", "2", "-N", "10", "--z", "1e12"],
    ["sieve", "-f", "1,6,1", "-g", "2", "-N", "6000000", "--z", "1000"],  # 45 x 6*10^6 cells
    ["sieve", "-f", "1,6,1", "-g", "2", "--z", "10", "-N", "7000000"],  # 16 x 7*10^6 witnesses
])
def test_table_limit_exits_3_fast(argv, capsys):
    t0 = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "table cap" in capsys.readouterr().err
