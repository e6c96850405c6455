import math

import pytest
import sympy

from quadfields.arith import factorize, is_prime, multiplicative_order
from quadfields.harvest import (
    SievePrime,
    build_prime_set,
    density_report,
    dickman_reference,
    format_records,
    parse_records,
    shift_orders,
)


def _primes(lo, hi):
    return [ell for ell, _, _ in shift_orders(2, lo, hi)]


def test_primes_in_range():
    # the ell column of shift_orders holds the odd primes of [lo, hi]
    assert _primes(10, 30) == [11, 13, 17, 19, 23, 29]
    assert _primes(2, 3) == [3]
    assert _primes(24, 28) == []
    assert _primes(9973, 9973) == [9973]


def test_build_prime_set_window_example():
    pset = build_prime_set(2, 100.0, 2.0, 0.677)
    ells = pset.ells
    assert 107 in ells
    assert 101 not in ells  # P+(100) = 5 is far below 100^0.677
    member = next(sp for sp in pset.members if sp.ell == 107)
    assert member.p_plus == 53 and member.order_g == 106
    # golden first-run values for this window
    assert ells == (107, 139, 149, 167, 173, 179)


def test_build_prime_set_golden_count_z1000():
    pset = build_prime_set(2, 1000.0)
    assert len(pset) == 45  # golden value, first full run
    for sp in pset.members:
        assert 1000 <= sp.ell <= 2000
        assert (sp.ell - 1) % sp.p_plus == 0
        assert (sp.ell - 1) % sp.order_g == 0
        assert sp.p_plus >= 1000**0.677
        assert sp.order_g >= sp.p_plus


def test_build_prime_set_observation_p_plus_divides_order():
    # the section-4 observation: p_plus^2 >= ell and order >= p_plus force
    # p_plus | order
    for z in (50.0, 100.0, 200.0, 1000.0):
        for sp in build_prime_set(2, z).members:
            if sp.p_plus * sp.p_plus >= sp.ell:
                assert sp.order_g % sp.p_plus == 0


def test_build_prime_set_alpha_monotone():
    wide = set(build_prime_set(2, 100.0, 2.0, 0.6).ells)
    narrow = set(build_prime_set(2, 100.0, 2.0, 0.8).ells)
    assert narrow <= wide


def test_build_prime_set_erh_variant():
    pset = build_prime_set(2, 100.0, 2.0, 0.677, "erh")
    for sp in pset.members:
        assert sp.large_order
        assert sp.order_g > sp.ell / math.log(sp.ell)


def test_build_prime_set_orders_against_sympy():
    for sp in build_prime_set(2, 200.0).members:
        assert sp.order_g == sympy.n_order(2, sp.ell)
        assert sp.p_plus == max(sympy.factorint(sp.ell - 1))


def test_build_prime_set_rejections():
    with pytest.raises(ValueError):
        build_prime_set(2, 9.0)
    with pytest.raises(ValueError):
        build_prime_set(2, 100.0, 1.0)
    with pytest.raises(ValueError):
        build_prime_set(2, 100.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        build_prime_set(2, 10.2, 1.02)  # [10.2, 10.4] holds no integer
    with pytest.raises(ValueError):
        build_prime_set(2, 100.0, 2.0, 0.677, "borel")
    for g in (1, 0, -3):
        with pytest.raises(ValueError, match="g must be > 1"):
            build_prime_set(g, 100.0)
        with pytest.raises(ValueError, match="g must be > 1"):
            density_report(g, 1000, 0.677)


def test_sieve_prime_invariants():
    with pytest.raises(ValueError):
        SievePrime(107, 7, 106, True)  # 7 does not divide 106
    with pytest.raises(ValueError):
        SievePrime(107, 53, 100, True)  # 100 does not divide 106
    # a genuine prime p_plus with p_plus^2 >= ell cannot coexist with a
    # coprime order >= p_plus, so the guard only fires on bogus input
    with pytest.raises(ValueError):
        SievePrime(13, 4, 6, True)
    SievePrime(107, 53, 106, True)


def test_density_report_goldens():
    rep = density_report(2, 10**5, 0.677)
    assert rep.primes_counted == 9592
    # sympy oracle: p in primerange(3, 10**5 + 1) with max(factorint(p - 1)) >= p**0.677
    assert rep.count_alpha == 3065
    assert abs(rep.ratio_alpha - 0.319537) < 1e-4
    assert abs(rep.dickman_reference - math.log(1 / 0.677)) < 1e-12


def test_density_report_monotone_in_alpha():
    lo = density_report(2, 10**4, 0.5)
    mid = density_report(2, 10**4, 0.677)
    hi = density_report(2, 10**4, 0.999)
    assert lo.ratio_alpha > mid.ratio_alpha > hi.ratio_alpha >= 0.0
    assert hi.count_alpha >= 0


def test_density_report_order_count_dominates():
    # measured regularity on this fixed window: small multiplicative index
    # is far more common than a large prime factor of ell-1
    rep = density_report(2, 10**4, 0.677)
    assert rep.count_order >= rep.count_alpha


def test_dickman_reference_bounds():
    assert dickman_reference(0.5) == pytest.approx(math.log(2))
    assert dickman_reference(0.677) == pytest.approx(0.390084, abs=1e-4)
    with pytest.raises(ValueError):
        dickman_reference(0.4)


def test_records_roundtrip():
    pset = build_prime_set(2, 100.0)
    text = format_records(pset)
    back = parse_records(text, 100.0, 2.0, 0.677, 2)
    assert back.members == pset.members
    with pytest.raises(ValueError):
        parse_records("91 13 6 0\n", 50.0, 2.0, 0.677, 2)  # 91 = 7*13


def test_orders_recomputable():
    for sp in build_prime_set(3, 100.0).members:
        assert multiplicative_order(3, sp.ell) == sp.order_g
        assert factorize(sp.ell - 1)[-1][0] == sp.p_plus
