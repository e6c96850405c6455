import cmath
import math
import random

import pytest
import sympy

from quadfields.charsums import (
    complete_sum_p,
    complete_sum_pair,
    hb_average,
    incomplete_sum,
    product_formula_residual,
    split_frequencies,
    weil_scan,
)
from quadfields import arith
from quadfields.charsums import _orbit_sum
from quadfields.arith import jacobi, multiplicative_order
from quadfields.sequences import Polynomial

FX = Polynomial.parse("0,1")
FX1 = Polynomial.parse("1,1")
SHANKS = Polynomial.parse("1,6,1")
CUBIC = Polynomial.parse("2,0,0,1")


def test_split_frequencies_example():
    a_ell, a_p = split_frequencies(7, 3, 10)
    assert (a_ell, a_p) == (1, 9)
    assert (a_ell * 10 + a_p * 3 - 7) % 30 == 0


def test_split_frequencies_zero_and_full_period():
    assert split_frequencies(0, 3, 10) == (0, 0)
    assert split_frequencies(30, 3, 10) == (0, 0)


def test_split_frequencies_rejections():
    with pytest.raises(ValueError):
        split_frequencies(1, 4, 10)  # gcd 2
    with pytest.raises(ValueError):
        split_frequencies(1, 0, 3)


def test_orbit_sum_core_example():
    # orbit of 2 mod 7 is {2, 4, 1}, all squares
    assert _orbit_sum(FX, 2, 7, 3, 0) == 3


def test_complete_sum_p_gates():
    with pytest.raises(ValueError):
        complete_sum_p(FX, 2, 7, 0)  # p | lam*f(0) since f(0) = 0
    with pytest.raises(ValueError):
        complete_sum_p(Polynomial.parse("1,2"), 3, 7, 0)  # not monic
    with pytest.raises(ValueError):
        complete_sum_p(Polynomial.parse("1,-2,1"), 2, 7, 0)  # double root
    with pytest.raises(ValueError):
        complete_sum_p(FX1, 2, 2, 0)
    with pytest.raises(ValueError):
        complete_sum_p(FX1, 2, 9, 0)
    with pytest.raises(ValueError):
        complete_sum_p(FX1, 0, 7, 0)
    with pytest.raises(ValueError):
        complete_sum_p(FX1, 7, 7, 0)  # lam*f(0) = 7


def test_complete_sum_p_cubic_golden():
    res = complete_sum_p(CUBIC, 2, 101, 1)
    assert res.period == 100
    assert abs(res.value) == pytest.approx(math.sqrt(101), rel=1e-12)
    assert res.bound_ratio == pytest.approx(1.0, abs=1e-9)
    assert abs(res.value) <= 4 * math.sqrt(101)


def test_complete_sum_p_frequency_periodic():
    tau = multiplicative_order(2, 101)
    for a in (0, 3, 17):
        lo = complete_sum_p(CUBIC, 2, 101, a)
        hi = complete_sum_p(CUBIC, 2, 101, a + tau)
        assert cmath.isclose(lo.value, hi.value, abs_tol=1e-9)


def test_complete_sum_pair_period_and_product():
    res = complete_sum_pair(SHANKS, 2, 7, 11, 0)
    assert res.period == 30 and res.modulus == 77
    single = _orbit_sum(SHANKS, 2, 7, 3, 0) * _orbit_sum(SHANKS, 2, 11, 10, 0)
    assert res.value == single  # a = 0 path is exact integers
    res7 = complete_sum_pair(SHANKS, 2, 7, 11, 7)
    split = _orbit_sum(SHANKS, 2, 7, 3, 1) * _orbit_sum(SHANKS, 2, 11, 10, 9)
    assert cmath.isclose(res7.value, split, abs_tol=1e-9)


def test_complete_sum_pair_rejections():
    with pytest.raises(ValueError, match="distinct"):
        complete_sum_pair(SHANKS, 2, 7, 7, 0)
    with pytest.raises(ValueError, match="odd prime"):
        complete_sum_pair(SHANKS, 2, 9, 11, 0)
    with pytest.raises(ValueError, match="coprime"):
        complete_sum_pair(SHANKS, 7, 7, 11, 0)
    with pytest.raises(ValueError, match="share a factor"):
        complete_sum_pair(SHANKS, 2, 5, 13, 0)  # orders 4 and 12


def test_product_formula_exact_at_zero():
    assert product_formula_residual(FX, 2, 7, 11, 0) == 0.0
    assert product_formula_residual(SHANKS, 2, 7, 11, 0) == 0.0


def test_product_formula_roundoff_at_seven():
    resid = product_formula_residual(SHANKS, 2, 7, 11, 7)
    assert resid <= 1e-9 * 30


def test_product_formula_seeded_sweep():
    rng = random.Random(1105)
    pairs = ((3, 7), (5, 7), (7, 11), (3, 11), (11, 29))
    checked = 0
    for _ in range(100):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1]
        f = Polynomial(tuple(coeffs))
        lam = rng.choice((2, 3))
        ell, p = rng.choice(pairs)
        a = rng.randrange(0, 60)
        try:
            resid = product_formula_residual(f, lam, ell, p, a)
        except ValueError:
            continue  # pair orders not coprime for this lam
        tau = (
            multiplicative_order(lam, ell) * multiplicative_order(lam, p)
        )
        assert resid <= 1e-9 * tau
        checked += 1
    assert checked >= 40


def test_incomplete_full_period_equals_pair():
    full = incomplete_sum(SHANKS, 1, 2, 7, 11, 30)
    pair = complete_sum_pair(SHANKS, 2, 7, 11, 0)
    assert full.value == pair.value
    assert incomplete_sum(SHANKS, 1, 2, 7, 11, 0).value == 0


def test_incomplete_golden_and_integrality():
    res = incomplete_sum(CUBIC, 1, 2, 7, 11, 15)
    assert res.value == 1 + 0j
    assert res.bound_ratio == pytest.approx(0.0235270756, abs=1e-9)
    for K in (1, 7, 29, 30, 31, 100):
        v = incomplete_sum(CUBIC, 1, 2, 7, 11, K).value
        assert v.imag == 0.0 and v.real == int(v.real)


def test_incomplete_rejections():
    with pytest.raises(ValueError, match="A must be coprime"):
        incomplete_sum(SHANKS, 7, 2, 7, 11, 5)
    with pytest.raises(ValueError, match="K"):
        incomplete_sum(SHANKS, 1, 2, 7, 11, -1)
    with pytest.raises(ValueError, match="monic"):
        incomplete_sum(Polynomial.parse("1,2"), 1, 2, 7, 11, 5)
    with pytest.raises(ValueError, match="lam"):
        incomplete_sum(FX, 1, 2, 7, 11, 5)  # f(0) = 0 kills both moduli


def test_weil_scan_inadmissible_rows_reported_not_asserted():
    rep = weil_scan(FX, 2, 100)
    assert len(rep.rows) == 24  # odd primes up to 100
    assert all(not r.admissible for r in rep.rows)
    assert rep.max_ratio == 0.0
    assert max(r.ratio for r in rep.rows) == pytest.approx(9.0006693192, abs=1e-9)
    assert rep.ok  # no admissible row can violate


def test_weil_scan_linear_hits_sqrt_exactly():
    rep = weil_scan(FX1, 2, 100)
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.ok and rep.slack == 2.0


def test_weil_scan_cubic_golden():
    rep = weil_scan(CUBIC, 2, 1000)
    assert rep.slack == 4.0
    assert rep.max_ratio == pytest.approx(2.9998206785, abs=1e-9)
    assert rep.ok


def test_weil_scan_rejections_and_csv():
    with pytest.raises(ValueError):
        weil_scan(Polynomial.parse("1,-2,1"), 2, 100)
    with pytest.raises(ValueError):
        weil_scan(FX1, 0, 100)
    csv = weil_scan(FX1, 2, 50).to_csv()
    head, first = csv.splitlines()[:2]
    assert head == "modulus,period,frequency,re,im,ratio"
    assert first.startswith("3,")


def test_weil_scan_periods_match_sympy(monkeypatch):
    # every p-1 comes from one factor table, so no per-prime factorize runs
    def no_factorize(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(arith, "factorize", no_factorize)
    for f, lam in ((CUBIC, 2), (SHANKS, 3), (FX1, -7), (CUBIC, 10)):
        rep = weil_scan(f, lam, 700)
        assert [r.modulus for r in rep.rows] == [p for p in sympy.primerange(3, 701) if lam % p]
        for r in rep.rows:
            assert r.period == sympy.n_order(lam % r.modulus, r.modulus)


def test_orbit_reduction_matches_discrete_log_form():
    # reindex the orbit through a primitive root: lam = theta^m,
    # s = gcd(m, p-1), tau = (p-1)/s, k = m/s, b = s * (a / k mod tau);
    # then (1/s) sum_w (f(w^s)/p) e(b dlog(w) / (p-1)) is the orbit sum
    for p in (13, 29, 31):
        theta = sympy.primitive_root(p)
        dlog = {pow(theta, y, p): y for y in range(p - 1)}
        for lam in (2, 3):
            m = dlog[lam % p]
            s = math.gcd(m, p - 1)
            tau = (p - 1) // s
            k = m // s
            assert multiplicative_order(lam, p) == tau
            for f in (FX, FX1, SHANKS, CUBIC):
                for a in (0, 1, 2, 5):
                    c = a * pow(k, -1, tau) % tau
                    b = s * c
                    brute = sum(
                        jacobi(f.eval_mod(pow(w, s, p), p), p)
                        * cmath.exp(2j * cmath.pi * (b * dlog[w]) / (p - 1))
                        for w in range(1, p)
                    ) / s
                    direct = _orbit_sum(f, lam, p, tau, a)
                    assert cmath.isclose(brute, direct, abs_tol=1e-9)


def test_hb_average_trivial_modulus():
    for S in (1, 10, 100):
        assert hb_average(1, S).lhs == S**2


def test_hb_average_golden():
    res = hb_average(100, 100)
    assert res.lhs == 10404.0


def test_hb_average_rejections():
    with pytest.raises(ValueError):
        hb_average(0, 5)

