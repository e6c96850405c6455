import random

import pytest

from quadfields.arith import is_prime
from quadfields.sequences import (
    Polynomial,
    gcd_degree,
    u_eval,
    u_eval_mod,
    validate,
)


def test_polynomial_parse_format_roundtrip():
    for text in ("1,6,1", "2,0,0,1", "0,1", "-5,3"):
        assert Polynomial.parse(text).format() == text


def test_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        Polynomial((0,))
    with pytest.raises(ValueError):
        Polynomial.parse("0,0")


def test_polynomial_basic_fields():
    f = Polynomial.parse("1,6,1")
    assert f.degree == 2 and f.leading == 1 and f.constant == 1
    assert f(4) == 41
    assert f.derivative().coefficients == (6, 2)


def test_validate_shanks_flags(shanks):
    assert shanks.separable


def test_validate_double_root():
    spec = validate(Polynomial.parse("1,-2,1"), 2)  # (X-1)^2
    assert not spec.separable


def test_validate_cubic(cubic3):
    assert cubic3.separable


def test_validate_rejections():
    with pytest.raises(ValueError):
        validate(Polynomial.parse("1,6,1"), 1)
    with pytest.raises(ValueError):
        validate(Polynomial.parse("5"), 2)  # degree 0


def test_u_eval_shanks_values(shanks):
    # (2^n+3)^2 - 8 for n = 1..5; all five are prime
    expected = [17, 41, 113, 353, 1217]
    for n, want in enumerate(expected, start=1):
        got = u_eval(shanks, n)
        assert got == want
        assert (2**n + 3) ** 2 - 8 == got
        assert is_prime(got)


def test_u_eval_identity_polynomial():
    spec = validate(Polynomial.parse("0,1"), 3)
    assert u_eval(spec, 5) == 3**5


def test_u_eval_mod_examples(shanks):
    assert u_eval_mod(shanks, 1, 7) == 17 % 7 == 3
    spec = validate(Polynomial.parse("0,1"), 5)
    for m in (2, 3, 10):
        assert u_eval_mod(spec, 0, m) == 1 % m


def test_u_eval_mod_agrees_with_big_path(shanks, cubic3):
    rng = random.Random(20)
    for spec in (shanks, cubic3):
        for _ in range(500):
            n = rng.randrange(0, 201)
            m = rng.randrange(2, 10**6)
            assert u_eval_mod(spec, n, m) == u_eval(spec, n) % m


def test_gcd_degree_detects_shared_factors():
    f = Polynomial.parse("1,-2,1")  # (X-1)^2
    assert gcd_degree(f, f.derivative()) == 1
    g = Polynomial.parse("1,6,1")
    assert gcd_degree(g, g.derivative()) == 0
    # product with an exact square factor
    sq = Polynomial.parse("4,-4,1")  # (X-2)^2
    h = Polynomial(
        tuple(
            sum(
                sq.coefficients[i] * g.coefficients[k - i]
                for i in range(max(0, k - g.degree), min(k, sq.degree) + 1)
            )
            for k in range(sq.degree + g.degree + 1)
        )
    )
    assert gcd_degree(h, h.derivative()) >= 1

