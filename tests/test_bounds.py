import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfields.bounds import (
    TermSystem,
    av1_system,
    bound_curve_csv,
    default_z,
    endgame_system,
    exponent_table,
    grakol_optimize,
    interpolation_check,
    regime_bound,
)
from quadfields.census import count_Q

ALPHAS = (0.51, 0.6, 0.677, 0.75, 0.9, 0.99)


def test_term_system_validation():
    with pytest.raises(ValueError):
        TermSystem((), ((1.0, 1.0),), 1.0, 2.0)
    with pytest.raises(ValueError):
        TermSystem(((1.0, 1.0),), (), 1.0, 2.0)
    with pytest.raises(ValueError):
        TermSystem(((0.0, 1.0),), ((1.0, 1.0),), 1.0, 2.0)
    with pytest.raises(ValueError):
        TermSystem(((1.0, 1.0),), ((1.0, -2.0),), 1.0, 2.0)
    with pytest.raises(ValueError):
        TermSystem(((1.0, 1.0),), ((1.0, 1.0),), 5.0, 2.0)


def test_grakol_am_gm_unit():
    ts = TermSystem(((1.0, 1.0),), ((1.0, 1.0),), 0.1, 10.0)
    res = grakol_optimize(ts)
    assert res.z_star == pytest.approx(1.0, rel=1e-9)
    assert res.value == pytest.approx(2.0, rel=1e-12)
    assert res.T == ((1.0,),)
    assert res.holds


def test_grakol_interior_equals_am_gm():
    # A z^b + C z^-b bottoms out at 2 sqrt(AC) when the exponents match
    ts = TermSystem(((3.0, 2.0),), ((7.0, 2.0),), 1e-3, 1e3)
    res = grakol_optimize(ts)
    assert res.value == pytest.approx(2 * math.sqrt(21.0), rel=1e-9)
    assert res.holds


def test_grakol_av1_terms_symbolic():
    S, N, a = 1e3, 1e6, 0.677
    res = grakol_optimize(av1_system(S, N, a, 2.0, 1e12))
    assert res.T[0][0] == pytest.approx(S ** (1 - 1 / (4 * a)) * N ** (1 / (2 * a)), rel=1e-9)
    assert res.T[0][1] == pytest.approx(S * N ** (1 / (1 + a)), rel=1e-9)
    assert res.holds
    assert res.value <= res.guarantee


def test_grakol_endgame_term():
    N, a = 1e6, 0.677
    res = grakol_optimize(endgame_system(N, a, 2.0, 1e30))
    assert res.T[0][0] == pytest.approx(N ** (1 / (2 * a)), rel=1e-12)
    # z2 huge: descending edge term contributes nothing visible
    edge_down = N * 1e30 ** -(2 * a - 1)
    assert edge_down < 1e-3
    assert res.holds


_COEFF = st.floats(1e-3, 1e3)
_EXP = st.floats(0.1, 3.0)
_RANGE = st.tuples(st.floats(1e-3, 1.0), st.floats(1.0, 1e3))  # (z1, z2)


@settings(max_examples=200, deadline=None)
@given(_COEFF, _EXP, _COEFF, _EXP, _RANGE)
def test_grakol_one_pair_is_the_clipped_closed_form(a, b, c, d, zs):
    # a z^b + c z^-d is stationary where a b z^b = c d z^-d
    z1, z2 = zs
    res = grakol_optimize(TermSystem(((a, b),), ((c, d),), z1, z2))
    closed = min(max((c * d / (a * b)) ** (1 / (b + d)), z1), z2)
    assert res.z_star == pytest.approx(closed, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_COEFF, _EXP), min_size=1, max_size=3),
       st.lists(st.tuples(_COEFF, _EXP), min_size=1, max_size=3), _RANGE)
def test_grakol_value_is_at_most_a_log_grid_minimum(ascending, descending, zs):
    z1, z2 = zs
    ts = TermSystem(tuple(ascending), tuple(descending), z1, z2)
    res = grakol_optimize(ts)
    grid = min(ts.value(z1 * (z2 / z1) ** (i / 1999)) for i in range(2000))
    assert z1 <= res.z_star <= z2
    assert res.value == ts.value(res.z_star) <= grid * (1 + 1e-12)


def test_exponent_table_goldens():
    t = exponent_table(0.677)
    assert t.beta == pytest.approx(0.7385524372, abs=1e-10)
    assert t.beta0 == pytest.approx(0.8944543828, abs=1e-10)
    assert t.gamma0 == pytest.approx(2.7889087657, abs=1e-10)
    assert 1 / (1 + t.alpha) == pytest.approx(1000 / 1677, rel=1e-15)
    assert t.gamma == pytest.approx(2 - 1 / 0.677, rel=1e-12)


def test_exponent_table_invariants():
    for a in ALPHAS:
        t = exponent_table(a)
        assert 0 < t.theta < 1
        assert t.switch1 < t.switch2
        assert 0.5 < t.beta < 1
        assert t.beta0 > t.beta  # averaging beats the endgame exponent
        assert t.gamma0 > 2
    # the cascade ordering switch2 < switch3 needs alpha > 2/3
    assert exponent_table(0.6).switch2 > exponent_table(0.6).switch3
    assert exponent_table(0.7).switch2 < exponent_table(0.7).switch3
    with pytest.raises(ValueError):
        exponent_table(0.5)
    with pytest.raises(ValueError):
        exponent_table(1.0)


def test_regime_bound_continuity():
    N = 1e8
    for a in (0.7, 0.75, 0.9):
        t = exponent_table(a)
        for cut in (t.switch1, t.switch2):
            below = regime_bound(a, N, N ** (cut - 1e-12))
            above = regime_bound(a, N, N ** (cut + 1e-12))
            assert below.value == pytest.approx(above.value, rel=1e-9)
            assert below.regime != above.regime


def test_regime_bound_anchors():
    a = 0.75
    t = exponent_table(a)
    rb = regime_bound(a, 1e8, 1.0)
    assert rb.regime == "small_s"
    assert rb.value == pytest.approx((1e8) ** (1 / (2 * a)), rel=1e-12)
    at_top = regime_bound(a, 1e8, (1e8) ** t.switch3)
    assert at_top.regime == "large_s"
    assert at_top.value == pytest.approx(1e8, rel=1e-9)
    beyond = regime_bound(a, 1e8, (1e8) ** (t.switch3 + 0.05))
    assert beyond.regime == "trivial" and beyond.value == 1e8
    with pytest.raises(ValueError):
        regime_bound(0.75, 1.0, 10.0)
    with pytest.raises(ValueError):
        regime_bound(0.75, 100.0, 0.5)


def test_bound_curve_csv_shape():
    csv = bound_curve_csv(0.75, 1e6, [1.0, 10.0, 1e5])
    lines = csv.strip().splitlines()
    assert lines[0] == "N,S,bound,regime"
    assert len(lines) == 4
    assert lines[1].endswith("small_s")
    assert lines[3].endswith("trivial")


def test_interpolation_check():
    for a in (0.51, 0.677, 0.9):
        ic = interpolation_check(a)
        assert 0 < ic.theta < 1
        assert ic.identity_error < 1e-12
        assert ic.inequality_holds and ic.grid_holds
    assert interpolation_check(0.677).theta == pytest.approx(0.2103181745, abs=1e-9)


def test_fit_exponent_census_doubling(shanks):
    # the s = 17 census count is flat in N (log-log slope 0): only n = 1 ever matches
    counts = [count_Q(shanks, 0, N, 17) for N in (100, 200, 400, 800)]
    assert counts == [1, 1, 1, 1]


def test_default_z_balance():
    # ratio of the endgame terms N z^(1-2 alpha) and z (log z)^2 at the default z
    for N, want in ((1e3, 9.450609), (1e6, 4.771175), (1e9, 3.663036)):
        z = default_z(N, 0.677)
        ratio = N * z ** (1 - 2 * 0.677) / (z * math.log(z) ** 2)
        assert ratio == pytest.approx(want, rel=1e-3)
    assert ratio <= 4.0  # the claimed factor closes only near 10^9
    with pytest.raises(ValueError):
        default_z(2.0, 0.677)
    with pytest.raises(ValueError):
        default_z(1e6, 0.3)
