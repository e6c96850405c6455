"""Acceptance gate: one test per headline criterion, one verdict line each.

Criterion 7 measures the density of primes ell <= 10^6 whose shifted value
ell-1 has a prime factor at least ell^0.677. Baker and Harman ("Shifted
primes without large prime factors", Acta Arith. 83, 1998) promise only a
positive proportion of such primes, and the asymptotic density is
log(1/0.677) = 0.390, approached slowly from below. So the criterion asserts
what a correct count must satisfy at 10^6: the count equals a sympy oracle,
the ratio sits below the asymptote, and it lies within 0.01 of the
finite-range Mertens reckoning. It reports the measured value before
asserting so a failure still documents what the code actually found.
"""

import bisect
import itertools
import math
import random

import pytest
import sympy

from quadfields import bounds, census, charsums, harvest, sieve
from quadfields.arith import is_squarefree
from quadfields.sequences import Polynomial, gcd_degree, u_eval, validate

SHANKS = validate(Polynomial.parse("1,6,1"), 2)
CUBIC2 = validate(Polynomial.parse("2,0,0,1"), 2)
CUBIC3 = validate(Polynomial.parse("2,0,0,1"), 3)

ODD_PRIMES_300 = [p for p in range(3, 300) if all(p % q for q in range(2, p))]


def _random_monic_separable(rng, max_deg=4):
    while True:
        deg = rng.randint(1, max_deg)
        coeffs = tuple(rng.randint(-6, 6) for _ in range(deg)) + (1,)
        f = Polynomial(coeffs)
        if gcd_degree(f, f.derivative()) == 0:
            return f


def test_criterion_1_product_formula_exact():
    # 200 seeded (f, lam, ell, p): a = 0 residual is exactly 0, random a
    # stays within 1e-9 of the split product; budget well under a minute
    rng = random.Random(20260815)
    done = attempts = 0
    while done < 200:
        attempts += 1
        assert attempts < 4000, "pair sampling starved"
        f = _random_monic_separable(rng)
        lam = rng.choice((2, 3, 5))
        ell, p = rng.sample(ODD_PRIMES_300, 2)
        try:
            zero = charsums.product_formula_residual(f, lam, ell, p, 0)
        except ValueError:
            continue  # shared order factor or lam hits a modulus
        assert zero == 0.0
        tau = (
            charsums.complete_sum_pair(f, lam, ell, p, 0).period
        )
        a = rng.randrange(1, tau)
        assert charsums.product_formula_residual(f, lam, ell, p, a) <= 1e-9 * tau
        done += 1
    print(f"criterion 1: {done} tuples, residuals exact at a=0, <=1e-9*tau elsewhere")


def _sweep_configs():
    for spec in (SHANKS, CUBIC2, CUBIC3):
        for z in (50.0, 100.0, 200.0):
            yield spec, harvest.build_prime_set(spec.g, z)


def test_criterion_2_detector_identity():
    # three sources of positive squares s*u(n): pinned s in {1, 17}, the
    # exact squarefree kernel where certifiable, and s = u(n) itself;
    # every one must hit D(n) = |L| - omega exactly; window up to 500
    pinned = kernels = squares = 0
    for spec, pset in _sweep_configs():
        L = len(pset)

        def hit(n, s):
            d = sieve.detector(spec, n, s, pset)
            w = sieve.omega_z(spec, n, s, pset)
            assert d == L - w, (spec.f.format(), spec.g, n)

        for n in range(1, 501):
            for s in (1, 17):
                if census.s_matches(spec, n, s):
                    hit(n, s)
                    pinned += 1
        for n in range(1, 101):
            k = census.squarefree_kernel(u_eval(spec, n), 10**6)
            if k.complete:
                hit(n, k.kernel)
                kernels += 1
            hit(n, u_eval(spec, n))
            squares += 1
    assert squares == 900 and kernels >= 100 and pinned >= 3
    print(f"criterion 2: detector identity exact on {pinned} pinned, "
          f"{kernels} kernel-derived, {squares} self-square configurations")


def test_criterion_3_certificate_and_pair_caps():
    holds = 0
    for spec, pset in _sweep_configs():
        for s in (1, 17):
            cert = sieve.run_sieve(spec, 0, 500, s, pset).cert
            assert cert.holds, (spec.f.format(), spec.g, pset.z, s)
            holds += 1
        diag = sieve.diagnostics(sieve.run_sieve(spec, 0, 200, 17, pset))
        assert diag.W == diag.U + diag.V
        assert diag.gcd_bound_holds
        for i, a in enumerate(pset.members):
            for b in pset.members[i + 1 :]:
                if a.p_plus != b.p_plus:
                    assert math.gcd(a.ell - 1, b.ell - 1) <= diag.gcd_cap
    print(f"criterion 3: certificate holds on {holds} configs, all pair gcd caps met")


def test_criterion_4_census_equivalence():
    # aggregate kernel census against the definitional sum over squarefree s
    total_checked = 0
    for spec in (SHANKS, CUBIC2):
        for M in (0, 1000):
            res = census.count_Q_total(spec, M, 100, 10**4)
            brute = sum(
                census.count_Q(spec, M, 100, s)
                for s in range(1, 10**4 + 1)
                if is_squarefree(s)
            )
            assert res.total == brute, (spec.f.format(), M, res.total, brute)
            total_checked += 1
    fields = census.distinct_fields(SHANKS, 0, 20)
    by_kernel = {}
    for n in range(1, 21):
        k = census.squarefree_kernel(u_eval(SHANKS, n), 2 * 10**6)
        assert k.complete
        by_kernel.setdefault(k.kernel, []).append(n)
    assert sorted(map(tuple, by_kernel.values())) == sorted(
        members for _, members in fields.classes
    )
    print(f"criterion 4: census equals definitional sum on {total_checked} windows, "
          f"{len(fields.classes)} field classes kernel-consistent")


def test_criterion_5_exponent_table():
    t = bounds.exponent_table(0.677)
    assert abs(t.beta - 0.73855) < 1e-5
    assert abs(t.beta0 - 0.89445) < 1e-5
    assert abs(1 / (1 + t.alpha) - 0.59630) < 1e-5
    for a in (0.51, 0.677, 0.9):
        chk = bounds.interpolation_check(a)
        assert chk.identity_error < 1e-12
        assert chk.inequality_holds and chk.grid_holds
    for a in (0.7, 0.75, 0.9, 0.99):
        tt = bounds.exponent_table(a)
        for cut in (tt.switch1, tt.switch2):
            lo = bounds.regime_bound(a, 1e8, (1e8) ** (cut - 1e-12)).value
            hi = bounds.regime_bound(a, 1e8, (1e8) ** (cut + 1e-12)).value
            assert hi == pytest.approx(lo, rel=1e-9)
    print("criterion 5: exponents match to 5dp, interpolation and continuity hold")


def test_criterion_6_weil_scan_family():
    family = ("1,1", "3,0,1", "2,0,0,1", "1,1,0,0,1", "3,1,0,0,0,1")
    worst = 0.0
    for text in family:
        f = Polynomial.parse(text)
        for lam in (2, 3):
            rep = charsums.weil_scan(f, lam, 10**4)
            assert rep.ok, (text, lam, rep.max_ratio)
            assert rep.max_ratio <= f.degree + 1
            worst = max(worst, rep.max_ratio / (f.degree + 1))
    print(f"criterion 6: degrees 1..5, lam 2 and 3, worst ratio fraction {worst:.4f}")


def test_criterion_7_smooth_shift_density():
    z, alpha = 10**6, 0.677
    rep = harvest.density_report(2, z, alpha)
    print(f"criterion 7: measured smooth-shift ratio {rep.ratio_alpha:.6f} "
          f"({rep.count_alpha}/{rep.primes_counted}), "
          f"dickman reference {rep.dickman_reference:.6f}")
    primes = list(sympy.primerange(2, z + 1))
    # ell = 2 counts in the denominator only, as in density_report
    count = sum(1 for p in primes[1:] if max(sympy.factorint(p - 1)) >= p**alpha)
    assert (rep.count_alpha, rep.primes_counted) == (count, len(primes))
    assert rep.ratio_alpha < rep.dickman_reference
    # A prime q >= ell^alpha > sqrt(ell) divides ell-1 for at most one q, and
    # a prime ell is 1 mod q with chance 1/(q-1); ell-1 is even, so q <= (ell-1)/2.
    # Averaging that sum over all ell <= z gives 0.3320 at 10^6 (0.3161 at 10^5
    # against a measured 0.3195), so 0.01 is a few times the measured gap.
    prefix = list(itertools.accumulate((1 / (q - 1) for q in primes), initial=0.0))
    reckoning = 0.0
    for ell in primes:
        lo = bisect.bisect_left(primes, ell**alpha)
        hi = bisect.bisect_right(primes, (ell - 1) // 2)
        reckoning += prefix[max(lo, hi)] - prefix[lo]
    reckoning /= len(primes)
    assert abs(rep.ratio_alpha - reckoning) <= 0.01, reckoning


def test_criterion_8_completion_and_average():
    rng = random.Random(814)
    done = attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 1500, "pair sampling starved"
        f = _random_monic_separable(rng, max_deg=3)
        lam = rng.choice((2, 3))
        ell, p = rng.sample(ODD_PRIMES_300[:30], 2)
        try:
            pair = charsums.complete_sum_pair(f, lam, ell, p, 0)
            inc = charsums.incomplete_sum(f, 1, lam, ell, p, pair.period)
        except ValueError:
            continue
        assert inc.value == pair.value
        done += 1
    for S in (1, 10, 100):
        assert charsums.hb_average(1, S).lhs == float(S * S)
    print(f"criterion 8: {done} full-period sums match their pair sums exactly")


def test_criterion_9_term_balancing():
    unit = bounds.grakol_optimize(
        bounds.TermSystem(((1.0, 1.0),), ((1.0, 1.0),), 0.1, 10.0)
    )
    assert unit.value == pytest.approx(2.0, rel=1e-3)
    assert unit.holds
    S, N, a = 1e3, 1e6, 0.677
    av1 = bounds.grakol_optimize(bounds.av1_system(S, N, a, 2.0, 1e12))
    assert av1.holds
    assert av1.T[0][0] == pytest.approx(
        S ** (1 - 1 / (4 * a)) * N ** (1 / (2 * a)), rel=1e-9
    )
    assert av1.T[0][1] == pytest.approx(S * N ** (1 / (1 + a)), rel=1e-9)
    end = bounds.grakol_optimize(bounds.endgame_system(N, a, 2.0, 1e12))
    assert end.holds
    assert end.T[0][0] == pytest.approx(N ** (1 / (2 * a)), rel=1e-9)
    print("criterion 9: balanced terms symbolic-exact, optimizer within guarantee")
