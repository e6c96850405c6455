import json
import math
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadfields import arith, census, harvest, sequences, sieve
from quadfields.arith import factorize, is_perfect_square, jacobi
from quadfields.census import squarefree_kernel
from quadfields.harvest import SievePrime, SievePrimeSet, build_prime_set
from quadfields.sequences import Polynomial, u_eval, u_eval_mod, validate
from quadfields.sieve import (
    certificate,
    detector,
    diagnostics,
    omega_z,
    partition,
    run_sieve,
)


def _tiny_set(*members):
    return SievePrimeSet(10.0, 2.0, 0.677, 2, "standard", members)


SEVENTEEN = SievePrime(17, 2, 8, True)


def test_omega_examples(shanks, pset100):
    assert omega_z(shanks, 3, 1, pset100) == 0
    tiny = _tiny_set(SEVENTEEN)
    assert omega_z(shanks, 1, 1, tiny) == 1  # 17 | u(1) = 17
    assert omega_z(shanks, 1, 17, tiny) == 1  # s contributes the same prime
    assert omega_z(shanks, 2, 1, tiny) == 0


def test_omega_ignores_coprime_s(shanks, pset100):
    for n in range(1, 15):
        assert omega_z(shanks, n, 5, pset100) == omega_z(shanks, n, 1, pset100)


def test_omega_rejects_zero_u():
    vanishing = validate(Polynomial.parse("-8,1"), 2)  # u(3) = 0
    with pytest.raises(ValueError):
        omega_z(vanishing, 3, 1, _tiny_set(SEVENTEEN))


def test_detector_square_identity(shanks, pset100):
    # for k = s*u(n) a positive square, D(n) = |L| - omega_z(k)
    for n in range(1, 21):
        k = squarefree_kernel(u_eval(shanks, n), 10**6)
        assert k.complete
        d = detector(shanks, n, k.kernel, pset100)
        assert d == len(pset100) - omega_z(shanks, n, k.kernel, pset100)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=3), st.integers(2, 12),
       st.integers(1, 400), st.sampled_from([50.0, 100.0, 200.0]), st.data())
def test_detector_identity_on_constructed_squares(low, g, t, z, data):
    # s = t^2 times the exact kernel of u(n) makes s*u(n) a positive square, so
    # D(n) = |L| - omega, in the run's table and by the scalar routines alike
    spec = validate(Polynomial((*low, 1)), g)
    n = data.draw(st.integers(1, 60 // (len(low) * g.bit_length())))  # g^(n deg) < 2^60
    u = u_eval(spec, n)
    assume(1 < u <= arith.U64_MAX)
    s = t * t * math.prod(p for p, e in factorize(u) if e % 2)
    assert is_perfect_square(s * u)
    pset = build_prime_set(g, z)
    run = run_sieve(spec, n - 1, 1, s, pset)
    D, w = detector(spec, n, s, pset), omega_z(spec, n, s, pset)
    assert run.detector.tolist() == [D] and run.omega.tolist() == [w]
    assert D == len(pset) - w


def test_detector_basics(shanks, pset100):
    assert detector(shanks, 5, 1, _tiny_set()) == 0
    for n in range(1, 30):
        assert abs(detector(shanks, n, 1, pset100)) <= len(pset100)
    # term-by-term the symbol is multiplicative in s
    for n in (1, 4, 9):
        split = sum(
            jacobi(5, ell) * jacobi(u_eval_mod(shanks, n, ell), ell)
            for ell in pset100.ells
        )
        assert detector(shanks, n, 5, pset100) == split


def test_partition_window(shanks, pset100):
    part = run_sieve(shanks, 0, 500, 17, pset100).part
    assert part.heavy == bytes(500)  # every n light
    assert part.e_ratio == 0.0
    single = run_sieve(shanks, 7, 1, 17, pset100).part
    assert single.heavy == b"\0"
    with pytest.raises(ValueError):
        run_sieve(shanks, 0, 0, 17, pset100)
    # heavy once omega passes half the set: |L| = 6, so from 4 on
    assert partition([0, 3, 4, 6], pset100).heavy == bytes([0, 0, 1, 1])


@pytest.mark.parametrize("build", [
    lambda spec, pset: run_sieve(spec, -1, 10, 17, pset),
], ids=["run_sieve"])
def test_sieve_rejects_a_negative_window(build, shanks, pset100, monkeypatch):
    # checked before any symbol: n <= 0 would read f(g^n) mod ell through inverses
    monkeypatch.setattr(sieve, "symbol_row", None)
    with pytest.raises(ValueError, match="sieve: M must be >= 0"):
        build(shanks, pset100)


def test_partition_empty_set_puts_everything_light(shanks):
    empty = _tiny_set()
    omega = sieve._column_sums(sieve._symbols(shanks, 0, 10, empty), 10, sieve._ZEROS)
    part = partition(omega, empty)
    assert part.heavy == bytes(10)


def test_partition_zero_u_lands_heavy():
    vanishing = validate(Polynomial.parse("-8,1"), 2)
    part = run_sieve(vanishing, 0, 5, 1, _tiny_set(SEVENTEEN)).part
    assert part.heavy[3 - 1] == 1  # u(3) = 0: every modulus divides it


def test_certificate_golden(shanks, pset100):
    run = run_sieve(shanks, 0, 200, 17, pset100)
    cert = run.cert
    assert cert.matches == (1,)
    assert cert.lhs == 1
    assert cert.rhs == Fraction(12)
    assert cert.holds
    assert certificate(shanks, 0, 17, run.detector, run.part, pset100) == cert


def test_certificate_vacuous_and_small(shanks, pset100):
    cert = run_sieve(shanks, 10, 5, 17, pset100).cert
    assert cert.lhs == 0 and cert.rhs == 0 and cert.holds
    cert = run_sieve(shanks, 0, 50, 17, _tiny_set(SEVENTEEN)).cert
    assert cert.holds  # L = 1: rhs = 2 * lhs
    with pytest.raises(ValueError, match="nonempty"):
        run_sieve(shanks, 0, 50, 17, _tiny_set())


def test_diagnostics_golden(shanks, pset100):
    d = diagnostics(run_sieve(shanks, 0, 200, 17, pset100))
    assert (d.U, d.V, d.W, d.T, d.Q_quantity) == (0, -20, -20, 64, 144)
    assert d.W == d.U + d.V
    assert d.max_cross_gcd == 4
    assert d.gcd_cap == pytest.approx(2.0 * 100 ** (1 - 0.677), rel=1e-12)
    assert d.gcd_bound_holds
    assert d.U_ratio == 0.0
    assert d.V_ratio > 0 and d.T_ratio > 0 and d.Q_ratio > 0


def test_diagnostics_single_member(shanks):
    d = diagnostics(run_sieve(shanks, 0, 20, 1, _tiny_set(SEVENTEEN)))
    assert (d.U, d.V, d.W, d.T, d.Q_quantity) == (0, 0, 0, 0, 0)
    assert d.max_cross_gcd == 0 and d.gcd_bound_holds


def test_diagnostics_per_pair_cap(shanks, pset100):
    d = diagnostics(run_sieve(shanks, 0, 50, 1, pset100))
    members = pset100.members
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if a.p_plus != b.p_plus:
                assert gcd(a.ell - 1, b.ell - 1) <= d.gcd_cap


def test_run_sieve_json(shanks, pset100):
    run = run_sieve(shanks, 0, 20, 1, pset100)
    assert run.detector[0] == -2  # n = 1
    assert run.omega[0] == 0
    doc = run.to_doc()
    assert sorted(doc.keys()) == [
        "certificate",
        "detector",
        "f",
        "g",
        "omega",
        "partition",
        "prime_set",
        "s",
        "window",
    ]
    assert doc["window"] == [0, 20]
    assert doc["prime_set"]["members"][0] == [107, 53, 106, 1]
    again = run_sieve(shanks, 0, 20, 1, pset100)
    assert json.dumps(doc) == json.dumps(again.to_doc())


@pytest.mark.parametrize("L", [1, 127, 128, 32767, 32768])
def test_column_sums_at_each_lane_width(L):
    # signed sums in 1-, 2- and 4-byte lanes, out to -L and L (bytes are symbol + 1)
    rows = [bytes([0, 2, 1, i % 3, i * i % 3]) for i in range(L)]
    D, zeros = sieve._column_sums(rows, 5), sieve._column_sums(rows, 5, sieve._ZEROS)
    assert D.tolist() == [-L, L, 0, *(sum(row[j] - 1 for row in rows) for j in (3, 4))]
    assert zeros.tolist() == [0, 0, L, *(sum(row[j] == 1 for row in rows) for j in (3, 4))]
    assert D.readonly and zeros.readonly


def test_run_sieve_consistency(cubic2, pset100):
    run = run_sieve(cubic2, 0, 30, 5, pset100)
    for n in range(1, 31):
        assert run.detector[n - 1] == detector(cubic2, n, 5, pset100)
        assert run.omega[n - 1] == omega_z(cubic2, n, 5, pset100)
    assert run.cert.holds


def test_run_sieve_with_a_set_harvested_for_another_g(cubic3, pset100):
    # the set's orders are those of 2, no period of 3^n: every cell is computed
    run = run_sieve(cubic3, 0, 300, 5, pset100)
    assert max(sp.order_g for sp in pset100.members) < 300
    for n in range(1, 301):
        assert run.detector[n - 1] == detector(cubic3, n, 5, pset100)
        assert run.omega[n - 1] == omega_z(cubic3, n, 5, pset100)


def _count_rows(monkeypatch):
    # calls of the row builder, by the module that asked for the row
    builds = {}
    real = sequences.symbol_row

    def counting(*args, **kwargs):
        caller = sys._getframe(1).f_globals["__name__"]
        builds[caller] = builds.get(caller, 0) + 1
        return real(*args, **kwargs)

    for module in (sieve, census):
        monkeypatch.setattr(module, "symbol_row", counting)
    return builds


def test_run_sieve_builds_symbols_once(monkeypatch, shanks, pset100):
    # D(n), omega, the partition and the certificate all come from one table,
    # one row per prime; the census witnesses behind the certificate's matches read
    # their own rows, at most one per witness prime
    symbols = []
    builds = _count_rows(monkeypatch)

    def counting_jacobi(a, m):
        symbols.append(m)
        return arith.jacobi(a, m)

    monkeypatch.setattr(sieve, "jacobi", counting_jacobi)
    run = run_sieve(shanks, 0, 200, 17, pset100)
    assert builds.pop(census.__name__, 0) <= len(census._WITNESS_PRIMES)
    assert builds == {sieve.__name__: len(pset100)}
    assert len(symbols) <= len(pset100)  # (s/ell) once per row, none per cell
    assert run.cert.matches == (1,)


def test_sieve_diag_builds_symbols_once(monkeypatch, capsys):
    # `sieve --diag` reads the certificate and the pair diagnostics from the
    # table run_sieve built; the census witnesses behind the certificate read at most
    # one row per witness prime
    from quadfields import cli

    builds = _count_rows(monkeypatch)
    rc = cli.main(["sieve", "-f", "1,6,1", "-g", "2", "-N", "300", "-s", "17",
                   "--z", "200", "--diag"])
    out = capsys.readouterr().out
    assert rc == 0 and "pairs U" in out and "certificate lhs 1 " in out
    assert builds.pop("quadfields.census", 0) <= len(census._WITNESS_PRIMES)
    assert builds == {"quadfields.sieve": len(harvest.build_prime_set(2, 200.0))}
