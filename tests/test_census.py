import json
import math
import random
import time

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadfields import arith, census, cli
from quadfields.arith import is_perfect_square, is_squarefree
from quadfields.census import (
    count_Q,
    count_Q_total,
    distinct_fields,
    s_matches,
    same_field,
    squarefree_kernel,
)
from quadfields.sequences import Polynomial, u_eval, validate


@pytest.fixture(scope="module")
def dipped():
    # u(n) = 2^n - 5 goes negative for n <= 2
    return validate(Polynomial.parse("-5,1"), 2)


def test_same_field_examples():
    assert same_field(8, 2)
    assert not same_field(17, 41)
    assert same_field(12, 3) and same_field(5, 45)
    for a in (1, 7, 10**40 + 1):
        assert same_field(a, a)
    with pytest.raises(ValueError):
        same_field(0, 3)
    with pytest.raises(ValueError):
        same_field(5, -5)


def test_same_field_transitive_seeded():
    rng = random.Random(41)
    kernels = (1, 2, 3, 5, 6, 17, 41)
    vals = [rng.choice(kernels) * rng.randint(1, 10**6) ** 2 for _ in range(60)]
    for _ in range(300):
        a, b, c = rng.sample(vals, 3)
        if same_field(a, b) and same_field(b, c):
            assert same_field(a, c)


def test_s_matches(shanks, dipped):
    assert s_matches(shanks, 1, 17)  # 17 * 17 = 289
    assert not s_matches(shanks, 2, 17)
    assert not s_matches(dipped, 1, 3)  # u(1) = -3, no field at all


def test_count_Q_examples(shanks):
    assert count_Q(shanks, 0, 10, 17) == 1
    assert count_Q(shanks, 10, 5, 17) == 0
    assert count_Q(shanks, 0, 10, 41) == 1


def test_count_Q_rejections(shanks):
    inseparable = validate(Polynomial.parse("1,-2,1"), 2)
    with pytest.raises(ValueError, match="separable"):
        count_Q(inseparable, 0, 5, 1)
    with pytest.raises(ValueError, match="squarefree"):
        count_Q(shanks, 0, 5, 12)
    with pytest.raises(ValueError):
        count_Q(shanks, 0, 5, 0)
    with pytest.raises(ValueError, match="64 bits"):
        count_Q(shanks, 0, 5, 2**64)
    with pytest.raises(ValueError):
        count_Q(shanks, -1, 5, 1)
    with pytest.raises(ValueError):
        count_Q(shanks, 0, 0, 1)


def test_count_Q_total_small_window(shanks):
    # u(1..5) = 17, 41, 113, 353, 1217: five primes, kernels are themselves
    res = count_Q_total(shanks, 0, 5, 50)
    assert res.total == 2
    assert res.per_s == {17: 1, 41: 1}
    assert res.skipped == ()
    assert count_Q_total(shanks, 0, 5, 1300).total == 5
    assert count_Q_total(shanks, 0, 5, 1).total == 0


def test_count_Q_total_all_squares():
    squares = validate(Polynomial.parse("0,1"), 4)  # u(n) = 4^n
    res = count_Q_total(squares, 0, 6, 1)
    assert res.total == 6 and res.per_s == {1: 6}


def test_count_Q_total_fallback_matches_definition(shanks):
    # compare against the plain s-loop
    res = count_Q_total(shanks, 0, 5, 200)
    brute = sum(
        count_Q(shanks, 0, 5, s) for s in range(1, 201) if is_squarefree(s)
    )
    assert res.total == brute == 3
    assert res.per_s == {17: 1, 41: 1, 113: 1}


def test_count_Q_total_skips_negative(dipped):
    res = count_Q_total(dipped, 0, 5, 50)
    assert res.skipped == (1, 2)
    assert res.per_s == {3: 2, 11: 1}  # u(3) = 3, u(5) = 27, u(4) = 11


# f, g, M, N
windows = given(
    st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=5).filter(lambda c: c[-1]),
    st.integers(2, 10**4), st.integers(0, 300), st.integers(1, 30))


@settings(max_examples=100, deadline=None)
@windows
def test_window_bits_bounds_every_u(coeffs, g, M, N):
    spec = validate(Polynomial(tuple(coeffs)), g)
    true_bits = sum(u_eval(spec, n).bit_length() for n in range(M + 1, M + N + 1))
    assert census._window_bits(spec, M, N) >= true_bits


@settings(max_examples=100, deadline=None)
@windows
def test_u_bits_bounds_every_u(coeffs, g, M, N):
    spec = validate(Polynomial(tuple(coeffs)), g)
    top = census._u_bits(spec, M + N)
    assert all(abs(u_eval(spec, n)) < 1 << top for n in range(M + 1, M + N + 1))


@pytest.mark.parametrize("f, g, M, N", [
    ("1,6,1", 2, 0, 7),  # B = 2^16
    ("2,0,0,1", 3, 0, 4),  # B = 2^13
    ("0,1", 4, 0, 6),  # squares, B = 2^10
    ("0,1", 10007, 0, 1),  # u = 10007, a prime in (B, B^2) for B = 2^8
    ("-5,1", 2, 0, 8),  # skips n = 1, 2
])
def test_count_Q_total_kernels_complete_below_S(f, g, M, N, monkeypatch):
    # when the derived bound B falls below S, every kernel must be decided against S;
    # in these five windows each one also comes out exact
    calls, real = [], census.squarefree_kernel

    def spy(u, B, S=None):
        k = real(u, B, S)
        calls.append((B, k.complete))
        return k

    monkeypatch.setattr(census, "squarefree_kernel", spy)
    S = 10**5
    res = count_Q_total(validate(Polynomial.parse(f), g), M, N, S)
    assert calls and all(B < S and complete for B, complete in calls)
    assert len(calls) == N - len(res.skipped)


def test_count_Q_total_kernel_above_S_below_B(monkeypatch):
    # u = 510510 * 313 * 317 is squarefree and above S, and B = 2^19 < S: after the first
    # chunk (primes to 311) the kernel 510510 times the next prime 313 passes S, so it
    # stops there, certified above S but not exact
    calls, real = [], census.squarefree_kernel

    def spy(u, B, S=None):
        k = real(u, B, S)
        calls.append((B, k))
        return k

    monkeypatch.setattr(census, "squarefree_kernel", spy)
    S = 10**6
    res = count_Q_total(validate(Polynomial.parse("0,1"), 510510 * 313 * 317), 0, 1, S)
    assert calls == [(524288, census.KernelResult(159789630, complete=False))]
    assert calls[0][1].kernel > S and res.total == 0


def test_window_bits_example(shanks):
    # 2 * bitlen(2) * (1 + ... + 5) + 5 * bitlen(1 + 6 + 1)
    assert census._window_bits(shanks, 0, 5) == 80


@pytest.mark.parametrize("argv", [
    ["-f", "1,6,1", "-g", "2", "-N", "7000000", "-S", "10"],
    ["-f", "1,6,1", "-g", "2", "-N", "7000000", "-s", "17"],
    ["-f", "1,6,1", "-g", "2", "-N", "7000000", "--classes"],
    # f(0) = 0 puts g^n inside u(n), so the layer strip is quadratic in its bits
    ["-f", "0,1", "-g", "2", "-M", "10000000", "-N", "1", "-S", "10"],
], ids=["S", "s", "classes", "high-multiplicity"])
def test_huge_census_window_exits_3_fast(argv, capsys):
    t0 = time.perf_counter()
    assert cli.main(["census", *argv]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("M, N, S, err", [
    # B = 10^8: at least 84824 chunks price the window at 8.3e18 steps, so no sieve to 10^8
    (0, 7000000, 10**8, "needs at least 8.31e+18 steps (bits of u(n) and at least 84824 prime"),
    # B = 10^6: its 1131-chunk lower bound passes the cap, its 1227 chunks do not
    (0, 2012, 10**6, "needs about 1.5e+10 steps (bits of u(n) and 1227 prime chunks <= 1000000)"),
    # u(n) near 2^(4M): B = min(S, 2^ceil(top/2)) = 10 by bit lengths, 2^ceil(top/2) never built
    (10**11, 1, 10, "needs at least 4e+11 steps (bits of u(n) and at least 1 prime chunks <= 10)"),
    (10**400, 1, 10, "needs at least 4.00e+400 steps"),  # past the float range as well
    # B = S = 10^1000 by bit lengths: refused at the table cap, and printed as the work is
    (10**400, 1, 10**1000, "the numbers to B = 1.00e+1000 exceed the table cap"),
], ids=["lower-bound", "exact-count", "far-offset", "farther-offset", "far-B"])
def test_census_work_cap_priced_before_the_sieve(M, N, S, err, capsys):
    t0 = time.perf_counter()
    argv = ["census", "-f", "1,6,1", "-g", "2", "-M", str(M), "-N", str(N), "-S", str(S)]
    assert cli.main(argv) == 3
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().err
    assert err in out and len(out) < 200  # one short line, whatever the size of the window


def test_large_g_part_of_f0_exits_3_fast():
    # u(n) = 2^400000 * (2^(n - 400000) + 1): the strip takes 400,000 factors of 2 off
    # each 1.2-million-bit u(n), about ten minutes over this window
    spec = validate(Polynomial((2**400000, 1)), 2)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        count_Q_total(spec, 400000, 2000, 10)
    assert time.perf_counter() - t0 < 1.0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**200),
       st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 400)), max_size=3),
       st.one_of(st.integers(2, 10**6), st.sampled_from([6, 30030, 2**40, 3**25 * 7])))
def test_smooth_part_matches_gcd_formula(c, powers, g):
    # the peel term's g-smooth part of f(0) against the formula it replaced
    c *= math.prod(q**e for q, e in powers)
    assert census._smooth_part(c, g) == math.gcd(c, pow(g, c.bit_length(), c))


def test_huge_f0_coprime_to_g_cap_check_is_fast():
    # a 317,000-bit f(0) coprime to g: gcd(f(0), g^bits) alone took 0.12-0.17 s
    spec = validate(Polynomial((5 * 3**200000, 1)), 2)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):  # raised before any u(n) is built
        count_Q_total(spec, 0, 10**5, 10)
    assert time.perf_counter() - t0 < 0.05


def test_census_json_roundtrip(shanks):
    res = count_Q_total(shanks, 0, 5, 1300)
    doc = res.to_doc()
    assert doc["M"] == 0 and doc["N"] == 5 and doc["S"] == 1300
    assert doc["per_s"] == [[17, 1], [41, 1], [113, 1], [353, 1], [1217, 1]]
    assert json.dumps(doc) == json.dumps(count_Q_total(shanks, 0, 5, 1300).to_doc())


def test_distinct_fields_small(shanks, dipped):
    res = distinct_fields(shanks, 0, 5)
    assert len(res.classes) == 5 and res.total == 5
    assert distinct_fields(shanks, 0, 1).classes == ((1, (1,)),)
    res = distinct_fields(dipped, 0, 5)
    assert res.skipped == (1, 2)
    assert res.classes == ((3, (3, 5)), (4, (4,)))  # 3 and 27 share a field


def test_distinct_fields_class_validity(cubic2):
    from quadfields.sequences import u_eval

    res = distinct_fields(cubic2, 0, 12)
    reps = [rep for rep, _ in res.classes]
    for rep, members in res.classes:
        for n in members:
            assert same_field(u_eval(cubic2, rep), u_eval(cubic2, n))
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            assert not same_field(u_eval(cubic2, a), u_eval(cubic2, b))
    # kernel view must carve out the identical partition
    by_kernel = {}
    for n in range(1, 13):
        k = squarefree_kernel(u_eval(cubic2, n), 10**6)
        assert k.complete
        by_kernel.setdefault(k.kernel, []).append(n)
    assert sorted(tuple(v) for v in by_kernel.values()) == sorted(
        members for _, members in res.classes
    )


def test_squarefree_kernel_examples():
    k = squarefree_kernel(72, 10)
    assert (k.kernel, k.complete) == (2, True)
    k = squarefree_kernel(17 * 2**100 * 9, 10**6)
    assert (k.kernel, k.complete) == (17, True)
    k = squarefree_kernel(49, 10)
    assert (k.kernel, k.complete) == (1, True)
    # leftover certified prime above B still yields an exact kernel
    k = squarefree_kernel(5 * 2796203, 10**6)
    assert (k.kernel, k.complete) == (5 * 2796203, True)
    # 1673^2 > 2796203 > 1672^2: the prime leftover is certified only up to B^2
    k = squarefree_kernel(5 * 2796203, 1673)
    assert (k.kernel, k.complete) == (5 * 2796203, True)
    k = squarefree_kernel(5 * 2796203, 1672)
    assert (k.kernel, k.complete) == (5 * 1673, False)
    with pytest.raises(ValueError):
        squarefree_kernel(0, 10)
    with pytest.raises(ValueError):
        squarefree_kernel(10, 1)


def test_squarefree_kernel_incomplete_is_certified_lower_bound():
    p = sympy.nextprime(2**40)
    q = sympy.nextprime(p)
    k = squarefree_kernel(3 * p * q, 10**6)
    assert not k.complete
    assert k.kernel == 3 * (10**6 + 1)


def test_squarefree_kernel_reconstruction_seeded():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 10**12)
        k = squarefree_kernel(n, 10**4)
        if k.complete:
            assert n % k.kernel == 0
            assert is_perfect_square(n // k.kernel)
            assert is_squarefree(k.kernel)
        else:
            # kernel = (kernel of the smooth part) * (B + 1); what is left is no square
            small, r = divmod(k.kernel, 10**4 + 1)
            assert r == 0 and n % small == 0
            assert n // small > 10**8 and not is_perfect_square(n // small)


def test_kernel_primes_sieved_once(monkeypatch):
    # B = 10^6 is composite and the largest prime below it is 999983, so a
    # cache keyed on its largest prime re-sieved on every kernel call; the
    # chunks are cached for the last bound only, so a new B sieves again
    real = arith.primes_up_to
    sieved = []

    def counting(limit):
        sieved.append(limit)
        return real(limit)

    monkeypatch.setattr(arith, "primes_up_to", counting)
    arith.prime_chunks.cache_clear()
    n = 17 * sympy.nextprime(10**7) ** 3
    for B in (10**6, 10**6, 5000):
        squarefree_kernel(n, B)
    assert sieved == [10**6, 5000]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 3000), max_size=8), st.integers(1, 10**12),
       st.lists(st.tuples(st.sampled_from([2, 3, 5, 97, 991, 4999, 100003]),
                          st.integers(1, 3000)), max_size=3),
       st.sampled_from([2, 97, 1000, 5000, 10**5]))
def test_squarefree_kernel_matches_sympy(small, big, powers, B):
    # powers: prime powers p^e up to e = 3000, deep in the gcd layers
    fac = sympy.factorint(math.prod(small) * big)
    for p, e in powers:
        fac[p] = fac.get(p, 0) + e
    n = math.prod(p**e for p, e in fac.items())
    k = squarefree_kernel(n, B)
    smooth_kernel = math.prod(p for p, e in fac.items() if p <= B and e % 2)
    rough = math.prod(p**e for p, e in fac.items() if p > B)
    assert k.complete == (rough == 1 or is_perfect_square(rough) or rough <= B * B)
    if k.complete:
        assert k.kernel == math.prod(p for p, e in fac.items() if e % 2)
    else:
        assert k.kernel == smooth_kernel * (B + 1)


CHUNK_P = arith.prime_chunks(1000)[1][0]  # the first prime of the second chunk, 313


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 13, CHUNK_P, 727]), st.integers(1, 3)),
                max_size=4),
       st.integers(1, 10**6).map(sympy.nextprime), st.integers(1, 10**6), st.integers(1, 10**5))
# small = 30 before the chunk of p: S = small * p must come back complete, S - 1 incomplete
@example([(2, 1), (3, 1), (5, 1)], CHUNK_P, 10007, 30 * CHUNK_P)
@example([(2, 1), (3, 1), (5, 1)], CHUNK_P, 10007, 30 * CHUNK_P - 1)
def test_squarefree_kernel_decided_against_S(powers, q, k, S):
    # n = s * q * k^2 with B as count_Q_total takes it: B >= S, or B^2 > n
    n = math.prod(p**e for p, e in powers) * q * k * k
    B = max(2, min(S, math.isqrt(n) + 1))
    true = math.prod(p for p, e in sympy.factorint(n).items() if e % 2)
    exact, early = squarefree_kernel(n, B), squarefree_kernel(n, B, S)
    assert (exact.complete and exact.kernel <= S) == (early.complete and early.kernel <= S)
    assert (early.complete and early.kernel <= S) == (true <= S)
    if true <= S:
        assert early == (true, True)
    else:
        assert S < early.kernel <= true and (early.kernel == true or not early.complete)
    if n == 30 * CHUNK_P * 10007**2:  # the examples: complete from S = small * p on
        assert early.complete == (S >= 30 * CHUNK_P)


def test_kernel_work_pinned_by_the_early_stop(monkeypatch):
    # census -f 2,0,0,1 -g 2 -M 1000 -N 20 -S 100000: 3056 chunk gcds when every
    # kernel ran through all chunks <= B, 349 when each stops once decided against S
    calls, real = [], math.gcd
    monkeypatch.setattr(census, "gcd", lambda *a: calls.append(a) or real(*a))
    res = count_Q_total(validate(Polynomial.parse("2,0,0,1"), 2), 1000, 20, 10**5)
    assert res.total == 0 and len(calls) <= 400


def test_squarefree_kernel_high_multiplicity_is_fast():
    # 400,001 factors of 2: one division per exponent would take about 40 s
    t0 = time.perf_counter()
    k = squarefree_kernel(2**400001 * 3, 10)
    assert time.perf_counter() - t0 < 5.0
    assert (k.kernel, k.complete) == (6, True)


@pytest.mark.parametrize("g, M, count", [(2, 100000, 1), (3, 20001, 1), (10, 20000, 1), (30, 20000, 0)])
def test_census_f_zero_at_zero(g, M, count, capsys):
    # u(n) = g^n: the kernel of g^(M+1) is the product of g's primes at odd exponent
    assert cli.main(["census", "-f", "0,1", "-g", str(g), "-M", str(M), "-N", "1", "-S", "10"]) == 0
    assert capsys.readouterr().out == f"{count}\n"
