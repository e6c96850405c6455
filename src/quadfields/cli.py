"""Command-line front end.

Exit codes: 0 success, 2 flag parsing, 3 precondition violations
(ValueError from any module), 4 invariant failures (InvariantError, which
python -O does not strip, or a stray AssertionError).
Outputs are deterministic for fixed flags; artifacts are written only when
-o is given (dicts as sorted JSON, encoded here alone), stdout carries the human summary.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from itertools import permutations
from pathlib import Path

from . import bounds, census, charsums, harvest, sieve
from .arith import InvariantError, ensure, factorize, is_perfect_square, is_prime, is_squarefree
from .arith import jacobi, multiplicative_order, prime_chunks
from .sequences import Polynomial, SequenceSpec, symbol_row, u_eval, u_eval_mod, validate

__all__ = ["main"]


def _spec(args: argparse.Namespace) -> SequenceSpec:
    if args.f is None or args.g is None:
        raise ValueError("this command needs -f and -g")
    return validate(Polynomial.parse(args.f), args.g)


_F_HELP = "polynomial coefficients, constant first, e.g. 1,6,1; a negative constant needs -f=-5,1"


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="quadfields",
        description="quadratic-field census, square sieve, and character-sum checks",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, spec=False, window=False):
        if spec:
            p.add_argument("-f", help=_F_HELP)
            p.add_argument("-g", type=int, help="base of the geometric argument")
        if window:
            p.add_argument("-M", type=int, default=0, help="window offset (default 0)")
            p.add_argument("-N", type=int, default=1, help="window length")
        p.add_argument("-o", "--out", help="artifact output path")
        p.set_defaults(parser=p)

    p = sub.add_parser("census", help="count square values of s*u(n) over a window")
    common(p, spec=True, window=True)
    p.add_argument("-s", type=int, help="single squarefree multiplier")
    p.add_argument("-S", type=int, help="aggregate over all squarefree s <= S")
    p.add_argument("--classes", action="store_true", help="list distinct-field classes")

    p = sub.add_parser("sieve", help="square-sieve run over a window")
    common(p, spec=True, window=True)
    p.add_argument("-s", type=int, default=1, help="squarefree multiplier (default 1)")
    p.add_argument("--z", type=float, help="sieve parameter; default balances the endgame terms")
    p.add_argument("--C", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=0.677)
    p.add_argument("--variant", choices=harvest.VARIANTS, default="standard")
    p.add_argument("--diag", action="store_true", help="print pair diagnostics")

    p = sub.add_parser("charsum", help="complete, paired, and incomplete character sums")
    common(p, spec=False)
    p.add_argument("-f", required=True, help=_F_HELP)
    p.add_argument("--lam", type=int, required=True, help="base of the orbit, as in f(A * lam^n)")
    p.add_argument("--p", type=int, help="odd prime modulus")
    p.add_argument("--ell", type=int, help="second prime for the pair modulus ell*p")
    p.add_argument("-a", type=int, default=0, help="frequency")
    p.add_argument("--K", type=int, help="incomplete length (with --ell)")
    p.add_argument("--A", type=int, default=1, help="orbit shift A in f(A * lam^n), for --K")
    p.add_argument("--scan", action="store_true", help="max-ratio scan over primes")
    p.add_argument("--pmax", type=int, default=1000)

    p = sub.add_parser("primes", help="harvest the sieve prime set")
    common(p, spec=False)
    p.add_argument("-g", type=int, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--C", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=0.677)
    p.add_argument("--variant", choices=harvest.VARIANTS, default="standard")
    p.add_argument("--density", action="store_true",
                   help="report the smooth-shift density among primes up to z")

    p = sub.add_parser("bounds", help="exponent table, regimes, and curve export")
    common(p, spec=False)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("-N", type=float)
    p.add_argument("-S", type=float)
    p.add_argument("--curve", action="store_true", help="emit a CSV bound curve over S")
    p.add_argument("--smax", type=float, default=10**6)
    p.add_argument("--points", type=int, default=25)

    p = sub.add_parser("verify", help="run the exact-invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true")
    return top


def _reject_unread(args: argparse.Namespace, mode: str, *flags: str) -> None:
    """A flag that this mode never reads is an error, unless it is left at its default."""
    unread = [f for f in flags
              if getattr(args, f.lstrip("-")) != args.parser.get_default(f.lstrip("-"))]
    if unread:
        raise ValueError(f"{mode} does not read {', '.join(unread)}")


def _emit(args: argparse.Namespace, render) -> None:
    """Write render() to -o, a dict as sorted JSON; without -o nothing is rendered."""
    if args.out:
        doc = render()
        if isinstance(doc, dict):
            import json  # not at the top: only the artifact writers need it
            doc = json.dumps(doc, sort_keys=True)
        Path(args.out).write_text(doc)


def _run_census(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if (args.s is not None) + (args.S is not None) + args.classes != 1:
        raise ValueError("census: give one of -s, -S or --classes")
    if args.classes:
        result = census.distinct_fields(spec, args.M, args.N)
        print(f"classes {len(result.classes)}")
        for rep, members in result.classes:
            print(f"  n={rep}: {' '.join(map(str, members))}")
        _emit(args, result.to_doc)
        return 0
    if args.s is not None:
        count = census.count_Q(spec, args.M, args.N, args.s)
        print(count)
        _emit(args, lambda: {"M": args.M, "N": args.N, "s": args.s, "count": count})
        return 0
    result = census.count_Q_total(spec, args.M, args.N, args.S)
    print(result.total)
    _emit(args, result.to_doc)
    return 0


def _run_sieve(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if args.s < 1:
        raise ValueError("sieve: s must be >= 1")
    z = args.z if args.z is not None else bounds.default_z(args.N, args.alpha)
    pset = harvest.build_prime_set(args.g, z, args.C, args.alpha, args.variant)
    run = sieve.run_sieve(spec, args.M, args.N, args.s, pset)
    print(f"z {z:.6g} primes {len(pset)}")
    print(f"partition light {run.part.heavy.count(0)} heavy {run.part.heavy.count(1)} "
          f"heavy_ratio {run.part.e_ratio:.6g}")
    print(f"certificate lhs {run.cert.lhs} rhs {run.cert.rhs.numerator}/"
          f"{run.cert.rhs.denominator} holds {run.cert.holds}")
    if args.diag:
        d = sieve.diagnostics(run)
        print(f"pairs U {d.U} V {d.V} W {d.W} T {d.T} Q {d.Q_quantity}")
        print(f"ratios U {d.U_ratio:.6g} V {d.V_ratio:.6g} "
              f"T {d.T_ratio:.6g} Q {d.Q_ratio:.6g}")
        print(f"gcd max {d.max_cross_gcd} cap {d.gcd_cap:.6g} holds {d.gcd_bound_holds}")
    _emit(args, run.to_doc)
    return 0


def _run_charsum(args: argparse.Namespace) -> int:
    f = Polynomial.parse(args.f)
    if args.scan:
        _reject_unread(args, "charsum --scan", "--p", "--ell", "-a", "--K", "--A")
        report = charsums.weil_scan(f, args.lam, args.pmax)
        print(f"max_ratio {report.max_ratio:.12g} slack {report.slack:.6g} ok {report.ok}")
        _emit(args, report.to_csv)
        return 0
    if args.p is None:
        raise ValueError("charsum: need --p (and optionally --ell)")
    if args.ell is None:
        _reject_unread(args, "charsum without --ell", "--pmax", "--A", "--K")
        r = charsums.complete_sum_p(f, args.lam, args.p, args.a)
    elif args.K is None:
        _reject_unread(args, "charsum without --K", "--pmax", "--A")
        r = charsums.complete_sum_pair(f, args.lam, args.ell, args.p, args.a)
    else:
        _reject_unread(args, "charsum --K", "--pmax", "-a")
        r = charsums.incomplete_sum(f, args.A, args.lam, args.ell, args.p, args.K)
    print(f"{r.kind} modulus {r.modulus} period {r.period} "
          f"value {r.value.real:.12g}{r.value.imag:+.12g}i ratio {r.bound_ratio:.12g}")
    _emit(args, lambda: {
        "kind": r.kind, "modulus": r.modulus, "period": r.period,
        "frequency": r.frequency, "re": r.value.real, "im": r.value.imag,
        "bound_ratio": r.bound_ratio})
    return 0


def _run_primes(args: argparse.Namespace) -> int:
    if args.density:
        _reject_unread(args, "primes --density", "--out", "--C", "--variant")
        rep = harvest.density_report(args.g, args.z, args.alpha)
        print(f"primes {rep.primes_counted} smooth_shift {rep.count_alpha} "
              f"large_order {rep.count_order}")
        print(f"ratio {rep.ratio_alpha:.6g} dickman_reference {rep.dickman_reference:.6g}")
        return 0
    pset = harvest.build_prime_set(args.g, args.z, args.C, args.alpha, args.variant)
    text = harvest.format_records(pset)
    print(f"members {len(pset)}")
    if args.out:
        _emit(args, lambda: text)
    elif text:
        print(text, end="")
    return 0


def _run_bounds(args: argparse.Namespace) -> int:
    # every value is computed, and so every flag checked, before the first print
    if args.N is None:
        _reject_unread(args, "bounds without -N", "-S")
    if not args.curve:
        _reject_unread(args, "bounds without --curve", "--out", "--smax", "--points")
    elif args.N is None:
        raise ValueError("bounds: --curve needs -N")
    elif not args.smax >= 1:
        raise ValueError("bounds: --smax must be >= 1")
    elif args.points < 2:
        raise ValueError("bounds: --points must be >= 2")
    t = bounds.exponent_table(args.alpha)
    chk = bounds.interpolation_check(args.alpha)
    z = bounds.default_z(args.N, args.alpha) if args.N is not None else None
    both = args.N is not None and args.S is not None
    rb = bounds.regime_bound(args.alpha, args.N, args.S) if both else None
    curve = None
    if args.curve:
        svals = [args.smax ** (i / (args.points - 1)) for i in range(args.points)]
        curve = bounds.bound_curve_csv(args.alpha, args.N, svals)
    for name in ("alpha", "beta", "gamma", "beta0", "gamma0",
                 "switch1", "switch2", "switch3", "theta"):
        print(f"{name} {getattr(t, name):.10f}")
    print(f"one_over_one_plus_alpha {1 / (1 + args.alpha):.10f}")
    print(f"interpolation theta {chk.theta:.10f} holds {chk.inequality_holds} "
          f"grid {chk.grid_holds}")
    if z is not None:
        print(f"default_z {z:.6g}")
    if rb is not None:
        print(f"regime {rb.regime} bound {rb.value:.6g}")
    if curve is not None:
        _emit(args, lambda: curve)
    return 0


# ---------------------------------------------------------------- verify


def _shanks() -> SequenceSpec:
    return validate(Polynomial.parse("1,6,1"), 2)


def _check_arith(rng: random.Random, quick: bool) -> None:
    rounds = 40 if quick else 200
    for _ in range(rounds):
        m = 2 * rng.randrange(1, 10**6) + 1
        a, b = rng.randrange(1, m), rng.randrange(1, m)
        ensure(jacobi(a * b % m, m) == jacobi(a, m) * jacobi(b, m))
    for _ in range(rounds // 4):
        n = rng.randrange(2, 1 << 48)
        ensure(math.prod(p**e for p, e in factorize(n)) == n)
    for g in (2, 3, 12):  # the density report's decided orders against the full descent
        rows = [(ell**0.677, p_plus, t) for ell, p_plus, t in harvest.shift_orders(g, 3, 2000)]
        want = (sum(p >= bar for bar, p, _ in rows), sum(t >= bar for bar, _, t in rows))
        rep = harvest.density_report(g, 2000, 0.677)
        ensure((rep.count_alpha, rep.count_order) == want, ("orders", g))


def _check_sequences(rng: random.Random, quick: bool) -> None:
    spec = _shanks()
    for _ in range(20 if quick else 100):
        n = rng.randrange(1, 60)
        m = rng.randrange(2, 10**6)
        ensure(u_eval(spec, n) % m == u_eval_mod(spec, n, m))
    from .engine import orbit_symbols  # the numpy twin behind the character sums

    count = 60 if quick else 300
    for p in (7, 101, 7919, 1000003):  # square tables, then Euler's criterion
        f = Polynomial((*(rng.randrange(-50, 50) for _ in range(3)), 1))
        g = rng.randrange(2, 10**6)
        want = [jacobi(f.eval_mod(pow(g, x, p), p), p) for x in range(1, count + 1)]
        row = symbol_row(f, g, p, 1, count, multiplicative_order(g, p) if g % p else 1)
        ensure([b - 1 for b in row] == want, ("row", p))
        ensure(orbit_symbols(f, g, p, count).tolist() == want, ("orbit", p))


def _check_detector(rng: random.Random, quick: bool) -> None:
    N = 30 if quick else 120  # at N = 40 the quick U is 0 on both specs
    for spec in (_shanks(), validate(Polynomial.parse("2,0,0,1"), 3)):
        pset = harvest.build_prime_set(spec.g, 120.0)
        # 7 primes, 149 and 223 sharing P+ = 37 (U needs a pair); s = 2 and 5 twist some rows,
        # and s = u(1) makes s*u(1) a square, so the identity below runs on each spec
        squares = 0
        for s in (1, 2, 5, u_eval(spec, 1)):
            run = sieve.run_sieve(spec, 0, N, s, pset)  # the run behind `quadfields sieve --diag`
            for n in range(1, N + 1):
                D, w = sieve.detector(spec, n, s, pset), sieve.omega_z(spec, n, s, pset)
                ensure((run.detector[n - 1], run.omega[n - 1]) == (D, w), ("table", n, s))
                if census.s_matches(spec, n, s):
                    ensure(D == len(pset) - w, (spec.f.format(), n, s))
                    squares += 1
            ensure(run.cert.holds, ("certificate", s))
            # U and W by a double loop over the ordered pairs of distinct primes, on scalar symbols
            chi = [(sp.p_plus, [jacobi(s * u_eval_mod(spec, n, sp.ell), sp.ell)
                                for n in range(1, N + 1)]) for sp in pset.members]
            dots = [(a == b, sum(i * j for i, j in zip(x, y)))
                    for (a, x), (b, y) in permutations(chi, 2)]
            U, W = sum(dot for same, dot in dots if same), sum(dot for _, dot in dots)
            d = sieve.diagnostics(run)
            ensure(d.gcd_bound_holds and (d.U, d.W) == (U, W), ("pairs", s, d.U, d.W, U, W))
        ensure(squares > 0, ("no square s*u(n)", spec.f.format()))


def _check_census(rng: random.Random, quick: bool) -> None:
    spec = _shanks()
    N, S = (20, 100) if quick else (50, 2000)
    total = census.count_Q_total(spec, 0, N, S)
    brute = sum(census.count_Q(spec, 0, N, s) for s in range(1, S + 1) if is_squarefree(s))
    ensure(total.total == brute, (total.total, brute))
    # kernels stopped early against S, by factorize: u(n) < 2^64, and n = 30 p 10007^2 at a
    # chunk's first prime p, which a stop one prime early (S = 30 p) or one that skips the
    # square test on the cofactor 10007^2 misdecides
    p = prime_chunks(10**4)[1][0]
    cases = [(u_eval(spec, n), S) for n in range(1, 32)]
    cases += [(30 * p * 10007**2, 30 * p - d) for d in (0, 1)]
    for u, s in cases:
        k = census.squarefree_kernel(u, 10**4, s)
        true = math.prod(q for q, e in factorize(u) if e % 2)
        ensure(k.kernel == true if k.complete else s < k.kernel <= true, (u, s, k))
    # field classes, n with the first rep r whose u(r) u(n) is a square: 2^n - 5 at n = 3, 5, 9
    spec, classes = validate(Polynomial.parse("-5,1"), 2), {}
    for n in (n for n in range(1, 13) if u_eval(spec, n) > 0):
        rep = next((r for r in classes if is_perfect_square(u_eval(spec, r) * u_eval(spec, n))), n)
        classes.setdefault(rep, []).append(n)
    got = census.distinct_fields(spec, 0, 12).classes
    ensure(got == tuple((r, tuple(m)) for r, m in classes.items()), ("classes", got))


def _check_product_formula(rng: random.Random, quick: bool) -> None:
    f = Polynomial.parse("2,0,0,1")
    pairs = [(3, 7), (5, 7), (7, 11), (5, 23), (13, 31)]  # orders of 2: 2/3, 4/3, 3/10, 4/11, 12/5
    for ell, p in pairs[: 3 if quick else 5]:
        ensure(charsums.product_formula_residual(f, 2, ell, p, 0) == 0.0)
        tau = charsums.complete_sum_pair(f, 2, ell, p, 0).period
        a = rng.randrange(1, tau)
        ensure(charsums.product_formula_residual(f, 2, ell, p, a) <= 1e-9 * tau)


def _check_completion(rng: random.Random, quick: bool) -> None:
    f = Polynomial.parse("2,0,0,1")
    for (ell, p), A in zip(((3, 7), (5, 7))[: 1 if quick else 2], (5, -2)):
        pair = charsums.complete_sum_pair(f, 2, ell, p, 0)
        ensure(charsums.incomplete_sum(f, 1, 2, ell, p, pair.period).value == pair.value, (ell, p))
        K = 2 * pair.period + 5  # past one period, at a shift A != +-1, against the direct sum
        inc = charsums.incomplete_sum(f, A, 2, ell, p, K).value
        ensure(inc == sum(jacobi(f(A * 2**n), ell * p) for n in range(1, K + 1)), (A, K, inc))
    for S in (1, 10, 100):
        ensure(charsums.hb_average(1, S).lhs == float(S * S))


def _check_bounds(rng: random.Random, quick: bool) -> None:
    ts = bounds.TermSystem(((1.0, 1.0),), ((1.0, 1.0),), 0.1, 10.0)
    r = bounds.grakol_optimize(ts)
    ensure(abs(r.value - 2.0) <= 2e-3 and r.holds)
    t = bounds.exponent_table(0.677)
    ensure(abs(t.beta - 0.7385524372) < 1e-9)
    ensure(abs(t.beta0 - 0.8944543828) < 1e-9)
    ensure(bounds.interpolation_check(0.677).grid_holds)


def _check_weil(rng: random.Random, quick: bool) -> None:
    f, lam, p_max = Polynomial.parse("2,0,0,1"), 2, 500 if quick else 2000
    report = charsums.weil_scan(f, lam, p_max)
    ensure(report.ok, f"weil ratio {report.max_ratio}")
    # one row per odd prime p <= p_max not dividing lam, in ascending p, with its period
    want = [(p, multiplicative_order(lam, p)) for p in range(3, p_max + 1, 2)
            if is_prime(p) and lam % p]
    ensure([(row.modulus, row.period) for row in report.rows] == want, "weil rows")
    rows = [row for row in report.rows if row.admissible]
    for row in rows[:: len(rows) // 8 or 1]:  # the FFT's value against the direct sum
        direct = charsums.complete_sum_p(f, lam, row.modulus, row.frequency).value
        ensure(abs(direct - row.value) <= 1e-9 * row.period, ("weil", row.modulus))


def _run_verify(args: argparse.Namespace) -> int:
    quick = args.quick
    rng = random.Random(args.seed)
    checks = (_check_arith, _check_sequences, _check_detector, _check_census,
              _check_product_formula, _check_completion, _check_bounds, _check_weil)
    for check in checks:
        check(rng, quick)
        print(f"ok {check.__name__.removeprefix('_check_')}")
    print(f"verify: {len(checks)} checks passed")
    return 0


_DISPATCH = {
    "census": _run_census,
    "sieve": _run_sieve,
    "charsum": _run_charsum,
    "primes": _run_primes,
    "bounds": _run_bounds,
    "verify": _run_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message; code 2 on bad flags
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvariantError, AssertionError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
