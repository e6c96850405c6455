import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from quadfields import census, charsums, cli, sieve
from quadfields.arith import jacobi
from quadfields.harvest import build_prime_set, parse_records
from quadfields.sequences import Polynomial


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_census_single_s(capsys):
    rc, out, _ = run(capsys, "census", "-f", "1,6,1", "-g", "2", "-M", "0",
                     "-N", "10", "-s", "17")
    assert rc == 0 and out == "1\n"


def test_census_aggregate_and_artifact(capsys, tmp_path):
    art = tmp_path / "census.json"
    rc, out, _ = run(capsys, "census", "-f", "1,6,1", "-g", "2", "-N", "5",
                     "-S", "1300", "-o", str(art))
    assert rc == 0 and out == "5\n"
    doc = json.loads(art.read_text())
    assert doc["per_s"] == [[17, 1], [41, 1], [113, 1], [353, 1], [1217, 1]]
    run(capsys, "census", "-f", "1,6,1", "-g", "2", "-N", "5",
        "-S", "1300", "-o", str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_text() == art.read_text()


def test_census_classes(capsys):
    rc, out, _ = run(capsys, "census", "-f", "1,6,1", "-g", "2", "-N", "5",
                     "--classes")
    lines = out.strip().splitlines()
    assert rc == 0 and lines[0] == "classes 5"
    assert len(lines) == 6


def test_census_errors(capsys):
    rc, _, err = run(capsys, "census", "-f", "1,6,1", "-g", "2", "-N", "5",
                     "-s", "12")
    assert rc == 3 and "squarefree" in err
    for modes in (["-s", "2", "-S", "10"], [], ["--classes", "-S", "30"],
                  ["--classes", "-s", "17"]):
        rc, out, err = run(capsys, "census", "-f", "1,6,1", "-g", "2", "-N", "5", *modes)
        assert rc == 3 and out == "" and "give one of -s, -S or --classes" in err
    rc, _, err = run(capsys, "census", "-N", "5", "-s", "2")
    assert rc == 3 and "-f and -g" in err


@pytest.mark.parametrize("argv", [
    ["sieve", "-f", "1,6,1", "-g", "2", "-N", "200", "-s", "0", "--z", "100"],
    ["sieve", "-f", "1,6,1", "-g", "2", "-N", "200", "-s", "-3", "--z", "100"],
    ["primes", "-g", "2", "--z", "inf"],
    ["primes", "-g", "2", "--z", "inf", "--density"],
    ["primes", "-g", "2", "--z", "nan", "--density"],
    ["sieve", "-f", "1,6,1", "-g", "2", "-N", "200", "--z", "inf"],
    ["sieve", "-f", "1,6,1", "-g", "2", "-N", "200", "--C", "inf", "--z", "100"],
    ["bounds", "--alpha", "0.677", "-N", "100", "--curve", "--smax", "-5"],
    ["bounds", "--alpha", "0.677", "-N", "100", "--curve", "--smax", "inf"],
    ["bounds", "--alpha", "0.677", "-N", "inf", "-S", "5"],
    ["bounds", "--alpha", "0.677", "-N", "nan", "-S", "5"],
    ["bounds", "--alpha", "0.677", "-N", "1e8", "-S", "nan"],
    ["bounds", "--alpha", "0.677", "-N", "100", "--curve", "--points", "0"],
    ["bounds", "--alpha", "0.677", "-N", "100", "--curve", "--points", "-3"],
    ["bounds", "--alpha", "0.677", "-N", "100", "--curve", "--points", "1"],
    ["bounds", "--alpha", "0.677", "--curve"],
    ["primes", "-g", "0", "--z", "100"],
    ["primes", "-g", "-3", "--z", "100"],
    ["primes", "-g", "1", "--z", "100"],
    ["primes", "-g", "0", "--z", "1000", "--density"],
    ["primes", "-g", "-3", "--z", "1000", "--density"],
    ["bounds", "--alpha", "0.677", "-S", "nan"],  # -S is read only with -N
    ["bounds", "--alpha", "0.677", "-S", "-5"],
    ["charsum", "-f", "2,0,0,1", "--lam", "2", "--p", "101", "--K", "5"],  # --K needs --ell
])
def test_bad_values_exit_3(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv, "-o", "art")
    # a failed run prints nothing to stdout and writes no artifact
    assert rc == 3 and out == "" and err.startswith("error: ")
    assert not (tmp_path / "art").exists()
    # the value itself is rejected, not only an -o that the mode does not read
    assert run(capsys, *argv)[:2] == (3, "")


_SCAN = ["charsum", "-f", "2,0,0,1", "--lam", "2", "--scan", "--pmax", "50", "-o", "art"]
_SUM_P = ["charsum", "-f", "2,0,0,1", "--lam", "2", "--p", "101", "-o", "art"]
_SUM_PAIR = ["charsum", "-f", "2,0,0,1", "--lam", "2", "--p", "11", "--ell", "7", "-o", "art"]
_SUM_K = [*_SUM_PAIR, "--K", "15"]
_DENSITY = ["primes", "-g", "2", "--z", "1000", "--density"]
_TABLE = ["bounds", "--alpha", "0.677", "-N", "100"]
# periods of 2 mod the primes to 10^6 sum to 2.15*10^10 orbit points, over half an hour of scan;
# the priced points pass the cap at p = 123581
_SCAN_PAST_CAP = ["charsum", "-f", "2,0,0,1", "--lam", "2", "--scan", "--pmax", "1000000"]


@pytest.mark.parametrize("argv, flag", [
    ([*_SCAN, "--p", "7"], "--p"),
    ([*_SCAN, "--ell", "5"], "--ell"),
    ([*_SCAN, "-a", "3"], "-a"),
    ([*_SCAN, "--K", "4"], "--K"),
    ([*_SCAN, "--A", "5"], "--A"),
    ([*_SUM_P, "--pmax", "50"], "--pmax"),
    ([*_SUM_P, "--A", "5"], "--A"),
    ([*_SUM_PAIR, "--pmax", "50"], "--pmax"),
    ([*_SUM_PAIR, "--A", "5"], "--A"),
    ([*_SUM_K, "--pmax", "50"], "--pmax"),
    ([*_SUM_K, "-a", "3"], "-a"),
    ([*_DENSITY, "-o", "art"], "--out"),
    ([*_DENSITY, "--C", "5"], "--C"),
    ([*_DENSITY, "--variant", "erh"], "--variant"),
    (["bounds", "--alpha", "0.677", "-o", "art"], "--out"),
    ([*_TABLE, "--smax", "50"], "--smax"),
    ([*_TABLE, "--points", "3"], "--points"),
], ids=["scan-p", "scan-ell", "scan-a", "scan-K", "scan-A", "p-pmax", "p-A", "pair-pmax",
        "pair-A", "K-pmax", "K-a", "density-out", "density-C", "density-variant",
        "table-out", "table-smax", "table-points"])
def test_unread_flags_exit_3(argv, flag, capsys, tmp_path, monkeypatch):
    # a flag that the chosen mode never reads is an error, not silently dropped
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and out == "" and f"does not read {flag}" in err
    assert not list(tmp_path.iterdir())


def test_unread_flag_at_its_default_passes(capsys):
    assert run(capsys, *_DENSITY, "--C", "2", "--variant", "standard")[0] == 0
    assert run(capsys, "charsum", "-f", "2,0,0,1", "--lam", "2", "--p", "101", "--A", "1")[0] == 0


def test_bad_flags_exit_2(capsys):
    assert run(capsys, "census", "--bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "charsum", "-f", "1,1")[0] == 2  # --lam is required


def test_assertion_exits_4(capsys, monkeypatch):
    def boom(cfg):
        raise AssertionError("boom")

    monkeypatch.setitem(cli._DISPATCH, "verify", boom)
    rc, _, err = run(capsys, "verify")
    assert rc == 4 and "invariant failure" in err


@pytest.mark.parametrize("argv, flag", [
    (["census", "-f", "1,6,1", "-g", "2", "-N", "5", "-s", "17", "--format", "json"], "--format"),
    (["census", "-f", "1,6,1", "-g", "2", "-N", "5", "-s", "17", "--seed", "7"], "--seed"),
    (["sieve", "-f", "1,6,1", "-g", "2", "-N", "200", "--z", "100", "--seed", "7"], "--seed"),
    (["charsum", "-f", "2,0,0,1", "--lam", "2", "--p", "101", "--seed", "7"], "--seed"),
    (["primes", "-g", "2", "--z", "100", "--seed", "7"], "--seed"),
    (["bounds", "--alpha", "0.677", "--seed", "7"], "--seed"),
    (["census", "-f", "1,6,1", "-g", "2", "-N", "5", "-S", "100", "--kernel-bound", "10"],
     "--kernel-bound"),
    (["verify", "--quick", "-o", "x"], "-o"),
], ids=["format", "census-seed", "sieve-seed", "charsum-seed", "primes-seed", "bounds-seed",
        "kernel-bound", "verify-out"])
def test_removed_flags_exit_2(argv, flag, capsys):
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and flag in err


def _python(*argv, optimize=()):
    # a fresh interpreter with this checkout's src/ first on its path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *optimize, *argv],
                         capture_output=True, text=True, env=env, timeout=300)


VERIFY_CHECKS = ("arith", "sequences", "detector", "census",
                 "product_formula", "completion", "bounds", "weil")

# id: (a patch run before verify --quick, the check whose ok line it must suppress)
VERIFY_MUTANTS = {
    "honest": ("", None),
    "overcount": ("real = census.count_Q_total\n"  # one square too many
                  "census.count_Q_total = lambda *a: (r := real(*a))._replace(total=r.total + 1)",
                  "census"),
    "early-stop": ("real = census.squarefree_kernel\n"  # kernels decided against S - 1, not S
                   "census.squarefree_kernel = lambda n, B, S=None: real(n, B, S and S - 1)",
                   "census"),
    "untwisted": ("sieve._twisted = lambda R, s, prime_set: R", "detector"),  # no (s/ell)
    "kept-diagonal": ("sieve._off_diagonal = lambda rows, N: sum(\n"  # |column sums|^2
                      "    c * c for c in sieve._column_sums(rows, N))", "detector"),
    "stored-untwisted": ("real = sieve.run_sieve\n"  # the run's pair table kept without (s/ell)
                         "sieve.run_sieve = lambda spec, M, N, s, pset: real(spec, M, N, s, pset)"
                         "._replace(\n    symbols=sieve._symbols(spec, M, N, pset))", "detector"),
    "unmatched": ("census.s_matches = lambda spec, n, s: False", "detector"),  # no square found
    "never-merged": ("census.same_field = lambda a, b: False", "census"),  # a class per n
    "shanks-pairs-zeroed": ("real = sieve.diagnostics\n"  # U = V = W = 0 on the Shanks spec only
                            "sieve.diagnostics = lambda run: (real(run)._replace(U=0, V=0, W=0)\n"
                            "    if run.spec.g == 2 else real(run))", "detector"),
    "shifted-detector": ("real = sieve.run_sieve\n"  # D(n + 1) read in place of D(n)
                         "sieve.run_sieve = lambda *a: (r := real(*a))._replace(\n"
                         "    detector=[*r.detector[1:], r.detector[0]])", "detector"),
    "halved-orders": ("real = harvest.shift_orders\n"  # even orders halved
                      "harvest.shift_orders = lambda *a: ((e, p, t if t % 2 else t // 2)\n"
                      "    for e, p, t in real(*a))", "arith"),
    "rolled-orbit": ("real = engine.orbit_symbols\n"  # x = 0..n-1 read in place of 1..n
                     "engine.orbit_symbols = lambda *a, **k: engine.np.roll(real(*a, **k), 1)",
                     "sequences"),
    "unshifted": ("real = charsums.incomplete_sum\n"  # the shift A dropped
                  "charsums.incomplete_sum = lambda f, A, *a: real(f, 1, *a)", "completion"),
    "rolled-spectrum": ("fft = engine.np.fft.fft\n"  # every Weil frequency off by one bin
                        "engine.np.fft.fft = lambda x: engine.np.roll(fft(x), 1)", "weil"),
    "zeroed-U": ("real = sieve.diagnostics\n"  # U dropped on both specs
                 "sieve.diagnostics = lambda run: real(run)._replace(U=0)", "detector"),
    "dropped-shard": ("harvest._cpu_count, harvest._SHARD_WORK = lambda: 2, 1\n"  # two shards
                      "real = harvest.fork_map\n"  # and the last one's items lost
                      "harvest.fork_map = lambda fn, items, work: [\n"
                      "    *real(fn, items, work)[:-1], fn(items[:0])]", "weil"),
}


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("mutant", VERIFY_MUTANTS)
def test_verify_catches_each_mutant(mutant, optimize):
    patch, check = VERIFY_MUTANTS[mutant]
    script = (f"import sys\nfrom quadfields import cli, census, charsums, engine, harvest, sieve\n"
              f"{patch}\n"
              "sys.exit(cli.main(['verify', '--quick']))")
    proc = _python("-c", script, optimize=optimize)
    lines, ok = proc.stdout.splitlines(), [f"ok {c}" for c in VERIFY_CHECKS]
    if check is None:
        assert proc.returncode == 0 and lines == [*ok, "verify: 8 checks passed"], proc.stderr
    else:  # the checks before the named one pass, and the named one fails
        assert proc.returncode == 4 and "invariant failure" in proc.stderr, proc.stderr
        assert lines == ok[: VERIFY_CHECKS.index(check)]


# the modules that importing the CLI adds, by name; a site may preload some
IMPORT_PROBE = """
import sys
before = set(sys.modules)
import quadfields.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_dataclasses_inspect_or_fractions():
    proc = _python("-c", IMPORT_PROBE, optimize=["-O"] * sys.flags.optimize)
    added = proc.stdout.split()
    assert "quadfields.sieve" in added, proc.stderr
    assert not {"dataclasses", "inspect", "fractions", "json"} & set(added), added


# one CLI command, then whether numpy was loaded on the way
NUMPY_PROBE = """
import sys
from quadfields import cli
rc = cli.main(sys.argv[1:])
print("numpy" in sys.modules, rc)
"""


@pytest.mark.parametrize("argv, loads, rc", [
    (["--help"], False, 0),
    (["census", "-f", "2,0,0,1", "-g", "2", "-M", "1000", "-N", "20", "-S", "100000"], False, 0),
    (["bounds", "--alpha", "0.677", "-N", "1e8", "-S", "100"], False, 0),
    (["census", "-f", "1,6,1", "-g", "2", "-N", "100", "-s", "17"], False, 0),
    (["census", "-f", "2,0,0,1", "-g", "3", "-N", "100", "--classes"], False, 0),
    (["sieve", "-f", "1,6,1", "-g", "2", "-N", "50", "--z", "100"], False, 0),
    (["primes", "-g", "2", "--z", "100"], False, 0),
    (["primes", "-g", "2", "--z", "1000", "--density"], False, 0),
    (["charsum", "-f", "2,0,0,1", "--lam", "2", "--scan", "--pmax", "100"], True, 0),
    (_SCAN_PAST_CAP, False, 3),
], ids=["help", "census-S", "bounds", "census-s", "census-classes", "sieve", "primes",
        "primes-density", "charsum-scan", "charsum-scan-past-cap"])
def test_numpy_loads_only_where_a_table_is_built(argv, loads, rc):
    # the exact integer paths, the square sieve, the harvest and the density
    # report start without numpy; the character sums load it, but a scan past
    # its cap is refused before it does
    proc = _python("-c", NUMPY_PROBE, *argv, optimize=["-O"] * sys.flags.optimize)
    assert proc.stdout.splitlines()[-1] == f"{loads} {rc}", proc.stderr


def test_sieve_stdout_and_artifact(capsys, tmp_path):
    art1, art2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("sieve", "-f", "1,6,1", "-g", "2", "-M", "0", "-N", "200",
            "-s", "17", "--z", "100")
    rc, out, _ = run(capsys, *args, "-o", str(art1))
    lines = out.strip().splitlines()
    assert rc == 0
    assert lines[0] == "z 100 primes 6"
    assert lines[1] == "partition light 200 heavy 0 heavy_ratio 0"
    assert lines[2] == "certificate lhs 1 rhs 12/1 holds True"
    run(capsys, *args, "-o", str(art2))
    assert art1.read_text() == art2.read_text()
    doc = json.loads(art1.read_text())
    assert doc["certificate"]["holds"] is True


def test_sieve_diag_lines(capsys):
    rc, out, _ = run(capsys, "sieve", "-f", "1,6,1", "-g", "2", "-N", "200",
                     "-s", "17", "--z", "100", "--diag")
    assert rc == 0
    assert "pairs U 0 V -20 W -20 T 64 Q 144" in out
    assert "gcd max 4 cap 8.85177 holds True" in out


def test_sieve_default_z(capsys):
    # no --z: the endgame balancing choice is used; needs N large enough
    rc, out, _ = run(capsys, "sieve", "-f", "1,6,1", "-g", "2", "-N", "2000")
    assert rc == 0 and out.startswith("z 13.")
    rc, _, err = run(capsys, "sieve", "-f", "1,6,1", "-g", "2", "-N", "200")
    assert rc == 3  # balanced z falls below the harvest floor


def test_charsum_complete_and_pair(capsys, tmp_path):
    rc, out, _ = run(capsys, "charsum", "-f", "2,0,0,1", "--lam", "2",
                     "--p", "101", "-a", "1")
    assert rc == 0 and out.startswith("complete_p modulus 101 period 100")
    assert "ratio 1" in out
    art = tmp_path / "pair.json"
    rc, out, _ = run(capsys, "charsum", "-f", "1,6,1", "--lam", "2",
                     "--p", "11", "--ell", "7", "-a", "7", "-o", str(art))
    assert rc == 0 and out.startswith("complete_lp modulus 77 period 30")
    doc = json.loads(art.read_text())
    assert doc["kind"] == "complete_lp" and doc["frequency"] == 7


def test_charsum_incomplete_and_errors(capsys):
    rc, out, _ = run(capsys, "charsum", "-f", "2,0,0,1", "--lam", "2",
                     "--p", "11", "--ell", "7", "--K", "15")
    assert rc == 0 and out.startswith("incomplete modulus 77")
    assert "value 1+0i" in out
    rc, out, _ = run(capsys, "charsum", "-f", "2,0,0,1", "--lam", "2", "--ell", "3", "--p", "7",
                     "--K", str(10**300))  # K*sqrt(ell*p) still inside the float range
    assert (rc, out) == (0, "incomplete modulus 21 period 6 value -5e+299+0i ratio 0.654653670708\n")
    rc, _, err = run(capsys, "charsum", "-f", "1,1", "--lam", "2")
    assert rc == 3 and "need --p" in err
    rc, _, _ = run(capsys, "charsum", "-f", "1,-2,1", "--lam", "2", "--p", "7")
    assert rc == 3  # inseparable


def _jacobi_terms(f, A, lam, ell, p, K):
    # (f(A lam^n) / ell p) for n = 1..K, one jacobi call each
    m = ell * p
    return [jacobi(f.eval_mod(A * pow(lam, n, m), m), m) for n in range(1, K + 1)]


# (A, lam, ell, p, period): 2 has orders 4 and 3 mod 5 and 7, and 3 and 10 mod 7 and 11;
# the first sum at K = 100 is -25, past its period 12
PAIRS = [(1, 2, 5, 7, 12), (3, 2, 7, 11, 30)]


@pytest.mark.parametrize("A, lam, ell, p, period", PAIRS)
def test_charsum_incomplete_past_the_period(A, lam, ell, p, period, capsys):
    # an incomplete sum is bounded by its K terms, not by the period
    f = Polynomial.parse("2,0,0,1")
    argv = ["charsum", "-f", "2,0,0,1", "--lam", str(lam), "--ell", str(ell), "--p", str(p),
            "--A", str(A), "--K"]
    rc, out, err = run(capsys, *argv, "100")
    value = sum(_jacobi_terms(f, A, lam, ell, p, 100))
    assert rc == 0 and f"period {period} value {value}+0i " in out, err
    terms = _jacobi_terms(f, A, lam, ell, p, period)
    q, r = divmod(10**12, period)
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *argv, str(10**12))
    assert time.perf_counter() - t0 < 1.0
    assert rc == 0 and f" value {float(q * sum(terms) + sum(terms[:r])):.12g}+0i " in out, err


@pytest.mark.parametrize("A, lam, ell, p, period", PAIRS)
def test_charsum_incomplete_within_the_period(A, lam, ell, p, period):
    f = Polynomial.parse("2,0,0,1")
    terms = _jacobi_terms(f, A, lam, ell, p, period)
    for K in range(period + 1):
        assert charsums.incomplete_sum(f, A, lam, ell, p, K).value == sum(terms[:K])


def test_charsum_incomplete_checks_its_trivial_bound(capsys, monkeypatch):
    # every term 2: the sum passes K, which must exit 4 with or without python -O
    monkeypatch.setattr(charsums, "_pair_terms", lambda jl, jp, length: np.full(length, 2))
    rc, _, err = run(capsys, "charsum", "-f", "2,0,0,1", "--lam", "2", "--ell", "5", "--p", "7",
                     "--K", "100")
    assert rc == 4 and "trivial bound" in err


@pytest.mark.parametrize("K", [[], ["--K", str(10**9)]], ids=["complete", "incomplete"])
def test_charsum_pair_row_past_the_table_cap(K, capsys):
    # 2 has coprime orders near 3 * 10^6 mod both primes: a pair row of 2.25e12 terms, or
    # 10^9 with --K, is refused before any symbol is computed
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "charsum", "-f", "2,0,0,1", "--lam", "2", "--ell", "3000017",
                       "--p", "3000047", *K)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 3 and out == "" and "table cap" in err


@pytest.mark.parametrize("bad, reason", [
    (["--K", "-1"], "K must be >= 0"),
    (["--A", "3000017", "--K", "5"], "A must be coprime"),
    (["-f", "3000017,0,0,1", "--K", "5"], "coprime to lam*f(0)"),  # ell divides f(0)
    # the bound K*sqrt(ell*p)/tau is a float: it was inf (ratio 0), then an OverflowError
    (["--K", str(2**1023)], "float range"),
    (["--K", str(2**1024)], "float range"),
], ids=["K", "A", "lam-f0", "K-inf", "K-overflow"])
def test_charsum_incomplete_checks_arguments_before_cycles(bad, reason, capsys):
    # the two cycles mod 3000017 and 3000047 take about a second and 50 MB to build;
    # a bad A, lam*f(0) or K is refused before either is
    argv = ["charsum", "-f", "2,0,0,1", "--lam", "2", "--ell", "3000017", "--p", "3000047"]
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *argv, *bad)
    assert time.perf_counter() - t0 < 0.5
    assert rc == 3 and out == "" and reason in err


# each stage of the square sieve and each exact census test, by the name the benchmark traces
STAGES = ("sieve.partition", "sieve.certificate", "sieve.diagnostics",
          "census.same_field", "census.s_matches")


def test_stage_names_are_what_the_cli_calls(capsys, monkeypatch):
    # each name is wrapped wherever a quadfields module binds it, as perfbench/replay.py does,
    # so a CLI path that bypasses the name would leave its traced layer at 0
    calls = dict.fromkeys(STAGES, 0)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "quadfields"]
    for qual in STAGES:
        module, attr = qual.split(".")
        orig = getattr(sys.modules[f"quadfields.{module}"], attr)

        def counted(*args, _orig=orig, _qual=qual, **kwargs):
            calls[_qual] += 1
            return _orig(*args, **kwargs)

        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    monkeypatch.setattr(m, key, counted)
    for argv in (["sieve", "-f", "1,6,1", "-g", "2", "-N", "200", "-s", "17", "--z", "100",
                  "--diag"],
                 ["census", "-f=-8,1", "-g", "2", "-N", "20", "--classes"],  # u(6) u(9) a square
                 ["census", "-f", "1,6,1", "-g", "2", "-N", "100", "-s", "17"]):
        assert run(capsys, *argv)[0] == 0
    assert all(calls.values()), calls


@pytest.mark.parametrize("argv, owner, render", [
    (["census", "-f", "1,6,1", "-g", "2", "-N", "5", "--classes"], census.CensusResult, "to_doc"),
    (["census", "-f", "1,6,1", "-g", "2", "-N", "5", "-S", "100"], census.CensusResult, "to_doc"),
    (["sieve", "-f", "1,6,1", "-g", "2", "-N", "200", "--z", "100"], sieve.SieveRun, "to_doc"),
    (["charsum", "-f", "1,1", "--lam", "2", "--scan", "--pmax", "100"],
     charsums.WeilScanReport, "to_csv"),
], ids=["classes", "census-S", "sieve", "scan"])
def test_artifact_rendered_only_with_out(argv, owner, render, capsys, tmp_path, monkeypatch):
    real, calls = getattr(owner, render), []

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(owner, render, counted)
    assert run(capsys, *argv)[0] == 0 and calls == []
    art = tmp_path / "art"
    assert run(capsys, *argv, "-o", str(art))[0] == 0 and calls == [1]
    assert art.stat().st_size > 0


def test_charsum_scan_priced_before_it_runs(capsys):
    rc, out, err = run(capsys, *_SCAN_PAST_CAP)
    assert rc == 3 and out == ""
    assert "past the cap of 400000000 points at p = 123581" in err and len(err.encode()) < 200


def test_charsum_scan_refused_at_the_first_prime_past_the_cap(capsys):
    # a pmax far past the cap costs its table (20 MB at 10^7), not a scan of its primes
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *_SCAN_PAST_CAP[:-1], "10000000")
    assert rc == 3 and out == "" and time.perf_counter() - t0 < 1
    assert "past the cap of 400000000 points at p = 123581" in err and len(err.encode()) < 200


def test_weil_scan_prices_each_prime(monkeypatch):
    # lam = 1: every period is 1, so the 24 odd primes to 100 cost 24 * (1 + WEIL_PRIME_POINTS)
    price = 24 * (1 + charsums.WEIL_PRIME_POINTS)
    monkeypatch.setattr(charsums, "WEIL_POINT_CAP", price)
    assert len(charsums.weil_scan(Polynomial.parse("1,1"), 1, 100).rows) == 24
    monkeypatch.setattr(charsums, "WEIL_POINT_CAP", price - 1)
    with pytest.raises(ValueError, match="at p = 97$"):
        charsums.weil_scan(Polynomial.parse("1,1"), 1, 100)


def test_charsum_help_names_the_orbit(capsys):
    rc, out, _ = run(capsys, "charsum", "--help")
    assert rc == 0 and "f(A * lam^n)" in " ".join(out.split())  # as argparse wraps it


def test_charsum_scan_csv(capsys, tmp_path):
    art = tmp_path / "scan.csv"
    rc, out, _ = run(capsys, "charsum", "-f", "1,1", "--lam", "2", "--scan",
                     "--pmax", "100", "-o", str(art))
    assert rc == 0
    assert out.startswith("max_ratio 1 slack 2 ok True")
    lines = art.read_text().splitlines()
    assert lines[0] == "modulus,period,frequency,re,im,ratio"
    assert len(lines) == 25  # header + 24 odd primes


def test_primes_records_roundtrip(capsys, tmp_path):
    art = tmp_path / "primes.txt"
    rc, out, _ = run(capsys, "primes", "-g", "2", "--z", "100", "-o", str(art))
    assert rc == 0 and out == "members 6\n"
    back = parse_records(art.read_text(), 100.0, 2.0, 0.677, 2)
    assert back.members == build_prime_set(2, 100.0).members
    rc, out, _ = run(capsys, "primes", "-g", "2", "--z", "100")
    assert out.splitlines()[1] == "107 53 106 1"


def test_primes_density(capsys):
    rc, out, _ = run(capsys, "primes", "-g", "2", "--z", "1000", "--density")
    assert rc == 0
    assert out.startswith("primes 168 ")
    assert "dickman_reference 0.390084" in out


def test_bounds_table(capsys, tmp_path):
    rc, out, _ = run(capsys, "bounds", "--alpha", "0.677")
    assert rc == 0
    assert "beta 0.7385524372" in out
    assert "beta0 0.8944543828" in out
    assert "one_over_one_plus_alpha 0.5963029219" in out
    assert "grid True" in out
    rc, out, _ = run(capsys, "bounds", "--alpha", "0.75", "-N", "1e8", "-S", "10")
    assert "regime small_s" in out
    art = tmp_path / "curve.csv"
    rc, _, _ = run(capsys, "bounds", "--alpha", "0.75", "-N", "1e8",
                   "--curve", "-o", str(art))
    assert rc == 0
    assert art.read_text().startswith("N,S,bound,regime")
    rc, _, err = run(capsys, "bounds", "--alpha", "0.75", "--curve")
    assert rc == 3 and "--curve needs -N" in err


def test_verify_quick(capsys):
    rc, out, _ = run(capsys, "verify", "--quick")
    assert rc == 0
    for name in VERIFY_CHECKS:
        assert f"ok {name}" in out
    assert out.strip().endswith("verify: 8 checks passed")


@pytest.mark.parametrize("quick, calls", [(False, 10), (True, 6)], ids=["full", "quick"])
def test_verify_runs_every_product_formula_pair(quick, calls, monkeypatch):
    # each listed pair has coprime orders of 2, so none is skipped: a = 0 and one random a
    real, seen = charsums.product_formula_residual, []

    def counted(*args):
        seen.append(args[2:4])  # (ell, p)
        return real(*args)

    monkeypatch.setattr(charsums, "product_formula_residual", counted)
    cli._check_product_formula(random.Random(0), quick)
    assert len(seen) == calls and all(seen.count(pair) == 2 for pair in seen)


@pytest.mark.parametrize("window", [["-M", "-1", "-N", "10"], ["-N", "0"]], ids=["M", "N"])
def test_sieve_window_rejected_before_the_table(window, capsys):
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "sieve", "-f", "1,6,1", "-g", "2", *window, "--z", "100")
    assert time.perf_counter() - t0 < 1.0
    assert rc == 3 and out == "" and "sieve:" in err


def test_verify_seeded(capsys):
    assert run(capsys, "verify", "--quick", "--seed", "7")[0] == 0


def test_readme_cli_examples(capsys, tmp_path, monkeypatch):
    # every command in README's CLI block runs; lines right after a command,
    # up to a blank line, are its exact stdout
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().split("\n## CLI\n", 1)[1].split("```")[1].splitlines()
    monkeypatch.chdir(tmp_path)
    commands = checked = 0
    for i, line in enumerate(lines):
        if not line.startswith("quadfields "):
            continue
        rc, out, err = run(capsys, *shlex.split(line)[1:])
        assert rc == 0, (line, err)
        commands += 1
        shown = []
        for nxt in lines[i + 1:]:
            if not nxt or nxt.startswith(("#", "quadfields ")):
                break
            shown.append(nxt)
        if shown:
            assert out == "\n".join(shown) + "\n", line
            checked += 1
    assert commands >= 10 and checked >= 1
