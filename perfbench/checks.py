"""Output checks for every benchmark command.

    python3 perfbench/checks.py JOB.json

JOB.json lists {"argv", "stdout", "artifact"} items, with artifact paths
relative to the working directory; the last line printed is a JSON list
holding each item's failure messages.

Each check takes the command's argv, its stdout and its artifact bytes and
returns a list of failure messages; an empty list means the output is right.
The checks are exact and need no golden, so they hold for any seed. Where
they can, they recompute with independent code (math.isqrt, sympy) instead
of the quadfields function under test.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from math import isqrt
from pathlib import Path

import sympy

from quadfields import census
from quadfields.harvest import parse_records
from quadfields.sequences import Polynomial, validate

_EXTRA_MULTIPLIERS = 12  # squarefree s <= S outside per_s that must count 0


def _flags(argv) -> dict[str, str | bool]:
    out, i = {"command": argv[0]}, 1
    while i < len(argv):
        key = argv[i]
        if i + 1 < len(argv) and not argv[i + 1].startswith("-"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def _u(coeffs, g: int, n: int) -> int:
    x, acc = g**n, 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _is_square(k: int) -> bool:
    return k >= 0 and isqrt(k) ** 2 == k


def _window(fl) -> range:
    M, N = int(fl.get("-M", 0)), int(fl["-N"])
    return range(M + 1, M + N + 1)


def _coeffs(fl) -> tuple[int, ...]:
    return tuple(int(c) for c in fl["-f"].split(","))


def _check_census_total(fl, stdout: str, art: bytes) -> list[str]:
    doc = json.loads(art)
    coeffs, g, S = _coeffs(fl), int(fl["-g"]), int(fl["-S"])
    spec = validate(Polynomial(coeffs), g)
    M, N = _window(fl).start - 1, len(_window(fl))
    errs = []
    per_s = dict(doc["per_s"])
    if int(stdout.split()[0]) != sum(per_s.values()):
        errs.append("census: printed total differs from the sum of per_s")
    skipped = [n for n in _window(fl) if _u(coeffs, g, n) <= 0]
    if doc["skipped"] != skipped:
        errs.append("census: skipped list is wrong")
    extra = (s for s in range(1, S + 1)
             if s not in per_s and max(sympy.factorint(s).values(), default=1) == 1)
    for s in list(per_s) + list(itertools.islice(extra, _EXTRA_MULTIPLIERS)):
        want = census.count_Q(spec, M, N, s)
        if per_s.get(s, 0) != want:
            errs.append(f"census: per_s[{s}] = {per_s.get(s, 0)}, count_Q gives {want}")
    return errs


def _check_classes(fl, stdout: str, art: bytes) -> list[str]:
    coeffs, g = _coeffs(fl), int(fl["-g"])
    lines = stdout.splitlines()
    classes = []
    for line in lines[1:]:
        head, _, rest = line.strip().partition(":")
        classes.append((int(head.removeprefix("n=")), [int(t) for t in rest.split()]))
    errs = []
    doc = json.loads(art)
    if lines[0] != f"classes {len(classes)}" or doc["classes"] != [
        [rep, len(members)] for rep, members in classes
    ]:
        errs.append("classes: stdout and artifact disagree")
    u = {n: _u(coeffs, g, n) for n in _window(fl)}
    positive = sorted(n for n, v in u.items() if v > 0)
    if sorted(n for _, members in classes for n in members) != positive:
        errs.append("classes: members do not partition the window")
    for rep, members in classes:
        if members[0] != rep:
            errs.append(f"classes: representative {rep} is not the first member")
        for n in members[1:]:
            if not _is_square(u[rep] * u[n]):
                errs.append(f"classes: u({rep})*u({n}) is not a square")
    return errs


def _check_count_s(fl, stdout: str, art: bytes) -> list[str]:
    coeffs, g, s = _coeffs(fl), int(fl["-g"]), int(fl["-s"])
    want = 0
    for n in _window(fl):
        u = _u(coeffs, g, n)
        if u > 0 and _is_square(s * u):
            want += 1
    doc = json.loads(art)
    if int(stdout) != want or doc["count"] != want:
        return [f"census -s: reported {stdout.strip()}, isqrt scan gives {want}"]
    return []


def _stdout_fields(stdout: str) -> dict[str, str]:
    # "z 2000 primes 83" -> {"z": "2000", "primes": "83"}; a line with an odd
    # number of tokens starts with a label: "pairs U 1 V 2" -> {"pairs.U": "1", ...}
    out = {}
    for line in stdout.splitlines():
        toks = line.split()
        label = toks.pop(0) + "." if len(toks) % 2 else ""
        for key, val in zip(toks[::2], toks[1::2]):
            out[label + key] = val
    return out


def _check_sieve(fl, stdout: str, art: bytes) -> list[str]:
    coeffs, g, s = _coeffs(fl), int(fl["-g"]), int(fl["-s"])
    doc = json.loads(art)
    ells = [m[0] for m in doc["prime_set"]["members"]]
    L = len(ells)
    D, omega = dict(doc["detector"]), dict(doc["omega"])
    out = _stdout_fields(stdout)
    errs = []
    if int(out["primes"]) != L or not all(sympy.isprime(ell) for ell in ells):
        errs.append("sieve: prime set is wrong")
    if int(out["pairs.W"]) != int(out["pairs.U"]) + int(out["pairs.V"]):
        errs.append("sieve: W != U + V")
    if out["certificate.holds"] != "True" or out["gcd.holds"] != "True":
        errs.append("sieve: certificate or gcd cap does not hold")
    if sorted(D) != list(_window(fl)):
        errs.append("sieve: detector does not cover the window")
    for n in list(_window(fl))[:4]:  # spot-check D(n) with sympy's Jacobi symbol
        k = s * _u(coeffs, g, n)
        if D[n] != sum(sympy.jacobi_symbol(k % ell, ell) for ell in ells):
            errs.append(f"sieve: D({n}) disagrees with sympy")
    if any(abs(D[n]) > L - omega[n] for n in D):
        errs.append("sieve: |D(n)| exceeds |L| - omega")
    matches = [n for n in doc["partition"]["n_z"] if _is_square(s * _u(coeffs, g, n))]
    if doc["certificate"]["lhs"] != len(matches):
        errs.append("sieve: certificate lhs differs from the isqrt count")
    for n in matches:
        if D[n] != L - omega[n]:
            errs.append(f"sieve: D({n}) != |L| - omega on a match")
    return errs


def _check_records(fl, stdout: str, art: bytes) -> list[str]:
    g, z = int(fl["-g"]), float(fl["--z"])
    text = art.decode()
    pset = parse_records(text, z, 2.0, 0.677, g)
    ells = [sp.ell for sp in pset.members]
    errs = []
    if stdout != f"members {len(ells)}\n" or ells != sorted(ells):
        errs.append("primes: member count or order is wrong")
    for sp in pset.members:
        if not (z <= sp.ell <= 2 * z and sympy.isprime(sp.ell) and sympy.isprime(sp.p_plus)):
            errs.append(f"primes: bad record for ell={sp.ell}")
        elif sp.p_plus < z**0.677 or pow(g, sp.order_g, sp.ell) != 1:
            errs.append(f"primes: ell={sp.ell} fails the harvest condition")
    return errs


def _check_density(fl, stdout: str, art) -> list[str]:
    out = _stdout_fields(stdout)
    primes, smooth = int(out["primes"]), int(out["smooth_shift"])
    errs = []
    if primes != sympy.primepi(int(float(fl["--z"]))):
        errs.append("density: prime count differs from sympy.primepi")
    if out["ratio"] != f"{smooth / primes:.6g}":
        errs.append("density: ratio is not smooth_shift / primes")
    if out["dickman_reference"] != f"{math.log(1 / 0.677):.6g}":
        errs.append("density: wrong Dickman reference")
    return errs


def _check_weil(fl, stdout: str, art: bytes) -> list[str]:
    coeffs, lam, pmax = _coeffs(fl), int(fl["--lam"]), int(fl["--pmax"])
    out = _stdout_fields(stdout)
    rows = list(csv.DictReader(io.StringIO(art.decode())))
    errs = []
    if out["ok"] != "True":
        errs.append("weil: scan does not report ok")
    moduli = [int(r["modulus"]) for r in rows]
    if moduli != [p for p in sympy.primerange(3, pmax + 1) if lam % p]:
        errs.append("weil: scanned moduli are wrong")
    worst = 0.0
    for r in rows:
        p, ratio = int(r["modulus"]), float(r["ratio"])
        if int(r["period"]) != sympy.n_order(lam, p):
            errs.append(f"weil: period mod {p} is not the order of lam")
        if not math.isclose(abs(complex(float(r["re"]), float(r["im"]))) / math.sqrt(p), ratio,
                            rel_tol=1e-9, abs_tol=1e-9):
            errs.append(f"weil: ratio mod {p} is not |value|/sqrt(p)")
        if coeffs[0] % p:
            worst = max(worst, ratio)
    if worst > len(coeffs) or out["max_ratio"] != f"{worst:.12g}":
        errs.append(f"weil: max admissible ratio {worst} exceeds deg + 1 or was misreported")
    return errs


def check(argv, stdout: str, artifact: bytes | None) -> list[str]:
    """Exact self-checks of one command's output; [] when it is right."""
    fl = _flags(argv)
    if fl["command"] == "census":
        if "--classes" in fl:
            return _check_classes(fl, stdout, artifact)
        if "-S" in fl:
            return _check_census_total(fl, stdout, artifact)
        return _check_count_s(fl, stdout, artifact)
    if fl["command"] == "sieve":
        return _check_sieve(fl, stdout, artifact)
    if fl["command"] == "primes":
        if "--density" in fl:
            return _check_density(fl, stdout, artifact)
        return _check_records(fl, stdout, artifact)
    if fl["command"] == "charsum":
        return _check_weil(fl, stdout, artifact)
    return [f"no check for command {fl['command']!r}"]


def check_job(items: list[dict]) -> list[list[str]]:
    results = []
    for item in items:
        art = None if item["artifact"] is None else Path(item["artifact"]).read_bytes()
        try:
            results.append(check(item["argv"], item["stdout"], art))
        except (ValueError, KeyError, IndexError) as exc:  # output not in the expected shape
            results.append([f"cannot parse the output: {exc!r}"])
    return results


if __name__ == "__main__":
    print(json.dumps(check_job(json.loads(Path(sys.argv[1]).read_text()))))
