"""The four benchmark workloads as fixed sequences of `quadfields` CLI commands.

A seed varies only the low coefficients of f (keeping the degree, the monic
leading coefficient and separability), the multiplier s and lam. It never
changes a size (degree, g, M, N, S, z, pmax), so every seed does the same
amount of work. Seed 0 gives the canonical inputs used in the README:
f = 1,6,1 and 2,0,0,1, s = 17, lam = 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("census", "fields", "sieve", "primescan")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Params:
    quad: tuple[int, int, int]  # coefficients of X^2 + b X + c, constant first
    cubic: tuple[int, int, int, int]  # X^3 + a X^2 + b X + c, constant first
    s: int
    lam: int


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    artifact: str | None  # the file named by -o, relative to the working directory


def _squarefree(n: int) -> bool:
    return all(n % (q * q) for q in range(2, int(n**0.5) + 1))


def _perfect_power(n: int) -> bool:
    return any(round(n ** (1 / k)) ** k == n for k in range(2, n.bit_length() + 1))


def _cubic_discriminant(c: int, b: int, a: int) -> int:
    return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c


def params(seed: int) -> Params:
    if seed == DEFAULT_SEED:
        return Params(quad=(1, 6, 1), cubic=(2, 0, 0, 1), s=17, lam=2)
    rng = random.Random(f"quadfields-bench:{seed}")
    while True:
        c, b = rng.randint(1, 12), rng.randint(1, 12)
        if b * b != 4 * c:  # separable
            break
    quad = (c, b, 1)
    while True:
        c, b, a = rng.randint(1, 12), rng.randint(0, 6), rng.randint(0, 3)
        if _cubic_discriminant(c, b, a):
            break
    cubic = (c, b, a, 1)
    s = rng.choice([n for n in range(2, 100) if _squarefree(n)])
    # Perfect powers are left out: lam = k^2 halves every orbit, which would
    # change the Weil scan's work by a factor instead of a few per cent.
    lam = rng.choice([n for n in range(2, 40) if not _perfect_power(n)])
    return Params(quad, cubic, s, lam)


def _poly(coeffs) -> str:
    return ",".join(map(str, coeffs))


def _cmd(*argv, out: str | None = None) -> Command:
    args = tuple(str(a) for a in argv)
    return Command(args + (("-o", out) if out else ()), out)


def commands(workload: str, seed: int) -> list[Command]:
    """The command sequence of one workload, in the order it runs."""
    p = params(seed)
    quad, cubic = _poly(p.quad), _poly(p.cubic)
    if workload == "census":
        return [
            _cmd("census", "-f", quad, "-g", 2, "-N", 40, "-S", 100000, out="census_quad.json"),
            _cmd("census", "-f", cubic, "-g", 2, "-M", 1000, "-N", 20, "-S", 100000,
                 out="census_cubic.json"),
        ]
    if workload == "fields":
        return [
            _cmd("census", "-f", quad, "-g", 2, "-N", 500, "--classes", out="classes_quad.json"),
            _cmd("census", "-f", cubic, "-g", 3, "-N", 500, "--classes", out="classes_cubic.json"),
            _cmd("census", "-f", quad, "-g", 2, "-s", p.s, "-N", 10000, out="count_s.json"),
        ]
    if workload == "sieve":
        return [
            _cmd("sieve", "-f", quad, "-g", 2, "-N", 1500, "-s", p.s, "--z", 2000, "--diag",
                 out="sieve_quad.json"),
            _cmd("sieve", "-f", cubic, "-g", 2, "-N", 1000, "-s", p.s, "--z", 1000, "--diag",
                 out="sieve_cubic.json"),
        ]
    if workload == "primescan":
        return [
            _cmd("primes", "-g", 2, "--z", 200000, out="primes.txt"),
            _cmd("primes", "-g", 2, "--z", 1000000, "--density"),
            _cmd("charsum", "-f", cubic, "--lam", p.lam, "--scan", "--pmax", 8000,
                 out="weil.csv"),
        ]
    raise ValueError(f"unknown workload {workload!r}")
