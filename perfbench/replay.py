"""Replay one workload in this process through quadfields.cli.main(argv).

    python3 perfbench/replay.py --workload census --seed 0 --traced 1

Run it from the directory that should receive the artifacts, with the
repository's src/ on PYTHONPATH. It prints one JSON line: the wall time of
the command sequence, each command's exit code and stdout and, when traced,
the per-layer metrics.

Tracing wraps each layer's public functions from outside the package: the
wrapper replaces the function in every quadfields module that binds it, so
`from .arith import jacobi` in sieve is counted as well as `arith.jacobi`.
Layer entry points record a span (name, parent, start, end); the hot leaf
functions only add to counters and summed time on the innermost open span,
since sieve alone makes millions of jacobi calls. Spans stay in memory and
are written to spans.json when the replay ends.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import sys
import time
from math import ceil, floor

import workloads

# Layer entry points: one span per call.
SPANNED = (
    "arith.primes_up_to", "arith.factorize", "arith.multiplicative_order",
    "census.count_Q_total", "census.squarefree_kernel", "census.distinct_fields",
    "census.count_Q", "census.s_matches",
    "harvest.build_prime_set", "harvest.density_report",
    "sieve.run_sieve", "sieve.partition", "sieve.certificate", "sieve.diagnostics",
    "charsums.weil_scan",
)
# Hot leaves: calls and summed time, charged to the innermost open span.
TIMED = ("arith.jacobi", "sequences.u_eval")
# Hot leaves whose time is not reported: calls only.
COUNTED = ("arith.is_prime", "arith.is_perfect_square", "sequences.u_eval_mod",
           "census.same_field")


class Tracer:
    def __init__(self):
        # span: [name, parent index, start, end, {leaf: [calls, seconds]}, info]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}

    def spanned(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, {}, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if observe is not None:
                rec[5] = observe(inspect.signature(fn).bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def timed(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                leaves = spans[stack[-1]][4]
                cell = leaves.get(name)
                if cell is None:
                    leaves[name] = [1, dt]
                else:
                    cell[0] += 1
                    cell[1] += dt

        return wrapper

    def counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper


_OBSERVE = {
    "census.squarefree_kernel": lambda a, r: {"complete": r.complete},
    "harvest.build_prime_set": lambda a, r: {
        "g": a["g"], "lo": ceil(a["z"]), "hi": floor(a.get("C", 2.0) * a["z"]),
        "members": len(r)},
    "sieve.run_sieve": lambda a, r: {"cells": a["N"] * len(a["prime_set"])},
    "charsums.weil_scan": lambda a, r: {"points": sum(row.period for row in r.rows)},
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever a quadfields module binds it."""
    import numpy

    import quadfields.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "quadfields"]
    for qual in SPANNED + TIMED + COUNTED:
        mod, attr = qual.split(".")
        orig = getattr(sys.modules[f"quadfields.{mod}"], attr)
        if qual in SPANNED:
            wrapped = tracer.spanned(qual, orig, _OBSERVE.get(qual))
        elif qual in TIMED:
            wrapped = tracer.timed(qual, orig)
        else:
            wrapped = tracer.counted(qual, orig)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
    numpy.fft.fft = tracer.timed("charsums.fft", numpy.fft.fft)


def _candidates(g: int, lo: int, hi: int) -> int:
    import sympy

    return sum(1 for p in sympy.primerange(lo, hi + 1) if g % p)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times from the spans; self time is a span's
    duration less its child spans and the leaf time charged to it."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0

    def ancestors(i):
        i = spans[i][1]
        while i >= 0:
            yield spans[i][0]
            i = spans[i][1]

    calls, incl, self_s, leaf = {}, {}, {}, {}
    sieve_jacobi = factorize_in_harvest = 0
    for i, (name, _, t0, t1, leaves, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if name not in ancestors(i):  # recursion would count time twice
            incl[name] = incl.get(name, 0.0) + t1 - t0
        self_s[name] = self_s.get(name, 0.0) + t1 - t0 - child[i] - sum(
            s for _, s in leaves.values())
        for lname, (c, s) in leaves.items():
            acc = leaf.setdefault(lname, [0, 0.0])
            acc[0] += c
            acc[1] += s
        if name.startswith("sieve."):
            sieve_jacobi += leaves.get("arith.jacobi", (0, 0))[0]
        if name == "arith.factorize" and "harvest.build_prime_set" in ancestors(i):
            factorize_in_harvest += 1
    for name, (c,) in tracer.counts.items():
        leaf[name] = [c, None]

    def infos(name):
        return [s[5] for s in spans if s[0] == name]

    kernels = infos("census.squarefree_kernel")
    harvests = infos("harvest.build_prime_set")
    candidates = sum(_candidates(h["g"], h["lo"], h["hi"]) for h in harvests)
    cells = sum(h["cells"] for h in infos("sieve.run_sieve"))
    out = {}
    for name in SPANNED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = incl.get(name, 0.0)
    for name in TIMED + COUNTED + ("charsums.fft",):
        c, s = leaf.get(name, (0, 0.0))
        out[f"{name}.calls"] = c
        if s is not None:
            out[f"{name}.s"] = s
    out.update({
        "census.kernel_complete_ratio":
            sum(k["complete"] for k in kernels) / len(kernels) if kernels else 0.0,
        "harvest.members": sum(h["members"] for h in harvests),
        "harvest.factorize_per_candidate":
            factorize_in_harvest / candidates if candidates else 0.0,
        "sieve.jacobi_per_cell": sieve_jacobi / cells if cells else 0.0,
        "charsums.weil_scan.self_s": self_s.get("charsums.weil_scan", 0.0),
        "charsums.weil_scan.points": sum(w["points"] for w in infos("charsums.weil_scan")),
    })
    return out


def replay(workload: str, seed: int, traced: bool) -> dict:
    tracer = Tracer()
    if traced:
        install(tracer)
    from quadfields import cli

    main = tracer.spanned("cli.main", cli.main) if traced else cli.main
    results = []
    t0 = time.perf_counter()
    for cmd in workloads.commands(workload, seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(list(cmd.argv))
        results.append({"rc": rc, "stdout": buf.getvalue()})
    wall = time.perf_counter() - t0
    doc = {"wall_s": wall, "commands": results}
    if traced:
        with open("spans.json", "w") as fh:
            json.dump({"spans": tracer.spans,
                       "counts": {k: v[0] for k, v in tracer.counts.items()}}, fh)
        doc["layers"] = layer_metrics(tracer)
    return doc


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    print(json.dumps(replay(args.workload, args.seed, bool(args.traced))))
