"""Self-test of the benchmark's failure paths.

    python3 perfbench/selftest.py

1. A deliberately wrong expected value: the seed-0 golden for the first
   census command claims one more match than the program prints. The
   benchmark must count that command as failed, print fail_ratio > 0 and
   exit non-zero.
2. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   must exit non-zero without printing a result.

Exits 0 when both hold. The file name keeps it out of pytest's collection.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run


def wrong_golden() -> list[str]:
    goldens = json.loads(run.GOLDENS.read_text())
    entry = goldens["census"][0]
    entry["stdout"] = f"{int(entry['stdout']) + 1}\n"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", "census", "--seed", "0", "--seconds", "1"], goldens=goldens)
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    fail_ratio = next(float(line.split()[1]) for line in lines
                      if line.split()[:1] == ["fail_ratio"])
    problems = []
    if rc == 0:
        problems.append("exit code 0 despite a wrong expected value")
    if result["correct"] or result["failed"] < 1 or fail_ratio <= 0:
        problems.append(f"failure not reported: {result} fail_ratio {fail_ratio}")
    return problems


def bare_directory() -> list[str]:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0 without the program's sources")
    if proc.stdout.strip():
        problems.append(f"printed a result without the program's sources: {proc.stdout!r}")
    return problems


if __name__ == "__main__":
    problems = wrong_golden() + bare_directory()
    for p in problems:
        print(f"selftest FAIL: {p}", file=sys.stderr)
    print("selftest ok" if not problems else "selftest failed")
    sys.exit(1 if problems else 0)
