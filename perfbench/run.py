"""quadfields benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload census --seed 0 --seconds 24 --trace 0

Run it from the root of a checkout; it puts src/ on the children's
PYTHONPATH, so nothing needs installing. The load is a closed loop with one
client: the workload's CLI commands run one after another as subprocesses,
each starting when the previous one has exited, and the whole sequence
repeats until --seconds are used up. Every output is checked (checks.py);
seed 0 is also compared with goldens.json, which --record-goldens rewrites.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: the end-to-end loop then runs for half the time, and fresh
processes replay the workload through quadfields.cli.main, untraced and
traced in turn (replay.py). Every metric measured is printed by name with
its unit, the full result and an environment record go to .perfbench_out/,
and the last line of stdout is the JSON result. The exit code is 1 when an
output is wrong, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDENS = HERE / "goldens.json"

LAUNCH = "import sys; from quadfields.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import quadfields.cli; "
                "print(time.perf_counter() - t)")
IMPORT_PROBES = 3
MIN_TRACED_REPLAYS = 2  # per-layer counts must repeat exactly between them
RUN_LIMIT_S = 165  # children still running after this are killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Child:
    rc: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float  # user + system seconds
    rss_mb: float


@dataclass
class Outcome:
    """The reference output of one command: its first, fully checked run."""

    ok: bool
    stdout: bytes
    artifact_sha: str | None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, errors: list[str], where: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.extend(f"{where}: {e}" for e in errors[:3])


class Runner:
    """Starts children with src/ importable and BLAS/OpenMP capped at nproc."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.env.update((var, self.threads) for var in THREAD_VARS)
        # Cache bytecode as an installed CLI would; the warm-up start writes it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, argv: list[str], cwd: Path) -> Child:
        """Run one child to completion; its resources come from os.wait4."""
        with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, out.read(), err.read(), wall,
                         ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024)

    def cli(self, argv) -> Child:
        return self.run([sys.executable, "-c", LAUNCH, *argv], self.work)

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _read_artifact(cwd: Path, cmd: workloads.Command) -> bytes | None:
    path = None if cmd.artifact is None else cwd / cmd.artifact
    return path.read_bytes() if path is not None and path.exists() else None


def first_checks(runner: Runner, children, goldens: dict | None) -> list[list[str]]:
    """Full checks of one run of the sequence: exit codes, goldens (seed 0)
    and the exact self-checks, which checks.py makes in a child process.

    The checks import sympy and quadfields; doing that here would raise this
    process's peak RSS, which every child inherits in its ru_maxrss.
    """
    errs: list[list[str]] = [[] for _ in children]
    job = []
    for i, (cmd, child) in enumerate(children):
        art = _read_artifact(runner.work, cmd)
        if child.rc != 0:
            errs[i].append(f"exit code {child.rc}: "
                           f"{child.stderr.decode(errors='replace')[-300:]}")
            continue
        if cmd.artifact is not None and art is None:
            errs[i].append("no artifact written")
            continue
        if goldens is not None:
            golden = goldens.get(" ".join(cmd.argv))
            if golden is None:
                errs[i].append("no golden recorded for this command")
            elif child.stdout.decode() != golden["stdout"]:
                errs[i].append("stdout differs from the golden")
            elif _sha(art) != golden["artifact_sha256"]:
                errs[i].append("artifact differs from the golden")
        job.append((i, {"argv": list(cmd.argv), "stdout": child.stdout.decode(),
                        "artifact": cmd.artifact}))
    if job:
        (runner.work / "check_job.json").write_text(json.dumps([j for _, j in job]))
        checker = runner.run([sys.executable, str(HERE / "checks.py"), "check_job.json"],
                             runner.work)
        try:
            results = json.loads(checker.stdout.decode().splitlines()[-1])
        except (ValueError, IndexError):
            results = [[f"checks.py failed: {checker.stderr.decode()[-300:]}"]] * len(job)
        for (i, _), found in zip(job, results):
            errs[i] += found
    return errs


def _repeat_check(ref: Outcome, rc: int, stdout: bytes, art: bytes | None) -> list[str]:
    if not ref.ok:
        return ["the first run of this command failed its check"]
    if rc != 0:
        return [f"exit code {rc}"]
    if stdout != ref.stdout or _sha(art) != ref.artifact_sha:
        return ["output differs from the first run"]
    return []


def load_goldens(workload: str, seed: int, goldens: dict | None) -> dict | None:
    """argv -> golden for seed 0, where every command must have one; else None."""
    if seed != workloads.DEFAULT_SEED:
        return None
    if goldens is None:
        goldens = json.loads(GOLDENS.read_text())
    return {" ".join(g["argv"]): g for g in goldens.get(workload, [])}


def end_to_end(runner: Runner, cmds, seconds: float, goldens: dict | None, tally: Tally):
    """Closed loop over the command sequence for about `seconds`.

    Returns the metrics, the raw samples, and each command's reference output.
    """
    runner.cli(["--help"])  # warm-up: bytecode and file cache, not timed
    refs: list[Outcome] = []
    setup, walls, cpus, rss = [], [], [], []
    art_bytes = 0
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start + setup[-1] + walls[-1] <= seconds
                        and not runner.expired()):
        # One timed start that computes nothing per sequence, so the setup_s
        # samples spread over the run like the wall_s samples do.
        setup.append(runner.cli(["--help"]).wall)
        children = [(cmd, runner.cli(cmd.argv)) for cmd in cmds]
        first = None if refs else first_checks(runner, children, goldens)
        for i, (cmd, child) in enumerate(children):
            art = _read_artifact(runner.work, cmd)
            if first is None:
                errs = _repeat_check(refs[i], child.rc, child.stdout, art)
            else:
                errs = first[i]
                refs.append(Outcome(not errs, child.stdout, _sha(art)))
                art_bytes += len(art or b"")
            tally.record(errs, " ".join(cmd.argv))
        walls.append(sum(c.wall for _, c in children))
        cpus.append(sum(c.cpu for _, c in children))
        rss.append(max(c.rss_mb for _, c in children))
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "cli.cpu_s": statistics.median(cpus),
        "cli.artifact_bytes": art_bytes,
    }
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss, "cli.cpu_s": cpus}
    return metrics, samples, refs


def traced(runner: Runner, workload: str, seed: int, cmds, refs, seconds: float,
           tally: Tally) -> dict:
    """Fresh-process replays, untraced and traced in turn, for about `seconds`.

    Counts come from the traced replays, which must agree exactly; times are
    medians over them. The tracing overhead is the traced replays' median
    wall time less the untraced replays' median.
    """
    import_s = [float(runner.run([sys.executable, "-c", IMPORT_PROBE], runner.work).stdout)
                for _ in range(IMPORT_PROBES)]
    replay_dir = runner.work / "replay"
    replay_dir.mkdir()
    plain, layered = [], []
    start = time.perf_counter()
    while not runner.expired() and (len(layered) < MIN_TRACED_REPLAYS or (
            time.perf_counter() - start) * (len(layered) + 1) / len(layered) <= seconds):
        for flag in (0, 1):
            child = runner.run([sys.executable, str(HERE / "replay.py"), "--workload",
                                workload, "--seed", str(seed), "--traced", str(flag)],
                               replay_dir)
            doc = json.loads(child.stdout.decode().splitlines()[-1]) if child.rc == 0 else None
            for i, cmd in enumerate(cmds):
                if doc is None:
                    errs = [f"replay exited {child.rc}: {child.stderr.decode()[-300:]}"]
                else:
                    res = doc["commands"][i]
                    errs = _repeat_check(refs[i], res["rc"], res["stdout"].encode(),
                                         _read_artifact(replay_dir, cmd))
                tally.record(errs, f"replay {' '.join(cmd.argv)}")
            if doc is None:
                return {}
            if flag:
                layered.append(doc)
            else:
                plain.append(doc["wall_s"])
    if not layered:
        return {}
    counts = [{k: v for k, v in d["layers"].items() if _unit(k) != "s"} for d in layered]
    if any(c != counts[0] for c in counts):
        tally.record(["per-layer counts differ between traced replays"], "trace")
    out = {k: statistics.median(d["layers"][k] for d in layered) for k in layered[0]["layers"]}
    out |= counts[0]
    traced_wall = statistics.median(d["wall_s"] for d in layered)
    out["cli.import_s"] = statistics.median(import_s)
    out["trace.replay_s"] = statistics.median(plain)
    out["trace.overhead_s"] = traced_wall - out["trace.replay_s"]
    out["trace.replays"] = len(layered)
    return out


def _unit(name: str, spec_units: dict | None = None) -> str:
    if spec_units and name in spec_units:
        return spec_units[name]
    return "s" if name.endswith((".s", "_s")) else "count"


def environment(threads: str) -> dict:
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        git = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "quadfields").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "child_threads": {var: threads for var in THREAD_VARS},
    }


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def record_goldens() -> int:
    """Rewrite goldens.json from seed 0 outputs, which must pass their checks."""
    doc = {}
    for workload in workloads.WORKLOADS:
        runner = Runner(_fresh_dir(OUT / "goldens" / workload), time.monotonic() + 600)
        children = [(cmd, runner.cli(cmd.argv))
                    for cmd in workloads.commands(workload, workloads.DEFAULT_SEED)]
        for (cmd, _), errs in zip(children, first_checks(runner, children, None)):
            if errs:
                print(f"{' '.join(cmd.argv)}: {errs}", file=sys.stderr)
                return 1
        doc[workload] = [{"argv": list(cmd.argv), "stdout": child.stdout.decode(),
                          "artifact_sha256": _sha(_read_artifact(runner.work, cmd))}
                         for cmd, child in children]
    GOLDENS.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None, goldens: dict | None = None) -> int:
    """Run the benchmark; `goldens` replaces goldens.json (for the self-test)."""
    ap = argparse.ArgumentParser(description="quadfields benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args(argv)
    loadavg = os.getloadavg()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "quadfields" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC / 'quadfields'} or {spec_path} is missing; run from the root "
              "of a quadfields checkout", file=sys.stderr)
        return 2
    if args.record_goldens:
        return record_goldens()
    if args.workload is None:
        ap.error("--workload is required")
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    work = _fresh_dir(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    env = environment(runner.threads) | {"loadavg_at_start": loadavg}
    cmds = workloads.commands(args.workload, args.seed)
    tally = Tally()
    phase = seconds / 2 if args.trace else seconds
    metrics, samples, refs = end_to_end(
        runner, cmds, phase, load_goldens(args.workload, args.seed, goldens), tally)
    if args.trace:
        metrics |= traced(runner, args.workload, args.seed, cmds, refs, phase, tally)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in wanted:
        if m["name"] not in metrics and m["name"] != "ok_ratio":
            tally.record([f"metric {m['name']} was not measured"], "benchmark")
    metrics["ok_ratio"] = 1 - tally.failed / tally.attempted
    metrics["fail_ratio"] = tally.failed / tally.attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_ratio"] = "ratio"
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(samples['wall_s'])} sequences of "
          f"{len(cmds)} commands; {tally.failed} of {tally.attempted} commands failed")
    for name in sorted(metrics, key=lambda n: (n not in units, n)):
        print(f"  {name} {metrics[name]:.6g} {_unit(name, units)}")
    for msg in tally.messages:
        print(f"FAIL {msg}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    (OUT / f"{work.name}.json").write_text(json.dumps(
        {"result": result, "env": env, "metrics": metrics, "samples": samples,
         "failures": tally.messages}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
