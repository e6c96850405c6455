"""The fork helper behind the Weil scan and the density report.

Outputs must not depend on how many shards `harvest.fork_map` makes, and
every way a child can fail (an exception, a signal, silence) must come back
to the parent as an exception, with no child left behind.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadfields import harvest
from quadfields.arith import InvariantError
from quadfields.charsums import WEIL_PRIME_POINTS, weil_scan
from quadfields.harvest import density_report
from quadfields.sequences import Polynomial, gcd_degree

CUBIC = Polynomial.parse("2,0,0,1")


def pin_shards(mp, k):
    # k CPUs and no work floor: fork_map makes k shards for any work of k units or more
    mp.setattr(harvest, "_cpu_count", lambda: k)
    mp.setattr(harvest, "_SHARD_WORK", 1)


def k_for(work):
    # how many shards fork_map makes for this much work, each empty
    return len(harvest.fork_map(len, [], work))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def one_shard(build):
    with pytest.MonkeyPatch.context() as mp:
        pin_shards(mp, 1)
        return build()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("build", [
    lambda: weil_scan(CUBIC, 2, 5),  # two rows: the third shard is empty
    lambda: weil_scan(CUBIC, 3, 800),
    lambda: weil_scan(Polynomial.parse("-5,1"), 10, 300),  # 2 and 5 divide lam, 5 divides f(0)
    lambda: density_report(2, 10**3, 0.677),  # one segment: every shard after the first is empty
    lambda: density_report(6, 2 * 10**5, 0.677),  # four segments, dealt unevenly to 3 shards
    lambda: density_report(3, 2 * 10**5, 0.5),
], ids=["weil-pmax5", "weil-lam3", "weil-linear", "density-1e3", "density-2e5", "density-alpha"])
def test_outputs_do_not_depend_on_shards(build, k, monkeypatch):
    want = one_shard(build)
    pin_shards(monkeypatch, k)
    assert k_for(k) == k
    assert build() == want
    assert_no_child_left()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=3),
       st.integers(-30, 30).filter(bool), st.integers(3, 400), st.integers(2, 3))
def test_weil_scan_any_f_and_lam_matches_one_shard(low, lam, p_max, k):
    f = Polynomial((*low, 1))
    assume(gcd_degree(f, f.derivative()) == 0)
    want = one_shard(lambda: weil_scan(f, lam, p_max))
    with pytest.MonkeyPatch.context() as mp:
        pin_shards(mp, k)
        assert weil_scan(f, lam, p_max) == want


def test_fork_map_floor_and_cap(monkeypatch):
    monkeypatch.setattr(harvest, "_cpu_count", lambda: 64)
    assert k_for(0) == 1
    assert k_for(harvest._SHARD_WORK * 2 - 1) == 1
    assert k_for(harvest._SHARD_WORK * 3) == 3
    assert k_for(10**12) == harvest._SHARD_CAP
    monkeypatch.setattr(harvest, "_cpu_count", lambda: 2)
    assert k_for(10**12) == 2
    # the scans and reports that verify and the tests run stay in one process; a scan's
    # work is its price, the periods plus WEIL_PRIME_POINTS per prime
    assert k_for(sum(row.period + WEIL_PRIME_POINTS for row in weil_scan(CUBIC, 2, 2000).rows)) == 1
    assert k_for(2 * 10**5) == 1
    assert_no_child_left()


def test_fork_map_keeps_shard_order(monkeypatch):
    pin_shards(monkeypatch, 3)
    assert harvest.fork_map(lambda shard: [x * x for x in shard], [1, 2, 3, 4, 5], 3) == \
        [[1, 16], [4, 25], [9]]
    assert harvest.fork_map(list, [1], 3) == [[1], [], []]
    assert_no_child_left()


def _raise_in_child(exc):
    def fn(shard):
        if any(shard):
            raise exc
        return shard
    return fn


@pytest.mark.parametrize("exc", [ValueError("bad shard 1"), InvariantError("broken", 3),
                                 KeyError("k")], ids=["value", "invariant", "key"])
def test_child_exception_comes_back(exc, monkeypatch):
    pin_shards(monkeypatch, 3)
    with pytest.raises(type(exc)) as caught:
        harvest.fork_map(_raise_in_child(exc), [0, 1, 0], 3)
    assert caught.value.args == exc.args
    assert_no_child_left()


def _die(shard):
    (how,) = shard
    if how == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if how == "silent":
        os._exit(0)  # ends without writing its result
    return how


@pytest.mark.parametrize("how", ["kill", "silent"])
def test_child_that_dies_or_sends_nothing_raises(how, monkeypatch):
    pin_shards(monkeypatch, 3)
    with pytest.raises(InvariantError, match="fork_map: child"):
        harvest.fork_map(_die, ["parent", how, "fine"], 3)
    assert_no_child_left()


@pytest.mark.parametrize("items", [["fail", "sleep", "sleep"], ["ok", "fail", "sleep"]],
                         ids=["parent-fails", "first-child-fails"])
def test_failure_kills_and_reaps_the_running_children(items, monkeypatch):
    def fn(shard):
        if shard == ["fail"]:
            raise ValueError("failed shard")
        if shard == ["sleep"]:
            time.sleep(60)

    pin_shards(monkeypatch, 3)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="failed shard"):
        harvest.fork_map(fn, items, 3)
    assert time.perf_counter() - t0 < 30  # killed, not waited for
    assert_no_child_left()


def _python(script, optimize=(), cwd=None):
    # a fresh interpreter with this checkout's src/ first on its path and stdout block-buffered
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *optimize, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300, cwd=cwd)


# two shards, a patched function that raises only in the child, one CLI command;
# exit 99 if the command left a child unreaped
CHILD_RAISES = """
import os, sys
from quadfields import cli, engine, harvest
from quadfields.arith import InvariantError
harvest._cpu_count, harvest._SHARD_WORK = lambda: 2, 1
parent, real = os.getpid(), {target}
def patched(*a, **k):
    if os.getpid() != parent:
        raise {exc}("raised in the child")
    return real(*a, **k)
{target} = patched
rc = cli.main({argv!r})
try:
    os.waitpid(-1, os.WNOHANG)
    rc = 99
except ChildProcessError:
    pass
sys.exit(rc)
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("exc, code", [("InvariantError", 4), ("ValueError", 3)])
@pytest.mark.parametrize("target, argv", [
    ("engine.orbit_symbols", ["charsum", "-f", "2,0,0,1", "--lam", "2", "--scan", "--pmax",
                              "50", "-o", "weil.csv"]),
    # the order decision of each prime of the density report's four segments
    ("harvest._order_clears", ["primes", "-g", "2", "--z", "200000", "--density"]),
], ids=["scan", "density"])
def test_child_exception_sets_the_exit_code(target, argv, exc, code, optimize, tmp_path):
    proc = _python(CHILD_RAISES.format(target=target, exc=exc, argv=argv), optimize, tmp_path)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == "" and "raised in the child" in proc.stderr
    assert not list(tmp_path.iterdir())


# the same command run with one shard and with two, stdout a pipe (block-buffered): a
# child that flushed the parent's buffer at exit would print the first run twice
TWO_RUNS = """
import sys
from quadfields import cli, harvest
harvest._SHARD_WORK = 1
for k in (1, 2):
    harvest._cpu_count = lambda: k
    cli.main({argv!r})
"""


@pytest.mark.parametrize("argv", [
    ["charsum", "-f", "2,0,0,1", "--lam", "3", "--scan", "--pmax", "300"],
    ["primes", "-g", "2", "--z", "200000", "--density"],
], ids=["scan", "density"])
def test_cli_stdout_same_with_one_and_two_shards(argv):
    proc = _python(TWO_RUNS.format(argv=argv))
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0 and len(lines) % 2 == 0, proc.stderr
    half = len(lines) // 2
    assert lines[:half] == lines[half:] and half
