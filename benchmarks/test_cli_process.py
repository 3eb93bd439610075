"""Per-layer benchmark of one CLI command run as its own process, as a user
runs `sliceweaver compare`, against a bare interpreter as the floor.

Not part of the default test run (pyproject's testpaths is `tests`). Run:

    PYTHONPATH=src python -m pytest benchmarks/test_cli_process.py \
        --benchmark-json benchmarks/BENCH_cli_process.json

Each round runs one child and reads its CPU time (user + system) and peak
RSS (`ru_maxrss`) from `os.wait4`. A child that is spawned from this test
process inherits its peak RSS on Linux (about 30 MB, larger than the child
itself), so a small helper interpreter (`-I -S`, about 8 MB) spawns and
reaps the child and prints the two figures. The timer counts the children's
CPU time alone, whatever `--benchmark-timer` says; `extra_info` holds the
largest and the median peak RSS over the rounds. Bytecode is kept warm:
every child writes and reads it under one `-X pycache_prefix` directory,
with `PYTHONDONTWRITEBYTECODE` removed from its environment, and an untimed
first run fills it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ROUNDS = 15

# Spawns argv[1:] with stdout discarded, reaps it and prints its exit code,
# CPU seconds and peak RSS in kB.
HELPER = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
"""

# The benchmark marker names the timer at import time, so the running total
# it reads lives here; a round uses only the difference across it.
_children_cpu_s = 0.0


def children_cpu_time() -> float:
    """The CPU seconds of every child measured so far."""
    return _children_cpu_s


@pytest.fixture(scope="module")
def child_env():
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict[str, str]) -> int:
    """Run `argv` once; add its CPU time to the timer and return its peak
    RSS in kB."""
    global _children_cpu_s
    helper = subprocess.run(
        [sys.executable, "-I", "-S", "-c", HELPER, *argv],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    code, cpu_s, peak_kb = helper.stdout.split()
    assert code == "0", helper.stderr
    _children_cpu_s += float(cpu_s)
    return int(peak_kb)


@pytest.mark.benchmark(timer=children_cpu_time)
@pytest.mark.parametrize("command", ["compare", "floor"])
def test_process(benchmark, child_env, tmp_path, command):
    argv = [sys.executable, "-X", f"pycache_prefix={tmp_path / 'pycache'}"]
    if command == "compare":
        argv += ["-m", "sliceweaver.cli", "compare", "--out", str(tmp_path / "compare.json")]
    else:
        argv += ["-c", "pass"]
    run_child(argv, child_env)  # untimed: fills the bytecode cache
    peaks_kb: list[int] = []
    benchmark.pedantic(lambda: peaks_kb.append(run_child(argv, child_env)), rounds=ROUNDS)
    benchmark.extra_info["max_rss_mb"] = round(max(peaks_kb) / 1024, 2)
    benchmark.extra_info["median_rss_mb"] = round(statistics.median(peaks_kb) / 1024, 2)
