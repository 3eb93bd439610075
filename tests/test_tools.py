"""The fixture generator, the demos and the per-layer benchmarks, run as
their users run them."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sliceweaver import data as bundled

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_make_fixtures_rebuilds_the_committed_fixtures(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "tools" / "make_fixtures.py"
    )
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "OUT_DIR", tmp_path)
    make_fixtures.main()
    for committed in (
        bundled.industrial_trace_fixture_path(), bundled.default_suite_fixture_path()
    ):
        assert (tmp_path / committed.name).read_bytes() == committed.read_bytes(), committed.name


def run_with_src(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    result = run_with_src(str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stdout
    if demo.stem == "05_react_replay":
        assert "Gateway usage: 13573 tokens over 5 calls\n" in result.stdout


def test_benchmark_cases_run():
    # Each case once, untimed, so the per-layer benchmarks cannot rot.
    result = run_with_src("-m", "pytest", "benchmarks", "--benchmark-disable", "-q")
    assert result.returncode == 0, result.stdout + result.stderr
