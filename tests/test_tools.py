"""The fixture generator, the demos, the per-layer benchmarks and the span
tracer's names, run or loaded as their users run or load them."""

from __future__ import annotations

import importlib
import importlib.util
import json
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


def test_span_tracer_names_exist_where_it_wraps_them():
    # perfbench/spans.py wraps each name at the module or class attribute its
    # callers look up; a refactor that moves an import or a method must keep
    # every one of them, or the traced benchmark run fails.
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in spans.FUNCTIONS
        if attr not in importlib.import_module(f"sliceweaver.{module}").__dict__
    ]
    missing += [
        f"{module}.{cls}.{attr}"
        for module, cls, attr, *_ in spans.METHODS
        if attr not in getattr(importlib.import_module(f"sliceweaver.{module}"), cls).__dict__
    ]
    assert missing == []


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


def test_benchmark_records_hold_exactly_the_collected_cases():
    # A re-record that drops or renames a case, or a case added without a
    # record, shows up here.
    result = run_with_src("-m", "pytest", "benchmarks", "--collect-only", "-q")
    assert result.returncode == 0, result.stdout + result.stderr
    collected: dict[str, set[str]] = {}
    for line in result.stdout.splitlines():
        if "::" in line:
            collected.setdefault(line.split("::", 1)[0], set()).add(line)
    recorded = {}
    for record in sorted((ROOT / "benchmarks").glob("BENCH_*.json")):
        cases = json.loads(record.read_text(encoding="utf-8"))["benchmarks"]
        module = f"benchmarks/test_{record.stem.removeprefix('BENCH_')}.py"
        recorded[module] = {case["fullname"] for case in cases}
    assert recorded == collected
