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


PLANTED_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failure(number):
    assert number < 5


def test_after_the_failure():
    pass
"""


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # Under the repo's `filterwarnings = ["error"]`, a warning raised while
    # Hypothesis reports a failure must not end the session before the
    # falsifying example is printed and the later tests run.
    (tmp_path / "test_planted.py").write_text(PLANTED_TESTS, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-v", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_planted_failure(" in output
    assert "    number=5,\n" in output
    assert "test_planted.py::test_after_the_failure PASSED" in output


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_summariser_reports_spread_wins_and_verdicts():
    ab = load_tool("ab")

    def run(ops, rss, returncode=0, correct=True):
        return {"returncode": returncode, "result": {"correct": correct, "metrics": {
            "setup_s": {"value": 0.5, "unit": "s"},
            "ops_per_ref_s": {"value": ops, "unit": "1/s"},
            "op_ref_ms.p50": {"value": 1000.0 / ops, "unit": "ms"},
            "op_ref_ms.tail": {"value": 1200.0 / ops, "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "tokens_per_op": {"value": 7.0, "unit": "tokens"},
        }}}

    # Ten pairs: the change reads 4 more ops/s in nine of them and ties in
    # one, and 10 % more memory in every one. Three more pairs have a failed
    # side, with figures that would turn both verdicts round.
    parent_ops = [40.0, 41.0, 39.0, 40.5, 39.5, 40.0, 41.5, 38.5, 40.0, 42.0]
    change_ops = [ops + 4.0 for ops in parent_ops[:9]] + [parent_ops[9]]
    pairs = [(run(p, 20.0), run(c, 22.0)) for p, c in zip(parent_ops, change_ops)]
    pairs += [
        (run(90.0, 20.0), run(1.0, 99.0, returncode=1)),
        (run(90.0, 20.0, correct=False), run(1.0, 99.0)),
        (run(90.0, 20.0), {"returncode": 0, "result": {}}),  # no `correct` key
    ]
    summary = ab.summarise(pairs)
    assert summary["pairs"] == 10 and summary["left_out"] == 3
    rows = {row["metric"]: row for row in summary["rows"]}
    assert set(rows) == {"setup_s", "ops_per_ref_s", "op_ref_ms.p50", "op_ref_ms.tail",
                         "peak_rss_mb"}  # the gated metrics only

    ops = rows["ops_per_ref_s"]
    assert ops["won"] == 9 and ops["parent"]["median"] == 40.0
    assert ops["change"]["median"] == 44.0
    assert ops["parent"]["spread"] == pytest.approx((41.125 - 39.375) / 40.0)
    assert ops["gain"] and not ops["worse"]
    rss = rows["peak_rss_mb"]
    assert rss["won"] == 0 and not rss["gain"] and rss["worse"]  # past the 5 % bound
    text = ab.format_summary(summary)
    assert text.startswith("10 pairs, 3 left out")
    assert "won 9/10  gain" in text and "won 0/10  worse" in text
    assert "parent 40.00 spread" in text and "change 44.00 spread" in text
    # Four significant digits at every scale, rounding included.
    assert [ab.significant(value) for value in (0.005684, 0.00568, 1205.6, 0.99996)] == [
        "0.005684", "0.005680", "1206", "1.000"]
    assert ab.summarise(pairs[:1] + pairs[10:]) == {"pairs": 1, "left_out": 3, "rows": []}

    # Three pairs that drift one way win 3/3 by far more than the spread,
    # but three pairs are too few to show a gain.
    drift = [(run(p, 20.0), run(p * 1.2, 20.0)) for p in (40.0, 41.0, 39.0)]
    summary = ab.summarise(drift)
    rows = {row["metric"]: row for row in summary["rows"]}
    assert rows["ops_per_ref_s"]["won"] == 3
    assert not any(row["gain"] for row in summary["rows"])
    assert "gain" not in ab.format_summary(summary)
