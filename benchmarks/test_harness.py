"""Per-layer benchmarks of the harness: one system over the bundled suite,
and the hermetic `compare` and `ablate` commands end to end.

Not part of the default test run (pyproject's testpaths is `tests`). Run:

    PYTHONPATH=src python -m pytest benchmarks/test_harness.py \
        --benchmark-timer time.process_time --benchmark-json benchmarks/BENCH_harness.json

`test_run_benchmark` replays the bundled suite fixture over the bundled
12-scenario suite with the default 3 repeats. Its state is shared by every
round, so only the first round encodes it, as in a `compare` run after its
first system. The CLI cases load every input from disk each round, as a user
run does, and write the report to `--out` in a temporary directory.
"""

from __future__ import annotations

import json

import pytest

from sliceweaver import data as bundled
from sliceweaver.agents import load_prompts
from sliceweaver.cli import main
from sliceweaver.gateway import SuiteFixture
from sliceweaver.harness import (
    ABLATION_VARIANTS,
    COMPARE_SYSTEMS,
    HarnessConfig,
    load_scenarios,
    run_benchmark,
)


@pytest.fixture(scope="module")
def suite():
    """(scenarios, suite fixture, harness config) of the bundled suite."""
    state = bundled.default_state()
    config = HarnessConfig(
        state=state,
        prompts=load_prompts(bundled.default_prompts_dir()),
        lexicon=bundled.default_lexicon(),
        strict_lexicon=bundled.strict_lexicon(),
        generic_prompts=load_prompts(bundled.generic_prompts_dir(), require_markers=False),
    )
    scenarios = load_scenarios(bundled.default_scenarios_path(), state)
    return scenarios, SuiteFixture.from_file(bundled.default_suite_fixture_path()), config


@pytest.mark.parametrize("system", COMPARE_SYSTEMS)
def test_run_benchmark(benchmark, suite, system):
    scenarios, fixture, config = suite
    report = benchmark(run_benchmark, scenarios, system, fixture, config)
    assert len(report.records) == len(scenarios) * config.repeats


@pytest.mark.parametrize(
    "command, systems", [("compare", COMPARE_SYSTEMS), ("ablate", ABLATION_VARIANTS)]
)
def test_cli_suite_command(benchmark, tmp_path, command, systems):
    out = tmp_path / "report.json"
    code = benchmark(main, [command, "--out", str(out)])
    assert code == 0
    assert sorted(json.loads(out.read_text(encoding="utf-8"))) == sorted(systems)
