"""Per-layer benchmarks of the harness: one system over the bundled suite,
and the hermetic `compare` and `ablate` commands end to end.

Not part of the default test run (pyproject's testpaths is `tests`). Run:

    PYTHONPATH=src python -m pytest benchmarks/test_harness.py \
        --benchmark-timer time.process_time --benchmark-json benchmarks/BENCH_harness.json

`test_run_benchmark` replays the bundled suite fixture over the bundled
12-scenario suite with the default 3 repeats. Each round gets a fresh
`HarnessConfig`, built outside the timed region, so every round classifies
the suite as the first system of a `compare` run does. Their state is
shared, so only the first round encodes it, as in a `compare` run after its
first system. The CLI cases load the state, prompts, suite and fixture from
disk each round, as a user run does (the lexicons and generic prompts are
read once per process), and write the report to `--out` in a temporary
directory.

`test_out_document_text` times the `--out` writer alone. For `compare` and
`ablate` that is `report_to_dict` and `json_text` over the reports of the
bundled suite, run once outside the timed region; the text must equal the
committed `perfbench/reference` document byte for byte. For the full
`oracle --out` ranking of an untargeted intent at 400 sectors x 12 UPF
nodes (11k rows) it is `json_text` over the document, built once outside
the timed region.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from sliceweaver import data as bundled
from sliceweaver.agents import load_prompts
from sliceweaver.cli import _ranking_doc, main
from sliceweaver.gateway import SuiteFixture
from sliceweaver.harness import (
    ABLATION_VARIANTS,
    COMPARE_SYSTEMS,
    HarnessConfig,
    load_scenarios,
    report_to_dict,
    run_benchmark,
)
from sliceweaver.intent import BandwidthCategory, IntentProfile, TrafficClass
from sliceweaver.model import json_text
from sliceweaver.oracle import solve


@pytest.fixture(scope="module")
def suite():
    """(scenarios, suite fixture, harness config) of the bundled suite."""
    state = bundled.default_state()
    config = HarnessConfig(state=state, prompts=load_prompts(bundled.default_prompts_dir()))
    scenarios = load_scenarios(bundled.default_scenarios_path(), state)
    return scenarios, SuiteFixture.from_file(bundled.default_suite_fixture_path()), config


@pytest.mark.parametrize("system", COMPARE_SYSTEMS)
def test_run_benchmark(benchmark, suite, system):
    scenarios, fixture, config = suite

    def fresh_config():
        # A config keeps the referee profiles it classifies; a copy has none.
        return (scenarios, system, fixture, dataclasses.replace(config)), {}

    report = benchmark.pedantic(run_benchmark, setup=fresh_config, rounds=100)
    assert len(report.records) == len(scenarios) * config.repeats


@pytest.mark.parametrize(
    "command, systems", [("compare", COMPARE_SYSTEMS), ("ablate", ABLATION_VARIANTS)]
)
def test_cli_suite_command(benchmark, tmp_path, command, systems):
    out = tmp_path / "report.json"
    code = benchmark(main, [command, "--out", str(out)])
    assert code == 0
    assert sorted(json.loads(out.read_text(encoding="utf-8"))) == sorted(systems)


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def suite_reports(name, suite):
    """The reports by system of `compare` or by variant of `ablate`."""
    scenarios, fixture, config = suite
    config = dataclasses.replace(config)
    names = COMPARE_SYSTEMS if name == "compare" else ABLATION_VARIANTS
    return {system: run_benchmark(scenarios, system, fixture, config) for system in names}


def write_reports(reports):
    """The `--out` text of `compare` or `ablate`, without its final newline."""
    return json_text({system: report_to_dict(report) for system, report in reports.items()})


@pytest.mark.parametrize("name", ["compare", "ablate", "ranking-400-12"])
def test_out_document_text(benchmark, suite, topology, name):
    if name == "ranking-400-12":
        untargeted = IntentProfile(
            raw_text="plain connectivity",
            traffic_class=TrafficClass.EMBB,
            bandwidth_category=BandwidthCategory.MEDIUM,
            tau_req_ms=50.0,
        )
        doc = _ranking_doc(solve(topology(400, 12), untargeted))
        text = benchmark(json_text, doc)
        assert text == json.dumps(doc, indent=2, sort_keys=True)
        return
    text = benchmark(write_reports, suite_reports(name, suite))
    assert text + "\n" == (REFERENCE / f"{name}.json").read_text(encoding="utf-8")
