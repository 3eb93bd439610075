from __future__ import annotations

import copy
import dataclasses
import json
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceweaver import data as bundled
from sliceweaver import harness
from sliceweaver.agents import run_react
from sliceweaver.gateway import (
    ChatSession,
    CompletionResult,
    ScriptedBackend,
    ScriptedExchange,
    SuiteFixture,
)
from sliceweaver.harness import (
    ABLATION_VARIANTS,
    COMPARE_SYSTEMS,
    BenchmarkReport,
    EvaluationRecord,
    HarnessError,
    _summarise,
    ablation_table,
    compare_table,
    emit_report,
    load_scenarios,
    referee_profile,
    report_to_dict,
    run_ablation,
    run_benchmark,
    run_compare,
    run_scenario,
    semantic_accuracy,
)
from sliceweaver.intent import TrafficClass, classify_intent
from sliceweaver.model import Band, SliceConfiguration, config_to_dict, load_state
from sliceweaver.oracle import solve
from sliceweaver.scoring import compute_utility, round_half_up

GOLDEN_INDUSTRIAL = SliceConfiguration("industrial_park_a", Band.MID_BAND, "mec_industrial_1")


def by_id(scenarios, scenario_id):
    return next(s for s in scenarios if s.id == scenario_id)


# --- scenario suite ----------------------------------------------------------

def test_bundled_suite_shape(scenarios):
    assert len(scenarios) == 12
    assert len({s.id for s in scenarios}) == 12
    categories = [s.category for s in scenarios]
    for traffic_class in TrafficClass:
        assert categories.count(traffic_class) == 4
    assert by_id(scenarios, "industrial_automation").provenance == "paper"
    assert all(
        s.provenance == "authored" for s in scenarios if s.id != "industrial_automation"
    )


def test_scenario_declarations_match_referee(scenarios, state, lexicon, harness_config):
    for scenario in scenarios:
        profile = referee_profile(scenario, harness_config)
        assert profile.traffic_class is scenario.category, scenario.id
        assert profile.bandwidth_category.value == scenario.declared_beta, scenario.id


def test_goldens_are_oracle_heads(scenarios, state, lexicon):
    # Self-consistency of the golden-standard pipeline: the oracle scores
    # 1.0 semantic accuracy against every golden in the suite.
    for scenario in scenarios:
        profile = classify_intent(scenario.intent_text, state, lexicon)
        head = solve(state, profile)[0]
        assert semantic_accuracy(head.config, scenario.golden) == 1.0, scenario.id


# A 5000-digit integer, past Python's int/str digit limit: json.dumps cannot
# write it, so its digits are spliced into the text after encoding.
BIG_INT = "<5000-digit integer>"
SWAP_VALUES = [None, True, 1e400, "", "-", [], {}, BIG_INT]


def json_nodes(doc, path=()):
    """Every (path, node) of `doc`, the root first; a path is a tuple of keys
    and indices."""
    yield path, doc
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from json_nodes(value, path + (key,))


def edit_suite(doc, data):
    """`doc` after one random edit: an unknown key added to an object, or a
    node deleted or swapped for one of SWAP_VALUES."""
    kind = data.draw(st.sampled_from(["add", "delete", "swap"]))
    if kind == "add":
        objects = [node for _, node in json_nodes(doc) if isinstance(node, dict)]
        if objects:
            data.draw(st.sampled_from(objects))["unknown_key"] = 1
        return doc
    paths = [path for path, _ in json_nodes(doc) if path or kind == "swap"]
    if not paths:  # the whole document was swapped for a scalar
        return doc
    path = data.draw(st.sampled_from(paths))
    if not path:
        return copy.deepcopy(data.draw(st.sampled_from(SWAP_VALUES)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(SWAP_VALUES)))
    return doc


@pytest.fixture(scope="module")
def mutated_suite_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "suite.json"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_suite_raises_only_harness_error(state, mutated_suite_path, data):
    # One to three edits of the bundled suite, so that a bad field sits inside
    # an otherwise valid document; a suite that still loads is fine.
    doc = json.loads(bundled.default_scenarios_path().read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = edit_suite(doc, data)
    text = json.dumps(doc).replace(json.dumps(BIG_INT), "7" * 5000)
    mutated_suite_path.write_text(text, encoding="utf-8")
    try:
        load_scenarios(mutated_suite_path, state)
    except HarnessError:
        pass


# --- semantic accuracy -------------------------------------------------------

def test_semantic_accuracy_levels():
    golden = GOLDEN_INDUSTRIAL
    assert semantic_accuracy(golden, golden) == 1.0
    two_of_three = SliceConfiguration("industrial_park_a", Band.MMWAVE, "mec_industrial_1")
    assert semantic_accuracy(two_of_three, golden) == 0.5
    one_of_three = SliceConfiguration("industrial_park_a", Band.MMWAVE, "metro_agg_hub")
    assert semantic_accuracy(one_of_three, golden) == 0.0
    nothing_shared = SliceConfiguration("city_plaza", Band.MMWAVE, "metro_agg_hub")
    assert semantic_accuracy(nothing_shared, golden) == 0.0
    assert semantic_accuracy(None, golden) == 0.0


def test_semantic_accuracy_ignores_slice_id():
    labelled = SliceConfiguration(
        "industrial_park_a", Band.MID_BAND, "mec_industrial_1", slice_id="anything"
    )
    assert semantic_accuracy(labelled, GOLDEN_INDUSTRIAL) == 1.0


# --- run_scenario ------------------------------------------------------------

def test_run_scenario_industrial_trace_replay(scenarios, suite_fixture, harness_config):
    scenario = by_id(scenarios, "industrial_automation")
    records = run_scenario(scenario, "multi_agent", suite_fixture, harness_config)
    assert len(records) == 3  # replicated deterministic runs
    assert len({r.run_index for r in records}) == 3
    first = records[0]
    assert first.semantic_accuracy == 1.0
    assert round_half_up(first.utility, 2) == 0.94
    assert first.total_tokens == 13573
    assert first.iterations == 3
    assert first.hybrid_success is True
    assert all(r.produced == first.produced for r in records)
    assert all(r.utility == first.utility for r in records)


def test_run_scenario_oracle_matches_enumerated_maximum(scenarios, harness_config):
    for scenario in scenarios[:4]:
        [record, *_] = run_scenario(scenario, "oracle", None, harness_config)
        profile = referee_profile(scenario, harness_config)
        ranking = solve(harness_config.state, profile, harness_config.thresholds)
        assert record.utility == max(i.breakdown.utility for i in ranking)
        assert record.semantic_accuracy == 1.0


def test_run_scenario_esports_golden_utility(scenarios, harness_config):
    scenario = by_id(scenarios, "esports_stadium")
    profile = referee_profile(scenario, harness_config)
    utility = compute_utility(scenario.golden, profile, harness_config.state).utility
    assert utility == pytest.approx(0.912, abs=1e-9)
    assert round_half_up(utility, 2) == 0.91


def test_run_scenario_failure_becomes_zero_accuracy_row(scenarios, harness_config):
    scenario = by_id(scenarios, "esports_stadium")
    broken = SuiteFixture(
        {"esports_stadium": {"multi_agent": [ScriptedExchange(response="THOUGHT: hmm.")]}},
        name="broken",
    )
    records = run_scenario(scenario, "multi_agent", broken, harness_config)
    assert len(records) == 3
    assert all(r.semantic_accuracy == 0.0 for r in records)
    assert all(r.utility == 0.0 for r in records)
    assert all(r.produced is None for r in records)
    assert all(r.error for r in records)
    assert all(not r.hybrid_success for r in records)


def counting(monkeypatch, name):
    """Patch `harness.<name>` with a wrapper and return its list of calls."""
    calls = []
    original = getattr(harness, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, wrapper)
    return calls


@pytest.mark.parametrize("system", ["oracle", "multi_agent"])
def test_deterministic_run_is_scored_once_per_scenario(
    monkeypatch, scenarios, suite_fixture, harness_config, system
):
    calls = counting(monkeypatch, "compute_utility")
    report = run_benchmark(scenarios, system, suite_fixture, harness_config)
    assert harness_config.repeats == 3
    assert len(report.records) == 3 * len(scenarios)
    produced = {r.scenario_id for r in report.records if r.produced is not None}
    assert len(calls) == len(produced)


def test_oracle_row_classifies_once_per_scenario(monkeypatch, scenarios, harness_config):
    calls = counting(monkeypatch, "classify_intent")
    run_benchmark(scenarios, "oracle", None, harness_config)
    assert sorted(text for text, *_ in calls) == sorted(s.intent_text for s in scenarios)


def fresh_fixture():
    return SuiteFixture.from_file(bundled.default_suite_fixture_path())


def test_compare_and_ablate_classify_each_scenario_once_per_config(
    monkeypatch, scenarios, harness_config
):
    calls = counting(monkeypatch, "classify_intent")
    shared = run_compare(scenarios, fresh_fixture(), harness_config)
    shared.update(
        (variant, run_ablation(variant, scenarios, fresh_fixture(), harness_config))
        for variant in ABLATION_VARIANTS
    )
    # Eight rows over one config: the referee classifies each scenario once.
    assert sorted(text for text, *_ in calls) == sorted(s.intent_text for s in scenarios)
    # The shared profiles score exactly as a fresh config per row would.
    monkeypatch.undo()
    for name, report in shared.items():
        fresh = dataclasses.replace(harness_config)
        assert run_benchmark(scenarios, name, fresh_fixture(), fresh).records == report.records


def test_replaced_config_keeps_its_own_referee_profiles(
    monkeypatch, scenarios, lexicon, harness_config
):
    # The bundled state with industrial_park_a renamed: the intents that name
    # it no longer target a sector there.
    doc = json.loads(bundled.default_state_path().read_text(encoding="utf-8"))
    doc["sectors"]["factory_park_a"] = doc["sectors"].pop("industrial_park_a")
    for node in doc["nodes"].values():
        latencies = node["latency_to_ran_ms"]
        latencies["factory_park_a"] = latencies.pop("industrial_park_a")
    renamed = load_state(json.dumps(doc))
    expected = [classify_intent(s.intent_text, renamed, lexicon) for s in scenarios]
    calls = counting(monkeypatch, "classify_intent")
    default_profiles = [referee_profile(s, harness_config) for s in scenarios]
    replaced = dataclasses.replace(harness_config, state=renamed)
    replaced_profiles = [referee_profile(s, replaced) for s in scenarios]
    assert replaced_profiles == expected
    assert replaced_profiles != default_profiles
    # Each config classified each scenario once, against its own state, and
    # answers again from what it kept.
    assert [referee_profile(s, harness_config) for s in scenarios] == default_profiles
    assert [referee_profile(s, replaced) for s in scenarios] == replaced_profiles
    assert [classified for _, classified, _ in calls] == (
        [harness_config.state] * len(scenarios) + [renamed] * len(scenarios)
    )
    assert all(classified == lexicon for _, _, classified in calls)


# What each live session provisions, and the prompt tokens it reports.
LIVE_RUNS = [
    (SliceConfiguration("industrial_park_a", Band.MMWAVE, "mec_industrial_1"), 900),
    (GOLDEN_INDUSTRIAL, 950),
    (SliceConfiguration("city_plaza", Band.LOW_BAND, "metro_agg_hub"), 1000),
]


class LiveLikeProvider:
    """A non-deterministic provider: each session replays the next run."""

    deterministic = False

    def __init__(self):
        self.sessions = 0

    def backend_for(self, scenario_id, system):
        config, prompt_tokens = LIVE_RUNS[self.sessions]
        self.sessions += 1
        response = (
            f"ACTION: PROVISION_SLICE | slice_id=s{self.sessions} | "
            f"ran_config={config.band.value}@{config.sector_id} | core_config=UPF@{config.node_id}"
            "\nACTION: FINISH | summary=done"
        )
        exchange = ScriptedExchange(response, prompt_tokens=prompt_tokens, completion_tokens=40)
        return ScriptedBackend([exchange])


def test_live_repeats_run_and_score_each_session(scenarios, harness_config):
    scenario = by_id(scenarios, "industrial_automation")
    provider = LiveLikeProvider()
    records = run_scenario(scenario, "direct_llm", provider, harness_config)
    assert provider.sessions == 3
    profile = referee_profile(scenario, harness_config)
    for run_index, (record, (config, prompt_tokens)) in enumerate(zip(records, LIVE_RUNS), 1):
        assert record.run_index == run_index
        assert record.produced.dimensions() == config.dimensions()
        assert record.utility == compute_utility(config, profile, harness_config.state).utility
        assert record.prompt_tokens == prompt_tokens
        assert record.completion_tokens == 40
        assert record.error is None
    assert [r.semantic_accuracy for r in records] == [0.5, 1.0, 0.0]
    assert len({r.utility for r in records}) == 3


class TimedBackend:
    """Two orchestrator turns that report their own completion latency."""

    TURNS = [
        ("THOUGHT: weighing the options.", 0.25),
        ("ACTION: PROVISION_SLICE | slice_id=t1 | ran_config=mid-band@industrial_park_a"
         " | core_config=UPF@mec_industrial_1\nACTION: FINISH | summary=done", 0.5),
    ]

    def __init__(self):
        self._turns = iter(self.TURNS)

    def complete(self, messages):
        text, latency_s = next(self._turns)
        return CompletionResult(text, prompt_tokens=100, completion_tokens=10, latency_s=latency_s)


class TimedProvider:
    deterministic = False

    def backend_for(self, scenario_id, system):
        return TimedBackend()


def test_wall_seconds_is_the_runs_completion_latency(scenarios, harness_config, prompts):
    scenario = by_id(scenarios, "industrial_automation")
    provider = TimedProvider()
    session = ChatSession(provider.backend_for(scenario.id, "multi_agent"))
    transcript = run_react(scenario.intent_text, harness_config.state, session, prompts)
    assert transcript.wall_seconds == 0.75
    assert transcript.iterations == 2
    records = run_scenario(scenario, "multi_agent", provider, harness_config)
    assert len(records) == harness_config.repeats
    for record in records:
        assert record.wall_seconds == 0.75
        assert record.iterations == 2
        assert record.total_tokens == 220
        assert record.produced.dimensions() == GOLDEN_INDUSTRIAL.dimensions()


def test_hybrid_success_is_exactly_the_conjunction(scenarios, suite_fixture, harness_config):
    report = run_benchmark(scenarios, "multi_agent", suite_fixture, harness_config)
    seen_true = seen_false = False
    for record in report.records:
        expected = record.semantic_accuracy >= 0.5 and record.utility >= 0.7
        assert record.hybrid_success == expected
        seen_true |= expected
        seen_false |= not expected
    assert seen_true and seen_false  # both outcomes occur in the bundled suite


# --- run_benchmark -----------------------------------------------------------

def test_benchmark_reproduces_reported_means(scenarios, suite_fixture, harness_config):
    report = run_benchmark(scenarios, "multi_agent", suite_fixture, harness_config)
    summary = report.summary
    assert round_half_up(summary["semantic_accuracy"].mean, 3) == 0.667
    assert round_half_up(summary["utility"].mean, 3) == 0.747
    assert round_half_up(summary["tokens"].mean, 0) == 13281
    assert summary["iterations"].mean == 3.0
    assert summary["iterations"].std == 0.0


def test_benchmark_single_scenario_statistics(scenarios, suite_fixture, harness_config):
    scenario = by_id(scenarios, "industrial_automation")
    report = run_benchmark([scenario], "multi_agent", suite_fixture, harness_config)
    assert report.summary["semantic_accuracy"].mean == 1.0
    assert report.summary["semantic_accuracy"].std == 0.0
    assert report.summary["utility"].std == 0.0


def test_benchmark_all_perfect_suite(scenarios, harness_config):
    report = run_benchmark(scenarios, "oracle", None, harness_config)
    assert report.summary["semantic_accuracy"].mean == 1.0
    assert report.summary["semantic_accuracy"].std == 0.0


def test_benchmark_rejects_empty_suite(harness_config):
    with pytest.raises(HarnessError):
        run_benchmark([], "oracle", None, harness_config)


@pytest.mark.parametrize("repeats", [0, -1])
def test_config_rejects_repeats_below_one(harness_config, repeats):
    with pytest.raises(ValueError, match=f"repeats must be a positive integer, got {repeats}"):
        dataclasses.replace(harness_config, repeats=repeats)


@pytest.mark.parametrize("jobs", [0, -3])
def test_config_rejects_jobs_below_one(harness_config, jobs):
    with pytest.raises(ValueError, match=f"jobs must be a positive integer, got {jobs}"):
        dataclasses.replace(harness_config, jobs=jobs)


def test_benchmark_parallel_jobs_match_serial(scenarios, harness_config):
    serial = run_benchmark(scenarios, "oracle", None, harness_config)
    parallel_config = dataclasses.replace(harness_config, jobs=4)
    parallel = run_benchmark(scenarios, "oracle", None, parallel_config)
    assert serial.records == parallel.records


# --- reports -----------------------------------------------------------------

def test_machine_report_round_trips(scenarios, suite_fixture, harness_config):
    report = run_benchmark(scenarios, "multi_agent", suite_fixture, harness_config)
    doc = report_to_dict(report)
    assert doc["system"] == report.system
    assert len(doc["records"]) == len(report.records)
    fields = [field.name for field in dataclasses.fields(EvaluationRecord)]
    for entry, record in zip(doc["records"], report.records):
        assert sorted(entry) == sorted(fields)
        for name in fields:
            value = getattr(record, name)
            if name == "produced":
                value = None if value is None else config_to_dict(value)
            assert entry[name] == value, name


def test_machine_report_summary_matches_recomputation(scenarios, suite_fixture, harness_config):
    report = run_benchmark(scenarios, "multi_agent", suite_fixture, harness_config)
    doc = report_to_dict(report)
    accuracies = [entry["semantic_accuracy"] for entry in doc["records"]]
    recomputed = fsum(accuracies) / len(accuracies)
    assert recomputed == pytest.approx(doc["summary"]["semantic_accuracy"]["mean"], abs=1e-12)
    assert doc["summary"]["semantic_accuracy"]["std_kind"] == "population"


def test_table_report_shape(scenarios, suite_fixture, harness_config):
    report = run_benchmark(scenarios, "multi_agent", suite_fixture, harness_config)
    table = emit_report(report)
    lines = table.splitlines()
    assert any(
        line.startswith("industrial_automation") and "URLLC" in line and "1.0" in line and "0.94" in line
        for line in lines
    )
    assert "Mean ± Std" in table
    assert "population standard deviation" in table
    for column in ("Scenario", "Category", "Accuracy", "Utility", "Tokens", "Time(s)", "Iter"):
        assert column in lines[1]


def test_table_report_footer_rounds_half_up_like_its_rows():
    records = tuple(
        EvaluationRecord(
            scenario_id="tie_breaks", category="eMBB", system="multi_agent", run_index=i,
            produced=None, semantic_accuracy=0.0, utility=0.0, hybrid_success=False,
            prompt_tokens=tokens, completion_tokens=0, wall_seconds=0.25, iterations=iterations,
        )
        for i, (tokens, iterations) in enumerate([(2, 1), (3, 1), (2, 1), (3, 2)], 1)
    )
    report = BenchmarkReport(system="multi_agent", records=records, summary=_summarise(records))
    assert report.summary["tokens"].mean == 2.5
    assert report.summary["wall_seconds"].mean == 0.25
    assert report.summary["iterations"].mean == 1.25
    lines = emit_report(report).splitlines()
    row = next(line for line in lines if line.startswith("tie_breaks"))
    footer = next(line for line in lines if line.startswith("Mean ± Std"))
    assert row.split()[-3:] == ["3", "0.3", "1.3"]
    assert footer.split()[-3:] == row.split()[-3:]


def test_table_report_empty_records_is_header_only():
    empty = BenchmarkReport(system="oracle", records=(), summary=_summarise(()))
    table = emit_report(empty)
    lines = [line for line in table.splitlines() if line]
    assert any("Scenario" in line for line in lines)
    assert not any("URLLC" in line for line in lines)


# --- compare and ablation ----------------------------------------------------

def test_compare_runs_all_four_systems(scenarios, suite_fixture, harness_config):
    reports = run_compare(scenarios, suite_fixture, harness_config)
    assert tuple(reports) == COMPARE_SYSTEMS
    table = compare_table(reports)
    lines = table.splitlines()
    assert len([l for l in lines if l and not l.startswith(("System", "-"))]) == 4
    rule_based_line = next(l for l in lines if l.startswith("rule_based"))
    assert "N/A" in rule_based_line
    for column in ("System", "Accuracy", "Utility", "Tokens", "Time(s)"):
        assert column in lines[0]


def test_multi_agent_beats_single_turn_baselines_on_accuracy(scenarios, suite_fixture, harness_config):
    reports = run_compare(scenarios, suite_fixture, harness_config)
    multi = reports["multi_agent"].summary["semantic_accuracy"].mean
    assert multi > reports["monolithic"].summary["semantic_accuracy"].mean
    assert multi > reports["direct_llm"].summary["semantic_accuracy"].mean


def test_ablation_full_equals_plain_benchmark(scenarios, suite_fixture, harness_config):
    full = run_ablation("full", scenarios, suite_fixture, harness_config)
    fresh = SuiteFixture.from_file(bundled.default_suite_fixture_path())
    plain = run_benchmark(scenarios, "multi_agent", fresh, harness_config)
    assert full.records == plain.records
    assert full.system == "full"


def test_ablation_no_specialists_never_consults(scenarios, suite_fixture, harness_config):
    report = run_ablation("no_specialists", scenarios, suite_fixture, harness_config)
    # Single-exchange scripts: one orchestrator turn, zero CALL_AGENT calls.
    assert all(record.iterations == 1 for record in report.records)
    tokens = {r.scenario_id: r.total_tokens for r in report.records}
    assert fsum(tokens.values()) == 22728  # all budget spent on the orchestrator


def test_ablation_no_react_yields_zero_accuracy_for_undecided(scenarios, suite_fixture, harness_config):
    report = run_ablation("no_react", scenarios, suite_fixture, harness_config)
    by_scenario = {r.scenario_id: r for r in report.records if r.run_index == 1}
    assert by_scenario["connected_ambulance_rural"].semantic_accuracy == 0.0
    assert by_scenario["connected_ambulance_rural"].produced is None
    assert by_scenario["smart_meters_suburban"].semantic_accuracy == 0.0
    assert all(r.iterations <= 1 for r in report.records)
    full = run_ablation("full", scenarios, SuiteFixture.from_file(bundled.default_suite_fixture_path()), harness_config)
    assert (
        report.summary["semantic_accuracy"].mean
        < full.summary["semantic_accuracy"].mean
    )
    assert report.summary["utility"].mean < full.summary["utility"].mean


def test_ablation_no_prompts_uses_generic_prompts(scenarios, suite_fixture, harness_config):
    report = run_ablation("no_prompts", scenarios, suite_fixture, harness_config)
    assert report.system == "no_prompts"
    assert len(report.records) == 36


def test_ablation_table_lists_deltas(scenarios, suite_fixture, harness_config):
    reports = {}
    for variant in ABLATION_VARIANTS:
        fixture = SuiteFixture.from_file(bundled.default_suite_fixture_path())
        reports[variant] = run_ablation(variant, scenarios, fixture, harness_config)
    table = ablation_table(reports)
    assert "Remove ReAct" in table
    assert "Remove Specialists" in table
    assert "Remove Prompts" in table
    assert "Full System" in table
    for column in ("dSem", "dUtil"):
        assert column in table.splitlines()[0]
    full_line = next(l for l in table.splitlines() if l.startswith("Full System"))
    assert "+0.00" in full_line


def test_unknown_system_and_variant_rejected(scenarios, suite_fixture, harness_config):
    with pytest.raises(HarnessError):
        run_scenario(scenarios[0], "quantum", suite_fixture, harness_config)
    with pytest.raises(HarnessError):
        run_benchmark(scenarios, "quantum", suite_fixture, harness_config)
    with pytest.raises(HarnessError):
        run_ablation("no_everything", scenarios, suite_fixture, harness_config)
