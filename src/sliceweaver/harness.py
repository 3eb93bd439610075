"""Benchmark evaluation harness.

Every system under evaluation is one row of `SYSTEM_TABLE`: the four
compared baselines, the oracle and the four ablation variants. A row names
the `system` its records carry, the suite-fixture script it replays (none for
the oracle and rule-based referee systems) and the function that runs one
scenario; everything that dispatches on a system name reads the row.

The harness runs a row against each scenario of a suite, scores the produced
configuration for semantic accuracy against the golden standard and for
engineering utility, applies the hybrid success criterion (accuracy >= 0.5
and utility >= 0.7), and emits reports: a human-readable table
(`emit_report`) and a machine-format document (`report_to_dict`).

Scoring always uses the deterministic referee profile derived from the
scenario's intent text with the bundled full lexicon, regardless of how the
system under test interpreted the intent; the oracle row solves that same
profile. The experiment's fixed inputs are package data, not run settings:
the rule-based row classifies with the bundled strict lexicon and the
`no_prompts` ablation runs on the bundled generic prompts, each read once per
process (`data`). Each scenario is classified once per `HarnessConfig`, on
first use, and every row run with that config is scored against the same
profile, so `compare` and `ablate` classify the suite once for all their
systems. Each run is scored once, into its `EvaluationRecord`. A
deterministic run (a referee system, or any scripted backend) runs once per
scenario and its record is copied for every repeat; a live LLM run is
repeated. Failures of a run are recorded as zero-accuracy rows rather than
aborting the harness.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field
from math import fsum
from pathlib import Path

from . import data as bundled
from .agents import (
    ORCHESTRATOR,
    Outcome,
    merge_prompts_monolithic,
    run_react,
    run_single_pass,
)
from .gateway import ChatSession
from .intent import BandwidthCategory, IntentProfile, TrafficClass, classify_intent
from .model import (
    NetworkState,
    SliceConfiguration,
    StateError,
    config_from_dict,
    config_to_dict,
    read_json,
    validate_config,
)
from .oracle import rule_based_provision, solve
from .scoring import DEFAULT_THRESHOLDS, Thresholds, compute_utility, round_half_up

COMPARE_SYSTEMS = ("multi_agent", "monolithic", "rule_based", "direct_llm")
SYSTEMS = COMPARE_SYSTEMS + ("oracle",)
ABLATION_VARIANTS = ("full", "no_prompts", "no_specialists", "no_react")

HYBRID_ACCURACY_MIN = 0.5
HYBRID_UTILITY_MIN = 0.7

DIRECT_LLM_PROMPT = """You are a 6G network slice configuration assistant.
The user message contains a slice intent followed by the current network
state as JSON. Choose the RAN sector, spectrum band and UPF node in this one
response; there are no follow-up turns and no other agents.

Respond with exactly two lines:

ACTION: PROVISION_SLICE | slice_id=<label> | ran_config=<band>@<sector> | core_config=UPF@<node>
ACTION: FINISH | summary=<one sentence>

Band names: mmWave, mid-band, low-band.
"""

SINGLE_PASS_SUFFIX = (
    "\n\nSingle-pass mode: there are no follow-up turns. Do not emit CALL_AGENT. "
    "Decide everything now and emit PROVISION_SLICE followed by FINISH in this "
    "one response.\n"
)


class HarnessError(Exception):
    pass


@dataclass(frozen=True)
class Scenario:
    id: str
    category: TrafficClass
    intent_text: str
    golden: SliceConfiguration
    declared_beta: str
    notes: str = ""
    provenance: str = "authored"


@dataclass(frozen=True)
class EvaluationRecord:
    scenario_id: str
    category: str
    system: str
    run_index: int
    produced: SliceConfiguration | None
    semantic_accuracy: float
    utility: float
    hybrid_success: bool
    prompt_tokens: int
    completion_tokens: int
    wall_seconds: float
    iterations: int
    error: str | None = None

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class ColumnStats:
    mean: float
    std: float


@dataclass(frozen=True)
class BenchmarkReport:
    system: str
    records: tuple[EvaluationRecord, ...]
    summary: dict[str, ColumnStats]


@dataclass(frozen=True)
class HarnessConfig:
    """Everything a run can set besides the scenarios and the backend; the
    lexicons and the generic prompts are fixed package data (`data`)."""

    state: NetworkState
    prompts: dict[str, str]
    thresholds: Thresholds = DEFAULT_THRESHOLDS
    repeats: int = 3
    jobs: int = 1
    # Referee profiles by intent text, filled by `referee_profile`. Exact
    # because `state` is immutable and the referee lexicon is fixed; a
    # `dataclasses.replace` copy starts empty.
    _referee_profiles: dict[str, IntentProfile] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.repeats < 1:  # run_scenario would return no record to report
            raise ValueError(f"repeats must be a positive integer, got {self.repeats}")
        if self.jobs < 1:  # run_benchmark would quietly run serially
            raise ValueError(f"jobs must be a positive integer, got {self.jobs}")


def load_scenarios(path: str | Path, state: NetworkState) -> list[Scenario]:
    """Load a scenario suite and check it against `state`; every defect of
    the file raises HarnessError. A golden is read by `config_from_dict`, as
    a ledger entry is, and checked by `validate_config`."""
    doc = read_json(path, "scenario suite", HarnessError)
    if not isinstance(doc, list) or not doc:
        raise HarnessError(f"{path}: scenario suite must be a non-empty JSON list")
    scenarios: list[Scenario] = []
    seen: set[str] = set()
    for index, entry in enumerate(doc):
        try:
            if not isinstance(entry["id"], str) or not isinstance(entry["intent_text"], str):
                raise TypeError("'id' and 'intent_text' must be strings")
            if not entry["intent_text"].strip():
                raise ValueError("'intent_text' must not be blank")
            for key in ("notes", "provenance"):
                if not isinstance(entry.get(key, ""), str):
                    raise TypeError(f"{key!r} must be a string")
            golden = config_from_dict(entry["golden"], "golden")
            validate_config(state, golden)
            scenario = Scenario(
                id=entry["id"],
                category=TrafficClass(entry["category"]),
                intent_text=entry["intent_text"],
                golden=golden,
                declared_beta=BandwidthCategory(entry["declared_beta"]).value,
                notes=entry.get("notes", ""),
                provenance=entry.get("provenance", "authored"),
            )
        except KeyError as exc:
            raise HarnessError(f"{path}: scenario entry {index} has no {exc} field") from None
        except (TypeError, ValueError, StateError) as exc:
            raise HarnessError(f"{path}: scenario entry {index}: {exc}") from None
        if scenario.id in seen:
            raise HarnessError(f"duplicate scenario id {scenario.id!r}")
        seen.add(scenario.id)
        scenarios.append(scenario)
    return scenarios


def semantic_accuracy(
    produced: SliceConfiguration | None, golden: SliceConfiguration
) -> float:
    """Three-level match score: 1.0 all of (sector, band, node), 0.5 exactly
    two, else 0.0. An absent configuration scores 0.0."""
    if produced is None:
        return 0.0
    matches = sum(
        1 for a, b in zip(produced.dimensions(), golden.dimensions()) if a == b
    )
    if matches == 3:
        return 1.0
    if matches == 2:
        return 0.5
    return 0.0


def referee_profile(scenario: Scenario, config: HarnessConfig) -> IntentProfile:
    """The scenario's referee profile, classified on the first call for
    `config` and kept on it."""
    profile = config._referee_profiles.get(scenario.intent_text)
    if profile is None:
        profile = classify_intent(scenario.intent_text, config.state, bundled.default_lexicon())
        config._referee_profiles[scenario.intent_text] = profile
    return profile


# The run functions of the rows call the agent runtime and the oracle through
# this module's globals, so a tracer that patches `harness.run_react` and the
# like sees every call.

def _run_oracle(
    scenario: Scenario, config: HarnessConfig, profile: IntentProfile, session: None
):
    return solve(config.state, profile, config.thresholds)[0].config


def _run_rule_based(
    scenario: Scenario, config: HarnessConfig, profile: IntentProfile, session: None
):
    return rule_based_provision(scenario.intent_text, config.state, config.thresholds).config


def _run_multi_agent(
    scenario: Scenario, config: HarnessConfig, profile: IntentProfile, session: ChatSession
):
    return run_react(scenario.intent_text, config.state, session, config.prompts)


def _run_generic_prompts(
    scenario: Scenario, config: HarnessConfig, profile: IntentProfile, session: ChatSession
):
    return run_react(scenario.intent_text, config.state, session, bundled.generic_prompts())


def _run_monolithic(
    scenario: Scenario, config: HarnessConfig, profile: IntentProfile, session: ChatSession
):
    return run_react(
        scenario.intent_text, config.state, session, config.prompts,
        system_prompt=merge_prompts_monolithic(config.prompts),
    )


def _run_direct_llm(
    scenario: Scenario, config: HarnessConfig, profile: IntentProfile, session: ChatSession
):
    return run_single_pass(scenario.intent_text, config.state, session, DIRECT_LLM_PROMPT)


def _run_single_pass(
    scenario: Scenario, config: HarnessConfig, profile: IntentProfile, session: ChatSession
):
    return run_single_pass(
        scenario.intent_text, config.state, session,
        config.prompts[ORCHESTRATOR] + SINGLE_PASS_SUFFIX,
    )


@dataclass(frozen=True)
class System:
    """One row of the system table.

    `records_as` is the `system` field of its records; `script` is the
    suite-fixture key it replays, None for the referee systems that use no
    LLM; `run(scenario, config, profile, session)`, given the scenario's
    referee profile, returns an agent transcript, or a configuration when
    `script` is None (the session is then None)."""

    records_as: str
    script: str | None
    run: Callable


SYSTEM_TABLE = {
    "multi_agent": System("multi_agent", "multi_agent", _run_multi_agent),
    "monolithic": System("monolithic", "monolithic", _run_monolithic),
    "rule_based": System("rule_based", None, _run_rule_based),
    "direct_llm": System("direct_llm", "direct_llm", _run_direct_llm),
    "oracle": System("oracle", None, _run_oracle),
    # Ablation variants record as the system they modify.
    "full": System("multi_agent", "multi_agent", _run_multi_agent),
    "no_prompts": System("multi_agent", "no_prompts", _run_generic_prompts),
    "no_specialists": System("monolithic", "monolithic", _run_monolithic),
    "no_react": System("multi_agent", "no_react", _run_single_pass),
}


def _run_once(
    scenario: Scenario, row: System, provider, config: HarnessConfig, profile: IntentProfile,
    run_index: int,
) -> EvaluationRecord:
    """Run one row once and score what it produced against the golden
    standard and the referee `profile`; a run that raises becomes a
    zero-accuracy record carrying the exception."""
    produced = transcript = error = None
    try:
        if row.script is None:
            produced = row.run(scenario, config, profile, None)
        else:
            backend = provider.backend_for(scenario.id, row.script)
            transcript = row.run(scenario, config, profile, ChatSession(backend))
    except Exception as exc:  # failures become zero-accuracy rows
        error = f"{type(exc).__name__}: {exc}"
    if transcript is not None:
        produced, error = transcript.final_configuration, transcript.error
        if transcript.outcome is Outcome.ITERATION_LIMIT:
            error = "iteration limit exceeded"
    accuracy = semantic_accuracy(produced, scenario.golden)
    utility = 0.0 if produced is None else compute_utility(produced, profile, config.state).utility
    return EvaluationRecord(
        scenario_id=scenario.id,
        category=scenario.category.value,
        system=row.records_as,
        run_index=run_index,
        produced=produced,
        semantic_accuracy=accuracy,
        utility=utility,
        hybrid_success=accuracy >= HYBRID_ACCURACY_MIN and utility >= HYBRID_UTILITY_MIN,
        prompt_tokens=transcript.prompt_tokens if transcript else 0,
        completion_tokens=transcript.completion_tokens if transcript else 0,
        wall_seconds=transcript.wall_seconds if transcript else 0.0,
        iterations=transcript.iterations if transcript else 0,
        error=error,
    )


def run_scenario(
    scenario: Scenario, system: str, provider, config: HarnessConfig
) -> list[EvaluationRecord]:
    """Evaluate one scenario `config.repeats` times.

    A deterministic run (a referee system, or any scripted backend) runs and
    is scored once, and its record is copied for each repeat; a live LLM
    system runs and is scored once per repeat, each in its own session.
    """
    row = SYSTEM_TABLE.get(system)
    if row is None:
        raise HarnessError(f"unknown system {system!r}")
    profile = referee_profile(scenario, config)
    indices = range(1, config.repeats + 1)
    if row.script is None or provider.deterministic:
        record = _run_once(scenario, row, provider, config, profile, run_index=1)
        return [dataclasses.replace(record, run_index=i) for i in indices]
    return [_run_once(scenario, row, provider, config, profile, i) for i in indices]


def _summarise(records: tuple[EvaluationRecord, ...]) -> dict[str, ColumnStats]:
    def stats(values: list[float]) -> ColumnStats:
        if not values:
            return ColumnStats(mean=0.0, std=0.0)
        mean = fsum(values) / len(values)
        # Population standard deviation (divide by N); noted in report footers.
        std = statistics.pstdev(values) if len(values) > 1 else 0.0
        return ColumnStats(mean=mean, std=std)

    return {
        "semantic_accuracy": stats([r.semantic_accuracy for r in records]),
        "utility": stats([r.utility for r in records]),
        "tokens": stats([float(r.total_tokens) for r in records]),
        "wall_seconds": stats([r.wall_seconds for r in records]),
        "iterations": stats([float(r.iterations) for r in records]),
        "hybrid_success": stats([1.0 if r.hybrid_success else 0.0 for r in records]),
    }


def run_benchmark(
    scenarios: list[Scenario], system: str, provider, config: HarnessConfig
) -> BenchmarkReport:
    """Run one row of the system table over a whole suite and aggregate."""
    if not scenarios:
        raise HarnessError("scenario suite is empty")

    def one(scenario: Scenario) -> list[EvaluationRecord]:
        return run_scenario(scenario, system, provider, config)

    if config.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a parallel run loads it

        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            per_scenario = list(pool.map(one, scenarios))
    else:
        per_scenario = [one(s) for s in scenarios]
    records = tuple(
        record
        for results in sorted(per_scenario, key=lambda rs: rs[0].scenario_id)
        for record in results
    )
    return BenchmarkReport(system=system, records=records, summary=_summarise(records))


def run_compare(
    scenarios: list[Scenario], provider, config: HarnessConfig
) -> dict[str, BenchmarkReport]:
    """The four-system baseline comparison."""
    return {
        system: run_benchmark(scenarios, system, provider, config)
        for system in COMPARE_SYSTEMS
    }


def run_ablation(
    variant: str,
    scenarios: list[Scenario],
    provider,
    config: HarnessConfig,
) -> BenchmarkReport:
    """Run one architectural ablation variant over the suite."""
    if variant not in ABLATION_VARIANTS:
        raise HarnessError(f"unknown ablation variant {variant!r}")
    return run_benchmark(scenarios, variant, provider, config)


def record_to_dict(record: EvaluationRecord) -> dict:
    return {
        "scenario_id": record.scenario_id,
        "category": record.category,
        "system": record.system,
        "run_index": record.run_index,
        "produced": None if record.produced is None else config_to_dict(record.produced),
        "semantic_accuracy": record.semantic_accuracy,
        "utility": record.utility,
        "hybrid_success": record.hybrid_success,
        "prompt_tokens": record.prompt_tokens,
        "completion_tokens": record.completion_tokens,
        "wall_seconds": record.wall_seconds,
        "iterations": record.iterations,
        "error": record.error,
    }


def report_to_dict(report: BenchmarkReport) -> dict:
    """The machine-format document of one report."""
    return {
        "format": "sliceweaver.benchmark.v1",
        "system": report.system,
        "records": [record_to_dict(r) for r in report.records],
        "summary": {
            name: {"mean": stats.mean, "std": stats.std, "std_kind": "population"}
            for name, stats in report.summary.items()
        },
    }


def _fmt_mean_std(stats: ColumnStats, places: int = 3) -> str:
    return (
        f"{round_half_up(stats.mean, places):.{places}f} "
        f"± {round_half_up(stats.std, places):.{places}f}"
    )


def emit_report(report: BenchmarkReport) -> str:
    """Human-readable per-scenario table with a mean +/- std footer.

    One row per scenario (means across repeats); accuracy at 1 decimal,
    utility at 2, time at 1, matching the reporting convention used in docs.
    """
    header = (
        f"{'Scenario':28s} {'Category':8s} {'Accuracy':>8s} {'Utility':>8s} "
        f"{'Tokens':>7s} {'Time(s)':>8s} {'Iter':>5s}"
    )
    lines = [f"System: {report.system}", header, "-" * len(header)]
    by_scenario: dict[str, list[EvaluationRecord]] = {}
    for record in report.records:
        by_scenario.setdefault(record.scenario_id, []).append(record)
    for scenario_id, records in by_scenario.items():
        n = len(records)
        accuracy = fsum(r.semantic_accuracy for r in records) / n
        utility = fsum(r.utility for r in records) / n
        tokens = fsum(r.total_tokens for r in records) / n
        wall = fsum(r.wall_seconds for r in records) / n
        iters = fsum(r.iterations for r in records) / n
        lines.append(
            f"{scenario_id:28s} {records[0].category:8s} "
            f"{round_half_up(accuracy, 1):>8.1f} {round_half_up(utility, 2):>8.2f} "
            f"{round_half_up(tokens, 0):>7.0f} {round_half_up(wall, 1):>8.1f} "
            f"{round_half_up(iters, 1):>5.1f}"
        )
    lines.append("-" * len(header))
    summary = report.summary
    lines.append(
        f"{'Mean ± Std':28s} {'':8s} "
        f"{_fmt_mean_std(summary['semantic_accuracy']):>14s} "
        f"{_fmt_mean_std(summary['utility']):>14s} "
        f"{round_half_up(summary['tokens'].mean, 0):>9.0f} "
        f"{round_half_up(summary['wall_seconds'].mean, 1):>8.1f} "
        f"{round_half_up(summary['iterations'].mean, 1):>5.1f}"
    )
    lines.append("Std is the population standard deviation (divide by N).")
    return "\n".join(lines) + "\n"


def compare_table(reports: dict[str, BenchmarkReport]) -> str:
    """Four-row summary: System, Accuracy, Utility, Tokens, Time."""
    header = f"{'System':16s} {'Accuracy':>8s} {'Utility':>8s} {'Tokens':>8s} {'Time(s)':>8s}"
    lines = [header, "-" * len(header)]
    for system, report in reports.items():
        summary = report.summary
        tokens = (
            f"{round_half_up(summary['tokens'].mean, 0):>8.0f}"
            if SYSTEM_TABLE[system].script is not None
            else f"{'N/A':>8s}"
        )
        lines.append(
            f"{system:16s} {round_half_up(summary['semantic_accuracy'].mean, 2):>8.2f} "
            f"{round_half_up(summary['utility'].mean, 2):>8.2f} {tokens} "
            f"{round_half_up(summary['wall_seconds'].mean, 1):>8.1f}"
        )
    return "\n".join(lines) + "\n"


def ablation_table(reports: dict[str, BenchmarkReport]) -> str:
    """Per-variant summary with deltas against the full system."""
    if "full" not in reports:
        raise HarnessError("ablation table needs the 'full' variant as baseline")
    full = reports["full"].summary
    header = (
        f"{'Configuration':18s} {'Accuracy':>8s} {'Utility':>8s} "
        f"{'dSem':>7s} {'dUtil':>7s}"
    )
    labels = {
        "full": "Full System",
        "no_prompts": "Remove Prompts",
        "no_specialists": "Remove Specialists",
        "no_react": "Remove ReAct",
    }
    lines = [header, "-" * len(header)]
    for variant, report in reports.items():
        summary = report.summary
        d_sem = summary["semantic_accuracy"].mean - full["semantic_accuracy"].mean
        d_util = summary["utility"].mean - full["utility"].mean
        lines.append(
            f"{labels.get(variant, variant):18s} "
            f"{round_half_up(summary['semantic_accuracy'].mean, 2):>8.2f} "
            f"{round_half_up(summary['utility'].mean, 2):>8.2f} "
            f"{round_half_up(d_sem, 2):>+7.2f} {round_half_up(d_util, 2):>+7.2f}"
        )
    return "\n".join(lines) + "\n"
