"""Benchmark evaluation harness.

Every system under evaluation is one row of `SYSTEM_TABLE`: the four
compared baselines, the oracle and the four ablation variants. A row names
the `system` its records carry, the suite-fixture script it replays (none for
the oracle and rule-based referee systems) and the function that runs one
scenario; everything that dispatches on a system name reads the row. The
`full` and `no_specialists` variants are the `multi_agent` and `monolithic`
rows under another name. A suite command is a list of row names: `compare`
runs `COMPARE_SYSTEMS` and `ablate` runs `ABLATION_VARIANTS`, each row by
`run_benchmark`.

`run_benchmark` runs a row against each scenario of a suite, scores the
produced configuration for semantic accuracy against the golden standard and
for engineering utility, and applies the hybrid success criterion (accuracy
>= 0.5 and utility >= 0.7). A report is written as a human-readable table
(`emit_report`) and as a machine-format document (`report_to_dict`). The
record of a run, `EvaluationRecord`, is declared in `model`, whose
`json_text` writes it.

Scoring always uses the deterministic referee profile derived from the
scenario's intent text with the bundled full lexicon, regardless of how the
system under test interpreted the intent; the oracle row solves that same
profile. The experiment's fixed inputs are package data, not run settings:
the rule-based row classifies with the bundled strict lexicon and the
`no_prompts` ablation runs on the bundled generic prompts, each read once per
process (`data`). Each scenario is classified once per `HarnessConfig`, on
first use, and every row run with that config is scored against the same
profile, so `compare` and `ablate` classify the suite once for all their
systems. Each run is scored once, into its `EvaluationRecord`, which is
built in one step (`model._built`): the record's constructor checks nothing.
A deterministic run (a referee system, or any scripted backend) runs once
per scenario: its scored record is run 1, and each later repeat is built
the same way from run 1's field objects with only `run_index` changed, so
`json_text` writes each repeat from run 1's text. A live LLM run is
repeated. Failures of a run are recorded as zero-accuracy rows rather than
aborting the harness.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from math import fsum, isqrt
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
    EvaluationRecord,
    NetworkState,
    SliceConfiguration,
    StateError,
    _built,
    _check_keys,
    config_from_dict,
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

    def __post_init__(self) -> None:
        if self.repeats < 1:  # run_scenario would return no record to report
            raise ValueError(f"repeats must be a positive integer, got {self.repeats}")
        if self.jobs < 1:  # run_benchmark would quietly run serially
            raise ValueError(f"jobs must be a positive integer, got {self.jobs}")

    @cached_property
    def _referee_profiles(self) -> dict[str, IntentProfile]:
        """Referee profiles by intent text, filled by `referee_profile`; exact,
        as `state` is immutable and the referee lexicon fixed. A copy starts empty."""
        return {}


# The required keys of a scenario suite entry, the fields of `Scenario`
# without a default, and every key it may hold, all its fields.
_SCENARIO_FIELDS = (
    frozenset(f.name for f in fields(Scenario) if f.default is MISSING),
    frozenset(f.name for f in fields(Scenario)),
)


def load_scenarios(path: str | Path, state: NetworkState) -> list[Scenario]:
    """Load a scenario suite and check it against `state`; every defect of
    the file raises HarnessError. An entry's keys are checked by
    `model._check_keys`, as a state document's are; a golden is read by
    `config_from_dict`, as a ledger entry is, and checked by
    `validate_config`."""
    doc = read_json(path, "scenario suite", HarnessError)
    if not isinstance(doc, list) or not doc:
        raise HarnessError(f"{path}: scenario suite must be a non-empty JSON list")
    scenarios: list[Scenario] = []
    seen: set[str] = set()
    for index, entry in enumerate(doc):
        try:
            if not isinstance(entry, dict):
                raise TypeError("entry must be an object")
            _check_keys(entry, _SCENARIO_FIELDS, "entry")
            if not isinstance(entry["id"], str) or not isinstance(entry["intent_text"], str):
                raise TypeError("'id' and 'intent_text' must be strings")
            if not entry["intent_text"].strip():
                raise ValueError("'intent_text' must not be blank")
            optional = {key: value for key, value in entry.items()
                        if key not in _SCENARIO_FIELDS[0]}
            for key, value in optional.items():
                if not isinstance(value, str):
                    raise TypeError(f"{key!r} must be a string")
            golden = config_from_dict(entry["golden"], "golden")
            validate_config(state, golden)
            scenario = Scenario(
                id=entry["id"],
                category=TrafficClass(entry["category"]),
                intent_text=entry["intent_text"],
                golden=golden,
                declared_beta=BandwidthCategory(entry["declared_beta"]).value,
                **optional,
            )
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


_MULTI_AGENT = System("multi_agent", "multi_agent", _run_multi_agent)
_MONOLITHIC = System("monolithic", "monolithic", _run_monolithic)

SYSTEM_TABLE = {
    "multi_agent": _MULTI_AGENT,
    "monolithic": _MONOLITHIC,
    "rule_based": System("rule_based", None, _run_rule_based),
    "direct_llm": System("direct_llm", "direct_llm", _run_direct_llm),
    "oracle": System("oracle", None, _run_oracle),
    # Ablation variants record as the system they modify.
    "full": _MULTI_AGENT,
    "no_prompts": System("multi_agent", "no_prompts", _run_generic_prompts),
    "no_specialists": _MONOLITHIC,
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
    return _built(
        EvaluationRecord,
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
    is scored once: its record is run 1, and each later run is built in one
    step (`model._built`) from run 1's field objects, the same objects, with
    only `run_index` changed. `json_text` takes a record that shares every
    field object but `run_index` with the record before it from that
    record's text. A live LLM system runs and is scored once per repeat,
    each in its own session.
    """
    row = SYSTEM_TABLE.get(system)
    if row is None:
        raise HarnessError(f"unknown system {system!r}")
    profile = referee_profile(scenario, config)
    if row.script is None or provider.deterministic:
        record = _run_once(scenario, row, provider, config, profile, run_index=1)
        scored = vars(record)
        return [record] + [
            _built(EvaluationRecord, **{**scored, "run_index": i})
            for i in range(2, config.repeats + 1)
        ]
    return [
        _run_once(scenario, row, provider, config, profile, i)
        for i in range(1, config.repeats + 1)
    ]


# Bits of the integer square root in `_pstdev`: 2 * 53 + 3 for a double, as
# in CPython's `statistics._float_sqrt_of_frac`.
_SQRT_BITS = 109


def _pstdev(values: list[float]) -> float:
    """Population standard deviation (divide by N) of a non-empty list,
    correctly rounded: the value `statistics.pstdev` returns on Python 3.11
    and later, on every Python (3.10 rounds the variance to a float before
    its square root, so its last digit can differ).

    Each float is p / 2**k, so over the largest such denominator d all
    values are integers, and the variance is exactly
    (n * sum(p*p) - sum(p)**2) / (n * d)**2. Its integer square root is
    taken to 2 bits more than a float holds and rounded to odd, so the one
    rounding to a float, by an exact integer division, is correct. The sums
    run over the distinct values, each weighted by its count: a report
    column repeats few values, and the integers are the same exact ones.
    """
    counts = [(value.as_integer_ratio(), count) for value, count in Counter(values).items()]
    d = max(q for (_, q), _ in counts)
    scaled = [(p * (d // q), count) for (p, q), count in counts]
    total = sum(p * count for p, count in scaled)
    n = len(values)
    num = n * sum(p * p * count for p, count in scaled) - total * total
    den = (n * d) ** 2
    shift = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = isqrt(num // den)
    root |= root * root * den != num  # round to odd: the last bit marks an inexact root
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def _summarise(records: tuple[EvaluationRecord, ...]) -> dict[str, ColumnStats]:
    def stats(values: list[float]) -> ColumnStats:
        if not values:
            return ColumnStats(mean=0.0, std=0.0)
        mean = fsum(values) / len(values)
        # Population standard deviation (divide by N); noted in report footers.
        return ColumnStats(mean=mean, std=_pstdev(values))

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


def report_to_dict(report: BenchmarkReport) -> dict:
    """The machine-format document of one report. It holds the records
    themselves, which `json_text` writes as objects of their fields, each
    `produced` configuration in its `config_to_dict` wire form."""
    return {
        "format": "sliceweaver.benchmark.v1",
        "system": report.system,
        "records": list(report.records),
        "summary": {
            name: {**vars(stats), "std_kind": "population"}
            for name, stats in report.summary.items()
        },
    }


def _fmt_mean_std(stats: ColumnStats) -> str:
    return f"{round_half_up(stats.mean, 3):.3f} ± {round_half_up(stats.std, 3):.3f}"


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
