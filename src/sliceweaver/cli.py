"""Command-line interface.

Subcommands: run-intent, benchmark, compare, ablate, oracle, validate-state,
validate-prompts. Each command takes only the flags it reads (`_COMMAND_FLAGS`),
refuses any other with its own usage line and exit 2, and loads only the
inputs it reads: only the suite commands build a `HarnessConfig`. The commands
that call an LLM take --backend scripted:<fixture>, so the whole surface is
testable without network access; live mode reads the IBN_LLM_* environment
variables.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import data as bundled
from .agents import Outcome, PromptError, load_prompts, render_trace, run_react
from .gateway import (
    ChatSession,
    GatewayError,
    LiveBackend,
    ScriptedBackend,
    ScriptError,
    SuiteFixture,
    script_from_doc,
)
from .harness import (
    ABLATION_VARIANTS,
    SYSTEMS,
    HarnessConfig,
    HarnessError,
    ablation_table,
    compare_table,
    emit_report,
    load_scenarios,
    report_to_dict,
    run_ablation,
    run_benchmark,
    run_compare,
)
from .intent import classify_intent
from .model import NetworkState, StateError, config_to_dict, json_text, load_state, read_json
from .oracle import OracleError, rule_based_provision, solve
from .scoring import ScoreBreakdown, Thresholds, check_constraints, compute_utility, round_half_up


class CliError(Exception):
    pass


# The flags the commands share, in help order: flag -> add_argument keywords.
# Each defaults to None, so a run-config value fills only what no flag set.
_COMMON_FLAGS: dict[str, dict] = {
    "--state": {"type": Path, "help": "state document (default: bundled topology)"},
    "--prompts": {"type": Path, "help": "prompt directory (default: bundled prompts)"},
    "--scenarios": {"type": Path, "help": "scenario suite (default: bundled benchmark12)"},
    "--backend": {"help": "'live' or 'scripted:<fixture path>'"},
    "--l-max": {"type": float, "help": "sector load threshold (default 100)"},
    "--kappa-max": {"type": float, "help": "node compute threshold (default 85)"},
    "--repeats": {"type": int, "help": "runs per scenario (default 3)"},
    "--jobs": {"type": int, "help": "parallel scenario workers (default 1)"},
    "--out": {"type": Path, "help": "write the machine-format report here"},
    "--config": {"type": Path, "help": "run-config file; flags win over it"},
}

# The common flags each command reads.
_COMMAND_FLAGS: dict[str, tuple[str, ...]] = {
    "run-intent": ("--state", "--prompts", "--backend", "--l-max", "--kappa-max", "--out",
                   "--config"),
    "benchmark": tuple(_COMMON_FLAGS),
    "compare": tuple(_COMMON_FLAGS),
    "ablate": tuple(_COMMON_FLAGS),
    "oracle": ("--state", "--l-max", "--kappa-max", "--out", "--config"),
    "validate-state": ("--state", "--config"),
    "validate-prompts": ("--prompts", "--config"),
}

_CONFIG_KEYS = {
    "state", "prompts", "scenarios", "backend", "l_max", "kappa_max",
    "repeats", "jobs", "out", "system", "top",
}


def _config_value(action: argparse.Action, key: str, value):
    """Convert and check one run-config value as its flag would be."""
    flag = action.option_strings[0]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise CliError(
            f"run-config {key!r} must be a string or a number for {flag}, got {value!r}"
        )
    try:
        converted = action.type(str(value)) if action.type else str(value)
    except ValueError:
        raise CliError(f"run-config {key!r} is not a valid {flag} value: {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise CliError(
            f"run-config {key!r} must be one of {', '.join(action.choices)} for {flag}, "
            f"got {value!r}"
        )
    return converted


def _merge_config_file(args: argparse.Namespace) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    doc = read_json(args.config, "run-config file", CliError)
    if not isinstance(doc, dict):
        raise CliError(f"run-config file {args.config} must hold a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise CliError(f"run-config file has unknown key(s): {sorted(unknown)}")
    flags = {action.dest: action for action in args.parser._actions}
    for key, value in doc.items():
        # A key whose flag this command does not have is ignored.
        action = flags.get(key)
        if action is not None:
            value = _config_value(action, key, value)
            if getattr(args, key) is None:
                setattr(args, key, value)
    return args


def _read_state(state_path: Path) -> NetworkState:
    """Load a state file; a file that cannot be read as UTF-8 text raises
    CliError, a bad document StateError."""
    try:
        text = state_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliError(f"state file not found: {state_path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read state file {state_path}: {exc}") from None
    return load_state(text)


def _given(args: argparse.Namespace, *keys: str) -> dict:
    """The values of `keys` that a flag or the run-config set, by key; a key
    whose flag the command lacks is never set."""
    return {key: value for key in keys if (value := getattr(args, key, None)) is not None}


def _check_settings(args: argparse.Namespace) -> Thresholds:
    """Check the run settings given and build the Thresholds; a limit not
    given keeps the default of `Thresholds`."""
    for key, value in _given(args, "repeats", "jobs", "top").items():
        if value < 1:
            raise CliError(f"--{key} must be a positive integer, got {value}")
    limits = _given(args, "l_max", "kappa_max")
    for key, value in limits.items():
        if not 0 <= value < math.inf:  # NaN fails every comparison
            raise CliError(
                f"--{key.replace('_', '-')} must be a finite number >= 0, got {value}"
            )
    return Thresholds(**limits)


def _state(args: argparse.Namespace) -> NetworkState:
    """The state that --state names, or the bundled topology; a bad file
    raises CliError."""
    state_path = args.state or bundled.default_state_path()
    try:
        return _read_state(state_path)
    except StateError as exc:
        raise CliError(f"invalid state file {state_path}: {exc}")


def _provider_for(backend_spec: str):
    """Build what a --backend spec names: a ScriptedBackend for a flat
    script, a SuiteFixture, or a LiveBackend."""
    if backend_spec == "live":
        return LiveBackend()
    if backend_spec.startswith("scripted:"):
        fixture_path = Path(backend_spec.split(":", 1)[1])
        doc = read_json(fixture_path, "fixture", CliError)
        try:
            if isinstance(doc, list):
                script = script_from_doc(doc, str(fixture_path))
                return ScriptedBackend(script, backend_id=f"scripted:{fixture_path}")
            return SuiteFixture.from_doc(doc, str(fixture_path))
        except ScriptError as exc:
            raise CliError(f"bad fixture: {exc}") from None
    raise CliError(f"--backend must be 'live' or 'scripted:<fixture>', got {backend_spec!r}")


def _write_out(args: argparse.Namespace, doc: dict | list) -> None:
    """Write the machine-format document of a command to --out, if given.

    Every command writes it before printing, so an --out that cannot be
    written fails the command with nothing on stdout.
    """
    if args.out:
        text = json_text(doc) + "\n"
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write --out {args.out}: {exc.strerror}") from None


def cmd_run_intent(args: argparse.Namespace) -> int:
    thresholds = _check_settings(args)
    state = _state(args)
    system = args.system or "multi_agent"
    intent_text = args.intent
    if intent_text is None or intent_text == "-":
        intent_text = sys.stdin.read().strip()
    if not intent_text.strip():
        raise CliError("no intent text given (argument or stdin)")
    profile = classify_intent(intent_text, state, bundled.default_lexicon())

    if system == "oracle":
        ranking = solve(state, profile, thresholds)
        head = ranking[0]
        _write_out(args, _ranking_doc(ranking))
        print(_ranking_table(ranking[: args.top or 5]))
        _print_decision(head.config, head.breakdown.utility, head.constraints.feasible)
        return 0
    if system == "rule_based":
        result = rule_based_provision(intent_text, state, thresholds)
        breakdown = compute_utility(result.config, profile, state)
        _write_out(args, _decision_doc(intent_text, result.config, breakdown, result.feasible))
        print("rationale: " + "; ".join(result.rationale))
        _print_decision(result.config, breakdown.utility, result.feasible)
        return 0

    # The prompts are read before the backend, so a bad --prompts exits 2
    # even when the backend is live.
    prompts = load_prompts(args.prompts or bundled.default_prompts_dir())
    backend = _provider_for("live" if args.backend is None else args.backend)
    if isinstance(backend, SuiteFixture):
        raise CliError("run-intent expects a flat script fixture, not a suite fixture")
    session = ChatSession(backend)
    transcript = run_react(intent_text, state, session, prompts)
    config_final = transcript.final_configuration  # None after a gateway error
    if config_final is not None:
        breakdown = compute_utility(config_final, profile, state)
        report = check_constraints(config_final, profile, state, thresholds)
        _write_out(args, _decision_doc(
            intent_text, config_final, breakdown, report.feasible,
            iterations=transcript.iterations, total_tokens=transcript.total_tokens,
        ))
    print(render_trace(transcript), end="")
    if transcript.outcome is Outcome.ERROR:  # run_react stops early only on a gateway error
        raise GatewayError(transcript.error)
    if config_final is None:
        print(f"no configuration provisioned (outcome: {transcript.outcome.value})")
        return 1
    _print_decision(config_final, breakdown.utility, report.feasible)
    return 0


def _decision_doc(intent_text: str, config, breakdown: ScoreBreakdown, feasible: bool,
                  iterations: int = 0, total_tokens: int = 0) -> dict:
    """The --out document of run-intent's decision; a referee system runs
    no agent iteration and spends no token."""
    return {
        "intent": intent_text,
        "configuration": config_to_dict(config),
        "utility": breakdown.utility,
        "sub_scores": {
            "latency": breakdown.s_latency,
            "resource": breakdown.s_resource,
            "congestion": breakdown.s_congestion,
        },
        "feasible": feasible,
        "iterations": iterations,
        "total_tokens": total_tokens,
    }


def _print_decision(config, utility: float, feasible: bool) -> None:
    flag = "" if feasible else "  [infeasible fallback]"
    print(
        f"decision: {config.band.value}@{config.sector_id}, UPF@{config.node_id}, "
        f"U={round_half_up(utility, 2):.2f}{flag}"
    )


def _ranking_table(ranking) -> str:
    lines = [f"{'#':>3s} {'sector':22s} {'band':9s} {'node':18s} {'U':>6s} feasible"]
    for item in ranking:
        lines.append(
            f"{item.rank:>3d} {item.config.sector_id:22s} {item.config.band.value:9s} "
            f"{item.config.node_id:18s} {round_half_up(item.breakdown.utility, 2):>6.2f} "
            f"{'yes' if item.feasible else 'no'}"
        )
    return "\n".join(lines)


def _ranking_doc(ranking) -> list[dict]:
    return [
        {
            "rank": item.rank,
            **config_to_dict(item.config),
            "utility": item.breakdown.utility,
            "feasible": item.feasible,
        }
        for item in ranking
    ]


def cmd_oracle(args: argparse.Namespace) -> int:
    thresholds = _check_settings(args)
    state = _state(args)
    if not args.intent.strip():
        raise CliError("no intent text given")
    profile = classify_intent(args.intent, state, bundled.default_lexicon())
    ranking = solve(state, profile, thresholds)
    _write_out(args, _ranking_doc(ranking))
    print(
        f"profile: class={profile.traffic_class.value} beta={profile.bandwidth_category.value} "
        f"tau_req={profile.tau_req_ms:g}ms target={profile.target_sector or '-'}"
    )
    print(_ranking_table(ranking[: args.top or 10]))
    if not ranking[0].feasible:
        print("note: no feasible candidate; ranking shows best infeasible fallbacks")
    return 0


def _suite_setup(args: argparse.Namespace):
    """Shared prologue of the suite commands: (config, scenarios, provider)."""
    thresholds = _check_settings(args)
    state = _state(args)
    config = HarnessConfig(
        state=state,
        prompts=load_prompts(args.prompts or bundled.default_prompts_dir()),
        thresholds=thresholds,
        **_given(args, "repeats", "jobs"),
    )
    scenarios = load_scenarios(args.scenarios or bundled.default_scenarios_path(), state)
    default_spec = f"scripted:{bundled.default_suite_fixture_path()}"
    provider = _provider_for(default_spec if args.backend is None else args.backend)
    if isinstance(provider, ScriptedBackend):
        raise CliError(f"{args.command} expects a suite fixture, not a flat script")
    return config, scenarios, provider


def cmd_benchmark(args: argparse.Namespace) -> int:
    config, scenarios, provider = _suite_setup(args)
    report = run_benchmark(scenarios, args.system or "multi_agent", provider, config)
    _write_out(args, report_to_dict(report))
    print(emit_report(report), end="")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config, scenarios, provider = _suite_setup(args)
    reports = run_compare(scenarios, provider, config)
    _write_out(args, {system: report_to_dict(r) for system, r in reports.items()})
    print(compare_table(reports), end="")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config, scenarios, provider = _suite_setup(args)
    reports = {
        variant: run_ablation(variant, scenarios, provider, config)
        for variant in ABLATION_VARIANTS
    }
    _write_out(args, {variant: report_to_dict(r) for variant, r in reports.items()})
    print(ablation_table(reports), end="")
    return 0


def cmd_validate_state(args: argparse.Namespace) -> int:
    try:
        state = _read_state(args.state or bundled.default_state_path())
    except StateError as exc:
        print(f"INVALID: {exc}")
        return 1
    print(
        f"OK: {len(state.sectors)} sectors, {len(state.nodes)} nodes, "
        f"{len(state.provisioned_slices)} provisioned slices"
    )
    return 0


def cmd_validate_prompts(args: argparse.Namespace) -> int:
    prompts_dir = args.prompts or bundled.default_prompts_dir()
    try:
        prompts = load_prompts(prompts_dir, require_markers=not args.allow_missing_markers)
    except PromptError as exc:
        print(f"INVALID: {exc}")
        return 1
    for role, text in prompts.items():
        print(f"OK: {role} ({len(text)} chars)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceweaver",
        description="Intent-based 6G slice orchestration and evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-intent", help="translate one intent into a provisioned slice")
    p.add_argument("intent", nargs="?", default=None, help="intent text ('-' or omitted: read stdin)")
    p.add_argument("--system", default=None, choices=("multi_agent", "oracle", "rule_based"))
    p.add_argument("--top", type=int, default=None, help="rows to print for --system oracle")
    p.set_defaults(func=cmd_run_intent)

    p = sub.add_parser("benchmark", help="run one system over the scenario suite")
    p.add_argument("--system", default=None, choices=SYSTEMS)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("compare", help="run the four baseline systems and summarise",
                       description="multi_agent, monolithic and direct_llm replay the scripted "
                       "fixture. rule_based classifies with the strict lexicon, then takes the "
                       "exact search's head: an upper bound on a rule-based system.")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ablate", help="run the four ablation variants and summarise")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("oracle", help="print the brute-force ranking for an intent")
    p.add_argument("--intent", required=True)
    p.add_argument("--top", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate-state", help="check a state document against the schema")
    p.set_defaults(func=cmd_validate_state)

    p = sub.add_parser("validate-prompts", help="check a prompt directory for required files/markers")
    p.add_argument("--allow-missing-markers", action="store_true")
    p.set_defaults(func=cmd_validate_prompts)

    # Each command takes the common flags it reads, after its own. Its parser
    # reports a flag it does not take, and checks its run-config values.
    for name, command in sub.choices.items():
        for flag in _COMMAND_FLAGS[name]:
            command.add_argument(flag, default=None, **_COMMON_FLAGS[flag])
        command.set_defaults(parser=command)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # argparse formats each flag as it is added, so `main` builds its parser
    # once per process; parsing leaves the parser unchanged.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args, unread = _parser().parse_known_args(argv)
    if unread:
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        args = _merge_config_file(args)
        return args.func(args)
    except (CliError, HarnessError, OracleError, PromptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
