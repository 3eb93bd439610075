"""Command-line interface.

Subcommands: run-intent, benchmark, compare, ablate, oracle, validate-state,
validate-prompts. Every command accepts --backend scripted:<fixture> so the
whole surface is testable without network access; live mode reads the
IBN_LLM_* environment variables.
"""

from __future__ import annotations

import argparse
import json
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
from .model import NetworkState, StateError, config_to_dict, load_state
from .oracle import rule_based_provision, solve
from .scoring import Thresholds, check_constraints, compute_utility, round_half_up


class CliError(Exception):
    pass


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state", type=Path, default=None, help="state document (default: bundled topology)")
    parser.add_argument("--prompts", type=Path, default=None, help="prompt directory (default: bundled prompts)")
    parser.add_argument("--scenarios", type=Path, default=None, help="scenario suite (default: bundled benchmark12)")
    parser.add_argument("--backend", default=None, help="'live' or 'scripted:<fixture path>'")
    parser.add_argument("--l-max", type=float, default=None, help="sector load threshold (default 100)")
    parser.add_argument("--kappa-max", type=float, default=None, help="node compute threshold (default 85)")
    parser.add_argument("--repeats", type=int, default=None, help="runs per scenario (default 3)")
    parser.add_argument("--jobs", type=int, default=None, help="parallel scenario workers (default 1)")
    parser.add_argument("--out", type=Path, default=None, help="write the machine-format report here")
    parser.add_argument("--config", type=Path, default=None, help="run-config file; flags win over it")


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
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read run-config file {args.config}: {exc.strerror}")
    except (ValueError, RecursionError) as exc:  # malformed, nested too deep, or not text
        raise CliError(f"run-config file {args.config} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise CliError(f"run-config file {args.config} must hold a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise CliError(f"run-config file has unknown key(s): {sorted(unknown)}")
    for key, value in doc.items():
        # A key whose flag this command does not have is ignored.
        action = args.flags.get(key)
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


def _resolve(args: argparse.Namespace) -> HarnessConfig:
    for key in ("repeats", "jobs", "top"):
        value = getattr(args, key, None)
        if value is not None and value < 1:
            raise CliError(f"--{key} must be a positive integer, got {value}")
    state_path = args.state or bundled.default_state_path()
    try:
        state = _read_state(state_path)
    except StateError as exc:
        raise CliError(f"invalid state file {state_path}: {exc}")
    return HarnessConfig(
        state=state,
        prompts=load_prompts(args.prompts or bundled.default_prompts_dir()),
        lexicon=bundled.default_lexicon(),
        strict_lexicon=bundled.strict_lexicon(),
        generic_prompts=load_prompts(bundled.generic_prompts_dir(), require_markers=False),
        thresholds=Thresholds(
            l_max=args.l_max if args.l_max is not None else 100.0,
            kappa_max=args.kappa_max if args.kappa_max is not None else 85.0,
        ),
        repeats=args.repeats if args.repeats is not None else 3,
        jobs=args.jobs if args.jobs is not None else 1,
    )


def _provider_for(backend_spec: str | None, default_scripted: bool):
    """Build what a --backend spec names: a ScriptedBackend for a flat
    script, a SuiteFixture, or a LiveBackend."""
    if backend_spec is None:
        backend_spec = (
            f"scripted:{bundled.default_suite_fixture_path()}" if default_scripted else "live"
        )
    if backend_spec == "live":
        return LiveBackend()
    if backend_spec.startswith("scripted:"):
        fixture_path = Path(backend_spec.split(":", 1)[1])
        if not fixture_path.is_file():
            raise CliError(f"fixture not found: {fixture_path}")
        try:
            doc = json.loads(fixture_path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # malformed, nested too deep, or not text
            raise CliError(f"fixture {fixture_path} is not valid JSON: {exc}") from None
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

    The suite and oracle commands write it before printing their tables, so
    an --out that cannot be written fails them with nothing on stdout.
    """
    if args.out:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write --out {args.out}: {exc}") from None


def cmd_run_intent(args: argparse.Namespace) -> int:
    config = _resolve(args)
    state, thresholds = config.state, config.thresholds
    system = args.system or "multi_agent"
    intent_text = args.intent
    if intent_text is None or intent_text == "-":
        intent_text = sys.stdin.read().strip()
    if not intent_text.strip():
        raise CliError("no intent text given (argument or stdin)")
    profile = classify_intent(intent_text, state, config.lexicon)

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
        print("rationale: " + "; ".join(result.rationale))
        _print_decision(result.config, breakdown.utility, result.feasible)
        return 0

    backend = _provider_for(args.backend, default_scripted=False)
    if isinstance(backend, SuiteFixture):
        raise CliError("run-intent expects a flat script fixture, not a suite fixture")
    session = ChatSession(backend)
    transcript = run_react(intent_text, state, session, config.prompts)
    print(render_trace(transcript), end="")
    if transcript.outcome is Outcome.ERROR:  # run_react stops early only on a gateway error
        raise GatewayError(transcript.error)
    if transcript.final_configuration is None:
        print(f"no configuration provisioned (outcome: {transcript.outcome.value})")
        return 1
    config_final = transcript.final_configuration
    breakdown = compute_utility(config_final, profile, state)
    report = check_constraints(config_final, profile, state, thresholds)
    _print_decision(config_final, breakdown.utility, report.feasible)
    _write_out(args, {
        "intent": intent_text,
        "configuration": config_to_dict(config_final),
        "utility": breakdown.utility,
        "sub_scores": {
            "latency": breakdown.s_latency,
            "resource": breakdown.s_resource,
            "congestion": breakdown.s_congestion,
        },
        "feasible": report.feasible,
        "iterations": transcript.iterations,
        "total_tokens": transcript.total_tokens,
    })
    return 0


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
    config = _resolve(args)
    if not args.intent.strip():
        raise CliError("no intent text given")
    profile = classify_intent(args.intent, config.state, config.lexicon)
    ranking = solve(config.state, profile, config.thresholds)
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
    config = _resolve(args)
    scenarios = load_scenarios(args.scenarios or bundled.default_scenarios_path(), config.state)
    provider = _provider_for(args.backend, default_scripted=True)
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
    _add_common_flags(p)
    p.set_defaults(func=cmd_run_intent)

    p = sub.add_parser("benchmark", help="run one system over the scenario suite")
    p.add_argument("--system", default=None, choices=SYSTEMS)
    _add_common_flags(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("compare", help="run the four baseline systems and summarise")
    _add_common_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ablate", help="run the four ablation variants and summarise")
    _add_common_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("oracle", help="print the brute-force ranking for an intent")
    p.add_argument("--intent", required=True)
    p.add_argument("--top", type=int, default=None)
    _add_common_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate-state", help="check a state document against the schema")
    _add_common_flags(p)
    p.set_defaults(func=cmd_validate_state)

    p = sub.add_parser("validate-prompts", help="check a prompt directory for required files/markers")
    p.add_argument("--allow-missing-markers", action="store_true")
    _add_common_flags(p)
    p.set_defaults(func=cmd_validate_prompts)

    # Run-config values are checked against the flags of their command.
    for command in sub.choices.values():
        command.set_defaults(flags={action.dest: action for action in command._actions})
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config_file(args)
        return args.func(args)
    except (CliError, HarnessError, PromptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
