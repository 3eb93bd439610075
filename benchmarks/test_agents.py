"""Per-layer benchmarks of the agent runtime's inputs and loop: lexicon
load, action parsing of the suite path's orchestrator turns and one
scripted ReAct replay.

Not part of the default test run (pyproject's testpaths is `tests`). Run:

    PYTHONPATH=src python -m pytest benchmarks/test_agents.py \
        --benchmark-timer time.process_time --benchmark-json benchmarks/BENCH_agents.json

The replay runs on the bundled state, which keeps its text after the first
`serialize_state`, so from the second round on it measures the loop, not
the encoding (`benchmarks/test_state.py` measures that).
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import pytest

from sliceweaver import agents
from sliceweaver import data as bundled
from sliceweaver.agents import (
    ActionKind,
    AgentAction,
    Outcome,
    load_prompts,
    parse_action,
    run_react,
)
from sliceweaver.cli import main
from sliceweaver.gateway import ChatSession, ScriptedBackend, load_script
from sliceweaver.harness import load_scenarios
from sliceweaver.intent import Lexicon

# Fixed rounds, as in test_state.py, keep the recorded JSON small.
ROUNDS = 200


@pytest.mark.parametrize("lexicon_name", ["default", "strict"])
def test_lexicon_from_file(benchmark, lexicon_name):
    path = getattr(bundled, f"{lexicon_name}_lexicon_path")()
    lexicon = benchmark.pedantic(Lexicon.from_file, args=(path,), rounds=ROUNDS)
    assert lexicon.urllc and lexicon.mmtc


def suite_path_completions() -> list[str]:
    """The texts `run_react` hands to `parse_action` in one in-process
    `compare` and `ablate` on the bundled suite, in call order: the
    orchestrator turns of a `perfbench` `suite_replay` op."""
    texts = []

    def recording_parse_action(text: str) -> list[AgentAction]:
        texts.append(text)
        return parse_action(text)

    with pytest.MonkeyPatch.context() as patch, redirect_stdout(io.StringIO()):
        patch.setattr(agents, "parse_action", recording_parse_action)
        for command in ("compare", "ablate"):
            assert main([command]) == 0
    return texts


def test_parse_action_bundled_completions(benchmark):
    # One round parses the suite path's orchestrator turns once.
    completions = suite_path_completions()
    actions = benchmark.pedantic(
        lambda: [parse_action(text) for text in completions], rounds=ROUNDS
    )
    benchmark.extra_info["completions"] = len(completions)
    assert len(actions) == len(completions)
    none = sum(parsed == [AgentAction(ActionKind.NONE)] for parsed in actions)
    benchmark.extra_info["completions_without_action"] = none
    assert 0 < none < len(completions)  # a few turns hold no ACTION line


def test_run_react_bundled_trace(benchmark):
    # The industrial-automation trace replayed on the bundled state: three
    # orchestrator turns, a RAN and a Core consultation, one provisioning.
    state = bundled.default_state()
    prompts = load_prompts(bundled.default_prompts_dir())
    scenarios = load_scenarios(bundled.default_scenarios_path(), state)
    intent = next(s for s in scenarios if s.id == "industrial_automation").intent_text
    script = load_script(bundled.industrial_trace_fixture_path())

    def fresh_session():
        return (intent, state, ChatSession(ScriptedBackend(script)), prompts), {}

    transcript = benchmark.pedantic(run_react, setup=fresh_session, rounds=ROUNDS)
    assert transcript.outcome is Outcome.FINISHED
    assert transcript.iterations == 3
    assert transcript.total_tokens == 13573
