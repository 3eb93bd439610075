"""Per-layer benchmarks of the gateway: one specialist consultation per
backend, which carries the whole serialized state to the model, and the
load of the bundled suite fixture that every suite command makes.

Not part of the default test run (pyproject's testpaths is `tests`). Run:

    PYTHONPATH=src python -m pytest benchmarks/test_gateway.py \
        --benchmark-timer time.process_time --benchmark-json benchmarks/BENCH_gateway.json

A state keeps its text after the first `serialize_state`, which each case
makes before it is timed, so a round measures what one consultation adds:
the specialist message and the backend's own work on it. The scripted
backend replays one canned reply. The live backend talks to an in-process
stand-in for `requests.Session` that encodes the request body as `requests`
does and answers at once, so its figure is our per-call overhead, with no
network and no model behind it.
"""

from __future__ import annotations

from json import dumps

import pytest

from sliceweaver import data as bundled
from sliceweaver.agents import (
    RAN_SPECIALIST,
    build_specialist_message,
    consult_specialist,
    load_prompts,
)
from sliceweaver.gateway import (
    ChatMessage,
    ChatSession,
    LiveBackend,
    ScriptedBackend,
    ScriptedExchange,
    SuiteFixture,
    _rendered_length,
)
from sliceweaver.model import serialize_state

SIZES = [(5, 4), (50, 12), (500, 50), (2000, 50)]
ROUNDS = {5: 200, 50: 100, 500: 20, 2000: 10}

REQUEST = "Which band and sector fit a low-latency slice?"
REPLY = "RECOMMENDATION: mid-band at the least-loaded sector."


class InstantResponse:
    status_code = 200

    def json(self):
        return {
            "choices": [{"message": {"content": REPLY}}],
            "usage": {"prompt_tokens": 0, "completion_tokens": 0},
        }


class EncodingSession:
    """Stands in for `requests.Session`: each POST encodes its JSON body as
    `requests` does (`json.dumps(..., allow_nan=False)`, then UTF-8) and
    answers 200 without a network."""

    def __init__(self):
        self.body_bytes = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.body_bytes = len(dumps(json, allow_nan=False).encode("utf-8"))
        return InstantResponse()


@pytest.fixture(scope="module")
def prompts():
    return load_prompts(bundled.default_prompts_dir())


def record_prompt_size(benchmark, prompts, state) -> None:
    history = [
        ChatMessage(role="system", content=prompts[RAN_SPECIALIST]),
        ChatMessage(role="user", content=build_specialist_message(REQUEST, state)),
    ]
    chars = _rendered_length(history)
    benchmark.extra_info["prompt_chars"] = chars
    benchmark.extra_info["prompt_tokens"] = max(1, chars // 4)


@pytest.mark.parametrize("n_sectors,n_nodes", SIZES)
def test_consult_scripted(benchmark, topology, prompts, n_sectors, n_nodes):
    state = topology(n_sectors, n_nodes)
    serialize_state(state)

    def fresh_session():
        session = ChatSession(ScriptedBackend([ScriptedExchange(response=REPLY)]))
        return (RAN_SPECIALIST, REQUEST, state, session, prompts), {}

    reply = benchmark.pedantic(consult_specialist, setup=fresh_session, rounds=ROUNDS[n_sectors])
    assert reply == REPLY
    record_prompt_size(benchmark, prompts, state)


@pytest.mark.parametrize("n_sectors,n_nodes", SIZES)
def test_consult_live(benchmark, topology, prompts, n_sectors, n_nodes):
    state = topology(n_sectors, n_nodes)
    serialize_state(state)
    http = EncodingSession()
    session = ChatSession(LiveBackend(base_url="http://llm.invalid/v1", model="bench", session=http))
    reply = benchmark.pedantic(
        consult_specialist,
        args=(RAN_SPECIALIST, REQUEST, state, session, prompts),
        rounds=ROUNDS[n_sectors],
    )
    assert reply == REPLY
    record_prompt_size(benchmark, prompts, state)
    benchmark.extra_info["request_body_bytes"] = http.body_bytes


def test_suite_fixture_load(benchmark):
    # The bundled fixture: 156 exchanges over 12 scenarios and 3 systems,
    # each one read, checked and built.
    path = bundled.default_suite_fixture_path()
    fixture = benchmark.pedantic(SuiteFixture.from_file, args=(path,), rounds=200)
    assert sum(len(script) for systems in fixture._scripts.values()
               for script in systems.values()) == 156
