from __future__ import annotations

import json
import re
import threading

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceweaver import data as bundled
from sliceweaver import gateway
from sliceweaver.gateway import (
    ChatMessage,
    ChatSession,
    GatewayError,
    LiveBackend,
    ProviderError,
    ScriptError,
    ScriptedBackend,
    ScriptedExchange,
    SuiteFixture,
    TransportError,
    load_script,
)

from json_edits import edited_text


def messages(*contents):
    return [ChatMessage(role="system", content="sys")] + [
        ChatMessage(role="user", content=c) for c in contents
    ]


def test_chat_message_validation():
    with pytest.raises(ValueError):
        ChatMessage(role="oracle", content="x")
    with pytest.raises(ValueError):
        ChatMessage(role="system", content="")
    with pytest.raises(ValueError):
        ChatMessage(role="user", content="")
    ChatMessage(role="assistant", content="")  # assistant may be empty


def test_scripted_backend_returns_entries_verbatim_in_order():
    backend = ScriptedBackend([
        ScriptedExchange(response="first", prompt_tokens=10, completion_tokens=2),
        ScriptedExchange(response="second"),
    ])
    session = ChatSession(backend)
    first = session.complete(messages("hello"))
    assert first.text == "first"
    assert (first.prompt_tokens, first.completion_tokens) == (10, 2)
    assert first.latency_s == 0.0
    second = session.complete(messages("again"))
    assert second.text == "second"
    assert second.completion_tokens == max(1, len("second") // 4)


def test_scripted_backend_exhaustion():
    backend = ScriptedBackend([ScriptedExchange(response="only")])
    session = ChatSession(backend)
    session.complete(messages("x"))
    with pytest.raises(ScriptError):
        session.complete(messages("x"))


def test_scripted_matcher_mismatch_names_expected_and_actual():
    backend = ScriptedBackend(
        [ScriptedExchange(response="ok", expect_contains="the robot intent")]
    )
    session = ChatSession(backend)
    with pytest.raises(ScriptError) as excinfo:
        session.complete(messages("something unrelated"))
    text = str(excinfo.value)
    assert "the robot intent" in text
    assert "something unrelated" in text


def test_scripted_sha256_matcher():
    import hashlib

    history = messages("pinned")
    rendered = "\n".join(f"{m.role}: {m.content}" for m in history)
    digest = hashlib.sha256(rendered.encode()).hexdigest()
    good = ScriptedBackend([ScriptedExchange(response="ok", expect_sha256=digest)])
    assert ChatSession(good).complete(history).text == "ok"
    bad = ScriptedBackend([ScriptedExchange(response="ok", expect_sha256="0" * 64)])
    with pytest.raises(ScriptError):
        ChatSession(bad).complete(history)


# Any message ChatMessage accepts: newlines, an empty assistant text,
# non-ASCII and astral characters.
message_text = st.text(
    st.characters() | st.sampled_from(["\n", "\r", "\u00e9", "\u4e2d", "\U0001f4e1"]),
    max_size=40,
)
chat_messages = st.builds(
    ChatMessage, role=st.sampled_from(("system", "user")), content=message_text.filter(bool)
) | st.builds(ChatMessage, role=st.just("assistant"), content=message_text)


@given(history=st.lists(chat_messages, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_rendered_length_is_the_length_of_the_rendered_history(history):
    rendered = gateway._render_history(history)
    assert gateway._rendered_length(history) == len(rendered)
    backend = ScriptedBackend([ScriptedExchange(response="ok")])
    assert backend.complete(history).prompt_tokens == max(1, len(rendered) // 4)


def count_renders(monkeypatch) -> list[int]:
    renders = []
    render = gateway._render_history

    def counting(messages):
        renders.append(len(messages))
        return render(messages)

    monkeypatch.setattr(gateway, "_render_history", counting)
    return renders


def test_a_script_without_matchers_never_renders_the_history(monkeypatch):
    renders = count_renders(monkeypatch)
    session = ChatSession(ScriptedBackend([ScriptedExchange(response="ok")] * 3))
    for text in ("one", "three", "a longer one"):
        session.complete(messages(text))
    assert renders == []
    # "system: sys\nuser: <text>" is 21, 23 and 30 characters long.
    assert [call.prompt_tokens for call in session.calls] == [5, 5, 7]


def test_a_script_with_matchers_renders_once_per_completion(monkeypatch):
    import hashlib

    history = messages("pinned")
    digest = hashlib.sha256(gateway._render_history(history).encode()).hexdigest()
    renders = count_renders(monkeypatch)
    session = ChatSession(ScriptedBackend([
        ScriptedExchange(response="a", expect_contains="pinned"),
        ScriptedExchange(response="b", expect_sha256=digest),
        ScriptedExchange(response="c", expect_contains="pinned", expect_sha256=digest),
        ScriptedExchange(response="d"),
    ]))
    for _ in range(4):
        session.complete(history)
    assert renders == [2, 2, 2]


def test_session_history_contract():
    session = ChatSession(ScriptedBackend([ScriptedExchange(response="ok")]))
    with pytest.raises(ValueError):
        session.complete([])
    with pytest.raises(ValueError):
        session.complete([ChatMessage(role="user", content="no system first")])


def test_usage_additivity():
    backend = ScriptedBackend([
        ScriptedExchange(response="a", prompt_tokens=3, completion_tokens=4),
        ScriptedExchange(response="b", prompt_tokens=5, completion_tokens=6),
    ])
    session = ChatSession(backend)
    assert sum(c.total_tokens for c in session.calls) == 0
    assert len(session.calls) == 0
    session.complete(messages("1"))
    session.complete(messages("2"))
    prompt_tokens = sum(c.prompt_tokens for c in session.calls)
    completion_tokens = sum(c.completion_tokens for c in session.calls)
    assert (prompt_tokens, completion_tokens) == (3 + 5, 4 + 6)
    assert sum(c.total_tokens for c in session.calls) == 18
    assert len(session.calls) == 2


def test_bundled_trace_fixture_token_total():
    script = load_script(bundled.industrial_trace_fixture_path())
    assert len(script) == 5
    total = sum(e.prompt_tokens + e.completion_tokens for e in script)
    assert total == 13573


def test_suite_fixture_lookup_and_missing_key():
    fixture = SuiteFixture.from_file(bundled.default_suite_fixture_path())
    backend = fixture.backend_for("esports_stadium", "multi_agent")
    assert backend.remaining() == 5
    with pytest.raises(ScriptError):
        fixture.backend_for("esports_stadium", "no_such_system")
    with pytest.raises(ScriptError):
        fixture.backend_for("no_such_scenario", "multi_agent")


@pytest.mark.parametrize("systems", [[], "multi_agent", None], ids=repr)
def test_a_fixture_scenario_that_is_not_an_object_is_named(systems):
    doc = {"scenarios": {"esports_stadium": systems}}
    with pytest.raises(ScriptError) as excinfo:
        SuiteFixture.from_doc(doc, "suite.json")
    assert str(excinfo.value) == (
        "suite.json: scenario 'esports_stadium' must map systems to scripts"
    )


@pytest.mark.parametrize("load", [load_script, SuiteFixture.from_file],
                         ids=["load_script", "SuiteFixture.from_file"])
def test_fixture_loaders_raise_only_script_error_naming_the_file(load, bad_json_file):
    with pytest.raises(ScriptError, match=re.escape(str(bad_json_file))):
        load(bad_json_file)


# Mutation fuzz of the bundled suite fixture: 1-3 edits to each of 1-3 of
# its exchange entries. `SuiteFixture.from_doc` must load what a per-field
# validator loads, value for value and type for type, or raise ScriptError.
_FIXTURE_DOC = json.loads(bundled.default_suite_fixture_path().read_text(encoding="utf-8"))
_FIXTURE_ENTRIES = [
    (scenario_id, system, index)
    for scenario_id, systems in _FIXTURE_DOC["scenarios"].items()
    for system, script in systems.items()
    for index in range(len(script))
]
_EXCHANGE_FIELDS = ("response", "prompt_tokens", "completion_tokens", "expect_contains", "expect_sha256")


def reference_exchange(entry) -> ScriptedExchange:
    """The exchange of a script entry, each field checked on its own."""
    if not isinstance(entry, dict):
        raise ScriptError("not an object")
    if set(entry) - set(_EXCHANGE_FIELDS):
        raise ScriptError("unknown field")
    if not isinstance(entry.get("response"), str):
        raise ScriptError("response")
    for key in ("prompt_tokens", "completion_tokens"):
        value = entry.get(key)
        if value is not None and (type(value) is not int or value < 0):
            raise ScriptError(key)
    for key in ("expect_contains", "expect_sha256"):
        value = entry.get(key)
        if value is not None and type(value) is not str:
            raise ScriptError(key)
    return ScriptedExchange(**entry)


def typed_scripts(scripts) -> dict:
    """Each exchange as its (field, type, value) triples, so that `True` or
    `1.0` loaded where `1` belongs does not compare equal."""
    return {
        scenario_id: {
            system: [[(key, type(value), value) for key, value in vars(exchange).items()]
                     for exchange in script]
            for system, script in systems.items()
        }
        for scenario_id, systems in scripts.items()
    }


def edit_exchange(entry, data):
    """`entry` after one edit: a key dropped or added, a token count or a
    matcher swapped for a value of the wrong kind, or a non-object."""
    if not isinstance(entry, dict):
        return entry
    entry = dict(entry)
    edit = data.draw(st.sampled_from(["drop", "add", "count", "matcher", "non-object"]))
    if edit == "drop":
        if entry:
            del entry[data.draw(st.sampled_from(sorted(entry)))]
    elif edit == "add":
        key = data.draw(st.sampled_from(["surprise", *_EXCHANGE_FIELDS]))
        entry[key] = data.draw(st.sampled_from([None, 1, "ACTION:"]))
    elif edit == "count":
        key = data.draw(st.sampled_from(["prompt_tokens", "completion_tokens"]))
        entry[key] = data.draw(st.sampled_from([True, -1, 1.0, None]))
    elif edit == "matcher":
        key = data.draw(st.sampled_from(["expect_contains", "expect_sha256"]))
        entry[key] = data.draw(st.sampled_from([None, 0, "ACTION:"]))
    else:
        return data.draw(st.sampled_from(["x", None, []]))
    return entry


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_a_mutated_suite_fixture_loads_as_the_reference_or_raises_script_error(data):
    scenarios = {
        scenario_id: {system: list(script) for system, script in systems.items()}
        for scenario_id, systems in _FIXTURE_DOC["scenarios"].items()
    }
    where = data.draw(st.lists(st.sampled_from(_FIXTURE_ENTRIES), min_size=1, max_size=3))
    for scenario_id, system, index in where:
        script = scenarios[scenario_id][system]
        for _ in range(data.draw(st.integers(1, 3))):
            script[index] = edit_exchange(script[index], data)
    doc = {"scenarios": scenarios}
    try:
        expected = {
            scenario_id: {system: [reference_exchange(e) for e in script]
                          for system, script in systems.items()}
            for scenario_id, systems in scenarios.items()
        }
    except ScriptError:
        with pytest.raises(ScriptError):
            SuiteFixture.from_doc(doc, "fuzz")
        return
    fixture = SuiteFixture.from_doc(doc, "fuzz")
    assert typed_scripts(fixture._scripts) == typed_scripts(expected)


# Mutation fuzz of the bundled industrial trace, a flat script: 1-3 edits at
# random places (`json_edits`). `load_script` (`read_json`, then
# `script_from_doc`) must load what the per-field validator loads, or raise
# ScriptError.
_TRACE_DOC = json.loads(bundled.industrial_trace_fixture_path().read_text(encoding="utf-8"))


@settings(max_examples=300, deadline=None)
@given(text=edited_text(_TRACE_DOC))
def test_an_edited_industrial_trace_loads_as_the_reference_or_raises_script_error(
    tmp_path_factory, text
):
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    path.write_text(text, encoding="utf-8")
    try:
        script = load_script(path)
    except ScriptError:
        return
    expected = [reference_exchange(entry) for entry in json.loads(text)]
    assert typed_scripts({"trace": {"script": script}}) == typed_scripts(
        {"trace": {"script": expected}}
    )


class FakeResponse:
    def __init__(self, status_code=200, body=None, text="", headers=None):
        self.status_code = status_code
        self._body = body
        self.text = text or json.dumps(body or {})
        self.headers = headers or {}

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class FakeHttpSession:
    """Stands in for requests.Session; yields queued responses/exceptions."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ok_body(text="fine", prompt_tokens=11, completion_tokens=7):
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


def live_backend(outcomes):
    fake = FakeHttpSession(outcomes)
    backend = LiveBackend(
        base_url="https://llm.example/v1", model="test-model", api_key="k",
        session=fake,
    )
    backend.BACKOFF_START_S = 0.0  # keep retry tests fast
    return backend, fake


def test_live_backend_gives_each_thread_its_own_session(monkeypatch):
    created = []

    class ThreadRecordingSession:
        def __init__(self):
            self.thread = threading.get_ident()
            self.post_threads = []
            created.append(self)

        def post(self, url, json=None, headers=None, timeout=None):
            self.post_threads.append(threading.get_ident())
            return FakeResponse(body=ok_body())

    monkeypatch.setattr(requests, "Session", ThreadRecordingSession)
    backend = LiveBackend(base_url="https://llm.example/v1", model="test-model")
    all_started = threading.Barrier(3)
    errors = []

    def worker():
        try:
            all_started.wait(timeout=10)
            for _ in range(2):
                assert backend.complete(messages("hi")).text == "fine"
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(created) == 3
    assert len({session.thread for session in created}) == 3
    for session in created:
        assert session.post_threads == [session.thread] * 2


def test_live_backend_requires_configuration(monkeypatch):
    for var in ("IBN_LLM_BASE_URL", "IBN_LLM_MODEL", "IBN_LLM_API_KEY"):
        monkeypatch.delenv(var, raising=False)
    with pytest.raises(GatewayError):
        LiveBackend()


def test_live_backend_request_shape_and_usage():
    backend, fake = live_backend([FakeResponse(body=ok_body())])
    session = ChatSession(backend)
    result = session.complete(messages("ping"))
    assert result.text == "fine"
    assert (result.prompt_tokens, result.completion_tokens) == (11, 7)
    request = fake.requests[0]
    assert request["url"] == "https://llm.example/v1/chat/completions"
    assert request["json"]["model"] == "test-model"
    assert request["json"]["temperature"] == 0.0  # deterministic default
    assert request["json"]["messages"][0] == {"role": "system", "content": "sys"}
    assert request["headers"]["Authorization"] == "Bearer k"
    # The harness asks every (scenario, system) pair for a backend; live
    # mode serves them all from this one.
    assert backend.backend_for("esports_stadium", "multi_agent") is backend


def test_live_backend_retries_on_transport_and_5xx_then_succeeds():
    backend, fake = live_backend([
        requests.ConnectionError("boom"),
        FakeResponse(status_code=503, body={}),
        FakeResponse(body=ok_body()),
    ])
    session = ChatSession(backend)
    result = session.complete(messages("ping"))
    assert result.text == "fine"
    assert len(fake.requests) == 3
    # Retries never duplicate the successful completion in accounting.
    assert len(session.calls) == 1
    assert sum(c.total_tokens for c in session.calls) == 18


def test_live_backend_retries_429_and_gives_up():
    backend, fake = live_backend([
        FakeResponse(status_code=429, body={}),
        FakeResponse(status_code=429, body={}),
        FakeResponse(status_code=429, body={}),
    ])
    with pytest.raises(TransportError):
        ChatSession(backend).complete(messages("ping"))
    assert len(fake.requests) == 3  # bounded attempts


@pytest.mark.parametrize(
    "status, retry_after, wait",
    [
        pytest.param(429, "2", 2.0, id="429-seconds"),
        pytest.param(503, " 7 ", 7.0, id="503-seconds"),
        pytest.param(429, "0", 0.0, id="zero"),
        pytest.param(429, "3600", LiveBackend.RETRY_AFTER_MAX_S, id="capped"),
        pytest.param(429, None, 0.5, id="missing-keeps-backoff"),
        pytest.param(429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5, id="http-date-keeps-backoff"),
        pytest.param(429, "1.5", 0.5, id="fraction-keeps-backoff"),
        pytest.param(429, "-1", 0.5, id="negative-keeps-backoff"),
        pytest.param(502, "2", 0.5, id="502-ignores-header"),
    ],
)
def test_live_backend_honours_retry_after(monkeypatch, status, retry_after, wait):
    waits = []
    monkeypatch.setattr("sliceweaver.gateway.time.sleep", waits.append)
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    backend, fake = live_backend([
        FakeResponse(status_code=status, body={}, headers=headers),
        FakeResponse(body=ok_body()),
    ])
    backend.BACKOFF_START_S = 0.5
    assert ChatSession(backend).complete(messages("ping")).text == "fine"
    assert waits == [wait]
    assert len(fake.requests) == 2


def test_live_backend_retry_after_applies_to_the_next_attempt_only(monkeypatch):
    waits = []
    monkeypatch.setattr("sliceweaver.gateway.time.sleep", waits.append)
    backend, fake = live_backend([
        FakeResponse(status_code=429, body={}, headers={"Retry-After": "4"}),
        FakeResponse(status_code=503, body={}),
        FakeResponse(status_code=429, body={}, headers={"Retry-After": "4"}),
    ])
    backend.BACKOFF_START_S = 0.5
    with pytest.raises(TransportError):
        ChatSession(backend).complete(messages("ping"))
    # The second wait is the backoff of attempt 3; the last header is unused.
    assert waits == [4.0, 1.0]
    assert len(fake.requests) == 3


def test_live_backend_client_errors_do_not_retry():
    backend, fake = live_backend([FakeResponse(status_code=400, body={"error": "bad"})])
    with pytest.raises(ProviderError):
        ChatSession(backend).complete(messages("ping"))
    assert len(fake.requests) == 1


def test_live_backend_malformed_payload():
    backend, _ = live_backend([FakeResponse(body={"choices": []})])
    with pytest.raises(ProviderError):
        ChatSession(backend).complete(messages("ping"))


@pytest.mark.parametrize(
    "body",
    [
        pytest.param({**ok_body(), "choices": [{"message": {"content": None}}]}, id="content-null"),
        pytest.param({**ok_body(), "usage": {"prompt_tokens": None}}, id="prompt-tokens-null"),
        pytest.param({**ok_body(), "usage": [1, 2]}, id="usage-list"),
        pytest.param({**ok_body(), "usage": {"prompt_tokens": "12abc"}}, id="prompt-tokens-string"),
    ],
)
def test_live_backend_rejects_mistyped_payload(body):
    backend, fake = live_backend([FakeResponse(body=body)])
    session = ChatSession(backend)
    with pytest.raises(ProviderError):
        session.complete(messages("ping"))
    assert len(fake.requests) == 1  # not retried
    assert session.calls == []


def test_live_backend_drives_the_full_reasoning_loop(state, prompts):
    # End-to-end over the live wire shape (stubbed transport): the runtime
    # consumes assistant turns exactly as a provider would emit them, and the
    # transcript's token accounting equals the provider-reported usage.
    from sliceweaver.agents import Outcome, run_react

    turns = [
        ok_body(
            "THOUGHT: consult radio first.\n\n"
            "ACTION: CALL_AGENT | agent_name=ran_specialist | request=Which band at city_plaza?",
            prompt_tokens=900, completion_tokens=80,
        ),
        ok_body(
            "RECOMMENDATION: Use mmWave at city_plaza because the square is dense and open.",
            prompt_tokens=1200, completion_tokens=60,
        ),
        ok_body(
            "THOUGHT: decided.\n\n"
            "ACTION: PROVISION_SLICE | slice_id=live_demo_001 | ran_config=mmWave@city_plaza | core_config=UPF@metro_agg_hub\n"
            "ACTION: FINISH | summary=provisioned from a live-shaped exchange",
            prompt_tokens=1100, completion_tokens=90,
        ),
    ]
    backend, fake = live_backend([FakeResponse(body=t) for t in turns])
    session = ChatSession(backend)
    transcript = run_react("4K video slice at city_plaza", state, session, prompts)
    assert transcript.outcome is Outcome.FINISHED
    assert transcript.iterations == 2
    assert transcript.final_configuration.node_id == "metro_agg_hub"
    assert transcript.total_tokens == (900 + 80) + (1200 + 60) + (1100 + 90)
    assert all(req["json"]["temperature"] == 0.0 for req in fake.requests)
    # The specialist call carried the injected state in its user message.
    specialist_call = fake.requests[1]["json"]["messages"]
    assert specialist_call[0]["role"] == "system"
    assert "CURRENT NETWORK STATE:" in specialist_call[1]["content"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=10), children, max_size=3)
    ),
    max_leaves=10,
)
TOKEN_COUNTS = st.integers(min_value=-3) | JSON_VALUES
NEAR_VALID_BODIES = st.builds(
    lambda content, usage: {"choices": [{"message": {"content": content}}], "usage": usage},
    st.text(max_size=12) | JSON_VALUES,
    st.fixed_dictionaries({}, optional={
        "prompt_tokens": TOKEN_COUNTS, "completion_tokens": TOKEN_COUNTS,
    }) | JSON_VALUES,
)
PROVIDER_RESPONSES = st.builds(
    FakeResponse,
    status_code=st.sampled_from([200, 400, 401, 429, 500, 503]),
    body=NEAR_VALID_BODIES | JSON_VALUES,
    headers=st.dictionaries(st.just("Retry-After"), st.text(max_size=12), max_size=1),
)


@settings(max_examples=100, deadline=None)
@given(outcomes=st.lists(
    PROVIDER_RESPONSES | st.just(requests.ConnectionError("reset")),
    min_size=LiveBackend.MAX_ATTEMPTS, max_size=LiveBackend.MAX_ATTEMPTS,
))
def test_live_backend_fails_typed_on_any_provider_payload(outcomes):
    waits = []
    backend, fake = live_backend(outcomes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sliceweaver.gateway.time.sleep", waits.append)
        try:
            result = backend.complete(messages("ping"))
        except (ProviderError, TransportError):
            result = None
    assert all(0 <= wait <= LiveBackend.RETRY_AFTER_MAX_S for wait in waits)
    assert len(fake.requests) <= LiveBackend.MAX_ATTEMPTS
    if result is not None:
        assert isinstance(result.text, str)
        for tokens in (result.prompt_tokens, result.completion_tokens):
            assert type(tokens) is int and tokens >= 0
