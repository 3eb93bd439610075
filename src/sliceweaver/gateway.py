"""Chat-completion gateway with two interchangeable backends.

LiveBackend speaks the OpenAI-compatible chat-completions wire shape over
HTTPS (base URL, model, and key come from IBN_LLM_* environment variables or
explicit arguments). ScriptedBackend replays a fixed exchange list and never
touches the network, which makes every end-to-end test hermetic and
byte-reproducible.

A ChatSession wraps a backend and records each completion in `calls`, the
one usage record: it keeps no totals, and an agent run sums its own share
of the record into the transcript it returns.

A run loads and copies only what it uses. `requests` is imported only by
LiveBackend, and `hashlib` (which loads OpenSSL) only where a scripted
exchange checks an `expect_sha256` digest, so hermetic runs load neither.
ScriptedBackend estimates prompt tokens from the message lengths and renders
the history as text only for an exchange with a matcher.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .model import _built, read_json

if TYPE_CHECKING:
    import requests

ENV_BASE_URL = "IBN_LLM_BASE_URL"
ENV_MODEL = "IBN_LLM_MODEL"
ENV_API_KEY = "IBN_LLM_API_KEY"

VALID_ROLES = ("system", "user", "assistant")


class GatewayError(Exception):
    pass


class TransportError(GatewayError):
    """Network-level failure or retryable provider status (5xx / 429)."""


class ProviderError(GatewayError):
    """Non-retryable provider response (bad request, auth, malformed payload)."""


class ScriptError(GatewayError):
    """A scripted exchange did not line up with the actual request."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in VALID_ROLES:
            raise ValueError(f"role must be one of {VALID_ROLES}, got {self.role!r}")
        if self.role in ("system", "user") and not self.content:
            raise ValueError(f"{self.role} message content must be non-empty")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_s: float

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class ScriptedExchange:
    """One canned reply. Token counts may be configured so fixtures can
    reproduce reported usage exactly; otherwise a chars/4 estimate is used.
    The optional matchers guard against prompt drift."""

    response: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    expect_contains: str | None = None
    expect_sha256: str | None = None


def _render_history(messages: list[ChatMessage]) -> str:
    return "\n".join(f"{m.role}: {m.content}" for m in messages)


def _rendered_length(messages: list[ChatMessage]) -> int:
    """`len(_render_history(messages))`, without building the text: each
    message is "role: content", and the messages are joined by newlines."""
    return sum(len(m.role) + 2 + len(m.content) for m in messages) + len(messages) - 1


def _estimate_tokens(chars: int) -> int:
    return max(1, chars // 4)


class ScriptedBackend:
    """Replays exchanges strictly in order; safe for concurrent callers."""

    def __init__(self, exchanges: list[ScriptedExchange], backend_id: str = "scripted"):
        self.backend_id = backend_id
        self._exchanges = list(exchanges)
        self._index = 0
        self._lock = threading.Lock()

    def remaining(self) -> int:
        with self._lock:
            return len(self._exchanges) - self._index

    def complete(self, messages: list[ChatMessage]) -> CompletionResult:
        with self._lock:
            if self._index >= len(self._exchanges):
                raise ScriptError(
                    f"script {self.backend_id!r} exhausted after "
                    f"{len(self._exchanges)} exchanges"
                )
            exchange = self._exchanges[self._index]
            self._index += 1
        if exchange.expect_contains is not None or exchange.expect_sha256 is not None:
            self._check_prompt(exchange, _render_history(messages))
        prompt_tokens = (
            exchange.prompt_tokens
            if exchange.prompt_tokens is not None
            else _estimate_tokens(_rendered_length(messages))
        )
        completion_tokens = (
            exchange.completion_tokens
            if exchange.completion_tokens is not None
            else _estimate_tokens(len(exchange.response))
        )
        return _built(CompletionResult, text=exchange.response, prompt_tokens=prompt_tokens,
                      completion_tokens=completion_tokens, latency_s=0.0)

    def _check_prompt(self, exchange: ScriptedExchange, rendered: str) -> None:
        if exchange.expect_contains is not None and exchange.expect_contains not in rendered:
            raise ScriptError(
                f"script {self.backend_id!r} expected prompt containing "
                f"{exchange.expect_contains!r}, got: {rendered[:200]!r}..."
            )
        if exchange.expect_sha256 is not None:
            import hashlib

            digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
            if digest != exchange.expect_sha256:
                raise ScriptError(
                    f"script {self.backend_id!r} expected prompt digest "
                    f"{exchange.expect_sha256}, got {digest}"
                )


class LiveBackend:
    """OpenAI-compatible chat-completions client with bounded retries.

    Each calling thread gets its own `requests.Session`, made on its first
    call; an injected `session` is used by every thread instead.
    """

    deterministic = False

    MAX_ATTEMPTS = 3
    TIMEOUT_S = 60.0  # per HTTP request
    BACKOFF_START_S = 0.5
    # A 429 or 503 may name its own wait in whole seconds (Retry-After); it
    # replaces the backoff, up to this cap.
    RETRY_AFTER_MAX_S = 30.0
    RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

    def __init__(
        self,
        base_url: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        session: requests.Session | None = None,
    ):
        self.base_url = (base_url or os.environ.get(ENV_BASE_URL, "")).rstrip("/")
        self.model = model or os.environ.get(ENV_MODEL, "")
        self.api_key = api_key or os.environ.get(ENV_API_KEY, "")
        self._session = session
        self._local = threading.local()
        if not self.base_url or not self.model:
            raise GatewayError(
                f"live backend needs a base URL and model: set {ENV_BASE_URL} and "
                f"{ENV_MODEL} (and usually {ENV_API_KEY})"
            )

    def complete(self, messages: list[ChatMessage]) -> CompletionResult:
        import requests

        http = self._session or getattr(self._local, "session", None)
        if http is None:
            http = self._local.session = requests.Session()
        payload = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": 0.0,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = f"{self.base_url}/chat/completions"
        last_error: Exception | None = None
        retry_after: float | None = None  # the last response's own wait
        for attempt in range(self.MAX_ATTEMPTS):
            if attempt:
                backoff = self.BACKOFF_START_S * (2 ** (attempt - 1))
                time.sleep(backoff if retry_after is None else retry_after)
                retry_after = None
            start = time.perf_counter()
            try:
                response = http.post(
                    url, json=payload, headers=headers, timeout=self.TIMEOUT_S
                )
            except requests.RequestException as exc:
                last_error = TransportError(f"transport failure calling {url}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            if response.status_code in self.RETRYABLE_STATUS:
                last_error = TransportError(
                    f"provider returned {response.status_code}; retryable"
                )
                retry_after = self._retry_after(response)
                continue
            if response.status_code != 200:
                raise ProviderError(
                    f"provider returned {response.status_code}: {response.text[:300]}"
                )
            return self._parse_response(response, elapsed)
        assert last_error is not None
        raise last_error

    def _retry_after(self, response: requests.Response) -> float | None:
        """The capped Retry-After wait of a 429 or 503 in seconds, or None
        when the header is missing or not a whole number of seconds."""
        if response.status_code not in (429, 503):
            return None
        value = response.headers.get("Retry-After", "").strip()
        if not (value.isascii() and value.isdigit()):
            return None
        return min(float(value), self.RETRY_AFTER_MAX_S)

    def backend_for(self, scenario_id: str, script: str) -> "LiveBackend":
        """Every (scenario, system) pair talks to the same live endpoint."""
        return self

    def _parse_response(self, response: requests.Response, elapsed: float) -> CompletionResult:
        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise ProviderError(f"malformed provider response: {exc}") from exc
        if not isinstance(text, str):
            raise ProviderError(f"malformed provider response: content is {text!r}")
        usage = body.get("usage") or {}
        if not isinstance(usage, dict):
            raise ProviderError(f"malformed provider response: usage is {usage!r}")
        tokens = {key: usage.get(key, 0) for key in ("prompt_tokens", "completion_tokens")}
        for key, value in tokens.items():
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ProviderError(f"malformed provider response: {key} is {value!r}")
        return CompletionResult(
            text=text,
            prompt_tokens=tokens["prompt_tokens"],
            completion_tokens=tokens["completion_tokens"],
            latency_s=elapsed,
        )


class ChatSession:
    """The usage record in front of a backend.

    Validates the history contract (non-empty, starts with a system message)
    and appends each successful completion to `calls`; retries inside the
    backend never double-count. It keeps no totals: a run that uses the
    session sums its own share of `calls`.
    """

    def __init__(self, backend):
        self.backend = backend
        self.calls: list[CompletionResult] = []

    def complete(self, messages: list[ChatMessage]) -> CompletionResult:
        if not messages:
            raise ValueError("history must be non-empty")
        if messages[0].role != "system":
            raise ValueError("history must start with a system message")
        result = self.backend.complete(messages)
        self.calls.append(result)
        return result


_EXCHANGE_KEYS = frozenset(f.name for f in fields(ScriptedExchange))


def exchange_from_dict(entry: dict) -> ScriptedExchange:
    """The exchange whose wire form is `entry`; any other form raises
    ScriptError naming the first bad field."""
    if not isinstance(entry, dict) or "response" not in entry:
        raise ScriptError(f"script entry must be an object with 'response': {entry!r}")
    if not entry.keys() <= _EXCHANGE_KEYS:
        unknown = entry.keys() - _EXCHANGE_KEYS
        raise ScriptError(f"script entry has unknown field(s) {sorted(unknown)}")
    if not isinstance(entry["response"], str):
        raise ScriptError(f"script entry 'response' must be a string: {entry['response']!r}")
    for key in ("prompt_tokens", "completion_tokens"):
        value = entry.get(key)
        # `type(...) is int` also refuses a JSON `true`, which is an int.
        if value is not None and (type(value) is not int or value < 0):
            raise ScriptError(f"script entry {key!r} must be a non-negative integer: {value!r}")
    for key in ("expect_contains", "expect_sha256"):
        value = entry.get(key)
        if value is not None and not isinstance(value, str):
            raise ScriptError(f"script entry {key!r} must be a string: {value!r}")
    # `ScriptedExchange` checks nothing, so its frozen constructor is skipped.
    return _built(ScriptedExchange, response=entry["response"],
                  prompt_tokens=entry.get("prompt_tokens"),
                  completion_tokens=entry.get("completion_tokens"),
                  expect_contains=entry.get("expect_contains"),
                  expect_sha256=entry.get("expect_sha256"))


def script_from_doc(doc, name: str) -> list[ScriptedExchange]:
    """The exchanges of a parsed script; a document of the wrong shape
    raises ScriptError."""
    if not isinstance(doc, list):
        raise ScriptError(f"{name}: script must be a JSON list")
    return [exchange_from_dict(entry) for entry in doc]


def load_script(path: str | Path) -> list[ScriptedExchange]:
    """Load a flat, ordered exchange list from a fixture file; every defect
    of the file raises ScriptError."""
    return script_from_doc(read_json(path, "script", ScriptError), str(path))


class SuiteFixture:
    """A fixture bundling scripts per (scenario, system) for whole-suite runs."""

    deterministic = True

    def __init__(self, scripts: dict[str, dict[str, list[ScriptedExchange]]], name: str):
        self._scripts = scripts
        self.name = name

    @classmethod
    def from_file(cls, path: str | Path) -> "SuiteFixture":
        """Load a suite fixture file; every defect of the file raises
        ScriptError."""
        return cls.from_doc(read_json(path, "suite fixture", ScriptError), str(path))

    @classmethod
    def from_doc(cls, doc, name: str) -> "SuiteFixture":
        """Build a fixture from its parsed JSON document; a document of the
        wrong shape raises ScriptError."""
        if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), dict):
            raise ScriptError(f"{name}: suite fixture must be an object with 'scenarios' object")
        scripts: dict[str, dict[str, list[ScriptedExchange]]] = {}
        for scenario_id, systems in doc["scenarios"].items():
            if not isinstance(systems, dict):
                raise ScriptError(f"{name}: scenario {scenario_id!r} must map systems to scripts")
            scripts[scenario_id] = {
                system: script_from_doc(exchanges, f"{name} {scenario_id!r} / {system!r}")
                for system, exchanges in systems.items()
            }
        return cls(scripts, name=name)

    def backend_for(self, scenario_id: str, system: str) -> ScriptedBackend:
        try:
            exchanges = self._scripts[scenario_id][system]
        except KeyError:
            raise ScriptError(
                f"suite fixture {self.name!r} has no script for scenario "
                f"{scenario_id!r} / system {system!r}"
            ) from None
        return ScriptedBackend(exchanges, backend_id=f"scripted:{scenario_id}:{system}")
