"""Hierarchical agent runtime.

An orchestrator agent runs an iterative Thought/Action/Observation loop,
delegating to two specialist agents (RAN and Core) and finally provisioning a
slice. Actions are parsed from plain assistant text:

    ACTION: CALL_AGENT | agent_name=<specialist> | request=<free text>
    ACTION: PROVISION_SLICE | slice_id=<id> | ran_config=<band>@<sector> | core_config=UPF@<node>
    ACTION: FINISH | summary=<free text>

`request=` and `summary=` consume the remainder of the line (they may contain
'|' and '='); the other keys are single tokens. Models often restate planned
actions inside their reasoning, so when a turn contains several ACTION lines
only the last one is operative, except that a PROVISION_SLICE followed by
FINISH in the same turn executes sequentially.

Specialist consultations are stateless one-shot completions: each one gets a
fresh history of [specialist system prompt, request + full serialized network
state], grounding its reasoning in verified conditions.

There is one loop, `run_react`, with one switch: its `system_prompt`. Without
one the orchestrator prompt leads and specialists are consulted. With one the
orchestrator decides alone: the serialized state goes into the user message
and a CALL_AGENT is answered with an observation that no specialists exist.
The monolithic baseline runs the loop that way; the single-pass baselines
(direct LLM and the no-ReAct ablation, `run_single_pass`) do the same capped
at one turn.

The session's `calls` is the one record of completions. A run notes where
its share of that record starts and totals its own completions once, into
the `AgentTranscript` it returns: tokens, completion latency and iterations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .gateway import ChatMessage, ChatSession, GatewayError
from .model import (
    Band,
    NetworkState,
    ProvisioningError,
    SliceConfiguration,
    apply_provisioning,
    serialize_state,
)

ORCHESTRATOR = "orchestrator"
RAN_SPECIALIST = "ran_specialist"
CORE_SPECIALIST = "core_specialist"
SPECIALISTS = (RAN_SPECIALIST, CORE_SPECIALIST)
PROMPT_ROLES = (ORCHESTRATOR, RAN_SPECIALIST, CORE_SPECIALIST)

DEFAULT_K_MAX = 10

NUDGE_OBSERVATION = "No ACTION detected; emit a valid ACTION line"

# Marker strings a prompt set must carry to be considered operational. The
# generic ablation prompts intentionally fail this check, so it is skippable.
REQUIRED_PROMPT_MARKERS: dict[str, tuple[str, ...]] = {
    ORCHESTRATOR: ("THOUGHT:", "ACTION:", "ALWAYS consult specialists before provisioning"),
    RAN_SPECIALIST: ("RECOMMENDATION:",),
    CORE_SPECIALIST: ("RECOMMENDATION:",),
}

_BAND_ALIASES = {
    "mmwave": Band.MMWAVE,
    "mm-wave": Band.MMWAVE,
    "mid-band": Band.MID_BAND,
    "mid_band": Band.MID_BAND,
    "midband": Band.MID_BAND,
    "low-band": Band.LOW_BAND,
    "low_band": Band.LOW_BAND,
    "lowband": Band.LOW_BAND,
}

class ActionParseError(Exception):
    """An ACTION line was present but malformed; carries the offending line."""

    def __init__(self, message: str, line: str):
        super().__init__(f"{message}: {line!r}")
        self.line = line


class PromptError(Exception):
    pass


class ActionKind(str, Enum):
    CALL_AGENT = "CALL_AGENT"
    PROVISION_SLICE = "PROVISION_SLICE"
    FINISH = "FINISH"
    NONE = "NONE"


class Outcome(str, Enum):
    FINISHED = "finished"
    ITERATION_LIMIT = "iteration_limit"
    ERROR = "error"


@dataclass(frozen=True)
class AgentAction:
    kind: ActionKind
    agent_name: str | None = None
    request: str | None = None
    slice_id: str | None = None
    ran_config: str | None = None
    core_config: str | None = None
    summary: str | None = None


@dataclass(frozen=True)
class SpecialistExchange:
    agent_name: str
    request: str
    response: str


@dataclass(frozen=True)
class TranscriptEntry:
    iteration: int
    response_text: str
    actions: tuple[AgentAction, ...]
    specialist_exchanges: tuple[SpecialistExchange, ...]
    observation: str | None


@dataclass(frozen=True)
class AgentTranscript:
    """One run: its orchestrator turns and the usage of the completions it
    made, orchestrator and specialist alike."""

    intent_text: str
    entries: tuple[TranscriptEntry, ...]
    outcome: Outcome
    final_configuration: SliceConfiguration | None
    prompt_tokens: int
    completion_tokens: int
    wall_seconds: float
    error: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.entries)

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


_REMAINDER_KEY_RE = re.compile(r"(?:^|\|)\s*(request|summary)\s*=")


def _parse_action_line(line: str) -> AgentAction:
    body = line.split(":", 1)[1].strip()
    if not body:
        raise ActionParseError("empty ACTION line", line)
    head, _, rest = body.partition("|")
    kind_token = head.strip().upper()
    try:
        kind = ActionKind(kind_token)
    except ValueError:
        raise ActionParseError(f"unknown action kind {kind_token!r}", line) from None
    if kind is ActionKind.NONE:
        raise ActionParseError("NONE is not an emittable action", line)
    fields: dict[str, str] = {}
    # Free-text fields consume the remainder of the line, '|' included, so
    # they are sliced off the raw text before the single-token fields are
    # split on separators.
    tail = _REMAINDER_KEY_RE.search(rest)
    if tail:
        fields[tail.group(1)] = rest[tail.end():].strip()
        rest = rest[: tail.start()]
    for part in rest.split("|"):
        if not part.strip():
            continue
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ActionParseError(f"malformed key=value pair {part.strip()!r}", line)
        if key in fields:
            raise ActionParseError(f"duplicate key {key!r}", line)
        fields[key] = value.strip()
    action = AgentAction(
        kind=kind,
        agent_name=fields.pop("agent_name", None),
        request=fields.pop("request", None),
        slice_id=fields.pop("slice_id", None),
        ran_config=fields.pop("ran_config", None),
        core_config=fields.pop("core_config", None),
        summary=fields.pop("summary", None),
    )
    if fields:
        raise ActionParseError(f"unknown key(s) {sorted(fields)}", line)
    if kind is ActionKind.CALL_AGENT and (not action.agent_name or not action.request):
        raise ActionParseError("CALL_AGENT needs agent_name and request", line)
    if kind is ActionKind.PROVISION_SLICE and not (
        action.slice_id and action.ran_config and action.core_config
    ):
        raise ActionParseError(
            "PROVISION_SLICE needs slice_id, ran_config and core_config", line
        )
    return action


def parse_action(text: str) -> list[AgentAction]:
    """Extract the operative action(s) from assistant text.

    Returns a NONE action when no ACTION line is present. With several ACTION
    lines, the last one wins; if the last is FINISH, any PROVISION_SLICE lines
    in the same text are kept ahead of it in textual order so both execute.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip().startswith("ACTION:")]
    if not lines:
        return [AgentAction(kind=ActionKind.NONE)]
    parsed = [_parse_action_line(ln) for ln in lines]
    last = parsed[-1]
    if last.kind is ActionKind.FINISH:
        provisions = [a for a in parsed[:-1] if a.kind is ActionKind.PROVISION_SLICE]
        return provisions + [last]
    return [last]


def format_action(action: AgentAction) -> str:
    """Render an action back to its wire line (inverse of parse_action)."""
    if action.kind is ActionKind.NONE:
        raise ValueError("cannot format a NONE action")
    parts = [f"ACTION: {action.kind.value}"]
    single = [("agent_name", action.agent_name), ("slice_id", action.slice_id),
              ("ran_config", action.ran_config), ("core_config", action.core_config)]
    for key, value in single:
        if value is not None:
            parts.append(f"{key}={value}")
    for key, value in (("request", action.request), ("summary", action.summary)):
        if value is not None:
            parts.append(f"{key}={value}")
    return " | ".join(parts)


def parse_slice_configs(
    ran_config: str, core_config: str, slice_id: str | None = None
) -> SliceConfiguration:
    """The configuration named by "band@sector" and "UPF@node", labelled
    `slice_id`."""
    if "@" not in ran_config:
        raise ActionParseError("ran_config must look like band@sector", ran_config)
    band_token, _, sector_id = ran_config.partition("@")
    band_token = band_token.strip()
    sector_id = sector_id.strip()
    if not band_token or not sector_id:
        raise ActionParseError("empty segment in ran_config", ran_config)
    band = _BAND_ALIASES.get(band_token.lower())
    if band is None:
        raise ActionParseError(f"unknown band alias {band_token!r}", ran_config)
    if "@" not in core_config:
        raise ActionParseError("core_config must look like UPF@node", core_config)
    prefix, _, node_id = core_config.partition("@")
    node_id = node_id.strip()
    if not prefix.strip() or not node_id:
        raise ActionParseError("empty segment in core_config", core_config)
    return SliceConfiguration(sector_id, band, node_id, slice_id)


def load_prompts(directory: str | Path, require_markers: bool = True) -> dict[str, str]:
    """Load the three role prompts from a directory of Markdown files."""
    directory = Path(directory)
    missing = [role for role in PROMPT_ROLES if not (directory / f"{role}.md").is_file()]
    if missing:
        raise PromptError(
            f"prompt directory {directory} is missing: "
            + ", ".join(f"{role}.md" for role in missing)
        )
    try:
        prompts = {
            role: (directory / f"{role}.md").read_text(encoding="utf-8")
            for role in PROMPT_ROLES
        }
    except (OSError, UnicodeDecodeError) as exc:
        raise PromptError(f"cannot read prompt directory {directory}: {exc}") from None
    if require_markers:
        for role, markers in REQUIRED_PROMPT_MARKERS.items():
            for marker in markers:
                if marker not in prompts[role]:
                    raise PromptError(
                        f"prompt {role}.md is missing required marker {marker!r}"
                    )
    return prompts


def merge_prompts_monolithic(prompts: dict[str, str]) -> str:
    """Single-agent prompt for the monolithic baseline: the orchestrator
    prompt with both specialists' policy text folded in (a reconstruction;
    the hierarchical prompts are the operational set)."""
    return (
        prompts[ORCHESTRATOR]
        + "\n\n## Radio access policy (apply directly; no RAN specialist is available)\n\n"
        + prompts[RAN_SPECIALIST]
        + "\n\n## Core network policy (apply directly; no Core specialist is available)\n\n"
        + prompts[CORE_SPECIALIST]
        + "\n\nThere are no specialist agents in this configuration: do not emit "
        + "CALL_AGENT. Decide the full configuration yourself, then emit "
        + "PROVISION_SLICE followed by FINISH.\n"
    )


def build_specialist_message(request: str, state: NetworkState) -> str:
    """The context-injection template sent to a specialist (fixed layout)."""
    if not request:
        raise ValueError("specialist request must be non-empty")
    return (
        "ORCHESTRATOR REQUEST:\n"
        f"{request}\n"
        "\n"
        "CURRENT NETWORK STATE:\n"
        f"{serialize_state(state)}"
        "\n"
        "Provide your expert recommendation based on this state."
    )


def consult_specialist(
    role: str,
    request: str,
    state: NetworkState,
    session: ChatSession,
    prompts: dict[str, str],
) -> str:
    """One-shot specialist completion; returns its reply text."""
    if role not in SPECIALISTS:
        raise ValueError(f"{role!r} is not a specialist role")
    history = [
        ChatMessage(role="system", content=prompts[role]),
        ChatMessage(role="user", content=build_specialist_message(request, state)),
    ]
    return session.complete(history).text


def run_react(
    intent_text: str,
    state: NetworkState,
    session: ChatSession,
    prompts: dict[str, str],
    k_max: int = DEFAULT_K_MAX,
    system_prompt: str | None = None,
) -> AgentTranscript:
    """Run the orchestrator reasoning loop for one intent.

    Per iteration: complete, parse actions, execute them (consultations append
    an observation; provisioning validates against the evolving state; FINISH
    returns the most recently provisioned configuration). A turn with no
    ACTION line gets a nudge observation. The loop never exceeds k_max
    completions for the orchestrator role.

    The transcript's usage is the sum over the completions this run appended
    to `session.calls`, so a session reused across runs counts each run's
    own completions only.

    A `system_prompt` makes the orchestrator decide alone: it replaces the
    orchestrator prompt, the serialized state follows the intent in the user
    message, and a CALL_AGENT is told that no specialists are available.
    """
    if not intent_text.strip():
        raise ValueError("intent text must be non-empty")
    if k_max < 1:  # the loop would end at once as an iteration limit
        raise ValueError(f"k_max must be a positive integer, got {k_max}")
    alone = system_prompt is not None
    if alone:
        user_text = f"{intent_text}\n\nCURRENT NETWORK STATE:\n{serialize_state(state)}"
    else:
        system_prompt, user_text = prompts[ORCHESTRATOR], intent_text
    history = [
        ChatMessage(role="system", content=system_prompt),
        ChatMessage(role="user", content=user_text),
    ]
    working_state = state
    entries: list[TranscriptEntry] = []
    last_provisioned: SliceConfiguration | None = None
    first = len(session.calls)

    def finish(outcome: Outcome, final, error: str | None = None) -> AgentTranscript:
        calls = session.calls[first:]
        return AgentTranscript(
            intent_text=intent_text,
            entries=tuple(entries),
            outcome=outcome,
            final_configuration=final,
            prompt_tokens=sum(c.prompt_tokens for c in calls),
            completion_tokens=sum(c.completion_tokens for c in calls),
            wall_seconds=sum(c.latency_s for c in calls),
            error=error,
        )

    for iteration in range(1, k_max + 1):
        try:
            result = session.complete(history)
        except GatewayError as exc:
            return finish(Outcome.ERROR, None, error=str(exc))
        history.append(ChatMessage(role="assistant", content=result.text))
        exchanges: list[SpecialistExchange] = []
        observations: list[str] = []
        finished = False
        error: str | None = None
        try:
            actions = parse_action(result.text)
        except ActionParseError as exc:
            actions = (AgentAction(kind=ActionKind.NONE),)
            observations.append(f"Action parse error: {exc}")
        for action in actions:
            if action.kind is ActionKind.NONE:
                if not observations:
                    observations.append(NUDGE_OBSERVATION)
            elif action.kind is ActionKind.CALL_AGENT:
                if alone:
                    observations.append(
                        f"unknown agent {action.agent_name!r}: no specialist agents "
                        "are available in this configuration"
                    )
                elif action.agent_name not in SPECIALISTS:
                    observations.append(
                        f"unknown agent {action.agent_name!r}; available specialists: "
                        + ", ".join(SPECIALISTS)
                    )
                else:
                    try:
                        reply = consult_specialist(
                            action.agent_name, action.request or "", working_state,
                            session, prompts,
                        )
                    except GatewayError as exc:
                        error = str(exc)
                        break
                    exchanges.append(SpecialistExchange(
                        agent_name=action.agent_name,
                        request=action.request or "",
                        response=reply,
                    ))
                    observations.append(reply)
            elif action.kind is ActionKind.PROVISION_SLICE:
                try:
                    config = parse_slice_configs(
                        action.ran_config or "", action.core_config or "", action.slice_id
                    )
                    working_state = apply_provisioning(working_state, config)
                except (ActionParseError, ProvisioningError) as exc:
                    observations.append(f"Provisioning failed: {exc}")
                else:
                    last_provisioned = config
                    observations.append(
                        f"Provisioned slice {config.slice_id or '(unnamed)'}: "
                        f"{config.band.value}@{config.sector_id} via {config.node_id}"
                    )
            elif action.kind is ActionKind.FINISH:
                if last_provisioned is not None:
                    finished = True
                else:
                    observations.append(
                        "FINISH without a provisioned configuration; emit "
                        "PROVISION_SLICE first"
                    )
        observation_text = "\n".join(observations) or None
        entries.append(TranscriptEntry(
            iteration=iteration, response_text=result.text,
            actions=tuple(actions), specialist_exchanges=tuple(exchanges),
            observation=observation_text,
        ))
        if error is not None:
            return finish(Outcome.ERROR, None, error=error)
        if finished:
            return finish(Outcome.FINISHED, last_provisioned)
        history.append(ChatMessage(role="user", content=f"Observation: {observation_text}"))
    return finish(Outcome.ITERATION_LIMIT, None)


def run_single_pass(
    intent_text: str,
    state: NetworkState,
    session: ChatSession,
    system_prompt: str,
) -> AgentTranscript:
    """The ReAct loop capped at one turn with no specialists and the state in
    the user message: the model must provision and finish in that turn
    (direct-LLM baseline and the no-ReAct ablation)."""
    transcript = run_react(
        intent_text, state, session, {}, k_max=1, system_prompt=system_prompt
    )
    if transcript.outcome is Outcome.ITERATION_LIMIT:
        return replace(
            transcript, outcome=Outcome.ERROR,
            error="single-pass turn did not provision and finish",
        )
    return transcript


def render_trace(transcript: AgentTranscript) -> str:
    """Human-readable trace in the audit layout used throughout the docs."""
    lines: list[str] = []
    for entry in transcript.entries:
        lines.append(f"--- Iteration {entry.iteration} ---")
        lines.append(f"[Thinking]: {entry.response_text}")
        for exchange in entry.specialist_exchanges:
            lines.append("")
            lines.append(f"   -> Calling {exchange.agent_name}...")
            lines.append(f"   <- Agent Response: {exchange.response}")
        non_specialist_obs = entry.observation
        if non_specialist_obs and not entry.specialist_exchanges:
            lines.append(f"   Observation: {non_specialist_obs}")
        lines.append("")
    lines.append(f"Outcome: {transcript.outcome.value}")
    if transcript.final_configuration is not None:
        config = transcript.final_configuration
        lines.append(
            "Final configuration: "
            f"{config.band.value}@{config.sector_id}, UPF@{config.node_id}"
            + (f" (slice_id={config.slice_id})" if config.slice_id else "")
        )
    if transcript.error:
        lines.append(f"Error: {transcript.error}")
    lines.append(
        f"Iterations: {transcript.iterations}; total tokens: {transcript.total_tokens}"
    )
    return "\n".join(lines) + "\n"
