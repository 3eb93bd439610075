"""Replaying the orchestrator reasoning loop.

Runs the hierarchical agent runtime against the bundled deterministic script
(no network access): three iterations of Thought/Action/Observation,
two specialist consultations, and a provisioned slice.
"""

from sliceweaver import (
    ChatSession,
    ScriptedBackend,
    classify_intent,
    compute_utility,
    load_prompts,
    load_script,
    render_trace,
    run_react,
)
from sliceweaver.data import (
    industrial_trace_fixture_path,
    default_prompts_dir,
    default_state,
)

state = default_state()
prompts = load_prompts(default_prompts_dir())
intent = (
    "Configure network slice for automated robotic assembly line at "
    "industrial_park_a. Requires ultra-low latency (<5ms) for real-time "
    "control and high reliability for safety-critical operations."
)

script = load_script(industrial_trace_fixture_path())
session = ChatSession(ScriptedBackend(script, backend_id="replay"))
transcript = run_react(intent, state, session, prompts)

print(render_trace(transcript))

profile = classify_intent(intent, state)
breakdown = compute_utility(transcript.final_configuration, profile, state)
print(f"Engineering utility of the provisioned slice: {breakdown.utility:.2f}")
print(f"Gateway usage: {transcript.total_tokens} tokens over {len(session.calls)} calls")
