"""sliceweaver: intent-based 6G network slice orchestration.

Translates natural-language slice intents into (sector, band, UPF)
configurations through a hierarchical orchestrator/specialist agent runtime,
scores candidate configurations with a weighted engineering-utility function,
finds provable optima by brute force, and evaluates the whole pipeline with a
deterministic, replayable benchmark harness.
"""

from __future__ import annotations

from .agents import (
    AgentAction,
    AgentTranscript,
    Outcome,
    build_specialist_message,
    consult_specialist,
    format_action,
    load_prompts,
    parse_action,
    parse_slice_configs,
    render_trace,
    run_react,
    run_single_pass,
)
from .gateway import (
    ChatMessage,
    ChatSession,
    CompletionResult,
    LiveBackend,
    ScriptedBackend,
    ScriptedExchange,
    SuiteFixture,
    load_script,
)
from .harness import (
    BenchmarkReport,
    Scenario,
    emit_report,
    load_scenarios,
    run_benchmark,
    run_scenario,
    semantic_accuracy,
)
from .intent import (
    BandwidthCategory,
    IntentProfile,
    Lexicon,
    TrafficClass,
    classify_intent,
    extract_target_sector,
    weights_for,
)
from .model import (
    Band,
    CoreNode,
    EvaluationRecord,
    NetworkState,
    NodeTier,
    RanSector,
    SliceConfiguration,
    SpectrumBands,
    apply_provisioning,
    latency,
    load_state,
    serialize_state,
)
from .oracle import (
    RankedConfiguration,
    Ranking,
    RuleBasedResult,
    enumerate_candidates,
    rule_based_provision,
    solve,
)
from .scoring import (
    ConstraintReport,
    ScoreBreakdown,
    Thresholds,
    check_constraints,
    compute_utility,
    round_half_up,
    score_congestion,
    score_latency,
    score_resource,
)

__version__ = "0.1.0"
