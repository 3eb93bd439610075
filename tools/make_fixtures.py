#!/usr/bin/env python3
"""Regenerates the scripted replay fixtures under src/sliceweaver/data/fixtures/.

The fixtures are committed data; this script exists so they can be rebuilt
deterministically when scenario scripts or token budgets change. Its ACTION
lines are written by the package's own `format_action`, so run it with the
package importable:

    PYTHONPATH=src python tools/make_fixtures.py
"""

from __future__ import annotations

import json
from pathlib import Path

from sliceweaver.agents import (
    CORE_SPECIALIST,
    RAN_SPECIALIST,
    ActionKind,
    AgentAction,
    format_action,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "sliceweaver" / "data"
OUT_DIR = DATA_DIR / "fixtures"

# The intent text of each scenario of the bundled suite, by scenario id.
SUITE = json.loads((DATA_DIR / "scenarios" / "benchmark12.json").read_text(encoding="utf-8"))
INTENTS = {entry["id"]: entry["intent_text"] for entry in SUITE}

BAND_WIRE = {"mmwave": "mmWave", "mid_band": "mid-band", "low_band": "low-band"}

# Per-scenario multi-agent replay: the configuration each scripted run
# provisions, specialist request/response flavour text, and the total token
# budget the five calls must add up to. The intents come from the suite.
SCENARIOS = {
    "esports_stadium": dict(
        produced=("stadium_central", "mmwave", "mec_stadium_1"),
        slice_id="esports_finals_001",
        ran_reason="800 MHz of mmWave is free at the venue and the short indoor paths suit it; mid-band is nearly exhausted (20 MHz)",
        ran_warning="Sector stadium_central is at 88% load; it is approaching capacity limits.",
        core_reason="it reaches stadium_central in 2ms, inside the 8ms budget, with compute at 65%",
        tokens=13363,
    ),
    # multi_agent for this scenario replays the verbatim audit trace; the
    # fields below only feed the degraded-variant scripts.
    "industrial_automation": dict(
        produced=("industrial_park_a", "mid_band", "mec_industrial_1"),
        slice_id="industrial_autonomy_001",
        ran_reason="mid-band balances capacity and penetration for the factory floor",
        core_reason="it is the only node meeting the <5ms requirement (3ms, 30% compute)",
        tokens=13573,
    ),
    "connected_ambulance_rural": dict(
        produced=("rural_highway", "mid_band", "metro_agg_hub"),
        slice_id="ambulance_corridor_001",
        ran_reason="rural_highway has no mmWave; mid-band (20 MHz) carries video better than low-band along the corridor",
        core_reason="no node reaches rural_highway under 10ms (closest is 25ms); metro_agg_hub is the least-latency option available",
        tokens=13617,
    ),
    "ar_maintenance_industrial": dict(
        produced=("industrial_park_a", "low_band", "mec_industrial_1"),
        slice_id="ar_maintenance_001",
        ran_reason="telemetry overlays are low-rate and low-band penetrates the factory floor machinery best",
        core_reason="it serves industrial_park_a at 3ms, the only node inside the real-time budget, with 30% compute load",
        tokens=12989,
    ),
    "stadium_4k_streaming": dict(
        produced=("rural_highway", "low_band", "metro_agg_hub"),
        slice_id="fanzone_stream_001",
        ran_reason="the fan zones stretch along the highway and low-band has the most free spectrum there (50 MHz) for wide coverage",
        core_reason="metro_agg_hub reaches rural_highway in 25ms, fine for buffered streaming",
        tokens=12587,
    ),
    "suburban_fixed_wireless": dict(
        produced=("suburban_residential", "low_band", "metro_agg_hub"),
        slice_id="fwa_suburban_001",
        ran_reason="without mmWave at the sector, low-band's propagation reaches indoor CPEs across the estate",
        core_reason="metro_agg_hub is 15ms away with headroom; broadband traffic tolerates it easily",
        tokens=13731,
    ),
    "highway_patrol_video": dict(
        produced=("city_plaza", "mid_band", "metro_agg_hub"),
        slice_id="patrol_video_001",
        ran_reason="patrol units file most evidence from the downtown precinct around the plaza, where mid-band has 80 MHz free",
        core_reason="metro_agg_hub reaches city_plaza in 5ms and keeps upload sessions snappy",
        tokens=13101,
    ),
    "plaza_public_wifi": dict(
        produced=("city_plaza", "mmwave", "regional_dc_north"),
        slice_id="plaza_wifi_001",
        ran_reason="the square is dense and open, ideal for the 800 MHz of free mmWave",
        core_reason="uploads are delay-tolerant, so the regional data centre is the cost-efficient choice per placement policy",
        tokens=13799,
    ),
    "smart_meters_suburban": dict(
        produced=("suburban_residential", "low_band", "metro_agg_hub"),
        slice_id="utility_endpoints_001",
        ran_reason="low-band maximises battery life and indoor reach for tiny hourly payloads",
        core_reason="metro_agg_hub has capacity at 50% and 15ms latency, far inside the tolerance",
        tokens=13085,
    ),
    "agricultural_iot_rural": dict(
        produced=("rural_highway", "mid_band", "mec_industrial_1"),
        slice_id="agri_iot_001",
        ran_reason="mid-band balances the sparse 20 MHz budget against gateway backhaul capacity",
        core_reason="the farm gateways aggregate near the industrial estate, so mec_industrial_1 is the natural anchor",
        tokens=13021,
    ),
    "stadium_crowd_analytics": dict(
        produced=("rural_highway", "mid_band", "metro_agg_hub"),
        slice_id="crowd_analytics_001",
        ran_reason="mid-band covers the corridor counters with capacity to spare on the 15%-loaded sector",
        core_reason="metro_agg_hub aggregates the corridor feeds at 25ms, well within tolerance",
        tokens=13557,
    ),
    "environmental_monitoring": dict(
        produced=("city_plaza", "mid_band", "regional_dc_north"),
        slice_id="air_quality_001",
        ran_reason="mid-band at the plaza has 80 MHz free and reaches street-level stations reliably",
        core_reason="sensor reporting mandates regional placement per policy; regional_dc_north has 40% load",
        tokens=12951,
    ),
}

# (produced config | None for a no-decision turn) per scenario, for the
# single-turn and ablation variants.
MONOLITHIC = {
    "esports_stadium": ("stadium_central", "mmwave", "mec_stadium_1"),
    "industrial_automation": ("industrial_park_a", "mid_band", "mec_industrial_1"),
    "connected_ambulance_rural": ("rural_highway", "low_band", "metro_agg_hub"),
    "ar_maintenance_industrial": ("industrial_park_a", "mmwave", "mec_industrial_1"),
    "stadium_4k_streaming": ("rural_highway", "low_band", "metro_agg_hub"),
    "suburban_fixed_wireless": ("suburban_residential", "mid_band", "mec_industrial_1"),
    "highway_patrol_video": ("rural_highway", "mid_band", "metro_agg_hub"),
    "plaza_public_wifi": ("city_plaza", "mid_band", "metro_agg_hub"),
    "smart_meters_suburban": ("suburban_residential", "mid_band", "regional_dc_north"),
    "agricultural_iot_rural": ("rural_highway", "mid_band", "regional_dc_north"),
    "stadium_crowd_analytics": ("suburban_residential", "mid_band", "metro_agg_hub"),
    "environmental_monitoring": ("city_plaza", "mid_band", "regional_dc_north"),
}
MONOLITHIC_TOKENS = [1846, 1917, 1905, 1842, 1833, 1921, 1878, 1942, 1869, 1850, 1933, 1992]

DIRECT_LLM = {
    "esports_stadium": ("stadium_central", "mmwave", "mec_stadium_1"),
    "industrial_automation": ("industrial_park_a", "mid_band", "mec_industrial_1"),
    "connected_ambulance_rural": ("rural_highway", "low_band", "metro_agg_hub"),
    "ar_maintenance_industrial": ("industrial_park_a", "mid_band", "metro_agg_hub"),
    "stadium_4k_streaming": ("rural_highway", "mid_band", "mec_stadium_1"),
    "suburban_fixed_wireless": ("suburban_residential", "low_band", "metro_agg_hub"),
    "highway_patrol_video": ("city_plaza", "low_band", "regional_dc_north"),
    "plaza_public_wifi": ("city_plaza", "mmwave", "mec_stadium_1"),
    "smart_meters_suburban": ("suburban_residential", "mid_band", "mec_industrial_1"),
    "agricultural_iot_rural": ("rural_highway", "mid_band", "regional_dc_north"),
    "stadium_crowd_analytics": ("rural_highway", "mid_band", "metro_agg_hub"),
    "environmental_monitoring": ("city_plaza", "mid_band", "mec_stadium_1"),
}
DIRECT_TOKENS = [1128, 1163, 1171, 1102, 1119, 1188, 1146, 1203, 1133, 1125, 1187, 1219]

# Single-pass ablation: two scenarios stall without a decision, the rest
# behave like the monolithic agent.
NO_REACT_NO_DECISION = {"connected_ambulance_rural", "smart_meters_suburban"}

TRACE_RESPONSES = [
    # Iteration 1: intent parsing and RAN consultation.
    """THOUGHT: The intent requires ultra-low latency (<5ms) and high reliability for safety-critical operations in an automated robotic assembly line at industrial_park_a. This implies a need for a low-latency and highly reliable network configuration. To achieve this, I need to consult the RAN specialist for spectrum allocation and the Core specialist for UPF placement. First, I will consult the RAN specialist to determine the appropriate spectrum for industrial_park_a that can support the required reliability and capacity for the automated robotic assembly line.

ACTION: CALL_AGENT | agent_name=ran_specialist | request=Can industrial_park_a support ultra-low latency and high reliability for automated robotic assembly with mmWave, mid-band, or low-band spectrum? What spectrum allocation is recommended?""",
    # RAN specialist reply.
    """**ANALYSIS FOR INDUSTRIAL_PARK_A**

1. **User Density**: 500 active users, which is considered moderate density.
2. **Application Requirements**: Ultra-low latency and high reliability for automated robotic assembly.
3. **Load Status**: 60% utilisation.
4. **Spectrum Availability**:
   - mmWave: 200 MHz available
   - mid-band: 100 MHz available
   - low-band: 10 MHz available

**DECISION PROCESS**

- **Ultra-Low Latency Requirement**: This suggests a preference for mmWave due to its potential for very low latency and high capacity. However, the availability of mmWave is limited to 200 MHz.
- **High Reliability Requirement**: For critical applications like automated robotic assembly, reliability is paramount. mmWave offers high capacity but may suffer from interference and penetration issues. Mid-band offers a better balance of capacity and penetration, potentially enhancing reliability.
- **Moderate Density**: The number of active users is moderate, suggesting that mid-band could be sufficient in terms of capacity, especially considering the need for reliability.

**RECOMMENDATION**

Given the requirements for ultra-low latency and high reliability, and considering the moderate user density and available spectrum, **mid-band** is recommended for industrial_park_a. Although mmWave is typically preferred for ultra-low latency applications due to its high capacity, the limited availability of mmWave (200 MHz) and the critical need for reliability in this scenario make mid-band a more appropriate choice. Mid-band offers a better balance between capacity and penetration, which is crucial for maintaining high reliability in an industrial setting with potential interference.

Mid-band's 100 MHz availability should be sufficient for the current 500 active users, especially if the application's bandwidth requirements are managed efficiently. Additionally, using mid-band helps in mitigating potential issues with mmWave's limited range and penetration, which could be problematic in an industrial environment with various obstacles.

**WARNING**

While the current load of 60% is manageable, it should be monitored as the new slice comes online.

**OUTPUT**

```
RECOMMENDATION: Use mid-band at industrial_park_a because it offers a balance of capacity and reliability necessary for ultra-low latency applications like automated robotic assembly, given the moderate user density and available spectrum.
WARNING: Sector industrial_park_a is at 60% load; monitor capacity as the slice is activated.
```""",
    # Iteration 2: RAN response synthesis and Core consultation.
    """THOUGHT: The RAN specialist recommends using mid-band at industrial_park_a for the automated robotic assembly line due to its balance of capacity and reliability, which is crucial for ultra-low latency and safety-critical operations. The specialist also warns about the sector being at 60% load. Next, I need to consult the Core specialist to determine which UPF node can meet the strict latency requirement.

ACTION: CALL_AGENT | agent_name=core_specialist | request=Given mid-band allocation at industrial_park_a for an automated robotic assembly line requiring ultra-low latency (<5ms), which UPF node can provide the necessary latency and what considerations should be taken for high reliability and the current 60% sector load?""",
    # Core specialist reply.
    """To address the orchestrator's request for ultra-low latency (<5ms) at industrial_park_a for an automated robotic assembly line, we need to consider the latency matrix and the current network state.

1. **Identify the target sector**: industrial_park_a
2. **Look up latencies** in the `latency_matrix` for industrial_park_a:
   - mec_stadium_1: 15ms (too high)
   - mec_industrial_1: 3ms (meets the requirement)
   - metro_agg_hub: 10ms (too high)
   - regional_dc_north: 35ms (too high)
3. **Extract the latency requirement**: <5ms
4. **Filter nodes** that meet the latency requirement: mec_industrial_1 is the only node that meets this requirement.
5. **Check compute capacity** for the candidate node: mec_industrial_1 has a compute_load_percent of 30%, well below the 85% threshold.
6. **Considerations for high reliability**: Given the critical nature of the application (automated robotic assembly line) and the sector's description ("Factory zone. High interference, critical reliability."), it's essential to prioritize reliability. mec_industrial_1, being an edge node dedicated to the factory, is likely designed to handle the specific interference and reliability challenges of the industrial environment.
7. **Current sector load**: The sector load at industrial_park_a is 60%, which is elevated but manageable.

**RECOMMENDATION**: Deploy UPF at mec_industrial_1 to achieve 3ms latency from industrial_park_a.
This recommendation meets the ultra-low latency requirement, considers the reliability needs of the application, and takes into account the current network state and sector load.""",
    # Iteration 3: synthesis, provisioning, finish.
    """THOUGHT: The Core specialist recommends deploying the UPF at mec_industrial_1 to achieve a latency of 3ms, which meets the ultra-low latency requirement of <5ms for the automated robotic assembly line at industrial_park_a. This recommendation also considers the reliability needs of the application and the current network state, including the sector load. With both RAN and Core specialist recommendations in hand, I can now provision the network slice.

ACTION: PROVISION_SLICE | slice_id=industrial_autonomy_001 | ran_config=mid-band@industrial_park_a | core_config=UPF@mec_industrial_1
ACTION: FINISH | summary=Network slice industrial_autonomy_001 configured for automated robotic assembly line at industrial_park_a. RAN: mid-band for reliability and capacity. Core: UPF at mec_industrial_1 for 3ms latency. Sector load at 60% noted.""",
]

# Per-call (prompt, completion) token splits for the audit-trace replay; they
# sum to the 13,573 reported for this scenario.
TRACE_TOKEN_SPLITS = [(1968, 174), (2541, 512), (2703, 164), (2669, 441), (2297, 104)]


def split_tokens(total: int) -> list[tuple[int, int]]:
    """Distribute a scenario's token budget over 5 calls (3 orchestrator
    turns with small completions, 2 specialist turns with larger ones)."""
    shares = [0.158, 0.225, 0.212, 0.229, 0.176]
    completion_shares = [0.08, 0.17, 0.06, 0.15, 0.05]
    calls: list[tuple[int, int]] = []
    allocated = 0
    for i, share in enumerate(shares):
        call_total = int(total * share) if i < 4 else total - allocated
        allocated += call_total
        completion = max(1, int(call_total * completion_shares[i]))
        calls.append((call_total - completion, completion))
    assert sum(p + c for p, c in calls) == total
    return calls


def action_line(kind: ActionKind, **values: str) -> str:
    return format_action(AgentAction(kind, **values))


def provision_lines(config: tuple[str, str, str], slice_id: str, summary: str) -> str:
    sector, band, node = config
    provision = action_line(
        ActionKind.PROVISION_SLICE, slice_id=slice_id,
        ran_config=f"{BAND_WIRE[band]}@{sector}", core_config=f"UPF@{node}",
    )
    return provision + "\n" + action_line(ActionKind.FINISH, summary=summary)


def multi_agent_script(scenario_id: str, spec: dict) -> list[dict]:
    sector, band, node = spec["produced"]
    band_wire = BAND_WIRE[band]
    ran_request = (
        f"Which spectrum band should carry this service at {sector}, given the "
        f"current load and available spectrum? Intent: {INTENTS[scenario_id]}"
    )
    core_request = (
        f"Given {band_wire} allocation at {sector}, which UPF node should anchor "
        "the slice considering latency tolerance and compute headroom?"
    )
    warning = spec.get("ran_warning")
    ran_response = (
        f"Reviewing {sector}: load, active users and per-band spectrum from the "
        f"injected state.\n\n"
        f"RECOMMENDATION: Use {band_wire} at {sector} because {spec['ran_reason']}.\n"
        + (f"WARNING: {warning}\n" if warning else "")
    )
    core_response = (
        f"Checking the latency row for {sector} and compute load across nodes.\n\n"
        f"RECOMMENDATION: Deploy UPF at {node} because {spec['core_reason']}.\n"
    )
    summary = (
        f"Slice {spec['slice_id']} provisioned: {band_wire}@{sector} anchored at "
        f"{node}."
    )
    responses = [
        (
            f"THOUGHT: I need to parse the intent, then consult the RAN specialist "
            f"about spectrum at the serving sector before any core decision.\n\n"
            + action_line(ActionKind.CALL_AGENT, agent_name=RAN_SPECIALIST, request=ran_request)
        ),
        ran_response,
        (
            f"THOUGHT: The RAN specialist recommends {band_wire} at {sector}. Next I "
            f"need the Core specialist to pick a UPF node compatible with that choice.\n\n"
            + action_line(ActionKind.CALL_AGENT, agent_name=CORE_SPECIALIST, request=core_request)
        ),
        core_response,
        (
            f"THOUGHT: Both specialists agree on a coherent configuration; the "
            f"consistency check passes, so I can provision.\n\n"
            + provision_lines(spec["produced"], spec["slice_id"], summary)
        ),
    ]
    splits = split_tokens(spec["tokens"])
    script = []
    for i, (response, (prompt_tokens, completion_tokens)) in enumerate(zip(responses, splits)):
        entry = {
            "response": response,
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
        }
        if i == 0:
            entry["expect_contains"] = INTENTS[scenario_id][:60]
        script.append(entry)
    return script


def canonical_trace_script() -> list[dict]:
    expects = [
        INTENTS["industrial_automation"][:60],
        "ORCHESTRATOR REQUEST:\nCan industrial_park_a support ultra-low latency",
        "Observation:",
        "Given mid-band allocation at industrial_park_a",
        "RECOMMENDATION**: Deploy UPF at mec_industrial_1",
    ]
    return [
        {
            "response": response,
            "prompt_tokens": split[0],
            "completion_tokens": split[1],
            "expect_contains": expect,
        }
        for response, split, expect in zip(TRACE_RESPONSES, TRACE_TOKEN_SPLITS, expects)
    ]


def single_turn_script(
    scenario_id: str, config: tuple[str, str, str] | None, total: int, label: str
) -> list[dict]:
    prompt_tokens = int(total * 0.88)
    completion_tokens = total - prompt_tokens
    if config is None:
        response = (
            "THOUGHT: The requirements are ambiguous and I cannot verify sector "
            "capacity without consulting a specialist, which this mode does not "
            "allow. I need more information before committing a configuration."
        )
    else:
        summary = f"{label} slice for {scenario_id} provisioned in a single pass."
        response = (
            "THOUGHT: Deciding sector, band and UPF node in one pass from the "
            "injected state.\n\n"
            + provision_lines(config, f"{scenario_id}_{label}_001", summary)
        )
    return [
        {
            "response": response,
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
        }
    ]


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    trace = canonical_trace_script()
    (OUT_DIR / "industrial_automation_trace.json").write_text(
        json.dumps(trace, indent=2) + "\n", encoding="utf-8"
    )

    suite: dict[str, dict[str, list[dict]]] = {}
    ids = list(SCENARIOS)
    for index, scenario_id in enumerate(ids):
        spec = SCENARIOS[scenario_id]
        if scenario_id == "industrial_automation":
            multi = trace
        else:
            multi = multi_agent_script(scenario_id, spec)
        # Generic prompts lose the engineered thresholds: the replay follows
        # the same three-iteration shape but lands on the weaker config set.
        degraded = dict(
            spec,
            produced=DIRECT_LLM[scenario_id],
            slice_id=f"{scenario_id}_np_001",
            ran_reason="it seems broadly suitable for the request",
            core_reason="it appears reachable and has spare capacity",
            tokens=max(2500, spec["tokens"] - 700),
        )
        degraded.pop("ran_warning", None)
        no_prompts = multi_agent_script(scenario_id, degraded)
        for entry in no_prompts:
            entry.pop("expect_contains", None)
        no_react_config = (
            None if scenario_id in NO_REACT_NO_DECISION else MONOLITHIC[scenario_id]
        )
        suite[scenario_id] = {
            "multi_agent": multi,
            "monolithic": single_turn_script(
                scenario_id, MONOLITHIC[scenario_id], MONOLITHIC_TOKENS[index], "mono"
            ),
            "direct_llm": single_turn_script(
                scenario_id, DIRECT_LLM[scenario_id], DIRECT_TOKENS[index], "direct"
            ),
            "no_prompts": no_prompts,
            "no_react": single_turn_script(
                scenario_id, no_react_config, DIRECT_TOKENS[index] + 52, "single"
            ),
        }

    (OUT_DIR / "benchmark12.json").write_text(
        json.dumps({"scenarios": suite}, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {OUT_DIR / 'industrial_automation_trace.json'}")
    print(f"wrote {OUT_DIR / 'benchmark12.json'}")


if __name__ == "__main__":
    main()
