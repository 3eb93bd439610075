"""Seeded input generator for the benchmark.

Everything the program under test receives is produced here from a seed:
topology documents, provisioning ledgers, intent texts and scripted agent
sessions. Each generated item also carries what the generator meant it to
be (the expected intent profile, the expected final configuration), so the
benchmark can check the program's outputs against it.

The same seed always gives byte-identical documents and texts: every random
choice comes from a `random.Random` seeded with a string, which does not
depend on the interpreter's hash seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

DISTRICTS = (
    "harbor", "midtown", "riverside", "airport", "campus", "uptown",
    "docklands", "oldtown", "northgate", "eastfield", "westend", "southbank",
    "parkside", "hillcrest", "lakeshore", "marina",
)

# Band spellings of the state document (spectrum keys) and of the ledger and
# action lines.
SPECTRUM_KEYS = ("mmWave", "mid_band", "low_band")
LEDGER_BANDS = {"mmWave": "mmwave", "mid_band": "mid_band", "low_band": "low_band"}
ACTION_BANDS = {"mmWave": "mmWave", "mid_band": "mid-band", "low_band": "low-band"}

CLASS_TAU_DEFAULT_MS = {"URLLC": 10.0, "eMBB": 50.0, "mMTC": 1000.0}

# Intent fragments, tagged with what the default lexicon makes of them. A
# subject fixes the traffic class; mMTC subjects that use a low-rate word
# also make the bandwidth low. No fragment contains a word of another tag.
SUBJECTS = {
    "URLLC": (
        ("real-time control of the welding robots", None),
        ("closed-loop control for the automated cranes", None),
        ("autonomous shuttle coordination", None),
        ("safety-critical alarm signalling for the tunnel crews", None),
    ),
    "mMTC": (
        ("smart water meter readings", "low"),
        ("soil-moisture sensor reports", "low"),
        ("telemetry from the parking bays", "low"),
        ("IoT asset trackers on the delivery fleet", None),
        ("massive devices check-ins from street furniture", None),
    ),
    "eMBB": (
        ("public Wi-Fi offload for festival visitors", None),
        ("fixed wireless access for households", None),
        ("pop-up connectivity for the night market", None),
        ("office tenants moving to cloud desktops", None),
    ),
}
HIGH_FRAGMENTS = (
    "with 4K video feeds",
    "carrying VR streaming to headsets",
    "with broadband uploads from every stall",
)
LOW_FRAGMENTS = ("plus periodic telemetry", "plus occasional sensor status")
# Explicit bounds per class. Bounds at or below 10 ms force URLLC, so only
# URLLC intents get them.
BOUNDS_MS = {"URLLC": (None, 3, 5, 8, 15), "eMBB": (None, 20, 40), "mMTC": (None, 200)}
BOUND_TEMPLATES = ("; keep latency below {} ms", "; end-to-end latency under {} ms")
TARGETED_PLACES = ("at {}", "in sector {}", "across {}")
UNTARGETED_PLACES = ("across the metro area", "citywide", "wherever capacity allows")

# Traffic classes in a stream follow the paper's bundled benchmark12
# scenarios: every intent names a sector, and the classes split 4/4/4. A
# stream is made of blocks of three intents, one per class in a random
# order, so every prefix is within one op of an even split.
CLASSES = ("URLLC", "mMTC", "eMBB")
# Referee streams: 12 blocks of three intents.
INTENT_BLOCKS = 12
# Agent pool: 12 blocks of three sessions.
SESSION_BLOCKS = 12


@dataclass(frozen=True)
class Intent:
    """An intent text plus the profile the generator built it to have."""

    text: str
    traffic_class: str
    bandwidth: str
    tau_ms: float
    target: str | None


@dataclass(frozen=True)
class Topology:
    document: str
    sector_bands: dict[str, tuple[str, ...]]
    node_ids: tuple[str, ...]


def _rng(*parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def topology(seed: int, n_sectors: int, n_nodes: int, n_slices: int = 0) -> Topology:
    """A state document with `n_sectors` RAN sectors, `n_nodes` UPF nodes and
    a ledger of `n_slices` provisioned slices.

    About 35% of sectors have mmWave spectrum; every sector has mid-band and
    low-band, so an untargeted search sees about 2.35 x sectors x nodes
    candidates. Edge nodes are close to a contiguous block of sectors, metro
    nodes are mid-range everywhere, regional nodes are far.
    """
    rng = _rng("topology", seed, n_sectors, n_nodes, n_slices)
    sector_ids = [f"{rng.choice(DISTRICTS)}_{i:04d}" for i in range(n_sectors)]
    sectors: dict[str, dict] = {}
    sector_bands: dict[str, tuple[str, ...]] = {}
    for sector_id in sector_ids:
        spectrum = {
            "mmWave": rng.choice((200, 400, 800)) if rng.random() < 0.35 else 0,
            "mid_band": rng.choice((20, 40, 60, 80, 100)),
            "low_band": rng.choice((5, 10, 20, 30, 40, 50)),
        }
        sectors[sector_id] = {
            "active_users": rng.randint(50, 50000),
            "load_percentage": round(rng.uniform(5, 95), 1),
            "spectrum_available_mhz": spectrum,
        }
        sector_bands[sector_id] = tuple(k for k in SPECTRUM_KEYS if spectrum[k] > 0)
    nodes: dict[str, dict] = {}
    n_edge = max(1, n_nodes // 2)
    n_metro = max(0, (n_nodes - n_edge) * 2 // 3)
    for j in range(n_nodes):
        tier = "edge" if j < n_edge else "metro" if j < n_edge + n_metro else "regional"
        if tier == "edge":
            lo = j * n_sectors // n_edge
            hi = (j + 1) * n_sectors // n_edge
            row = {
                sid: round(rng.uniform(2, 9), 1) if lo <= i < hi else round(rng.uniform(10, 45), 1)
                for i, sid in enumerate(sector_ids)
            }
        elif tier == "metro":
            row = {sid: round(rng.uniform(8, 25), 1) for sid in sector_ids}
        else:
            row = {sid: round(rng.uniform(20, 45), 1) for sid in sector_ids}
        nodes[f"upf_{tier}_{j:02d}"] = {
            "type": tier,
            "latency_to_ran_ms": row,
            "compute_load_percent": round(rng.uniform(20, 95), 1),
        }
    doc: dict = {"sectors": sectors, "nodes": nodes}
    node_ids = tuple(nodes)
    if n_slices:
        ledger = []
        for k in range(n_slices):
            sector_id = rng.choice(sector_ids)
            ledger.append({
                "slice_id": f"ledger_{k:04d}",
                "sector": sector_id,
                "band": LEDGER_BANDS[rng.choice(sector_bands[sector_id])],
                "node": rng.choice(node_ids),
            })
        doc["provisioned_slices"] = ledger
    return Topology(
        document=json.dumps(doc, indent=2) + "\n",
        sector_bands=sector_bands,
        node_ids=node_ids,
    )


def intent(rng: random.Random, traffic_class: str, target: str | None) -> Intent:
    """One intent text of `traffic_class` naming `target` (or no sector) and
    its meant profile."""
    subject, subject_bw = rng.choice(SUBJECTS[traffic_class])
    # eMBB cannot take a low-rate fragment: every low-rate word of the
    # default lexicon is also an mMTC word.
    kinds = ("high", "none", "low") if traffic_class != "eMBB" else ("high", "none")
    kind = rng.choice(kinds)
    if kind == "high":
        fragment, bandwidth = " " + rng.choice(HIGH_FRAGMENTS), "high"
    elif kind == "low":
        fragment, bandwidth = " " + rng.choice(LOW_FRAGMENTS), "low"
    else:
        fragment, bandwidth = "", subject_bw or "medium"
    bound = rng.choice(BOUNDS_MS[traffic_class])
    bound_text = "" if bound is None else rng.choice(BOUND_TEMPLATES).format(bound)
    if target is None:
        place = rng.choice(UNTARGETED_PLACES)
    else:
        place = rng.choice(TARGETED_PLACES).format(target)
    text = f"Provision a slice for {subject}{fragment} {place}{bound_text}."
    tau = float(bound) if bound is not None else CLASS_TAU_DEFAULT_MS[traffic_class]
    return Intent(text, traffic_class, bandwidth, tau, target)


def class_blocks(rng: random.Random, blocks: int) -> list[str]:
    """`blocks` blocks of the three traffic classes, each in a random order."""
    return [c for _ in range(blocks) for c in rng.sample(CLASSES, len(CLASSES))]


def referee_intents(seed: int, topo: Topology, targeted: bool) -> list[Intent]:
    """INTENT_BLOCKS blocks of three intents, one per traffic class. With
    `targeted` each names one sector, as the bundled scenarios all do;
    without, none names a sector, so `solve` scans every candidate."""
    rng = _rng("referee-intents", seed, targeted)
    sector_ids = sorted(topo.sector_bands)
    return [
        intent(rng, traffic_class, rng.choice(sector_ids) if targeted else None)
        for traffic_class in class_blocks(rng, INTENT_BLOCKS)
    ]


@dataclass(frozen=True)
class Session:
    """A scripted agent session: the intent, the script document the
    ScriptedBackend replays, and what the run must end with."""

    intent: Intent
    script: str
    completions: int
    expected_config: tuple[str, str, str, str]  # sector, ledger band, node, slice id


def _specialist_reply(role: str, sector: str, band_key: str, node: str) -> str:
    if role == "ran_specialist":
        return (
            f"Reviewing {sector}: load, active users and per-band spectrum from the "
            "injected state.\n\n"
            f"RECOMMENDATION: Use {ACTION_BANDS[band_key]} at {sector} because it has "
            "free spectrum there and suits the requested traffic.\n"
        )
    return (
        f"Checking the latency row for {sector} and compute load across nodes.\n\n"
        f"RECOMMENDATION: Deploy UPF at {node} because it reaches {sector} within "
        "the budget with compute headroom to spare.\n"
    )


def _consult(role: str, request: str) -> dict:
    return {
        "response": (
            f"THOUGHT: I need the {role.replace('_', ' ')}'s view before deciding.\n\n"
            f"ACTION: CALL_AGENT | agent_name={role} | request={request}"
        )
    }


def _provision(slice_id: str, band_key: str, sector: str, node: str) -> dict:
    return {
        "response": (
            "THOUGHT: The recommendations are consistent, so I can provision.\n\n"
            f"ACTION: PROVISION_SLICE | slice_id={slice_id} | "
            f"ran_config={ACTION_BANDS[band_key]}@{sector} | core_config=UPF@{node}\n"
            f"ACTION: FINISH | summary=Slice {slice_id} provisioned at {sector} via {node}."
        )
    }


def agent_sessions(seed: int, topo: Topology) -> list[Session]:
    """SESSION_BLOCKS blocks of three scripted sessions, one per traffic
    class, each over an intent that names one sector.

    Every script has the shape of the bundled benchmark12 multi-agent
    scripts: RAN consult, Core consult, PROVISION_SLICE + FINISH (five
    completions). Token counts are left unset, so the ScriptedBackend's
    estimate follows the real prompt size.
    """
    rng = _rng("agent-sessions", seed)
    sector_ids = sorted(topo.sector_bands)
    sessions: list[Session] = []
    for k, traffic_class in enumerate(class_blocks(rng, SESSION_BLOCKS)):
        sector = rng.choice(sector_ids)
        meant = intent(rng, traffic_class, sector)
        band_key = rng.choice(topo.sector_bands[sector])
        node = rng.choice(topo.node_ids)
        slice_id = f"bench_{seed}_{k:03d}"
        exchanges = [
            _consult("ran_specialist", f"Which band should carry this service at {sector}?"),
            {"response": _specialist_reply("ran_specialist", sector, band_key, node)},
            _consult("core_specialist", f"Given {ACTION_BANDS[band_key]} at {sector}, which UPF?"),
            {"response": _specialist_reply("core_specialist", sector, band_key, node)},
            _provision(slice_id, band_key, sector, node),
        ]
        sessions.append(Session(
            intent=meant,
            script=json.dumps(exchanges, indent=2),
            completions=len(exchanges),
            expected_config=(sector, LEDGER_BANDS[band_key], node, slice_id),
        ))
    return sessions
