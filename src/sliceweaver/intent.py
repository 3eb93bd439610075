"""Deterministic intent classification.

Turns raw natural-language slice intents into an IntentProfile: traffic class
(URLLC / eMBB / mMTC), bandwidth category, latency requirement, and an
optional target sector. This is the rule-based referee used by scoring, the
oracle, and the rule-based baseline; the LLM agents do their own semantic
interpretation.

Classification is keyword-driven against a lexicon loaded from a data file,
so the strict/frozen-lexicon brittleness experiments stay reproducible.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from functools import cache
from pathlib import Path

from .model import NetworkState


class TrafficClass(str, Enum):
    URLLC = "URLLC"
    EMBB = "eMBB"
    MMTC = "mMTC"


class BandwidthCategory(str, Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


# Per-class default latency requirement (ms) when the text has no explicit
# bound: URLLC must reach edge-grade latency, eMBB tolerates metro/regional,
# mMTC is effectively latency-unconstrained.
CLASS_TAU_DEFAULTS_MS: dict[TrafficClass, float] = {
    TrafficClass.URLLC: 10.0,
    TrafficClass.EMBB: 50.0,
    TrafficClass.MMTC: 1000.0,
}

# (w_latency, w_resource, w_congestion) per traffic class.
CLASS_WEIGHTS: dict[TrafficClass, tuple[float, float, float]] = {
    TrafficClass.URLLC: (0.8, 0.1, 0.1),
    TrafficClass.EMBB: (0.1, 0.3, 0.6),
    TrafficClass.MMTC: (0.1, 0.6, 0.3),
}

# An explicit bound at or below this many ms forces URLLC.
URLLC_BOUND_MS = 10.0

_BOUND_PATTERNS = (
    re.compile(r"<\s*(\d+(?:\.\d+)?)\s*(?:ms|milliseconds?)(?![a-z])", re.IGNORECASE),
    re.compile(
        r"(?:\bbelow\b|\bunder\b)\s*(\d+(?:\.\d+)?)\s*(?:ms|milliseconds?)(?![a-z])",
        re.IGNORECASE,
    ),
)


@dataclass(frozen=True)
class Lexicon:
    """Keyword lists driving classification. Matching is case-insensitive,
    word-bounded, space/hyphen/underscore tolerant, with optional plural 's'.
    """

    urllc: tuple[str, ...]
    mmtc: tuple[str, ...]
    bandwidth_high: tuple[str, ...]
    bandwidth_low: tuple[str, ...]

    @classmethod
    def from_dict(cls, doc: dict) -> "Lexicon":
        def pull(key: str) -> tuple[str, ...]:
            value = doc.get(key)
            if not isinstance(value, list) or not all(isinstance(k, str) for k in value):
                raise ValueError(f"lexicon field {key!r} must be a list of strings")
            return tuple(value)

        return cls(
            urllc=pull("urllc"),
            mmtc=pull("mmtc"),
            bandwidth_high=pull("bandwidth_high"),
            bandwidth_low=pull("bandwidth_low"),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "Lexicon":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class IntentProfile:
    """Everything the scoring pipeline needs to know about one intent."""

    raw_text: str
    traffic_class: TrafficClass
    bandwidth_category: BandwidthCategory
    tau_req_ms: float
    target_sector: str | None = None
    matched_keywords: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.tau_req_ms <= 0:
            raise ValueError(f"tau_req_ms must be > 0, got {self.tau_req_ms}")


# Unbounded: its keys are the lexicon keywords and sector ids of the inputs a
# process loads, and a bound below a topology's sector count would evict each
# pattern before its next use, so every classify would recompile them all.
@cache
def _keyword_pattern(keyword: str) -> re.Pattern:
    # Word-bounded, separator-tolerant ("mid band" ~ "mid-band"), optional
    # trailing plural so "sensors" matches "sensor" but "metering" does not
    # match "meter".
    escaped = re.escape(keyword.lower().strip())
    flexible = re.sub(r"(?:\\ |\\-|_)+", r"[\\s_-]+", escaped)
    return re.compile(rf"(?<![a-z0-9]){flexible}s?(?![a-z0-9])", re.IGNORECASE)


def keyword_hits(text: str, keywords: tuple[str, ...]) -> list[str]:
    """Keywords from the list that occur in the text."""
    return [kw for kw in keywords if _keyword_pattern(kw).search(text)]


def explicit_latency_bound(text: str) -> tuple[float, str] | None:
    """First explicit latency bound in the text ("<N ms", "below/under N ms").

    Returns (value in ms, the matched substring), or None.
    """
    matches = [
        m
        for pat in _BOUND_PATTERNS
        for m in pat.finditer(text)
        if float(m.group(1)) > 0  # "<0 ms" is not a meaningful bound
    ]
    if not matches:
        return None
    first = min(matches, key=lambda m: m.start())
    return float(first.group(1)), first.group(0).strip()


def classify_traffic(text: str, lexicon: Lexicon) -> TrafficClass:
    """URLLC on an explicit bound <= 10 ms or a URLLC keyword, then mMTC on a
    massive-IoT keyword, else eMBB."""
    if not text.strip():
        return TrafficClass.EMBB
    bound = explicit_latency_bound(text)
    if bound is not None and bound[0] <= URLLC_BOUND_MS:
        return TrafficClass.URLLC
    if keyword_hits(text, lexicon.urllc):
        return TrafficClass.URLLC
    if keyword_hits(text, lexicon.mmtc):
        return TrafficClass.MMTC
    return TrafficClass.EMBB


def classify_bandwidth(text: str, lexicon: Lexicon) -> BandwidthCategory:
    """High-capacity keywords win, then low-rate keywords, else medium."""
    if keyword_hits(text, lexicon.bandwidth_high):
        return BandwidthCategory.HIGH
    if keyword_hits(text, lexicon.bandwidth_low):
        return BandwidthCategory.LOW
    return BandwidthCategory.MEDIUM


def extract_tau_req(text: str, traffic_class: TrafficClass) -> float:
    """Explicit bound if present, otherwise the class default."""
    bound = explicit_latency_bound(text)
    if bound is not None:
        return bound[0]
    return CLASS_TAU_DEFAULTS_MS[traffic_class]


def extract_target_sector(text: str, state: NetworkState) -> str | None:
    """First sector id of the state named verbatim in the text.

    Case-insensitive and tolerant of spaces standing in for underscores.
    """
    earliest: tuple[int, str] | None = None
    for sector_id in state.sectors:
        match = _keyword_pattern(sector_id).search(text)
        if match and (earliest is None or match.start() < earliest[0]):
            earliest = (match.start(), sector_id)
    return earliest[1] if earliest else None


def weights_for(traffic_class: TrafficClass) -> tuple[float, float, float]:
    """Scoring weights (w_latency, w_resource, w_congestion); they sum to 1."""
    return CLASS_WEIGHTS[traffic_class]


def classify_intent(
    text: str,
    state: NetworkState | None = None,
    lexicon: Lexicon | None = None,
) -> IntentProfile:
    """Build the full profile for an intent. Pure and deterministic."""
    if lexicon is None:
        from .data import default_lexicon

        lexicon = default_lexicon()
    traffic_class = classify_traffic(text, lexicon)
    bandwidth = classify_bandwidth(text, lexicon)
    matched: list[str] = []
    bound = explicit_latency_bound(text)
    if traffic_class is TrafficClass.URLLC:
        matched.extend(keyword_hits(text, lexicon.urllc))
        if bound is not None and bound[0] <= URLLC_BOUND_MS:
            matched.append(bound[1])
    elif traffic_class is TrafficClass.MMTC:
        matched.extend(keyword_hits(text, lexicon.mmtc))
    if bandwidth is BandwidthCategory.HIGH:
        matched.extend(keyword_hits(text, lexicon.bandwidth_high))
    elif bandwidth is BandwidthCategory.LOW:
        matched.extend(keyword_hits(text, lexicon.bandwidth_low))
    seen: dict[str, None] = dict.fromkeys(matched)
    return IntentProfile(
        raw_text=text,
        traffic_class=traffic_class,
        bandwidth_category=bandwidth,
        tau_req_ms=extract_tau_req(text, traffic_class),
        target_sector=extract_target_sector(text, state) if state is not None else None,
        matched_keywords=tuple(seen),
    )
