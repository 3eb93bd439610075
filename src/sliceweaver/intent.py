"""Deterministic intent classification.

Turns raw natural-language slice intents into an IntentProfile: traffic class
(URLLC / eMBB / mMTC), bandwidth category, latency requirement, and an
optional target sector. This is the rule-based referee used by scoring, the
oracle, and the rule-based baseline; the LLM agents do their own semantic
interpretation.

Classification is keyword-driven against a lexicon loaded from a data file,
so the strict/frozen-lexicon brittleness experiments stay reproducible.
`classify_intent` holds every decision rule: one pass finds the latency bound
once, reads the text's words once, looks each lexicon list up in those words
at most once and derives the whole profile from those hits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache
from pathlib import Path

from .model import NetworkState, read_json


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

    Once stripped, a keyword is ASCII letter/digit words separated by
    spaces, hyphens or underscores ("ultra-low latency", "4K"), the words
    that `keyword_hits` can find in a text's word scan. Anything else raises
    ValueError naming the field and the keyword: one with no letter or digit
    would match text that holds no keyword at all.
    """

    urllc: tuple[str, ...]
    mmtc: tuple[str, ...]
    bandwidth_high: tuple[str, ...]
    bandwidth_low: tuple[str, ...]

    def __post_init__(self) -> None:
        for field in fields(self):
            for keyword in getattr(self, field.name):
                try:
                    _keyword_words(keyword)
                except ValueError as exc:
                    raise ValueError(f"lexicon field {field.name!r}: {exc}") from None

    @classmethod
    def from_dict(cls, doc: dict) -> "Lexicon":
        """The lexicon of a parsed document: one list of strings per field
        of `Lexicon`; any other key raises ValueError."""
        if not isinstance(doc, dict):
            raise ValueError(f"lexicon must be a JSON object, got {type(doc).__name__}")
        unknown = doc.keys() - _LEXICON_KEYS
        if unknown:
            raise ValueError(f"lexicon has unknown field(s) {sorted(unknown)}")

        def pull(key: str) -> tuple[str, ...]:
            value = doc.get(key)
            if not isinstance(value, list) or not all(isinstance(k, str) for k in value):
                raise ValueError(f"lexicon field {key!r} must be a list of strings")
            return tuple(value)

        return cls(**{key: pull(key) for key in _LEXICON_KEYS})

    @classmethod
    def from_file(cls, path: str | Path) -> "Lexicon":
        """Load a lexicon file; every defect of the file raises ValueError."""
        return cls.from_dict(read_json(path, "lexicon", ValueError))


_LEXICON_KEYS = tuple(f.name for f in fields(Lexicon))


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
        if not self.tau_req_ms > 0:  # NaN fails every comparison
            raise ValueError(f"tau_req_ms must be > 0, got {self.tau_req_ms}")


# Unbounded: its keys are the sector ids of the states a process classifies
# against, and a bound below a topology's sector count would evict each
# pattern before its next use, so every classify would recompile them all.
@cache
def _keyword_pattern(keyword: str) -> re.Pattern:
    # For sector ids: word-bounded, separator-tolerant ("industrial park a" ~
    # "industrial_park_a"), optional trailing plural, case-insensitive.
    # `keyword_hits` applies the same rules to lexicon keywords by word scan.
    escaped = re.escape(keyword.lower().strip())
    flexible = re.sub(r"(?:\\ |\\-|_)+", r"[\\s_-]+", escaped)
    return re.compile(rf"(?<![a-z0-9]){flexible}s?(?![a-z0-9])", re.IGNORECASE)


# The letters that re.IGNORECASE matches to an ASCII letter but str.lower()
# does not lower to one ("İ".lower() is "i" and a combining dot).
_IGNORECASE_TO_ASCII = str.maketrans(
    {"\u0130": "i", "\u0131": "i", "\u017f": "s", "\u212a": "k"}
)
# A word, or a run of what is neither a word nor a separator (whitespace, "_",
# "-"). Separators fall between tokens, so two words are neighbours in the
# token list exactly when only separators part them in the text.
_TOKEN_RE = re.compile(r"[a-z0-9]+|[^a-z0-9\s_-]+")
_KEYWORD_RE = re.compile(r"[A-Za-z0-9]+(?:[ _-]+[A-Za-z0-9]+)*")


def _keyword_words(keyword: str) -> str:
    """The keyword's lowercased words joined by single spaces; ValueError for
    a keyword that is not ASCII letter/digit words parted by separators."""
    stripped = keyword.strip()
    if not _KEYWORD_RE.fullmatch(stripped):
        if not any(ch.isalnum() for ch in stripped):
            raise ValueError(f"keyword {keyword!r} has no letter or digit")
        raise ValueError(
            f"keyword {keyword!r} is not ASCII letter or digit words separated by "
            "spaces, hyphens or underscores"
        )
    return " ".join(_TOKEN_RE.findall(stripped.lower()))


@cache
def _keyword_probes(keywords: tuple[str, ...]) -> tuple[tuple[str, bool, str, str], ...]:
    """Per keyword: (keyword, whether it is one word, what to look up, the
    same with a plural "s")."""
    probes = []
    for keyword in keywords:
        words = _keyword_words(keyword)
        if " " in words:
            probes.append((keyword, False, f" {words} ", f" {words}s "))
        else:
            probes.append((keyword, True, words, words + "s"))
    return tuple(probes)


def _scan_words(text: str) -> tuple[frozenset[str], str]:
    """The text's tokens, read once: as a set, and as one line of tokens
    parted by single spaces with a space at each end."""
    tokens = _TOKEN_RE.findall(text.translate(_IGNORECASE_TO_ASCII).lower())
    return frozenset(tokens), f" {' '.join(tokens)} "


def _hits_in(words: tuple[frozenset[str], str], keywords: tuple[str, ...]) -> list[str]:
    """Keywords from the list found in a text's `_scan_words`: a one-word
    keyword is a token, a longer one a run of neighbouring tokens."""
    tokens, line = words
    hits = []
    for keyword, one_word, probe, plural in _keyword_probes(keywords):
        where = tokens if one_word else line
        if probe in where or plural in where:
            hits.append(keyword)
    return hits


def keyword_hits(text: str, keywords: tuple[str, ...]) -> list[str]:
    """Keywords from the list that occur in the text: case-insensitive, as
    whole words, any run of separators standing for one, an "s" allowed
    after the last word. A keyword `Lexicon` refuses raises ValueError."""
    return _hits_in(_scan_words(text), keywords)


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
    """Build the full profile for an intent. Pure and deterministic.

    One pass: the latency bound is found once, the words are read once, and
    each lexicon list is looked up in them at most once (`mmtc` only when the
    intent is not URLLC, `bandwidth_low` only when `bandwidth_high` has no
    hit). The profile follows from those:

    - class: URLLC on an explicit bound <= URLLC_BOUND_MS or a URLLC keyword,
      then mMTC on a massive-IoT keyword, else eMBB;
    - bandwidth: high-capacity keywords win, then low-rate keywords, else
      medium;
    - tau_req_ms: the explicit bound if present, otherwise the class default;
    - matched_keywords: the chosen class list's hits, then the bound's text
      when the bound forced URLLC, then the chosen bandwidth list's hits,
      each kept once, at its first place.
    """
    if lexicon is None:
        from .data import default_lexicon

        lexicon = default_lexicon()
    bound = explicit_latency_bound(text)
    words = _scan_words(text)
    matched = _hits_in(words, lexicon.urllc)
    if bound is not None and bound[0] <= URLLC_BOUND_MS:
        matched.append(bound[1])
    if matched:
        traffic_class = TrafficClass.URLLC
    else:
        matched = _hits_in(words, lexicon.mmtc)
        traffic_class = TrafficClass.MMTC if matched else TrafficClass.EMBB
    bandwidth_hits = _hits_in(words, lexicon.bandwidth_high)
    if bandwidth_hits:
        bandwidth = BandwidthCategory.HIGH
    else:
        bandwidth_hits = _hits_in(words, lexicon.bandwidth_low)
        bandwidth = BandwidthCategory.LOW if bandwidth_hits else BandwidthCategory.MEDIUM
    return IntentProfile(
        raw_text=text,
        traffic_class=traffic_class,
        bandwidth_category=bandwidth,
        tau_req_ms=bound[0] if bound is not None else CLASS_TAU_DEFAULTS_MS[traffic_class],
        target_sector=extract_target_sector(text, state) if state is not None else None,
        matched_keywords=tuple(dict.fromkeys(matched + bandwidth_hits)),
    )
