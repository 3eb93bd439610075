from __future__ import annotations

import json
import math
import re
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceweaver import data as bundled
from sliceweaver import intent
from sliceweaver.intent import (
    CLASS_TAU_DEFAULTS_MS,
    URLLC_BOUND_MS,
    BandwidthCategory,
    IntentProfile,
    Lexicon,
    TrafficClass,
    _keyword_pattern,
    classify_intent,
    explicit_latency_bound,
    extract_target_sector,
    keyword_hits,
    weights_for,
)
from sliceweaver.model import (
    CoreNode,
    NetworkState,
    NodeTier,
    RanSector,
    SpectrumBands,
    latency,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("ultra-low latency for real-time control", TrafficClass.URLLC),
        ("smart metering telemetry, thousands of sensors", TrafficClass.MMTC),
        ("4K streaming for stadium attendees", TrafficClass.EMBB),
    ],
)
def test_classify_traffic_examples(text, expected, lexicon):
    assert classify_intent(text, lexicon=lexicon).traffic_class is expected


@pytest.mark.parametrize(
    "text,expected",
    [
        (
            "automated robotic assembly line requiring precise real-time control",
            BandwidthCategory.MEDIUM,
        ),
        ("4K streaming", BandwidthCategory.HIGH),
        ("environmental monitoring sensors", BandwidthCategory.LOW),
    ],
)
def test_classify_bandwidth_examples(text, expected, lexicon):
    assert classify_intent(text, lexicon=lexicon).bandwidth_category is expected


def test_high_bandwidth_beats_low_when_both_present(lexicon):
    profile = classify_intent("video feeds from roadside sensors", lexicon=lexicon)
    assert profile.bandwidth_category is BandwidthCategory.HIGH


def test_extract_tau_req_patterns(lexicon):
    def tau(text):
        return classify_intent(text, lexicon=lexicon).tau_req_ms

    def class_and_tau(text):
        profile = classify_intent(text, lexicon=lexicon)
        return profile.traffic_class, profile.tau_req_ms

    assert tau("Requires ultra-low latency (<5ms)") == 5
    assert tau("keep it below 8 ms end to end") == 8
    assert tau("stay under 25 milliseconds") == 25
    # No explicit bound: class defaults.
    assert class_and_tau("real-time gaming") == (TrafficClass.URLLC, 10)
    assert class_and_tau("bulk video") == (TrafficClass.EMBB, 50)
    assert class_and_tau("smart meters") == (TrafficClass.MMTC, 1000)


def test_mmtc_default_is_latency_unconstrained_on_bundled_topology(state, lexicon):
    # Every sector/node pair satisfies the 1000 ms mMTC default.
    profile = classify_intent("smart meters", lexicon=lexicon)
    assert profile.traffic_class is TrafficClass.MMTC
    tau = profile.tau_req_ms
    for sector_id in state.sectors:
        for node_id in state.nodes:
            assert latency(state, sector_id, node_id) <= tau


def test_explicit_bound_reports_matched_text():
    value, matched = explicit_latency_bound("needs <5ms for control")
    assert value == 5
    assert matched == "<5ms"
    assert explicit_latency_bound("no numbers here") is None
    # A zero bound is meaningless and must not poison the profile.
    assert explicit_latency_bound("somehow <0ms") is None
    profile = classify_intent("control loop <0 ms and real-time anyway")
    assert profile.tau_req_ms == 10  # URLLC class default applies instead


def test_extract_target_sector(state, factory_intent):
    assert extract_target_sector(factory_intent, state) == "industrial_park_a"
    assert extract_target_sector("configure a slice somewhere cheap", state) is None
    assert (
        extract_target_sector("stadium_central overflow to city_plaza", state)
        == "stadium_central"
    )


@pytest.mark.parametrize("order", [("a", "a_b"), ("a_b", "a")])
def test_a_tie_goes_to_the_sector_that_comes_first_in_state_order(order):
    # Both ids match at the start of "a_b" ("_" is no letter or digit), so
    # the two matches tie on position and the earlier sector wins.
    sectors = {
        sid: RanSector(id=sid, active_users=1, load_percent=10.0,
                       spectrum=SpectrumBands(0.0, 50.0, 0.0))
        for sid in order
    }
    node = CoreNode(id="upf", tier=NodeTier.EDGE, compute_load_percent=10.0,
                    latency_to_sector=dict.fromkeys(order, 5.0))
    state = NetworkState(sectors=sectors, nodes={"upf": node})
    assert extract_target_sector("serve a_b now", state) == order[0]


def test_extract_target_sector_tolerates_spacing_and_case(state):
    assert extract_target_sector("cover Industrial Park A tomorrow", state) == "industrial_park_a"
    assert extract_target_sector("RURAL_HIGHWAY units", state) == "rural_highway"
    # Bare words that only form part of an id do not match.
    assert extract_target_sector("the stadium crowd", state) is None


@pytest.mark.parametrize(
    "traffic_class,expected",
    [
        (TrafficClass.URLLC, (0.8, 0.1, 0.1)),
        (TrafficClass.EMBB, (0.1, 0.3, 0.6)),
        (TrafficClass.MMTC, (0.1, 0.6, 0.3)),
    ],
)
def test_weights_for(traffic_class, expected):
    weights = weights_for(traffic_class)
    assert weights == expected
    assert sum(weights) == 1.0
    assert math.fsum(weights) == 1.0


def test_classification_is_deterministic(state, lexicon, factory_intent):
    first = classify_intent(factory_intent, state, lexicon)
    second = classify_intent(factory_intent, state, lexicon)
    assert first == second


def test_factory_intent_profile(state, lexicon, factory_intent):
    profile = classify_intent(factory_intent, state, lexicon)
    assert profile.traffic_class is TrafficClass.URLLC
    assert profile.bandwidth_category is BandwidthCategory.MEDIUM
    assert profile.tau_req_ms == 5
    assert profile.target_sector == "industrial_park_a"
    assert "ultra-low latency" in profile.matched_keywords


def test_explicit_small_bound_forces_urllc_over_other_keywords(lexicon):
    text = "telemetry from thousands of sensors, but control loop needs <5 ms"
    assert classify_intent(text, lexicon=lexicon).traffic_class is TrafficClass.URLLC
    # Above the bound threshold the keyword layers decide instead.
    relaxed = "telemetry from thousands of sensors, delivery under 500 ms"
    assert classify_intent(relaxed, lexicon=lexicon).traffic_class is TrafficClass.MMTC


def test_matched_keywords_nonempty_and_present_in_text(state, lexicon, scenarios):
    texts = [s.intent_text for s in scenarios] + [
        "instantaneous failover for the autonomous shuttle",
        "massive devices fleet check-in",
    ]
    for text in texts:
        profile = classify_intent(text, state, lexicon)
        if profile.traffic_class in (TrafficClass.URLLC, TrafficClass.MMTC):
            assert profile.matched_keywords, text
        for keyword in profile.matched_keywords:
            assert keyword.lower().replace("_", " ") in text.lower().replace("_", " ")


def reference_hits(text, keywords):
    """`keyword_hits` as one case-insensitive, word-bounded regex per keyword,
    separator runs standing for one another and an optional plural 's'."""
    found = []
    for keyword in keywords:
        escaped = re.escape(keyword.lower().strip())
        flexible = re.sub(r"(?:\\ |\\-|_)+", r"[\\s_-]+", escaped)
        if re.search(rf"(?<![a-z0-9]){flexible}s?(?![a-z0-9])", text, re.IGNORECASE):
            found.append(keyword)
    return found


def test_keyword_matching_uses_word_boundaries(lexicon):
    cases = [
        ("fifty kilometers of fibre", ("meter",), []),
        ("roll out smart meters", ("meter",), ["meter"]),
        ("advanced metering estate", ("meter", "metering"), ["metering"]),
        ("the IoT fleet", ("iot",), ["iot"]),
        ("patriot units", ("iot",), []),
        # The letters re.IGNORECASE matches to an ASCII one: long s, dotted
        # capital I, dotless i, Kelvin sign.
        ("\u017fensors", ("sensor",), ["sensor"]),
        ("\u0130oT", ("iot",), ["iot"]),
        ("\u0131ot and 4\u212a", ("iot", "4k"), ["iot", "4k"]),
        ("ultra low\u2003latency", ("ultra-low latency",), ["ultra-low latency"]),
        ("ultra-low, latency", ("ultra-low latency",), []),
        ("real-time\u017f", ("real time",), ["real time"]),
        ("a a b", ("a b", "a a b", "b a"), ["a b", "a a b"]),
    ]
    for text, keywords, expected in cases:
        assert keyword_hits(text, keywords) == expected, text
        assert reference_hits(text, keywords) == expected, text


SCAN_WORDS = ("a", "b", "s", "k", "i", "iot", "meter", "metering", "sensor", "5g", "4k")
SCAN_SEPARATORS = " -_\t\n\u00a0\u2003"
SCAN_PUNCTUATION = (",", ".", "(", ")", "+", "/", "|", "\u00e9")
# Each letter with every letter re.IGNORECASE matches to it.
SPELLINGS = {
    "i": ("i", "I", "\u0130", "\u0131"),
    "k": ("k", "K", "\u212a"),
    "s": ("s", "S", "\u017f"),
}
scan_keywords = st.builds(
    str.join,
    st.sampled_from((" ", "-", "_", " - ", "__")),
    st.lists(st.sampled_from(SCAN_WORDS), min_size=1, max_size=3),
)


@st.composite
def scan_cases(draw):
    """(text, keywords): texts of keyword and word spellings (any case, any
    separators or a punctuation mark between words, a plural s), punctuation,
    and joins that run words together."""
    keywords = tuple(draw(st.lists(scan_keywords, min_size=1, max_size=4)))
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(("keyword", "word", "punctuation")))
        if kind == "punctuation":
            pieces.append(draw(st.sampled_from(SCAN_PUNCTUATION)))
            continue
        if kind == "keyword":
            words = re.split(r"[ _-]+", draw(st.sampled_from(keywords)))
        else:
            words = [draw(st.sampled_from(SCAN_WORDS))]
        gaps = st.text(alphabet=SCAN_SEPARATORS + ",.", min_size=1, max_size=2)
        spelled = words[0] + "".join(draw(gaps) + word for word in words[1:])
        spelled = "".join(
            draw(st.sampled_from(SPELLINGS.get(c, (c, c.upper())))) for c in spelled
        )
        pieces.append(spelled + draw(st.sampled_from(("", "s", "S", "\u017f"))))
    joins = st.text(alphabet=SCAN_SEPARATORS + "".join(SCAN_PUNCTUATION), max_size=2)
    text = "".join(piece + draw(joins) for piece in pieces)
    return text, keywords


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_keyword_hits_equals_one_regex_per_keyword(case):
    text, keywords = case
    assert keyword_hits(text, keywords) == reference_hits(text, keywords)


@settings(max_examples=60, deadline=None)
@given(
    prefix=st.sampled_from(
        ["telemetry uplink", "4K broadcast", "massive devices", "plain connectivity"]
    ),
    bound=st.integers(min_value=1, max_value=10),
)
def test_small_explicit_bounds_always_classify_urllc(prefix, bound, lexicon):
    text = f"{prefix} with latency <{bound}ms"
    profile = classify_intent(text, lexicon=lexicon)
    assert profile.traffic_class is TrafficClass.URLLC
    assert profile.tau_req_ms == bound


# The two-pattern bound finder that one pattern replaced, kept as the reference.
REFERENCE_BOUND_PATTERNS = (
    re.compile(r"<\s*(\d+(?:\.\d+)?)\s*(?:ms|milliseconds?)(?![a-z])", re.IGNORECASE),
    re.compile(
        r"(?:\bbelow\b|\bunder\b)\s*(\d+(?:\.\d+)?)\s*(?:ms|milliseconds?)(?![a-z])",
        re.IGNORECASE,
    ),
)


def reference_bound(text):
    matches = [
        m
        for pat in REFERENCE_BOUND_PATTERNS
        for m in pat.finditer(text)
        if float(m.group(1)) > 0
    ]
    if not matches:
        return None
    first = min(matches, key=lambda m: m.start())
    return float(first.group(1)), first.group(0).strip()


BOUND_WORDS = ("<", "below", "under", "ms", "millisecond", "milliseconds", "latency", "a")
# Separators, and letters that re.IGNORECASE matches to an ASCII one: the
# dotted capital I, the long s and the Kelvin sign.
BOUND_ODD = (" ", "  ", "\t", "\n", "\u00a0", "_", "-", ",", ".", "(", "\u0130", "\u017f",
             "\u212a", "x")
bound_numbers = st.one_of(
    st.integers(0, 200).map(str),
    st.from_regex(r"[0-9]{1,3}\.[0-9]{1,2}", fullmatch=True),
    st.sampled_from(("0", "0.0", "00", "3.", ".5")),
)


def mixed_case(draw, word):
    """The word in mixed case; an "i", "k" or "s" may be an odd spelling."""
    return "".join(draw(st.sampled_from(SPELLINGS.get(c, (c, c.upper())))) for c in word)


@st.composite
def bound_texts(draw):
    """Texts of bounds ("<", "below" or "under", a number, a unit, maybe a
    letter after it) and of loose bound words, numbers, separators and odd
    letters, run together or apart."""
    gaps = st.sampled_from(("", "", " ", "  ", "\t", "\u00a0", "_"))
    pieces = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(("bound", "bound", "bound", "word", "number", "odd")))
        if kind == "bound":
            prefix = mixed_case(draw, draw(st.sampled_from(("<", "below", "under"))))
            unit = mixed_case(draw, draw(st.sampled_from(("ms", "millisecond", "milliseconds"))))
            after = draw(st.sampled_from(("", "", "s", "x", "1", ".", "\u212a", "\u017f")))
            pieces.append(prefix + draw(gaps) + draw(bound_numbers) + draw(gaps) + unit + after)
        elif kind == "word":
            pieces.append(mixed_case(draw, draw(st.sampled_from(BOUND_WORDS))))
        elif kind == "number":
            pieces.append(draw(bound_numbers))
        else:
            pieces.append(draw(st.sampled_from(BOUND_ODD)))
    return "".join(pieces)


@settings(max_examples=500, deadline=None)
@given(bound_texts())
def test_explicit_latency_bound_equals_the_two_pattern_reference(text):
    assert explicit_latency_bound(text) == reference_bound(text)


@pytest.mark.parametrize("text", [
    "below 5ms", "UNDER 2.5 Milliseconds", "<0ms then under 3 ms", "under 0 ms <7ms",
    "<5msx", "<5 mſ", "thunder 5 ms", "below5ms", "<  12.25\tmillisecond ok",
])
def test_explicit_latency_bound_equals_the_reference_on_edge_texts(text):
    assert explicit_latency_bound(text) == reference_bound(text)


def test_classify_reuses_its_patterns_past_512_sectors(lexicon):
    # 600 sector ids plus the lexicon keywords need more than 512 patterns;
    # once warm, a classify must compile none of them again.
    sector_ids = [f"cell_{i:03d}" for i in range(600)]
    sectors = {
        sid: RanSector(id=sid, active_users=1, load_percent=10.0,
                       spectrum=SpectrumBands(0.0, 50.0, 0.0))
        for sid in sector_ids
    }
    node = CoreNode(id="upf", tier=NodeTier.EDGE, compute_load_percent=10.0,
                    latency_to_sector=dict.fromkeys(sector_ids, 5.0))
    big = NetworkState(sectors=sectors, nodes={"upf": node})
    text = "smart metering telemetry at cell_599"
    assert classify_intent(text, big, lexicon).target_sector == "cell_599"
    misses = _keyword_pattern.cache_info().misses
    assert classify_intent(text, big, lexicon).target_sector == "cell_599"
    assert _keyword_pattern.cache_info().misses == misses


@pytest.mark.parametrize("tau_req_ms", [0.0, -1.0, math.nan])
def test_profile_rejects_a_latency_bound_that_is_not_positive(tau_req_ms):
    # NaN passed `tau_req_ms <= 0` and made every candidate latency-infeasible.
    with pytest.raises(ValueError, match="tau_req_ms must be > 0"):
        IntentProfile(
            raw_text="x", traffic_class=TrafficClass.EMBB,
            bandwidth_category=BandwidthCategory.MEDIUM, tau_req_ms=tau_req_ms,
        )


LEXICON_FIELDS = ("urllc", "mmtc", "bandwidth_high", "bandwidth_low")


@pytest.mark.parametrize("keyword", ["caf\u00e9", "5G+", "a\tb", "-video", "x.y", "4\u212a"])
def test_lexicon_rejects_keywords_outside_the_word_alphabet(keyword):
    # The word scan reads only ASCII letter/digit words parted by
    # separators, so a keyword it could not find is refused at load.
    message = re.escape(f"lexicon field 'bandwidth_high': keyword {keyword!r} is not ASCII")
    for path in (bundled.default_lexicon_path(), bundled.strict_lexicon_path()):
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["bandwidth_high"].append(keyword)
        with pytest.raises(ValueError, match=message):
            Lexicon.from_dict(doc)
    with pytest.raises(ValueError, match=message):
        Lexicon(urllc=(), mmtc=(), bandwidth_high=(keyword,), bandwidth_low=())
    with pytest.raises(ValueError, match=re.escape(f"keyword {keyword!r} is not ASCII")):
        keyword_hits("video", (keyword,))


def test_lexicon_takes_keywords_with_surrounding_whitespace():
    lexicon = Lexicon(urllc=(" real time\t",), mmtc=(), bandwidth_high=(), bandwidth_low=())
    assert classify_intent("REAL-TIMES", lexicon=lexicon).matched_keywords == (" real time\t",)


@pytest.mark.parametrize("keyword", ["", "  ", "-", "_"])
def test_lexicon_rejects_keywords_without_a_letter_or_digit(keyword):
    # A keyword of separators alone matched text that held no keyword: with
    # bandwidth_high [" "], classify_intent("") read bandwidth high.
    for path in (bundled.default_lexicon_path(), bundled.strict_lexicon_path()):
        doc = json.loads(path.read_text(encoding="utf-8"))
        Lexicon.from_dict(doc)
        doc["bandwidth_high"].append(keyword)
        with pytest.raises(ValueError, match="no letter or digit"):
            Lexicon.from_dict(doc)
    with pytest.raises(ValueError, match="no letter or digit"):
        Lexicon(urllc=(), mmtc=(keyword,), bandwidth_high=(), bandwidth_low=())


def test_lexicon_refuses_a_key_that_is_not_a_field():
    # A fifth list was loaded and silently dropped.
    for path in (bundled.default_lexicon_path(), bundled.strict_lexicon_path()):
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert Lexicon.from_dict(doc) == Lexicon.from_file(path)
        doc["embb"] = ["video"]
        with pytest.raises(ValueError, match=re.escape("unknown field(s) ['embb']")):
            Lexicon.from_dict(doc)


def test_lexicon_from_file_raises_only_value_error_naming_the_file(bad_json_file):
    with pytest.raises(ValueError, match=re.escape(str(bad_json_file))) as raised:
        Lexicon.from_file(bad_json_file)
    # JSONDecodeError and UnicodeDecodeError are ValueErrors too.
    assert raised.type is ValueError


@pytest.mark.parametrize("value", ["abc", ["urllc", 1], None], ids=["string", "mixed", "null"])
def test_lexicon_from_dict_rejects_a_field_that_is_not_a_list_of_strings(value):
    # A string is iterable: read as keywords it would be "a", "b" and "c".
    doc = dict.fromkeys(LEXICON_FIELDS, ["x"])
    doc["urllc"] = value
    with pytest.raises(ValueError, match="lexicon field 'urllc' must be a list of strings"):
        Lexicon.from_dict(doc)


@pytest.mark.parametrize("doc", [[], "urllc", None], ids=["list", "string", "null"])
def test_lexicon_from_dict_rejects_a_document_that_is_not_an_object(doc):
    with pytest.raises(ValueError, match="lexicon must be a JSON object"):
        Lexicon.from_dict(doc)


@pytest.mark.parametrize("lexicon_name", ["default", "strict"])
def test_classify_finds_the_bound_once_and_searches_each_list_once(
    monkeypatch, state, scenarios, lexicon_name
):
    lexicon = getattr(bundled, f"{lexicon_name}_lexicon")()
    scans, searched, bounds = [], [], []
    real_scan, real_hits, real_bound = (
        intent._scan_words, intent._hits_in, intent.explicit_latency_bound
    )

    def recording_scan(text):
        scans.append(text)
        return real_scan(text)

    def recording_hits(words, keywords):
        searched.append(keywords)
        return real_hits(words, keywords)

    def recording_bound(text):
        bounds.append(text)
        return real_bound(text)

    monkeypatch.setattr(intent, "_scan_words", recording_scan)
    monkeypatch.setattr(intent, "_hits_in", recording_hits)
    monkeypatch.setattr(intent, "explicit_latency_bound", recording_bound)
    assert len(scenarios) == 12
    for scenario in scenarios:
        scans.clear()
        searched.clear()
        bounds.clear()
        classify_intent(scenario.intent_text, state, lexicon)
        assert len(bounds) == 1, scenario.id
        assert scans == [scenario.intent_text], scenario.id
        # `urllc` and `bandwidth_high` are always looked up.
        assert searched[0] is lexicon.urllc, scenario.id
        assert any(kw is lexicon.bandwidth_high for kw in searched), scenario.id
        for name in LEXICON_FIELDS:
            keywords = getattr(lexicon, name)
            assert sum(kw is keywords for kw in searched) <= 1, (scenario.id, name)


def reference_classify(text, state, lexicon):
    """The derivation the one-pass classify_intent replaced: a helper per
    decision, then the chosen lists searched again for the matched keywords."""

    def classify_traffic():
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

    def classify_bandwidth():
        if keyword_hits(text, lexicon.bandwidth_high):
            return BandwidthCategory.HIGH
        if keyword_hits(text, lexicon.bandwidth_low):
            return BandwidthCategory.LOW
        return BandwidthCategory.MEDIUM

    def extract_tau_req(traffic_class):
        bound = explicit_latency_bound(text)
        if bound is not None:
            return bound[0]
        return CLASS_TAU_DEFAULTS_MS[traffic_class]

    traffic_class = classify_traffic()
    bandwidth = classify_bandwidth()
    matched = []
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
    return IntentProfile(
        raw_text=text,
        traffic_class=traffic_class,
        bandwidth_category=bandwidth,
        tau_req_ms=extract_tau_req(traffic_class),
        target_sector=extract_target_sector(text, state) if state is not None else None,
        matched_keywords=tuple(dict.fromkeys(matched)),
    )


@cache
def bundled_inputs():
    lexicons = (bundled.default_lexicon(), bundled.strict_lexicon())
    keywords = sorted(
        {kw for lex in lexicons for name in LEXICON_FIELDS for kw in getattr(lex, name)}
    )
    return lexicons, keywords, bundled.default_state()


SEPARATORS = (" ", "-", "_", "  ", " - ", "__")
JOINERS = (" ", ", ", "; ", "")
BLANKS = ("", " ", "\t\n ")
FILLER = ("the", "for", "with", "slice", "needs", "loop", "and", "at", ",", "(", ")", "ms", "5")
BOUND_VALUES = ("0", "0.5", "5", "10", "10.5", "25", "500")
BOUND_FORMS = (
    "<{n}ms", "< {n} ms", "<{n} milliseconds", "<{n}millisecond",
    "below {n} ms", "below {n}ms", "under {n} milliseconds", "Under {n} MS",
)
generated_keywords = st.builds(
    str.join,
    st.sampled_from(SEPARATORS[:3]),
    st.lists(st.text(alphabet="abceiost01", min_size=1, max_size=4), min_size=1, max_size=2),
)


def spell(draw, word):
    """`word` in random case, with random separators between its parts and
    an optional plural 's'."""
    parts = re.split(r"[\s_-]+", word)
    text = draw(st.sampled_from(SEPARATORS)).join(parts) + draw(st.sampled_from(("", "s", "S")))
    flips = draw(st.integers(min_value=0, max_value=2 ** len(text) - 1))
    return "".join(c.swapcase() if flips >> i & 1 else c for i, c in enumerate(text))


@st.composite
def classify_inputs(draw):
    """(text, state, lexicon): texts of bundled and lexicon keywords, bounds,
    bundled sector ids and filler, or blank; the bundled or a generated
    lexicon; the bundled state or None."""
    lexicons, bundled_keywords, bundled_state = bundled_inputs()
    if draw(st.booleans()):
        lexicon = draw(st.sampled_from(lexicons))
    else:
        keyword_list = st.lists(
            st.one_of(st.sampled_from(bundled_keywords), generated_keywords), max_size=4
        )
        lexicon = Lexicon(**{name: tuple(draw(keyword_list)) for name in LEXICON_FIELDS})
    lexicon_keywords = [kw for name in LEXICON_FIELDS for kw in getattr(lexicon, name)]
    if draw(st.integers(min_value=0, max_value=9)) == 9:
        return draw(st.sampled_from(BLANKS)), draw(st.sampled_from((None, bundled_state))), lexicon
    pieces = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(("keyword", "lexicon", "bound", "sector", "filler")))
        if kind == "keyword" or (kind == "lexicon" and not lexicon_keywords):
            pieces.append(spell(draw, draw(st.sampled_from(bundled_keywords))))
        elif kind == "lexicon":
            pieces.append(spell(draw, draw(st.sampled_from(lexicon_keywords))))
        elif kind == "bound":
            form = draw(st.sampled_from(BOUND_FORMS))
            pieces.append(form.format(n=draw(st.sampled_from(BOUND_VALUES))))
        elif kind == "sector":
            pieces.append(spell(draw, draw(st.sampled_from(sorted(bundled_state.sectors)))))
        else:
            pieces.append(draw(st.sampled_from(FILLER)))
    text = draw(st.sampled_from(JOINERS)).join(pieces)
    return text, draw(st.sampled_from((None, bundled_state))), lexicon


@settings(max_examples=200, deadline=None)
@given(classify_inputs())
def test_one_pass_classify_equals_the_reference_derivation(case):
    text, state, lexicon = case
    assert classify_intent(text, state, lexicon) == reference_classify(text, state, lexicon)
