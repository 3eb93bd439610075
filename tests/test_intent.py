from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceweaver.intent import (
    BandwidthCategory,
    TrafficClass,
    _keyword_pattern,
    classify_bandwidth,
    classify_intent,
    classify_traffic,
    explicit_latency_bound,
    extract_target_sector,
    extract_tau_req,
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
    assert classify_traffic(text, lexicon) is expected


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
    assert classify_bandwidth(text, lexicon) is expected


def test_high_bandwidth_beats_low_when_both_present(lexicon):
    assert classify_bandwidth("video feeds from roadside sensors", lexicon) is BandwidthCategory.HIGH


def test_extract_tau_req_patterns(lexicon):
    assert extract_tau_req("Requires ultra-low latency (<5ms)", TrafficClass.URLLC) == 5
    assert extract_tau_req("keep it below 8 ms end to end", TrafficClass.EMBB) == 8
    assert extract_tau_req("stay under 25 milliseconds", TrafficClass.EMBB) == 25
    # No explicit bound: class defaults.
    assert extract_tau_req("real-time gaming", TrafficClass.URLLC) == 10
    assert extract_tau_req("bulk video", TrafficClass.EMBB) == 50
    assert extract_tau_req("smart meters", TrafficClass.MMTC) == 1000


def test_mmtc_default_is_latency_unconstrained_on_bundled_topology(state):
    # Every sector/node pair satisfies the 1000 ms mMTC default.
    tau = extract_tau_req("smart meters", TrafficClass.MMTC)
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
    assert classify_traffic(text, lexicon) is TrafficClass.URLLC
    # Above the bound threshold the keyword layers decide instead.
    relaxed = "telemetry from thousands of sensors, delivery under 500 ms"
    assert classify_traffic(relaxed, lexicon) is TrafficClass.MMTC


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


def test_keyword_matching_uses_word_boundaries(lexicon):
    assert keyword_hits("fifty kilometers of fibre", ("meter",)) == []
    assert keyword_hits("roll out smart meters", ("meter",)) == ["meter"]
    assert keyword_hits("advanced metering estate", ("meter", "metering")) == ["metering"]
    assert keyword_hits("the IoT fleet", ("iot",)) == ["iot"]
    assert keyword_hits("patriot units", ("iot",)) == []


@settings(max_examples=60, deadline=None)
@given(
    prefix=st.sampled_from(
        ["telemetry uplink", "4K broadcast", "massive devices", "plain connectivity"]
    ),
    bound=st.integers(min_value=1, max_value=10),
)
def test_small_explicit_bounds_always_classify_urllc(prefix, bound, lexicon):
    text = f"{prefix} with latency <{bound}ms"
    assert classify_traffic(text, lexicon) is TrafficClass.URLLC
    assert extract_tau_req(text, classify_traffic(text, lexicon)) == bound


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
