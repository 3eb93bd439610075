from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceweaver.intent import BandwidthCategory, TrafficClass, classify_intent
from sliceweaver.model import (
    Band,
    ProvisioningError,
    SliceConfiguration,
    UnknownIdError,
    validate_config,
)
from sliceweaver.scoring import (
    Thresholds,
    check_constraints,
    compute_utility,
    round_half_up,
    score_congestion,
    score_latency,
    score_resource,
)

GOLDEN_INDUSTRIAL = SliceConfiguration("industrial_park_a", Band.MID_BAND, "mec_industrial_1")
GOLDEN_ESPORTS = SliceConfiguration("stadium_central", Band.MMWAVE, "mec_stadium_1")


def profile_for(text, state, lexicon):
    return classify_intent(text, state, lexicon)


@pytest.mark.parametrize(
    "tau,expected",
    [
        (3, 1.0),
        (9.999, 1.0),
        (10, 0.5),
        (10.001, 0.5),
        (29.999, 0.5),
        (30, 0.0),
        (35, 0.0),
    ],
)
def test_score_latency_steps_and_boundaries(tau, expected):
    assert score_latency(tau) == expected


def test_score_latency_requires_positive_latency():
    with pytest.raises(ValueError):
        score_latency(0)
    with pytest.raises(ValueError):
        score_latency(-3)


# The complete band/category table.
RESOURCE_CASES = [
    (Band.MMWAVE, BandwidthCategory.HIGH, 1.0),
    (Band.MMWAVE, BandwidthCategory.MEDIUM, 0.5),
    (Band.MMWAVE, BandwidthCategory.LOW, 0.0),
    (Band.MID_BAND, BandwidthCategory.HIGH, 0.5),
    (Band.MID_BAND, BandwidthCategory.MEDIUM, 1.0),
    (Band.MID_BAND, BandwidthCategory.LOW, 1.0),
    (Band.LOW_BAND, BandwidthCategory.HIGH, 0.5),
    (Band.LOW_BAND, BandwidthCategory.MEDIUM, 0.5),
    (Band.LOW_BAND, BandwidthCategory.LOW, 1.0),
]


@pytest.mark.parametrize("band,beta,expected", RESOURCE_CASES)
def test_score_resource_table(band, beta, expected):
    assert score_resource(band, beta) == expected


def test_score_congestion_examples():
    assert score_congestion(60) == pytest.approx(0.40, abs=1e-9)
    assert score_congestion(0) == 1.0
    assert score_congestion(88) == pytest.approx(0.12, abs=1e-9)


def test_score_congestion_on_all_bundled_loads(state):
    expected = {
        "stadium_central": 0.12,
        "city_plaza": 0.65,
        "industrial_park_a": 0.40,
        "suburban_residential": 0.55,
        "rural_highway": 0.85,
    }
    for sector_id, value in expected.items():
        load = state.sector(sector_id).load_percent
        assert score_congestion(load) == pytest.approx(value, abs=1e-9)


def test_score_congestion_rejects_out_of_range():
    with pytest.raises(ValueError):
        score_congestion(-1)
    with pytest.raises(ValueError):
        score_congestion(101)


def test_worked_example_utility(state, lexicon, factory_intent):
    profile = profile_for(factory_intent, state, lexicon)
    breakdown = compute_utility(GOLDEN_INDUSTRIAL, profile, state)
    assert breakdown.s_latency == 1.0
    assert breakdown.s_resource == 1.0
    assert breakdown.s_congestion == pytest.approx(0.40, abs=1e-9)
    assert breakdown.weights == (0.8, 0.1, 0.1)
    assert breakdown.utility == pytest.approx(0.94, abs=1e-9)
    assert round_half_up(breakdown.utility, 2) == 0.94


def test_esports_cross_check_utility(state, lexicon):
    profile = profile_for(
        "real-time 4K video tournament at stadium_central", state, lexicon
    )
    assert profile.traffic_class is TrafficClass.URLLC
    assert profile.bandwidth_category is BandwidthCategory.HIGH
    breakdown = compute_utility(GOLDEN_ESPORTS, profile, state)
    assert breakdown.utility == pytest.approx(0.912, abs=1e-9)
    assert round_half_up(breakdown.utility, 2) == 0.91


def test_all_ones_gives_unit_utility_for_every_class(lexicon):
    # All three sub-scores at 1.0 give U = 1.0 under every weight vector
    # because the weights are convex.
    import json

    from sliceweaver.model import load_state

    idle = load_state(json.dumps({
        "sectors": {"idle": {
            "active_users": 0, "load_percentage": 0,
            "spectrum_available_mhz": {"mmWave": 100, "mid_band": 100, "low_band": 100},
        }},
        "nodes": {"edge1": {
            "type": "edge", "latency_to_ran_ms": {"idle": 2}, "compute_load_percent": 0,
        }},
    }))
    for text, band in [
        ("real-time 4K video feed", Band.MMWAVE),       # URLLC / high
        ("4K video distribution", Band.MMWAVE),          # eMBB / high
        ("sensor telemetry fleet", Band.LOW_BAND),       # mMTC / low
    ]:
        profile = profile_for(text, idle, lexicon)
        breakdown = compute_utility(SliceConfiguration("idle", band, "edge1"), profile, idle)
        assert (breakdown.s_latency, breakdown.s_resource, breakdown.s_congestion) == (1.0, 1.0, 1.0)
        assert breakdown.utility == 1.0


def test_breakdown_identity_holds_exactly(state, lexicon, scenarios):
    # The stored utility is bitwise equal to the recomputed weighted sum.
    from sliceweaver.oracle import enumerate_candidates

    for scenario in scenarios:
        profile = profile_for(scenario.intent_text, state, lexicon)
        for config in enumerate_candidates(state, profile):
            b = compute_utility(config, profile, state)
            w_l, w_r, w_c = b.weights
            assert b.utility == w_l * b.s_latency + w_r * b.s_resource + w_c * b.s_congestion
            assert 0.0 <= b.utility <= 1.0


def test_compute_utility_errors(state, lexicon, factory_intent):
    profile = profile_for(factory_intent, state, lexicon)
    with pytest.raises(UnknownIdError):
        compute_utility(
            SliceConfiguration("nowhere", Band.MID_BAND, "mec_industrial_1"), profile, state
        )
    with pytest.raises(ProvisioningError):
        compute_utility(
            SliceConfiguration("suburban_residential", Band.MMWAVE, "metro_agg_hub"),
            profile,
            state,
        )


@pytest.mark.parametrize(
    "config",
    [
        SliceConfiguration("nowhere", Band.MID_BAND, "mec_industrial_1"),
        SliceConfiguration("industrial_park_a", Band.MID_BAND, "nowhere"),
        SliceConfiguration("rural_highway", Band.MMWAVE, "metro_agg_hub"),
    ],
    ids=["unknown-sector", "unknown-node", "band-without-spectrum"],
)
def test_compute_utility_refuses_what_validate_config_refuses(
    state, lexicon, factory_intent, config
):
    with pytest.raises((UnknownIdError, ProvisioningError)) as expected:
        validate_config(state, config)
    with pytest.raises(type(expected.value)) as raised:
        compute_utility(config, profile_for(factory_intent, state, lexicon), state)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


def test_constraints_factory_profile_filtering(state, lexicon, factory_intent):
    profile = profile_for(factory_intent, state, lexicon)
    assert profile.tau_req_ms == 5
    feasible_nodes = []
    for node_id in state.nodes:
        config = SliceConfiguration("industrial_park_a", Band.MID_BAND, node_id)
        report = check_constraints(config, profile, state)
        if report.feasible:
            feasible_nodes.append(node_id)
    assert feasible_nodes == ["mec_industrial_1"]


def test_constraints_metro_hub_fails_latency(state, lexicon, factory_intent):
    profile = profile_for(factory_intent, state, lexicon)
    config = SliceConfiguration("industrial_park_a", Band.MID_BAND, "metro_agg_hub")
    report = check_constraints(config, profile, state)
    assert report.latency_ok is False
    assert report.band_ok and report.compute_ok and report.load_ok
    assert report.feasible is False


def test_constraints_load_threshold(state, lexicon):
    profile = profile_for("real-time 4K video at stadium_central", state, lexicon)
    config = SliceConfiguration("stadium_central", Band.MMWAVE, "mec_stadium_1")
    strict = check_constraints(config, profile, state, Thresholds(l_max=80))
    assert strict.load_ok is False
    assert strict.feasible is False
    default = check_constraints(config, profile, state)
    assert default.load_ok is True


def test_constraints_vacuous_thresholds_accept_everything(state, lexicon, scenarios):
    from sliceweaver.oracle import enumerate_candidates

    vacuous = Thresholds(l_max=100, kappa_max=100)
    for scenario in scenarios:
        profile = profile_for(scenario.intent_text, state, lexicon)
        profile = type(profile)(
            raw_text=profile.raw_text,
            traffic_class=profile.traffic_class,
            bandwidth_category=profile.bandwidth_category,
            tau_req_ms=float("inf"),
            target_sector=profile.target_sector,
            matched_keywords=profile.matched_keywords,
        )
        for config in enumerate_candidates(state, profile):
            assert check_constraints(config, profile, state, vacuous).feasible


@settings(max_examples=80, deadline=None)
@given(
    load_a=st.floats(min_value=0, max_value=100, allow_nan=False),
    load_b=st.floats(min_value=0, max_value=100, allow_nan=False),
    tau=st.floats(min_value=0.5, max_value=100, allow_nan=False),
    band=st.sampled_from(list(Band)),
    beta=st.sampled_from(list(BandwidthCategory)),
    traffic=st.sampled_from(list(TrafficClass)),
)
def test_utility_monotone_nonincreasing_in_load(load_a, load_b, tau, band, beta, traffic):
    from sliceweaver.intent import weights_for

    lo, hi = sorted((load_a, load_b))
    w_l, w_r, w_c = weights_for(traffic)
    u_lo = w_l * score_latency(tau) + w_r * score_resource(band, beta) + w_c * score_congestion(lo)
    u_hi = w_l * score_latency(tau) + w_r * score_resource(band, beta) + w_c * score_congestion(hi)
    assert u_hi <= u_lo + 1e-12


@pytest.mark.parametrize(
    "value,places,expected",
    [
        (0.535, 2, 0.54),
        (0.515, 2, 0.52),
        (0.905, 2, 0.91),
        (0.855, 2, 0.86),
        (0.795, 2, 0.80),
        (0.912, 2, 0.91),
        (0.74725, 3, 0.747),
        (0.6666666666, 3, 0.667),
    ],
)
def test_round_half_up(value, places, expected):
    assert round_half_up(value, places) == expected


@pytest.mark.parametrize("name", ["l_max", "kappa_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5, -1])
def test_thresholds_reject_a_bad_limit(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number >= 0"):
        Thresholds(**{name: value})


@pytest.mark.parametrize("value", [0, 0.0, 50, 85.0, 100.0, 250.0])
def test_thresholds_accept_a_finite_limit(value):
    assert Thresholds(l_max=value, kappa_max=value) == Thresholds(value, value)
