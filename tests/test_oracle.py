from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sliceweaver import oracle
from sliceweaver.intent import BandwidthCategory, IntentProfile, TrafficClass, classify_intent
from sliceweaver.model import (
    Band,
    CoreNode,
    NetworkState,
    NodeTier,
    RanSector,
    SpectrumBands,
    UnknownIdError,
    load_state,
)
from sliceweaver.oracle import (
    OracleError,
    enumerate_candidates,
    rule_based_provision,
    solve,
)
from sliceweaver.scoring import Thresholds, check_constraints, compute_utility


def test_enumeration_count_full_topology(state, lexicon):
    profile = classify_intent("plain connectivity request", state, lexicon)
    assert profile.target_sector is None
    candidates = enumerate_candidates(state, profile)
    # 5 sectors x 3 bands x 4 nodes, minus the two sectors without mmWave
    # (2 sectors x 1 band x 4 nodes).
    assert len(candidates) == 52
    assert all(
        state.sector(c.sector_id).spectrum.available(c.band) for c in candidates
    )


def test_enumeration_respects_target_sector(state, lexicon, factory_intent):
    profile = classify_intent(factory_intent, state, lexicon)
    candidates = enumerate_candidates(state, profile)
    assert len(candidates) == 12  # 3 bands x 4 nodes, all available there
    assert {c.sector_id for c in candidates} == {"industrial_park_a"}


def test_enumeration_single_candidate():
    doc = {
        "sectors": {"only": {
            "active_users": 1, "load_percentage": 10,
            "spectrum_available_mhz": {"mmWave": 0, "mid_band": 50, "low_band": 0},
        }},
        "nodes": {"n1": {"type": "edge", "latency_to_ran_ms": {"only": 5}, "compute_load_percent": 10}},
    }
    tiny = load_state(json.dumps(doc))
    profile = classify_intent("anything", tiny)
    assert len(enumerate_candidates(tiny, profile)) == 1


def test_solve_factory_head_is_golden(state, lexicon, factory_intent):
    profile = classify_intent(factory_intent, state, lexicon)
    ranking = solve(state, profile)
    head = ranking[0]
    assert head.config.dimensions() == ("industrial_park_a", Band.MID_BAND, "mec_industrial_1")
    assert head.breakdown.utility == pytest.approx(0.94, abs=1e-9)
    assert head.feasible
    assert head.rank == 1
    assert [item.rank for item in ranking] == list(range(1, len(ranking) + 1))


def test_solve_head_maximises_utility_exhaustively(state, lexicon, scenarios):
    for scenario in scenarios:
        profile = classify_intent(scenario.intent_text, state, lexicon)
        ranking = solve(state, profile)
        best = max(item.breakdown.utility for item in ranking)
        assert ranking[0].breakdown.utility == best


def test_solve_flags_infeasible_only_outcomes(state, lexicon):
    profile = classify_intent(
        "instant reflex loop below 1 ms at rural_highway", state, lexicon
    )
    assert profile.tau_req_ms == 1
    ranking = solve(state, profile)
    assert not any(item.feasible for item in ranking)
    head = ranking[0]
    assert head.constraints.latency_ok is False
    # Still ranked: the least-bad fallback comes first.
    assert head.breakdown.utility == max(i.breakdown.utility for i in ranking)


def test_solve_is_deterministic(state, lexicon, scenarios):
    for scenario in scenarios[:4]:
        profile = classify_intent(scenario.intent_text, state, lexicon)
        first = [(i.config, i.rank) for i in solve(state, profile)]
        second = [(i.config, i.rank) for i in solve(state, profile)]
        assert first == second


def test_uniform_state_breaks_ties_lexicographically():
    sector_entry = {
        "active_users": 100, "load_percentage": 20,
        "spectrum_available_mhz": {"mmWave": 100, "mid_band": 100, "low_band": 100},
    }
    node_entry = {"type": "edge", "latency_to_ran_ms": {"alpha": 5, "beta": 5}, "compute_load_percent": 10}
    doc = {
        "sectors": {"beta": dict(sector_entry), "alpha": dict(sector_entry)},
        "nodes": {"n2": dict(node_entry), "n1": dict(node_entry)},
    }
    uniform = load_state(json.dumps(doc))
    profile = classify_intent("plain connectivity", uniform)  # eMBB / medium
    ranking = solve(uniform, profile)
    # Equal utility everywhere for mid-band; the deterministic order starts at
    # the lexicographically first sector and node with the preferred band.
    head = ranking[0]
    assert head.config.sector_id == "alpha"
    assert head.config.node_id == "n1"
    assert head.config.band is Band.MID_BAND
    assert [i.config for i in solve(uniform, profile)] == [i.config for i in ranking]


def test_solve_requires_candidates():
    doc = {
        "sectors": {"dark": {
            "active_users": 0, "load_percentage": 0,
            "spectrum_available_mhz": {"mmWave": 0, "mid_band": 0, "low_band": 0},
        }},
        "nodes": {"n1": {"type": "edge", "latency_to_ran_ms": {"dark": 5}, "compute_load_percent": 0}},
    }
    dark = load_state(json.dumps(doc))
    profile = classify_intent("anything", dark)
    with pytest.raises(OracleError):
        solve(dark, profile)


def test_golden_utilities_meet_threshold_or_are_documented(state, lexicon, scenarios):
    below = {}
    for scenario in scenarios:
        profile = classify_intent(scenario.intent_text, state, lexicon)
        utility = compute_utility(scenario.golden, profile, state).utility
        if utility < 0.7:
            below[scenario.id] = scenario.notes
    assert set(below) == {"connected_ambulance_rural", "suburban_fixed_wireless"}
    for notes in below.values():
        assert "structural" in notes.lower()


def test_rule_based_handles_explicit_keywords(state, strict_lexicon):
    result = rule_based_provision(
        "ultra-low latency control loop at industrial_park_a", state,
        lexicon=strict_lexicon,
    )
    assert result.profile.traffic_class is TrafficClass.URLLC
    # Latency-dominant weighting picks the co-located edge node.
    assert result.config.node_id == "mec_industrial_1"
    assert any("traffic_class=URLLC" in line for line in result.rationale)


def test_rule_based_misses_synonyms(state, lexicon, strict_lexicon):
    text = "instantaneous connectivity for the machine cell at industrial_park_a"
    # The full lexicon understands the synonym; the frozen strict one does not.
    assert classify_intent(text, state, lexicon).traffic_class is TrafficClass.URLLC
    result = rule_based_provision(text, state, lexicon=strict_lexicon)
    assert result.profile.traffic_class is TrafficClass.EMBB
    assert any("no lexicon keyword matched" in line for line in result.rationale)


def test_rule_based_brittleness_costs_accuracy_not_utility(state, lexicon, strict_lexicon):
    # A synonym-worded intent: the referee classifies it URLLC/high, the
    # frozen lexicon falls through to eMBB/medium, and the chosen config
    # diverges from the true optimum while remaining technically sound.
    text = "instantaneous pop-up broadband for the festival at city_plaza"
    referee = classify_intent(text, state, lexicon)
    assert referee.traffic_class is TrafficClass.URLLC
    golden = solve(state, referee)[0].config
    result = rule_based_provision(text, state, lexicon=strict_lexicon)
    assert result.profile.traffic_class is not TrafficClass.URLLC
    produced_utility = compute_utility(result.config, referee, state).utility
    golden_utility = compute_utility(golden, referee, state).utility
    assert result.config.dimensions() != golden.dimensions()
    assert produced_utility >= 0.5  # still a reasonable engineering choice
    assert produced_utility < golden_utility


def test_rule_based_reports_an_infeasible_fallback(state, strict_lexicon):
    # Every bundled node runs above 1% compute, so no candidate is feasible.
    text = "ultra-low latency loop at industrial_park_a"
    result = rule_based_provision(text, state, Thresholds(kappa_max=1), strict_lexicon)
    assert result.feasible is False
    assert result.config == solve(state, result.profile, Thresholds(kappa_max=1))[0].config
    assert "no feasible candidate; returning best infeasible fallback" in result.rationale
    assert rule_based_provision(text, state, lexicon=strict_lexicon).feasible is True


def test_rule_based_empty_intent_defaults_to_embb(state, strict_lexicon):
    result = rule_based_provision("", state, lexicon=strict_lexicon)
    assert result.profile.traffic_class is TrafficClass.EMBB
    assert result.profile.bandwidth_category is BandwidthCategory.MEDIUM
    assert state.sector(result.config.sector_id).spectrum.available(result.config.band)
    assert any("no lexicon keyword matched" in line for line in result.rationale)


def test_solve_head_builds_one_row(state, lexicon, monkeypatch):
    # The ranking builds a row when it is read: the head of an untargeted
    # ranking over 52 candidates builds one RankedConfiguration.
    built = []
    ranked_configuration = oracle.RankedConfiguration

    def counting(*args):
        built.append(args)
        return ranked_configuration(*args)

    monkeypatch.setattr(oracle, "RankedConfiguration", counting)
    profile = classify_intent("plain connectivity request", state, lexicon)
    assert profile.target_sector is None
    ranking = solve(state, profile)
    head = ranking[0]
    assert len(built) == 1
    assert head.rank == 1
    assert len(ranking) == 52


def test_solve_rejects_unknown_target_sector(state):
    profile = IntentProfile(
        raw_text="x", traffic_class=TrafficClass.EMBB,
        bandwidth_category=BandwidthCategory.MEDIUM, tau_req_ms=50, target_sector="atlantis",
    )
    with pytest.raises(UnknownIdError):
        solve(state, profile)


# The documented ranking: feasible first, utility descending, lower latency,
# lower sector load, then (sector, band, node) with mmwave < mid_band < low_band.
DOCUMENTED_BAND_ORDER = {Band.MMWAVE: 0, Band.MID_BAND: 1, Band.LOW_BAND: 2}


def reference_ranking(state, profile, thresholds):
    """Score every candidate with the reference functions and sort on the
    documented key: (config, breakdown, constraints, rank) per row."""
    scored = []
    for config in enumerate_candidates(state, profile):
        breakdown = compute_utility(config, profile, state)
        constraints = check_constraints(config, profile, state, thresholds)
        key = (
            0 if constraints.feasible else 1,
            -breakdown.utility,
            state.nodes[config.node_id].latency_to_sector[config.sector_id],
            state.sectors[config.sector_id].load_percent,
            config.sector_id,
            DOCUMENTED_BAND_ORDER[config.band],
            config.node_id,
        )
        scored.append((key, config, breakdown, constraints))
    scored.sort(key=lambda item: item[0])
    return [(c, b, r, rank) for rank, (_, c, b, r) in enumerate(scored, 1)]


# Values on both sides of the non-default thresholds below (l_max 60,
# kappa_max 50) and of the defaults (100, 85), repeated so ties occur.
LOADS = st.sampled_from([0.0, 12.5, 49.5, 50.0, 50.5, 60.0, 60.5, 85.0, 85.5, 100.0])
TAUS_REQ = (1.0, 5.0, 10.0, 30.0, 45.0, 1000.0)


@st.composite
def topologies_and_profiles(draw):
    tau_req = draw(st.sampled_from(TAUS_REQ))
    # Latencies on the score breakpoints (10, 30) and on tau_req exactly.
    latencies = st.sampled_from([0.5, 9.99, 10.0, 10.01, 29.99, 30.0, 31.0, tau_req])
    sector_ids = draw(st.lists(
        st.text(alphabet="ab_", min_size=1, max_size=3), min_size=1, max_size=6, unique=True))
    node_ids = draw(st.lists(
        st.text(alphabet="nm1", min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
    mhz = st.sampled_from([0.0, 0.0, 20.0, 100.0])
    sectors = {
        sid: RanSector(
            id=sid, active_users=10, load_percent=draw(LOADS),
            spectrum=SpectrumBands(draw(mhz), draw(mhz), draw(mhz)),
        )
        for sid in sector_ids
    }
    nodes = {
        nid: CoreNode(
            id=nid, tier=NodeTier.EDGE, compute_load_percent=draw(LOADS),
            latency_to_sector={sid: draw(latencies) for sid in sector_ids},
        )
        for nid in node_ids
    }
    profile = IntentProfile(
        raw_text="generated",
        traffic_class=draw(st.sampled_from(TrafficClass)),
        bandwidth_category=draw(st.sampled_from(BandwidthCategory)),
        tau_req_ms=tau_req,
        target_sector=draw(st.none() | st.sampled_from(sector_ids)),
    )
    thresholds = draw(st.sampled_from([Thresholds(), Thresholds(l_max=60.0, kappa_max=50.0)]))
    return NetworkState(sectors=sectors, nodes=nodes), profile, thresholds


@settings(max_examples=200, deadline=None)
@given(topologies_and_profiles())
def test_solve_equals_the_reference_ranking_row_for_row(case):
    state, profile, thresholds = case
    expected = reference_ranking(state, profile, thresholds)
    if not expected:
        with pytest.raises(OracleError):
            solve(state, profile, thresholds)
        return
    ranking = solve(state, profile, thresholds)
    assert [(r.config, r.breakdown, r.constraints, r.rank) for r in ranking] == expected


def bounds(n):
    return st.none() | st.integers(-n - 3, n + 3)


@settings(max_examples=100, deadline=None)
@given(topologies_and_profiles(), st.data())
def test_every_read_of_the_ranking_agrees(case, data):
    state, profile, thresholds = case
    assume(enumerate_candidates(state, profile))
    ranking = solve(state, profile, thresholds)
    rows = list(ranking)
    n = len(ranking)
    assert len(rows) == n
    assert [ranking[i] for i in range(n)] == rows
    assert [ranking[i] for i in range(-n, 0)] == rows
    assert [row.rank for row in rows] == list(range(1, n + 1))
    for _ in range(5):
        step = data.draw(st.none() | st.integers(-n - 2, n + 2).filter(bool))
        window = slice(data.draw(bounds(n)), data.draw(bounds(n)), step)
        assert ranking[window] == rows[window]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            ranking[index]
