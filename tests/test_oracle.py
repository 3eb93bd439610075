from __future__ import annotations

import dataclasses
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

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
    apply_provisioning,
    load_state,
    serialize_state,
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
    with pytest.raises(OracleError, match="no sector has an available band"):
        solve(dark, profile)


def test_solve_names_a_targeted_sector_without_a_band(state):
    doc = json.loads(serialize_state(state))
    doc["sectors"]["stadium_central"]["spectrum_available_mhz"] = {
        "mmWave": 0, "mid_band": 0, "low_band": 0,
    }
    zeroed = load_state(json.dumps(doc))
    profile = classify_intent("4K video at stadium_central", zeroed)
    assert profile.target_sector == "stadium_central"
    with pytest.raises(OracleError, match="'stadium_central' has no available band"):
        solve(zeroed, profile)
    # Other sectors still have bands, so an untargeted intent is solved.
    assert solve(zeroed, classify_intent("plain connectivity request", zeroed))[0].feasible


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


def test_rule_based_handles_explicit_keywords(state):
    result = rule_based_provision(
        "ultra-low latency control loop at industrial_park_a", state,
    )
    assert result.profile.traffic_class is TrafficClass.URLLC
    # Latency-dominant weighting picks the co-located edge node.
    assert result.config.node_id == "mec_industrial_1"
    assert any("traffic_class=URLLC" in line for line in result.rationale)


def test_rule_based_misses_synonyms(state, lexicon):
    text = "instantaneous connectivity for the machine cell at industrial_park_a"
    # The full lexicon understands the synonym; the frozen strict one does not.
    assert classify_intent(text, state, lexicon).traffic_class is TrafficClass.URLLC
    result = rule_based_provision(text, state)
    assert result.profile.traffic_class is TrafficClass.EMBB
    assert any("no lexicon keyword matched" in line for line in result.rationale)


def test_rule_based_brittleness_costs_accuracy_not_utility(state, lexicon):
    # A synonym-worded intent: the referee classifies it URLLC/high, the
    # frozen lexicon falls through to eMBB/medium, and the chosen config
    # diverges from the true optimum while remaining technically sound.
    text = "instantaneous pop-up broadband for the festival at city_plaza"
    referee = classify_intent(text, state, lexicon)
    assert referee.traffic_class is TrafficClass.URLLC
    golden = solve(state, referee)[0].config
    result = rule_based_provision(text, state)
    assert result.profile.traffic_class is not TrafficClass.URLLC
    produced_utility = compute_utility(result.config, referee, state).utility
    golden_utility = compute_utility(golden, referee, state).utility
    assert result.config.dimensions() != golden.dimensions()
    assert produced_utility >= 0.5  # still a reasonable engineering choice
    assert produced_utility < golden_utility


def test_rule_based_reports_an_infeasible_fallback(state):
    # Every bundled node runs above 1% compute, so no candidate is feasible.
    text = "ultra-low latency loop at industrial_park_a"
    result = rule_based_provision(text, state, Thresholds(kappa_max=1))
    assert result.feasible is False
    assert result.config == solve(state, result.profile, Thresholds(kappa_max=1))[0].config
    assert "no feasible candidate; returning best infeasible fallback" in result.rationale
    assert rule_based_provision(text, state).feasible is True


def test_rule_based_rationale_names_the_target_sector_or_a_dash(state):
    named = rule_based_provision("ultra-low latency control loop at stadium_central", state)
    assert "target_sector=stadium_central" in named.rationale
    unnamed = rule_based_provision("ultra-low latency control loop somewhere", state)
    assert unnamed.profile.target_sector is None
    assert "target_sector=-" in unnamed.rationale


def test_rule_based_empty_intent_defaults_to_embb(state):
    result = rule_based_provision("", state)
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
        st.text(alphabet="ab_", min_size=1, max_size=3).filter(lambda sid: sid.strip("_")),
        min_size=1, max_size=6, unique=True))
    node_ids = draw(st.lists(
        st.text(alphabet="nm1", min_size=1, max_size=3), min_size=1, max_size=6, unique=True))
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


@settings(max_examples=100, deadline=None)
@given(topologies_and_profiles())
def test_the_head_read_first_is_the_reference_head(case):
    # The head of a fresh ranking is taken before its rows are sorted.
    state, profile, thresholds = case
    assume(enumerate_candidates(state, profile))
    expected = reference_ranking(state, profile, thresholds)
    ranking = solve(state, profile, thresholds)
    head = ranking[0]
    assert (head.config, head.breakdown, head.constraints, head.rank) == expected[0]
    rows = list(ranking)
    assert [(r.config, r.breakdown, r.constraints, r.rank) for r in rows] == expected
    assert ranking[0] == rows[0]
    ranking = solve(state, profile, thresholds)
    assert ranking[-len(ranking)] == head


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
    # Past the head the ranking is one list, so every read returns its objects.
    index = data.draw(st.integers(0, n - 1))
    assert ranking[index] is ranking[index]
    assert ranking[index - n] is ranking[index]
    assert rows[0] is ranking[0]
    assert ranking[:2][-1] is ranking[min(1, n - 1)]


def build_state(loads, nodes):
    """Sectors {id: load} with every band, nodes {id: (compute load, {sector: latency})}."""
    return NetworkState(
        sectors={
            sid: RanSector(id=sid, active_users=10, load_percent=load,
                           spectrum=SpectrumBands(100.0, 100.0, 100.0))
            for sid, load in loads.items()
        },
        nodes={
            nid: CoreNode(id=nid, tier=NodeTier.EDGE, compute_load_percent=compute,
                          latency_to_sector=row)
            for nid, (compute, row) in nodes.items()
        },
    )


def profile_for(traffic_class, tau_req_ms, target_sector=None):
    return IntentProfile(
        raw_text="x", traffic_class=traffic_class, bandwidth_category=BandwidthCategory.MEDIUM,
        tau_req_ms=tau_req_ms, target_sector=target_sector,
    )


# Each case: state, profile, thresholds, and the head's (sector, node, feasible).
PER_SECTOR_CASES = {
    "nearest node over kappa_max": (
        build_state({"s": 20.0}, {"near": (90.0, {"s": 5.0}), "far": (10.0, {"s": 20.0})}),
        profile_for(TrafficClass.URLLC, 50.0), Thresholds(),
        ("s", "far", True),
    ),
    "every node above tau_req": (
        build_state({"s": 20.0}, {"far": (10.0, {"s": 20.0}), "near": (10.0, {"s": 5.0})}),
        profile_for(TrafficClass.URLLC, 1.0), Thresholds(),
        ("s", "near", False),
    ),
    "equal latency": (
        build_state({"s": 20.0}, {"n2": (10.0, {"s": 5.0}), "n1": (10.0, {"s": 5.0})}),
        profile_for(TrafficClass.EMBB, 50.0), Thresholds(),
        ("s", "n1", True),
    ),
    # Sector "a" has the higher utility (URLLC weighs latency 0.8), but its
    # load is over l_max.
    "a sector over l_max": (
        build_state({"a": 90.0, "b": 70.0}, {"n": (10.0, {"a": 5.0, "b": 20.0})}),
        profile_for(TrafficClass.URLLC, 50.0), Thresholds(l_max=80.0),
        ("b", "n", True),
    ),
    "a targeted sector over l_max": (
        build_state({"a": 90.0, "b": 70.0},
                    {"n1": (10.0, {"a": 20.0, "b": 5.0}), "n2": (10.0, {"a": 5.0, "b": 20.0})}),
        profile_for(TrafficClass.URLLC, 50.0, target_sector="a"), Thresholds(l_max=80.0),
        ("a", "n2", False),
    ),
}


@pytest.mark.parametrize("case", PER_SECTOR_CASES.values(), ids=PER_SECTOR_CASES)
def test_the_head_follows_the_per_sector_rule(case):
    state, profile, thresholds, (sector_id, node_id, feasible) = case
    expected = reference_ranking(state, profile, thresholds)
    head = solve(state, profile, thresholds)[0]
    assert (head.config, head.breakdown, head.constraints, head.rank) == expected[0]
    assert (head.config.sector_id, head.config.node_id, head.feasible) == (
        sector_id, node_id, feasible)


def test_the_head_scores_one_latency_per_sector(state, lexicon, monkeypatch):
    calls = []
    score_latency = oracle.score_latency

    def counting(tau):
        calls.append(tau)
        return score_latency(tau)

    monkeypatch.setattr(oracle, "score_latency", counting)
    profile = classify_intent("plain connectivity request", state, lexicon)
    assert profile.target_sector is None
    ranking = solve(state, profile)
    ranking[0]
    assert len(calls) <= len(state.sectors) + 1
    calls.clear()
    list(ranking)
    assert len(calls) == len(state.sectors) * len(state.nodes)


def test_a_float_index_is_refused_in_either_read_order(state, lexicon):
    profile = classify_intent("plain connectivity request", state, lexicon)
    fresh = solve(state, profile)
    with pytest.raises(TypeError):
        fresh[0.0]
    read = solve(state, profile)
    list(read)
    with pytest.raises(TypeError):
        read[0.0]
    assert fresh[0] == read[0]


def test_the_head_is_built_once_and_is_the_first_row(state, lexicon):
    profile = classify_intent("plain connectivity request", state, lexicon)
    ranking = solve(state, profile)
    head = ranking[0]
    assert ranking[0] is head
    assert list(ranking)[0] == head
    assert ranking[0] is head


# Each sector's nearest nodes are kept on the state by kappa_max.

def head_of(ranking):
    head = ranking[0]
    return (head.config, head.breakdown, head.constraints, head.rank)


@st.composite
def calls_on(draw, state):
    """A (profile, thresholds) pair for `state`, with limits on both sides
    of the drawn loads."""
    profile = IntentProfile(
        raw_text="generated",
        traffic_class=draw(st.sampled_from(TrafficClass)),
        bandwidth_category=draw(st.sampled_from(BandwidthCategory)),
        tau_req_ms=draw(st.sampled_from(TAUS_REQ)),
        target_sector=draw(st.none() | st.sampled_from(sorted(state.sectors))),
    )
    return profile, Thresholds(l_max=draw(LOADS), kappa_max=draw(LOADS))


@settings(max_examples=100, deadline=None)
@given(topologies_and_profiles(), st.data())
def test_heads_on_one_state_across_kappa_max_are_the_reference_heads(case, data):
    # One state object serves every call, so a memo keyed too coarsely
    # would hand one kappa_max's nearest nodes to another.
    state, _, _ = case
    calls = data.draw(st.lists(calls_on(state), min_size=2, max_size=8))
    for profile, thresholds in calls:
        expected = reference_ranking(state, profile, thresholds)
        if not expected:
            with pytest.raises(OracleError):
                solve(state, profile, thresholds)
            continue
        assert head_of(solve(state, profile, thresholds)) == expected[0]
    assert set(state._nearest_nodes) == {thresholds.kappa_max for _, thresholds in calls}


def test_the_nearest_nodes_are_found_once_per_state_and_kappa_max(
    state, lexicon, scenarios, monkeypatch
):
    found = []
    nearest_nodes = oracle._nearest_nodes

    def counting(state, kappa_max):
        found.append(kappa_max)
        return nearest_nodes(state, kappa_max)

    monkeypatch.setattr(oracle, "_nearest_nodes", counting)
    fresh = load_state(serialize_state(state))
    profiles = [classify_intent(s.intent_text, fresh, lexicon) for s in scenarios]
    profiles.append(classify_intent("plain connectivity request", fresh, lexicon))
    for kappa_max in (85.0, 50.0, 85.0, 50.0):
        for profile in profiles:
            for l_max in (100.0, 60.0):
                solve(fresh, profile, Thresholds(l_max=l_max, kappa_max=kappa_max))
    assert found == [85.0, 50.0]
    solve(load_state(serialize_state(state)), profiles[0])
    assert found == [85.0, 50.0, 85.0]


def test_copies_of_a_solved_state_start_without_nearest_nodes(state, lexicon):
    fresh = load_state(serialize_state(state))
    assert fresh._nearest_nodes == {}
    profile = classify_intent("plain connectivity request", fresh, lexicon)
    head = solve(fresh, profile)[0]
    assert set(fresh._nearest_nodes) == {85.0}
    provisioned = apply_provisioning(fresh, head.config)
    for copy in (dataclasses.replace(fresh), provisioned):
        assert copy._nearest_nodes == {}
        assert solve(copy, profile)[0] == head
        assert set(copy._nearest_nodes) == {85.0}


def test_state_equality_and_repr_ignore_the_nearest_nodes(state, lexicon):
    solved, unsolved = (load_state(serialize_state(state)) for _ in range(2))
    solve(solved, classify_intent("plain connectivity request", solved, lexicon))
    assert solved._nearest_nodes and not unsolved._nearest_nodes
    assert solved == unsolved
    assert repr(solved) == repr(unsolved)
    assert "_nearest_nodes" not in repr(solved)


def test_threads_taking_the_first_solve_get_the_serial_heads(state, lexicon, scenarios):
    # As `--jobs 3` does: three workers share one state and race to be its
    # first `solve`.
    text = serialize_state(state)
    profiles = [classify_intent(s.intent_text, state, lexicon) for s in scenarios]
    profiles.append(classify_intent("plain connectivity request", state, lexicon))
    serial_state = load_state(text)
    serial = [solve(serial_state, profile)[0] for profile in profiles]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the first solve too
    try:
        for _ in range(10):
            fresh = load_state(text)
            barrier = threading.Barrier(3, timeout=10)

            def heads():
                barrier.wait()
                return [solve(fresh, profile)[0] for profile in profiles]

            with ThreadPoolExecutor(max_workers=3) as pool:
                results = [pool.submit(heads) for _ in range(3)]
                assert [result.result(timeout=10) for result in results] == [serial] * 3
            assert set(fresh._nearest_nodes) == {85.0}
    finally:
        sys.setswitchinterval(switch_interval)


def test_threads_taking_the_first_full_read_get_the_serial_rows(state, lexicon):
    # Threads that share one ranking and race to be its first read past the
    # head each see every row, ranked, and one list is kept.
    profile = classify_intent("plain connectivity request", state, lexicon)
    serial = list(solve(state, profile))
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            ranking = solve(state, profile)
            barrier = threading.Barrier(3, timeout=10)

            def rows():
                barrier.wait()
                return ranking[1:], list(ranking)

            with ThreadPoolExecutor(max_workers=3) as pool:
                results = [pool.submit(rows) for _ in range(3)]
                for result in results:
                    sliced, full = result.result(timeout=10)
                    assert full == serial and sliced == serial[1:]
            kept = list(ranking)
            assert all(row is ranking[index] for index, row in enumerate(kept))
    finally:
        sys.setswitchinterval(switch_interval)


def test_a_full_ranking_shares_one_object_per_distinct_score_and_check():
    # An untargeted full read at 400 sectors x 12 nodes, with limits that
    # every sector load, node load and latency falls on both sides of. Past
    # the head (scored by the reference functions), rows with equal
    # sub-scores share one ScoreBreakdown and rows with equal checks one
    # ConstraintReport, so at most 8 reports stand behind 14k rows.
    rng = random.Random("full-ranking-sharing")
    sector_ids = [f"sector_{i:03d}" for i in range(400)]
    state = build_state(
        {sid: round(rng.uniform(5, 95), 1) for sid in sector_ids},
        {
            f"upf_{j:02d}": (round(rng.uniform(20, 95), 1),
                             {sid: round(rng.uniform(2, 45), 1) for sid in sector_ids})
            for j in range(12)
        },
    )
    profile = profile_for(TrafficClass.EMBB, 20.0)
    rows = list(solve(state, profile, Thresholds(l_max=60.0, kappa_max=50.0)))[1:]
    assert len(rows) == 400 * 3 * 12 - 1
    breakdowns = {id(row.breakdown) for row in rows}
    scores = {(row.breakdown.s_latency, row.breakdown.s_resource, row.breakdown.s_congestion)
              for row in rows}
    assert len(breakdowns) == len(scores)
    reports = {id(row.constraints) for row in rows}
    checks = {(row.constraints.load_ok, row.constraints.compute_ok, row.constraints.latency_ok)
              for row in rows}
    assert len(reports) == len(checks) == 8
