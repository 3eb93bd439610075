"""Per-layer benchmarks of the referee: the classifier and the oracle.

Not part of the default test run (pyproject's testpaths is `tests`). Run:

    PYTHONPATH=src python -m pytest benchmarks/test_referee.py \
        --benchmark-timer time.process_time --benchmark-json benchmarks/BENCH_referee.json

CPU time, because on a shared machine wall time also counts the time the
process waits for a processor.
"""

from __future__ import annotations

import pytest

from sliceweaver import data as bundled
from sliceweaver.harness import load_scenarios
from sliceweaver.intent import BandwidthCategory, IntentProfile, TrafficClass, classify_intent
from sliceweaver.model import Band, load_state, serialize_state
from sliceweaver.oracle import solve


@pytest.mark.parametrize("n_sectors", [480, 640])
def test_classify_intent(benchmark, topology, lexicon, n_sectors):
    # One intent naming the last sector scans every id. The pattern cache is
    # unbounded, so the cost should grow in step with the sector count; two
    # sizes show it if it does not.
    state = topology(n_sectors, 12)
    target = list(state.sectors)[-1]
    text = f"smart metering telemetry for the sensor fleet at {target}"
    classify_intent(text, state, lexicon)  # compiles the patterns once
    profile = benchmark(classify_intent, text, state, lexicon)
    assert profile.target_sector == target
    assert profile.traffic_class is TrafficClass.MMTC


@pytest.mark.parametrize("lexicon_name", ["default", "strict"])
def test_classify_bundled_suite(benchmark, lexicon_name):
    # One round classifies the 12 bundled intents on the bundled 5-sector
    # state: the referee's per-scenario work in a compare or ablate run.
    state = bundled.default_state()
    lexicon = getattr(bundled, f"{lexicon_name}_lexicon")()
    texts = [s.intent_text for s in load_scenarios(bundled.default_scenarios_path(), state)]
    profiles = benchmark(lambda: [classify_intent(text, state, lexicon) for text in texts])
    assert len(profiles) == 12
    assert all(profile.target_sector in state.sectors for profile in profiles)


# No target sector: the exhaustive scan over every (sector, band, node).
UNTARGETED = IntentProfile(
    raw_text="plain connectivity",
    traffic_class=TrafficClass.EMBB,
    bandwidth_category=BandwidthCategory.MEDIUM,
    tau_req_ms=50.0,
)


def candidate_count(state):
    bands = sum(s.spectrum.available(band) for s in state.sectors.values() for band in Band)
    return bands * len(state.nodes)


@pytest.mark.parametrize("n_sectors", [400, 2000])
def test_solve_head(benchmark, topology, n_sectors):
    # What the harness, the rule-based baseline and the referee workloads
    # read: the head of the ranking, on a state that has been solved before,
    # so its per-sector index and this profile's sector order are kept.
    # `solve` finds the head itself, so this is `solve` alone; the other rows
    # are built and sorted only when read. Topology size is the scale axis.
    state = topology(n_sectors, 12)
    head = benchmark(lambda: solve(state, UNTARGETED)[0])
    assert head.rank == 1
    assert len(solve(state, UNTARGETED)) == candidate_count(state)


# Untargeted profiles of every (class, bandwidth) pair, each at three
# latency bounds from a strict 3 ms to a lenient 200 ms.
UNTARGETED_MIX = [
    IntentProfile(raw_text="untargeted", traffic_class=traffic_class,
                  bandwidth_category=bandwidth, tau_req_ms=tau_req_ms)
    for traffic_class in TrafficClass
    for bandwidth in BandwidthCategory
    for tau_req_ms in (3.0, 20.0, 200.0)
]


def test_solve_head_mix(benchmark, topology):
    # The heads the referee_exhaustive workload reads: untargeted intents of
    # every class and bandwidth and several latency bounds, on one state that
    # has been solved before. One round takes the head of each of the 27
    # profiles, so a round reads each (class, bandwidth) order three times.
    state = topology(400, 12)
    for profile in UNTARGETED_MIX:
        solve(state, profile)[0]
    heads = benchmark(lambda: [solve(state, profile)[0] for profile in UNTARGETED_MIX])
    assert [head.rank for head in heads] == [1] * len(UNTARGETED_MIX)


@pytest.mark.parametrize("n_sectors, n_nodes", [(400, 12), (2000, 50)])
def test_solve_head_cold(benchmark, topology, n_sectors, n_nodes):
    # The first head on a state, which also scans the latency matrix once
    # for each sector's nearest nodes, sorts the sectors into the profile's
    # order and keeps both on the state. Each round solves a state freshly
    # loaded outside the timed call.
    text = serialize_state(topology(n_sectors, n_nodes))
    head = benchmark.pedantic(
        lambda state: solve(state, UNTARGETED)[0],
        setup=lambda: ((load_state(text),), {}),
        rounds=15,
    )
    assert head.rank == 1


def test_solve_full_ranking(benchmark, topology):
    # Every row read, as `oracle --out` reads them.
    state = topology(400, 12)
    rows = benchmark(lambda: list(solve(state, UNTARGETED)))
    assert len(rows) == candidate_count(state)
    assert rows[-1].rank == len(rows)
