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
from sliceweaver.model import Band
from sliceweaver.oracle import solve


@pytest.mark.parametrize("n_sectors", [480, 640])
def test_classify_intent(benchmark, topology, lexicon, n_sectors):
    # Past 512 sectors the ids and keywords outnumber a 512-entry pattern
    # cache; one intent naming the last sector scans every id.
    state = topology(n_sectors, 12)
    target = list(state.sectors)[-1]
    text = f"smart metering telemetry for the sensor fleet at {target}"
    classify_intent(text, state, lexicon)  # compiles the patterns a cache can keep
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


def test_solve_untargeted(benchmark, topology):
    # The scan and the sort alone: the ranking builds a row only when read.
    state = topology(400, 12)
    ranking = benchmark(solve, state, UNTARGETED)
    assert len(ranking) == candidate_count(state)


def test_solve_head(benchmark, topology):
    # What the harness, the rule-based baseline and the referee workloads
    # read: the head of the ranking.
    state = topology(400, 12)
    head = benchmark(lambda: solve(state, UNTARGETED)[0])
    assert head.rank == 1


def test_solve_full_ranking(benchmark, topology):
    # Every row read, as `oracle --out` reads them.
    state = topology(400, 12)
    rows = benchmark(lambda: list(solve(state, UNTARGETED)))
    assert len(rows) == candidate_count(state)
    assert rows[-1].rank == len(rows)
