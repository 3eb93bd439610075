"""Per-layer benchmarks of the referee: the classifier and the oracle.

Not part of the default test run (pyproject's testpaths is `tests`). Run:

    PYTHONPATH=src python -m pytest benchmarks/test_referee.py \
        --benchmark-timer time.process_time --benchmark-json benchmarks/BENCH_referee.json

CPU time, because on a shared machine wall time also counts the time the
process waits for a processor.
"""

from __future__ import annotations

import pytest

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


def test_solve_untargeted(benchmark, topology):
    # No target sector: the exhaustive scan over every (sector, band, node).
    state = topology(400, 12)
    profile = IntentProfile(
        raw_text="plain connectivity",
        traffic_class=TrafficClass.EMBB,
        bandwidth_category=BandwidthCategory.MEDIUM,
        tau_req_ms=50.0,
    )
    ranking = benchmark(solve, state, profile)
    bands = sum(s.spectrum.available(band) for s in state.sectors.values() for band in Band)
    assert len(ranking) == bands * len(state.nodes)
