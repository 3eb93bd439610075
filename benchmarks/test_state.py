"""Per-layer benchmarks of the network state: loading, encoding, and the
specialist context that every consultation carries.

Not part of the default test run (pyproject's testpaths is `tests`). Run:

    PYTHONPATH=src python -m pytest benchmarks/test_state.py \
        --benchmark-timer time.process_time --benchmark-json benchmarks/BENCH_state.json

A state keeps its text after the first `serialize_state`, and the session
fixture keeps its states, so the cases that must encode work on a fresh
copy (`dataclasses.replace`) made in an untimed setup each round.
"""

from __future__ import annotations

import dataclasses

import pytest

from sliceweaver.agents import build_specialist_message
from sliceweaver.model import Band, SliceConfiguration, apply_provisioning, load_state, serialize_state

# (sectors, nodes) and the rounds each case runs at that size. Fixed rounds
# keep the recorded JSON small: a cache hit would otherwise be calibrated to
# some 200k rounds, each one stored.
SIZES = [(5, 4), (50, 12), (500, 50), (2000, 50)]
ROUNDS = {5: 200, 50: 50, 500: 10, 2000: 5}

RAN_REQUEST = "Which band and sector fit a low-latency slice?"
CORE_REQUEST = "Which UPF node meets the latency bound for that sector?"


def fresh_copy(state):
    return lambda: ((dataclasses.replace(state),), {})


@pytest.mark.parametrize("n_sectors,n_nodes", SIZES)
def test_load_state(benchmark, topology, n_sectors, n_nodes):
    state = topology(n_sectors, n_nodes)
    document = serialize_state(state)
    loaded = benchmark.pedantic(load_state, args=(document,), rounds=ROUNDS[n_sectors])
    assert loaded == state


@pytest.mark.parametrize("n_sectors,n_nodes", SIZES)
def test_serialize_state_fresh(benchmark, topology, n_sectors, n_nodes):
    state = topology(n_sectors, n_nodes)
    text = benchmark.pedantic(serialize_state, setup=fresh_copy(state), rounds=ROUNDS[n_sectors])
    assert text == serialize_state(state)


@pytest.mark.parametrize("n_sectors,n_nodes", SIZES)
def test_serialize_state_cached(benchmark, topology, n_sectors, n_nodes):
    state = topology(n_sectors, n_nodes)
    text = serialize_state(state)
    # 100 calls a round: one cache hit is shorter than the timer's resolution.
    cached = benchmark.pedantic(
        serialize_state, args=(state,), rounds=ROUNDS[n_sectors], iterations=100
    )
    assert cached == text


@pytest.mark.parametrize("n_sectors,n_nodes", SIZES)
def test_consult_consult_provision(benchmark, topology, n_sectors, n_nodes):
    # One multi-agent session on one state: the RAN and Core specialist
    # messages, then the provisioning of the chosen slice.
    state = topology(n_sectors, n_nodes)
    config = SliceConfiguration(
        sector_id=next(iter(state.sectors)),
        band=Band.MID_BAND,
        node_id=next(iter(state.nodes)),
        slice_id="bench_001",
    )

    def session(fresh):
        build_specialist_message(RAN_REQUEST, fresh)
        message = build_specialist_message(CORE_REQUEST, fresh)
        apply_provisioning(fresh, config)
        return message

    message = benchmark.pedantic(session, setup=fresh_copy(state), rounds=ROUNDS[n_sectors])
    benchmark.extra_info["specialist_message_chars"] = len(message)
    benchmark.extra_info["specialist_message_tokens"] = len(message) // 4
