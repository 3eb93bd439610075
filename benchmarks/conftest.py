"""Fixtures for the per-layer benchmarks: seeded synthetic topologies.

The builder is deliberately small: sector and node counts are the scale
axis, the seed fixes every load, spectrum and latency value, so a case
measures the same input on every run.
"""

from __future__ import annotations

import random

import pytest

from sliceweaver import data as bundled
from sliceweaver.model import CoreNode, NetworkState, NodeTier, RanSector, SpectrumBands

DISTRICTS = ("harbor", "midtown", "campus", "depot", "ridge", "market")


def build_topology(n_sectors: int, n_nodes: int, seed: int = 1) -> NetworkState:
    """`n_sectors` sectors (about a third with mmWave, all with mid and low
    band) and `n_nodes` UPF nodes, each with a latency to every sector."""
    rng = random.Random(f"topology:{seed}:{n_sectors}:{n_nodes}")
    sectors = {}
    for i in range(n_sectors):
        sector_id = f"{rng.choice(DISTRICTS)}_{i:04d}"
        sectors[sector_id] = RanSector(
            id=sector_id,
            active_users=rng.randint(50, 50000),
            load_percent=round(rng.uniform(5, 95), 1),
            spectrum=SpectrumBands(
                mmwave_mhz=rng.choice((200.0, 400.0)) if rng.random() < 0.35 else 0.0,
                mid_band_mhz=rng.choice((20.0, 60.0, 100.0)),
                low_band_mhz=rng.choice((10.0, 30.0, 50.0)),
            ),
        )
    nodes = {}
    for j in range(n_nodes):
        node_id = f"upf_{j:02d}"
        nodes[node_id] = CoreNode(
            id=node_id,
            tier=NodeTier.EDGE if j % 2 == 0 else NodeTier.METRO,
            compute_load_percent=round(rng.uniform(20, 95), 1),
            latency_to_sector={sid: round(rng.uniform(2, 45), 1) for sid in sectors},
        )
    return NetworkState(sectors=sectors, nodes=nodes)


@pytest.fixture(scope="session")
def topology():
    """Build (and keep) the seeded topology of a given size."""
    built: dict[tuple[int, int], NetworkState] = {}

    def get(n_sectors: int, n_nodes: int) -> NetworkState:
        if (n_sectors, n_nodes) not in built:
            built[n_sectors, n_nodes] = build_topology(n_sectors, n_nodes)
        return built[n_sectors, n_nodes]

    return get


@pytest.fixture(scope="session")
def lexicon():
    return bundled.default_lexicon()
