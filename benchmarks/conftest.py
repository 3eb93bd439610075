"""Fixtures for the per-layer benchmarks: seeded synthetic topologies.

The builder is deliberately small: sector and node counts are the scale
axis, the seed fixes every load, spectrum and latency value and every
ledger entry, so a case measures the same input on every run.
"""

from __future__ import annotations

import random

import pytest

from sliceweaver import data as bundled
from sliceweaver.model import (
    Band,
    CoreNode,
    NetworkState,
    NodeTier,
    RanSector,
    SliceConfiguration,
    SpectrumBands,
)

DISTRICTS = ("harbor", "midtown", "campus", "depot", "ridge", "market")


def build_topology(n_sectors: int, n_nodes: int, n_slices: int = 0, seed: int = 1) -> NetworkState:
    """`n_sectors` sectors (about a third with mmWave, all with mid and low
    band) and `n_nodes` UPF nodes, each with a latency to every sector, and
    a ledger of `n_slices` provisioned slices, each at a band with spectrum
    at its sector. The ledger has its own seed, so a topology is the same
    with or without one."""
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
    rng = random.Random(f"ledger:{seed}:{n_sectors}:{n_nodes}:{n_slices}")
    sector_ids, node_ids = list(sectors), list(nodes)
    ledger = []
    for k in range(n_slices):
        sector = sectors[rng.choice(sector_ids)]
        bands = [band for band in Band if sector.spectrum.available(band)]
        ledger.append(SliceConfiguration(sector.id, rng.choice(bands), rng.choice(node_ids),
                                         slice_id=f"ledger_{k:04d}"))
    return NetworkState(sectors=sectors, nodes=nodes, provisioned_slices=tuple(ledger))


@pytest.fixture(scope="session")
def topology():
    """Build (and keep) the seeded topology of a given size and ledger."""
    built: dict[tuple[int, int, int], NetworkState] = {}

    def get(n_sectors: int, n_nodes: int, n_slices: int = 0) -> NetworkState:
        size = n_sectors, n_nodes, n_slices
        if size not in built:
            built[size] = build_topology(*size)
        return built[size]

    return get


@pytest.fixture(scope="session")
def lexicon():
    return bundled.default_lexicon()
