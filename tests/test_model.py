from __future__ import annotations

import dataclasses
import json
import math
import random
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sliceweaver import data as bundled
from sliceweaver import model
from sliceweaver.gateway import ScriptedExchange, SuiteFixture
from sliceweaver.harness import ColumnStats, HarnessConfig, HarnessError, load_scenarios
from sliceweaver.model import (
    Band,
    CoreNode,
    EvaluationRecord,
    NetworkState,
    NodeTier,
    ProvisioningError,
    RanSector,
    SliceConfiguration,
    SpectrumBands,
    StateError,
    StateParseError,
    StateValidationError,
    UnknownIdError,
    apply_provisioning,
    config_to_dict,
    latency,
    load_state,
    serialize_state,
    state_to_dict,
)

from json_edits import edited_text

# Full latency matrix of the bundled topology, sector -> node -> ms.
EXPECTED_LATENCY = {
    "stadium_central": {"mec_stadium_1": 2, "mec_industrial_1": 15, "metro_agg_hub": 8, "regional_dc_north": 35},
    "city_plaza": {"mec_stadium_1": 12, "mec_industrial_1": 12, "metro_agg_hub": 5, "regional_dc_north": 30},
    "industrial_park_a": {"mec_stadium_1": 15, "mec_industrial_1": 3, "metro_agg_hub": 10, "regional_dc_north": 35},
    "suburban_residential": {"mec_stadium_1": 25, "mec_industrial_1": 25, "metro_agg_hub": 15, "regional_dc_north": 40},
    "rural_highway": {"mec_stadium_1": 45, "mec_industrial_1": 40, "metro_agg_hub": 25, "regional_dc_north": 50},
}

GOLDEN_INDUSTRIAL = SliceConfiguration(
    sector_id="industrial_park_a",
    band=Band.MID_BAND,
    node_id="mec_industrial_1",
    slice_id="industrial_autonomy_001",
)


def minimal_doc():
    return {
        "sectors": {
            "s1": {
                "active_users": 10,
                "load_percentage": 50,
                "spectrum_available_mhz": {"mmWave": 100, "mid_band": 50, "low_band": 10},
            }
        },
        "nodes": {
            "n1": {
                "type": "edge",
                "latency_to_ran_ms": {"s1": 5},
                "compute_load_percent": 20,
            }
        },
    }


def test_bundled_topology_shape(state):
    assert len(state.sectors) == 5
    assert len(state.nodes) == 4
    stadium = state.sector("stadium_central")
    assert stadium.active_users == 45000
    assert stadium.load_percent == 88
    assert stadium.spectrum.mmwave_mhz == 800
    assert stadium.spectrum.mid_band_mhz == 20
    assert stadium.spectrum.low_band_mhz == 5
    rural = state.sector("rural_highway")
    assert rural.spectrum.mmwave_mhz == 0
    assert not rural.spectrum.available(Band.MMWAVE)
    assert state.node("mec_industrial_1").compute_load_percent == 30
    assert state.node("regional_dc_north").tier is NodeTier.REGIONAL


@pytest.mark.parametrize(
    "sector,node,expected",
    [
        ("industrial_park_a", "mec_industrial_1", 3),
        ("stadium_central", "mec_stadium_1", 2),
        ("rural_highway", "regional_dc_north", 50),
    ],
)
def test_latency_examples(state, sector, node, expected):
    assert latency(state, sector, node) == expected


def test_latency_matrix_is_total_and_exact(state):
    pairs = 0
    for sector_id, row in EXPECTED_LATENCY.items():
        for node_id, expected in row.items():
            assert latency(state, sector_id, node_id) == expected
            pairs += 1
    assert pairs == 20


def test_latency_unknown_ids(state):
    with pytest.raises(UnknownIdError):
        latency(state, "nowhere", "mec_stadium_1")
    with pytest.raises(UnknownIdError):
        latency(state, "stadium_central", "no_such_node")


def test_empty_state_rejected():
    doc = minimal_doc()
    doc["sectors"] = {}
    with pytest.raises(StateValidationError):
        load_state(json.dumps(doc))
    doc = minimal_doc()
    doc["nodes"] = {}
    with pytest.raises(StateValidationError):
        load_state(json.dumps(doc))
    # Built directly, a state checks the same.
    state = load_state(json.dumps(minimal_doc()))
    for sectors, nodes, message in (
        ({}, state.nodes, "state must contain at least one sector"),
        (state.sectors, {}, "state must contain at least one node"),
    ):
        with pytest.raises(StateValidationError) as excinfo:
            NetworkState(sectors=sectors, nodes=nodes)
        assert str(excinfo.value) == message


def test_an_empty_node_id_rejected():
    doc = minimal_doc()
    doc["nodes"][""] = doc["nodes"].pop("n1")
    with pytest.raises(StateValidationError) as excinfo:
        load_state(json.dumps(doc))
    assert str(excinfo.value) == "node id must be non-empty"


def test_missing_latency_entry_names_the_pair():
    doc = minimal_doc()
    doc["sectors"]["s2"] = doc["sectors"]["s1"].copy()
    with pytest.raises(StateValidationError) as excinfo:
        load_state(json.dumps(doc))
    assert "n1" in str(excinfo.value)
    assert "s2" in str(excinfo.value)


def test_renamed_latency_entry_reports_the_missing_sector():
    # The row has one key per sector, but one key names no sector: the
    # missing sector is reported first, as for a short row.
    doc = minimal_doc()
    doc["sectors"]["s2"] = doc["sectors"]["s1"].copy()
    doc["nodes"]["n1"]["latency_to_ran_ms"] = {"s1": 5, "ghost": 4}
    with pytest.raises(StateValidationError) as excinfo:
        load_state(json.dumps(doc))
    assert str(excinfo.value) == "node 'n1' is missing a latency entry for sector 's2'"


def test_latency_entry_for_unknown_sector_rejected():
    doc = minimal_doc()
    doc["nodes"]["n1"]["latency_to_ran_ms"]["ghost"] = 4
    with pytest.raises(StateValidationError) as excinfo:
        load_state(json.dumps(doc))
    assert "ghost" in str(excinfo.value)


def test_unknown_fields_rejected():
    doc = minimal_doc()
    doc["extra_top"] = 1
    with pytest.raises(StateValidationError):
        load_state(json.dumps(doc))
    doc = minimal_doc()
    doc["sectors"]["s1"]["surprise"] = 1
    with pytest.raises(StateValidationError):
        load_state(json.dumps(doc))
    doc = minimal_doc()
    doc["nodes"]["n1"]["surprise"] = 1
    with pytest.raises(StateValidationError):
        load_state(json.dumps(doc))


def test_out_of_range_values_rejected():
    doc = minimal_doc()
    doc["sectors"]["s1"]["load_percentage"] = 101
    with pytest.raises(StateValidationError):
        load_state(json.dumps(doc))
    doc = minimal_doc()
    doc["sectors"]["s1"]["active_users"] = -1
    with pytest.raises(StateValidationError):
        load_state(json.dumps(doc))
    doc = minimal_doc()
    doc["nodes"]["n1"]["compute_load_percent"] = -5
    with pytest.raises(StateValidationError):
        load_state(json.dumps(doc))
    doc = minimal_doc()
    doc["nodes"]["n1"]["latency_to_ran_ms"]["s1"] = 0
    with pytest.raises(StateValidationError):
        load_state(json.dumps(doc))
    doc = minimal_doc()
    doc["sectors"]["s1"]["spectrum_available_mhz"]["mmWave"] = -1
    with pytest.raises(StateValidationError):
        load_state(json.dumps(doc))
    # json reads NaN, Infinity and -Infinity, and an integer past the float range.
    for value in (float("nan"), float("inf"), float("-inf"), 10**400):
        for path in (
            ("sectors", "s1", "spectrum_available_mhz", "mmWave"),
            ("sectors", "s1", "load_percentage"),
            ("nodes", "n1", "compute_load_percent"),
            ("nodes", "n1", "latency_to_ran_ms", "s1"),
        ):
            doc = minimal_doc()
            entry = doc
            for key in path[:-1]:
                entry = entry[key]
            entry[path[-1]] = value
            with pytest.raises(StateValidationError, match="finite"):
                load_state(json.dumps(doc))
    # Built directly, the dataclasses reject NaN too.
    with pytest.raises(StateValidationError):
        SpectrumBands(mmwave_mhz=float("nan"), mid_band_mhz=1.0, low_band_mhz=1.0)
    with pytest.raises(StateValidationError):
        CoreNode(
            id="n1", tier=NodeTier.EDGE, compute_load_percent=1.0,
            latency_to_sector={"s1": float("nan")},
        )


@pytest.mark.parametrize("load", [0, 100, 0.0, 100.0], ids=repr)
def test_every_range_includes_its_bounds(number_checks, load):
    doc = minimal_doc()
    doc["sectors"]["s1"].update(active_users=0, load_percentage=load)
    doc["sectors"]["s1"]["spectrum_available_mhz"] = {"mmWave": 0, "mid_band": 0.0, "low_band": 0}
    sector = load_state(json.dumps(doc)).sector("s1")
    assert sector == RanSector(id="s1", active_users=0, load_percent=float(load),
                               spectrum=SpectrumBands(0.0, 0.0, 0.0))
    assert not [where for where in number_checks if where.startswith("sector")]  # one pass


@pytest.mark.parametrize("sector_id", ["", "-", " ", "_", "--", " \t"])
def test_sector_id_needs_a_letter_or_digit(sector_id):
    # Punctuation in an intent would otherwise "name" such a sector.
    doc = minimal_doc()
    doc["sectors"][sector_id] = doc["sectors"]["s1"].copy()
    doc["nodes"]["n1"]["latency_to_ran_ms"][sector_id] = 5
    with pytest.raises(StateValidationError, match="no letter or digit"):
        load_state(json.dumps(doc))
    with pytest.raises(StateValidationError, match="no letter or digit"):
        RanSector(id=sector_id, active_users=1, load_percent=1.0,
                  spectrum=SpectrumBands(1.0, 1.0, 1.0))
    RanSector(id=f"{sector_id}7", active_users=1, load_percent=1.0,
              spectrum=SpectrumBands(1.0, 1.0, 1.0))


def test_duplicate_keys_rejected():
    text = (
        '{"sectors": {"s1": {"active_users": 1, "load_percentage": 1,'
        ' "spectrum_available_mhz": {"mmWave": 1, "mid_band": 1, "low_band": 1}},'
        ' "s1": {"active_users": 2, "load_percentage": 2,'
        ' "spectrum_available_mhz": {"mmWave": 1, "mid_band": 1, "low_band": 1}}},'
        ' "nodes": {"n1": {"type": "edge", "latency_to_ran_ms": {"s1": 5},'
        ' "compute_load_percent": 1}}}'
    )
    with pytest.raises(StateValidationError) as excinfo:
        load_state(text)
    assert "s1" in str(excinfo.value)


def test_malformed_document_is_a_parse_error():
    with pytest.raises(StateParseError):
        load_state("{not json")
    with pytest.raises(StateParseError):
        load_state("[" * 100000 + "]" * 100000)
    with pytest.raises(StateParseError):  # past the interpreter's int-digit limit
        load_state('{"sectors": ' + "1" * 5000 + "}")


def test_tier_aliases():
    for alias, expected in (("core", NodeTier.REGIONAL), ("regional", NodeTier.REGIONAL),
                            ("metro", NodeTier.METRO), ("edge", NodeTier.EDGE)):
        doc = minimal_doc()
        doc["nodes"]["n1"]["type"] = alias
        assert load_state(json.dumps(doc)).node("n1").tier is expected
    doc = minimal_doc()
    doc["nodes"]["n1"]["type"] = "orbital"
    with pytest.raises(StateValidationError):
        load_state(json.dumps(doc))


def test_serialize_is_canonical_and_round_trips(state):
    text = serialize_state(state)
    assert text == serialize_state(state)  # byte-stable
    assert json.loads(text) == json.loads(serialize_state(load_state(text)))
    assert load_state(text) == state


def test_mutation_shows_up_only_at_the_mutated_field(state):
    import dataclasses

    sector = state.sector("city_plaza")
    mutated_sector = dataclasses.replace(sector, load_percent=77.0)
    sectors = dict(state.sectors)
    sectors["city_plaza"] = mutated_sector
    mutated = dataclasses.replace(state, sectors=sectors)
    before = json.loads(serialize_state(state))
    after = json.loads(serialize_state(mutated))
    assert before != after
    after["sectors"]["city_plaza"]["load_percentage"] = before["sectors"]["city_plaza"]["load_percentage"]
    assert before == after


def test_apply_provisioning_records_ledger_entry(state):
    provisioned = apply_provisioning(state, GOLDEN_INDUSTRIAL)
    assert len(provisioned.provisioned_slices) == 1
    assert provisioned.provisioned_slices[0] == GOLDEN_INDUSTRIAL
    # Loads are untouched: a provisioning decision, not load feedback.
    assert provisioned.sectors == state.sectors
    assert provisioned.nodes == state.nodes
    assert state.provisioned_slices == ()  # original untouched


def test_apply_provisioning_rejects_unavailable_band(state):
    config = SliceConfiguration(
        sector_id="suburban_residential", band=Band.MMWAVE, node_id="metro_agg_hub"
    )
    with pytest.raises(ProvisioningError):
        apply_provisioning(state, config)


def test_apply_provisioning_rejects_unknown_ids_and_duplicates(state):
    with pytest.raises(ProvisioningError):
        apply_provisioning(
            state, SliceConfiguration("nowhere", Band.MID_BAND, "metro_agg_hub")
        )
    with pytest.raises(ProvisioningError):
        apply_provisioning(
            state, SliceConfiguration("city_plaza", Band.MID_BAND, "no_such_node")
        )
    once = apply_provisioning(state, GOLDEN_INDUSTRIAL)
    with pytest.raises(ProvisioningError):
        apply_provisioning(once, GOLDEN_INDUSTRIAL)


def test_a_repeated_slice_id_is_found_in_a_250_slice_ledger():
    doc = bundled_doc()
    doc["provisioned_slices"] = [ledger_entry(slice_id=f"ledger_{k:04d}") for k in range(250)]
    state = load_state(json.dumps(doc))
    hit = dataclasses.replace(GOLDEN_INDUSTRIAL, slice_id="ledger_0137")
    with pytest.raises(ProvisioningError) as excinfo:
        apply_provisioning(state, hit)
    assert str(excinfo.value) == "slice id 'ledger_0137' already provisioned"
    derived = apply_provisioning(state, GOLDEN_INDUSTRIAL)  # a miss
    assert derived.provisioned_slices == state.provisioned_slices + (GOLDEN_INDUSTRIAL,)
    assert len(state._slice_ids) == 250
    # A derived state starts without the set and builds its own, which holds
    # the new id.
    assert "_slice_ids" not in vars(derived)
    assert derived._slice_ids == state._slice_ids | {"industrial_autonomy_001"}
    with pytest.raises(ProvisioningError, match="'industrial_autonomy_001' already provisioned"):
        apply_provisioning(derived, GOLDEN_INDUSTRIAL)
    unnamed = dataclasses.replace(GOLDEN_INDUSTRIAL, slice_id=None)
    twice = apply_provisioning(apply_provisioning(derived, unnamed), unnamed)
    assert twice.provisioned_slices[-2:] == (unnamed, unnamed)


def test_provisioned_state_round_trips(state):
    provisioned = apply_provisioning(state, GOLDEN_INDUSTRIAL)
    assert load_state(serialize_state(provisioned)) == provisioned


def test_loading_an_empty_slice_id_rejected(state):
    # The wire form omits an empty slice_id, so it would reload as None and
    # break load_state(serialize_state(s)) == s.
    doc = json.loads(serialize_state(state))
    doc["provisioned_slices"] = [
        {"sector": "city_plaza", "band": "mid_band", "node": "metro_agg_hub", "slice_id": ""}
    ]
    with pytest.raises(StateValidationError) as excinfo:
        load_state(json.dumps(doc))
    assert "slice_id" in str(excinfo.value)


def test_loaded_state_is_read_only(state):
    node = state.node("metro_agg_hub")
    for mapping, key, value in (
        (state.sectors, "city_plaza", state.sector("rural_highway")),
        (state.nodes, "metro_agg_hub", state.node("mec_stadium_1")),
        (node.latency_to_sector, "city_plaza", 1.0),
    ):
        with pytest.raises(TypeError):
            mapping[key] = value
        with pytest.raises(TypeError):
            del mapping[key]


def test_state_does_not_share_the_callers_dicts(state):
    provisioned = apply_provisioning(state, GOLDEN_INDUSTRIAL)
    # The caller's dicts as they are, or read-only views of them, through
    # which the caller can still change them.
    for view in (lambda mapping: mapping, MappingProxyType):
        sectors = dict(state.sectors)
        latencies = dict(state.node("metro_agg_hub").latency_to_sector)
        node = dataclasses.replace(state.node("metro_agg_hub"), latency_to_sector=view(latencies))
        nodes = {**state.nodes, "metro_agg_hub": node}
        ledger = [GOLDEN_INDUSTRIAL]
        built = NetworkState(sectors=view(sectors), nodes=view(nodes), provisioned_slices=ledger)
        text = serialize_state(built)
        sectors.pop("city_plaza")
        nodes.pop("mec_stadium_1")
        latencies["city_plaza"] = -5.0
        ledger.clear()
        assert "city_plaza" in built.sectors
        assert "mec_stadium_1" in built.nodes
        assert built.node("metro_agg_hub").latency_to_sector["city_plaza"] == 5
        assert built.provisioned_slices == (GOLDEN_INDUSTRIAL,)
        assert serialize_state(built) == text == serialize_state(provisioned)
        assert load_state(text) == built


def test_loading_duplicate_slice_ids_rejected(state):
    doc = json.loads(serialize_state(state))
    entry = {"sector": "city_plaza", "band": "mid_band", "node": "metro_agg_hub", "slice_id": "dup"}
    doc["provisioned_slices"] = [entry, dict(entry)]
    with pytest.raises(StateValidationError):
        load_state(json.dumps(doc))


_sector_ids = st.lists(
    st.text(alphabet="abcdefgh_", min_size=1, max_size=8).filter(lambda sid: sid.strip("_")),
    min_size=1, max_size=3, unique=True,
)
_node_ids = st.lists(
    st.text(alphabet="nopqrstu_", min_size=1, max_size=8), min_size=1, max_size=3, unique=True
)


@st.composite
def network_states(draw):
    sector_ids = draw(_sector_ids)
    node_ids = draw(_node_ids)
    sectors = {}
    for sid in sector_ids:
        sectors[sid] = RanSector(
            id=sid,
            active_users=draw(st.integers(min_value=0, max_value=10**6)),
            load_percent=draw(st.floats(min_value=0, max_value=100, allow_nan=False)),
            spectrum=SpectrumBands(
                mmwave_mhz=draw(st.integers(min_value=0, max_value=1000)),
                mid_band_mhz=draw(st.integers(min_value=0, max_value=1000)),
                low_band_mhz=draw(st.integers(min_value=0, max_value=1000)),
            ),
            context=draw(st.text(max_size=12)),
        )
    nodes = {}
    for nid in node_ids:
        nodes[nid] = CoreNode(
            id=nid,
            tier=draw(st.sampled_from(list(NodeTier))),
            compute_load_percent=draw(st.floats(min_value=0, max_value=100, allow_nan=False)),
            latency_to_sector={
                sid: draw(st.floats(min_value=0.5, max_value=200, allow_nan=False))
                for sid in sector_ids
            },
        )
    return NetworkState(sectors=sectors, nodes=nodes)


_slice_ids = st.text(min_size=1, max_size=10)


@st.composite
def provisioning_chains(draw, max_size=4):
    """A generated state and the states that `apply_provisioning` makes from
    it, one slice at a time (ids unique when set)."""
    chain = [draw(network_states())]
    used: set[str] = set()
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        state = chain[-1]
        sector = state.sector(draw(st.sampled_from(sorted(state.sectors))))
        bands = [band for band in Band if sector.spectrum.available(band)]
        if not bands:
            break
        slice_id = draw(st.none() | _slice_ids.filter(lambda sid: sid not in used))
        if slice_id is not None:
            used.add(slice_id)
        config = SliceConfiguration(
            sector_id=sector.id,
            band=draw(st.sampled_from(bands)),
            node_id=draw(st.sampled_from(sorted(state.nodes))),
            slice_id=slice_id,
        )
        chain.append(apply_provisioning(state, config))
    return chain


@settings(max_examples=50, deadline=None)
@given(provisioning_chains())
def test_round_trip_identity_property(chain):
    for random_state in chain:
        assert load_state(serialize_state(random_state)) == random_state


def _rekeyed(draw, ids: list[str]) -> list[str]:
    """`ids` as map keys; now and then one of them is another text."""
    keys = list(ids)
    if draw(st.integers(0, 3)) == 0:
        keys[draw(st.integers(0, len(keys) - 1))] = draw(
            st.text(alphabet="ahnu_", min_size=1, max_size=3))
    return keys


@st.composite
def state_parts(draw):
    """The sector map, node map and ledger of a state built directly: each
    record valid, but a map key, a latency row or a ledger entry may break a
    rule that spans records."""
    sector_ids = draw(_sector_ids)
    sector_keys = _rekeyed(draw, sector_ids)
    numbers = st.integers(min_value=0, max_value=1000) | st.floats(min_value=0, max_value=100)
    percents = st.integers(min_value=0, max_value=100) | st.floats(min_value=0, max_value=100)
    sectors = {
        key: RanSector(id=sid, active_users=draw(st.integers(min_value=0, max_value=10**6)),
                       load_percent=draw(percents),
                       spectrum=SpectrumBands(draw(numbers), draw(numbers), draw(numbers)),
                       context=draw(st.text(max_size=6)))
        for key, sid in zip(sector_keys, sector_ids)
    }
    node_ids = draw(_node_ids)
    nodes = {}
    for key, nid in zip(_rekeyed(draw, node_ids), node_ids):
        row = {sid: draw(st.floats(min_value=0.5, max_value=200)) for sid in sectors}
        if draw(st.integers(0, 5)) == 0:
            row.pop(draw(st.sampled_from(sorted(row))))
        if draw(st.integers(0, 5)) == 0:
            row["elsewhere"] = 1.0
        nodes[key] = CoreNode(id=nid, tier=draw(st.sampled_from(list(NodeTier))),
                              compute_load_percent=draw(percents),
                              latency_to_sector=row)
    ledger = draw(st.lists(st.builds(
        SliceConfiguration,
        sector_id=st.sampled_from(sorted({*sectors, *sector_ids, "elsewhere"})),
        band=st.sampled_from(list(Band)),
        node_id=st.sampled_from(sorted({*nodes, *node_ids, "elsewhere"})),
        slice_id=st.none() | st.sampled_from(["s1", "s2"]),
    ), max_size=3))
    return sectors, nodes, ledger


def _parts(sector_key: str = "city_plaza", ledger=()):
    sector = RanSector("city_plaza", 10, 50.0, SpectrumBands(0.0, 20.0, 10.0))
    node = CoreNode("upf_1", NodeTier.EDGE, 10.0, {sector_key: 3.0})
    return {sector_key: sector}, {"upf_1": node}, list(ledger)


# States whose records are valid but whose parts break a rule that spans
# records, with the error each raises: their canonical text would not load.
_STATES_THAT_WOULD_NOT_LOAD = {
    "sector-under-another-key": (
        _parts(sector_key="plaza_typo"),
        StateValidationError, "sector 'city_plaza' is stored under the key 'plaza_typo'"),
    "ledger-names-an-unknown-sector": (
        _parts(ledger=[SliceConfiguration("plaza", Band.MID_BAND, "upf_1")]),
        UnknownIdError, "unknown sector 'plaza'"),
    "repeated-slice-id": (
        _parts(ledger=[SliceConfiguration("city_plaza", Band.MID_BAND, "upf_1", "s1")] * 2),
        StateValidationError, "duplicate id or key 's1' in provisioned_slices"),
}


@settings(max_examples=200, deadline=None)
@given(state_parts())
@example(_STATES_THAT_WOULD_NOT_LOAD["sector-under-another-key"][0])
@example(_STATES_THAT_WOULD_NOT_LOAD["ledger-names-an-unknown-sector"][0])
@example(_STATES_THAT_WOULD_NOT_LOAD["repeated-slice-id"][0])
@example(_parts(ledger=[SliceConfiguration("city_plaza", Band.LOW_BAND, "upf_1", "s1")]))
def test_every_state_that_builds_loads_from_its_own_text(parts):
    try:
        built = NetworkState(*parts)
    except StateError:
        return
    assert load_state(serialize_state(built)) == built


@pytest.mark.parametrize("case", list(_STATES_THAT_WOULD_NOT_LOAD))
def test_a_state_that_would_not_load_does_not_build(case):
    parts, error, message = _STATES_THAT_WOULD_NOT_LOAD[case]
    with pytest.raises(error) as excinfo:
        NetworkState(*parts)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


@settings(max_examples=50, deadline=None)
@given(provisioning_chains())
def test_cached_text_is_never_stale(chain):
    for random_state in chain:
        reference = json.dumps(state_to_dict(random_state), indent=2, sort_keys=True) + "\n"
        assert serialize_state(random_state) == reference
        assert serialize_state(random_state) == reference  # from the cache
        for mapping in (random_state.sectors, random_state.nodes) + tuple(
            node.latency_to_sector for node in random_state.nodes.values()
        ):
            key = next(iter(mapping))
            with pytest.raises(TypeError):
                mapping[key] = mapping[key]
            with pytest.raises(TypeError):
                del mapping[key]
    # A replaced state encodes its own fields, not its parent's cached text.
    parent = chain[-1]
    serialize_state(parent)
    first = next(iter(parent.sectors.values()))
    busier = dataclasses.replace(first, active_users=first.active_users + 1)
    child = dataclasses.replace(parent, sectors={**parent.sectors, first.id: busier})
    assert serialize_state(child) == (
        json.dumps(state_to_dict(child), indent=2, sort_keys=True) + "\n"
    )
    assert serialize_state(child) != serialize_state(parent)
    bare = dataclasses.replace(parent, provisioned_slices=())
    assert serialize_state(bare) == serialize_state(chain[0])


@settings(max_examples=50, deadline=None)
@given(provisioning_chains())
def test_a_provisioned_state_is_the_state_built_from_its_parts(chain):
    for parent, child in zip(chain, chain[1:]):
        config = child.provisioned_slices[-1]
        serialize_state(parent)  # a parent's cached text is not handed on
        for derived in (child, apply_provisioning(parent, config)):
            built = NetworkState(
                parent.sectors, parent.nodes, parent.provisioned_slices + (config,)
            )
            assert derived == built
            # Nothing cached on `parent` is handed on; `child` may hold its
            # own slice-id set, built when the chain provisioned from it.
            assert [key for key in vars(derived) if key != "_slice_ids"] == list(vars(built))
            assert derived.sectors is parent.sectors
            assert derived.nodes is parent.nodes
            assert derived._nearest_nodes == {}
            assert derived._nearest_nodes is not parent._nearest_nodes


def test_a_state_and_a_config_list_only_their_data_as_fields():
    # What they derive and keep (nearest nodes, referee profiles, cached
    # text) are cached properties, not fields.
    assert [f.name for f in dataclasses.fields(NetworkState)] == [
        "sectors", "nodes", "provisioned_slices"]
    assert [f.name for f in dataclasses.fields(HarnessConfig)] == [
        "state", "prompts", "thresholds", "repeats", "jobs"]


def test_provisioning_does_not_check_the_topology_again(state, monkeypatch):
    checks = []
    post_init = NetworkState.__post_init__

    def counting(self):
        checks.append(1)
        post_init(self)

    monkeypatch.setattr(NetworkState, "__post_init__", counting)
    provisioned = apply_provisioning(state, GOLDEN_INDUSTRIAL)
    assert checks == []
    # Every other way to build a state still checks it.
    assert NetworkState(state.sectors, state.nodes, provisioned.provisioned_slices) == provisioned
    assert load_state(serialize_state(provisioned)) == provisioned
    assert dataclasses.replace(provisioned) == provisioned
    assert len(checks) == 3
    extra = dataclasses.replace(state.sector("city_plaza"), id="extra_cell")
    with pytest.raises(StateValidationError, match="missing a latency entry for sector 'extra_cell'"):
        dataclasses.replace(provisioned, sectors={**provisioned.sectors, "extra_cell": extra})


def _built_state(sector_id, node_id, context, users, load, spectrum, compute, tau):
    sector = RanSector(id=sector_id, active_users=users, load_percent=load,
                       spectrum=SpectrumBands(*spectrum), context=context)
    node = CoreNode(id=node_id, tier=NodeTier.METRO, compute_load_percent=compute,
                    latency_to_sector={sector_id: tau, "cell_2": 7}, context=context)
    other = RanSector(id="cell_2", active_users=0, load_percent=0,
                      spectrum=SpectrumBands(0, 20, 0))
    return NetworkState(sectors={sector_id: sector, "cell_2": other}, nodes={node_id: node})


# States built directly, not loaded: their values keep the type the caller
# passed, so ints, bools and infinities reach the encoder as they are.
@pytest.mark.parametrize("state", [
    _built_state("zone_ü", "upf_北", "café ☕ \"quoted\" 100%", 3, 50, (0, 80, 10), 20, 4),
    _built_state("区域1", "nœud", "\U0001f600\n%s", True, True, (True, False, 1.5), False, True),
    _built_state("cell_1", "upf_1", "", 0, 12.5, (math.inf, 0.0, 5), 85, math.inf),
], ids=["ints", "bools", "inf"])
def test_a_built_state_serializes_as_json_dumps(state):
    assert serialize_state(state) == (
        json.dumps(state_to_dict(state), indent=2, sort_keys=True) + "\n"
    )


@pytest.mark.parametrize("band, field", [
    (Band.MMWAVE, "mmwave_mhz"),
    (Band.MID_BAND, "mid_band_mhz"),
    (Band.LOW_BAND, "low_band_mhz"),
])
@pytest.mark.parametrize("mhz", [0.0, 0.5, 40.0])
def test_for_band_reads_the_band_field(band, field, mhz):
    others = {name: 7.0 for name in ("mmwave_mhz", "mid_band_mhz", "low_band_mhz")}
    spectrum = SpectrumBands(**{**others, field: mhz})
    assert spectrum.for_band(band) == mhz
    assert spectrum.for_band(band.value) == mhz  # Band is a str enum
    assert spectrum.available(band) is (mhz > 0)
    assert all(spectrum.for_band(other) == 7.0 for other in Band if other is not band)


def bundled_doc() -> dict:
    return json.loads(bundled.default_state_path().read_text(encoding="utf-8"))


def ledger_entry(**fields) -> dict:
    return {"sector": "city_plaza", "band": "mid_band", "node": "metro_agg_hub", **fields}


@pytest.mark.parametrize("value", [None, True, 7, ["x"]], ids=repr)
@pytest.mark.parametrize("path, where", [
    pytest.param(("sectors", "city_plaza", "description"), "sector 'city_plaza'",
                 id="sector-description"),
    pytest.param(("nodes", "metro_agg_hub", "description"), "node 'metro_agg_hub'",
                 id="node-description"),
    pytest.param(("provisioned_slices", 0, "slice_id"), "provisioned_slices[0]", id="slice_id"),
    pytest.param(("provisioned_slices", 0, "sector"), "provisioned_slices[0]", id="ledger-sector"),
    pytest.param(("provisioned_slices", 0, "node"), "provisioned_slices[0]", id="ledger-node"),
])
def test_a_text_field_that_is_not_a_string_is_rejected(path, where, value):
    # Such values used to load as their str(): a null description put the
    # text "None" into every specialist prompt.
    if path[-1] == "slice_id" and value is None:
        value = 7  # null, like an absent key, is a slice without an id
    doc = bundled_doc()
    doc["provisioned_slices"] = [ledger_entry(slice_id="s_001")]
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    key = path[-1]
    with pytest.raises(StateValidationError) as excinfo:
        load_state(json.dumps(doc))
    assert str(excinfo.value) == f"{where}: {key} must be a string, got {value!r}"


# Each caller of `_check_keys`: where its entry sits in its document (the
# bundled state with one ledger entry, or the bundled suite), its required
# keys, and the `where` of its messages.
_KEY_CHECKS = {
    "state document": ((), {"sectors", "nodes"}, "state document"),
    "sector": (("sectors", "city_plaza"),
               {"active_users", "load_percentage", "spectrum_available_mhz"},
               "sector 'city_plaza'"),
    "node": (("nodes", "metro_agg_hub"), {"type", "latency_to_ran_ms", "compute_load_percent"},
             "node 'metro_agg_hub'"),
    "ledger entry": (("provisioned_slices", 0), {"sector", "band", "node"},
                     "provisioned_slices[0]"),
    "scenario entry": ((0,), {"id", "category", "intent_text", "golden", "declared_beta"},
                       "{suite}: scenario entry 0: entry"),
}


def _document(caller: str):
    if caller == "scenario entry":
        return json.loads(bundled.default_scenarios_path().read_text(encoding="utf-8"))
    doc = bundled_doc()
    doc["provisioned_slices"] = [ledger_entry(slice_id="s_001")]
    return doc


def _load_with_entry(caller: str, entry: dict, suite) -> None:
    """Load `caller`'s document with `entry` in place of its own."""
    path = _KEY_CHECKS[caller][0]
    doc = entry
    if path:
        doc = _document(caller)
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = entry
    if caller == "scenario entry":
        suite.write_text(json.dumps(doc), encoding="utf-8")
        load_scenarios(suite, bundled.default_state())
    else:
        load_state(json.dumps(doc))


@pytest.mark.parametrize("caller", list(_KEY_CHECKS))
def test_every_key_check_takes_both_common_shapes_and_names_the_missing_key_first(
        caller, tmp_path):
    path, required, where = _KEY_CHECKS[caller]
    suite = tmp_path / "suite.json"
    where = where.format(suite=suite)
    full = _document(caller)
    for key in path:
        full = full[key]
    assert set(full) > required  # every bundled entry holds an optional key
    _load_with_entry(caller, dict(full), suite)
    _load_with_entry(caller, {key: full[key] for key in required}, suite)
    if caller == "scenario entry":  # of its two optional keys, one alone
        _load_with_entry(caller, {key: full[key] for key in {*required, "notes"}}, suite)
    first = sorted(required)[0]
    missing = {key: value for key, value in full.items() if key != first}
    error = HarnessError if caller == "scenario entry" else StateValidationError
    for entry, message in (
        (missing, f"{where}: missing field(s) [{first!r}]"),
        ({**full, "surprise": 1}, f"{where}: unknown field(s) ['surprise']"),
        ({**missing, "surprise": 1}, f"{where}: missing field(s) [{first!r}]"),
    ):
        with pytest.raises(error) as excinfo:
            _load_with_entry(caller, entry, suite)
        assert str(excinfo.value) == message


def test_a_null_slice_id_is_a_slice_without_an_id():
    doc = bundled_doc()
    doc["provisioned_slices"] = [ledger_entry(slice_id=None)]
    (config,) = load_state(json.dumps(doc)).provisioned_slices
    assert config.slice_id is None


@pytest.mark.parametrize("ledger", [None, 5, "abc", {"a": 1}], ids=repr)
def test_a_ledger_that_is_not_a_list_is_rejected(ledger):
    doc = bundled_doc()
    doc["provisioned_slices"] = ledger
    with pytest.raises(StateValidationError, match="'provisioned_slices' must be a list"):
        load_state(json.dumps(doc))


def all_float_document(n_sectors: int, n_nodes: int, seed: int = 1) -> dict:
    """A state document whose every number is a float, as serialize_state
    writes a loaded state."""
    rng = random.Random(f"all-float:{seed}:{n_sectors}:{n_nodes}")
    sector_ids = [f"sector_{i:04d}" for i in range(n_sectors)]
    return {
        "sectors": {
            sid: {
                "active_users": rng.randint(0, 50000),
                "load_percentage": round(rng.uniform(0, 100), 1),
                "spectrum_available_mhz": {
                    band: rng.choice((0.0, 20.0, 100.0)) for band in ("mmWave", "mid_band", "low_band")
                },
            }
            for sid in sector_ids
        },
        "nodes": {
            f"upf_{j:02d}": {
                "type": rng.choice(("edge", "metro", "regional")),
                "latency_to_ran_ms": {sid: round(rng.uniform(1, 45), 1) for sid in sector_ids},
                "compute_load_percent": round(rng.uniform(0, 100), 1),
            }
            for j in range(n_nodes)
        },
    }


@pytest.fixture()
def number_checks(monkeypatch):
    """The `where` of every per-value number check `load_state` makes."""
    seen: list[str] = []
    check = model._require_number

    def counting(value, where):
        seen.append(where)
        return check(value, where)

    monkeypatch.setattr(model, "_require_number", counting)
    return seen


def test_a_row_of_finite_floats_is_checked_in_bulk(number_checks):
    doc = all_float_document(50, 12)
    state = load_state(json.dumps(doc))
    assert not [where for where in number_checks if " latency to " in where]
    assert len(number_checks) == 12  # each node's compute load, one by one
    assert state_to_dict(state) == doc


@pytest.mark.parametrize("bad, message", [
    ("5", "node 'upf_07' latency to 'sector_0031' must be a number, got '5'"),
    (None, "node 'upf_07' latency to 'sector_0031' must be a number, got None"),
    (True, "node 'upf_07' latency to 'sector_0031' must be a number, got True"),
    (float("nan"), "node 'upf_07' latency to 'sector_0031' must be a finite number, got nan"),
    (float("inf"), "node 'upf_07' latency to 'sector_0031' must be a finite number, got inf"),
    (10**400, f"node 'upf_07' latency to 'sector_0031' must be a finite number, got {10**400!r}"),
    (0.0, "node 'upf_07': latency to 'sector_0031' must be > 0, got 0.0"),
    (-1.5, "node 'upf_07': latency to 'sector_0031' must be > 0, got -1.5"),
], ids=["string", "null", "true", "nan", "infinity", "huge-integer", "zero", "negative"])
def test_one_bad_latency_is_named_as_before(number_checks, bad, message):
    doc = all_float_document(50, 12)
    row = doc["nodes"]["upf_07"]["latency_to_ran_ms"]
    row["sector_0031"] = row["sector_0040"] = bad  # the first in row order is named
    with pytest.raises(StateValidationError) as excinfo:
        load_state(json.dumps(doc))
    assert str(excinfo.value) == message
    row["sector_0040"] = 3.5
    row["sector_0031"] = 7  # an integer is a number: the row is checked value by value
    number_checks.clear()
    node = load_state(json.dumps(doc)).node("upf_07")
    assert type(node.latency_to_sector["sector_0031"]) is float
    assert sum(" latency to " in where for where in number_checks) == 50


_latencies = st.floats() | st.integers() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 0, 10**400, -(10**400)])


@settings(max_examples=300, deadline=None)
@given(st.lists(_latencies, max_size=8))
@example([1.0, math.nan, 2.0])
@example([math.inf, -math.inf])
@example([-0.0])
@example([])
@example([3, 5])
@example([1.5, 10**400])
def test_a_latency_row_passes_iff_every_value_is_positive(values):
    row = {f"s{i}": value for i, value in enumerate(values)}

    def node():
        return CoreNode(id="n1", tier=NodeTier.EDGE, compute_load_percent=1.0,
                        latency_to_sector=row)

    if all(value > 0 for value in values):
        assert node().latency_to_sector == row
        return
    with pytest.raises(StateValidationError) as excinfo:
        node()
    sector_id, value = next((sector_id, value) for sector_id, value in row.items()
                            if not value > 0)
    assert str(excinfo.value) == f"node 'n1': latency to {sector_id!r} must be > 0, got {value}"


_SECTOR_NUMBERS = {
    # field in the document: (path to it, its name in messages)
    "load_percentage": ((), "load_percentage"),
    "mmWave": (("spectrum_available_mhz",), "mmWave"),
    "mid_band": (("spectrum_available_mhz",), "mid_band"),
    "low_band": (("spectrum_available_mhz",), "low_band"),
}
_BELOW_ZERO = {
    "load_percentage": "sector 'sector_0031': load_percent -1.0 outside [0, 100]",
    "mmWave": "spectrum mmwave_mhz must be >= 0, got -1.0",
    "mid_band": "spectrum mid_band_mhz must be >= 0, got -1.0",
    "low_band": "spectrum low_band_mhz must be >= 0, got -1.0",
}


@pytest.mark.parametrize("field", sorted(_SECTOR_NUMBERS))
@pytest.mark.parametrize("bad, problem", [
    ("5", "must be a number, got '5'"),
    (float("nan"), "must be a finite number, got nan"),
    (True, "must be a number, got True"),
    (-1, None),
    (10**400, f"must be a finite number, got {10**400!r}"),
], ids=["string", "nan", "true", "negative", "huge-integer"])
def test_one_bad_sector_number_is_named_as_before(number_checks, field, bad, problem):
    doc = all_float_document(50, 12)
    path, name = _SECTOR_NUMBERS[field]
    holder = doc["sectors"]["sector_0031"]
    for key in path:
        holder = holder[key]
    holder[field] = bad
    with pytest.raises(StateValidationError) as excinfo:
        load_state(json.dumps(doc))
    expected = _BELOW_ZERO[field] if problem is None else f"sector 'sector_0031' {name} {problem}"
    assert str(excinfo.value) == expected
    # No sector before the bad one was checked number by number.
    assert {where.split(" ")[1] for where in number_checks} <= {"'sector_0031'"}


@pytest.mark.parametrize("users, message", [
    ("5", "sector 'sector_0031': active_users must be an integer"),
    (True, "sector 'sector_0031': active_users must be an integer"),
    (2.0, "sector 'sector_0031': active_users must be an integer"),
    (-1, "sector 'sector_0031': active_users must be >= 0"),
], ids=["string", "true", "float", "negative"])
def test_one_bad_user_count_is_named_as_before(users, message):
    doc = all_float_document(50, 12)
    doc["sectors"]["sector_0031"]["active_users"] = users
    with pytest.raises(StateValidationError) as excinfo:
        load_state(json.dumps(doc))
    assert str(excinfo.value) == message


def test_a_sector_of_integers_or_with_a_description_loads_as_floats(number_checks):
    doc = all_float_document(5, 2)
    sector = doc["sectors"]["sector_0003"]
    sector["load_percentage"] = 40
    sector["spectrum_available_mhz"] = {"mmWave": 0, "mid_band": 20, "low_band": 1e308}
    doc["sectors"]["sector_0004"]["description"] = "a described sector"
    doc["sectors"]["sector_0002"]["spectrum_available_mhz"].update(mmWave=1e308, mid_band=1e308)
    state = load_state(json.dumps(doc))
    for sector_id in ("sector_0002", "sector_0003", "sector_0004"):
        loaded = state.sector(sector_id)
        numbers = (loaded.load_percent, loaded.spectrum.mmwave_mhz,
                   loaded.spectrum.mid_band_mhz, loaded.spectrum.low_band_mhz)
        assert {type(number) for number in numbers} == {float}
    assert state.sector("sector_0003").load_percent == 40.0
    assert state.sector("sector_0004").context == "a described sector"
    # No valid sector needs a per-value number check: not one of integers,
    # a described one, nor one whose finite bands sum past the float range.
    checked = {sector_id: sum(where.startswith(f"sector {sector_id!r}") for where in number_checks)
               for sector_id in doc["sectors"]}
    assert checked == {"sector_0000": 0, "sector_0001": 0, "sector_0002": 0,
                       "sector_0003": 0, "sector_0004": 0}


def reference_sector(sector_id: str, entry: object) -> RanSector:
    """The sector `load_state` must build from `entry`, written out field by
    field through the constructors, which name the first bad field."""
    where = f"sector {sector_id!r}"
    if not isinstance(entry, dict):
        raise StateValidationError(f"{where}: entry must be an object")
    required = {"active_users", "load_percentage", "spectrum_available_mhz"}
    missing = required - entry.keys()
    if missing:
        raise StateValidationError(f"{where}: missing field(s) {sorted(missing)}")
    unknown = entry.keys() - required - {"description"}
    if unknown:
        raise StateValidationError(f"{where}: unknown field(s) {sorted(unknown)}")
    users = entry["active_users"]
    if isinstance(users, bool) or not isinstance(users, int):
        raise StateValidationError(f"{where}: active_users must be an integer")
    spectrum = entry["spectrum_available_mhz"]
    if not isinstance(spectrum, dict):
        raise StateValidationError(f"{where}: spectrum_available_mhz must be an object")
    if spectrum.keys() != {"mmWave", "mid_band", "low_band"}:
        raise StateValidationError(f"{where}: spectrum_available_mhz must have exactly "
                                   "keys ['low_band', 'mid_band', 'mmWave']")

    def number(value, name):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise StateValidationError(f"{where} {name} must be a number, got {value!r}")
        try:
            finite = float(value)
        except OverflowError:  # an integer past the float range
            finite = math.inf
        if not math.isfinite(finite):
            raise StateValidationError(f"{where} {name} must be a finite number, got {value!r}")
        return finite

    bands = SpectrumBands(number(spectrum["mmWave"], "mmWave"),
                          number(spectrum["mid_band"], "mid_band"),
                          number(spectrum["low_band"], "low_band"))
    load = number(entry["load_percentage"], "load_percentage")
    context = entry.get("description", "")
    if not isinstance(context, str):
        raise StateValidationError(f"{where}: description must be a string, got {context!r}")
    return RanSector(sector_id, users, load, bands, context)


_entry_numbers = (
    st.floats(min_value=-1, max_value=101)
    | st.integers(min_value=-2, max_value=10**4)
    | st.sampled_from([-0.1, 100.5, math.nan, math.inf, -math.inf, 10**400, 1e308, -0.0,
                       True, "5", None])
)


@st.composite
def sector_entries(draw):
    """A sector id and an entry of the common shape, with or without a
    description, each part valid or not."""
    spectrum = {band: draw(_entry_numbers) for band in ("mmWave", "mid_band", "low_band")}
    entry = {
        "active_users": draw(st.integers(min_value=-3, max_value=10**6)
                             | st.sampled_from([True, False, 2.0, "5", None])),
        "load_percentage": draw(_entry_numbers),
        "spectrum_available_mhz": draw(st.just(spectrum) | st.sampled_from([[], "mid", 5, None])),
    }
    if draw(st.booleans()):
        entry["description"] = draw(st.text(max_size=8) | st.sampled_from([None, 7, ["x"]]))
    if draw(st.integers(0, 9)) == 0:
        del entry[draw(st.sampled_from(sorted(entry)))]
    if draw(st.integers(0, 9)) == 0:
        entry[draw(st.sampled_from(["surprise", "load"]))] = 1
    return draw(st.text(max_size=6) | st.sampled_from(["cell_7", "-", "_", "Ω"])), entry


def _good_entry(**changes):
    """A valid sector entry with `changes` made: a band name sets that band,
    any other key is set, or deleted when its value is None."""
    entry = {"active_users": 10, "load_percentage": 50.5,
             "spectrum_available_mhz": {"mmWave": 0, "mid_band": 20.0, "low_band": 10}}
    for key, value in changes.items():
        if key in {"mmWave", "mid_band", "low_band"}:
            entry["spectrum_available_mhz"] = {**entry["spectrum_available_mhz"], key: value}
        elif value is None:
            del entry[key]
        else:
            entry[key] = value
    return entry


@settings(max_examples=400, deadline=None)
@given(sector_entries())
@example(("cell_7", _good_entry()))
@example(("cell_7", _good_entry(description="a described cell")))
@example(("cell_7", _good_entry(active_users=-1)))
@example(("cell_7", _good_entry(active_users=True)))
@example(("cell_7", _good_entry(load_percentage=-0.1)))
@example(("cell_7", _good_entry(load_percentage=100.5)))
@example(("cell_7", _good_entry(load_percentage=math.nan)))
@example(("cell_7", _good_entry(load_percentage=math.inf)))
@example(("cell_7", _good_entry(mid_band=-1)))
@example(("cell_7", _good_entry(low_band=math.nan)))
@example(("cell_7", _good_entry(mmWave=10**400)))
@example(("-_-", _good_entry()))
@example(("cell_7", _good_entry(load_percentage=None)))
@example(("cell_7", _good_entry(surprise=1)))
@example(("cell_7", _good_entry(spectrum_available_mhz=[20, 10])))
def test_one_pass_sector_equals_the_constructor_built_reference(case):
    sector_id, entry = case
    try:
        expected = reference_sector(sector_id, entry)
    except StateValidationError as exc:
        with pytest.raises(StateValidationError) as excinfo:
            model._sector_from_entry(sector_id, entry)
        assert str(excinfo.value) == str(exc)
        return
    sector = model._sector_from_entry(sector_id, entry)
    assert sector == expected
    assert repr(sector) == repr(expected)
    assert list(vars(sector)) == list(vars(expected))
    assert list(vars(sector.spectrum)) == list(vars(expected.spectrum))


# One fault per field, in the order `load_state` checks them: the fields it
# touches, the changes to `_good_entry` (an "id" renames the sector) and the
# message, with `{}` for the sector id.
_SECTOR_FAULTS = [
    ({"surprise"}, {"surprise": 1}, "sector {!r}: unknown field(s) ['surprise']"),
    ({"active_users"}, {"active_users": "5"}, "sector {!r}: active_users must be an integer"),
    ({"mmWave", "mid_band", "low_band"}, {"spectrum_available_mhz": []},
     "sector {!r}: spectrum_available_mhz must be an object"),
    ({"mmWave"}, {"mmWave": "5"}, "sector {!r} mmWave must be a number, got '5'"),
    ({"mid_band"}, {"mid_band": None}, "sector {!r} mid_band must be a number, got None"),
    ({"low_band"}, {"low_band": math.nan}, "sector {!r} low_band must be a finite number, got nan"),
    ({"mid_band"}, {"mid_band": -1}, "spectrum mid_band_mhz must be >= 0, got -1.0"),
    ({"load_percentage"}, {"load_percentage": "5"},
     "sector {!r} load_percentage must be a number, got '5'"),
    ({"description"}, {"description": 7}, "sector {!r}: description must be a string, got 7"),
    ({"id"}, {"id": "-"}, "sector id {!r} has no letter or digit"),
    ({"active_users"}, {"active_users": -1}, "sector {!r}: active_users must be >= 0"),
    ({"load_percentage"}, {"load_percentage": 100.5},
     "sector {!r}: load_percent 100.5 outside [0, 100]"),
]


@pytest.mark.parametrize("first", range(len(_SECTOR_FAULTS)))
def test_of_two_bad_fields_the_one_checked_first_is_named(first):
    touched, changes, message = _SECTOR_FAULTS[first]
    for later_touched, later_changes, _ in _SECTOR_FAULTS[first + 1:]:
        if touched & later_touched:
            continue
        both = {**changes, **later_changes}
        sector_id = both.pop("id", "cell_7")
        with pytest.raises(StateValidationError) as excinfo:
            model._sector_from_entry(sector_id, _good_entry(**both))
        assert str(excinfo.value) == message.format(sector_id)


@pytest.mark.parametrize("bound", [0, 100, 0.0, 100.0], ids=repr)
def test_a_valid_sector_runs_no_constructor(monkeypatch, bound):
    runs = []
    for cls in (SpectrumBands, RanSector):
        monkeypatch.setattr(cls, "__post_init__", lambda self: runs.append(type(self).__name__))
    entry = _good_entry(active_users=0, load_percentage=bound, mmWave=0, mid_band=-0.0,
                        low_band=0.0, description="")
    sector = model._sector_from_entry("7", entry)
    assert runs == []
    monkeypatch.undo()
    assert sector == RanSector("7", 0, float(bound), SpectrumBands(0.0, -0.0, 0.0))


def reference_config(entry: object, where: str) -> SliceConfiguration:
    """The configuration `config_from_dict` must build from `entry`, written
    out as the per-field path: the keys by set algebra, the band through
    `Band(...)`, then the constructor."""
    if not isinstance(entry, dict):
        raise StateValidationError(f"{where}: entry must be an object")
    missing = {"sector", "band", "node"} - entry.keys()
    if missing:
        raise StateValidationError(f"{where}: missing field(s) {sorted(missing)}")
    unknown = entry.keys() - {"sector", "band", "node", "slice_id"}
    if unknown:
        raise StateValidationError(f"{where}: unknown field(s) {sorted(unknown)}")
    try:
        band = Band(entry["band"])
    except ValueError:
        raise StateValidationError(f"{where}: unknown band {entry['band']!r}") from None
    slice_id = entry.get("slice_id")
    if slice_id is not None and not isinstance(slice_id, str):
        raise StateValidationError(f"{where}: slice_id must be a string, got {slice_id!r}")
    if slice_id == "":
        raise StateValidationError(f"{where}: slice_id must be non-empty")
    for key in ("sector", "node"):
        if not isinstance(entry[key], str):
            raise StateValidationError(f"{where}: {key} must be a string, got {entry[key]!r}")
    return SliceConfiguration(entry["sector"], band, entry["node"], slice_id)


class _Text(str):
    """A `str` subclass, which a caller other than the JSON reader can pass."""


_ledger_texts = (
    st.text(max_size=6)
    | st.sampled_from(["mid_band", "x"]).map(_Text)
    | st.sampled_from([None, 7, True, 1.5, ["x"], {"a": 1}])
)
_ledger_bands = (
    st.sampled_from([band.value for band in Band] + ["mmWave", "MID_BAND", "", "5g"])
    | st.sampled_from(list(Band))
    | st.sampled_from(["low_band", "mmwave", "mmWave"]).map(_Text)
    | st.sampled_from([0, 1, True, False, None, 2.5, [], ["mid_band"], {}, {"mid_band": 1}])
)


@st.composite
def ledger_entries(draw):
    """A ledger entry of the wire shape, with or without a slice id, each
    value of any kind, sometimes with a key missing, added or renamed, or
    not an object at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([None, [], "entry", 5]))
    entry = {"sector": draw(_ledger_texts), "band": draw(_ledger_bands),
             "node": draw(_ledger_texts)}
    if draw(st.booleans()):
        entry["slice_id"] = draw(st.none() | st.just("") | _ledger_texts)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):  # key edits
        key = draw(st.sampled_from(sorted(entry)))
        edit = draw(st.sampled_from(["missing", "extra", "renamed"]))
        value = entry.pop(key) if edit != "extra" else 1
        if edit != "missing":
            entry[draw(st.sampled_from(["surprise", f"{key}_id", key.upper()]))] = value
    return entry


def _typed_fields(value) -> list:
    return [(key, type(field), field) for key, field in vars(value).items()]


@settings(max_examples=500, deadline=None)
@given(ledger_entries())
@example({"sector": "a", "band": "mid_band", "node": "b"})
@example({"sector": "a", "band": Band.LOW_BAND, "node": "b", "slice_id": "s"})
@example({"sector": "a", "band": _Text("mmwave"), "node": "b", "slice_id": None})
@example({"sector": "a", "band": "mmWave", "node": "b"})
@example({"sector": "a", "band": ["mid_band"], "node": "b"})
@example({"sector": "a", "band": True, "node": "b"})
@example({"sector": "a", "band": "mid_band", "node": "b", "slice_id": ""})
@example({"sector": "a", "band": "mid_band", "node": "b", "slice_id": 7})
@example({"sector": 7, "band": "mid_band", "node": "b"})
@example({"sector": "a", "band": "mid_band", "node": None})
@example({"sector": "a", "band": "mid_band"})
@example({"sector": "a", "band": "mid_band", "node": "b", "slice": "s"})
@example({"sector_id": "a", "band": "mid_band", "node": "b"})
def test_config_from_dict_equals_the_per_field_reference(entry):
    where = "provisioned_slices[3]"
    try:
        expected = reference_config(entry, where)
    except StateValidationError as exc:
        with pytest.raises(StateValidationError) as excinfo:
            model.config_from_dict(entry, where)
        assert str(excinfo.value) == str(exc)
        return
    config = model.config_from_dict(entry, where)
    assert type(config) is SliceConfiguration
    assert config == expected
    assert _typed_fields(config) == _typed_fields(expected)


@pytest.mark.parametrize("bound", [0, 100, 0.0, 100.0], ids=repr)
def test_a_loaded_ledger_entry_node_and_exchange_run_no_constructor(monkeypatch, bound):
    runs = []
    for cls in (SliceConfiguration, CoreNode, ScriptedExchange):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            runs.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    doc = bundled_doc()
    doc["nodes"]["metro_agg_hub"]["compute_load_percent"] = bound
    doc["provisioned_slices"] = [ledger_entry(slice_id="s_001"), ledger_entry(slice_id=None)]
    state = load_state(json.dumps(doc))
    fixture = SuiteFixture.from_file(bundled.default_suite_fixture_path())
    assert runs == []
    monkeypatch.undo()
    assert state.provisioned_slices == (
        SliceConfiguration("city_plaza", Band.MID_BAND, "metro_agg_hub", "s_001"),
        SliceConfiguration("city_plaza", Band.MID_BAND, "metro_agg_hub"),
    )
    node = state.node("metro_agg_hub")
    assert node.compute_load_percent == bound
    assert _typed_fields(node) == _typed_fields(CoreNode(
        node.id, node.tier, float(bound), node.latency_to_sector, node.context))
    exchanges = [exchange for systems in fixture._scripts.values()
                 for script in systems.values() for exchange in script]
    assert len(exchanges) == 156
    assert all(list(vars(exchange)) == [field.name for field in dataclasses.fields(exchange)]
               for exchange in exchanges)


def test_the_duplicate_named_is_the_first_repeated_key():
    # Objects are checked innermost first; within one, the first key that
    # repeats an earlier one is named.
    text = json.dumps(minimal_doc()).replace(
        '"s1": 5', '"s1": 5, "a": 1, "b": 2, "b": 3, "a": 4'
    )
    with pytest.raises(StateValidationError) as excinfo:
        load_state(text)
    assert str(excinfo.value) == "duplicate id or key 'b' in state document"


@pytest.mark.parametrize("tier", [[], {}, None, 1])
def test_a_node_type_that_is_not_a_string_is_rejected(tier):
    doc = minimal_doc()
    doc["nodes"]["n1"]["type"] = tier
    with pytest.raises(StateValidationError, match="type must be one of"):
        load_state(json.dumps(doc))


# Mutation fuzz of the state document: 1-3 edits at random places of a
# valid document (`json_edits`).
@st.composite
def mutated_documents(draw):
    base = draw(st.sampled_from(["bundled", "all-float"]))
    doc = bundled_doc() if base == "bundled" else all_float_document(8, 3)
    if draw(st.booleans()):
        doc["provisioned_slices"] = [ledger_entry(slice_id="s_001"), ledger_entry()]
    return draw(edited_text(doc))


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_a_mutated_document_raises_only_state_error_or_round_trips(text):
    try:
        state = load_state(text)
    except StateError:
        return
    assert load_state(serialize_state(state)) == state


# Pieces of keys and strings that a `%` template, a JSON escape or an ASCII
# encoding could get wrong.
_TRICKY_TEXT = ["%", "%s", "%%", "%(key)s", "{}", "{0}", '"', "\\", "\x00", "\n", "\x1f",
                "\x7f", "é", "€", "\U0001f600", "\ud800"]
_json_strings = st.lists(
    st.one_of(st.sampled_from(_TRICKY_TEXT), st.text(max_size=3)), max_size=4
).map("".join)
_json_numbers = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.floats(),
    st.sampled_from([0, -1, 10**299, -(10**299), 0.0, -0.0, 5e-324, 1e16, 1e-7,
                     float("inf"), float("-inf"), float("nan")]),
)
_json_documents = st.recursive(
    st.one_of(st.none(), _json_numbers, _json_strings),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_json_strings, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_json_documents)
def test_json_text_is_json_dumps(doc):
    assert model.json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_text_keeps_empty_containers_and_json_spellings_at_every_depth():
    doc = {"a": [], "b": {}, "c": [[], {}, [{}], {"d": []}], "e": [True, 1, 1.0, None, -0.0],
           "f": {"%s": float("nan"), "%": float("inf"), "%%": float("-inf")}}
    assert model.json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert model.json_text([]) == "[]" and model.json_text({}) == "{}"


def test_json_text_raises_as_json_dumps_on_an_integer_past_the_digit_limit():
    for doc in ([10**5000], {"n": 10**5000}):
        with pytest.raises(ValueError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(ValueError):
            model.json_text(doc)


@pytest.mark.parametrize("value", [(1, 2), Band.MMWAVE, NodeTier.EDGE, {1, 2}, b"x", object()],
                         ids=["tuple", "band", "tier", "set", "bytes", "object"])
def test_json_text_takes_only_the_seven_json_types(value):
    for doc in (value, [value], {"k": value}):
        with pytest.raises(TypeError):
            model.json_text(doc)


def test_json_text_takes_only_string_keys():
    with pytest.raises(TypeError):
        model.json_text({"a": {1: "one"}})


# The writer's two dataclasses, against a reference: each record becomes the
# dict `record_to_dict` below builds, each configuration its `config_to_dict`
# form, and `json.dumps` writes the result.
def record_to_dict(record: EvaluationRecord) -> dict:
    doc = vars(record).copy()
    if record.produced is not None:
        doc["produced"] = config_to_dict(record.produced)
    return doc


def as_plain(value):
    """`value` with each record replaced by `record_to_dict` of it and each
    configuration by `config_to_dict` of it."""
    if type(value) is EvaluationRecord:
        return record_to_dict(value)
    if type(value) is SliceConfiguration:
        return config_to_dict(value)
    if type(value) is dict:
        return {key: as_plain(child) for key, child in value.items()}
    if type(value) is list:
        return [as_plain(child) for child in value]
    return value


def dumped(doc) -> str:
    return json.dumps(as_plain(doc), indent=2, sort_keys=True)


_record_floats = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, 1.0, float("nan"), float("inf"), float("-inf")])
)
_configurations = st.builds(
    SliceConfiguration,
    sector_id=_json_strings,
    band=st.sampled_from(Band),
    node_id=_json_strings,
    slice_id=st.one_of(st.none(), _json_strings),
)
_records = st.builds(
    EvaluationRecord,
    scenario_id=_json_strings,
    category=_json_strings,
    system=_json_strings,
    run_index=st.integers(),
    produced=st.one_of(st.none(), _configurations),
    semantic_accuracy=_record_floats,
    utility=_record_floats,
    hybrid_success=st.booleans(),
    prompt_tokens=st.integers(),
    completion_tokens=st.integers(),
    wall_seconds=_record_floats,
    iterations=st.integers(),
    error=st.one_of(st.none(), _json_strings),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_records, max_size=4), _json_documents)
def test_json_text_writes_records_as_json_dumps_of_their_dicts(records, other):
    doc = {"format": "x", "records": records, "other": other, "last": records[-1:]}
    assert model.json_text(doc) == dumped(doc)
    assert model.json_text(records) == dumped(records)


@st.composite
def _nested(draw, value):
    """`value` inside 0-4 lists or one-key objects."""
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        value = [value] if draw(st.booleans()) else {draw(_json_strings): value}
    return value


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_configuration_at_two_depths_is_written_at_each(data):
    config = data.draw(_configurations)
    record = data.draw(_records.map(lambda r: dataclasses.replace(r, produced=config)))
    doc = [data.draw(_nested(config)), data.draw(_nested(config)),
           data.draw(_nested(record)), data.draw(_nested(record))]
    assert model.json_text(doc) == dumped(doc)


def test_repeats_sharing_one_configuration_are_written_like_distinct_ones():
    shared = GOLDEN_INDUSTRIAL
    record = EvaluationRecord(
        scenario_id="s", category="URLLC", system="multi_agent", run_index=1,
        produced=shared, semantic_accuracy=1.0, utility=0.94, hybrid_success=True,
        prompt_tokens=3, completion_tokens=4, wall_seconds=0.0, iterations=2,
    )
    repeats = [dataclasses.replace(record, run_index=i) for i in (1, 2, 3)]
    copies = [dataclasses.replace(r, produced=dataclasses.replace(shared)) for r in repeats]
    assert model.json_text({"records": repeats}) == model.json_text({"records": copies})
    assert model.json_text({"records": repeats}) == dumped({"records": repeats})


class _RecordSubclass(EvaluationRecord):
    pass


class _ConfigurationSubclass(SliceConfiguration):
    pass


_RECORD_FIELDS = dict(
    scenario_id="s", category="c", system="x", run_index=1, produced=None,
    semantic_accuracy=0.0, utility=0.0, hybrid_success=False, prompt_tokens=0,
    completion_tokens=0, wall_seconds=0.0, iterations=0,
)


@pytest.mark.parametrize("value", [
    ColumnStats(mean=0.0, std=0.0),
    _RecordSubclass(**_RECORD_FIELDS),
    _ConfigurationSubclass("s", Band.MID_BAND, "n"),
], ids=["column-stats", "record-subclass", "configuration-subclass"])
def test_json_text_writes_only_the_exact_record_and_configuration_types(value):
    for doc in (value, [value], {"k": value}):
        with pytest.raises(TypeError):
            model.json_text(doc)
