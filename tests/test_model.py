from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceweaver import data as bundled
from sliceweaver import model
from sliceweaver.model import (
    Band,
    CoreNode,
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
    latency,
    load_state,
    serialize_state,
    state_to_dict,
)

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
    sectors = dict(state.sectors)
    latencies = dict(state.node("metro_agg_hub").latency_to_sector)
    node = dataclasses.replace(state.node("metro_agg_hub"), latency_to_sector=latencies)
    ledger = [GOLDEN_INDUSTRIAL]
    built = NetworkState(
        sectors=sectors, nodes={**state.nodes, "metro_agg_hub": node}, provisioned_slices=ledger
    )
    text = serialize_state(built)
    sectors.pop("city_plaza")
    latencies["city_plaza"] = 99.0
    ledger.clear()
    assert "city_plaza" in built.sectors
    assert built.node("metro_agg_hub").latency_to_sector["city_plaza"] == 5
    assert built.provisioned_slices == (GOLDEN_INDUSTRIAL,)
    provisioned = apply_provisioning(state, GOLDEN_INDUSTRIAL)
    assert serialize_state(built) == text == serialize_state(provisioned)


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
    assert len(number_checks) == 50 * 4 + 12  # the other numbers, one by one
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
# valid document. Placeholders stand for the texts `json.dumps` cannot write.
_HUGE_FLOAT, _HUGE_INT, _DUPLICATE = "@1e400@", "@5000 digits@", "@dup@"
_BAD_VALUES = [
    float("nan"), float("inf"), -float("inf"), _HUGE_FLOAT, _HUGE_INT,
    True, False, 0, 7, -3, None, "", "x", "é",
]


def _containers(value, path=()):
    """Every (path, dict or list) in a JSON document."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    yield path, value
    for key, child in children:
        yield from _containers(child, (*path, key))


@st.composite
def mutated_documents(draw):
    base = draw(st.sampled_from(["bundled", "all-float"]))
    doc = bundled_doc() if base == "bundled" else all_float_document(8, 3)
    if draw(st.booleans()):
        doc["provisioned_slices"] = [ledger_entry(slice_id="s_001"), ledger_entry()]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        _, container = draw(st.sampled_from(list(_containers(doc))))
        keys = list(container) if isinstance(container, dict) else list(range(len(container)))
        edit = draw(st.sampled_from(["replace", "delete", "unknown", "duplicate"]))
        if not keys or edit == "unknown":
            if isinstance(container, dict):
                container["surprise"] = draw(st.sampled_from(_BAD_VALUES))
            else:
                container.append(draw(st.sampled_from(_BAD_VALUES)))
            continue
        key = draw(st.sampled_from(keys))
        if edit == "replace":
            container[key] = draw(st.sampled_from(_BAD_VALUES))
        elif edit == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[_DUPLICATE + key] = container[key]
        else:
            container.append(container[key])
    text = json.dumps(doc, indent=1)
    return (
        text.replace(json.dumps(_HUGE_FLOAT), "1e400")
        .replace(json.dumps(_HUGE_INT), "9" * 5000)
        .replace('"' + _DUPLICATE, '"')
    )


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_a_mutated_document_raises_only_state_error_or_round_trips(text):
    try:
        state = load_state(text)
    except StateError:
        return
    assert load_state(serialize_state(state)) == state
