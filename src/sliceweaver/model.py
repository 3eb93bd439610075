"""Network state model: RAN sectors, core UPF nodes, the latency matrix, and
slice configurations, plus validated JSON loading, canonical serialization,
and provisioning bookkeeping. `config_to_dict` writes a configuration's
wire form and `config_from_dict` reads it; `validate_config` is the one
check of a configuration against a state. `read_json` is the one reader of
a JSON input file; the other modules' loaders call it with their own error
type. It and `load_state` refuse an object that repeats a key.
`json_text` is the one writer of JSON text: a command's `--out` document and
a state's canonical text alike are the text of
`json.dumps(doc, indent=2, sort_keys=True)`, written in about half the time.
Besides the JSON types it takes the report's `EvaluationRecord`, written as
the object of its fields, and a `SliceConfiguration`, written in its
`config_to_dict` wire form, so a report hands over its records as they are.

States are immutable values: the sector map, the node map and each node's
latency row are read-only mappings, and every operation returns a new state.
This makes them safe to share across concurrent evaluation workers, and it
lets a state encode its canonical text once, on the first `serialize_state`
call, and keep it.

Each rule is stated once, in the record it constrains. One checker per
record (`_check_bands`, `_check_sector`, `_check_node`) raises for the
record's first fault; its constructor and `load_state` both call it.
`NetworkState.__post_init__` holds every rule that spans records: each map
key is its record's id, the latency matrix covers exactly the sectors, and
the ledger names known sectors, nodes and bands, with unique slice ids. So
a state that builds from the values a loaded state holds also loads from
its own canonical text.
`load_state` checks each field of an entry once and builds the checked
record without running its constructor again.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Callable, Mapping
from contextlib import suppress
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType


class StateError(Exception):
    """Base class for network-state problems."""


class StateParseError(StateError):
    """The document is not well-formed JSON."""


class StateValidationError(StateError):
    """The document parsed but violates the state schema or an invariant."""


class UnknownIdError(StateError):
    """A sector or node id does not exist in the state."""


class ProvisioningError(StateError):
    """A slice configuration cannot be applied to the state."""


class Band(str, Enum):
    MMWAVE = "mmwave"
    MID_BAND = "mid_band"
    LOW_BAND = "low_band"


class NodeTier(str, Enum):
    EDGE = "edge"
    METRO = "metro"
    REGIONAL = "regional"


# JSON spelling of the per-band spectrum keys (fixed wire format).
BAND_JSON_KEYS: dict[Band, str] = {
    Band.MMWAVE: "mmWave",
    Band.MID_BAND: "mid_band",
    Band.LOW_BAND: "low_band",
}


# Bound once: `_built` runs for every record a load builds.
_new_object, _set_attribute = object.__new__, object.__setattr__


def _built(cls: type, **fields):
    """An instance of the frozen dataclass `cls` with these fields, made
    without `__init__` and so without `__post_init__`'s checks. Use it only
    for fields that are already checked, or for a class whose constructor
    checks nothing (no `__post_init__`). Pass every field, in declaration
    order, so the instance's `vars()` reads as a constructed one's."""
    value = _new_object(cls)
    _set_attribute(value, "__dict__", fields)
    return value


def _read_only(mapping: Mapping) -> MappingProxyType:
    """A read-only copy of `mapping`, which the caller can no longer change."""
    return MappingProxyType(dict(mapping))


# "core" and "regional" both mean the regional tier on load.
_TIER_ALIASES = {
    "edge": NodeTier.EDGE,
    "metro": NodeTier.METRO,
    "regional": NodeTier.REGIONAL,
    "core": NodeTier.REGIONAL,
}


# The SpectrumBands field that holds each band's MHz.
_BAND_FIELDS: dict[Band, str] = {
    Band.MMWAVE: "mmwave_mhz",
    Band.MID_BAND: "mid_band_mhz",
    Band.LOW_BAND: "low_band_mhz",
}


def _check_bands(mmwave_mhz: float, mid_band_mhz: float, low_band_mhz: float) -> None:
    """The range rule of `SpectrumBands`: every band is >= 0 (NaN fails)."""
    if not mmwave_mhz >= 0:
        raise StateValidationError(f"spectrum mmwave_mhz must be >= 0, got {mmwave_mhz}")
    if not mid_band_mhz >= 0:
        raise StateValidationError(f"spectrum mid_band_mhz must be >= 0, got {mid_band_mhz}")
    if not low_band_mhz >= 0:
        raise StateValidationError(f"spectrum low_band_mhz must be >= 0, got {low_band_mhz}")


@dataclass(frozen=True)
class SpectrumBands:
    """Unallocated spectrum per band, in MHz. A band is available iff > 0."""

    mmwave_mhz: float
    mid_band_mhz: float
    low_band_mhz: float

    def __post_init__(self) -> None:
        _check_bands(self.mmwave_mhz, self.mid_band_mhz, self.low_band_mhz)

    def for_band(self, band: Band) -> float:
        return getattr(self, _BAND_FIELDS[band])

    def available(self, band: Band) -> bool:
        return self.for_band(band) > 0


def _check_sector(sector_id: str, active_users: int, load_percent: float) -> None:
    """The range rule of `RanSector`: an id with a letter or digit, since an
    intent names a sector by its words (`classify_intent`) and an id of
    punctuation would be "named" by punctuation; `active_users` >= 0; load
    within [0, 100] (NaN fails)."""
    if not any(map(str.isalnum, sector_id)):
        raise StateValidationError(f"sector id {sector_id!r} has no letter or digit")
    if active_users < 0:
        raise StateValidationError(f"sector {sector_id!r}: active_users must be >= 0")
    if not 0 <= load_percent <= 100:
        raise StateValidationError(
            f"sector {sector_id!r}: load_percent {load_percent} outside [0, 100]")


@dataclass(frozen=True)
class RanSector:
    """One radio coverage cell: utilisation, user count, spectrum headroom."""

    id: str
    active_users: int
    load_percent: float
    spectrum: SpectrumBands
    context: str = ""

    def __post_init__(self) -> None:
        _check_sector(self.id, self.active_users, self.load_percent)


def _check_node(node_id: str, compute_load_percent: float, row: Mapping[str, float],
                lowest: float) -> None:
    """The range rule of `CoreNode`: a non-empty id; compute load within
    [0, 100] (NaN fails); every latency in `row` > 0. `lowest` is the row's
    least value, or NaN where the row may hold a NaN, which `min` can pass
    over; the row is scanned for the culprit only when `lowest` is not > 0."""
    if not node_id:
        raise StateValidationError("node id must be non-empty")
    if not 0 <= compute_load_percent <= 100:
        raise StateValidationError(
            f"node {node_id!r}: compute_load_percent {compute_load_percent} outside [0, 100]")
    if lowest > 0:
        return
    for sector_id, value in row.items():
        if not value > 0:
            raise StateValidationError(
                f"node {node_id!r}: latency to {sector_id!r} must be > 0, got {value}")


@dataclass(frozen=True)
class CoreNode:
    """One UPF node: placement tier, compute headroom, and its latency row."""

    id: str
    tier: NodeTier
    compute_load_percent: float
    latency_to_sector: Mapping[str, float]
    context: str = ""

    def __post_init__(self) -> None:
        row = _read_only(self.latency_to_sector)
        object.__setattr__(self, "latency_to_sector", row)
        # Without a NaN, which makes the sum NaN, `min` settles `> 0`. With
        # one, or where an integer past the float range overflows the sum,
        # `_check_node` scans the row.
        lowest = math.nan
        with suppress(OverflowError):
            if (total := sum(row.values())) == total:
                lowest = min(row.values(), default=1.0)
        _check_node(self.id, self.compute_load_percent, row, lowest)


@dataclass(frozen=True)
class SliceConfiguration:
    """The provisioning decision: (sector, band, UPF node), optionally labelled."""

    sector_id: str
    band: Band
    node_id: str
    slice_id: str | None = None

    def dimensions(self) -> tuple[str, Band, str]:
        return (self.sector_id, self.band, self.node_id)


@dataclass(frozen=True)
class EvaluationRecord:
    """One scored run of one system on one scenario: a row of a report."""

    scenario_id: str
    category: str
    system: str
    run_index: int
    produced: SliceConfiguration | None
    semantic_accuracy: float
    utility: float
    hybrid_success: bool
    prompt_tokens: int
    completion_tokens: int
    wall_seconds: float
    iterations: int
    error: str | None = None

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


_record_id = operator.attrgetter("id")


@dataclass(frozen=True)
class NetworkState:
    """The complete environment: sector map, node map, and slice ledger."""

    sectors: Mapping[str, RanSector]
    nodes: Mapping[str, CoreNode]
    provisioned_slices: tuple[SliceConfiguration, ...] = ()

    def __post_init__(self) -> None:
        """The rules that span records: each map key is its record's id, each
        latency row covers exactly the sectors, and the ledger passes
        `validate_config` with unique slice ids (`_with_ledger` skips them)."""
        object.__setattr__(self, "sectors", _read_only(self.sectors))
        object.__setattr__(self, "nodes", _read_only(self.nodes))
        object.__setattr__(self, "provisioned_slices", tuple(self.provisioned_slices))
        if not self.sectors:
            raise StateValidationError("state must contain at least one sector")
        if not self.nodes:
            raise StateValidationError("state must contain at least one node")
        for kind, records in (("sector", self.sectors), ("node", self.nodes)):
            # One list comparison; the scan below only names the culprit.
            if list(map(_record_id, records.values())) != list(records):
                key, record = next((key, record) for key, record in records.items()
                                   if key != record.id)
                raise StateValidationError(
                    f"{kind} {record.id!r} is stored under the key {key!r}")
        sector_ids = list(self.sectors)
        for node in self.nodes.values():
            row = node.latency_to_sector
            # A row in the sector map's order, as a loaded one is, takes one
            # list comparison; the scans below only name the culprit.
            if list(row) == sector_ids or row.keys() == self.sectors.keys():
                continue
            missing = next((sector_id for sector_id in self.sectors if sector_id not in row), None)
            if missing is not None:
                raise StateValidationError(
                    f"node {node.id!r} is missing a latency entry for sector {missing!r}"
                )
            unknown = next(sector_id for sector_id in row if sector_id not in self.sectors)
            raise StateValidationError(
                f"node {node.id!r} has a latency entry for unknown sector {unknown!r}"
            )
        slice_ids: set[str] = set()
        for config in self.provisioned_slices:
            validate_config(self, config)
            if config.slice_id is not None:
                if config.slice_id in slice_ids:
                    raise StateValidationError(
                        f"duplicate id or key {config.slice_id!r} in provisioned_slices")
                slice_ids.add(config.slice_id)

    def sector(self, sector_id: str) -> RanSector:
        try:
            return self.sectors[sector_id]
        except KeyError:
            raise UnknownIdError(f"unknown sector {sector_id!r}") from None

    def node(self, node_id: str) -> CoreNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownIdError(f"unknown node {node_id!r}") from None

    @cached_property
    def _canonical_text(self) -> str:
        return json_text(state_to_dict(self)) + "\n"

    @cached_property
    def _nearest_nodes(self) -> dict:
        """The oracle's per-sector nearest nodes by kappa_max, filled by the
        first `solve` (oracle._nearest_nodes); every new state starts empty."""
        return {}

    @cached_property
    def _slice_ids(self) -> frozenset[str]:
        """The ledger's slice ids, which `apply_provisioning` checks a new
        id against; built on first use and kept, as the state is immutable."""
        return frozenset(config.slice_id for config in self.provisioned_slices
                         if config.slice_id is not None)


def _with_ledger(state: NetworkState, ledger: tuple[SliceConfiguration, ...]) -> NetworkState:
    """`NetworkState(state.sectors, state.nodes, ledger)` without
    `__post_init__`: `state`'s maps are read-only and were checked when it
    was built, so the new state shares them as they are. Like any state just
    built, it has no nearest nodes, no cached text and no slice-id set."""
    return _built(NetworkState, sectors=state.sectors, nodes=state.nodes,
                  provisioned_slices=ledger)


def latency(state: NetworkState, sector_id: str, node_id: str) -> float:
    """End-to-end latency in ms between a sector and a node (matrix lookup)."""
    state.sector(sector_id)
    return state.node(node_id).latency_to_sector[sector_id]


class _DuplicateKey(Exception):
    """A JSON object repeats a key; the first repeated key is `args[0]`."""


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    out = dict(pairs)
    if len(out) < len(pairs):  # only then name the first repeated key
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKey(key)
            seen.add(key)
    return out


def _require_number(value: object, where: str) -> float:
    """A finite JSON number as a float; NaN, Infinity and integers past the
    float range raise StateValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StateValidationError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise StateValidationError(f"{where} must be a finite number, got {value!r}")
    return number


def _key_sets(required: set[str], optional: set[str]) -> tuple[frozenset, frozenset]:
    """An object's required keys and every key it may hold (`_check_keys`)."""
    return frozenset(required), frozenset(required | optional)


# The keys of each object in the state document.
_STATE_FIELDS = _key_sets({"sectors", "nodes"}, {"provisioned_slices"})
_SECTOR_FIELDS = _key_sets({"active_users", "load_percentage", "spectrum_available_mhz"},
                           {"description"})
_NODE_FIELDS = _key_sets({"type", "latency_to_ran_ms", "compute_load_percent"}, {"description"})
_SLICE_FIELDS = _key_sets({"sector", "band", "node"}, {"slice_id"})
_SPECTRUM_KEYS = frozenset(BAND_JSON_KEYS.values())


def _check_keys(entry: dict, fields: tuple[frozenset, frozenset], where: str) -> None:
    """Raise for a key of `entry` missing from the required set, then for one
    outside the set of every key, of `fields` (`_key_sets`); the two common
    shapes, the required keys alone or every key, take one comparison each."""
    required, every = fields
    keys = entry.keys()
    if keys == required or keys == every:
        return
    missing = required - keys
    if missing:
        raise StateValidationError(f"{where}: missing field(s) {sorted(missing)}")
    unknown = keys - every
    if unknown:
        raise StateValidationError(f"{where}: unknown field(s) {sorted(unknown)}")


def _require_text(entry: dict, key: str, where: str, default: str | None = None) -> str:
    """`entry[key]`, which must be a string; `default` where the key is absent."""
    value = entry.get(key, default)
    if not isinstance(value, str):
        raise StateValidationError(f"{where}: {key} must be a string, got {value!r}")
    return value


def _latency_row(latencies: dict, where: str) -> dict[str, float]:
    """The latency row as finite floats. A row of finite floats, which is
    what the canonical text holds, is taken as it is; otherwise each value
    goes through `_require_number`, which names the first bad one."""
    values = latencies.values()
    if set(map(type, values)) <= {float} and math.isfinite(sum(values)):
        return latencies
    return {
        sector_id: _require_number(value, f"{where} latency to {sector_id!r}")
        for sector_id, value in latencies.items()
    }


def _finite(value: object, sector_id: str, key: str) -> float:
    """The sector's number `key` as a float. A finite float or int is taken
    here; anything else goes to `_require_number`, which names the fault."""
    if type(value) is float:
        if math.isfinite(value):
            return value
    elif type(value) is int:
        try:
            return float(value)
        except OverflowError:  # past the float range
            pass
    return _require_number(value, f"sector {sector_id!r} {key}")


def _sector_from_entry(sector_id: str, entry: dict) -> RanSector:
    # Each field is checked once, in this order, and the first bad one is
    # named; a message is formatted only then. A valid entry is built once.
    if not isinstance(entry, dict):
        raise StateValidationError(f"sector {sector_id!r}: entry must be an object")
    _check_keys(entry, _SECTOR_FIELDS, f"sector {sector_id!r}")
    users = entry["active_users"]
    if isinstance(users, bool) or not isinstance(users, int):
        raise StateValidationError(f"sector {sector_id!r}: active_users must be an integer")
    spectrum_entry = entry["spectrum_available_mhz"]
    if not isinstance(spectrum_entry, dict):
        raise StateValidationError(
            f"sector {sector_id!r}: spectrum_available_mhz must be an object")
    if spectrum_entry.keys() != _SPECTRUM_KEYS:
        raise StateValidationError(f"sector {sector_id!r}: spectrum_available_mhz must have "
                                   f"exactly keys {sorted(_SPECTRUM_KEYS)}")
    mmwave = _finite(spectrum_entry["mmWave"], sector_id, "mmWave")
    mid_band = _finite(spectrum_entry["mid_band"], sector_id, "mid_band")
    low_band = _finite(spectrum_entry["low_band"], sector_id, "low_band")
    _check_bands(mmwave, mid_band, low_band)
    load = _finite(entry["load_percentage"], sector_id, "load_percentage")
    context = entry.get("description", "")
    if not isinstance(context, str):
        raise StateValidationError(
            f"sector {sector_id!r}: description must be a string, got {context!r}")
    _check_sector(sector_id, users, load)
    spectrum = _built(SpectrumBands, mmwave_mhz=mmwave, mid_band_mhz=mid_band,
                      low_band_mhz=low_band)
    return _built(RanSector, id=sector_id, active_users=users, load_percent=load,
                  spectrum=spectrum, context=context)


def _node_from_entry(node_id: str, entry: dict) -> CoreNode:
    where = f"node {node_id!r}"
    if not isinstance(entry, dict):
        raise StateValidationError(f"{where}: entry must be an object")
    _check_keys(entry, _NODE_FIELDS, where)
    tier_raw = entry["type"]
    if not isinstance(tier_raw, str) or tier_raw not in _TIER_ALIASES:
        raise StateValidationError(
            f"{where}: type must be one of {sorted(_TIER_ALIASES)}, got {tier_raw!r}"
        )
    latencies = entry["latency_to_ran_ms"]
    if not isinstance(latencies, dict):
        raise StateValidationError(f"{where}: latency_to_ran_ms must be an object")
    tier = _TIER_ALIASES[tier_raw]
    compute = _require_number(entry["compute_load_percent"], f"{where} compute_load_percent")
    # The row is the loader's own dict of finite floats, so `min` settles
    # `> 0`, and a view of it is not copied again.
    row = MappingProxyType(_latency_row(latencies, where))
    context = _require_text(entry, "description", where, default="")
    _check_node(node_id, compute, row, min(row.values(), default=1.0))
    return _built(CoreNode, id=node_id, tier=tier, compute_load_percent=compute,
                  latency_to_sector=row, context=context)


def read_json(path: str | Path, what: str, error: Callable[[str], Exception]):
    """The JSON document in the file at `path`; a file that cannot be read,
    is not JSON text in UTF-8 or holds an object that repeats a key raises
    `error` with a message naming `what` and `path`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise error(f"cannot read {what} {path}: {getattr(exc, 'strerror', exc)}") from None
    try:
        return json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except _DuplicateKey as exc:
        raise error(f"{what} {path} repeats the key {exc.args[0]!r}") from None
    # ValueError covers JSONDecodeError and an integer past Python's digit
    # limit; RecursionError, a document nested too deep.
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


_string_text = json.encoder.encode_basestring_ascii  # the C encoder json uses


@lru_cache(maxsize=256)
def _object_template(keys: tuple[str, ...], depth: int) -> str:
    """The `%` template of an object with these sorted keys whose opening
    brace stands at `depth`: one `%s` per value, `%` in a key escaped."""
    inner = "\n" + "  " * (depth + 1)
    entries = (inner + _string_text(key).replace("%", "%%") + ": %s" for key in keys)
    return "{" + ",".join(entries) + "\n" + "  " * depth + "}"


def _value_texts(values, depth: int, memo: dict) -> list[str]:
    """The JSON text of each value at `depth`, dispatched on its exact type.
    `memo` holds the text of each dataclass value met so far in this call,
    by `(id(value), depth)`: the document holds every such value for the
    whole call, so no id is reused while the memo lives."""
    texts: list[str] = []
    append = texts.append
    for value in values:
        kind = type(value)
        if kind is str:
            append(_string_text(value))
        elif kind is float:
            if math.isfinite(value):
                append(float.__repr__(value))
            elif value != value:
                append("NaN")
            else:
                append("Infinity" if value > 0 else "-Infinity")
        elif kind is int:
            append(int.__repr__(value))
        elif kind is dict:
            if value:
                keys = tuple(sorted(value))
                append(_object_template(keys, depth)
                       % tuple(_value_texts(map(value.__getitem__, keys), depth + 1, memo)))
            else:
                append("{}")
        elif kind is list:
            if value:
                inner = "\n" + "  " * (depth + 1)
                append("[" + inner + ("," + inner).join(_value_texts(value, depth + 1, memo))
                       + "\n" + "  " * depth + "]")
            else:
                append("[]")
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        else:
            key = (id(value), depth)
            text = memo.get(key)
            if text is None:
                text = memo[key] = _dataclass_text(value, depth, memo)
            append(text)
    return texts


# A record's field names, sorted once, and the getter of its values in that order.
_RECORD_KEYS = tuple(sorted(f.name for f in fields(EvaluationRecord)))
_record_values = operator.attrgetter(*_RECORD_KEYS)


def _dataclass_text(value, depth: int, memo: dict) -> str:
    """The JSON text at `depth` of an `EvaluationRecord` (an object of its
    fields) or a `SliceConfiguration` (its `config_to_dict` wire form); any
    other type, subclasses included, raises TypeError."""
    kind = type(value)
    if kind is EvaluationRecord:
        return (_object_template(_RECORD_KEYS, depth)
                % tuple(_value_texts(_record_values(value), depth + 1, memo)))
    if kind is SliceConfiguration:
        return _value_texts((config_to_dict(value),), depth, memo)[0]
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def json_text(doc) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)`, character for character,
    for a document of dicts with string keys, lists, strings, ints, floats,
    bools and None. Two dataclasses are written as well: an
    `EvaluationRecord` as the object of its fields, and a
    `SliceConfiguration` as the object `config_to_dict` gives, so the text
    is that of the document with each of them replaced by that object. Any
    other type, subclasses included, raises TypeError. It writes every JSON
    text of the package: each `--out` document, its report records too, and,
    through `serialize_state`, each state's canonical text.

    Each object is one `%` template, built once per sorted key set and
    depth, filled by the C leaf encoders json itself uses; each array is
    one join. A dataclass value met again at the same depth within one call
    reuses its text, so the repeats of a deterministic run, which share
    run 1's `produced` configuration, encode it once.
    """
    return _value_texts((doc,), 0, {})[0]


def load_state(document: str) -> NetworkState:
    """Parse and validate a state document (see the JSON schema in README)."""
    try:
        doc = json.loads(document, object_pairs_hook=_reject_duplicate_keys)
    except _DuplicateKey as exc:
        key = exc.args[0]
        raise StateValidationError(f"duplicate id or key {key!r} in state document") from None
    # ValueError covers JSONDecodeError and an integer past Python's digit
    # limit; RecursionError, a document nested too deep.
    except (ValueError, RecursionError) as exc:
        raise StateParseError(f"malformed state document: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateValidationError("state document must be a JSON object")
    _check_keys(doc, _STATE_FIELDS, "state document")
    sectors_entry = doc["sectors"]
    nodes_entry = doc["nodes"]
    if not isinstance(sectors_entry, dict) or not sectors_entry:
        raise StateValidationError("'sectors' must be a non-empty object")
    if not isinstance(nodes_entry, dict) or not nodes_entry:
        raise StateValidationError("'nodes' must be a non-empty object")
    sectors = {sid: _sector_from_entry(sid, entry) for sid, entry in sectors_entry.items()}
    nodes = {nid: _node_from_entry(nid, entry) for nid, entry in nodes_entry.items()}
    slices_entry = doc.get("provisioned_slices", [])
    if not isinstance(slices_entry, list):
        raise StateValidationError("'provisioned_slices' must be a list")
    slices = tuple(config_from_dict(entry, f"provisioned_slices[{i}]")
                   for i, entry in enumerate(slices_entry))
    return NetworkState(sectors=sectors, nodes=nodes, provisioned_slices=slices)


def config_to_dict(config: SliceConfiguration) -> dict:
    """Wire form of a configuration: sector, band and node, plus `slice_id`
    when it is set."""
    doc = {"sector": config.sector_id, "band": config.band.value, "node": config.node_id}
    if config.slice_id:
        doc["slice_id"] = config.slice_id
    return doc


# Each band by its wire value. A `Band` member is a `str` equal to its value,
# so it finds itself.
_BANDS_BY_VALUE = {band.value: band for band in Band}


def config_from_dict(entry: object, where: str) -> SliceConfiguration:
    """The configuration whose wire form is `entry`, the inverse of
    `config_to_dict`; any other form raises StateValidationError naming
    `where`. It checks no id against a state; `validate_config` does.
    Each field is checked once and a valid entry is built once, without
    the constructor, which has nothing to check."""
    if not isinstance(entry, dict):
        raise StateValidationError(f"{where}: entry must be an object")
    _check_keys(entry, _SLICE_FIELDS, where)
    value = entry["band"]
    band = _BANDS_BY_VALUE.get(value) if isinstance(value, str) else None
    if band is None:
        raise StateValidationError(f"{where}: unknown band {value!r}")
    slice_id = entry.get("slice_id")  # null, like an absent key, is no id
    if slice_id is not None and not isinstance(slice_id, str):
        raise StateValidationError(f"{where}: slice_id must be a string, got {slice_id!r}")
    if slice_id == "":
        # The wire form omits an empty id, so it would reload as None.
        raise StateValidationError(f"{where}: slice_id must be non-empty")
    return _built(SliceConfiguration, sector_id=_require_text(entry, "sector", where),
                  band=band, node_id=_require_text(entry, "node", where), slice_id=slice_id)


def state_to_dict(state: NetworkState) -> dict:
    """The state document as plain dicts, in the state's own key order;
    `serialize_state` sorts the keys as it encodes."""
    doc: dict = {
        "sectors": {
            sector.id: {
                "active_users": sector.active_users,
                "load_percentage": sector.load_percent,
                "spectrum_available_mhz": {
                    "mmWave": sector.spectrum.mmwave_mhz,
                    "mid_band": sector.spectrum.mid_band_mhz,
                    "low_band": sector.spectrum.low_band_mhz,
                },
                **({"description": sector.context} if sector.context else {}),
            }
            for sector in state.sectors.values()
        },
        "nodes": {
            node.id: {
                "type": node.tier.value,
                "latency_to_ran_ms": dict(node.latency_to_sector),
                "compute_load_percent": node.compute_load_percent,
                **({"description": node.context} if node.context else {}),
            }
            for node in state.nodes.values()
        },
    }
    if state.provisioned_slices:
        doc["provisioned_slices"] = [
            config_to_dict(config) for config in state.provisioned_slices
        ]
    return doc


def serialize_state(state: NetworkState) -> str:
    """Canonical textual form: sorted keys, stable layout, trailing newline.

    Round-trips: load_state(serialize_state(s)) is structurally equal to s.
    The text is `json_text(state_to_dict(s))` plus a newline, so it equals
    `json.dumps(..., indent=2, sort_keys=True)` of the same dict. Like
    `json_text`, it takes exact JSON types only: a value of a subclass (a
    `str` enum, a `numpy.float64`) raises TypeError where
    `json.dumps` would encode it. A state from `load_state` holds exact
    floats, ints and strings; a state built directly must hold them too.
    The text is encoded on a state's first call and kept on the state.
    """
    return state._canonical_text


def validate_config(state: NetworkState, config: SliceConfiguration) -> None:
    """The one check that `config` can exist in `state`: an unknown sector or
    node raises UnknownIdError; a band that is not a `Band`, or has no
    spectrum at the sector, raises ProvisioningError."""
    sector = state.sector(config.sector_id)
    state.node(config.node_id)
    if not isinstance(config.band, Band):
        raise ProvisioningError(f"unknown band {config.band!r}")
    if not sector.spectrum.available(config.band):
        raise ProvisioningError(
            f"band {config.band.value!r} has no available spectrum at sector "
            f"{config.sector_id!r}"
        )


def apply_provisioning(state: NetworkState, config: SliceConfiguration) -> NetworkState:
    """Record a slice in the ledger after validating it against the state.

    Sector and node loads are left untouched: the model captures a single
    provisioning decision, not load feedback.

    The new state shares `state`'s sector and node maps, which were checked
    when `state` was built, and does not check them again: the cost is
    `validate_config` plus one lookup of the slice id in the ledger's id
    set, which `state` builds on its first such call and keeps.
    """
    try:
        validate_config(state, config)
    except UnknownIdError as exc:
        raise ProvisioningError(str(exc)) from exc
    if config.slice_id is not None and config.slice_id in state._slice_ids:
        raise ProvisioningError(f"slice id {config.slice_id!r} already provisioned")
    return _with_ledger(state, state.provisioned_slices + (config,))
