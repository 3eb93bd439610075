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

States are immutable values: the sector map, the node map and each node's
latency row are read-only mappings, and every operation returns a new state.
This makes them safe to share across concurrent evaluation workers, and it
lets a state encode its canonical text once, on the first `serialize_state`
call, and keep it.

`load_state` checks a latency row at a time, not a value at a time: a row
whose values are all finite floats, as the canonical text writes them, is
taken in one check, and the loader scans value by value only to convert
integers or to name a bad value, so its messages do not depend on the bulk
check. A sector entry of the common shape (exact keys, an integer user
count, four numbers with a finite sum) is likewise taken in one check.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import repeat
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


def _read_only(mapping: Mapping) -> MappingProxyType:
    """A read-only copy of `mapping`; one that is already read-only is kept."""
    if isinstance(mapping, MappingProxyType):
        return mapping
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


@dataclass(frozen=True)
class SpectrumBands:
    """Unallocated spectrum per band, in MHz. A band is available iff > 0."""

    mmwave_mhz: float
    mid_band_mhz: float
    low_band_mhz: float

    def __post_init__(self) -> None:
        for name in _BAND_FIELDS.values():
            value = getattr(self, name)
            if not value >= 0:  # NaN fails every comparison
                raise StateValidationError(f"spectrum {name} must be >= 0, got {value}")

    def for_band(self, band: Band) -> float:
        return getattr(self, _BAND_FIELDS[band])

    def available(self, band: Band) -> bool:
        return self.for_band(band) > 0


@dataclass(frozen=True)
class RanSector:
    """One radio coverage cell: utilisation, user count, spectrum headroom."""

    id: str
    active_users: int
    load_percent: float
    spectrum: SpectrumBands
    context: str = ""

    def __post_init__(self) -> None:
        # An intent names a sector by its words (`classify_intent`), so an
        # id with no letter or digit would be "named" by punctuation.
        if not any(map(str.isalnum, self.id)):
            raise StateValidationError(f"sector id {self.id!r} has no letter or digit")
        if self.active_users < 0:
            raise StateValidationError(f"sector {self.id!r}: active_users must be >= 0")
        if not 0 <= self.load_percent <= 100:
            raise StateValidationError(
                f"sector {self.id!r}: load_percent {self.load_percent} outside [0, 100]"
            )


@dataclass(frozen=True)
class CoreNode:
    """One UPF node: placement tier, compute headroom, and its latency row."""

    id: str
    tier: NodeTier
    compute_load_percent: float
    latency_to_sector: Mapping[str, float]
    context: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "latency_to_sector", _read_only(self.latency_to_sector))
        if not self.id:
            raise StateValidationError("node id must be non-empty")
        if not 0 <= self.compute_load_percent <= 100:
            raise StateValidationError(
                f"node {self.id!r}: compute_load_percent {self.compute_load_percent} "
                "outside [0, 100]"
            )
        # One pass in C over the row (`min` would skip a NaN that is not
        # first); the scan below only names the culprit.
        if all(map(operator.gt, self.latency_to_sector.values(), repeat(0))):
            return
        for sector_id, value in self.latency_to_sector.items():
            if not value > 0:
                raise StateValidationError(
                    f"node {self.id!r}: latency to {sector_id!r} must be > 0, got {value}"
                )


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
class NetworkState:
    """The complete environment: sector map, node map, and slice ledger."""

    sectors: Mapping[str, RanSector]
    nodes: Mapping[str, CoreNode]
    provisioned_slices: tuple[SliceConfiguration, ...] = ()
    # The oracle's per-sector nearest nodes by kappa_max, filled by the first
    # `solve` (oracle._nearest_nodes). Exact because the state is immutable;
    # a new state, such as the one `apply_provisioning` returns, starts empty.
    _nearest_nodes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sectors", _read_only(self.sectors))
        object.__setattr__(self, "nodes", _read_only(self.nodes))
        object.__setattr__(self, "provisioned_slices", tuple(self.provisioned_slices))
        if not self.sectors:
            raise StateValidationError("state must contain at least one sector")
        if not self.nodes:
            raise StateValidationError("state must contain at least one node")
        for node in self.nodes.values():
            row = node.latency_to_sector
            # apply_provisioning re-runs this check, so the common case is one
            # key-set comparison; the scans below only name the culprit.
            if row.keys() == self.sectors.keys():
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


# The fields of each object in the state document: required, then optional.
_STATE_FIELDS = frozenset({"sectors", "nodes"}), frozenset({"provisioned_slices"})
_SECTOR_FIELDS = (
    frozenset({"active_users", "load_percentage", "spectrum_available_mhz"}),
    frozenset({"description"}),
)
_NODE_FIELDS = (
    frozenset({"type", "latency_to_ran_ms", "compute_load_percent"}),
    frozenset({"description"}),
)
_SLICE_FIELDS = frozenset({"sector", "band", "node"}), frozenset({"slice_id"})
_SPECTRUM_KEYS = frozenset(BAND_JSON_KEYS.values())


def _check_keys(entry: dict, fields: tuple[frozenset, frozenset], where: str) -> None:
    required, optional = fields
    keys = entry.keys()
    if keys == required:  # the common shape; the rest only names the culprit
        return
    missing = required - keys
    if missing:
        raise StateValidationError(f"{where}: missing field(s) {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise StateValidationError(f"{where}: unknown field(s) {sorted(unknown)}")


def _require_text(entry: dict, key: str, where: str, default: str | None = None) -> str:
    """`entry[key]`, which must be a string; `default` where the key is absent."""
    value = entry.get(key, default)
    if not isinstance(value, str):
        raise StateValidationError(f"{where}: {key} must be a string, got {value!r}")
    return value


def _latency_row(latencies: dict, where: str) -> dict[str, float]:
    """The latency row as floats. A row of finite floats, which is what the
    canonical text holds, is taken as it is; otherwise each value goes
    through `_require_number`, which names the first bad one."""
    values = latencies.values()
    if set(map(type, values)) <= {float} and math.isfinite(sum(values)):
        return latencies
    return {
        sector_id: _require_number(value, f"{where} latency to {sector_id!r}")
        for sector_id, value in latencies.items()
    }


_NUMBER_TYPES = frozenset({int, float})


def _sector_from_entry(sector_id: str, entry: dict) -> RanSector:
    # The common shape is taken in one check; any other entry goes through
    # the per-field path below, which names the first bad field.
    if type(entry) is dict and entry.keys() == _SECTOR_FIELDS[0]:
        users = entry["active_users"]
        spectrum_entry = entry["spectrum_available_mhz"]
        if (type(users) is int and type(spectrum_entry) is dict
                and spectrum_entry.keys() == _SPECTRUM_KEYS):
            numbers = (entry["load_percentage"], spectrum_entry["mmWave"],
                       spectrum_entry["mid_band"], spectrum_entry["low_band"])
            if set(map(type, numbers)) <= _NUMBER_TYPES:
                try:
                    load, mmwave, mid_band, low_band = map(float, numbers)
                except OverflowError:  # an integer past the float range
                    pass
                else:
                    if math.isfinite(load + mmwave + mid_band + low_band):
                        return RanSector(
                            id=sector_id,
                            active_users=users,
                            load_percent=load,
                            spectrum=SpectrumBands(mmwave, mid_band, low_band),
                        )
    where = f"sector {sector_id!r}"
    if not isinstance(entry, dict):
        raise StateValidationError(f"{where}: entry must be an object")
    _check_keys(entry, _SECTOR_FIELDS, where)
    users = entry["active_users"]
    if isinstance(users, bool) or not isinstance(users, int):
        raise StateValidationError(f"{where}: active_users must be an integer")
    spectrum_entry = entry["spectrum_available_mhz"]
    if not isinstance(spectrum_entry, dict):
        raise StateValidationError(f"{where}: spectrum_available_mhz must be an object")
    if spectrum_entry.keys() != _SPECTRUM_KEYS:
        raise StateValidationError(
            f"{where}: spectrum_available_mhz must have exactly keys {sorted(_SPECTRUM_KEYS)}"
        )
    spectrum = SpectrumBands(
        mmwave_mhz=_require_number(spectrum_entry["mmWave"], f"{where} mmWave"),
        mid_band_mhz=_require_number(spectrum_entry["mid_band"], f"{where} mid_band"),
        low_band_mhz=_require_number(spectrum_entry["low_band"], f"{where} low_band"),
    )
    return RanSector(
        id=sector_id,
        active_users=users,
        load_percent=_require_number(entry["load_percentage"], f"{where} load_percentage"),
        spectrum=spectrum,
        context=_require_text(entry, "description", where, default=""),
    )


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
    return CoreNode(
        id=node_id,
        tier=_TIER_ALIASES[tier_raw],
        compute_load_percent=_require_number(
            entry["compute_load_percent"], f"{where} compute_load_percent"
        ),
        latency_to_sector=_latency_row(latencies, where),
        context=_require_text(entry, "description", where, default=""),
    )


def read_json(path: str | Path, what: str, error: Callable[[str], Exception]):
    """The JSON document in the file at `path`; a file that cannot be read,
    is not JSON text in UTF-8 or holds an object that repeats a key raises
    `error` with a message naming `what` and `path`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None
    except _DuplicateKey as exc:
        raise error(f"{what} {path} repeats the key {exc.args[0]!r}") from None
    # ValueError covers JSONDecodeError, text that is not UTF-8 and an integer
    # past Python's digit limit; RecursionError, a document nested too deep.
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


def _value_texts(values, depth: int) -> list[str]:
    """The JSON text of each value at `depth`, dispatched on its exact type."""
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
                       % tuple(_value_texts(map(value.__getitem__, keys), depth + 1)))
            else:
                append("{}")
        elif kind is list:
            if value:
                inner = "\n" + "  " * (depth + 1)
                append("[" + inner + ("," + inner).join(_value_texts(value, depth + 1))
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
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return texts


def json_text(doc) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)`, character for character,
    for a document of dicts with string keys, lists, strings, ints, floats,
    bools and None; any other type, subclasses included, raises TypeError.
    It writes every JSON text of the package: each `--out` document and,
    through `serialize_state`, each state's canonical text.

    Each object is one `%` template, built once per sorted key set and
    depth, filled by the C leaf encoders json itself uses; each array is
    one join.
    """
    return _value_texts((doc,), 0)[0]


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
    state = NetworkState(sectors=sectors, nodes=nodes, provisioned_slices=slices)
    seen_slice_ids: set[str] = set()
    for config in slices:
        validate_config(state, config)
        if config.slice_id is not None:
            if config.slice_id in seen_slice_ids:
                raise StateValidationError(
                    f"duplicate id or key {config.slice_id!r} in provisioned_slices"
                )
            seen_slice_ids.add(config.slice_id)
    return state


def config_to_dict(config: SliceConfiguration) -> dict:
    """Wire form of a configuration: sector, band and node, plus `slice_id`
    when it is set."""
    doc = {"sector": config.sector_id, "band": config.band.value, "node": config.node_id}
    if config.slice_id:
        doc["slice_id"] = config.slice_id
    return doc


def config_from_dict(entry: object, where: str) -> SliceConfiguration:
    """The configuration whose wire form is `entry`, the inverse of
    `config_to_dict`; any other form raises StateValidationError naming
    `where`. It checks no id against a state; `validate_config` does."""
    if not isinstance(entry, dict):
        raise StateValidationError(f"{where}: entry must be an object")
    _check_keys(entry, _SLICE_FIELDS, where)
    try:
        band = Band(entry["band"])
    except ValueError:
        raise StateValidationError(f"{where}: unknown band {entry['band']!r}") from None
    slice_id = entry.get("slice_id")  # null, like an absent key, is no id
    if slice_id is not None and not isinstance(slice_id, str):
        raise StateValidationError(f"{where}: slice_id must be a string, got {slice_id!r}")
    if slice_id == "":
        # The wire form omits an empty id, so it would reload as None.
        raise StateValidationError(f"{where}: slice_id must be non-empty")
    return SliceConfiguration(
        sector_id=_require_text(entry, "sector", where),
        band=band,
        node_id=_require_text(entry, "node", where),
        slice_id=slice_id,
    )


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
    """
    try:
        validate_config(state, config)
    except UnknownIdError as exc:
        raise ProvisioningError(str(exc)) from exc
    if config.slice_id is not None:
        for existing in state.provisioned_slices:
            if existing.slice_id == config.slice_id:
                raise ProvisioningError(f"slice id {config.slice_id!r} already provisioned")
    return NetworkState(
        sectors=state.sectors, nodes=state.nodes,
        provisioned_slices=state.provisioned_slices + (config,),
    )
