"""Engineering utility scoring and constraint checking.

The utility of a candidate configuration is a weighted sum of three
normalised sub-scores:

    U = w_l * S_latency + w_r * S_resource + w_c * S_congestion

with weights chosen per traffic class (see intent.weights_for). Sub-scores:

    S_latency    1.0 below 10 ms, 0.5 in [10, 30) ms, 0.0 at 30 ms and above
    S_resource   how well the band matches the bandwidth category (see table)
    S_congestion 1 - load/100 of the selected sector

Feasibility is a separate, four-part check (sector load, band availability,
node compute load, latency requirement). Utility is intentionally computed
for infeasible configurations too, so rankings among infeasible fallbacks
remain well defined.

No rounding happens here; report emission rounds to 2 decimals via
round_half_up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .intent import BandwidthCategory, IntentProfile, weights_for
from .model import Band, NetworkState, SliceConfiguration, validate_config


@dataclass(frozen=True)
class Thresholds:
    """Operational limits for the feasibility check, configurable per run.

    A NaN, infinite or negative limit raises ValueError.
    """

    l_max: float = 100.0
    kappa_max: float = 85.0

    def __post_init__(self) -> None:
        for name in ("l_max", "kappa_max"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")


DEFAULT_THRESHOLDS = Thresholds()


@dataclass(frozen=True)
class ScoreBreakdown:
    s_latency: float
    s_resource: float
    s_congestion: float
    weights: tuple[float, float, float]
    utility: float


@dataclass(frozen=True)
class ConstraintReport:
    load_ok: bool
    band_ok: bool
    compute_ok: bool
    latency_ok: bool
    l_max: float
    kappa_max: float
    tau_req_ms: float

    @property
    def feasible(self) -> bool:
        return self.load_ok and self.band_ok and self.compute_ok and self.latency_ok


def score_latency(tau_ms: float) -> float:
    """Step score for end-to-end latency; breakpoints at exactly 10 and 30 ms."""
    if tau_ms <= 0:
        raise ValueError(f"latency must be > 0 ms, got {tau_ms}")
    if tau_ms < 10:
        return 1.0
    if tau_ms < 30:
        return 0.5
    return 0.0


# (band, bandwidth category) -> resource-efficiency score. mmWave is wasted on
# low-rate traffic; mid-band suits anything that is not capacity-bound;
# low-band is right only for low-rate traffic.
_RESOURCE_TABLE: dict[tuple[Band, BandwidthCategory], float] = {
    (Band.MMWAVE, BandwidthCategory.HIGH): 1.0,
    (Band.MMWAVE, BandwidthCategory.MEDIUM): 0.5,
    (Band.MMWAVE, BandwidthCategory.LOW): 0.0,
    (Band.MID_BAND, BandwidthCategory.HIGH): 0.5,
    (Band.MID_BAND, BandwidthCategory.MEDIUM): 1.0,
    (Band.MID_BAND, BandwidthCategory.LOW): 1.0,
    (Band.LOW_BAND, BandwidthCategory.HIGH): 0.5,
    (Band.LOW_BAND, BandwidthCategory.MEDIUM): 0.5,
    (Band.LOW_BAND, BandwidthCategory.LOW): 1.0,
}


def score_resource(band: Band, beta: BandwidthCategory) -> float:
    return _RESOURCE_TABLE[(Band(band), BandwidthCategory(beta))]


def score_congestion(load_percent: float) -> float:
    if not 0 <= load_percent <= 100:
        raise ValueError(f"load must be within [0, 100], got {load_percent}")
    return 1.0 - load_percent / 100.0


def weighted_utility(
    weights: tuple[float, float, float], s_lat: float, s_res: float, s_con: float
) -> float:
    """U = w_l * S_latency + w_r * S_resource + w_c * S_congestion.

    The one place the sum is written, so every caller gets the same float.
    """
    w_l, w_r, w_c = weights
    return w_l * s_lat + w_r * s_res + w_c * s_con


def compute_utility(
    config: SliceConfiguration,
    profile: IntentProfile,
    state: NetworkState,
) -> ScoreBreakdown:
    """Score a configuration against an intent profile and network state.

    A configuration that `validate_config` refuses (an unknown id, a band
    with no spectrum at the sector) raises its error: it is structurally
    invalid, as opposed to merely infeasible.
    """
    validate_config(state, config)
    sector = state.sectors[config.sector_id]
    node = state.nodes[config.node_id]
    weights = weights_for(profile.traffic_class)
    s_lat = score_latency(node.latency_to_sector[config.sector_id])
    s_res = score_resource(config.band, profile.bandwidth_category)
    s_con = score_congestion(sector.load_percent)
    return ScoreBreakdown(
        s_latency=s_lat,
        s_resource=s_res,
        s_congestion=s_con,
        weights=weights,
        utility=weighted_utility(weights, s_lat, s_res, s_con),
    )


def check_constraints(
    config: SliceConfiguration,
    profile: IntentProfile,
    state: NetworkState,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> ConstraintReport:
    """Evaluate the four feasibility constraints for a configuration."""
    sector = state.sector(config.sector_id)
    node = state.node(config.node_id)
    tau = node.latency_to_sector[config.sector_id]
    return ConstraintReport(
        load_ok=sector.load_percent <= thresholds.l_max,
        band_ok=sector.spectrum.available(config.band),
        compute_ok=node.compute_load_percent <= thresholds.kappa_max,
        latency_ok=tau <= profile.tau_req_ms,
        l_max=thresholds.l_max,
        kappa_max=thresholds.kappa_max,
        tau_req_ms=profile.tau_req_ms,
    )


def round_half_up(value: float, places: int = 2) -> float:
    """Decimal-aware half-up rounding for report emission.

    Plain round() is half-even over binary floats, which turns 0.535 into
    0.53; reports follow the conventional half-up reading (0.54).
    """
    if math.isnan(value) or math.isinf(value):
        return value
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(round(value, 9))).quantize(quantum, rounding=ROUND_HALF_UP))
