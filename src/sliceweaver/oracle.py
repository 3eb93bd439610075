"""Brute-force optimal configuration search.

The decision space is tiny by construction (sectors x bands x nodes), so the
optimum is found by exhaustive enumeration and total-order ranking. This
module is the ground truth the rest of the system is checked against: golden
standards for authored scenarios come from here, and the rule-based baseline
is strict-lexicon classification in front of the same search.

Ranking order: feasible first, then utility descending, then lower latency,
then lower sector load, then lexicographic (sector, band, node) with bands
ordered mmwave < mid_band < low_band. The comparator is total, so rankings
are deterministic and independent of enumeration order.

`solve` is factored: utility and feasibility split into parts that depend on
the sector, the node, the (sector, node) latency or the band alone, so each
part is computed once where it changes, and candidates with equal parts
share one frozen ScoreBreakdown or ConstraintReport. `enumerate_candidates`
scored candidate by candidate with `compute_utility` and `check_constraints`
stays the reference it must equal.

`solve` returns a read-only `Ranking` over the sorted rows: a row's
configuration and ranked object are built when the row is read, so a caller
that takes only the head (`solve(...)[0]`) builds one row, not every row.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .intent import IntentProfile, Lexicon, classify_intent, weights_for
from .model import Band, NetworkState, SliceConfiguration
from .scoring import (
    DEFAULT_THRESHOLDS,
    ConstraintReport,
    ScoreBreakdown,
    Thresholds,
    score_congestion,
    score_latency,
    score_resource,
    weighted_utility,
)

# The band tie-break order of the ranking; a band's rank is its index here.
RANKED_BANDS: tuple[Band, ...] = (Band.MMWAVE, Band.MID_BAND, Band.LOW_BAND)


class OracleError(Exception):
    pass


@dataclass(frozen=True)
class RankedConfiguration:
    config: SliceConfiguration
    breakdown: ScoreBreakdown
    constraints: ConstraintReport
    rank: int

    @property
    def feasible(self) -> bool:
        return self.constraints.feasible


class Ranking(Sequence[RankedConfiguration]):
    """The result of `solve`: a read-only sequence of ranked rows, best first.

    It holds the sorted key rows of the scan; the RankedConfiguration at an
    index (rank = index + 1) is built each time that index is read, by
    indexing, slicing (which returns a list) or iterating.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: list[tuple]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_ranked(self._rows[i], i + 1) for i in range(*index.indices(len(self._rows)))]
        row = self._rows[index]  # raises IndexError before the rank is taken
        return _ranked(row, index % len(self._rows) + 1)

    def __iter__(self) -> Iterator[RankedConfiguration]:
        return map(_ranked, self._rows, range(1, len(self._rows) + 1))


def _ranked(row: tuple, rank: int) -> RankedConfiguration:
    _, _, _, _, sector_id, band_rank, node_id, breakdown, report = row
    return RankedConfiguration(
        SliceConfiguration(sector_id, RANKED_BANDS[band_rank], node_id),
        breakdown,
        report,
        rank,
    )


@dataclass(frozen=True)
class RuleBasedResult:
    """Outcome of the rule-based baseline: chosen config plus an audit trail."""

    config: SliceConfiguration
    profile: IntentProfile
    feasible: bool
    rationale: tuple[str, ...]


def enumerate_candidates(
    state: NetworkState, profile: IntentProfile
) -> list[SliceConfiguration]:
    """Materialise the search space for a profile.

    Restricted to the profile's target sector when present; bands with zero
    spectrum at a sector are excluded up front.
    """
    if profile.target_sector is not None:
        sector_ids = [profile.target_sector]
    else:
        sector_ids = sorted(state.sectors)
    candidates: list[SliceConfiguration] = []
    for sector_id in sector_ids:
        sector = state.sector(sector_id)
        for band in Band:
            if not sector.spectrum.available(band):
                continue
            for node_id in sorted(state.nodes):
                candidates.append(
                    SliceConfiguration(sector_id=sector_id, band=band, node_id=node_id)
                )
    return candidates


def solve(
    state: NetworkState,
    profile: IntentProfile,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> Ranking:
    """Rank every candidate configuration; the head is the arg-max.

    The result is a read-only `Ranking` whose rows are built when they are
    read: `solve(...)[0]` builds the head alone, and iterating or slicing
    builds the rows it reaches.

    When no candidate is feasible the head is the best-ranked infeasible one,
    flagged through its ConstraintReport rather than raised, so callers can
    still score least-bad fallbacks.

    One factored scan over the candidates of `enumerate_candidates`, equal
    row for row to scoring each with `compute_utility` and
    `check_constraints`: the congestion score and the load check are taken
    once per sector, the latency score and check once per (sector, node),
    the compute check once per node and the resource score once per band.
    Candidates with equal sub-scores share one (frozen) ScoreBreakdown, and
    equal checks one ConstraintReport, so at most 8 reports are built. Each
    candidate becomes one sort-key tuple, and the `Ranking` holds the sorted
    tuples.
    """
    if profile.target_sector is not None:
        state.sector(profile.target_sector)  # UnknownIdError for an unknown id
        sector_ids = [profile.target_sector]
    else:
        sector_ids = sorted(state.sectors)
    node_ids = sorted(state.nodes)
    nodes = [state.nodes[node_id] for node_id in node_ids]
    weights = weights_for(profile.traffic_class)
    s_resource = [score_resource(band, profile.bandwidth_category) for band in RANKED_BANDS]
    compute_ok = [node.compute_load_percent <= thresholds.kappa_max for node in nodes]
    breakdowns: dict[tuple[float, float, float], ScoreBreakdown] = {}
    reports: dict[tuple[bool, bool, bool], ConstraintReport] = {}
    rows = []
    for sector_id in sector_ids:
        sector = state.sectors[sector_id]
        band_ranks = [
            band_rank for band_rank, band in enumerate(RANKED_BANDS)
            if sector.spectrum.available(band)
        ]
        if not band_ranks:
            continue
        load = sector.load_percent
        s_con = score_congestion(load)
        load_ok = load <= thresholds.l_max
        # S_latency -> [(band rank, -utility, breakdown)] for this sector.
        scored: dict[float, list[tuple[int, float, ScoreBreakdown]]] = {}
        for node_id, node, node_compute_ok in zip(node_ids, nodes, compute_ok):
            tau = node.latency_to_sector[sector_id]
            s_lat = score_latency(tau)
            latency_ok = tau <= profile.tau_req_ms
            report = reports.get((load_ok, node_compute_ok, latency_ok))
            if report is None:
                report = reports[load_ok, node_compute_ok, latency_ok] = ConstraintReport(
                    load_ok=load_ok,
                    band_ok=True,
                    compute_ok=node_compute_ok,
                    latency_ok=latency_ok,
                    l_max=thresholds.l_max,
                    kappa_max=thresholds.kappa_max,
                    tau_req_ms=profile.tau_req_ms,
                )
            infeasible = 0 if report.feasible else 1
            per_band = scored.get(s_lat)
            if per_band is None:
                per_band = scored[s_lat] = []
                for band_rank in band_ranks:
                    s_res = s_resource[band_rank]
                    breakdown = breakdowns.get((s_lat, s_res, s_con))
                    if breakdown is None:
                        breakdown = breakdowns[s_lat, s_res, s_con] = ScoreBreakdown(
                            s_latency=s_lat,
                            s_resource=s_res,
                            s_congestion=s_con,
                            weights=weights,
                            utility=weighted_utility(weights, s_lat, s_res, s_con),
                        )
                    per_band.append((band_rank, -breakdown.utility, breakdown))
            for band_rank, neg_utility, breakdown in per_band:
                # The first seven fields are the ranking key and unique per
                # candidate, so the sort never compares the objects after them.
                rows.append((infeasible, neg_utility, tau, load, sector_id, band_rank, node_id,
                             breakdown, report))
    if not rows:
        raise OracleError("empty candidate set: no sector has an available band")
    rows.sort()
    return Ranking(rows)


def rule_based_provision(
    intent_text: str,
    state: NetworkState,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    lexicon: Lexicon | None = None,
) -> RuleBasedResult:
    """The deterministic baseline: frozen-lexicon classification + solve.

    No synonym expansion happens here; when the text matches no keyword the
    class falls through to the eMBB default and the rationale records it, so
    misclassifications stay auditable.
    """
    if lexicon is None:
        from .data import strict_lexicon

        lexicon = strict_lexicon()
    profile = classify_intent(intent_text, state, lexicon)
    rationale = [
        f"traffic_class={profile.traffic_class.value}",
        f"bandwidth={profile.bandwidth_category.value}",
        f"tau_req_ms={profile.tau_req_ms:g}",
        f"target_sector={profile.target_sector or '-'}",
    ]
    if profile.matched_keywords:
        rationale.append("matched_keywords=" + ",".join(profile.matched_keywords))
    else:
        rationale.append(
            "no lexicon keyword matched; defaulted to "
            f"{profile.traffic_class.value}/{profile.bandwidth_category.value}"
        )
    head = solve(state, profile, thresholds)[0]
    if not head.feasible:
        rationale.append("no feasible candidate; returning best infeasible fallback")
    return RuleBasedResult(
        config=head.config,
        profile=profile,
        feasible=head.feasible,
        rationale=tuple(rationale),
    )
