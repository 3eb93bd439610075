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

`solve` finds the head without a row per candidate: it takes each sector's
best candidate (its nearest feasible node, or its nearest node when none is
feasible, on that node's best band) and returns the least of them. Each
sector's nearest node, and its nearest node within `kappa_max`, depend on
the state alone: the first `solve` for a `kappa_max` finds them in one scan
of the latency matrix and keeps them on the (immutable) state, so each later
head takes one pass over the sectors. Nothing that depends on the profile is
kept. The head is scored by the reference functions, `compute_utility` and
`check_constraints`, so a ranking's head carries exactly what they report
for its configuration. `solve` returns a read-only `Ranking` that holds
that head and builds the other rows only when a read needs them, by one
factored scan over the same per-state index: utility and feasibility split
into parts that depend on the sector, the node, the (sector, node) latency
or the band alone, so each part is computed once where it changes, and two
constructors cached for that scan alone make candidates with equal parts
share one frozen ScoreBreakdown or ConstraintReport. Past the head, the
ranking is one list: the rows are sorted and ranked once, with the scored
head as its first element.
`enumerate_candidates` scored candidate by candidate with `compute_utility`
and `check_constraints` stays the reference both must equal.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice
from typing import NamedTuple

from . import data as bundled
from .intent import IntentProfile, classify_intent, weights_for
from .model import Band, CoreNode, NetworkState, SliceConfiguration
from .scoring import (
    DEFAULT_THRESHOLDS,
    ConstraintReport,
    ScoreBreakdown,
    Thresholds,
    check_constraints,
    compute_utility,
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

    It holds the head that `solve` found and scored, the candidate count and
    a builder for every candidate's key row. The head alone (`ranking[0]`)
    needs no other row. The first read past it (another or a negative index,
    a slice, iteration) builds, sorts and ranks every row once, into one list
    of RankedConfiguration whose element 0 is the head; every read then
    returns that list's objects, so `ranking[i] is ranking[i]` for every
    `i`. Slicing returns a list.
    """

    __slots__ = ("_head", "_count", "_build_rows", "_rows")

    def __init__(
        self, head: RankedConfiguration, count: int, build_rows: Callable[[], list[tuple]]
    ) -> None:
        self._head = head
        self._count = count
        self._build_rows = build_rows
        self._rows: list[RankedConfiguration] | None = None

    def __len__(self) -> int:
        return self._count

    def _all_rows(self) -> list[RankedConfiguration]:
        rows = self._rows
        if rows is None:
            keyed = sorted(self._build_rows())  # keyed[0] is the head's row
            rows = [self._head]
            rows += [
                RankedConfiguration(
                    SliceConfiguration(sector_id, RANKED_BANDS[band_rank], node_id),
                    breakdown,
                    report,
                    rank,
                )
                for rank, (*_, sector_id, band_rank, node_id, breakdown, report)
                in enumerate(islice(keyed, 1, None), 2)
            ]
            # A new list swapped in whole, so a concurrent reader never sees
            # a half-built one; threads that race here each build an equal
            # list, and the last one stored is read from then on.
            self._rows = rows
        return rows

    def __getitem__(self, index):
        if not isinstance(index, slice):
            index = operator.index(index)  # a float is refused before the head shortcut
            if index == 0:
                return self._head
        return self._all_rows()[index]

    def __iter__(self) -> Iterator[RankedConfiguration]:
        return iter(self._all_rows())


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

    The result is a read-only `Ranking`. Its head is found and scored here,
    without a row per candidate; the first read past the head builds,
    sorts and ranks every row once, into one list that starts with this
    head.

    When no candidate is feasible the head is the best-ranked infeasible one,
    flagged through its ConstraintReport rather than raised, so callers can
    still score least-bad fallbacks.

    The head is the minimum of each sector's best candidate. Within a sector
    the load is fixed, utility never falls as S_latency rises (the weights
    are non-negative), S_latency never rises with latency and the latency
    check only fails above `tau_req_ms`. So the sector's best node is its
    nearest feasible node, or its nearest node when none is feasible, with
    ties to the lower node id, and its band is the one of highest utility
    for that node's S_latency, with ties to the lower band rank. The nearest
    feasible node is the nearest node within `kappa_max` when the sector is
    within `l_max` and that node within `tau_req_ms`, and there is none
    otherwise. Both nearest nodes depend on the state alone: the first call
    for a `kappa_max` finds them with one latency lookup per (sector, node)
    and keeps them on the state, and every call takes one pass over the
    sectors, with one S_latency per sector. The head is then scored by
    `compute_utility` and `check_constraints`.
    """
    if profile.target_sector is not None:
        state.sector(profile.target_sector)  # UnknownIdError for an unknown id
    kappa_max = thresholds.kappa_max
    nearest = state._nearest_nodes.get(kappa_max)
    if nearest is None:
        # Threads that race here each build an equal index; one is kept.
        nearest = state._nearest_nodes[kappa_max] = _nearest_nodes(state, kappa_max)
    if profile.target_sector is not None:
        sector = nearest.sectors.get(profile.target_sector)
        if sector is None:
            raise OracleError(
                f"empty candidate set: target sector {profile.target_sector!r} "
                "has no available band"
            )
        sectors = (sector,)
        count = len(state.nodes) * len(sector[2])
    else:
        sectors = nearest.sectors.values()
        if not sectors:
            raise OracleError("empty candidate set: no sector has an available band")
        count = nearest.candidates
    weights = weights_for(profile.traffic_class)
    s_resource = [score_resource(band, profile.bandwidth_category) for band in RANKED_BANDS]
    l_max = thresholds.l_max
    tau_req = profile.tau_req_ms
    head = None
    for sector_id, load, band_ranks, near_tau, near_id, ok_tau, ok_id in sectors:
        if load <= l_max and ok_id is not None and ok_tau <= tau_req:
            infeasible, tau, node_id = 0, ok_tau, ok_id
        else:
            infeasible, tau, node_id = 1, near_tau, near_id
        s_lat = score_latency(tau)
        s_con = score_congestion(load)
        neg_utility, band_rank = min(
            (-weighted_utility(weights, s_lat, s_resource[band_rank], s_con), band_rank)
            for band_rank in band_ranks
        )
        row = (infeasible, neg_utility, tau, load, sector_id, band_rank, node_id)
        if head is None or row < head:
            head = row
    *_, sector_id, band_rank, node_id = head
    config = SliceConfiguration(sector_id, RANKED_BANDS[band_rank], node_id)
    breakdown = compute_utility(config, profile, state)
    report = check_constraints(config, profile, state, thresholds)
    build_rows = partial(_candidate_rows, nearest, sectors, weights, s_resource, tau_req,
                         thresholds)
    return Ranking(RankedConfiguration(config, breakdown, report, 1), count, build_rows)


class _NearestNodes(NamedTuple):
    """The part of `solve`'s search that depends on the state and `kappa_max`
    alone, kept on the state by `kappa_max`."""

    # Sector id -> (sector id, load, band ranks, nearest node's latency and
    # id, nearest compute-ok node's latency and id or (inf, None)), by id,
    # for every sector with an available band.
    sectors: dict[str, tuple[str, float, tuple[int, ...], float, str, float, str | None]]
    candidates: int  # the untargeted candidate count
    # (node id, node, compute load <= kappa_max) for every node, by id.
    nodes: list[tuple[str, CoreNode, bool]]


def _nearest_nodes(state: NetworkState, kappa_max: float) -> _NearestNodes:
    """Each sector's nearest node and nearest node within `kappa_max`, by
    one latency lookup per (sector, node); ties go to the lower node id."""
    nodes = [
        (node_id, node, node.compute_load_percent <= kappa_max)
        for node_id, node in sorted(state.nodes.items())
    ]
    # Each search starts at its first node, so an infinite latency is still found.
    first_ok_id = next((node_id for node_id, _, ok in nodes if ok), None)
    sectors = {}
    candidates = 0
    for sector_id in sorted(state.sectors):
        sector = state.sectors[sector_id]
        band_ranks = tuple(
            band_rank
            for band_rank, band in enumerate(RANKED_BANDS)
            if sector.spectrum.available(band)
        )
        if not band_ranks:
            continue
        # nodes is sorted by id, so a strict `<` keeps the lower id on a latency tie.
        near_tau, near_id, ok_tau, ok_id = math.inf, nodes[0][0], math.inf, first_ok_id
        for node_id, node, node_compute_ok in nodes:
            tau = node.latency_to_sector[sector_id]
            if tau < near_tau:
                near_tau, near_id = tau, node_id
            if node_compute_ok and tau < ok_tau:
                ok_tau, ok_id = tau, node_id
        sectors[sector_id] = (
            sector_id, sector.load_percent, band_ranks, near_tau, near_id, ok_tau, ok_id
        )
        candidates += len(nodes) * len(band_ranks)
    return _NearestNodes(sectors, candidates, nodes)


def _candidate_rows(
    nearest: _NearestNodes,
    sectors: Iterable[tuple],
    weights: tuple[float, float, float],
    s_resource: Sequence[float],
    tau_req: float,
    thresholds: Thresholds,
) -> list[tuple]:
    """Every candidate's key row, in scan order, for the sectors `solve`
    searched.

    `sectors` are `nearest`'s sector rows; only their id, load and band
    ranks are read. `weights`, the per-band-rank resource scores `s_resource`
    and `tau_req` are the ones `solve` took from the profile.

    One factored scan over the candidates of `enumerate_candidates`, equal
    row for row to scoring each with `compute_utility` and
    `check_constraints`: the congestion score and the load check are taken
    once per sector, the latency score and check once per (sector, node),
    the compute check once per node and the resource score once per band.
    Two constructors cached for this call alone, `breakdown` and `report`,
    make candidates with equal sub-scores share one (frozen) ScoreBreakdown
    and equal checks one ConstraintReport, so at most 8 reports are built.
    """

    @cache
    def breakdown(s_lat: float, s_res: float, s_con: float) -> ScoreBreakdown:
        utility = weighted_utility(weights, s_lat, s_res, s_con)
        return ScoreBreakdown(s_latency=s_lat, s_resource=s_res, s_congestion=s_con,
                              weights=weights, utility=utility)

    @cache
    def report(load_ok: bool, compute_ok: bool, latency_ok: bool) -> ConstraintReport:
        return ConstraintReport(load_ok=load_ok, band_ok=True, compute_ok=compute_ok,
                                latency_ok=latency_ok, l_max=thresholds.l_max,
                                kappa_max=thresholds.kappa_max, tau_req_ms=tau_req)

    rows = []
    for sector_id, load, band_ranks, *_ in sectors:
        s_con = score_congestion(load)
        load_ok = load <= thresholds.l_max
        for node_id, node, node_compute_ok in nearest.nodes:
            tau = node.latency_to_sector[sector_id]
            s_lat = score_latency(tau)
            checks = report(load_ok, node_compute_ok, tau <= tau_req)
            infeasible = 0 if checks.feasible else 1
            for band_rank in band_ranks:
                scores = breakdown(s_lat, s_resource[band_rank], s_con)
                # The first seven fields are the ranking key and unique per
                # candidate, so ordering rows never compares the objects after them.
                rows.append((infeasible, -scores.utility, tau, load, sector_id, band_rank,
                             node_id, scores, checks))
    return rows


def rule_based_provision(
    intent_text: str,
    state: NetworkState,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> RuleBasedResult:
    """The deterministic baseline: classification with the bundled strict
    (frozen) lexicon, then solve.

    No synonym expansion happens here; when the text matches no keyword the
    class falls through to the eMBB default and the rationale records it, so
    misclassifications stay auditable.
    """
    profile = classify_intent(intent_text, state, bundled.strict_lexicon())
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
