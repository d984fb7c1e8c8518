"""Hypergraph test-distance failure clustering for per-defect sub-diagnoses.

An et al.'s hypergraph clustering idea (arXiv:2104.10360): failing tests
caused by the *same* defect share candidate structure, so a distance
defined over shared hyperedge membership separates the failing-pattern set
into per-defect groups before any covering runs.  Here the hyperedges are
candidate sites: each failing pattern's **feature set** is the sites that
could explain it -- its exact singleton explainers when it has any, else
every candidate site inside the fan-in cone of its failing outputs (the
same structural pool the hitting-set engine draws from).  The
test distance is the Jaccard distance between feature sets, and
single-linkage union-find merges patterns closer than ``link_threshold``
(the default merges on *any* shared feature site, which keeps a defect's
directly-explained and interaction-masked patterns in one group).

Each cluster then gets its own small implicit-hitting-set cover
(:func:`repro.core.hitting.hitting_set_cover` with the minimum-cover
sweep's wanted patterns set to the cluster), turning one large multiplet
search into several small ones.
The per-cluster covers are joined, redundancy-minimized, and **jointly
verified** against the full failing set with the exact per-test criterion
-- clustering is a heuristic decomposition, so a join that fails joint
verification (cross-cluster interaction the decomposition missed) falls
back to one global hitting-set search seeded with the per-cluster sites.

Optimality of a clustered result is ``optimal`` only in the single-cluster
case (where the global engine ran unpartitioned); a multi-cluster join is
reported ``bounded`` -- per-cluster minimality does not compose into a
global minimality proof, because one site can serve two clusters or a
cross-cluster assignment can beat the join -- and ``budget`` when the
:class:`Budget` stopped any stage first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.circuit.netlist import Site
from repro.core.budget import (
    OPTIMALITY_BOUNDED,
    OPTIMALITY_BUDGET,
    OPTIMALITY_OPTIMAL,
    Budget,
)
from repro.core.cover import CoverSweep
from repro.core.hitting import HittingSetResult, hitting_set_cover
from repro.core.pertest import PerTestAnalysis


@dataclass(frozen=True)
class ClusterDiagResult:
    """Outcome of clustered covering.

    ``clusters`` are the failing-pattern groups (original indices, sorted);
    ``covers`` the verified joined multiplets (best first); ``per_cluster``
    the underlying hitting-set results in cluster order.  ``fallback``
    is the global search that re-ran when joint verification failed.
    """

    clusters: tuple[tuple[int, ...], ...]
    covers: tuple[tuple[Site, ...], ...]
    per_cluster: tuple[HittingSetResult, ...]
    optimality: str
    unexplained: frozenset[int]
    fallback: HittingSetResult | None = None

    @property
    def complete(self) -> bool:
        return bool(self.covers) and not self.unexplained

    @property
    def sweeps(self) -> tuple[CoverSweep, ...]:
        """Every minimum-cover sweep run: per cluster, then the fallback."""
        runs = self.per_cluster + ((self.fallback,) if self.fallback else ())
        return tuple(run.sweep for run in runs)


def pattern_features(analysis: PerTestAnalysis, pattern_index: int) -> frozenset[Site]:
    """The hyperedges (candidate sites) a failing pattern belongs to."""
    singles = analysis.exact_singletons.get(pattern_index, ())
    if singles:
        return frozenset(singles)
    cone = analysis.netlist.fanin_cone(
        analysis.datalog.failing_outputs_of(pattern_index)
    )
    return frozenset(s for s in analysis.sites if s.net in cone)


def test_distance(a: frozenset[Site], b: frozenset[Site]) -> float:
    """Jaccard distance between two patterns' feature sets (0 = identical
    candidate structure, 1 = no shared candidate site)."""
    union = a | b
    if not union:
        return 0.0
    return 1.0 - len(a & b) / len(union)


def cluster_failing_patterns(
    analysis: PerTestAnalysis,
    failing: Iterable[int] | None = None,
    link_threshold: float = 1.0,
) -> list[tuple[int, ...]]:
    """Single-linkage clusters of the failing patterns under test distance.

    Patterns with distance strictly below ``link_threshold`` are merged;
    clusters are returned sorted by their smallest pattern index, members
    ascending -- fully deterministic for a given analysis.
    """
    idxs = sorted(
        set(analysis.datalog.failing_indices) if failing is None else set(failing)
    )
    feats = {idx: pattern_features(analysis, idx) for idx in idxs}
    parent = {idx: idx for idx in idxs}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(idxs):
        for b in idxs[i + 1 :]:
            if find(a) != find(b) and test_distance(feats[a], feats[b]) < link_threshold:
                parent[find(b)] = find(a)

    groups: dict[int, list[int]] = {}
    for idx in idxs:
        groups.setdefault(find(idx), []).append(idx)
    return [tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: min(g))]


def _minimize_joined(
    analysis: PerTestAnalysis,
    sites: tuple[Site, ...],
    failing: set[int],
    budget: Budget | None,
) -> tuple[Site, ...]:
    """Drop join redundancy (a site serving two clusters) while the joined
    multiplet still explains every failing pattern."""
    result = list(sites)
    for site in list(sites):
        if len(result) <= 1:
            break
        trial = [s for s in result if s != site]
        if budget is not None:
            budget.charge()
        if failing <= analysis.explained_patterns(trial):
            result = trial
    return tuple(result)


def cluster_cover(
    analysis: PerTestAnalysis,
    seed_sites: tuple[Site, ...] = (),
    max_size: int = 6,
    link_threshold: float = 1.0,
    max_covers: int = 10,
    budget: Budget | None = None,
) -> ClusterDiagResult:
    """Clustered covering: per-group hitting sets + joint verification.

    ``max_size`` caps every multiplet (per-cluster and joined alike);
    ``max_covers`` caps how many verified joined alternatives are
    reported.  A :class:`Budget` flows into every per-cluster search and
    is charged for each joint verification.
    """
    failing = set(analysis.datalog.failing_indices)
    if not failing:
        return ClusterDiagResult((), (), (), OPTIMALITY_OPTIMAL, frozenset())

    clusters = cluster_failing_patterns(analysis, link_threshold=link_threshold)
    per: list[HittingSetResult] = []
    for cluster in clusters:
        per.append(
            hitting_set_cover(
                analysis,
                failing=cluster,
                seed_sites=seed_sites,
                max_size=max_size,
                budget=budget,
            )
        )

    if len(clusters) == 1:
        only = per[0]
        unexplained = frozenset()
        if only.covers:
            unexplained = frozenset(
                failing - analysis.explained_patterns(only.covers[0])
            )
        return ClusterDiagResult(
            clusters=tuple(clusters),
            covers=only.covers,
            per_cluster=tuple(per),
            optimality=only.optimality,
            unexplained=unexplained if only.covers else frozenset(failing),
        )

    def join(choice: tuple[int, ...]) -> tuple[Site, ...] | None:
        """Union of the chosen per-cluster covers, size-capped and
        join-minimized; ``None`` when oversize or joint verification
        fails."""
        sites: list[Site] = []
        for ci, alt in enumerate(choice):
            for site in per[ci].covers[alt]:
                if site not in sites:
                    sites.append(site)
        if len(sites) > max_size:
            return None
        if budget is not None:
            budget.charge()
        if not failing <= analysis.explained_patterns(sites):
            return None
        return _minimize_joined(analysis, tuple(sites), failing, budget)

    covers: list[tuple[Site, ...]] = []
    budget_cut = any(r.optimality == OPTIMALITY_BUDGET for r in per)
    if all(r.covers for r in per):
        primary = join(tuple(0 for _ in per))
        if primary is not None:
            covers.append(primary)
            # Alternatives: vary one cluster's cover at a time (the
            # resolution statistic without a cross-product explosion).
            for ci in range(len(per)):
                for alt in range(1, len(per[ci].covers)):
                    if len(covers) >= max_covers:
                        break
                    if budget is not None and budget.exceeded():
                        break
                    choice = tuple(alt if i == ci else 0 for i in range(len(per)))
                    joined = join(choice)
                    if joined is not None and joined not in covers:
                        covers.append(joined)

    if not covers:
        # Decomposition failed (an unsolved cluster, oversize join, or a
        # cross-cluster interaction the clustering missed): one global
        # search seeded with everything the clusters learned.
        seeds = tuple(
            dict.fromkeys(
                list(seed_sites)
                + [s for r in per for cover in r.covers for s in cover]
            )
        )
        fallback = hitting_set_cover(
            analysis, seed_sites=seeds, max_size=max_size, budget=budget
        )
        unexplained = frozenset(failing)
        if fallback.covers:
            unexplained = frozenset(
                failing - analysis.explained_patterns(fallback.covers[0])
            )
        return ClusterDiagResult(
            clusters=tuple(clusters),
            covers=fallback.covers,
            per_cluster=tuple(per),
            optimality=fallback.optimality,
            unexplained=unexplained,
            fallback=fallback,
        )

    return ClusterDiagResult(
        clusters=tuple(clusters),
        covers=tuple(covers),
        per_cluster=tuple(per),
        optimality=OPTIMALITY_BUDGET if budget_cut else OPTIMALITY_BOUNDED,
        unexplained=frozenset(),
    )
