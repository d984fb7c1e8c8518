"""Implicit-hitting-set exact cover engine over the per-test criterion.

The greedy/bounded search in :mod:`repro.core.cover` can silently miss the
true minimum cover.  This module upgrades the multiplet search to the
implicit-hitting-set (IHS) scheme of Ignatiev et al., *Model Based
Diagnosis of Multiple Observations with Implicit Hitting Sets*
(arXiv:1707.01972), specialized to the assumption-free per-test criterion:

- **Conflicts** are refuting site-sets.  For every output ``o`` with a
  non-X observed failure on a wanted pattern, the sites whose structural
  fanout reaches ``o`` form a *sound* conflict: any flip/pin assignment
  that reproduces that failure exactly must flip at least one site whose
  corruption reaches ``o``, so every cover hits it.  Soundness needs no
  monotonicity assumption -- it follows from ``_match_vector`` requiring
  the predicted flips to equal the observed ones.  The sweep's structural
  prefilter tests every such conflict on every combination up front, so
  none has to be learned from refutations, and a pool whose combined
  reach misses one holds no cover at all.
- **Candidates** are enumerated in increasing cardinality over a ranked
  site pool by :func:`repro.core.cover.sweep_min_covers`, the one
  minimum-cover sweep; a candidate that misses a conflict or the joint X
  envelope is pruned without paying a verification.
- **Verification** is exact: every flip/pin assignment of the candidate
  is tried against the wanted failing patterns.

Because the prefilters only ever exclude non-covers, the first cardinality
with a verified cover is the provable minimum over the pool, and *all*
tying covers of that cardinality are collected (the resolution statistic).
The engine is anytime under the sweep's budget rule.

The :class:`HittingSetResult` carries an ``optimality`` status describing
the *cardinality claim* (orthogonal to the completeness verdict):

- ``optimal`` -- covers were found and every smaller cardinality was fully
  refuted over an untruncated pool: the cardinality is provably minimum.
  Tie collection may still have been cut short (a ``cover`` truncation on
  the budget records that), but the cardinality stands.
- ``bounded`` -- a structural bound limited the search without a proof:
  the pool was capped, a check cap interrupted a sweep before any cover
  was found, or no cover exists within ``max_size`` sites of the pool.
- ``budget`` -- the :class:`Budget` (deadline, expansions, cancellation)
  stopped the search before any cover was verified at the current
  cardinality; the caller should fall back to its greedy incumbent.

Pool caveat (documented in ``docs/limitations.md``): the pool is the union
of the caller's seed sites and every candidate site inside some failing
pattern's fan-in cone.  Flipped sites of any explanation necessarily live
there, but a *pin-only* site (blocking a spurious flip on a never-failing
output) can lie outside it; ``optimal`` is therefore minimality over this
structural pool, the same candidate space the greedy engine and the
reference enumeration search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.circuit.netlist import Site
from repro.core.budget import (
    CAUSE_CHECKS,
    CAUSE_MULTIPLETS,
    OPTIMALITY_BOUNDED,
    OPTIMALITY_BUDGET,
    OPTIMALITY_OPTIMAL,
    Budget,
)
from repro.core.cover import CoverSweep, sweep_min_covers
from repro.core.pertest import PerTestAnalysis


@dataclass(frozen=True)
class HittingSetResult:
    """Outcome of one implicit-hitting-set search.

    ``covers`` holds every verified cover of the winning cardinality (all
    of them when the search completed, a prefix when truncated);
    ``sweep`` is the minimum-cover sweep that found them (its counts feed
    the report's ``n_cover_*`` stats), ``pool_size`` the candidate sites
    enumerated over.
    """

    covers: tuple[tuple[Site, ...], ...]
    optimality: str
    cardinality: int
    sweep: CoverSweep = CoverSweep()
    pool_size: int = 0

    @property
    def complete(self) -> bool:
        return bool(self.covers)

    @property
    def verifications(self) -> int:
        return self.sweep.verifications


def conflict_pool(
    analysis: PerTestAnalysis,
    failing: Iterable[int],
    seed_sites: Sequence[Site] = (),
) -> list[Site]:
    """The structural candidate pool for ``failing``: seeds first, then
    every analysis site inside some pattern's failing-output fan-in cone,
    ranked by exact-evidence weight (atoms on the failing subset) with a
    deterministic string tie-break."""
    failing_set = set(failing)
    cones = [
        analysis.netlist.fanin_cone(analysis.datalog.failing_outputs_of(idx))
        for idx in sorted(failing_set)
    ]

    def weight(site: Site) -> int:
        return sum(1 for idx, _out in analysis.atoms_of(site) if idx in failing_set)

    ranked = sorted(
        (s for s in analysis.sites if any(s.net in cone for cone in cones)),
        key=lambda s: (-weight(s), str(s)),
    )
    pool = [s for s in dict.fromkeys(seed_sites) if s in set(analysis.sites)]
    seen = set(pool)
    pool.extend(s for s in ranked if s not in seen)
    return pool


def hitting_set_cover(
    analysis: PerTestAnalysis,
    failing: Iterable[int] | None = None,
    seed_sites: Sequence[Site] = (),
    incumbent: Sequence[Site] | None = None,
    max_size: int = 6,
    pool_cap: int = 384,
    max_checks: int = 500_000,
    max_simulations: int = 20_000,
    budget: Budget | None = None,
) -> HittingSetResult:
    """All minimum-cardinality covers of ``failing`` by implicit hitting sets.

    ``incumbent`` (typically the greedy solution, when complete) upper
    bounds the cardinality sweep: the search never explores sizes beyond
    it, and at its size the incumbent itself is re-verified among the
    candidates.  ``max_checks`` caps the combinations examined and
    ``max_simulations`` those that reach a simulating check; a
    :class:`Budget` is charged one expansion per combination examined
    (see :func:`~repro.core.cover.sweep_min_covers`).
    """
    failing_set = (
        set(analysis.datalog.failing_indices) if failing is None else set(failing)
    )
    if not failing_set:
        return HittingSetResult((), OPTIMALITY_OPTIMAL, 0)

    pool = conflict_pool(analysis, failing_set, seed_sites)
    bounded_pool = len(pool) > pool_cap
    pool = pool[:pool_cap]
    wanted = analysis.work_bits(failing_set)
    reached = 0
    for site in pool:
        reached |= analysis.output_reach(site)
    if analysis.failing_outputs(wanted) & ~reached:
        # A needed output lies outside every pool site's reach: no cover
        # can exist over this candidate space.
        return HittingSetResult((), OPTIMALITY_BOUNDED, 0, pool_size=len(pool))

    upper = max_size
    if incumbent:
        upper = min(upper, len(tuple(dict.fromkeys(incumbent))))
    sweep = sweep_min_covers(
        analysis, pool, upper, wanted, max_checks, max_simulations, budget
    )
    if sweep.covers:
        status = OPTIMALITY_BOUNDED if bounded_pool else OPTIMALITY_OPTIMAL
    elif sweep.stopped in (None, CAUSE_CHECKS, CAUSE_MULTIPLETS):
        status = OPTIMALITY_BOUNDED
    else:
        status = OPTIMALITY_BUDGET
    return HittingSetResult(
        covers=sweep.covers,
        optimality=status,
        cardinality=len(sweep.covers[0]) if sweep.covers else 0,
        sweep=sweep,
        pool_size=len(pool),
    )
