"""Volume diagnosis: aggregating many dice into yield-learning signal.

One die's diagnosis is a localization; a *population* of failing dice is
a process statement.  This module aggregates diagnosis reports across a
lot:

- **mechanism Pareto** -- which fault models dominate the top-ranked
  candidates (the defect-type mix the fab should chase),
- **site heat** -- how often each net/cell is accused across dice; a net
  accused far above the uniform-background expectation indicates a
  *systematic* (design/layout-coupled) defect rather than random
  particles,
- **systematic screening** -- a simple binomial-surprise score per net,
  flagging candidates for layout review.

The aggregation consumes plain :class:`~repro.core.report.DiagnosisReport`
objects, so it works on archived JSON reports as well as live campaigns.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.report import DiagnosisReport


@dataclass
class VolumeAggregate:
    """Accumulated evidence over a population of diagnosed dice."""

    n_dice: int = 0
    mechanism_counts: Counter = field(default_factory=Counter)
    net_counts: Counter = field(default_factory=Counter)
    top_net_counts: Counter = field(default_factory=Counter)
    total_candidates: int = 0

    # -- accumulation ------------------------------------------------------

    def add(self, report: DiagnosisReport) -> None:
        """Fold one die's diagnosis into the aggregate."""
        if not report.candidates:
            return
        self.n_dice += 1
        top = report.candidates[0]
        self.mechanism_counts[top.best_kind] += 1
        self.top_net_counts[top.site.net] += 1
        seen_nets = {c.site.net for c in report.candidates}
        for net in seen_nets:
            self.net_counts[net] += 1
        self.total_candidates += len(report.candidates)

    def add_all(self, reports: Iterable[DiagnosisReport]) -> None:
        for report in reports:
            self.add(report)

    # -- queries -------------------------------------------------------------

    def mechanism_pareto(self) -> list[tuple[str, int]]:
        """(fault model, dice) sorted by frequency -- the process Pareto."""
        return self.mechanism_counts.most_common()

    def systematic_scores(self, n_sites: int) -> dict[str, float]:
        """Binomial surprise per net: -log10 P[X >= observed] under the
        null hypothesis that accusations spread uniformly over ``n_sites``
        locations.  Scores above ~2 (p < 0.01) deserve a layout review.
        """
        if self.n_dice == 0 or n_sites <= 0:
            return {}
        mean_accused = self.total_candidates / self.n_dice
        p_null = min(1.0, mean_accused / n_sites)
        scores: dict[str, float] = {}
        for net, observed in self.net_counts.items():
            tail = _binomial_tail(self.n_dice, observed, p_null)
            scores[net] = -math.log10(max(tail, 1e-300))
        return scores

    def systematic_suspects(
        self, n_sites: int, threshold: float | None = None
    ) -> list[tuple[str, float]]:
        """Nets whose accusation rate is statistically anomalous.

        The default threshold applies a Bonferroni-style correction for
        testing every net: ``log10(n_sites) + 1.5``, i.e. an expected
        false-flag count of ~0.03 per lot regardless of design size.
        """
        if threshold is None:
            threshold = math.log10(max(n_sites, 10)) + 1.5
        scores = self.systematic_scores(n_sites)
        flagged = [(net, s) for net, s in scores.items() if s >= threshold]
        flagged.sort(key=lambda kv: (-kv[1], kv[0]))
        return flagged

    def average_resolution(self) -> float:
        return self.total_candidates / self.n_dice if self.n_dice else 0.0


def _binomial_tail(n: int, k: int, p: float) -> float:
    """P[X >= k] for X ~ Binomial(n, p), computed exactly (n is small)."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    total = 0.0
    for i in range(k, n + 1):
        total += math.comb(n, i) * (p**i) * ((1 - p) ** (n - i))
    return min(1.0, total)


def aggregate_reports(
    reports: Sequence[DiagnosisReport],
) -> VolumeAggregate:
    """One-shot aggregation convenience."""
    agg = VolumeAggregate()
    agg.add_all(reports)
    return agg
