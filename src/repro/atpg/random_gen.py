"""Random pattern generation with compaction and deterministic top-off.

The standard industrial recipe: flood the circuit with random patterns,
grade them by fault simulation, keep only patterns that contribute
coverage (greedy compaction), then aim PODEM at the random-resistant
remainder.  The resulting compact high-coverage sets drive every
reproduction experiment, mirroring the commercial-ATPG test sets used by
the original evaluation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro._rng import make_rng
from repro.atpg.podem import Podem
from repro.circuit.netlist import Netlist
from repro.faults.collapse import collapse_stuck_at
from repro.faults.models import Defect, StuckAtDefect
from repro.sim.faultsim import effective_pattern_order, fault_coverage
from repro.sim.patterns import PatternSet

#: Bound on the whole PODEM top-off, in gate evaluations.  Every decision
#: and every backtrack re-simulates the good and faulty machines over the
#: full netlist, so one step costs ``n_gates`` of them.  A count rather
#: than seconds: the same seed yields the same test set on any machine.
#: Only the random DAGs rnd300/rnd1000/rnd3000 reach it; the hungriest
#: other shipped circuit, cmp16, needs 1.9M.
PODEM_TOPOFF_GATE_EVALS = 2_500_000


@dataclass
class AtpgReport:
    """Summary of a test generation run (feeds Table 1)."""

    patterns: PatternSet
    coverage: float
    n_faults: int
    n_detected: int
    n_untestable: int
    n_aborted: int
    collapse_ratio: float
    podem_patterns: int = 0
    random_patterns: int = 0
    undetected: list[Defect] = field(default_factory=list)


def generate_stuck_at_tests(
    netlist: Netlist,
    seed: int | random.Random | None = None,
    random_batch: int = 64,
    max_random_batches: int = 8,
    max_backtracks: int = 64,
    compact: bool = True,
) -> AtpgReport:
    """Generate a compacted stuck-at test set for ``netlist``.

    Random batches are added while they still improve coverage, then every
    remaining collapsed fault gets a PODEM attempt.  With ``compact`` the
    random phase is reduced to the greedy marginal-coverage prefix.

    ``max_backtracks`` is deliberately modest: random-resistant faults in
    heavily redundant logic (random DAGs especially) are usually
    *untestable*, and proving that is exponential; an abort only costs a
    little reported coverage.  :data:`PODEM_TOPOFF_GATE_EVALS` bounds the
    whole top-off phase; leftover faults are counted as aborted.
    """
    rng = make_rng(seed)
    collapsed = collapse_stuck_at(netlist)
    targets: list[Defect] = list(collapsed.representatives)

    pool = PatternSet.random(netlist, random_batch, rng)
    best_cov = fault_coverage(netlist, pool, targets).coverage
    for _ in range(max_random_batches - 1):
        if best_cov >= 1.0:
            break
        extra = PatternSet.random(netlist, random_batch, rng)
        candidate = pool.concat(extra)
        cov = fault_coverage(netlist, candidate, targets).coverage
        if cov <= best_cov:
            break
        pool, best_cov = candidate, cov

    if compact:
        order = effective_pattern_order(netlist, pool, targets)
        pool = pool.subset(order)
    pool = pool.dedup()
    random_count = pool.n

    grading = fault_coverage(netlist, pool, targets)
    engine = Podem(netlist, max_backtracks=max_backtracks, seed=rng.getrandbits(32))
    podem_vectors = []
    n_untestable = 0
    n_aborted = 0
    still_undetected: list[Defect] = []
    steps_left = PODEM_TOPOFF_GATE_EVALS // max(netlist.n_gates, 1)
    for fault in grading.undetected:
        assert isinstance(fault, StuckAtDefect)
        if steps_left <= 0:
            n_aborted += 1
            still_undetected.append(fault)
            continue
        result = engine.generate(fault)
        steps_left -= result.decisions + result.backtracks
        if result.success:
            podem_vectors.append(result.pattern)
        elif result.status == "untestable":
            n_untestable += 1
        else:
            n_aborted += 1
            still_undetected.append(fault)

    if podem_vectors:
        extra = PatternSet.from_vectors(netlist.inputs, podem_vectors)
        pool = pool.concat(extra).dedup()

    final = fault_coverage(netlist, pool, targets)
    testable = len(targets) - n_untestable
    coverage = len(final.detected) / testable if testable else 1.0
    return AtpgReport(
        patterns=pool,
        coverage=coverage,
        n_faults=len(targets),
        n_detected=len(final.detected),
        n_untestable=n_untestable,
        n_aborted=n_aborted,
        collapse_ratio=collapsed.collapse_ratio,
        podem_patterns=pool.n - random_count if pool.n > random_count else 0,
        random_patterns=random_count,
        undetected=still_undetected,
    )
