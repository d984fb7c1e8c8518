"""Implicit-hitting-set engine tests: differential optimality vs the
reference enumeration and vs the conflict-learning engine it replaced,
optimality statuses, and anytime behavior."""

from itertools import combinations

import pytest

from repro.campaign.samplers import sample_defect_set
from repro.circuit.builder import NetlistBuilder
from repro.circuit.generators import ripple_carry_adder
from repro.circuit.library import load_circuit
from repro.circuit.netlist import Site
from repro.core.backtrace import candidate_sites
from repro.core.budget import (
    OPTIMALITY_BOUNDED,
    OPTIMALITY_BUDGET,
    OPTIMALITY_OPTIMAL,
    Budget,
)
from repro.core.clusterdiag import cluster_failing_patterns
from repro.core.cover import enumerate_pertest_min_covers, greedy_pertest_cover
from repro.core.hitting import conflict_pool, hitting_set_cover
from repro.core.pertest import build_pertest
from repro.faults.models import StuckAtDefect
from repro.sim.logicsim import simulate
from repro.sim.patterns import PatternSet
from repro.tester.harness import apply_test


def _analysis(netlist, patterns, defects):
    result = apply_test(netlist, patterns, defects)
    assert result.device_fails
    base = simulate(netlist, patterns)
    sites = candidate_sites(netlist, result.datalog)
    return build_pertest(netlist, patterns, result.datalog, sites, base)


def _engine_inputs(analysis):
    greedy = greedy_pertest_cover(analysis)
    return greedy, dict(
        seed_sites=greedy.sites + greedy.pair_candidates,
        incumbent=greedy.sites if greedy.complete else None,
    )


@pytest.fixture(scope="module")
def rca6():
    return ripple_carry_adder(6)


@pytest.fixture(scope="module")
def pats(rca6):
    return PatternSet.random(rca6, 32, seed=31)


# The seeded small-instance corpus of the differential acceptance check.
DEFECT_SETS = [
    [StuckAtDefect(Site("b1"), 1)],
    [StuckAtDefect(Site("a3"), 0)],
    [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)],
    [StuckAtDefect(Site("a1"), 0), StuckAtDefect(Site("b4"), 1)],
    [
        StuckAtDefect(Site("a0"), 1),
        StuckAtDefect(Site("b2"), 0),
        StuckAtDefect(Site("b5"), 1),
    ],
]


class TestDifferential:
    @pytest.mark.parametrize("case", range(len(DEFECT_SETS)))
    def test_cardinality_matches_reference(self, rca6, pats, case):
        """Acceptance: the hitting-set minimum equals the reference
        enumeration's minimum on every seeded small instance."""
        pt = _analysis(rca6, pats, DEFECT_SETS[case])
        greedy, kwargs = _engine_inputs(pt)
        depth = min(max(3, len(greedy.sites)), 6)
        reference = enumerate_pertest_min_covers(
            pt, seed_sites=kwargs["seed_sites"], max_size=depth
        )
        result = hitting_set_cover(pt, max_size=depth, **kwargs)
        assert reference, "reference enumeration must solve the corpus"
        assert result.covers
        assert result.cardinality == min(len(c) for c in reference)
        assert result.optimality == OPTIMALITY_OPTIMAL
        for cover in result.covers:
            assert pt.explains_all(cover)

    def test_reference_covers_are_found(self, rca6, pats):
        """The reference pool is a subset of the engine pool, so a complete
        engine sweep reports every reference cover among its ties."""
        pt = _analysis(rca6, pats, DEFECT_SETS[2])
        greedy, kwargs = _engine_inputs(pt)
        reference = enumerate_pertest_min_covers(
            pt, seed_sites=kwargs["seed_sites"], max_size=3
        )
        result = hitting_set_cover(pt, max_size=3, **kwargs)
        if result.sweep.stopped is None:  # sweep completed, ties exhaustive
            found = {frozenset(c) for c in result.covers}
            assert {frozenset(c) for c in reference} <= found

    def test_rca8_two_defects(self):
        n = ripple_carry_adder(8)
        pats8 = PatternSet.random(n, 32, seed=31)
        pt = _analysis(
            n, pats8, [StuckAtDefect(Site("a0"), 1), StuckAtDefect(Site("b5"), 0)]
        )
        greedy, kwargs = _engine_inputs(pt)
        reference = enumerate_pertest_min_covers(
            pt, seed_sites=kwargs["seed_sites"], max_size=3
        )
        result = hitting_set_cover(pt, max_size=3, **kwargs)
        assert result.cardinality == min(len(c) for c in reference)
        assert result.optimality == OPTIMALITY_OPTIMAL


def reference_hitting_set_cover(
    analysis,
    failing=None,
    seed_sites=(),
    incumbent=None,
    max_size=6,
    pool_cap=384,
    max_verifications=20_000,
    max_combos=500_000,
):
    """The conflict-learning engine the shared sweep replaced (unbudgeted).

    Per-pattern conflicts (the pool sites in the fan-in cone of a
    pattern's failing outputs) are activated by refutations and prune
    later candidates by bitmask.  Returns ``(covers, optimality,
    cardinality, verifications)``.
    """
    failing_set = (
        set(analysis.datalog.failing_indices) if failing is None else set(failing)
    )
    if not failing_set:
        return (), OPTIMALITY_OPTIMAL, 0, 0
    pool = conflict_pool(analysis, failing_set, seed_sites)
    bounded_pool = len(pool) > pool_cap
    pool = pool[:pool_cap]
    pattern_mask = {}
    for idx in sorted(failing_set):
        cone = analysis.netlist.fanin_cone(analysis.datalog.failing_outputs_of(idx))
        pattern_mask[idx] = sum(1 << i for i, s in enumerate(pool) if s.net in cone)
    if not all(pattern_mask.values()):
        return (), OPTIMALITY_BOUNDED, 0, 0
    upper = max_size
    if incumbent:
        upper = min(upper, len(tuple(dict.fromkeys(incumbent))))
    conflict_masks = []
    verifications = combos_seen = 0

    def result(covers, size):
        status = OPTIMALITY_BOUNDED
        if covers and not bounded_pool:
            status = OPTIMALITY_OPTIMAL
        return tuple(covers), status, size if covers else 0, verifications

    for size in range(1, upper + 1):
        covers = []
        for combo in combinations(range(len(pool)), size):
            combos_seen += 1
            if combos_seen > max_combos:
                return result(covers, size)
            mask = sum(1 << i for i in combo)
            if any(not mask & c for c in conflict_masks):
                continue
            if verifications >= max_verifications:
                return result(covers, size)
            candidate = tuple(pool[i] for i in combo)
            missing = failing_set - analysis.explained_patterns(candidate)
            verifications += 1
            if not missing:
                covers.append(candidate)
                continue
            for idx in sorted(missing):
                if pattern_mask[idx] not in conflict_masks:
                    conflict_masks.append(pattern_mask[idx])
        if covers:
            return result(covers, size)
    return result([], 0)


def _seeded_die(netlist, patterns, k, seed):
    for attempt in range(50):
        defects = sample_defect_set(netlist, k, seed=100 * seed + attempt)
        result = apply_test(netlist, patterns, defects)
        if result.device_fails:
            return result.datalog
    pytest.fail(f"no failing die for {netlist.name} k={k} seed={seed}")


#: Seeded dies at k = 1..3.  The slow ones are those where the reference
#: spends its whole 20,000-verification cap (several seconds each).
REFERENCE_DIES = [
    ("rca8", 1, 1),
    ("rca8", 2, 1),
    ("rca8", 3, 3),
    ("alu8", 1, 1),
    ("alu8", 2, 1),
    ("alu8", 3, 2),
    pytest.param("rca8", 3, 1, marks=pytest.mark.slow),
    pytest.param("alu8", 3, 1, marks=pytest.mark.slow),
]


class TestConflictLearningReference:
    @pytest.mark.parametrize("circuit,k,seed", REFERENCE_DIES)
    def test_identical_to_conflict_learning(self, circuit, k, seed):
        """Over the die's whole failing set, each single failing pattern
        and each failure cluster, the shared sweep returns the reference
        engine's covers in its order, with its cardinality and
        optimality.  Where the reference stopped at its verification cap
        mid-tie-collection (the sweep verifies far fewer candidates), its
        covers are a prefix of the sweep's."""
        netlist = load_circuit(circuit)
        patterns = PatternSet.random(netlist, 32, seed=7)
        datalog = _seeded_die(netlist, patterns, k, seed)
        pt = build_pertest(
            netlist, patterns, datalog, candidate_sites(netlist, datalog)
        )
        greedy, kwargs = _engine_inputs(pt)
        cases = [(None, kwargs)]
        cases += [([idx], {}) for idx in datalog.failing_indices]
        cases += [
            (cluster, {"seed_sites": kwargs["seed_sites"]})
            for cluster in cluster_failing_patterns(pt)
        ]
        for failing, extra in cases:
            covers, optimality, cardinality, verified = reference_hitting_set_cover(
                pt, failing, **extra
            )
            got = hitting_set_cover(pt, failing, **extra)
            assert (got.optimality, got.cardinality) == (optimality, cardinality)
            if verified < 20_000:
                assert got.covers == covers, failing
            else:
                assert got.covers[: len(covers)] == covers, failing


def two_islands():
    """Two disjoint subcircuits, one defect each: the failing patterns
    touch disjoint fan-in cones, so no singleton can explain both and the
    true minimum cover is provably 2 (with several equivalent ties per
    island)."""
    b = NetlistBuilder("islands")
    p, q, r, s = b.inputs("p", "q", "r", "s")
    b.output(b.and_(b.buf(p, name="x1"), b.buf(q, name="y1"), name="z1"))
    b.output(b.and_(b.buf(r, name="x2"), b.buf(s, name="y2"), name="z2"))
    n = b.build()
    pats = PatternSet.from_vectors(
        n.inputs,
        [(1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 0, 1), (0, 1, 1, 1), (0, 0, 0, 0)],
    )
    defects = [StuckAtDefect(Site("x1"), 0), StuckAtDefect(Site("x2"), 0)]
    result = apply_test(n, pats, defects)
    sites = candidate_sites(n, result.datalog)
    return build_pertest(n, pats, result.datalog, sites, simulate(n, pats))


class TestTwoIslands:
    def test_pair_minimum_proved(self):
        pt = two_islands()
        result = hitting_set_cover(pt, max_size=4)
        assert result.cardinality == 2
        assert result.optimality == OPTIMALITY_OPTIMAL
        for cover in result.covers:
            assert pt.explains_all(cover)

    def test_ties_collected(self):
        """Each island has equivalent explainers (buffer chains), so the
        minimum cardinality is shared by several covers."""
        pt = two_islands()
        result = hitting_set_cover(pt, max_size=4)
        assert len(result.covers) > 1
        assert {len(c) for c in result.covers} == {2}

    def test_size_one_refutations_precede_the_pairs(self):
        pt = two_islands()
        result = hitting_set_cover(pt, max_size=4)
        sweep = result.sweep
        # Every size-1 candidate was verified and refuted before the
        # winning size, and pairs inside one island miss the other
        # island's failing output, so the prefilter rejects some.
        assert sweep.verifications >= result.pool_size + len(result.covers)
        assert sweep.rejections >= 1


class TestStatuses:
    def test_empty_failing_is_optimal(self, rca6, pats):
        result = apply_test(rca6, pats, [])
        pt = build_pertest(rca6, pats, result.datalog, [], simulate(rca6, pats))
        hs = hitting_set_cover(pt)
        assert hs.optimality == OPTIMALITY_OPTIMAL
        assert hs.covers == ()
        assert hs.cardinality == 0

    def test_size_cap_returns_bounded(self):
        pt = two_islands()  # provably needs two sites
        hs = hitting_set_cover(pt, max_size=1)
        assert hs.covers == ()
        assert hs.optimality == OPTIMALITY_BOUNDED

    def test_budget_exhaustion_returns_budget(self):
        pt = two_islands()
        budget = Budget(max_expansions=1)
        hs = hitting_set_cover(pt, budget=budget)
        assert hs.optimality == OPTIMALITY_BUDGET
        assert hs.covers == ()
        assert any(t.stage == "cover" for t in budget.truncations)
        assert budget.expansions == hs.verifications

    def test_multiplet_ceiling_truncates_ties_not_cardinality(self):
        pt = two_islands()
        unbounded = hitting_set_cover(pt)
        assert len(unbounded.covers) > 1
        budget = Budget(max_multiplets=1)
        hs = hitting_set_cover(pt, budget=budget)
        assert len(hs.covers) == 1
        assert hs.cardinality == unbounded.cardinality
        assert hs.optimality == OPTIMALITY_OPTIMAL
        assert any(t.cause == "multiplets" for t in budget.truncations)

    def test_pool_cap_returns_bounded(self, rca6, pats):
        pt = _analysis(rca6, pats, DEFECT_SETS[2])
        hs = hitting_set_cover(pt, pool_cap=4)
        assert hs.optimality in (OPTIMALITY_BOUNDED,)
        assert hs.pool_size == 4

    def test_verification_cap_records_truncation(self, rca6, pats):
        pt = _analysis(rca6, pats, DEFECT_SETS[2])
        budget = Budget(max_expansions=10**9)
        hs = hitting_set_cover(pt, max_simulations=1, budget=budget)
        assert hs.verifications <= 1
        assert any(t.cause == "checks" for t in budget.truncations)

    def test_budget_charges_every_combination_examined(self):
        """One budget rule: a combination costs one expansion whether the
        prefilters reject it or the exact check verifies it."""
        pt = two_islands()
        budget = Budget(max_expansions=10**9)
        hs = hitting_set_cover(pt, budget=budget)
        assert hs.sweep.rejections and hs.sweep.verifications
        assert budget.expansions == hs.sweep.rejections + hs.sweep.verifications
        assert not budget.truncations


class TestDeterminism:
    def test_repeat_runs_identical(self, rca6, pats):
        pt = _analysis(rca6, pats, DEFECT_SETS[3])
        greedy, kwargs = _engine_inputs(pt)
        first = hitting_set_cover(pt, **kwargs)
        second = hitting_set_cover(pt, **kwargs)
        assert first == second

    def test_pool_is_deterministic(self, rca6, pats):
        pt = _analysis(rca6, pats, DEFECT_SETS[2])
        failing = list(pt.datalog.failing_indices)
        assert conflict_pool(pt, failing) == conflict_pool(pt, failing)
