"""The minimum-cover enumeration's prefilters and interned memo.

``enumerate_pertest_min_covers`` refutes a combination with two cheap
necessary conditions -- structural output reach and the joint X envelope
-- before the exact flip/pin check, and runs that check on an interned
assignment memo.  Neither may change what the enumeration returns:

- *soundness*: whenever a multiplet explains a failing pattern exactly,
  both prefilters admit that pattern (so they admit every complete cover);
- *reference*: the enumeration returns the same list, in the same order,
  as the plain loop it replaced (frozenset-keyed assignment memo, no
  prefilters), including sweeps cut by the check cap or a budget.

Dies mix every defect family, byzantine and bridge included, at k = 2..5.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

import pytest

from repro.campaign.samplers import DEFAULT_MIX, sample_defect_set
from repro.circuit.library import load_circuit
from repro.core.backtrace import candidate_sites
from repro.core.budget import CAUSE_CHECKS, Budget
from repro.core.cover import enumerate_pertest_min_covers, greedy_pertest_cover
from repro.core.pertest import _match_vector, build_pertest
from repro.errors import FaultModelError, OscillationError
from repro.sim.patterns import PatternSet
from repro.tester.harness import apply_test

MIX = replace(DEFAULT_MIX, byzantine=0.2)
CIRCUITS = ("rca8", "alu8", "mul8")


@pytest.fixture(scope="module")
def circuits():
    out = {}
    for name in CIRCUITS:
        netlist = load_circuit(name)
        out[name] = (netlist, PatternSet.random(netlist, 32, seed=7))
    return out


def _die(circuits, name: str, k: int, seed: int):
    """A failing die's analysis plus the enumeration's seeds and depth, as
    the default diagnosis configuration would run it."""
    netlist, patterns = circuits[name]
    for attempt in range(50):
        defects = sample_defect_set(netlist, k, seed=1000 * seed + attempt, mix=MIX)
        try:
            result = apply_test(netlist, patterns, defects)
        except (OscillationError, FaultModelError):
            continue
        if result.device_fails:
            break
    else:
        pytest.fail(f"no failing die for {name} k={k} seed={seed}")
    datalog = result.datalog
    analysis = build_pertest(
        netlist, patterns, datalog, candidate_sites(netlist, datalog)
    )
    greedy = greedy_pertest_cover(analysis)
    seeds = greedy.sites + greedy.pair_candidates
    depth = min(max(3, len(greedy.sites)), 6)
    return analysis, seeds, depth


def _pool(analysis, seed_sites, max_candidates=18):
    """The enumeration pool, built as the enumeration builds it."""
    pool = list(seed_sites[: max(1, max_candidates // 3)])
    singleton_sites = {}
    for sites in analysis.exact_singletons.values():
        for site in sites:
            singleton_sites[site] = singleton_sites.get(site, 0) + 1
    for site in sorted(singleton_sites, key=lambda s: (-singleton_sites[s], str(s))):
        if site not in pool:
            pool.append(site)
    for site in seed_sites:
        if site not in pool:
            pool.append(site)
    if len(pool) < max_candidates:
        by_partial = sorted(
            (s for s in analysis.sites if s not in pool),
            key=lambda s: (-len(analysis.atoms_of(s)), str(s)),
        )
        pool.extend(by_partial[: max_candidates - len(pool)])
    return pool[:max_candidates]


class ReferenceVerifier:
    """The exact check as it stood before interning: a frozenset-keyed
    assignment memo over the simulation context's resimulations."""

    def __init__(self, analysis):
        self.analysis = analysis
        self.cache = {}

    def assignment_diff(self, flips, pins):
        a = self.analysis
        flip_key = frozenset(flips)
        pin_key = frozenset(pins) - flip_key
        if pin_key and flip_key:
            affected = a.netlist.fanout_cone(site.net for site in flip_key)
            pin_key = frozenset(s for s in pin_key if s.net in affected)
        key = (flip_key, pin_key)
        if key not in self.cache:
            mask = a.work_mask
            base = a._ctx.base
            overrides = {s: (base[s.net] ^ mask) & mask for s in flip_key}
            for site in pin_key:
                overrides[site] = base[site.net]
            self.cache[key] = a._ctx.resim_diff(overrides)
        return self.cache[key]

    def explained_patterns(self, multiplet):
        a = self.analysis
        sites = list(dict.fromkeys(multiplet))
        work_mask = a.work_mask
        remaining = work_mask
        explained = set()
        failing = a.datalog.failing_indices
        for size in range(1, len(sites) + 1):
            if not remaining:
                break
            for flips in combinations(sites, size):
                if not remaining:
                    break
                diff = self.assignment_diff(flips, sites)
                hits = _match_vector(diff, a._obs_vec, a._x_vec, work_mask) & remaining
                remaining &= ~hits
                while hits:
                    low = hits & -hits
                    explained.add(failing[low.bit_length() - 1])
                    hits ^= low
        return explained


def reference_enumeration(
    analysis, seed_sites, max_size, max_checks=4000, budget=None
):
    """The enumeration loop as it stood before the prefilters; returns the
    covers and the number of combinations it examined."""
    verifier = ReferenceVerifier(analysis)
    failing = set(analysis.datalog.failing_indices)
    pool = _pool(analysis, seed_sites)
    checks = examined = 0
    for size in range(1, max_size + 1):
        solutions = []
        for combo in combinations(pool, size):
            checks += 1
            if checks > max_checks:
                if budget is not None:
                    budget.record("cover", CAUSE_CHECKS, max_checks, max_checks)
                return solutions, examined
            if budget is not None:
                if checks > 1 and budget.stop("cover", checks - 1, max_checks):
                    return solutions, examined
                if budget.multiplets_exhausted(len(solutions)):
                    budget.record(
                        "cover",
                        "multiplets",
                        len(solutions),
                        budget.max_multiplets or 0,
                    )
                    return solutions, examined
                budget.charge()
            examined += 1
            if verifier.explained_patterns(combo) == failing:
                solutions.append(tuple(combo))
        if solutions:
            return solutions, examined
    return [], examined


#: 32 dies on the two cover-heavy circuits (mul8 joins the budgeted runs).
REFERENCE_DIES = [
    (name, k, seed)
    for name in ("rca8", "alu8")
    for k in (2, 3, 4, 5)
    for seed in (1, 2, 3, 4)
]


class TestReferenceEnumeration:
    @pytest.mark.parametrize("name,k,seed", REFERENCE_DIES)
    def test_identical_to_reference_loop(self, circuits, name, k, seed):
        analysis, seeds, depth = _die(circuits, name, k, seed)
        expected, examined = reference_enumeration(analysis, seeds, depth)
        stats = {}
        got = enumerate_pertest_min_covers(
            analysis, seed_sites=seeds, max_size=depth, stats=stats
        )
        assert got == expected
        assert stats["n_cover_checks"] == examined
        assert stats["n_cover_checks"] == (
            stats["n_cover_envelope_rejections"] + stats["n_cover_verifications"]
        )

    def test_sweep_covers_the_check_cap(self, circuits):
        """Some reference die exhausts the 4,000-check cap: the comparison
        above exercises cut sweeps, not only completed ones."""
        for name, k, seed in REFERENCE_DIES:
            analysis, seeds, depth = _die(circuits, name, k, seed)
            stats = {}
            enumerate_pertest_min_covers(
                analysis, seed_sites=seeds, max_size=depth, stats=stats
            )
            if stats["n_cover_checks"] == 4000:
                return
        pytest.fail("no reference die reaches the check cap")

    @pytest.mark.parametrize(
        "limits",
        [
            {"max_expansions": 1},
            {"max_expansions": 150},
            {"max_expansions": 900},
            {"max_multiplets": 1},
            {"max_multiplets": 2},
        ],
        ids=lambda limits: "-".join(f"{k}={v}" for k, v in limits.items()),
    )
    @pytest.mark.parametrize(
        "name,k,seed", [("rca8", 4, 1), ("alu8", 3, 2), ("mul8", 2, 3)]
    )
    def test_budgeted_identical_to_reference_loop(
        self, circuits, name, k, seed, limits
    ):
        analysis, seeds, depth = _die(circuits, name, k, seed)
        ref_budget = Budget(**limits)
        expected, examined = reference_enumeration(
            analysis, seeds, depth, budget=ref_budget
        )
        budget = Budget(**limits)
        stats = {}
        got = enumerate_pertest_min_covers(
            analysis, seed_sites=seeds, max_size=depth, budget=budget, stats=stats
        )
        assert got == expected
        assert budget.truncations == ref_budget.truncations
        assert budget.expansions == ref_budget.expansions
        assert stats["n_cover_checks"] == examined

    def test_small_check_cap_identical(self, circuits):
        analysis, seeds, depth = _die(circuits, "alu8", 4, 1)
        for cap in (1, 17, 200):
            expected, _ = reference_enumeration(analysis, seeds, depth, max_checks=cap)
            got = enumerate_pertest_min_covers(
                analysis, seed_sites=seeds, max_size=depth, max_checks=cap
            )
            assert got == expected


class TestPrefilterSoundness:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("name", CIRCUITS)
    def test_prefilters_admit_every_explanation(self, circuits, name, k):
        """For every enumerated combination and every failing pattern it
        explains exactly, the pattern's non-X failing strobes lie inside
        both the structural reach and the joint X envelope -- so neither
        prefilter can reject a complete cover."""
        analysis, seeds, depth = _die(circuits, name, k, seed=k)
        work_mask = analysis.work_mask
        outputs = analysis.netlist.outputs
        pool = _pool(analysis, seeds)
        failing_strobes = {
            out: obs & ~analysis._x_vec.get(out, 0)
            for out, obs in analysis._obs_vec.items()
        }
        explained_any = checks = 0
        for size in range(2, depth + 1):
            for combo in combinations(pool, size):
                checks += 1
                if checks > 4000:
                    break
                explained = analysis.explained_mask(combo)
                if not explained:
                    continue
                explained_any += 1
                reach = analysis._ctx.joint_x_reach(combo)
                reached = 0
                for site in combo:
                    reached |= analysis.output_reach(site)
                for pos, out in enumerate(outputs):
                    strobes = failing_strobes.get(out, 0) & explained
                    assert not strobes & ~reach.get(out, 0), (combo, out)
                    assert not strobes or reached >> pos & 1, (combo, out)
                if explained == work_mask:
                    assert analysis.x_envelope_admits(combo), combo
                    assert not analysis.failing_outputs() & ~reached, combo
        assert explained_any
