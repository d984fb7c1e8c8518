"""Random+compaction ATPG flow and transition test generation."""

import itertools
import time

import pytest

from repro.atpg.random_gen import generate_stuck_at_tests
from repro.atpg.transition import generate_transition_tests
from repro.circuit.generators import c17, parity_tree, ripple_carry_adder
from repro.circuit.netlist import Site
from repro.faults.collapse import collapse_stuck_at
from repro.faults.models import TransitionDefect, TransitionKind
from repro.sim.faultsim import detect_vector, fault_coverage


@pytest.mark.parametrize("make", [c17, lambda: ripple_carry_adder(4), lambda: parity_tree(8)])
def test_full_coverage_on_small_circuits(make):
    netlist = make()
    report = generate_stuck_at_tests(netlist, seed=3)
    assert report.coverage == 1.0
    assert report.n_aborted == 0
    # Re-grade independently.
    targets = collapse_stuck_at(netlist).representatives
    final = fault_coverage(netlist, report.patterns, targets)
    assert len(final.undetected) == report.n_untestable


def test_compaction_keeps_coverage():
    netlist = ripple_carry_adder(6)
    compact = generate_stuck_at_tests(netlist, seed=5, compact=True)
    loose = generate_stuck_at_tests(netlist, seed=5, compact=False)
    assert compact.coverage == pytest.approx(loose.coverage)
    assert compact.patterns.n <= loose.patterns.n


def test_deterministic_for_seed():
    a = generate_stuck_at_tests(c17(), seed=9)
    b = generate_stuck_at_tests(c17(), seed=9)
    assert a.patterns == b.patterns


def test_topoff_independent_of_wall_clock(monkeypatch):
    """The test set depends on the seed alone, never on machine speed."""
    netlist = ripple_carry_adder(8)

    def run():
        # One tiny random batch leaves most faults to the PODEM top-off.
        report = generate_stuck_at_tests(
            netlist, seed=2, random_batch=2, max_random_batches=1
        )
        return report.patterns, report.n_aborted, report.n_untestable

    real = run()
    assert real[0].n > 2  # the top-off contributed patterns
    clock = itertools.count(step=1000.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    assert run() == real


def test_report_accounting():
    report = generate_stuck_at_tests(c17(), seed=1)
    assert report.n_faults == len(collapse_stuck_at(c17()).representatives)
    assert report.n_detected + report.n_untestable + report.n_aborted >= report.n_detected
    assert 0 < report.collapse_ratio <= 1.0


class TestTransitionAtpg:
    def test_pairs_detect_their_targets(self):
        netlist = c17()
        sites = [Site(net) for net in list(netlist.nets())[:6]]
        report = generate_transition_tests(netlist, sites, seed=4)
        assert report.patterns.n % 2 == 0
        assert report.coverage > 0.5
        # Every covered target must actually be detected by the pattern set
        # under the consecutive-pair delay semantics.
        detected = 0
        for site in sites:
            for kind in TransitionKind:
                vec = detect_vector(netlist, report.patterns, TransitionDefect(site, kind))
                detected += bool(vec)
        assert detected >= report.n_covered

    def test_default_sites_all_stems(self):
        netlist = c17()
        report = generate_transition_tests(netlist, seed=4)
        assert report.n_targets == 2 * netlist.n_nets
