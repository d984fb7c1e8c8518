"""Bit-packed value vectors wider than one machine word.

Both backends carry one bit per pattern in a Python int, so a pattern set
of more than 64 patterns gives vectors that span several 64-bit words.
The full diagnosis flow must produce the same report under either backend
at such widths.
"""

from __future__ import annotations

from repro.circuit.generators import ripple_carry_adder
from repro.circuit.netlist import Site
from repro.sim.patterns import PatternSet
from tests.test_compile import _both_backends, _deep_ordered


class TestDifferentialFuzz:
    def test_report_byte_identity_multiword(self, monkeypatch):
        from repro.core.diagnose import Diagnoser
        from repro.faults.models import StuckAtDefect
        from repro.tester.harness import apply_test

        netlist = ripple_carry_adder(5)
        pats = PatternSet.random(netlist, 100, seed=13)
        defects = [
            StuckAtDefect(Site("n10"), 0),
            StuckAtDefect(Site("n20"), 1),
        ]

        def run():
            result = apply_test(netlist, pats, defects)
            report = Diagnoser(netlist).diagnose(pats, result.datalog)
            payload = report.to_dict()
            payload["stats"] = {
                k: v
                for k, v in payload["stats"].items()
                if not k.startswith("seconds")
            }
            return payload, report.summary()

        (c_dict, c_summary), (i_dict, i_summary) = _both_backends(monkeypatch, run)
        assert _deep_ordered(c_dict) == _deep_ordered(i_dict)
        assert c_summary == i_summary
