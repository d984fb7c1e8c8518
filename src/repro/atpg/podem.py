"""PODEM automatic test pattern generation for stuck-at faults.

A scalar good/faulty-machine implementation of Goel's PODEM: decisions are
made only on primary inputs, chosen by backtracing an objective (fault
activation first, then D-frontier propagation) through the netlist, with
chronological backtracking on conflicts and an X-path check for early
pruning.  Level-based controllability/observability stand in for SCOAP.

The same machinery exposes :func:`justify`, which finds an input assignment
driving one internal net to a required value -- used by launch-on-capture
transition test generation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._rng import make_rng
from repro.circuit.gates import GateKind
from repro.circuit.netlist import Netlist
from repro.errors import AtpgError
from repro.faults.models import StuckAtDefect

X = 2  # scalar three-valued "unknown"


def _eval_scalar(kind: GateKind, ins: list[int]) -> int:
    """Three-valued scalar gate evaluation (0, 1, X=2)."""
    if kind in (GateKind.AND, GateKind.NAND):
        if any(v == 0 for v in ins):
            out = 0
        elif all(v == 1 for v in ins):
            out = 1
        else:
            out = X
        return out if kind is GateKind.AND else _inv(out)
    if kind in (GateKind.OR, GateKind.NOR):
        if any(v == 1 for v in ins):
            out = 1
        elif all(v == 0 for v in ins):
            out = 0
        else:
            out = X
        return out if kind is GateKind.OR else _inv(out)
    if kind in (GateKind.XOR, GateKind.XNOR):
        if any(v == X for v in ins):
            return X
        out = 0
        for v in ins:
            out ^= v
        return out if kind is GateKind.XOR else _inv(out)
    if kind is GateKind.BUF:
        return ins[0]
    if kind is GateKind.NOT:
        return _inv(ins[0])
    if kind is GateKind.MUX:
        a, b, sel = ins
        if sel == 0:
            return a
        if sel == 1:
            return b
        return a if a == b and a != X else X
    if kind is GateKind.CONST0:
        return 0
    if kind is GateKind.CONST1:
        return 1
    raise AtpgError(f"cannot evaluate {kind} in PODEM")


def _inv(v: int) -> int:
    return v if v == X else v ^ 1


@dataclass
class PodemResult:
    """Outcome of one PODEM run."""

    pattern: dict[str, int] | None  #: full input assignment, or None
    status: str  #: "detected", "untestable" or "aborted"
    backtracks: int
    decisions: int  #: objective-driven input assignments made

    @property
    def success(self) -> bool:
        return self.pattern is not None


class Podem:
    """PODEM engine bound to one netlist.

    Parameters
    ----------
    netlist:
        Target circuit.
    max_backtracks:
        Abort threshold; an abort means "gave up", not "untestable".
    seed:
        Filler values for don't-care inputs of successful patterns.
    """

    def __init__(self, netlist: Netlist, max_backtracks: int = 512, seed: int = 0):
        self.netlist = netlist
        self.max_backtracks = max_backtracks
        self._rng = make_rng(seed)

    # -- public API -----------------------------------------------------------

    def generate(self, fault: StuckAtDefect) -> PodemResult:
        """Find a pattern detecting ``fault``, prove it untestable, or abort."""
        self.netlist.validate_site(fault.site)
        return self._search(fault)

    # -- machinery ---------------------------------------------------------------

    def _simulate(
        self, assignment: dict[str, int], fault: StuckAtDefect | None
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Good/faulty three-valued simulation under a partial PI assignment."""
        netlist = self.netlist
        good: dict[str, int] = {}
        faulty: dict[str, int] = {}
        site = fault.site if fault else None
        for net in netlist.inputs:
            v = assignment.get(net, X)
            good[net] = v
            faulty[net] = fault.value if (site and site.is_stem and site.net == net) else v
        for net in netlist.topo_order:
            gate = netlist.gates[net]
            g_ins = [good[src] for src in gate.inputs]
            f_ins = [
                fault.value
                if (site and site.branch == (net, pin))
                else faulty[src]
                for pin, src in enumerate(gate.inputs)
            ]
            good[net] = _eval_scalar(gate.kind, g_ins)
            out_f = _eval_scalar(gate.kind, f_ins)
            if site and site.is_stem and site.net == net:
                out_f = fault.value
            faulty[net] = out_f
        return good, faulty

    @staticmethod
    def _error(good: dict[str, int], faulty: dict[str, int], net: str) -> bool:
        return good[net] != X and faulty[net] != X and good[net] != faulty[net]

    def _detected(self, good: dict[str, int], faulty: dict[str, int]) -> bool:
        return any(self._error(good, faulty, out) for out in self.netlist.outputs)

    def _x_path_exists(self, good: dict[str, int], faulty: dict[str, int]) -> bool:
        """Can some error still reach an output through X nets?

        Pure pruning heuristic: when no *net* yet carries an error (e.g. a
        just-activated branch fault, whose error lives at a pin), pruning
        does not apply and the search must continue.
        """
        if not any(self._error(good, faulty, net) for net in self.netlist.nets()):
            return True
        frontier = [
            net
            for net in self.netlist.nets()
            if self._error(good, faulty, net) or faulty[net] == X or good[net] == X
        ]
        alive = set(frontier)
        for out in self.netlist.outputs:
            if out in alive and self._reaches_error_backward(out, alive, good, faulty):
                return True
        return False

    def _reaches_error_backward(
        self,
        root: str,
        alive: set[str],
        good: dict[str, int],
        faulty: dict[str, int],
    ) -> bool:
        """DFS from an output through 'alive' nets looking for an error net."""
        stack = [root]
        seen: set[str] = set()
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if self._error(good, faulty, net):
                return True
            gate = self.netlist.gates.get(net)
            if gate is None:
                continue
            stack.extend(src for src in gate.inputs if src in alive and src not in seen)
        return False

    def _d_frontier(
        self,
        good: dict[str, int],
        faulty: dict[str, int],
        fault: StuckAtDefect | None = None,
    ) -> list[str]:
        frontier = []
        for net in self.netlist.topo_order:
            if good[net] != X and faulty[net] != X:
                continue
            gate = self.netlist.gates[net]
            if any(self._error(good, faulty, src) for src in gate.inputs):
                frontier.append(net)
        # A branch fault's error lives at a pin, not on a net: once the stem
        # carries the activating value, the reading gate is frontier material.
        if fault is not None and fault.site.branch is not None:
            gate_out = fault.site.branch[0]
            activated = good[fault.site.net] == fault.value ^ 1
            undecided = good[gate_out] == X or faulty[gate_out] == X
            if activated and undecided and gate_out not in frontier:
                frontier.insert(0, gate_out)
        return frontier

    def _objective(
        self,
        fault: StuckAtDefect,
        good: dict[str, int],
        faulty: dict[str, int],
    ) -> tuple[str, int] | None:
        site = fault.site
        need = fault.value ^ 1
        if good[site.net] == X:
            return (site.net, need)
        if good[site.net] != need:
            return None  # activation contradicted: backtrack
        frontier = self._d_frontier(good, faulty, fault)
        if not frontier:
            return None
        # Lowest-level frontier gate first (shortest remaining propagation).
        frontier.sort(key=self.netlist.level)
        gate = self.netlist.gates[frontier[0]]
        ctrl = gate.kind.controlling_value
        want = 1 if ctrl is None else ctrl ^ 1
        for src in gate.inputs:
            if good[src] == X:
                return (src, want)
        return None

    def _backtrace(self, net: str, value: int, good: dict[str, int]) -> tuple[str, int]:
        """Walk an objective back to an unassigned primary input."""
        current, want = net, value
        guard = 0
        while True:
            guard += 1
            if guard > self.netlist.n_nets + len(self.netlist.inputs) + 1:
                raise AtpgError("backtrace failed to reach a primary input")
            gate = self.netlist.gates.get(current)
            if gate is None:  # primary input
                return current, want
            kind = gate.kind
            if kind is GateKind.NOT:
                current, want = gate.inputs[0], want ^ 1
                continue
            if kind is GateKind.BUF:
                current = gate.inputs[0]
                continue
            if kind is GateKind.MUX:
                a, b, sel = gate.inputs
                if good[sel] == 0:
                    current = a
                elif good[sel] == 1:
                    current = b
                elif good[a] == X and good[b] != X:
                    current = a
                elif good[b] == X and good[a] != X:
                    current = b
                else:
                    current, want = sel, self._rng.getrandbits(1)
                continue
            if kind in (GateKind.XOR, GateKind.XNOR):
                known = [good[s] for s in gate.inputs if good[s] != X]
                xs = [s for s in gate.inputs if good[s] == X]
                if not xs:
                    raise AtpgError("backtrace objective already fully assigned")
                parity = 0
                for v in known:
                    parity ^= v
                if kind is GateKind.XNOR:
                    parity ^= 1
                current, want = xs[0], want ^ parity
                continue
            ctrl = kind.controlling_value
            body = want ^ (1 if kind.inverting else 0)
            xs = [s for s in gate.inputs if good[s] == X]
            if not xs:
                raise AtpgError("backtrace objective already fully assigned")
            if (ctrl == 0 and body == 0) or (ctrl == 1 and body == 1):
                # One controlling input suffices: pick the easiest (lowest level).
                current = min(xs, key=self.netlist.level)
                want = ctrl
            else:
                # All inputs must be non-controlling: attack the hardest first.
                current = max(xs, key=self.netlist.level)
                want = ctrl ^ 1

    def _search(self, fault: StuckAtDefect | None, goal: tuple[str, int] | None = None) -> PodemResult:
        """Shared search loop for detection (fault) and justification (goal)."""
        assignment: dict[str, int] = {}
        decisions: list[tuple[str, int, bool]] = []  # (pi, value, alternative_tried)
        backtracks = 0
        n_decisions = 0
        while True:
            good, faulty = self._simulate(assignment, fault)
            if fault is not None:
                done = self._detected(good, faulty)
            else:
                net, want = goal  # type: ignore[misc]
                done = good[net] == want
            if done:
                pattern = {
                    pi: assignment.get(pi, self._rng.getrandbits(1))
                    for pi in self.netlist.inputs
                }
                return PodemResult(pattern, "detected", backtracks, n_decisions)

            objective = self._next_objective(fault, goal, good, faulty)
            if objective is not None:
                pi, val = self._backtrace(*objective, good)
                assignment[pi] = val
                decisions.append((pi, val, False))
                n_decisions += 1
                continue

            # Conflict: chronological backtracking.
            while decisions:
                pi, val, tried = decisions.pop()
                del assignment[pi]
                if not tried:
                    backtracks += 1
                    if backtracks > self.max_backtracks:
                        return PodemResult(
                            None, "aborted", backtracks, n_decisions
                        )
                    assignment[pi] = val ^ 1
                    decisions.append((pi, val ^ 1, True))
                    break
            else:
                return PodemResult(None, "untestable", backtracks, n_decisions)

    def _next_objective(
        self,
        fault: StuckAtDefect | None,
        goal: tuple[str, int] | None,
        good: dict[str, int],
        faulty: dict[str, int],
    ) -> tuple[str, int] | None:
        if fault is not None:
            obj = self._objective(fault, good, faulty)
            if obj is None:
                return None
            if obj[0] != fault.site.net and not self._x_path_exists(good, faulty):
                return None
            return obj
        net, want = goal  # type: ignore[misc]
        if good[net] == X:
            return (net, want)
        return None  # justified value contradicts goal -> backtrack


def justify(
    netlist: Netlist, net: str, value: int, max_backtracks: int = 512, seed: int = 0
) -> dict[str, int] | None:
    """Input assignment making ``net`` carry ``value``, or None if impossible.

    Used for the launch vector of transition test pairs.
    """
    if value not in (0, 1):
        raise AtpgError("justify target value must be 0/1")
    if net not in netlist.gates and not netlist.is_input(net):
        raise AtpgError(f"unknown net {net!r}")
    engine = Podem(netlist, max_backtracks=max_backtracks, seed=seed)
    result = engine._search(None, goal=(net, value))
    return result.pattern
