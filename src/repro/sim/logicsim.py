"""Two-valued bit-parallel logic simulation.

One topological pass over the netlist evaluates every pattern of a
:class:`~repro.sim.patterns.PatternSet` simultaneously (bit *i* of each
net's value integer is the value under pattern *i*).

Two backends share this entry point: the compiled slot-indexed kernels
(:mod:`repro.sim.compile`, the default) and the interpreted walk kept as
the differential-testing oracle (``REPRO_SIM=interp``).  Both produce
identical value dicts in identical iteration order.

:func:`simulate_flips` is the lane-packed single-flip sweep: one full
pass over a word that holds one copy of the pattern set per candidate
site, each copy with its own site complemented.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.circuit.gates import eval2
from repro.circuit.netlist import Netlist, Site
from repro.errors import SimulationError
from repro.sim.compile import (
    COUNTERS,
    active_kernels,
    make_slot_values,
)
from repro.sim.patterns import PatternSet


def _check_inputs(netlist: Netlist, patterns: PatternSet) -> None:
    if tuple(patterns.inputs) != netlist.inputs:
        raise SimulationError(
            f"pattern inputs {patterns.inputs} do not match circuit inputs "
            f"{netlist.inputs}"
        )


def split_overrides(
    netlist: Netlist,
    overrides: Mapping[Site, int] | None,
    mask: int,
) -> tuple[dict[str, int], dict[tuple[str, int], int]]:
    """Validate overrides (site, then width, one site at a time) and split
    them into stem and pin maps."""
    stem_over: dict[str, int] = {}
    pin_over: dict[tuple[str, int], int] = {}
    for site, value in (overrides or {}).items():
        netlist.validate_site(site)
        if value < 0 or value > mask:
            raise SimulationError(f"override for {site} exceeds pattern width")
        if site.is_stem:
            stem_over[site.net] = value
        else:
            pin_over[site.branch] = value
    return stem_over, pin_over


def simulate(
    netlist: Netlist,
    patterns: PatternSet,
    overrides: Mapping[Site, int] | None = None,
) -> dict[str, int]:
    """Simulate and return the value vector of *every* net.

    ``overrides`` forcibly replaces site values: a stem override replaces
    the net's driven value for all its readers (and for output observation),
    a branch override replaces the value seen by one specific gate pin only.
    Overrides are the primitive both fault injection and what-if analysis
    are built on.
    """
    _check_inputs(netlist, patterns)
    mask = patterns.mask
    stem_over, pin_over = split_overrides(netlist, overrides, mask)
    COUNTERS.full_passes += 1
    COUNTERS.gate_evals += netlist.n_gates

    kernels = active_kernels(netlist)
    if kernels is None:
        return _simulate_interp(netlist, patterns, stem_over, pin_over, mask)

    program = kernels.program
    bits = patterns.bits
    slots = [0] * program.n_slots
    if stem_over:
        for slot, net in enumerate(netlist.inputs):
            slots[slot] = stem_over.get(net, bits[net])
    else:
        for slot, net in enumerate(netlist.inputs):
            slots[slot] = bits[net]
    gates = netlist.gates
    slot_of = program.slot_of
    st = {
        slot_of[net]: value
        for net, value in stem_over.items()
        if net in gates
    }
    if st or pin_over:
        stride = program.stride
        pp = {
            slot_of[gate] * stride + pin: value
            for (gate, pin), value in pin_over.items()
        }
        kernels.fn("full2_sp")(slots, mask, st, pp)
    else:
        kernels.fn("full2_x")(slots, mask, program.no_x, program.no_px)
    return make_slot_values(program, slots, mask)


def _simulate_interp(
    netlist: Netlist,
    patterns: PatternSet,
    stem_over: dict[str, int],
    pin_over: dict[tuple[str, int], int],
    mask: int,
) -> dict[str, int]:
    """Interpreted reference walk (differential oracle for the kernels)."""
    values: dict[str, int] = {}
    bits = patterns.bits
    for net in netlist.inputs:
        values[net] = stem_over.get(net, bits[net])
    gates = netlist.gates
    if not stem_over and not pin_over:
        # Hot path: no overrides means no per-gate dict probes and no
        # intermediate input list (eval2 folds the map lazily).
        getval = values.__getitem__
        for net in netlist.topo_order:
            gate = gates[net]
            values[net] = eval2(gate.kind, map(getval, gate.inputs), mask)
        return values
    if not pin_over:
        getval = values.__getitem__
        for net in netlist.topo_order:
            if net in stem_over:
                values[net] = stem_over[net]
                continue
            gate = gates[net]
            values[net] = eval2(gate.kind, map(getval, gate.inputs), mask)
        return values
    for net in netlist.topo_order:
        gate = gates[net]
        ins = [
            pin_over.get((net, pin), values[src])
            for pin, src in enumerate(gate.inputs)
        ]
        out = eval2(gate.kind, ins, mask)
        values[net] = stem_over.get(net, out)
    return values


def simulate_flips(
    netlist: Netlist,
    patterns: PatternSet,
    base_values: Mapping[str, int],
    sites: Sequence[Site],
) -> list[dict[str, int]]:
    """Per-output deltas of complementing each of ``sites`` alone, from
    one lane-packed full pass.

    With ``W`` the pattern count, lane ``i`` of every value is bits
    ``[i*W, (i+1)*W)``: a copy of the fault-free circuit in which site
    ``i``, and only it, is XORed with the lane mask -- a gate-output stem
    after its gate, an input stem before the pass, a branch at its gate
    pin (a branch of a net without distinct branches is its stem).  A
    lane carries one fault and the netlist is a DAG, so site ``i`` holds
    its fault-free value in lane ``i`` and the XOR complements it exactly
    as the override ``base ^ mask`` would.  The result lists one
    ``{output: delta}`` dict per site, keys in netlist output order.

    ``sites`` must be distinct and valid, and ``base_values`` the
    fault-free values of ``patterns``;
    :meth:`repro.sim.cache.SimContext.flip_signatures` guarantees both.
    """
    COUNTERS.full_passes += 1
    COUNTERS.gate_evals += netlist.n_gates
    mask = patterns.mask
    width = max(1, patterns.n)
    # ``reps`` has bit 0 of every lane set: ``v * reps`` replicates a
    # pattern-set vector into every lane.
    reps = 0
    stem_x: dict[str, int] = {}
    pin_x: dict[tuple[str, int], int] = {}
    for lane, site in enumerate(sites):
        reps |= 1 << (lane * width)
        lane_mask = mask << (lane * width)
        if site.branch is not None and netlist.has_distinct_branches(site.net):
            pin_x[site.branch] = pin_x.get(site.branch, 0) | lane_mask
        else:
            stem_x[site.net] = stem_x.get(site.net, 0) | lane_mask

    kernels = active_kernels(netlist)
    if kernels is None:
        outs = _flip_pass_interp(netlist, patterns, reps, stem_x, pin_x)
    else:
        program = kernels.program
        slot_of = program.slot_of
        n_inputs = program.n_inputs
        bits = patterns.bits
        slots = [0] * program.n_slots
        for slot, net in enumerate(netlist.inputs):
            slots[slot] = bits[net] * reps
        x = [0] * program.n_slots
        for net, value in stem_x.items():
            slot = slot_of[net]
            if slot < n_inputs:
                slots[slot] ^= value
            else:
                x[slot] = value
        px = [0] * len(program.xor_pins)
        for (gate, pin), value in pin_x.items():
            px[program.xor_pins[program.pin_key(gate, pin)]] = value
        kernels.fn("full2_x")(slots, mask * reps, x, px)
        outs = [slots[slot] for slot in program.out_slots]

    diffs: list[dict[str, int]] = [{} for _ in sites]
    for net, value in zip(netlist.outputs, outs):
        wide = value ^ (base_values[net] * reps)
        lane = 0
        while wide:
            delta = wide & mask
            if delta:
                diffs[lane][net] = delta
            wide >>= width
            lane += 1
    return diffs


def _flip_pass_interp(
    netlist: Netlist,
    patterns: PatternSet,
    reps: int,
    stem_x: dict[str, int],
    pin_x: dict[tuple[str, int], int],
) -> list[int]:
    """Interpreted packed walk (differential oracle for ``full2_x``):
    output values of the fault-free pass over the lane-replicated
    patterns with the XOR injections applied."""
    wide_mask = patterns.mask * reps
    bits = patterns.bits
    values: dict[str, int] = {}
    for net in netlist.inputs:
        values[net] = (bits[net] * reps) ^ stem_x.get(net, 0)
    gates = netlist.gates
    for net in netlist.topo_order:
        gate = gates[net]
        ins = [
            values[src] ^ pin_x.get((net, pin), 0)
            for pin, src in enumerate(gate.inputs)
        ]
        values[net] = eval2(gate.kind, ins, wide_mask) ^ stem_x.get(net, 0)
    return [values[net] for net in netlist.outputs]


def simulate_outputs(
    netlist: Netlist,
    patterns: PatternSet,
    overrides: Mapping[Site, int] | None = None,
) -> dict[str, int]:
    """Primary-output response vectors only."""
    values = simulate(netlist, patterns, overrides)
    return {net: values[net] for net in netlist.outputs}


def response_signature(outputs: Mapping[str, int], output_order: tuple[str, ...]) -> tuple[int, ...]:
    """Canonical hashable form of an output response."""
    return tuple(outputs[net] for net in output_order)


def mismatched_outputs(
    golden: Mapping[str, int], observed: Mapping[str, int], mask: int
) -> dict[str, int]:
    """Per-output bit vectors of pattern positions where responses differ.

    Raises :class:`SimulationError` when ``observed`` lacks an output that
    ``golden`` has (a truncated or mislabeled tester response).
    """
    diff: dict[str, int] = {}
    for net, gold in golden.items():
        seen = observed.get(net)
        if seen is None:
            raise SimulationError(
                f"observed response is missing output {net!r}"
            )
        delta = (gold ^ seen) & mask
        if delta:
            diff[net] = delta
    return diff
