"""Three-valued (0/1/X) bit-parallel simulation and X injection.

This module is the analytical engine behind the assumption-free diagnosis:
forcing ``X`` at a candidate defect site and three-valued-simulating
over-approximates *every* possible faulty behavior at that site (stuck-at,
bridge, delayed, intermittent, byzantine...).  An output that stays binary
under the X injection provably cannot be corrupted by any defect at that
site for that pattern -- the pruning theorem the candidate envelope rests
on.

The compiled backend stores the ``(ones, zeros)`` planes in two flat slot
arrays.  Override vectors are confined to the pattern mask before being
handed to the kernels (the interpreted walk instead re-masks at every
downstream gate -- the resulting values are identical because every gate
evaluation masks its output); the returned dict still carries the caller's
original override objects, exactly like the interpreted path.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.circuit.gates import TV, eval3, tv_all_x, tv_const, tv_xmask
from repro.circuit.netlist import Netlist, Site
from repro.errors import SimulationError
from repro.sim.compile import COUNTERS, active_kernels, lifted_base
from repro.sim.logicsim import simulate
from repro.sim.patterns import PatternSet


def simulate3(
    netlist: Netlist,
    patterns: PatternSet,
    overrides: Mapping[Site, TV] | None = None,
) -> dict[str, TV]:
    """Full three-valued simulation with site overrides.

    Each override replaces a stem or branch value with an arbitrary
    three-valued vector ``(ones, zeros)``; binary input patterns are lifted
    automatically.  Returns the three-valued value of every net.
    """
    if tuple(patterns.inputs) != netlist.inputs:
        raise SimulationError("pattern inputs do not match circuit inputs")
    mask = patterns.mask
    stem_over: dict[str, TV] = {}
    pin_over: dict[tuple[str, int], TV] = {}
    for site, value in (overrides or {}).items():
        netlist.validate_site(site)
        if site.is_stem:
            stem_over[site.net] = value
        else:
            pin_over[site.branch] = value
    COUNTERS.full3_passes += 1
    COUNTERS.gate_evals += netlist.n_gates

    kernels = active_kernels(netlist)
    if kernels is None:
        return _simulate3_interp(netlist, patterns, stem_over, pin_over, mask)

    program = kernels.program
    bits = patterns.bits
    ones = [0] * program.n_slots
    zeros = [0] * program.n_slots
    for slot, net in enumerate(netlist.inputs):
        tv = stem_over.get(net)
        if tv is None:
            b = bits[net] & mask
            ones[slot] = b
            zeros[slot] = b ^ mask
        else:
            ones[slot] = tv[0] & mask
            zeros[slot] = tv[1] & mask
    gates = netlist.gates
    slot_of = program.slot_of
    so: dict[int, int] = {}
    sz: dict[int, int] = {}
    for net, tv in stem_over.items():
        if net in gates:
            slot = slot_of[net]
            so[slot] = tv[0] & mask
            sz[slot] = tv[1] & mask
    if pin_over:
        stride = program.stride
        po: dict[int, int] = {}
        pz: dict[int, int] = {}
        for (gate, pin), tv in pin_over.items():
            key = slot_of[gate] * stride + pin
            po[key] = tv[0] & mask
            pz[key] = tv[1] & mask
        kernels.fn("full3_sp")(ones, zeros, mask, so, sz, po, pz)
    elif so:
        kernels.fn("full3_s")(ones, zeros, mask, so, sz)
    else:
        kernels.fn("full3")(ones, zeros, mask)

    values: dict[str, TV] = {}
    for slot, net in enumerate(program.net_order):
        values[net] = (ones[slot], zeros[slot])
    # Overridden nets return the caller's original (possibly unmasked)
    # vectors, as the interpreted walk does.
    for net, tv in stem_over.items():
        values[net] = tv
    return values


def _simulate3_interp(
    netlist: Netlist,
    patterns: PatternSet,
    stem_over: dict[str, TV],
    pin_over: dict[tuple[str, int], TV],
    mask: int,
) -> dict[str, TV]:
    """Interpreted reference walk (differential oracle for the kernels)."""
    values: dict[str, TV] = {}
    for net in netlist.inputs:
        values[net] = stem_over.get(net, tv_const(patterns.bits[net], mask))
    for net in netlist.topo_order:
        gate = netlist.gates[net]
        ins = [
            pin_over.get((net, pin), values[src])
            for pin, src in enumerate(gate.inputs)
        ]
        out = eval3(gate.kind, ins, mask)
        values[net] = stem_over.get(net, out)
    return values


def x_injection_reach(
    netlist: Netlist,
    patterns: PatternSet,
    site: Site,
    base_values: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Per-output X reach of forcing ``X`` at ``site`` for every pattern.

    Returns ``{output net: bit vector}`` where bit *i* set means "a defect
    at ``site`` may corrupt this output under pattern *i*".  Only outputs
    with a non-zero vector are present.

    The simulation is restricted to the fanout cone of the injection point;
    everything outside the cone provably keeps its fault-free binary value
    (X-monotonicity), so ``base_values`` (from a prior fault-free
    :func:`~repro.sim.logicsim.simulate`) supplies those directly.  This
    cone restriction is what makes per-site X analysis cheap enough to run
    for every candidate site of every failing pattern.
    """
    return _x_reach(netlist, patterns, (site,), base_values, joint=False)


def joint_x_injection_reach(
    netlist: Netlist,
    patterns: PatternSet,
    sites: Iterable[Site],
    base_values: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Per-output X reach of forcing ``X`` at every site of ``sites`` at once.

    The multi-site form of :func:`x_injection_reach`: one cone-restricted
    three-valued pass over the union of the sites' fanout cones (a stem
    roots its cone at its net, a branch at the gate it feeds).  Every
    flip/pin assignment of the sites is a binary refinement of this
    injection, so an output bit that stays binary here keeps its
    fault-free value under all of them.
    """
    return _x_reach(netlist, patterns, sites, base_values, joint=True)


def _x_reach(
    netlist: Netlist,
    patterns: PatternSet,
    sites: Iterable[Site],
    base_values: Mapping[str, int] | None,
    joint: bool,
) -> dict[str, int]:
    """X reach of ``sites`` forced X together.

    Joint queries always run the stem+pin kernel, even for stems only, so
    a cold run that asks only joint questions compiles one kernel variant
    for them, not two.
    """
    stems: set[str] = set()
    pins: set[tuple[str, int]] = set()
    for site in sites:
        netlist.validate_site(site)
        if site.branch is None:
            stems.add(site.net)
        else:
            pins.add(site.branch)
    if base_values is None:
        base_values = simulate(netlist, patterns)
    mask = patterns.mask
    cone = netlist.fanout_cone([*stems, *(gate for gate, _pin in pins)])
    COUNTERS.cone3_passes += 1
    COUNTERS.gate_evals += len(cone)

    kernels = active_kernels(netlist)
    if kernels is None:
        reach = _x_reach_interp(netlist, base_values, cone, stems, pins, mask)
    else:
        program = kernels.program
        base_on, base_zr = lifted_base(program, base_values, mask)
        ones = base_on.copy()
        zeros = base_zr.copy()
        cone_set, _ = kernels.cone_slots(cone)
        slot_of = program.slot_of
        so: dict[int, int] = {}
        sz: dict[int, int] = {}
        for net in stems:
            slot = slot_of[net]
            if slot < program.n_inputs:
                ones[slot] = mask
                zeros[slot] = mask
            else:
                so[slot] = mask
                sz[slot] = mask
        if pins or joint:
            stride = program.stride
            px = {slot_of[gate] * stride + pin: mask for gate, pin in pins}
            kernels.fn("cone3_sp")(ones, zeros, mask, cone_set, so, sz, px, px)
        else:
            kernels.fn("cone3_s")(ones, zeros, mask, cone_set, so, sz)
        reach = {}
        for out_net in netlist.outputs:
            slot = slot_of[out_net]
            xm = ones[slot] & zeros[slot]
            if xm:
                reach[out_net] = xm
    # A primary output that *is* an injected stem is trivially corrupted.
    for net in stems:
        if net in netlist.outputs:
            reach[net] = mask
    return reach


def _x_reach_interp(
    netlist: Netlist,
    base_values: Mapping[str, int],
    cone: frozenset[str],
    stems: set[str],
    pins: set[tuple[str, int]],
    mask: int,
) -> dict[str, int]:
    """Interpreted reference walk (differential oracle for the kernels)."""
    all_x = tv_all_x(mask)
    values3: dict[str, TV] = {}

    def read(net: str) -> TV:
        tv = values3.get(net)
        if tv is None:
            tv = tv_const(base_values[net], mask)
        return tv

    for net in stems:
        if netlist.is_input(net):
            values3[net] = all_x

    for net in netlist.topo_order:
        if net not in cone:
            continue
        if net in stems:
            values3[net] = all_x
            continue
        gate = netlist.gates[net]
        ins = [
            all_x if (net, pin_idx) in pins else read(src)
            for pin_idx, src in enumerate(gate.inputs)
        ]
        values3[net] = eval3(gate.kind, ins, mask)

    reach: dict[str, int] = {}
    for out_net in netlist.outputs:
        tv = values3.get(out_net)
        if tv is None:
            continue
        xm = tv_xmask(tv) & mask
        if xm:
            reach[out_net] = xm
    return reach
