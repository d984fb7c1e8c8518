"""Cone-restricted incremental resimulation.

Given the fault-free value of every net, re-evaluating a what-if scenario
(a set of site overrides) only requires visiting the gates in the combined
fanout cone of the overridden sites.  For localized changes -- the common
case in fault simulation, critical path tracing and candidate refinement --
this is dramatically cheaper than a full-netlist pass.

The compiled backend evaluates the cone with the guarded straight-line
``cone2_sp`` kernel over the flat slot array (:func:`_cone_pass`); when
``base_values`` came from the compiled :func:`~repro.sim.logicsim.simulate`
(a ``SlotValues``), the base slot list is reused directly and the whole
resimulation allocates one list copy.  :func:`cone_output_diff` is the one
compiled cone-to-output diff; :func:`resim_output_diff` and
:meth:`~repro.sim.cache.SimContext.resim_diff` both call it.
"""

from __future__ import annotations

from typing import Mapping

from repro.circuit.gates import eval2
from repro.circuit.netlist import Netlist, Site
from repro.errors import SimulationError
from repro.sim.compile import COUNTERS, KernelSet, active_kernels, base_slots
from repro.sim.logicsim import split_overrides


def resimulate_with_overrides(
    netlist: Netlist,
    base_values: Mapping[str, int],
    overrides: Mapping[Site, int],
    mask: int,
) -> dict[str, int]:
    """Resimulate the fanout cone of ``overrides`` on top of ``base_values``.

    Returns a sparse dictionary containing only the nets whose value vector
    differs from ``base_values`` (overridden sites included when they
    changed).  Reading a missing key therefore means "unchanged".
    """
    kernels = active_kernels(netlist)
    if kernels is None:
        return _resim_interp(netlist, base_values, overrides, mask)

    program = kernels.program
    base = base_slots(program, base_values)
    slots, input_slots, cone_order = _cone_pass(
        netlist, kernels, base, overrides, mask, set()
    )
    changed: dict[str, int] = {}
    net_order = program.net_order
    # Overridden inputs first, in primary-input (= slot) order, matching
    # the interpreted walk's insertion order.
    for slot in sorted(input_slots):
        if slots[slot] != base[slot]:
            changed[net_order[slot]] = slots[slot]
    for slot in cone_order:
        value = slots[slot]
        if value != base[slot]:
            changed[net_order[slot]] = value
    return changed


def _cone_pass(
    netlist: Netlist,
    kernels: KernelSet,
    base: list,
    overrides: Mapping[Site, int],
    mask: int,
    valid: set[Site],
) -> tuple[list, list[int], tuple[int, ...]]:
    """One compiled cone resimulation of ``overrides`` over ``base`` slots.

    Validates every site not yet in ``valid`` (adding it there) and every
    value against ``mask``, charges the cone pass, and runs ``cone2_sp``
    on a copy of ``base``.  Returns the resimulated slot list, the slots
    of overridden primary inputs, and the cone's gate slots in evaluation
    order.
    """
    program = kernels.program
    slot_of = program.slot_of
    stride = program.stride
    gates = netlist.gates
    # ``st`` carries input stems too: the guarded kernel only probes gate
    # slots, so the extra keys are inert there.
    st: dict[int, int] = {}
    pp: dict[int, int] = {}
    roots: list[str] = []
    input_slots: list[int] = []
    for site, value in overrides.items():
        if site not in valid:
            netlist.validate_site(site)
            valid.add(site)
        if value < 0 or value > mask:
            raise SimulationError(f"override for {site} exceeds pattern width")
        branch = site.branch
        if branch is None:
            net = site.net
            roots.append(net)
            slot = slot_of[net]
            st[slot] = value
            if net not in gates:
                input_slots.append(slot)
        else:
            roots.append(branch[0])
            pp[slot_of[branch[0]] * stride + branch[1]] = value
    cone = netlist.fanout_cone(roots)
    COUNTERS.cone_passes += 1
    COUNTERS.gate_evals += len(cone)
    slots = base.copy()
    for slot in input_slots:
        slots[slot] = st[slot]
    cone_set, cone_order = kernels.cone_slots(cone)
    kernels.fn("cone2_sp")(slots, mask, cone_set, st, pp)
    return slots, input_slots, cone_order


def cone_output_diff(
    netlist: Netlist,
    kernels: KernelSet,
    base: list,
    overrides: Mapping[Site, int],
    mask: int,
    valid: set[Site],
) -> dict[str, int]:
    """The compiled cone-to-output diff: per-output delta vectors of
    resimulating ``overrides`` over the ``base`` slot list.

    ``valid`` holds sites already validated against ``netlist``; sites
    outside it are validated and added.  A
    :class:`~repro.sim.cache.SimContext` passes its own memo, so the few
    hundred sites that recur across thousands of what-if queries are
    validated once; :func:`resim_output_diff` passes a fresh set.
    """
    slots, _inputs, _order = _cone_pass(netlist, kernels, base, overrides, mask, valid)
    diff: dict[str, int] = {}
    for net, slot in zip(netlist.outputs, kernels.program.out_slots):
        delta = slots[slot] ^ base[slot]
        if delta:
            diff[net] = delta
    return diff


def _resim_interp(
    netlist: Netlist,
    base_values: Mapping[str, int],
    overrides: Mapping[Site, int],
    mask: int,
) -> dict[str, int]:
    """Interpreted reference walk (differential oracle for the kernels)."""
    stem_over, pin_over = split_overrides(netlist, overrides, mask)
    cone = netlist.fanout_cone([*stem_over, *(gate for gate, _pin in pin_over)])
    COUNTERS.cone_passes += 1
    COUNTERS.gate_evals += len(cone)
    changed: dict[str, int] = {}

    def read(net: str) -> int:
        return changed.get(net, base_values[net])

    for net in netlist.inputs:
        if net in stem_over and stem_over[net] != base_values[net]:
            changed[net] = stem_over[net]
    for net in netlist.topo_order:
        if net not in cone:
            continue
        if net in stem_over:
            if stem_over[net] != base_values[net]:
                changed[net] = stem_over[net]
            continue
        gate = netlist.gates[net]
        ins = [
            pin_over.get((net, pin), read(src))
            for pin, src in enumerate(gate.inputs)
        ]
        out = eval2(gate.kind, ins, mask)
        if out != base_values[net]:
            changed[net] = out
    return changed


def resim_output_diff(
    netlist: Netlist,
    base_values: Mapping[str, int],
    overrides: Mapping[Site, int],
    mask: int,
) -> dict[str, int]:
    """Per-*output* difference vectors of resimulating with ``overrides``.

    Exactly ``changed_outputs(netlist, resimulate_with_overrides(...))``.
    The compiled path is :func:`cone_output_diff` with a fresh validated-site
    set: the cone kernel runs on the flat slot array and only the output
    slots are compared, so the changed-nets map is never materialized.
    """
    kernels = active_kernels(netlist)
    if kernels is None:
        changed = _resim_interp(netlist, base_values, overrides, mask)
        return changed_outputs(netlist, changed, base_values, mask)
    base = base_slots(kernels.program, base_values)
    return cone_output_diff(netlist, kernels, base, overrides, mask, set())


def changed_outputs(
    netlist: Netlist, changed: Mapping[str, int], base_values: Mapping[str, int], mask: int
) -> dict[str, int]:
    """Per-output difference vectors implied by a sparse ``changed`` map."""
    diff: dict[str, int] = {}
    for net in netlist.outputs:
        if net in changed:
            delta = (changed[net] ^ base_values[net]) & mask
            if delta:
                diff[net] = delta
    return diff
