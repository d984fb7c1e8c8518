"""Cross-stage simulation context cache.

Every diagnosis stage -- candidate backtrace, X-cover, per-test analysis,
refinement, the validation oracle, single-fault baselines -- keeps asking
the same questions of the same ``(netlist, patterns)`` pair: the fault-free
base values, "what changes at the outputs if I flip this site", "what can a
defect at this site reach".  A :class:`SimContext` answers each question
once and memoizes:

- ``base``: the fault-free value of every net (a ``SlotValues`` under the
  compiled backend, so cone resims skip the dict-to-list conversion),
- flip signatures: site -> per-output delta vectors of complementing the
  site's fault-free value,
- resim diffs: override-signature -> per-output delta vectors.  The key is
  the *behavioral* signature ``frozenset((site, value), ...)``, so any two
  stages (or two fault models) requesting the same injected behavior share
  one simulation,
- X reach: site -> per-output X-corruption vectors.

Contexts are registered in a bounded LRU keyed by *content* fingerprints
(netlist hash, pattern-set hash), so campaign trials that share a circuit
and test set -- even across structurally-equal netlist instances -- reuse
one context, and mutated inputs miss cleanly.

Memo hits and misses feed :data:`repro.sim.compile.COUNTERS`; budget
charging in the engines is deliberately *not* tied to memo hits so anytime
truncation behavior stays deterministic regardless of cache warmth.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Mapping

from repro.circuit.netlist import Netlist, Site
from repro.errors import SimulationError
from repro.obs.trace import trace_event
from repro.sim.compile import COUNTERS, active_kernels, base_slots, reset_kernel_cache
from repro.sim.event import resim_output_diff
from repro.sim.logicsim import simulate
from repro.sim.patterns import PatternSet
from repro.sim.threeval import joint_x_injection_reach, x_injection_reach

#: Registry capacity: a campaign trial touches at most a handful of
#: contexts (full pattern set + the failing-subset of each engine).
MAX_CONTEXTS = 16

#: Per-context bound on each memo table; on overflow the table is cleared
#: (diffs are small, so this is generous for every shipped circuit).
MAX_MEMO_ENTRIES = 65536


class SimContext:
    """Memoized simulation state for one ``(netlist, patterns)`` pair."""

    __slots__ = (
        "netlist",
        "patterns",
        "mask",
        "base",
        "_flip",
        "_resim",
        "_xreach",
        "_kernels",
        "_base_slots",
        "_out_pairs",
        "_valid_sites",
    )

    def __init__(self, netlist: Netlist, patterns: PatternSet):
        self.netlist = netlist
        self.patterns = patterns
        self.mask = patterns.mask
        self.base = simulate(netlist, patterns)
        self._flip: dict[Site, dict[str, int]] = {}
        self._resim: dict[frozenset, dict[str, int]] = {}
        self._xreach: dict[Site, dict[str, int]] = {}
        # The backend is captured once per context: the memo tables are
        # engine-agnostic (both backends are differentially identical), so
        # re-reading ``REPRO_SIM`` on every query would only buy dispatch
        # overhead on the hottest call path.
        self._kernels = active_kernels(netlist)
        self._valid_sites: set[Site] = set()
        if self._kernels is not None:
            program = self._kernels.program
            self._base_slots = base_slots(program, self.base)
            self._out_pairs = list(zip(netlist.outputs, program.out_slots))

    # -- memoized queries --------------------------------------------------

    def resim_diff(self, overrides: Mapping[Site, int]) -> dict[str, int]:
        """Per-output delta vectors of resimulating with ``overrides``.

        Keyed by the override *signature*, so behaviorally-equivalent
        requests (same sites forced to the same vectors, whatever stage or
        fault model produced them) are simulated once.  The returned dict
        is shared -- callers must not mutate it.
        """
        key = frozenset(overrides.items())
        diff = self._resim.get(key)
        if diff is not None:
            COUNTERS.resim_hits += 1
            return diff
        COUNTERS.resim_misses += 1
        if self._kernels is not None:
            diff = self._resim_compiled(overrides)
        else:
            diff = resim_output_diff(self.netlist, self.base, overrides, self.mask)
        if len(self._resim) >= MAX_MEMO_ENTRIES:
            self._resim.clear()
        self._resim[key] = diff
        return diff

    def _resim_compiled(self, overrides: Mapping[Site, int]) -> dict[str, int]:
        """Inline compiled cone resim against the context's own base.

        Equivalent to :func:`~repro.sim.event.resim_output_diff` (same
        validation, same counters) minus the per-call backend dispatch, and
        with site validation memoized -- the same few hundred sites recur
        across thousands of what-if queries.
        """
        netlist = self.netlist
        mask = self.mask
        kernels = self._kernels
        program = kernels.program
        slot_of = program.slot_of
        gates = netlist.gates
        valid = self._valid_sites
        base = self._base_slots
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
                pp[slot_of[branch[0]] * program.stride + branch[1]] = value
        cone = netlist.fanout_cone(roots)
        COUNTERS.cone_passes += 1
        COUNTERS.gate_evals += len(cone)
        slots = base.copy()
        for slot in input_slots:
            slots[slot] = st[slot]
        cone_set, _cone_order = kernels.cone_slots(cone)
        if pp:
            kernels.fn("cone2_sp")(slots, mask, cone_set, st, pp)
        else:
            kernels.fn("cone2_s")(slots, mask, cone_set, st)
        diff: dict[str, int] = {}
        for net, slot in self._out_pairs:
            delta = slots[slot] ^ base[slot]
            if delta:
                diff[net] = delta
        return diff

    def flip_signature(self, site: Site) -> dict[str, int]:
        """Output deltas of complementing ``site``'s fault-free value.

        The signature a flipped site leaves on the outputs is the unit of
        evidence in critical-path tracing, per-test analysis and candidate
        distinguishing; memoized per site.  The returned dict is shared --
        callers must not mutate it.
        """
        diff = self._flip.get(site)
        if diff is not None:
            COUNTERS.flip_hits += 1
            return diff
        COUNTERS.flip_misses += 1
        flipped = (self.base[site.net] ^ self.mask) & self.mask
        diff = self.resim_diff({site: flipped})
        if len(self._flip) >= MAX_MEMO_ENTRIES:
            self._flip.clear()
        self._flip[site] = diff
        return diff

    def x_reach(self, site: Site) -> dict[str, int]:
        """Memoized :func:`~repro.sim.threeval.x_injection_reach` at
        ``site``.  The returned dict is shared -- callers must not mutate
        it."""
        reach = self._xreach.get(site)
        if reach is not None:
            COUNTERS.xreach_hits += 1
            return reach
        COUNTERS.xreach_misses += 1
        reach = x_injection_reach(self.netlist, self.patterns, site, self.base)
        if len(self._xreach) >= MAX_MEMO_ENTRIES:
            self._xreach.clear()
        self._xreach[site] = reach
        return reach

    def joint_x_reach(self, sites: Iterable[Site]) -> dict[str, int]:
        """Per-output X vectors of forcing ``X`` at every site of ``sites``
        in one cone-restricted pass (see
        :func:`~repro.sim.threeval.joint_x_injection_reach`).

        Not memoized: a cover enumeration asks about each site set once.
        """
        return joint_x_injection_reach(self.netlist, self.patterns, sites, self.base)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_CONTEXTS: OrderedDict[tuple[str, str], SimContext] = OrderedDict()


def _evict_overflow() -> None:
    """Enforce :data:`MAX_CONTEXTS` by dropping least-recently-used entries.

    Called on every insert (not only on lookup), so a campaign that never
    repeats a ``(netlist, patterns)`` key -- a multi-circuit sweep -- holds
    at most ``MAX_CONTEXTS`` contexts no matter how many trials it runs.
    """
    while len(_CONTEXTS) > MAX_CONTEXTS:
        _CONTEXTS.popitem(last=False)


def context_cache_size() -> int:
    """Number of registered contexts (bounded-growth regression hook)."""
    return len(_CONTEXTS)


def sim_context(netlist: Netlist, patterns: PatternSet) -> SimContext:
    """The shared context for ``(netlist, patterns)``, creating it on miss.

    Keys are content fingerprints: two structurally identical netlists (or
    two equal pattern sets) map to the same context, while any content
    change -- an edited gate, a different test set -- misses and builds a
    fresh one.
    """
    key = (netlist.fingerprint(), patterns.fingerprint())
    ctx = _CONTEXTS.get(key)
    if ctx is not None:
        COUNTERS.context_hits += 1
        trace_event("sim.context_cache", hit=True)
        _CONTEXTS.move_to_end(key)
        return ctx
    COUNTERS.context_misses += 1
    trace_event("sim.context_cache", hit=False, circuit=netlist.name)
    ctx = SimContext(netlist, patterns)
    _CONTEXTS[key] = ctx
    _evict_overflow()
    return ctx


def active_context(
    netlist: Netlist,
    patterns: PatternSet,
    base_values: Mapping[str, int] | None,
) -> SimContext | None:
    """The registered context *iff* it is safe to serve ``base_values``.

    Memoized answers are only valid against the context's own base vector;
    callers supplying a foreign ``base_values`` (an identity check -- a
    merely-equal dict could still be a different what-if baseline) bypass
    the memo and fall through to direct simulation.
    """
    key = (netlist.fingerprint(), patterns.fingerprint())
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        return None
    if base_values is not None and base_values is not ctx.base:
        return None
    _CONTEXTS.move_to_end(key)
    return ctx


def reset_sim_caches() -> None:
    """Drop every context, kernel and counter (testing/benchmark hook)."""
    _CONTEXTS.clear()
    reset_kernel_cache()
    COUNTERS.reset()
