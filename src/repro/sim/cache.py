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
  site's fault-free value, computed in lane-packed batches (one full pass
  per :attr:`SimContext.flip_lanes` sites, see
  :func:`~repro.sim.logicsim.simulate_flips`),
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
from typing import Iterable, Mapping, Sequence

from repro.circuit.netlist import Netlist, Site
from repro.obs.trace import trace_event
from repro.sim.compile import COUNTERS, active_kernels, base_slots, reset_kernel_cache
from repro.sim.event import cone_output_diff, resim_output_diff
from repro.sim.logicsim import simulate, simulate_flips
from repro.sim.patterns import PatternSet
from repro.sim.threeval import joint_x_injection_reach, x_injection_reach

#: Registry capacity: a campaign trial touches at most a handful of
#: contexts (full pattern set + the failing-subset of each engine).
MAX_CONTEXTS = 16

#: Per-context bound on each memo table; on overflow the table is cleared
#: (diffs are small, so this is generous for every shipped circuit).
MAX_MEMO_ENTRIES = 65536

#: Word size, in bits, of one lane-packed flip pass: a context of ``W``
#: patterns packs ``FLIP_PACK_BITS // W`` sites per pass.  Narrower words
#: pay the per-gate interpreter overhead more often; much wider ones pay
#: for big-integer arithmetic.  Mean sweep per rnd1000 single-defect die
#: (~2,700 sites, 4-64 failing patterns; 2-core Xeon, Python 3.11):
#: 1024 bits 0.097 s, 2048 0.068 s, 4096 0.063 s, 8192 0.064 s, 16384
#: 0.066 s, every site in one word 0.18 s.
FLIP_PACK_BITS = 4096


class SimContext:
    """Memoized simulation state for one ``(netlist, patterns)`` pair."""

    __slots__ = (
        "netlist",
        "patterns",
        "mask",
        "base",
        "flip_lanes",
        "_flip",
        "_resim",
        "_xreach",
        "_kernels",
        "_base_slots",
        "_valid_sites",
    )

    def __init__(self, netlist: Netlist, patterns: PatternSet):
        self.netlist = netlist
        self.patterns = patterns
        self.mask = patterns.mask
        self.base = simulate(netlist, patterns)
        #: sites per lane-packed flip pass
        self.flip_lanes = max(1, FLIP_PACK_BITS // max(1, patterns.n))
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
            self._base_slots = base_slots(self._kernels.program, self.base)

    # -- memoized queries --------------------------------------------------

    def resim_diff(self, overrides: Mapping[Site, int]) -> dict[str, int]:
        """Per-output delta vectors of resimulating with ``overrides``.

        Keyed by the override *signature*, so behaviorally-equivalent
        requests (same sites forced to the same vectors, whatever stage or
        fault model produced them) are simulated once.  Under the compiled
        backend a miss runs :func:`~repro.sim.event.cone_output_diff`
        against the context's own base slots, with site validation
        memoized in the context -- the same few hundred sites recur across
        thousands of what-if queries.  The returned dict is shared --
        callers must not mutate it.
        """
        key = frozenset(overrides.items())
        diff = self._resim.get(key)
        if diff is not None:
            COUNTERS.resim_hits += 1
            return diff
        COUNTERS.resim_misses += 1
        if self._kernels is not None:
            diff = cone_output_diff(
                self.netlist,
                self._kernels,
                self._base_slots,
                overrides,
                self.mask,
                self._valid_sites,
            )
        else:
            diff = resim_output_diff(self.netlist, self.base, overrides, self.mask)
        if len(self._resim) >= MAX_MEMO_ENTRIES:
            self._resim.clear()
        self._resim[key] = diff
        return diff

    def flip_signatures(self, sites: Sequence[Site]) -> list[dict[str, int]]:
        """Output deltas of complementing each of ``sites``' fault-free
        value, one dict per site (keys in netlist output order).

        The signature a flipped site leaves on the outputs is the unit of
        evidence in critical-path tracing, per-test analysis and candidate
        distinguishing; memoized per site.  Sites missing from the memo
        are validated and simulated :attr:`flip_lanes` at a time, one
        lane-packed full pass each.  The returned dicts are shared --
        callers must not mutate them.
        """
        memo = self._flip
        valid = self._valid_sites
        found: dict[Site, dict[str, int] | None] = {}
        todo: list[Site] = []
        for site in sites:
            if site in found:
                continue
            diff = found[site] = memo.get(site)
            if diff is None:
                if site not in valid:
                    self.netlist.validate_site(site)
                    valid.add(site)
                todo.append(site)
        COUNTERS.flip_misses += len(todo)
        COUNTERS.flip_hits += len(sites) - len(todo)
        lanes = self.flip_lanes
        for start in range(0, len(todo), lanes):
            chunk = todo[start : start + lanes]
            diffs = simulate_flips(self.netlist, self.patterns, self.base, chunk)
            for site, diff in zip(chunk, diffs):
                found[site] = diff
                if len(memo) >= MAX_MEMO_ENTRIES:
                    memo.clear()
                memo[site] = diff
        return [found[site] for site in sites]

    def flip_signature(self, site: Site) -> dict[str, int]:
        """:meth:`flip_signatures` of one site."""
        return self.flip_signatures((site,))[0]

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


def flip_output_diffs(
    netlist: Netlist,
    patterns: PatternSet,
    sites: Sequence[Site],
    base_values: Mapping[str, int],
) -> list[dict[str, int]]:
    """Per-output deltas of complementing each of ``sites`` alone against
    ``base_values``, one dict per site.

    The one single-flip query outside the pipeline's own context: served
    by the registered context's packed sweep when ``base_values`` is that
    context's base (see :func:`active_context`), otherwise by one cone
    resimulation per site against the caller's base.  The returned dicts
    may be shared -- callers must not mutate them.
    """
    ctx = active_context(netlist, patterns, base_values)
    if ctx is not None:
        return ctx.flip_signatures(sites)
    mask = patterns.mask
    return [
        resim_output_diff(
            netlist, base_values, {site: (base_values[site.net] ^ mask) & mask}, mask
        )
        for site in sites
    ]


def reset_sim_caches() -> None:
    """Drop every context, kernel and counter (testing/benchmark hook)."""
    _CONTEXTS.clear()
    reset_kernel_cache()
    COUNTERS.reset()
