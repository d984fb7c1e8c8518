"""Exact per-test (per-failing-pattern) explanation analysis.

The observation that makes assumption-free diagnosis *exact* at gate
level: under any defect mechanism whatsoever, a candidate site carries,
for each pattern, either its fault-free value or the complement.  The
whole faulty circuit at pattern ``t`` is therefore the fault-free circuit
with every defect site *overridden*: each site in the multiplet either
flipped or **pinned at its fault-free value**.  Pinning matters -- a
defect site whose faulty value happens to equal the fault-free one still
blocks error propagation from an upstream defect through it (e.g. a
stuck-at-0 net that the other defect would have driven to 1).

Hence a multiplet ``M`` explains failing pattern ``t`` **iff some
assignment (flip / pin per site of M) reproduces exactly the observed
failing outputs of t** -- no fault model enters the criterion.  This
subsumes and sharpens SLAT: SLAT additionally demands a singleton whose
flips come from one stuck-at value across patterns.

Everything here is bit-parallel *over the failing patterns only*: passing
patterns carry no per-test information (every multiplet trivially
"explains" them with the all-pins assignment), so the analysis simulates
on the failing-pattern subset, which keeps assignment enumeration cheap
even for multiplet sizes of 5-6.

Relationship to the X-cover stage: X injection is the sound
over-approximation (necessary condition) used to prune the candidate
space and bound masking-pair searches; the assignment check is the exact
verifier used for covering, enumeration and ranking.  Ablation A measures
the gap between diagnosing with the envelope alone versus with exact
verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from repro.circuit.netlist import Netlist, Site
from repro.core.budget import Budget
from repro.core.xcover import Atom
from repro.sim.cache import SimContext, sim_context
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog


def _match_vector(
    diff: Mapping[str, int],
    obs_vec: Mapping[str, int],
    x_vec: Mapping[str, int],
    work_mask: int,
) -> int:
    """Work positions where ``diff`` reproduces the observed failure exactly.

    Bit ``pos`` is set iff the assignment's predicted flips (X-tier strobes
    excluded) equal the observed failing outputs of position ``pos`` and
    are non-empty.  One pass of integer ops over the output alphabet
    replaces a per-position set comparison -- the inner loop of cover
    verification.
    """
    match = work_mask
    pred_any = 0
    for out, obs in obs_vec.items():
        pred = diff.get(out, 0) & ~x_vec.get(out, 0)
        match &= ~(pred ^ obs)
        pred_any |= pred
    for out, vec in diff.items():
        if out not in obs_vec:
            # Predicted flip on a never-failing output: disqualifies the
            # position unless the strobe is X-tier (evidence-free).
            pred = vec & ~x_vec.get(out, 0)
            match &= ~pred
            pred_any |= pred
    return match & pred_any


def _ids(bits: int):
    """Positions of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass
class PerTestAnalysis:
    """Single-flip effects of every candidate site plus joint-flip services.

    Internally all diff vectors live in *work space*: bit ``j`` refers to
    the ``j``-th failing pattern.  Public accessors take and return
    original pattern indices, except :meth:`explained_mask`.

    Joint queries run on *interned* sites: each site gets a bit id (the
    analysis sites first, in order; any other site on first use), so a
    flip/pin assignment is a pair of ints and the assignment memo never
    hashes a :class:`Site`.
    """

    netlist: Netlist
    patterns: PatternSet  #: the full applied test set (original indices)
    datalog: Datalog
    sites: tuple[Site, ...]
    atoms: frozenset[Atom]
    site_atoms: dict[Site, frozenset[Atom]]
    #: failing pattern (original index) -> sites whose lone flip reproduces it
    exact_singletons: dict[int, tuple[Site, ...]]
    #: per-site per-output flip diffs in work space
    flip_diff: dict[Site, dict[str, int]]
    #: shared simulation context over the failing-pattern subset; joint
    #: resimulations route through its override-signature memo so repeated
    #: requests (across covers, trials, stages) are simulated once
    _ctx: SimContext
    _pos_of: dict[int, int] = field(default_factory=dict)
    #: transposed evidence: output -> work-position bit vectors of observed
    #: failing (resp. X-tier) strobes, for bit-parallel exact matching
    _obs_vec: dict[str, int] = field(default_factory=dict)
    _x_vec: dict[str, int] = field(default_factory=dict)
    #: interned sites: site -> bit id, and bit id -> site
    _site_id: dict[Site, int] = field(default_factory=dict)
    _id_site: list[Site] = field(default_factory=list)
    #: (flip bits, kept pin bits) -> (per-output work-space diff, match
    #: vector); requested (flip bits, pin bits) keys alias their entry
    _memo: dict[tuple[int, int], tuple[dict[str, int], int]] = field(
        default_factory=dict
    )

    @property
    def work_mask(self) -> int:
        """Work-space mask: one bit per failing pattern."""
        return self._ctx.mask

    # -- single-site queries ---------------------------------------------------

    def atoms_of(self, site: Site) -> frozenset[Atom]:
        """Observed fail atoms that flipping ``site`` reproduces."""
        return self.site_atoms.get(site, frozenset())

    def diff_at(self, site: Site, pattern_index: int) -> frozenset[str]:
        """Outputs flipped by inverting ``site`` under one failing pattern."""
        pos = self._pos_of[pattern_index]
        diff = self.flip_diff.get(site)
        if diff is None:
            diff = self.assignment_diff((site,))
        return frozenset(out for out, vec in diff.items() if (vec >> pos) & 1)

    def exact_match(self, site: Site, pattern_index: int) -> bool:
        return site in self.exact_singletons.get(pattern_index, ())

    # -- interned assignments ----------------------------------------------------

    def _bit(self, site: Site) -> int:
        """The interned bit of ``site`` (interning it on first use)."""
        sid = self._site_id.get(site)
        if sid is None:
            sid = self._site_id[site] = len(self._id_site)
            self._id_site.append(site)
        return 1 << sid

    def _assignment(
        self, flip_bits: int, pin_bits: int
    ) -> tuple[dict[str, int], int]:
        """Memoized (diff, match vector) of flipping ``flip_bits`` and
        pinning ``pin_bits`` (disjoint interned bit sets).

        Pinned sites are overridden at their fault-free values, modeling a
        defect site that agrees with the healthy value but still dominates
        its node (blocking propagation from other defects).  A pin outside
        the flips' combined stem fanout cone can never be disturbed and is
        dropped, which normalizes the key -- the reuse this buys across
        multiplet-enumeration combos is what keeps exact enumeration
        tractable.  The requested key is memoized too, so a repeated
        request skips the normalization.
        """
        entry = self._memo.get((flip_bits, pin_bits))
        if entry is not None:
            return entry
        sites = self._id_site
        kept = pin_bits
        if pin_bits and flip_bits:
            cone = self.netlist.fanout_cone(sites[sid].net for sid in _ids(flip_bits))
            for sid in _ids(pin_bits):
                if sites[sid].net not in cone:
                    kept ^= 1 << sid
        entry = self._memo.get((flip_bits, kept))
        if entry is None:
            diff: dict[str, int] = {}
            if flip_bits:
                mask = self.work_mask
                base = self._ctx.base
                overrides = {}
                for sid in _ids(flip_bits):
                    site = sites[sid]
                    overrides[site] = (base[site.net] ^ mask) & mask
                for sid in _ids(kept):
                    site = sites[sid]
                    overrides[site] = base[site.net]
                diff = self._ctx.resim_diff(overrides)
            match = _match_vector(diff, self._obs_vec, self._x_vec, self.work_mask)
            entry = (diff, match)
            self._memo[(flip_bits, kept)] = entry
        self._memo[(flip_bits, pin_bits)] = entry
        return entry

    def _explained(self, bits: Sequence[int], wanted: int) -> int:
        """Positions of ``wanted`` explained by some flip/pin assignment of
        the distinct interned ``bits``.

        Enumerates flip sets by increasing size with the remaining sites
        pinned, stopping once every wanted position is explained.
        """
        everything = sum(bits)
        remaining = wanted
        for size in range(1, len(bits) + 1):
            for flips in combinations(bits, size):
                flip_bits = sum(flips)
                remaining &= ~self._assignment(flip_bits, everything ^ flip_bits)[1]
                if not remaining:
                    return wanted
        return wanted & ~remaining

    # -- joint queries ---------------------------------------------------------------

    def assignment_diff(
        self, flips: Iterable[Site], pins: Iterable[Site] = ()
    ) -> dict[str, int]:
        """Work-space per-output diff of flipping ``flips`` / pinning ``pins``
        (pins that are also flipped count as flips).  The returned dict is
        shared -- callers must not mutate it."""
        flip_bits = 0
        for site in flips:
            flip_bits |= self._bit(site)
        pin_bits = 0
        for site in pins:
            pin_bits |= self._bit(site)
        return self._assignment(flip_bits, pin_bits & ~flip_bits)[0]

    def joint_flip_diff(self, sites: Iterable[Site]) -> dict[str, int]:
        """Work-space per-output diff of flipping all ``sites`` (no pins)."""
        return self.assignment_diff(sites)

    def subset_explains(self, subset: Sequence[Site], pattern_index: int) -> bool:
        """Does the multiplet ``subset`` explain pattern ``t`` exactly?

        Tries every flip/pin assignment over the subset's sites.  X-tier
        strobes of the pattern carry no evidence, so predicted flips
        there neither help nor disqualify a match.
        """
        bits = [self._bit(site) for site in dict.fromkeys(subset)]
        return bool(self._explained(bits, 1 << self._pos_of[pattern_index]))

    def explained_mask(self, multiplet: Iterable[Site]) -> int:
        """Work-space mask of the failing patterns explained by some
        flip/pin assignment of the multiplet (bit ``j`` = ``j``-th failing
        pattern).

        Each assignment costs one bit-parallel resimulation over the
        failing patterns, memoized across calls.
        """
        bits = [self._bit(site) for site in dict.fromkeys(multiplet)]
        return self._explained(bits, self.work_mask)

    def explained_patterns(self, multiplet: Iterable[Site]) -> set[int]:
        """Failing patterns (original indices) explained by some flip/pin
        assignment of the multiplet."""
        failing = self.datalog.failing_indices
        return {failing[pos] for pos in _ids(self.explained_mask(multiplet))}

    def explains_all(self, multiplet: Iterable[Site]) -> bool:
        return self.explained_mask(multiplet) == self.work_mask

    # -- necessary conditions (sound prefilters of the exact check) ---------------

    def output_reach(self, site: Site) -> int:
        """Bits (over ``netlist.outputs``) of the outputs structurally
        downstream of ``site``: the only outputs any assignment involving
        it can change."""
        root = site.net if site.branch is None else site.branch[0]
        cone = self.netlist.fanout_cone((root,))
        bits = 0
        for pos, out in enumerate(self.netlist.outputs):
            if out in cone:
                bits |= 1 << pos
        return bits

    def failing_outputs(self) -> int:
        """Bits (over ``netlist.outputs``) of the outputs with an observed
        failure on a non-X strobe: a complete cover must reach each one."""
        x_vec = self._x_vec
        bits = 0
        for pos, out in enumerate(self.netlist.outputs):
            if self._obs_vec.get(out, 0) & ~x_vec.get(out, 0):
                bits |= 1 << pos
        return bits

    def x_envelope_admits(self, sites: Iterable[Site]) -> bool:
        """Whether X forced at every site jointly reaches every observed
        non-X failing strobe.

        Every flip/pin assignment of the sites refines that X injection
        (X-monotonicity), so a strobe the joint X cannot reach keeps its
        fault-free value under all of them and no assignment explains its
        pattern: ``False`` refutes the multiplet as a complete cover.
        """
        reach = self._ctx.joint_x_reach(sites)
        x_vec = self._x_vec
        for out, obs in self._obs_vec.items():
            if obs & ~x_vec.get(out, 0) & ~reach.get(out, 0):
                return False
        return True


def build_pertest(
    netlist: Netlist,
    patterns: PatternSet,
    datalog: Datalog,
    sites: Sequence[Site],
    base_values: Mapping[str, int] | None = None,
    budget: Budget | None = None,
) -> PerTestAnalysis:
    """Compute single-flip effects and exact singleton matches for ``sites``.

    ``base_values`` (full-test-set fault-free values) is accepted for API
    symmetry but the analysis derives its own failing-subset simulation.

    Under a ``budget`` the single-flip sweep is checked per site (each
    costs one cone-restricted resimulation, charged as one expansion); on
    exhaustion the analysis covers only the sites swept so far and a
    ``pertest`` truncation is recorded.
    """
    del base_values  # the analysis works on the failing-pattern subset
    failing = datalog.failing_indices
    work = patterns.subset(list(failing))
    ctx = sim_context(netlist, work)
    pos_of = {idx: pos for pos, idx in enumerate(failing)}
    atoms = frozenset(datalog.fail_atoms())
    # Transposed work-space evidence comes packed straight from the
    # datalog (built once per datalog, shared across analyses and stages)
    # instead of being re-transposed here; the work axis is the same (bit
    # j = j-th failing record, records are sorted by pattern index, and
    # `failing` above preserves that order).  The shared dicts are
    # read-only -- _match_vector and the atom sweeps only probe them.
    obs_vec = datalog.fail_vectors()
    x_vec = datalog.fail_x_vectors()

    flip_diff: dict[Site, dict[str, int]] = {}
    site_atoms: dict[Site, frozenset[Atom]] = {}
    exact: dict[int, list[Site]] = {idx: [] for idx in failing}
    #: site -> work positions its lone flip reproduces exactly
    match_of: dict[Site, int] = {}
    #: flip-response signature -> first site seen with it
    sig_seen: dict[tuple, Site] = {}
    sites = list(sites)
    for done, site in enumerate(sites):
        if (
            budget is not None
            and done
            and budget.stop("pertest", done, len(sites))
        ):
            sites = sites[:done]
            break
        if budget is not None:
            # Charged per site regardless of memo warmth, so anytime
            # truncation points stay deterministic across cache states.
            budget.charge()
        diff = ctx.flip_signature(site)
        flip_diff[site] = diff
        # Response-signature dedup: a site whose flip leaves the same
        # output signature as an earlier one is behaviorally equivalent on
        # this evidence -- reuse the derived atoms and exact matches
        # instead of re-walking the failing patterns.
        signature = tuple(sorted(diff.items()))
        twin = sig_seen.get(signature)
        if twin is None:
            sig_seen[signature] = site
            match_of[site] = _match_vector(diff, obs_vec, x_vec, work.mask)
            covered: set[Atom] = set()
            for out, vec in diff.items():
                reproduced = vec & obs_vec.get(out, 0) & ~x_vec.get(out, 0)
                while reproduced:
                    low = reproduced & -reproduced
                    covered.add((failing[low.bit_length() - 1], out))
                    reproduced ^= low
            site_atoms[site] = frozenset(covered)
        else:
            site_atoms[site] = site_atoms[twin]
            match_of[site] = match_of[twin]
        for pos in _ids(match_of[site]):
            exact[failing[pos]].append(site)

    analysis = PerTestAnalysis(
        netlist=netlist,
        patterns=patterns,
        datalog=datalog,
        sites=tuple(sites),
        atoms=atoms,
        site_atoms=site_atoms,
        exact_singletons={idx: tuple(v) for idx, v in exact.items()},
        flip_diff=flip_diff,
        _ctx=ctx,
        _pos_of=pos_of,
        _obs_vec=obs_vec,
        _x_vec=x_vec,
    )
    # Intern the analysis sites in order and seed the assignment memo with
    # the single flips just computed: every size-1 check is then a hit.
    for site in sites:
        analysis._memo[(analysis._bit(site), 0)] = (flip_diff[site], match_of[site])
    return analysis


def pair_search(
    analysis: PerTestAnalysis,
    pattern_index: int,
    pool: Sequence[Site] | None = None,
    cap: int = 300,
    budget: Budget | None = None,
) -> list[tuple[Site, Site]]:
    """Site pairs whose joint assignment reproduces pattern ``t`` exactly.

    Used for failing patterns with no singleton explanation -- the
    signature of interacting defects (joint sensitization or masking).
    The pool defaults to candidate sites inside the fan-in cone of the
    pattern's failing outputs, ranked by single-flip overlap with the
    observed failures so that promising pairs are tried first.

    A ``budget`` bounds the pair sweep on top of ``cap``: each tried pair
    charges one expansion, and exhaustion ends the search with the matches
    found so far (the caller records the stage truncation).
    """
    observed = analysis.datalog.failing_outputs_of(pattern_index)
    if pool is None:
        cone = analysis.netlist.fanin_cone(observed)
        pool = [s for s in analysis.sites if s.net in cone]

    def overlap(site: Site) -> int:
        return len(analysis.diff_at(site, pattern_index) & observed)

    ranked = sorted(pool, key=overlap, reverse=True)
    matches: list[tuple[Site, Site]] = []
    tried = 0
    for a, b in combinations(ranked, 2):
        if tried >= cap:
            break
        if budget is not None:
            if tried and budget.exceeded():
                break
            budget.charge()
        tried += 1
        if analysis.subset_explains((a, b), pattern_index):
            matches.append((a, b))
    return matches
