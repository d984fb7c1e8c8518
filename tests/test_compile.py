"""Compiled simulation kernels: differential suite and cache invalidation.

The compiled backend must be *observationally identical* to the
interpreted simulators -- same values, same dict key order (reports are
compared byte-for-byte downstream), same raised errors -- across every
kernel variant: full 2-valued, cone-restricted incremental, 3-valued,
each with stem and branch (pin) overrides.  The interpreted path is the
oracle; ``REPRO_SIM`` switches backends at call time.

The second half pins the caching contract: kernels and contexts are keyed
by *content* fingerprints, so structurally identical objects share and any
mutation -- an edited gate, a changed pattern -- misses cleanly.
"""

from __future__ import annotations

import random

import pytest

from repro.circuit.gates import GateKind, tv_all_x, tv_xmask
from repro.circuit.generators import alu, random_dag, ripple_carry_adder
from repro.circuit.netlist import Site
from repro.errors import NetlistError, SimulationError
from repro.sim.cache import active_context, reset_sim_caches, sim_context
from repro.sim.compile import (
    COUNTERS,
    MAX_COMPILED_GATES,
    VARIANTS,
    active_kernels,
    backend,
    emit_kernel_source,
    kernels_for,
)
from repro.sim.event import (
    changed_outputs,
    resim_output_diff,
    resimulate_with_overrides,
)
from repro.sim.logicsim import simulate
from repro.sim.patterns import PatternSet
from repro.sim.threeval import (
    joint_x_injection_reach,
    simulate3,
    x_injection_reach,
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test starts cold; leaked warmth must not couple tests."""
    reset_sim_caches()
    yield
    reset_sim_caches()


def _random_netlist(seed: int):
    rng = random.Random(seed)
    return random_dag(
        rng.randint(20, 90),
        n_inputs=rng.randint(4, 10),
        n_outputs=rng.randint(2, 6),
        seed=seed,
        max_fanin=rng.choice([2, 3, 3]),
        locality=rng.choice([8, 24]),
    )


def _random_overrides(netlist, mask: int, seed: int, with_pins: bool):
    """A mixed bag of stem and (optionally) branch overrides."""
    rng = random.Random(seed)
    nets = list(netlist.nets())
    overrides: dict[Site, int] = {}
    for net in rng.sample(nets, k=min(4, len(nets))):
        overrides[Site(net)] = rng.getrandbits(mask.bit_length()) & mask
    if with_pins:
        stems = [net for net in nets if len(netlist.fanout(net)) > 1]
        for net in rng.sample(stems, k=min(3, len(stems))):
            gate, pin = rng.choice(netlist.fanout(net))
            overrides[Site(net, (gate, pin))] = (
                rng.getrandbits(mask.bit_length()) & mask
            )
    return overrides


def _deep_ordered(obj):
    """Recursively turn dicts into item lists, making ``==`` key-order
    sensitive (reports are compared byte-for-byte downstream)."""
    if isinstance(obj, dict):
        return [(k, _deep_ordered(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [_deep_ordered(v) for v in obj]
    return obj


#: Backend-specific counters, excluded from the dispatcher parity audit
#: (never surfaced in reports).
_BACKEND_ONLY_COUNTERS = ("kernel_compiles",)


def _dispatcher_counters() -> dict:
    snap = COUNTERS.snapshot()
    for name in _BACKEND_ONLY_COUNTERS:
        snap.pop(name)
    return snap


def _both_backends(monkeypatch, fn):
    """Run ``fn()`` under both backends, auditing counter parity.

    Asserts the dispatcher-level ``SimCounters`` are identical under both
    ``REPRO_SIM`` settings, then returns ``(compiled, interp)`` for the
    caller's compiled-vs-oracle checks.
    """
    results = {}
    counters = {}
    for env in ("compiled", "interp"):
        monkeypatch.setenv("REPRO_SIM", env)
        reset_sim_caches()
        results[env] = fn()
        counters[env] = _dispatcher_counters()
    assert counters["interp"] == counters["compiled"]
    return results["compiled"], results["interp"]


#: Pattern counts spanning the interesting widths of a Python-int vector:
#: one bit, just under/at/over one machine word, ragged multi-word tails.
WIDTHS = (1, 63, 64, 65, 100, 130)


def _scenario(seed: int, n: int):
    """One full engine workout; returns an order-sensitive result bundle."""
    rng = random.Random(seed * 1000 + n)
    netlist = random_dag(
        rng.randint(25, 80),
        n_inputs=rng.randint(4, 8),
        n_outputs=rng.randint(2, 5),
        seed=seed,
        max_fanin=rng.choice([2, 3]),
    )
    pats = PatternSet.random(netlist, n, seed=seed + 1)
    mask = pats.mask
    gates = sorted(netlist.gates)
    out = {}
    base = simulate(netlist, pats)
    out["base"] = list(base.items())

    stem = Site(gates[len(gates) // 2])
    input_stem = Site(netlist.inputs[0])
    gname = gates[-1]
    pin = Site(netlist.gates[gname].inputs[0], branch=(gname, 0))
    over = {
        stem: rng.getrandbits(n) & mask,
        input_stem: rng.getrandbits(n) & mask,
        pin: rng.getrandbits(n) & mask,
    }
    out["forced"] = list(simulate(netlist, pats, over).items())
    # Repeats run on warm kernels and memoized cone slots; they must
    # return exactly what the first, cold call did.
    for rep in range(3):
        out[f"resim{rep}"] = list(
            resimulate_with_overrides(netlist, base, over, mask).items()
        )
        out[f"diff{rep}"] = list(
            resim_output_diff(netlist, base, over, mask).items()
        )

    # Three-valued with an all-X input column and raw (unmasked) TVs.
    over3 = {
        Site(netlist.inputs[1]): tv_all_x(mask),
        stem: (rng.getrandbits(n + 2), rng.getrandbits(n + 2)),
        pin: (rng.getrandbits(n), rng.getrandbits(n)),
    }
    out["sim3"] = list(simulate3(netlist, pats, over3).items())

    for rep in range(2):
        for site in (stem, input_stem, pin, Site(netlist.outputs[0])):
            out[f"xreach{rep}{site}"] = list(
                x_injection_reach(netlist, pats, site, base).items()
            )
    return out


# -- differential properties ---------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("with_pins", [False, True])
    def test_simulate_matches_interp(self, monkeypatch, seed, with_pins):
        n = _random_netlist(seed)
        pats = PatternSet.random(n, 17, seed=seed)
        over = _random_overrides(n, pats.mask, seed + 100, with_pins)

        def run():
            plain = simulate(n, pats)
            forced = simulate(n, pats, overrides=over)
            return plain, forced

        (c_plain, c_forced), (i_plain, i_forced) = _both_backends(monkeypatch, run)
        assert dict(c_plain) == dict(i_plain)
        assert list(c_plain) == list(i_plain)  # key order: byte identity
        assert dict(c_forced) == dict(i_forced)
        assert list(c_forced) == list(i_forced)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("with_pins", [False, True])
    def test_cone_resim_matches_interp(self, monkeypatch, seed, with_pins):
        n = _random_netlist(seed)
        pats = PatternSet.random(n, 23, seed=seed)
        over = _random_overrides(n, pats.mask, seed + 200, with_pins)

        def run():
            base = simulate(n, pats)
            changed = resimulate_with_overrides(n, base, over, pats.mask)
            diff = changed_outputs(n, changed, base, pats.mask)
            return dict(changed), list(changed), diff

        (c_ch, c_order, c_diff), (i_ch, i_order, i_diff) = _both_backends(
            monkeypatch, run
        )
        assert c_ch == i_ch
        assert c_order == i_order
        assert c_diff == i_diff

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("with_pins", [False, True])
    def test_simulate3_matches_interp(self, monkeypatch, seed, with_pins):
        n = _random_netlist(seed)
        pats = PatternSet.random(n, 19, seed=seed)
        rng = random.Random(seed + 300)
        over3 = {}
        for site, _vec in _random_overrides(
            n, pats.mask, seed + 300, with_pins
        ).items():
            # Random TVs, deliberately including unmasked and X-carrying
            # pairs -- the interpreted path stores raw stem TVs verbatim.
            ones = rng.getrandbits(pats.n + 2)
            zeros = rng.getrandbits(pats.n + 2)
            over3[site] = (ones, zeros)
        over3[Site(rng.choice(list(n.nets())))] = tv_all_x(pats.mask)

        def run():
            plain = simulate3(n, pats)
            forced = simulate3(n, pats, over3)
            return plain, forced

        (c_plain, c_forced), (i_plain, i_forced) = _both_backends(monkeypatch, run)
        assert dict(c_plain) == dict(i_plain)
        assert list(c_plain) == list(i_plain)
        assert dict(c_forced) == dict(i_forced)
        assert list(c_forced) == list(i_forced)

    @pytest.mark.parametrize("seed", range(4))
    def test_x_reach_matches_interp_at_every_site(self, monkeypatch, seed):
        n = _random_netlist(seed)
        pats = PatternSet.random(n, 13, seed=seed)
        sites = [Site(net) for net in n.nets()]
        for net in n.nets():
            for gate, pin in n.fanout(net):
                sites.append(Site(net, (gate, pin)))

        def run():
            base = simulate(n, pats)
            return [x_injection_reach(n, pats, site, base) for site in sites]

        compiled, interp = _both_backends(monkeypatch, run)
        assert compiled == interp

    @pytest.mark.parametrize("circuit", ["rnd0", "rnd1", "rnd2", "rnd3", "rca4", "alu4"])
    def test_joint_x_reach_matches_full_simulate3(self, monkeypatch, circuit):
        """Joint X reach equals a full three-valued pass with X forced at
        every site, on every output, under both backends with identical
        counters: stems, branches, primary-input stems, primary-output
        stems and mixed stem+branch sets, including X-equivalent sites
        (single-fanout stems, BUF/NOT/XOR/XNOR pins) that share a memo
        entry."""
        if circuit == "rca4":
            n = ripple_carry_adder(4)
        elif circuit == "alu4":
            n = alu(4)
        else:
            n = _random_netlist(int(circuit[3:]))
        pats = PatternSet.random(n, 13, seed=5)
        rng = random.Random(circuit)
        gate_stems = [Site(net) for net in n.topo_order if net not in n.outputs]
        branches = [
            Site(net, (gate, pin)) for net in n.nets() for gate, pin in n.fanout(net)
        ]
        own_branch = branches[0]
        every_site = [Site(net) for net in n.nets()] + branches
        site_sets = [
            rng.sample(gate_stems, 3),
            rng.sample(branches, 2),
            [Site(net) for net in rng.sample(n.inputs, 2)],
            [Site(net) for net in rng.sample(n.outputs, 2)],
            rng.sample(gate_stems, 2) + rng.sample(branches, 2),
            [Site(own_branch.net), own_branch],
            [Site(n.inputs[0]), Site(n.outputs[-1]), rng.choice(branches)],
        ] + [rng.sample(every_site, rng.randint(1, 4)) for _ in range(60)]

        def run():
            ctx = sim_context(n, pats)
            return [ctx.joint_x_reach(sites) for sites in site_sets]

        compiled, interp = _both_backends(monkeypatch, run)
        assert _deep_ordered(compiled) == _deep_ordered(interp)
        all_x = tv_all_x(pats.mask)
        for sites, reach in zip(site_sets, compiled):
            full = simulate3(n, pats, {site: all_x for site in sites})
            for out in n.outputs:
                assert reach.get(out, 0) == tv_xmask(full[out]) & pats.mask, (
                    sites,
                    out,
                )

    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("seed", range(3))
    def test_scenario_matches_interp(self, monkeypatch, seed, n):
        compiled, interp = _both_backends(monkeypatch, lambda: _scenario(seed, n))
        assert compiled == interp

    def test_structured_circuits_match(self, monkeypatch):
        for n in (ripple_carry_adder(4), alu(4)):
            pats = PatternSet.random(n, 31, seed=7)
            over = _random_overrides(n, pats.mask, 7, with_pins=True)

            def run():
                base = simulate(n, pats)
                changed = resimulate_with_overrides(n, base, over, pats.mask)
                return dict(base), changed_outputs(n, changed, base, pats.mask)

            compiled, interp = _both_backends(monkeypatch, run)
            assert compiled == interp

    def test_oversize_netlist_falls_back_to_interp(self, monkeypatch):
        n = _random_netlist(3)
        monkeypatch.setattr("repro.sim.compile.MAX_COMPILED_GATES", 5)
        assert n.n_gates > 5
        assert active_kernels(n) is None
        pats = PatternSet.random(n, 9, seed=3)
        values = simulate(n, pats)  # must still answer, interpreted
        monkeypatch.setattr("repro.sim.compile.MAX_COMPILED_GATES", 10**9)
        assert dict(simulate(n, pats)) == dict(values)

    def test_override_width_errors_match(self, monkeypatch):
        n = _random_netlist(1)
        pats = PatternSet.random(n, 5, seed=1)
        mask = pats.mask
        gates = sorted(n.gates)
        bad = {Site(next(iter(n.nets()))): 1 << pats.n}
        # A valid site first, so a per-call validation memo is exercised
        # before the invalid one.
        unknown = {Site(gates[0]): 0, Site("no_such_net"): 0}
        for env in ("compiled", "interp"):
            monkeypatch.setenv("REPRO_SIM", env)
            reset_sim_caches()
            with pytest.raises(SimulationError):
                simulate(n, pats, overrides=bad)
            base = simulate(n, pats)
            ctx = sim_context(n, pats)
            # Memoize other sites' validation first: a warm memo must not
            # let an unseen bad site or value through.
            ctx.resim_diff({Site(gates[1]): 0, Site(gates[2]): mask})
            queries = (
                lambda over: resim_output_diff(n, base, over, mask),
                lambda over: resimulate_with_overrides(n, base, over, mask),
                ctx.resim_diff,
            )
            for query in queries:
                with pytest.raises(SimulationError):
                    query(bad)
                with pytest.raises(SimulationError):
                    query({Site(gates[1]): 1 << pats.n})
                with pytest.raises(NetlistError):
                    query(unknown)


# -- backend selection ---------------------------------------------------------


class TestBackendSelection:
    def test_default_is_compiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM", raising=False)
        assert backend() == "compiled"
        monkeypatch.setenv("REPRO_SIM", " ")
        assert backend() == "compiled"

    @pytest.mark.parametrize("alias", ["compiled", " COMPILED ", "Compiled"])
    def test_compiled_aliases(self, monkeypatch, alias):
        monkeypatch.setenv("REPRO_SIM", alias)
        assert backend() == "compiled"

    @pytest.mark.parametrize("alias", ["interp", " INTERP ", "Interp"])
    def test_interp_aliases(self, monkeypatch, alias):
        monkeypatch.setenv("REPRO_SIM", alias)
        assert backend() == "interp"

    @pytest.mark.parametrize(
        "value",
        [
            "packed",
            "PPSFP",
            " ppsfp ",
            # Former aliases: the two backend names are the only spellings.
            "compile",
            "COMPILE ",
            "kernel",
            "kernels",
            "interpreted",
            "python",
            "Python",
        ],
    )
    def test_packed_is_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SIM", value)
        with pytest.raises(
            SimulationError, match=r"\(expected 'compiled' or 'interp'\)$"
        ):
            backend()

    def test_unknown_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM", "verilator")
        with pytest.raises(SimulationError):
            backend()


# -- lane-packed single-flip sweep ----------------------------------------------


def _gate_zoo():
    """Every gate kind, plus each site shape the packed sweep special-cases.

    ``b``, ``d`` and ``x1`` fan out to several pins; ``m1`` and ``g3`` are
    primary outputs that also feed one gate; ``g2`` and ``k1`` feed one
    pin and are not outputs (their branch is their stem); ``a`` is an
    input that is also observed directly.
    """
    from repro.circuit.gates import Gate
    from repro.circuit.netlist import Netlist

    gates = [
        Gate("x1", GateKind.XOR, ("a", "b")),
        Gate("x2", GateKind.XNOR, ("b", "c")),
        Gate("m1", GateKind.MUX, ("x1", "x2", "s")),
        Gate("k0", GateKind.CONST0, ()),
        Gate("k1", GateKind.CONST1, ()),
        Gate("g1", GateKind.AND, ("m1", "k1")),
        Gate("g2", GateKind.OR, ("c", "k0")),
        Gate("g3", GateKind.NAND, ("g1", "d")),
        Gate("g4", GateKind.NOR, ("g2", "x1", "x1")),
        Gate("g5", GateKind.NOT, ("d",)),
        Gate("g6", GateKind.BUF, ("g3",)),
        Gate("g7", GateKind.XOR, ("g5", "g6", "b")),
    ]
    return Netlist(
        "zoo", ("a", "b", "c", "d", "s"), ("m1", "g3", "g4", "g7", "a"), gates
    )


def _every_flip_site(netlist):
    """Every stem and every branch, single-fanout branches included."""
    sites = [Site(net) for net in netlist.nets()]
    for gate in netlist.topo_order:
        for pin, src in enumerate(netlist.gates[gate].inputs):
            sites.append(Site(src, (gate, pin)))
    return sites


class TestFlipSignatures:
    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("circuit", ["zoo", "dag3", "dag8"])
    @pytest.mark.parametrize("lanes", [None, 7])
    def test_packed_sweep_matches_per_site_resim(
        self, monkeypatch, circuit, n, lanes
    ):
        if circuit == "zoo":
            netlist = _gate_zoo()
        else:
            netlist = _random_netlist(int(circuit[3:]))
        sites = _every_flip_site(netlist)

        def run():
            pats = PatternSet.random(netlist, n, seed=n)
            ctx = sim_context(netlist, pats)
            if lanes is not None:
                ctx.flip_lanes = lanes
            todo = sites
            if len(todo) % ctx.flip_lanes == 0:
                todo = todo[:-1]  # a ragged last chunk
            passes = COUNTERS.full_passes
            packed = ctx.flip_signatures(todo)
            assert COUNTERS.full_passes - passes == -(-len(todo) // ctx.flip_lanes)
            # Memo hits (and a repeated site) come back unchanged, in order.
            again = ctx.flip_signatures(todo[::-1] + todo[:1])
            assert again[:-1] == packed[::-1] and again[-1] is packed[0]
            mask = pats.mask
            brute = [
                resim_output_diff(
                    netlist, ctx.base, {site: (ctx.base[site.net] ^ mask) & mask}, mask
                )
                for site in todo
            ]
            return _deep_ordered(packed), _deep_ordered(brute)

        (c_packed, c_brute), (i_packed, i_brute) = _both_backends(monkeypatch, run)
        assert c_packed == c_brute
        assert i_packed == i_brute
        assert c_packed == i_packed

    def test_branch_of_single_fanout_net(self):
        """The reduction the packed pass relies on: a branch of a net with
        one reader that is not an output flips exactly like its stem; an
        output's lone branch does not."""
        zoo = _gate_zoo()
        pats = PatternSet.random(zoo, 40, seed=3)
        ctx = sim_context(zoo, pats)
        stem, branch, out_stem, out_branch = ctx.flip_signatures(
            [Site("g2"), Site("g2", ("g4", 0)), Site("m1"), Site("m1", ("g1", 0))]
        )
        assert branch == stem
        assert "m1" in out_stem and "m1" not in out_branch

    def test_invalid_site_raises_before_any_pass(self):
        zoo = _gate_zoo()
        ctx = sim_context(zoo, PatternSet.random(zoo, 8, seed=1))
        passes = COUNTERS.full_passes
        with pytest.raises(NetlistError):
            ctx.flip_signatures([Site("a"), Site("a", ("g2", 0))])
        assert COUNTERS.full_passes == passes


# -- codegen sanity ------------------------------------------------------------


class TestCodegen:
    def test_every_variant_compiles(self):
        n = _random_netlist(11)
        kernels = kernels_for(n)
        assert set(VARIANTS) == {
            "full2_x", "full2_sp", "cone2_sp", "full3", "full3_sp", "cone3_sp",
        }
        for variant in VARIANTS:
            source = emit_kernel_source(kernels.program, variant)
            assert source.startswith(f"def {variant}(")
            assert kernels.fn(variant) is kernels.fn(variant)  # compiled once

    def test_kernel_compile_counter(self):
        n = _random_netlist(12)
        before = COUNTERS.kernel_compiles
        kernels = kernels_for(n)
        kernels.fn("full2_x")
        kernels.fn("full2_x")
        assert COUNTERS.kernel_compiles == before + 1

    def test_stem_and_pin_queries_share_one_kernel(self, monkeypatch):
        """Stem-only and branch queries of one kind run the same kernel:
        one 2-valued and one 3-valued cone variant in all."""
        monkeypatch.setenv("REPRO_SIM", "compiled")
        n = _random_netlist(13)
        pats = PatternSet.random(n, 17, seed=13)
        mask = pats.mask
        base = simulate(n, pats)
        gate = sorted(n.gates)[-1]
        stem = Site(gate)
        branch = Site(n.gates[gate].inputs[0], (gate, 0))
        before = COUNTERS.kernel_compiles
        resim_output_diff(n, base, {stem: base[gate] ^ mask}, mask)
        resim_output_diff(n, base, {branch: 0}, mask)
        x_injection_reach(n, pats, stem, base)
        joint_x_injection_reach(n, pats, [stem, branch], base)
        assert COUNTERS.kernel_compiles == before + 2


# -- cache keying and invalidation ---------------------------------------------


class TestCacheInvalidation:
    def test_structurally_equal_netlists_share_kernels(self):
        a = random_dag(40, n_inputs=6, n_outputs=3, seed=5)
        b = random_dag(40, n_inputs=6, n_outputs=3, seed=5)
        assert a is not b
        assert a.fingerprint() == b.fingerprint()
        assert kernels_for(a) is kernels_for(b)

    def test_mutated_netlist_misses(self):
        base = ripple_carry_adder(4)
        mutated = _with_one_gate_swapped(base)
        assert base.fingerprint() != mutated.fingerprint()
        assert kernels_for(base) is not kernels_for(mutated)
        pats = PatternSet.random(base, 9, seed=9)
        ctx_a = sim_context(base, pats)
        ctx_b = sim_context(mutated, pats)
        assert ctx_a is not ctx_b

    def test_same_content_reuses_context(self):
        n = ripple_carry_adder(4)
        pats = PatternSet.random(n, 9, seed=2)
        again = PatternSet.random(n, 9, seed=2)
        ctx = sim_context(n, pats)
        assert sim_context(n, again) is ctx
        # A structurally-equal but distinct netlist instance also hits.
        assert sim_context(ripple_carry_adder(4), pats) is ctx

    def test_mutated_patterns_miss(self):
        n = ripple_carry_adder(4)
        pats = PatternSet.random(n, 9, seed=2)
        ctx = sim_context(n, pats)
        vectors = [pats.pattern(i) for i in range(pats.n)]
        first_input = n.inputs[0]
        vectors[0] = {**vectors[0], first_input: vectors[0][first_input] ^ 1}
        mutated = PatternSet.from_vectors(n.inputs, vectors)
        assert pats.fingerprint() != mutated.fingerprint()
        assert sim_context(n, mutated) is not ctx

    def test_active_context_rejects_foreign_base(self):
        n = ripple_carry_adder(4)
        pats = PatternSet.random(n, 9, seed=4)
        ctx = sim_context(n, pats)
        assert active_context(n, pats, ctx.base) is ctx
        assert active_context(n, pats, None) is ctx
        foreign = dict(ctx.base)  # equal values, different identity
        assert active_context(n, pats, foreign) is None

    def test_context_memos_return_shared_objects(self):
        n = ripple_carry_adder(4)
        pats = PatternSet.random(n, 9, seed=6)
        ctx = sim_context(n, pats)
        site = Site(n.inputs[0])
        first = ctx.flip_signature(site)
        hits_before = COUNTERS.flip_hits
        assert ctx.flip_signature(site) is first
        assert COUNTERS.flip_hits == hits_before + 1
        # Behaviorally-equivalent override requests share one simulation.
        flipped = (ctx.base[site.net] ^ pats.mask) & pats.mask
        assert ctx.resim_diff({site: flipped}) is ctx.resim_diff({site: flipped})


def _with_one_gate_swapped(netlist):
    """Rebuild ``netlist`` with a single AND gate turned into NAND."""
    from repro.circuit.gates import Gate
    from repro.circuit.netlist import Netlist

    swapped = False
    gates = []
    for net in netlist.topo_order:
        gate = netlist.gates[net]
        kind = gate.kind
        if not swapped and kind is GateKind.AND:
            kind = GateKind.NAND
            swapped = True
        gates.append(Gate(net, kind, tuple(gate.inputs)))
    assert swapped, "fixture circuit has no AND gate to mutate"
    return Netlist(
        name=netlist.name,
        inputs=tuple(netlist.inputs),
        outputs=tuple(netlist.outputs),
        gates=gates,
    )


# -- report byte-identity across backends --------------------------------------


class TestReportIdentity:
    def test_diagnose_identical_across_backends(self, monkeypatch):
        from repro.core.diagnose import Diagnoser
        from repro.faults.models import StuckAtDefect
        from repro.tester.harness import apply_test

        n = ripple_carry_adder(5)
        pats = PatternSet.random(n, 40, seed=13)
        defects = [StuckAtDefect(Site("n10"), 0), StuckAtDefect(Site("n20"), 1)]

        def run():
            result = apply_test(n, pats, defects)
            report = Diagnoser(n).diagnose(pats, result.datalog)
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
