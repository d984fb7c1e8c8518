"""The assumption-free multiple defect diagnosis pipeline.

:class:`Diagnoser` wires the stages together:

1. structural candidate envelope (:mod:`repro.core.backtrace`),
2. exact per-test single-flip analysis (:mod:`repro.core.pertest`) --
   under *any* defect mechanism a site per pattern is either correct or
   flipped, so subset-flip matching is an exact, fault-model-free
   explanation criterion,
3. multiplet covering over failing patterns, with a bounded joint-flip
   pair search for the interacting-defect residue
   (:mod:`repro.core.cover`),
4. enumeration of all minimum covers (the resolution of the diagnosis),
5. fault-model allocation and vindication (:mod:`repro.core.refine`),
6. ranking and report assembly (:mod:`repro.core.report`).

No stage assumes anything about failing patterns: a pattern may be failed
by one defect, by several interacting defects, or by behavior matching no
classical fault model.  The X-injection envelope
(:mod:`repro.core.xcover`) -- the sound over-approximation of the same
criterion -- is available as an alternative engine
(``DiagnosisConfig(engine="xcover")``) and is what ablation A compares
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.netlist import Netlist, Site
from repro.core.backtrace import candidate_sites
from repro.core.budget import Budget
from repro.core.clusterdiag import cluster_cover
from repro.core.cover import (
    enumerate_min_covers,
    enumerate_pertest_min_covers,
    greedy_cover,
    greedy_pertest_cover,
)
from repro.core.hitting import hitting_set_cover
from repro.core.oracle import concrete_defects, validate_report
from repro.core.pertest import PerTestAnalysis, build_pertest
from repro.core.refine import RefineConfig, allocate_hypotheses, arbitrary_hypothesis
from repro.core.report import Candidate, DiagnosisReport, Hypothesis, Multiplet
from repro.core.scoring import multiplet_iou
from repro.core.xcover import build_xcover
from repro.errors import DiagnosisError
from repro.obs.metrics import record_diagnosis, record_sim_delta, record_truncations
from repro.obs.trace import NULL_TRACER, Tracer, install_tracer, uninstall_tracer
from repro.sim.cache import sim_context
from repro.sim.compile import COUNTERS
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog

METHOD_NAME = "xcover"  #: campaign/report tag of the proposed method


@dataclass(frozen=True)
class DiagnosisConfig:
    """Tuning knobs of the proposed diagnosis (defaults fit the paper scope)."""

    engine: str = "pertest"  #: "pertest" (exact) or "xcover" (envelope-only)
    #: Multiplet search engine of the pertest pipeline:
    #:
    #: - ``"greedy"`` (default) -- greedy cover + bounded reference
    #:   enumeration, the historical behavior (reports byte-identical),
    #: - ``"exact"`` -- implicit-hitting-set search
    #:   (:mod:`repro.core.hitting`): provably minimum-cardinality covers
    #:   with an ``optimality`` status on the report,
    #: - ``"clustered"`` -- hypergraph test-distance failure clustering
    #:   (:mod:`repro.core.clusterdiag`): per-defect-group hitting-set
    #:   covers joined under a joint verification pass.
    #:
    #: The greedy solution always runs first as the anytime incumbent and
    #: fallback; ``"exact"``/``"clustered"`` refine it.
    cover_engine: str = "greedy"
    include_branches: bool = True
    max_multiplet_size: int = 6
    pair_cap: int = 300
    enumerate_exact: bool = True
    exact_max_candidates: int = 18
    exact_max_size: int = 3
    max_reported_multiplets: int = 10
    #: Per failing pattern, how many exact singleton explainers join the
    #: candidate list even when outside every minimum cover (0 disables).
    #: This is the per-test reporting of the method: each failing pattern
    #: names its own suspects, and the union is the resolution.
    per_pattern_candidates: int = 6
    #: Drop per-pattern extras for which no concrete fault model survives
    #: vindication (arbitrary-only coincidental equivalents).  Multiplet
    #: members are never dropped, so model-free (byzantine) defects located
    #: by the covering stage stay reported.
    drop_unmodeled_extras: bool = True
    greedy_top_k: int = 24  #: xcover engine only
    rescue_pair_cap: int = 400  #: xcover engine only
    refine: RefineConfig = field(default_factory=RefineConfig)
    #: Anytime resource governance (see :mod:`repro.core.budget`): a
    #: wall-clock deadline in seconds, a ceiling on enumerated multiplet
    #: covers, and a ceiling on expansion nodes (joint simulations / cover
    #: checks).  ``None`` everywhere (the default) runs ungoverned and
    #: byte-identical to the historical pipeline; any limit set makes the
    #: report carry a ``completeness`` verdict and a truncation trail.
    deadline_seconds: float | None = None
    max_multiplets: int | None = None
    max_expansions: int | None = None
    #: Run the post-diagnosis validation oracle (:mod:`repro.core.oracle`)
    #: even when no raw log is supplied -- the sanitized datalog then
    #: stands in as the evidence.  Off by default: an unvalidated report
    #: serializes byte-identically to the historical format.
    validate: bool = False

    def make_budget(self) -> Budget | None:
        """A fresh :class:`Budget` for one run, or None when ungoverned."""
        if (
            self.deadline_seconds is None
            and self.max_multiplets is None
            and self.max_expansions is None
        ):
            return None
        return Budget(
            deadline_seconds=self.deadline_seconds,
            max_multiplets=self.max_multiplets,
            max_expansions=self.max_expansions,
        )


class Diagnoser:
    """Reusable diagnosis engine bound to one netlist."""

    def __init__(self, netlist: Netlist, config: DiagnosisConfig | None = None):
        self.netlist = netlist
        self.config = config or DiagnosisConfig()
        if self.config.engine not in ("pertest", "xcover"):
            raise DiagnosisError(f"unknown engine {self.config.engine!r}")
        if self.config.cover_engine not in ("greedy", "exact", "clustered"):
            raise DiagnosisError(
                f"unknown cover engine {self.config.cover_engine!r}"
            )
        if self.config.engine == "xcover" and self.config.cover_engine != "greedy":
            raise DiagnosisError(
                "cover_engine applies to the pertest engine only; "
                "the xcover envelope has no exact per-test verifier"
            )

    def diagnose(
        self,
        patterns: PatternSet,
        datalog: Datalog,
        budget: Budget | None = None,
        raw=None,
        tracer: Tracer | None = None,
    ) -> DiagnosisReport:
        """Run the full pipeline against one device's datalog.

        ``budget`` overrides the budget the config would build (pass one
        holding a :class:`~repro.core.budget.CancellationToken` to make the
        run externally cancellable); with neither, the pipeline runs
        ungoverned and the report is identical to the historical output.
        On exhaustion the report carries whatever every stage produced so
        far, ``completeness != "exact"``, and the truncation trail.

        ``raw`` (a :class:`~repro.tester.noise.RawLog`) switches on the
        post-diagnosis validation oracle against that pre-sanitized
        evidence; ``DiagnosisConfig(validate=True)`` switches it on
        against ``datalog`` itself.  With neither, the report is the
        historical, oracle-free output.

        ``tracer`` (a :class:`~repro.obs.trace.Tracer`) switches on stage
        tracing: the run's span tree lands in ``report.stats["trace"]``
        and the tracer is installed as the process's active tracer for the
        duration, so deep events (kernel compiles, context cache activity)
        nest under the pipeline stages.  Tracing never changes the
        diagnosis: outside ``stats``, a traced report is byte-identical to
        an untraced one.
        """
        cfg = self.config
        if datalog.n_patterns != patterns.n:
            raise DiagnosisError(
                f"datalog covers {datalog.n_patterns} patterns, "
                f"test set has {patterns.n}"
            )
        if budget is None:
            budget = cfg.make_budget()
        tracing = tracer is not None
        # Stage timing always runs through a tracer clock (injectable for
        # tests); an untraced run uses a private throwaway tracer that is
        # never installed and never serialized.
        t = tracer if tracer is not None else Tracer()
        if tracing:
            install_tracer(t)
        try:
            report = self._diagnose(patterns, datalog, budget, raw, t)
        finally:
            if tracing:
                uninstall_tracer(t)
        if tracing:
            # Excluded from determinism exactly like ``seconds*``/``sim_*``:
            # the tree is timing data, present only when tracing was asked.
            report.stats["trace"] = t.to_dicts()
        return report

    def _diagnose(
        self,
        patterns: PatternSet,
        datalog: Datalog,
        budget: Budget | None,
        raw,
        t: Tracer,
    ) -> DiagnosisReport:
        cfg = self.config
        if datalog.is_passing_device:
            report = DiagnosisReport(
                method=METHOD_NAME,
                circuit=self.netlist.name,
                stats={"seconds": 0.0, "n_failing_patterns": 0},
            )
            if raw is not None or cfg.validate:
                report = validate_report(
                    self.netlist,
                    patterns,
                    report,
                    raw if raw is not None else datalog,
                )
            record_diagnosis(METHOD_NAME, 0.0, report.completeness)
            return report

        counters_before = COUNTERS.snapshot()
        with t.span("diagnose", circuit=self.netlist.name, engine=cfg.engine) as root:
            # The shared simulation context: the fault-free base plus the
            # flip/resim/X-reach memos every downstream stage draws from,
            # reused across runs (campaign trials) on the same circuit and
            # test set.
            with t.span("context"):
                base_values = sim_context(self.netlist, patterns).base
            with t.span("backtrace") as sp_backtrace:
                if cfg.engine == "pertest":
                    sites = candidate_sites(
                        self.netlist, datalog, cfg.include_branches, budget=budget
                    )
                else:
                    sites = candidate_sites(
                        self.netlist, datalog, cfg.include_branches
                    )
            started = root.start
            t_sim = sp_backtrace.end

            if cfg.engine == "pertest":
                (
                    evidence,
                    multiplet_sets,
                    uncovered,
                    extras,
                    stage_stats,
                    optimality,
                ) = self._run_pertest(
                    patterns, datalog, sites, base_values, budget, t
                )
            else:
                evidence, multiplet_sets, uncovered, stage_stats = self._run_xcover(
                    patterns, datalog, base_values, budget, t
                )
                extras = ()
                optimality = None
            t_cover = t.now()

            # Candidates = union over every surviving minimum cover (that
            # union is the diagnosis resolution) plus the per-pattern exact
            # explainers; the reported multiplet list is capped.
            with t.span("refine"):
                all_sites: list[Site] = []
                for group in list(multiplet_sets) + [extras]:
                    for site in group:
                        if site not in all_sites:
                            all_sites.append(site)
                reported_sets = multiplet_sets[: cfg.max_reported_multiplets]

                core_sites = {site for group in multiplet_sets for site in group}
                candidates = []
                refined_out = False
                for done, site in enumerate(all_sites):
                    if (
                        not refined_out
                        and budget is not None
                        and done
                        and budget.stop("refine", done, len(all_sites))
                    ):
                        refined_out = True
                    if refined_out:
                        # Out of budget: keep the site located but model-free.
                        # The arbitrary hypothesis is honest here -- no model
                        # was tried, so none can be claimed and none can be
                        # used to drop it.
                        candidates.append(
                            Candidate(
                                site=site,
                                hypotheses=(arbitrary_hypothesis(site, evidence),),
                                explained_atoms=len(evidence.atoms_of(site)),
                            )
                        )
                        continue
                    hypotheses = allocate_hypotheses(
                        self.netlist,
                        patterns,
                        datalog,
                        site,
                        base_values,
                        evidence,
                        cfg.refine,
                        budget=budget,
                    )
                    if (
                        cfg.drop_unmodeled_extras
                        and site not in core_sites
                        and all(h.kind == "arbitrary" for h in hypotheses)
                        and not (budget is not None and budget.exceeded())
                    ):
                        # A per-pattern extra that no concrete model survives
                        # for is a coincidental equivalent; passing-pattern
                        # evidence has already vindicated every mechanism it
                        # could have had.  (A site whose refinement was cut
                        # short by the budget is kept: absence of a surviving
                        # model means nothing if the models were never fully
                        # tried.)
                        continue
                    candidates.append(
                        Candidate(
                            site=site,
                            hypotheses=hypotheses,
                            explained_atoms=len(evidence.atoms_of(site)),
                        )
                    )
                # Rank: sites a concrete fault model survives for come first
                # (a site only explainable as "arbitrary" is usually a
                # coincidental equivalent), then by explained evidence and
                # match quality.
                candidates.sort(
                    key=lambda c: (
                        c.best_kind == "arbitrary",
                        -c.explained_atoms,
                        tuple(
                            -x for x in (c.best.score if c.best else (0.0, 0.0, 0))
                        ),
                        str(c.site),
                    )
                )
                hypothesis_by_site = {c.site: c.hypotheses for c in candidates}
            t_refine = t.now()

            with t.span("scoring"):
                multiplets = []
                scored_out = False
                for done, group in enumerate(reported_sets):
                    if (
                        not scored_out
                        and budget is not None
                        and done
                        and budget.stop("scoring", done, len(reported_sets))
                    ):
                        scored_out = True
                    multiplets.append(
                        self._assemble_multiplet(
                            evidence,
                            group,
                            hypothesis_by_site,
                            patterns,
                            base_values,
                            skip_iou=scored_out,
                        )
                    )
                multiplets.sort(key=lambda m: m.rank_key)
            finished = t.now()

            stats = {
                "seconds": finished - started,
                "seconds_analysis": t_sim - started,
                "seconds_cover": t_cover - t_sim,
                "seconds_refine": t_refine - t_cover,
                "n_failing_patterns": float(len(datalog.failing_indices)),
                "n_fail_atoms": float(datalog.n_fail_atoms),
                "n_candidate_space": float(len(sites)),
                "n_min_covers": float(len(multiplet_sets)),
                **stage_stats,
            }
            # Simulation effort for this run.  Counters increment at the
            # dispatcher level, before the backend split, so these are
            # byte-identical between REPRO_SIM=interp and the compiled
            # default; cache hit counts do depend on registry warmth (a
            # second run on the same circuit and test set starts with the
            # memos filled).
            counters = COUNTERS.delta(counters_before)
            stats["sim_gate_evals"] = float(counters["gate_evals"])
            stats["sim_full_passes"] = float(
                counters["full_passes"] + counters["full3_passes"]
            )
            stats["sim_cone_passes"] = float(
                counters["cone_passes"] + counters["cone3_passes"]
            )
            stats["sim_cache_hits"] = float(
                counters["flip_hits"]
                + counters["resim_hits"]
                + counters["xreach_hits"]
                + counters["context_hits"]
            )
            stats["sim_cache_misses"] = float(
                counters["flip_misses"]
                + counters["resim_misses"]
                + counters["xreach_misses"]
                + counters["context_misses"]
            )
            if budget is not None and budget.truncations:
                # Only when governance actually bit: a governed run that
                # completed exactly stays indistinguishable from an
                # ungoverned one, so generous budgets never perturb campaign
                # equivalence.
                stats["n_expansions"] = float(budget.expansions)
                stats["n_truncations"] = float(len(budget.truncations))
            report = DiagnosisReport(
                method=METHOD_NAME,
                circuit=self.netlist.name,
                candidates=tuple(candidates),
                multiplets=tuple(multiplets),
                uncovered_atoms=frozenset(uncovered),
                stats=stats,
                completeness=budget.completeness if budget is not None else "exact",
                truncations=tuple(budget.truncations) if budget is not None else (),
                optimality=optimality,
            )
            if raw is not None or cfg.validate:
                # The oracle emits its own "oracle" span through the active
                # tracer, nesting under this root on traced runs.
                report = validate_report(
                    self.netlist,
                    patterns,
                    report,
                    raw if raw is not None else datalog,
                    base_values,
                )
        record_sim_delta(counters)
        if budget is not None:
            record_truncations(budget.truncations)
        record_diagnosis(METHOD_NAME, stats["seconds"], report.completeness)
        return report

    # -- engines -----------------------------------------------------------------

    def _run_pertest(
        self, patterns, datalog, sites, base_values, budget=None, tracer=NULL_TRACER
    ):
        cfg = self.config
        with tracer.span("pertest"):
            analysis = build_pertest(
                self.netlist, patterns, datalog, sites, base_values, budget=budget
            )
        with tracer.span("cover"):
            solution = greedy_pertest_cover(
                analysis,
                max_size=cfg.max_multiplet_size,
                pair_cap=cfg.pair_cap,
                budget=budget,
            )
            multiplet_sets: list[tuple[Site, ...]] = []
            optimality: str | None = None
            unexplained = solution.unexplained
            engine_stats: dict[str, float] = {}
            if cfg.cover_engine == "exact":
                # Implicit-hitting-set refinement: the greedy solution is
                # the incumbent (depth bound + anytime fallback).
                depth = min(
                    max(cfg.exact_max_size, len(solution.sites)),
                    cfg.max_multiplet_size,
                )
                result = hitting_set_cover(
                    analysis,
                    seed_sites=solution.sites + solution.pair_candidates,
                    incumbent=solution.sites if solution.complete else None,
                    max_size=depth,
                    budget=budget,
                )
                multiplet_sets = list(result.covers)
                optimality = result.optimality
                engine_stats["n_hitting_conflicts"] = float(result.conflicts)
                engine_stats["n_hitting_verifications"] = float(
                    result.verifications
                )
                if result.covers:
                    # A verified cover explains every failing pattern.
                    unexplained = frozenset()
            elif cfg.cover_engine == "clustered":
                cres = cluster_cover(
                    analysis,
                    seed_sites=solution.sites + solution.pair_candidates,
                    max_size=cfg.max_multiplet_size,
                    max_covers=cfg.max_reported_multiplets,
                    budget=budget,
                )
                multiplet_sets = list(cres.covers)
                optimality = cres.optimality
                engine_stats["n_failure_clusters"] = float(len(cres.clusters))
                engine_stats["n_cluster_fallback"] = float(cres.fallback)
                if cres.covers:
                    unexplained = cres.unexplained
            elif cfg.enumerate_exact:
                # Enumerate at least up to the size the greedy needed, so
                # that every tying alternative of a pair-rescued explanation
                # is reported (bounded overall by max_checks inside).
                depth = min(
                    max(cfg.exact_max_size, len(solution.sites)),
                    cfg.max_multiplet_size,
                )
                multiplet_sets = enumerate_pertest_min_covers(
                    analysis,
                    seed_sites=solution.sites + solution.pair_candidates,
                    max_candidates=cfg.exact_max_candidates,
                    max_size=depth,
                    budget=budget,
                    stats=engine_stats,
                )
            known = {tuple(sorted(map(str, m))) for m in multiplet_sets}
            if (
                solution.sites
                and not (optimality is not None and multiplet_sets)
                and tuple(sorted(map(str, solution.sites))) not in known
            ):
                # Greedy incumbent: reported whenever the enumeration missed
                # it, or as the anytime fallback when an exact engine came
                # back empty-handed (bounded out / budget cut).
                multiplet_sets.append(solution.sites)
            uncovered = {
                (idx, out)
                for idx in unexplained
                for out in datalog.failing_outputs_of(idx)
            }
            # Per-pattern reporting: every failing pattern contributes its
            # best exact singleton explainers to the candidate list, so a
            # defect whose patterns happen to be aliased out of the minimum
            # covers is still located (at some resolution cost).
            extras: list[Site] = []
            if cfg.per_pattern_candidates > 0:
                for idx in datalog.failing_indices:
                    explainers = sorted(
                        analysis.exact_singletons.get(idx, ()),
                        key=lambda s: (-len(analysis.atoms_of(s)), str(s)),
                    )
                    extras.extend(explainers[: cfg.per_pattern_candidates])
                extras.extend(solution.pair_candidates)
        stats = {
            "n_unexplained_patterns": float(len(unexplained)),
            "n_exactly_explained_patterns": float(
                len(set(datalog.failing_indices) - set(unexplained))
            ),
            **engine_stats,
        }
        return analysis, multiplet_sets, uncovered, tuple(extras), stats, optimality

    def _run_xcover(
        self, patterns, datalog, base_values, budget=None, tracer=NULL_TRACER
    ):
        cfg = self.config
        with tracer.span("xcover"):
            xc = build_xcover(
                self.netlist,
                patterns,
                datalog,
                include_branches=cfg.include_branches,
                base_values=base_values,
                budget=budget,
            )
        with tracer.span("cover"):
            solution = greedy_cover(
                xc,
                max_size=cfg.max_multiplet_size,
                top_k=cfg.greedy_top_k,
                rescue_pair_cap=cfg.rescue_pair_cap,
                budget=budget,
            )
            multiplet_sets: list[tuple[Site, ...]] = []
            if cfg.enumerate_exact:
                multiplet_sets = enumerate_min_covers(
                    xc,
                    max_candidates=cfg.exact_max_candidates,
                    max_size=cfg.exact_max_size,
                    budget=budget,
                )
            known = {tuple(sorted(map(str, m))) for m in multiplet_sets}
            if (
                solution.sites
                and tuple(sorted(map(str, solution.sites))) not in known
            ):
                multiplet_sets.append(solution.sites)
        stats = {"n_joint_evaluations": float(solution.joint_evaluations)}
        return xc, multiplet_sets, set(solution.uncovered), stats

    # -- helpers -----------------------------------------------------------------

    def _assemble_multiplet(
        self,
        evidence,
        sites: tuple[Site, ...],
        hypothesis_by_site: dict[Site, tuple[Hypothesis, ...]],
        patterns: PatternSet,
        base_values: dict[str, int],
        skip_iou: bool = False,
    ) -> Multiplet:
        if isinstance(evidence, PerTestAnalysis):
            explained = evidence.explained_patterns(sites)
            covered = sum(
                len(evidence.datalog.failing_outputs_of(idx)) for idx in explained
            )
        else:
            covered = len(evidence.joint_covered_atoms(sites))
        iou = 0.0
        defects = (
            None
            if skip_iou
            else concrete_defects(
                [hypothesis_by_site.get(site, ()) for site in sites]
            )
        )
        if defects is not None:
            joint = multiplet_iou(
                self.netlist, patterns, defects, evidence.atoms, base_values
            )
            if joint is not None:
                iou = joint
        return Multiplet(
            sites=tuple(sites),
            covered_atoms=covered,
            total_atoms=len(evidence.atoms),
            iou=iou,
        )


def diagnose(
    netlist: Netlist,
    patterns: PatternSet,
    datalog: Datalog,
    config: DiagnosisConfig | None = None,
) -> DiagnosisReport:
    """One-shot convenience wrapper around :class:`Diagnoser`."""
    return Diagnoser(netlist, config).diagnose(patterns, datalog)
