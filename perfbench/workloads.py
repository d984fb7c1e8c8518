"""The benchmark's workloads: seeded inputs, timed loops, traced loops and
output checks.

Every workload turns ``(seed, seconds)`` into its inputs -- netlists from
the circuit registry, test sets, and tester datalogs or job specs -- and
hands the program nothing else.  Each exposes:

- ``setup(seed, seconds)`` -> :class:`Inputs` (with a content digest),
- ``measure(inputs, layers)`` -> :class:`Measurement`: the untraced,
  timed operations, plus (when ``layers`` is given) the same operations
  traced, for per-layer numbers and the tracing overhead, then the
  output checks, outside the timed region; every failed check is one
  failed operation.

The plan size is a fixed number of operations per second of
``--seconds`` (each workload's ``per_second``, sized so one run measures
for about ``--seconds`` on a 2-core x86 container), never a count taken
from the clock, so a run's inputs depend on its arguments alone.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.driver import Campaign, CampaignConfig, provision_patterns
from repro.campaign.metrics import TrialOutcome, score_report
from repro.campaign.samplers import DEFAULT_MIX, sample_defect_set
from repro.circuit.library import load_circuit
from repro.core.diagnose import Diagnoser
from repro.core.report import DiagnosisReport
from repro.errors import FaultModelError, OscillationError
from repro.obs.trace import STAGES
from repro.serve.app import DiagnosisDaemon, ServeConfig
from repro.serve.executor import execute_job
from repro.serve.protocol import JobSpec, canonical_report_json, job_id_for
from repro.sim.cache import reset_sim_caches
from repro.sim.compile import COUNTERS
from repro.sim.patterns import PatternSet
from repro.tester.datalog import Datalog
from repro.tester.harness import apply_test

from layers import LayerTracer

#: ``report.stats`` counts folded into per-layer metrics.
REPORT_COUNTS = {
    "core.candidate_sites": "n_candidate_space",
    "core.min_covers": "n_min_covers",
    "core.cover_joint_evaluations": "n_joint_evaluations",
    "core.hitting_verifications": "n_hitting_verifications",
    "core.truncations": "n_truncations",
}

#: Simulation counters summed per operation (full/cone passes merge the
#: two- and three-valued variants, as the reports' ``sim_*`` stats do).
SIM_COUNTS = {
    "sim.kernel_compiles": ("kernel_compiles",),
    "sim.gate_evals": ("gate_evals",),
    "sim.full_passes": ("full_passes", "full3_passes"),
    "sim.cone_passes": ("cone_passes", "cone3_passes"),
}
SIM_RATIOS = ("context", "resim", "xreach", "flip")

#: The test set is fixed per circuit, as on a production tester: only the
#: dies vary with ``--seed``.  7 is the program's default pattern seed.
PATTERN_SEED = 7


def sub_seed(*parts) -> int:
    """A 63-bit seed derived from ``parts`` (stable across processes)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def digest_of(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def plan_size(per_second: float, seconds: float, minimum: int) -> int:
    return max(minimum, int(round(per_second * seconds)))


@dataclass
class Device:
    """One failing die: its circuit, injected truth and tester datalog."""

    circuit: str
    k: int
    defects: list
    datalog: str


@dataclass
class Inputs:
    netlists: dict
    patterns: dict
    items: list  #: devices, campaign trials or (job spec, device) pairs
    digest: str
    resamples: int = 0  #: defect draws rejected while making the dies
    campaign: Campaign | None = None


@dataclass
class Measurement:
    """What one run measured (untraced) and, when traced, its layers."""

    latencies: list[float] = field(default_factory=list)
    wall: float = 0.0
    completed: float = 0.0  #: operations that count toward ops_per_s
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    outcomes: list[TrialOutcome] = field(default_factory=list)
    #: Exact counts of the untraced operations (determinism witness).
    counts: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)  #: canonical reports
    layers: dict = field(default_factory=dict)  #: per-layer metrics
    notes: dict = field(default_factory=dict)  #: printed, not scored
    peak_rss_mb: float = 0.0  #: at the end of the timed region
    #: Mean reference-probe time over the reference value (> 1: the host
    #: ran slower than the reference); see :class:`HostSpeed`.
    host_speed: float = 1.0


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostSpeed:
    """How fast the host runs Python right now, from a fixed probe.

    The probe -- dict inserts, iteration and int bit operations, the
    operation mix of the program's hot loops, but none of its code -- runs
    between operations, about every ``interval`` seconds, outside the
    operation timings.  On a shared host the speed of identical work
    drifts by 10-30% over tens of seconds; dividing that drift out of a
    throughput leaves the program's own speed.  The probe calls no
    ``repro`` code, so a faster program never moves it.
    """

    #: Probe seconds on a quiet 2-core x86 container (about its median);
    #: only scales the figures.
    REFERENCE_S = 0.010
    interval = 0.5

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    @staticmethod
    def probe(n: int = 20000) -> float:
        # With the collector on, the probe's allocations would trigger
        # collections whose cost grows with the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            table = {}
            for i in range(n):
                table[(i * 2654435761) % 1000003] = [i, i ^ 0xFFFF]
            acc = 0
            for key, value in table.items():
                acc ^= (value[1] << 5) & key
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def tick(self) -> None:
        """Probe if ``interval`` has passed since the last probe.  The
        first pass warms the allocator and caches the operation left cold;
        the second is the sample."""
        if time.perf_counter() - self._last >= self.interval:
            self.probe()
            self.samples.append(self.probe())
            self._last = time.perf_counter()

    def factor(self) -> float:
        return statistics.fmean(self.samples) / self.REFERENCE_S if self.samples else 1.0


def test_set(netlist, how):
    """``("atpg",)``: the provisioned ATPG set every ``repro`` command
    uses; ``("random", n)``: ``n`` random patterns (for circuits whose ATPG
    stops on its wall-clock budget, see NOTES.md)."""
    if how[0] == "atpg":
        return provision_patterns(netlist, PATTERN_SEED)
    return PatternSet.random(netlist, how[1], PATTERN_SEED)


def make_device(netlist, patterns, circuit, k, seed, tag) -> tuple[Device, int]:
    """Sample defects until the die fails the test; returns the device and
    how many draws were resampled."""
    for attempt in range(100):
        defects = sample_defect_set(
            netlist, k, sub_seed(seed, tag, attempt), DEFAULT_MIX
        )
        try:
            result = apply_test(netlist, patterns, defects)
        except (OscillationError, FaultModelError):
            continue
        if result.device_fails:
            return Device(circuit, k, defects, result.datalog.to_text()), attempt
    raise RuntimeError(f"no failing die for {circuit} k={k} seed={seed} {tag}")


def score(netlist, report, device: Device) -> TrialOutcome:
    datalog = Datalog.from_text(device.datalog)
    return score_report(
        netlist,
        report,
        device.defects,
        n_failing_patterns=len(datalog.failing_indices),
        n_fail_atoms=datalog.n_fail_atoms,
    )


def run_op(call, layers: LayerTracer | None = None, prepare=None, **meta):
    """``call()`` timed, after the untimed ``prepare()``; traced as one
    ``op`` span when ``layers`` is given.  Returns ``(seconds, result,
    simulation counter delta)``."""
    if prepare is not None:
        prepare()
    before = COUNTERS.snapshot()
    with layers.operation(**meta) if layers is not None else nullcontext():
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
    return elapsed, result, COUNTERS.delta(before)


def run_pair(call, layers: LayerTracer | None, index: int, prepare=None, **meta):
    """The untraced run of an operation and, with ``layers``, its traced
    run; which goes first alternates with ``index``."""
    if layers is None:
        return run_op(call, prepare=prepare), None
    if index % 2:
        traced = run_op(call, layers, prepare, **meta)
        return run_op(call, prepare=prepare), traced
    plain = run_op(call, prepare=prepare)
    return plain, run_op(call, layers, prepare, **meta)


def add_counts(total: dict, delta: dict) -> None:
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value


def sim_layer_metrics(counts: dict, n_ops: int) -> dict:
    out = {}
    for name, keys in SIM_COUNTS.items():
        out[name] = sum(counts.get(key, 0) for key in keys) / n_ops
    for kind in SIM_RATIOS:
        hits = counts.get(f"{kind}_hits", 0)
        misses = counts.get(f"{kind}_misses", 0)
        out[f"sim.{kind}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def stage_layer_metrics(times: dict, n_ops: int) -> dict:
    """Stage self times per operation, the simulation spans under them,
    and the share of the ``diagnose`` span the stage spans cover."""

    def get(name, kind):
        return times.get(name, {}).get(kind, 0.0)

    out = {f"core.{stage}_s": get(stage, "self") / n_ops for stage in STAGES if stage != "xcover"}
    diagnose = get("diagnose", "total")
    staged = sum(get(stage, "total") for stage in STAGES)
    out["core.diagnose_s"] = diagnose / n_ops
    out["core.stage_share"] = staged / diagnose if diagnose else 0.0
    out["sim.codegen_s"] = get("sim.codegen", "total") / n_ops
    out["sim.context_s"] = get("sim.context", "self") / n_ops
    out["tester.apply_test_s"] = get("tester.apply_test", "self") / n_ops
    return out


def overhead(traced_s: float, untraced_s: float) -> float:
    return traced_s / untraced_s - 1.0 if untraced_s else 0.0


def outcome_key(outcome: TrialOutcome) -> tuple:
    """Everything a scored outcome says about the diagnosis itself."""
    return (
        outcome.method,
        outcome.k,
        outcome.families,
        outcome.recall_exact,
        outcome.recall_near,
        outcome.precision,
        outcome.resolution,
        outcome.n_failing_patterns,
        outcome.n_fail_atoms,
        outcome.uncovered_atoms,
        outcome.best_multiplet_size,
        outcome.completeness,
    )


# ---------------------------------------------------------------------------
# Cold per-die diagnosis
# ---------------------------------------------------------------------------


class ColdDiagnosis:
    """One cold ``repro diagnose`` per die: caches reset, datalog parsed,
    default configuration, default backend."""

    def __init__(self, name: str, cells, test_sets, per_second: float, minimum: int,
                 interp_sample: int):
        self.name = name
        self.cells = cells  #: (circuit, k) in round-robin order
        self.test_sets = test_sets  #: circuit -> test_set() spec
        self.per_second = per_second
        self.minimum = minimum
        #: Dies whose default-backend report is re-derived under the
        #: interpreter (``REPRO_SIM=interp``) after the timed region.
        self.interp_sample = interp_sample

    def setup(self, seed: int, seconds: float) -> Inputs:
        netlists = {c: load_circuit(c) for c in self.test_sets}
        patterns = {c: test_set(netlists[c], how) for c, how in self.test_sets.items()}
        devices, resamples = [], 0
        for i in range(plan_size(self.per_second, seconds, self.minimum)):
            circuit, k = self.cells[i % len(self.cells)]
            device, redraws = make_device(
                netlists[circuit], patterns[circuit], circuit, k, seed, (self.name, i)
            )
            devices.append(device)
            resamples += redraws
        digest = digest_of(
            [patterns[c].fingerprint() for c in sorted(patterns)]
            + [f"{d.circuit}:{d.k}:{d.datalog}" for d in devices]
        )
        return Inputs(netlists, patterns, devices, digest, resamples)

    @staticmethod
    def diagnose_die(inputs: Inputs, device: Device):
        netlist = inputs.netlists[device.circuit]
        patterns = inputs.patterns[device.circuit]
        datalog = Datalog.from_text(device.datalog)
        datalog.validate_for(netlist, n_patterns=patterns.n)
        return Diagnoser(netlist).diagnose(patterns, datalog)

    def measure(self, inputs: Inputs, layers: LayerTracer | None) -> Measurement:
        m = Measurement()
        reports = []
        traced_s = untraced_s = 0.0
        traced_reports = []
        traced_counts: dict = {}
        speed = HostSpeed()
        for i, device in enumerate(inputs.items):
            speed.tick()
            m.attempted += 1

            try:
                (elapsed, report, delta), traced = run_pair(
                    lambda: self.diagnose_die(inputs, device), layers, i,
                    prepare=reset_sim_caches, circuit=device.circuit, k=device.k,
                )
            except Exception as exc:  # one failed die must not end the run
                m.failures.append(f"{device.circuit} k={device.k}: {type(exc).__name__}: {exc}")
                reports.append(None)
                continue
            m.latencies.append(elapsed)
            reports.append(report)
            add_counts(m.counts, delta)
            for key in REPORT_COUNTS.values():
                m.counts[key] = m.counts.get(key, 0.0) + float(report.stats.get(key, 0.0))
            if traced is not None:
                untraced_s += elapsed
                traced_s += traced[0]
                traced_reports.append(traced[1])
                add_counts(traced_counts, traced[2])
                if canonical_report_json(traced[1]) != canonical_report_json(report):
                    m.failures.append(f"die {i}: traced report differs from untraced")
        m.wall = sum(m.latencies)
        m.host_speed = speed.factor()
        m.peak_rss_mb = peak_rss_mb()
        m.completed = len(m.latencies)

        for device, report in zip(inputs.items, reports):
            if report is not None:
                m.outcomes.append(score(inputs.netlists[device.circuit], report, device))
                m.outputs.append(canonical_report_json(report))
        self._check_interp(inputs, reports, m)

        if layers is not None:
            n = max(1, len(traced_reports))
            m.layers.update(stage_layer_metrics(layers.times(), n))
            m.layers.update(sim_layer_metrics(traced_counts, n))
            for name, key in REPORT_COUNTS.items():
                m.layers[name] = sum(float(r.stats.get(key, 0.0)) for r in traced_reports) / n
            m.layers["obs.trace_overhead_frac"] = overhead(traced_s, untraced_s)
            m.layers["obs.spans"] = layers.n_spans() / n
        return m

    def _check_interp(self, inputs: Inputs, reports, m: Measurement) -> None:
        """The interpreter is the compiled backend's differential oracle."""
        candidates = [i for i, r in enumerate(reports) if r is not None]
        rng = random.Random(sub_seed(inputs.digest, "interp"))
        sample = sorted(rng.sample(candidates, min(self.interp_sample, len(candidates))))
        previous = os.environ.get("REPRO_SIM")
        os.environ["REPRO_SIM"] = "interp"
        try:
            for i in sample:
                reset_sim_caches()
                m.attempted += 1
                try:
                    oracle = self.diagnose_die(inputs, inputs.items[i])
                except Exception as exc:
                    m.failures.append(f"die {i} under interp: {type(exc).__name__}: {exc}")
                    continue
                if canonical_report_json(oracle) != canonical_report_json(reports[i]):
                    m.failures.append(f"die {i}: compiled and interp reports differ")
        finally:
            if previous is None:
                os.environ.pop("REPRO_SIM", None)
            else:
                os.environ["REPRO_SIM"] = previous
            reset_sim_caches()


# ---------------------------------------------------------------------------
# Warm campaign
# ---------------------------------------------------------------------------


class WarmCampaign:
    """A serial, seeded ``Campaign.run`` on one circuit, one trial per call
    so each trial is timed; caches stay warm from trial to trial."""

    name = "campaign_warm"
    circuit = "alu8"
    methods = ("xcover", "slat", "single")
    ks = (1, 2)
    per_second = 25.0
    minimum = 8
    warmup_trials = 4

    def setup(self, seed: int, seconds: float) -> Inputs:
        campaign = Campaign(self.circuit, pattern_seed=PATTERN_SEED)
        trials = [
            (self.ks[i % len(self.ks)], sub_seed(seed, self.name, i) % 1_000_000)
            for i in range(plan_size(self.per_second, seconds, self.minimum))
        ]
        digest = digest_of([campaign.patterns.fingerprint()] + trials)
        return Inputs({self.circuit: campaign.netlist}, {self.circuit: campaign.patterns},
                      trials, digest, campaign=campaign)

    def _config(self, k: int, trial_seed: int) -> CampaignConfig:
        return CampaignConfig(
            circuit=self.circuit, n_trials=1, k=k, methods=self.methods, seed=trial_seed
        )

    def measure(self, inputs: Inputs, layers: LayerTracer | None) -> Measurement:
        m = Measurement()
        campaign = inputs.campaign
        for w in range(self.warmup_trials):
            campaign.run(self._config(self.ks[w % len(self.ks)], 10_000_000 + w))
        traced_counts: dict = {}
        traced_s = untraced_s = 0.0
        resamples = 0
        speed = HostSpeed()
        for i, (k, trial_seed) in enumerate(inputs.items):
            speed.tick()
            m.attempted += 1
            config = self._config(k, trial_seed)
            try:
                (elapsed, result, delta), traced = run_pair(
                    lambda: campaign.run(config), layers, i, k=k
                )
            except Exception as exc:
                m.failures.append(f"trial k={k} seed={trial_seed}: {type(exc).__name__}: {exc}")
                continue
            if result.failed_trials or result.skipped_trials or not result.outcomes:
                m.failures.append(
                    f"trial k={k} seed={trial_seed}: {result.failed_trials} failed, "
                    f"{result.skipped_trials} skipped {result.skip_reasons}"
                )
                continue
            m.latencies.append(elapsed)
            m.outcomes.extend(o for o in result.outcomes if o.method == "xcover")
            m.outputs.append(repr([outcome_key(o) for o in result.outcomes]))
            resamples += sum(result.skip_reasons.values())
            add_counts(m.counts, delta)
            if traced is not None:
                untraced_s += elapsed
                traced_s += traced[0]
                add_counts(traced_counts, traced[2])
                if [outcome_key(o) for o in traced[1].outcomes] != [
                    outcome_key(o) for o in result.outcomes
                ]:
                    m.failures.append(f"trial k={k} seed={trial_seed}: traced outcome differs")
        m.wall = sum(m.latencies)
        m.host_speed = speed.factor()
        m.peak_rss_mb = peak_rss_mb()
        m.completed = len(m.latencies)
        for o in m.outcomes:
            for key in REPORT_COUNTS.values():
                m.counts[key] = m.counts.get(key, 0.0) + o.extra.get(key, 0.0)
        if layers is not None:
            # A traced run executes every trial twice, and the second run
            # finds the first one's memo entries: its counts are not the
            # untraced run's, so they are not recorded as exact.
            m.counts = {}
            n = max(1, m.completed)
            times = layers.times()
            m.layers.update(stage_layer_metrics(times, n))
            m.layers.update(sim_layer_metrics(traced_counts, n))
            for name, key in REPORT_COUNTS.items():
                m.layers[name] = sum(o.extra.get(key, 0.0) for o in m.outcomes) / n
            m.layers["campaign.trial_s"] = times.get("campaign.trial", {}).get("total", 0.0) / n
            for method in self.methods:
                m.layers[f"campaign.{method}_s"] = (
                    times.get(f"method:{method}", {}).get("total", 0.0) / n
                )
            m.layers["tester.resamples"] = resamples / n
            m.layers["obs.trace_overhead_frac"] = overhead(traced_s, untraced_s)
            m.layers["obs.spans"] = layers.n_spans() / n
        return m


# ---------------------------------------------------------------------------
# Served jobs, open loop
# ---------------------------------------------------------------------------


class _TimedDaemon(DiagnosisDaemon):
    """The daemon plus timestamps of each job's start and terminal state."""

    def __init__(self, config, *, run, clock=time.perf_counter):
        super().__init__(config, run=run)
        self.clock = clock
        self.started: dict[str, float] = {}
        self.finished: dict[str, float] = {}
        self.retries = 0
        self._done = threading.Condition()

    def on_running(self, job_id, attempt):
        super().on_running(job_id, attempt)
        with self._done:
            self.started.setdefault(job_id, self.clock())
            if attempt > 1:
                self.retries += 1

    def on_requeued(self, job_id, cause):
        super().on_requeued(job_id, cause)
        with self._done:
            self.retries += 1

    def _terminal(self, job_id):
        with self._done:
            self.finished[job_id] = self.clock()
            self._done.notify_all()

    def on_done(self, job_id, report):
        super().on_done(job_id, report)
        self._terminal(job_id)

    def on_failed(self, job_id, error):
        super().on_failed(job_id, error)
        self._terminal(job_id)

    def on_cancelled(self, job_id):
        super().on_cancelled(job_id)
        self._terminal(job_id)

    def wait(self, job_ids, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._done:
            while not all(j in self.finished for j in job_ids):
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self._done.wait(left)
        return True


class ServeOpen:
    """Distinct alu8/mul8 jobs through ``DiagnosisDaemon.handle`` at a fixed
    offered rate, with an fsync'd job store and two workers."""

    name = "serve_open"
    #: Two alu8 jobs (k = 1..3) for every single-defect mul8 job.
    cells = (("alu8", 1), ("alu8", 2), ("mul8", 1), ("alu8", 3), ("alu8", 1), ("mul8", 1),
             ("alu8", 2), ("alu8", 3), ("mul8", 1))
    rate = 3.0  #: offered jobs per second
    limit_s = 2.0  #: latency limit behind goodput
    minimum = 12

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def setup(self, seed: int, seconds: float) -> Inputs:
        netlists = {c: load_circuit(c) for c in ("alu8", "mul8")}
        patterns = {c: test_set(n, ("atpg",)) for c, n in netlists.items()}
        jobs, seen, resamples = [], set(), 0
        i = 0
        while len(jobs) < plan_size(self.rate, seconds, self.minimum):
            circuit, k = self.cells[i % len(self.cells)]
            device, redraws = make_device(
                netlists[circuit], patterns[circuit], circuit, k, seed, (self.name, i)
            )
            i += 1
            resamples += redraws
            spec = JobSpec(circuit=circuit, datalog=device.datalog, pattern_seed=PATTERN_SEED)
            if spec.fingerprint() in seen:
                continue  # an identical spec would be the same job
            seen.add(spec.fingerprint())
            jobs.append((spec, device))
        digest = digest_of(
            [patterns[c].fingerprint() for c in sorted(patterns)]
            + [json.dumps(spec.to_dict(), sort_keys=True) for spec, _ in jobs]
        )
        return Inputs(netlists, patterns, jobs, digest, resamples)

    def _session(self, inputs: Inputs, layers: LayerTracer | None, tag: str) -> dict:
        """One daemon lifetime serving the whole plan; returns timings."""
        reset_sim_caches()
        store_dir = self.scratch / f"serve-{os.getpid()}-{tag}"
        shutil.rmtree(store_dir, ignore_errors=True)
        store_dir.mkdir(parents=True)
        run = execute_job if layers is None else layers.wrap(execute_job, "serve.execute")
        session = {"submitted": {}, "due": {}, "status": {}, "lag": [], "store_dir": store_dir}
        with layers.active() if layers is not None else nullcontext():
            daemon = _TimedDaemon(
                ServeConfig(store=store_dir / "jobs.jsonl", workers=2, fsync=True), run=run
            )
            if layers is not None:
                layers.instrument_daemon(daemon)
            before = COUNTERS.snapshot()
            try:
                daemon.start()
                t0 = time.perf_counter() + 0.05
                for i, (spec, _device) in enumerate(inputs.items):
                    due = t0 + i / self.rate
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    sent = time.perf_counter()
                    response = daemon.handle(
                        "POST", "/jobs", json.dumps(spec.to_dict()).encode()
                    )
                    job_id = job_id_for(spec)
                    session["lag"].append(sent - due)
                    session["due"][job_id] = due
                    session["submitted"][job_id] = time.perf_counter()
                    session["status"][job_id] = response.status
                accepted = [j for j, s in session["status"].items() if s == 202]
                session["complete"] = daemon.wait(accepted, timeout=120.0)
                session["end"] = time.perf_counter()
                session["t0"] = t0
            finally:
                daemon.drain()
        session["counts"] = COUNTERS.delta(before)
        session["daemon"] = daemon
        return session

    def measure(self, inputs: Inputs, layers: LayerTracer | None) -> Measurement:
        m = Measurement()
        sessions = [self._session(inputs, None, "plain")]
        m.peak_rss_mb = peak_rss_mb()
        try:
            self._collect(inputs, sessions[0], m)
            if layers is not None:
                sessions.append(self._session(inputs, layers, "traced"))
                self._layers(inputs, sessions[0], sessions[1], layers, m)
        finally:
            for session in sessions:
                shutil.rmtree(session["store_dir"], ignore_errors=True)
        return m

    def _collect(self, inputs: Inputs, session: dict, m: Measurement) -> None:
        daemon = session["daemon"]
        if not session["complete"]:
            m.failures.append("served jobs still unfinished 120 s after the last submission")
        good = 0
        for spec, device in inputs.items:
            m.attempted += 1
            job_id = job_id_for(spec)
            status = session["status"].get(job_id)
            job = daemon.store.get(job_id)
            if status != 202 or job is None:
                m.failures.append(f"job {job_id} refused with {status}")
                continue
            if job.state != "done" or job.report is None:
                m.failures.append(f"job {job_id} ended {job.state}: {job.error}")
                continue
            latency = daemon.finished[job_id] - session["due"][job_id]
            m.latencies.append(latency)
            if latency <= self.limit_s:
                good += 1
            stored = json.dumps(job.report, sort_keys=True, separators=(",", ":"))
            # The stored report must be what a direct execution returns.
            direct = canonical_report_json(execute_job(spec, degraded=job.degraded))
            if stored != direct:
                m.failures.append(f"job {job_id}: stored report differs from execute_job")
                continue
            m.outputs.append(stored)
            report = DiagnosisReport.from_dict(job.report)
            m.outcomes.append(score(inputs.netlists[spec.circuit], report, device))
        m.completed = good
        m.wall = max(session["end"] - session["t0"], 1e-9)
        lag = session["lag"]
        m.notes["generator lag p50/max s"] = f"{statistics.median(lag):.4f}/{max(lag):.4f}"

    def _layers(self, inputs, plain, traced, layers, m: Measurement) -> None:
        jobs = [job_id_for(spec) for spec, _ in inputs.items]
        n = max(1, len(jobs))
        times = layers.times()
        daemon = traced["daemon"]
        for job_id in jobs:
            job = daemon.store.get(job_id)
            ref = plain["daemon"].store.get(job_id)
            if job is None or ref is None or job.report != ref.report:
                m.failures.append(f"job {job_id}: traced session report differs")
        waits = [daemon.started[j] - traced["submitted"][j] for j in jobs if j in daemon.started]
        m.layers["serve.admit_s"] = times.get("serve.handle", {}).get("self", 0.0) / n
        m.layers["serve.journal_s"] = times.get("serve.journal", {}).get("total", 0.0) / n
        m.layers["serve.execute_s"] = times.get("serve.execute", {}).get("total", 0.0) / n
        m.layers["serve.queue_wait_s"] = statistics.fmean(waits) if waits else 0.0
        m.layers["serve.rejected"] = sum(1 for s in traced["status"].values() if s != 202) / n
        m.layers["serve.retries"] = daemon.retries / n
        m.layers["serve.generator_lag_s"] = max(traced["lag"])
        m.layers["sim.codegen_s"] = times.get("sim.codegen", {}).get("total", 0.0) / n
        m.layers["sim.context_s"] = times.get("sim.context", {}).get("self", 0.0) / n
        m.layers.update(sim_layer_metrics(traced["counts"], n))

        def busy(session):
            d = session["daemon"]
            return sum(d.finished[j] - d.started[j] for j in jobs if j in d.started and j in d.finished)

        m.layers["obs.trace_overhead_frac"] = overhead(busy(traced), busy(plain))
        m.layers["obs.spans"] = layers.n_spans() / n
