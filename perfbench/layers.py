"""Per-layer tracing for the benchmark.

The benchmark records spans from its own side of each layer boundary: it
swaps a timing wrapper in for a layer's public function while a traced
operation runs and puts the original back afterwards, so the untraced
runs execute the program exactly as shipped.  Spans go into the
program's own :class:`repro.obs.trace.Tracer` (one per thread, so the
daemon's worker threads each get a lane), stay in memory, and are
written out once at the end of the run.

A span's *self time* is its duration minus the time its child spans
cover; :func:`span_times` folds a span forest into per-name self and
inclusive totals, from which :mod:`workloads` builds the per-layer
metrics.
"""

from __future__ import annotations

import functools
import sys
import threading
from contextlib import contextmanager

from repro.campaign.driver import Campaign, provision_patterns
from repro.circuit.library import load_circuit
from repro.atpg.random_gen import generate_stuck_at_tests
from repro.core.diagnose import Diagnoser
from repro.obs.trace import Tracer, install_tracer, uninstall_tracer
from repro.sim.cache import sim_context
from repro.sim.compile import KernelSet
from repro.tester.harness import apply_test

#: Module-level functions wrapped wherever a ``repro`` module or the
#: benchmark's own ``workloads`` module has bound them by name (``from x
#: import f`` copies the reference), with the span name each call records.
FUNCTIONS = (
    (load_circuit, "circuit.load"),
    (provision_patterns, "atpg.provision"),
    (generate_stuck_at_tests, "atpg.generate"),
    (apply_test, "tester.apply_test"),
    (sim_context, "sim.context"),
)

#: JobStore methods that write a journal record (fsync included).
JOURNAL_METHODS = (
    "submit",
    "mark_running",
    "mark_done",
    "mark_failed",
    "mark_cancelled",
    "mark_resubmitted",
)


class LayerTracer:
    """Per-thread span recorders plus the wrappers that feed them.

    ``inject=True`` (single-threaded workloads) also hands the calling
    thread's tracer to ``Diagnoser.diagnose`` and
    ``Campaign.run_trial_ex``, so the program's own stage and method
    spans nest under the benchmark's spans in one tree.  The daemon's
    workloads keep it off: the program's active-tracer stack is process
    wide, and two worker threads pushing onto it would interleave.
    """

    def __init__(self, inject: bool):
        self.inject = inject
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread name, tracer): one per operation, or per thread for
        #: spans recorded outside an operation (set-up, daemon workers).
        self.lanes: list[tuple[str, Tracer]] = []
        self._patches = self._build_patches()

    # -- recording -------------------------------------------------------

    def tracer(self) -> Tracer:
        """The calling thread's current tracer (created on first use)."""
        tracer = getattr(self._local, "tracer", None)
        return tracer if tracer is not None else self._new_tracer()

    def _new_tracer(self) -> Tracer:
        tracer = Tracer()
        self._local.tracer = tracer
        with self._lock:
            self.lanes.append((threading.current_thread().name, tracer))
        return tracer

    def span(self, name: str, **meta):
        return self.tracer().span(name, **meta)

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a ``name`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.tracer().span(name):
                return fn(*args, **kwargs)

        return traced

    def forest(self) -> list[tuple[int, list[dict]]]:
        """``(lane, span dicts)`` pairs, ready for ``to_chrome_trace``."""
        return [(lane, tracer.to_dicts()) for lane, (_, tracer) in enumerate(self.lanes)]

    def times(self) -> dict[str, dict[str, float]]:
        """:func:`span_times` over every lane."""
        totals: dict[str, dict[str, float]] = {}
        for _lane, spans in self.forest():
            for name, row in span_times(spans).items():
                acc = totals.setdefault(name, dict.fromkeys(row, 0.0))
                for key, value in row.items():
                    acc[key] += value
        return totals

    def n_spans(self) -> int:
        return sum(tracer.n_spans for _, tracer in self.lanes)

    # -- patching --------------------------------------------------------

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        """Every ``(owner, attribute, original, wrapper)`` swap, computed once
        so that switching tracing on and off is a short list of setattrs."""
        patches = []
        for fn, name in FUNCTIONS:
            wrapper = self.wrap(fn, name)
            for module in list(sys.modules.values()):
                name_of = getattr(module, "__name__", "")
                if not (name_of.startswith("repro") or name_of == "workloads"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patches.append((module, attr, fn, wrapper))

        kernel_fn = KernelSet.fn

        def fn_traced(kernels, variant):
            # Only a miss generates and compiles code; hits stay unwrapped
            # so the hot path pays one dict probe, not a span.
            if variant in kernels._fns:
                return kernel_fn(kernels, variant)
            with self.tracer().span("sim.codegen", variant=variant):
                return kernel_fn(kernels, variant)

        patches.append((KernelSet, "fn", kernel_fn, fn_traced))

        if self.inject:
            diagnose = Diagnoser.diagnose

            def diagnose_traced(diagnoser, patterns, datalog, budget=None, raw=None, tracer=None):
                return diagnose(
                    diagnoser, patterns, datalog, budget=budget, raw=raw,
                    tracer=tracer if tracer is not None else self.tracer(),
                )

            patches.append((Diagnoser, "diagnose", diagnose, diagnose_traced))

            run_trial_ex = Campaign.run_trial_ex

            def trial_traced(campaign, *args, **kwargs):
                if kwargs.get("tracer") is None:
                    kwargs["tracer"] = self.tracer()
                with self.tracer().span("campaign.trial"):
                    return run_trial_ex(campaign, *args, **kwargs)

            patches.append((Campaign, "run_trial_ex", run_trial_ex, trial_traced))
            patches.append(
                (Campaign, "run", Campaign.run, self.wrap(Campaign.run, "campaign.run"))
            )
        return patches

    @contextmanager
    def operation(self, **meta):
        """Wrappers in, and one ``op`` span around the block, in a tracer
        of its own: ``Diagnoser.diagnose`` copies the whole tree of the
        tracer it is handed into the report, so a tracer shared by every
        operation would be copied again on each one."""
        self._new_tracer()
        with self.active(), self.span("op", **meta):
            yield

    @contextmanager
    def active(self):
        """Swap the wrappers in for the duration of the block."""
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        installed = self.tracer() if self.inject else None
        if installed is not None:
            install_tracer(installed)
        try:
            yield self
        finally:
            if installed is not None:
                uninstall_tracer(installed)
            for owner, attr, orig, _wrapper in reversed(self._patches):
                setattr(owner, attr, orig)

    def instrument_daemon(self, daemon) -> None:
        """Record the daemon's request handling and journal writes.

        Patched on the instances, not the classes, so nothing outlives the
        daemon the traced session built.
        """
        daemon.handle = self.wrap(daemon.handle, "serve.handle")
        for method in JOURNAL_METHODS:
            setattr(
                daemon.store, method, self.wrap(getattr(daemon.store, method), "serve.journal")
            )


def span_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``self`` seconds, ``total`` (inclusive) seconds and
    ``count`` over a span-dict forest.  Point events count but hold no
    time."""
    out: dict[str, dict[str, float]] = {}

    def walk(span) -> None:
        duration = float(span.get("duration", 0.0))
        children = span.get("children", ())
        covered = sum(float(child.get("duration", 0.0)) for child in children)
        row = out.setdefault(span["name"], {"self": 0.0, "total": 0.0, "count": 0})
        row["self"] += duration - covered
        row["total"] += duration
        row["count"] += 1
        for child in children:
            walk(child)

    for span in spans:
        walk(span)
    return out
