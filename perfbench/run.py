"""The repository benchmark: cold, warm and served diagnosis.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_cover --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` repeats every operation traced and reports the per-layer
metrics instead (and writes a Chrome trace under ``perfbench/out/``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, the input digest and the exact counts.
Workloads, metrics and findings are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workloads():
    from workloads import ColdDiagnosis, ServeOpen, WarmCampaign

    return {
        "cold_cover": ColdDiagnosis(
            "cold_cover",
            cells=[("rca8", 4), ("alu8", 4), ("rca8", 5), ("alu8", 5)],
            test_sets={"rca8": ("atpg",), "alu8": ("atpg",)},
            per_second=1.6,
            minimum=8,
            interp_sample=2,
        ),
        "cold_sim": ColdDiagnosis(
            "cold_sim",
            cells=[("rnd1000", 1)] + [("rnd300", 1)] * 4,
            test_sets={"rnd1000": ("random", 64), "rnd300": ("random", 64)},
            per_second=3.0,
            minimum=4,
            interp_sample=1,
        ),
        "campaign_warm": WarmCampaign(),
        "serve_open": ServeOpen(OUT / "tmp"),
    }


def run_setups(workload, seed, seconds, failures):
    """``SETUPS`` cold set-ups; returns (inputs, median seconds)."""
    import repro.campaign.driver as driver
    from repro.sim.cache import reset_sim_caches

    durations, digests, inputs = [], [], None
    for _ in range(SETUPS):
        # Drop the provisioned test sets so every set-up pays for ATPG.
        driver._pattern_cache.clear()
        reset_sim_caches()
        start = time.perf_counter()
        inputs = workload.setup(seed, seconds)
        durations.append(time.perf_counter() - start)
        digests.append(inputs.digest)
    if len(set(digests)) != 1:
        failures.append(f"set-ups with one seed gave different input digests: {digests}")
    return inputs, statistics.median(durations)


def traced_setup(workload, seed, seconds):
    """One more set-up, traced: its spans and the set-up layer metrics."""
    import repro.campaign.driver as driver
    from layers import LayerTracer
    from repro.sim.cache import reset_sim_caches

    layers = LayerTracer(inject=True)
    driver._pattern_cache.clear()
    reset_sim_caches()
    with layers.active(), layers.span("setup"):
        workload.setup(seed, seconds)
    times = layers.times()
    return layers, {
        "circuit.load_s": times.get("circuit.load", {}).get("total", 0.0),
        "atpg.provision_s": times.get("atpg.provision", {}).get("total", 0.0),
    }


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(m, setup_s):
    outcomes = m.outcomes
    n = len(outcomes) or 1
    failed = min(len(m.failures), m.attempted)
    return {
        # Set-up time at the reference host speed, as ops_per_s: the run's
        # mean probe stands in for the host's speed while it set up.
        "setup_s": setup_s / m.host_speed,
        "ops_per_s": m.completed / m.wall * m.host_speed if m.wall else 0.0,
        "ok_frac": 1.0 - failed / max(1, m.attempted),
        "recall": sum(o.recall_near for o in outcomes) / n,
        "precision": sum(o.precision for o in outcomes) / n,
        "resolution": sum(o.resolution for o in outcomes) / n,
        "exact_frac": sum(1 for o in outcomes if o.completeness == "exact") / n,
        "peak_rss_mb": m.peak_rss_mb,
    }


def code_fingerprint() -> str:
    """Digest of the program and benchmark sources: recorded digests are
    compared only between runs of the same code."""
    from workloads import digest_of

    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    return digest_of(f"{f.relative_to(ROOT)}:{f.read_text()}" for f in files)


def check_state(key, record, failures):
    """Compare this run's digests with an earlier run of the same code and
    arguments in this checkout, then record them."""
    path = OUT / "state.json"
    try:
        state = json.loads(path.read_text())
    except (OSError, ValueError):
        state = {}
    earlier = state.get(key)
    if earlier is not None:
        for field, value in record.items():
            if field in earlier and earlier[field] != value:
                failures.append(
                    f"{field} digest {value} differs from an earlier run with the "
                    f"same arguments ({earlier[field]})"
                )
    state[key] = record
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    # The default backend is the one measured; the interpreter is only
    # the differential oracle of the output checks.
    os.environ.pop("REPRO_SIM", None)
    workloads = make_workloads()
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    OUT.mkdir(exist_ok=True)

    from layers import LayerTracer
    from repro.obs.trace import to_chrome_trace
    from workloads import digest_of

    workload = workloads[args.workload]
    failures: list[str] = []
    inputs, setup_s = run_setups(workload, args.seed, args.seconds, failures)
    layers = None
    if args.trace:
        setup_layers, setup_metrics = traced_setup(workload, args.seed, args.seconds)
        layers = LayerTracer(inject=args.workload != "serve_open")
    m = workload.measure(inputs, layers)
    failures.extend(m.failures)

    counts_text = ", ".join(f"{k}={v:g}" for k, v in sorted(m.counts.items()))
    record = {"inputs": inputs.digest, "outputs": digest_of(m.outputs)}
    if m.counts:
        record["counts"] = digest_of([counts_text])
    check_state(
        f"{code_fingerprint()}/{args.workload}/{args.seed}/{args.seconds:g}/{args.trace}",
        record,
        failures,
    )

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        metrics = dict.fromkeys(units, 0.0)
        metrics.update(setup_metrics)
        metrics["tester.resamples"] = inputs.resamples / max(1, m.completed)
        metrics.update({k: v for k, v in m.layers.items() if k in units})
        lanes = setup_layers.forest() + [
            (lane + len(setup_layers.lanes), spans) for lane, spans in layers.forest()
        ]
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        trace_path.write_text(json.dumps(to_chrome_trace(lanes)))
    else:
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
        metrics = end_to_end(m, setup_s)

    failed = min(len(failures), m.attempted)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  operations {len(m.latencies)}/{m.attempted}")
    print(f"input digest {inputs.digest}  output digest {record['outputs']}")
    if counts_text:
        print(f"exact counts: {counts_text}")
    if m.latencies:
        print(f"per-operation latency over {len(m.latencies)} operations: "
              f"p50 {statistics.median(m.latencies):.4f} s, "
              f"p90 {percentile(m.latencies, 90):.4f} s (not scored, see NOTES.md)")
    if m.host_speed != 1.0:
        print(f"host speed factor {m.host_speed:.4f}; raw throughput "
              f"{m.completed / m.wall:.4f}/s, raw set-up {setup_s:.4f} s "
              "(ops_per_s is raw x factor, setup_s raw / factor)")
    for key, value in m.notes.items():
        print(f"{key}: {value}")
    for failure in failures:
        print(f"FAILED: {failure}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    if args.trace:
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": max(1, m.attempted),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
