"""Run one workload in this (fresh) process and print one JSON line.

Invoked by ``run.py`` from the root of a checkout, with ``src`` on
``PYTHONPATH``::

    python3 perfbench/bench.py --workload exact-info --seed 1 --seconds 15 --trace 0
    python3 perfbench/bench.py --workload simulate --seed 1 --setup-only

Untraced (``--trace 0``): set up once, then repeat timed passes over
the workload's fixed job list until ``--seconds`` have passed (at least
four), with tracing and the metrics registry off; every time is also
restated at the reference host speed (``workloads.Calibrator``).
Traced (``--trace 1``): alternate untraced and traced passes, and reduce
the last traced pass's spans and registry counters to per-layer
metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

from workloads import REFERENCE_CALIBRATION_S, WORKLOADS, PassOutcome, Workload  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 4
SETUP_CALIBRATION_SAMPLES = 5

#: Modules whose protocol classes and bindings must exist before the
#: traced run installs its wrappers.
PRELOAD = (
    "repro.protocols",
    "repro.check",
    "repro.topology",
    "repro.net",
    "repro.compression",
    "repro.lowerbounds",
    "repro.experiments.workloads",
    "repro.experiments.e1_disjointness_scaling",
    "repro.experiments.e16_cross_model",
    "repro.fabric.cells",
    "repro.fabric.service",
    "repro.fabric.sweep",
    "repro.store.sweep",
)


def digest(results: List[Any]) -> str:
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value."""
    ordered = sorted(values)
    rank = -(-round(q * 1000) * len(ordered) // 1000)  # exact integer ceil
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_pins() -> Dict[str, Dict[str, str]]:
    with open(os.path.join(HERE, "pins.json")) as handle:
        return json.load(handle)


def check_passes(workload: Workload, passes: List[PassOutcome]) -> Dict[str, Any]:
    """Failures over every pass, bit-identity across passes and the
    pinned digest of the first pass."""
    failures: List[str] = []
    for outcome in passes:
        failures.extend(outcome.failures)
    first = digest(passes[0].results)
    for number, outcome in enumerate(passes[1:], start=1):
        if digest(outcome.results) != first:
            failures.append(f"pass {number} results differ from pass 0")
    pinned = load_pins().get(workload.name, {}).get(str(workload.seed))
    if workload.scale != "full":
        pin_status = "not pinned at this scale"
    elif pinned is None:
        pin_status = "seed not pinned"
    elif pinned == first:
        pin_status = "matches pin"
    else:
        pin_status = "DIFFERS from pin"
        failures.append(f"result digest {first} != pinned {pinned}")
    return {
        "failures": failures,
        "attempted": sum(outcome.attempted for outcome in passes) + len(passes),
        "digest": first,
        "pin": pin_status,
    }


def end_to_end(workload: Workload, passes: List[PassOutcome], *, scaled: bool) -> Dict[str, float]:
    """The end-to-end metrics of a run; ``scaled`` restates every time
    at the reference host speed (see ``workloads.Calibrator``)."""

    def seconds(timing: Tuple[float, ...]) -> float:
        return timing[0] * timing[-1] if scaled else timing[0]

    if workload.name == "store-serve":
        cells = len(workload.keys)

        def serve_percentile(outcome: PassOutcome, q: float) -> float:
            scale = outcome.phases["serve_s"][1] if scaled else 1.0
            return percentile(outcome.serve_ms, q) * scale

        # The median is taken per pass, then over passes, so a burst of
        # host noise in a few passes stays out of the figure.
        metrics = {
            "wall_s": statistics.median(seconds(o.wall) for o in passes),
            "cpu_s": statistics.median(seconds(o.cpu) for o in passes),
            "cold_cells_per_s": cells / statistics.median(
                seconds(o.phases["cold_s"]) for o in passes
            ),
            "warm_cells_per_s": cells / statistics.median(
                seconds(o.phases["warm_s"]) for o in passes
            ),
            "serve_p50_ms": statistics.median(serve_percentile(o, 0.50) for o in passes),
            # Pooled over the run, so at least ten samples lie beyond it.
            "serve_p99_ms": percentile(
                [
                    sample * (o.phases["serve_s"][1] if scaled else 1.0)
                    for o in passes for sample in o.serve_ms
                ],
                0.99,
            ),
            # Keys served per second.
            "serve_rps": statistics.median(
                len(o.serve_ms) * workload.p["keys_per_get"] / seconds(o.phases["serve_s"])
                for o in passes
            ),
        }
    else:
        # A compute workload's cells are its jobs.  Passes alternate cold
        # (inputs regenerated) and warm (inputs reused); a job's time is
        # its median over all passes, or over the passes of one kind for
        # the cold and warm rates.
        cold = [o for o in passes if o.cold]
        warm = [o for o in passes if not o.cold]

        def per_job(outcomes: List[PassOutcome], cpu: bool = False) -> List[float]:
            def one(timing: Tuple[float, float, float]) -> float:
                value = timing[1] if cpu else timing[0]
                return value * timing[2] if scaled else value

            return [
                statistics.median(one(o.jobs[job.name]) for o in outcomes)
                for job in workload.jobs
            ]

        job_s = per_job(passes)
        jobs = len(workload.jobs)
        metrics = {
            "wall_s": sum(job_s),
            "cpu_s": sum(per_job(passes, cpu=True)),
            "cold_cells_per_s": jobs / sum(per_job(cold)),
            "warm_cells_per_s": jobs / sum(per_job(warm)),
            "serve_p50_ms": percentile(job_s, 0.50) * 1000.0,
            "serve_p99_ms": percentile(job_s, 0.99) * 1000.0,
            # One closed-loop client: requests per second are cells per second.
            "serve_rps": jobs / sum(job_s),
        }
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def samples_note(workload: Workload, passes: List[PassOutcome]) -> str:
    if workload.name == "store-serve":
        gets = sum(len(o.serve_ms) for o in passes)
        return (
            f"{gets} GETs of {workload.p['keys_per_get']} keys, "
            f"{workload.p['clients']} clients, closed loop"
        )
    cold = sum(1 for o in passes if o.cold)
    return (
        f"{len(workload.jobs)} jobs, per-job medians over {cold} cold and "
        f"{len(passes) - cold} warm passes"
    )


def per_layer(reduced: Dict[str, Any], counts: Dict[str, float],
              recorder: Any, hard_dist_s: float, overhead: float,
              get_rtts: List[float]) -> Dict[str, float]:
    self_s = reduced["self_s"]
    calls = reduced["calls"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    c = counts.get
    thrown = c("sampler_darts_thrown", 0)  # naive dart path only
    hits, misses = c("store_hits", 0), c("store_misses", 0)
    memo_hits, memo_misses = c("tree_memo_hits", 0), c("tree_memo_misses", 0)
    model = recorder.counts
    return {
        "model.transcripts": model.get("model.transcripts", 0),
        "model.messages": model.get("model.messages", 0),
        "model.distributions": model.get("model.distributions", 0),
        "hooks.calls": calls["hooks"],
        "hooks.self_s": self_s["hooks"],
        "tree.calls": calls["tree"],
        "tree.self_s": self_s["tree"],
        "tree.nodes": c("tree_nodes_expanded", 0),
        "tree.memo_hit_ratio": ratio(memo_hits, memo_hits + memo_misses),
        "info.calls": calls["info"],
        "info.self_s": self_s["info"],
        "info.outcomes": recorder.info_outcomes,
        "kernels.vectorized_calls": c("kernel_vectorized_calls", 0),
        "kernels.sim_self_s": self_s["kernels.sim"],
        "analysis.calls": calls["analysis"],
        "analysis.self_s": self_s["analysis"],
        "lowerbounds.dp_self_s": self_s["lowerbounds.dp"],
        "lowerbounds.hard_dist_s": hard_dist_s + self_s["lowerbounds.hard_dist"],
        "topology.runs": calls["topology.run"],
        "topology.run_self_s": self_s["topology.run"],
        "topology.tree_self_s": self_s["topology.tree"],
        "topology.link_bits": c("topology_link_bits", 0),
        "runner.runs": calls["runner"],
        "runner.self_s": self_s["runner"],
        "runner.messages": c("runner_messages", 0),
        "net.runs": calls["net"],
        "net.self_s": self_s["net"],
        "net.frames": c("net_frames_sent", 0),
        "net.bytes": c("net_bytes_on_wire", 0),
        "net.retries": c("net_retries", 0),
        "sampler.rounds": c("sampler_rounds", 0),
        "sampler.self_s": self_s["sampler"],
        "sampler.accept_ratio": ratio(c("sampler_rounds.naive", 0), thrown),
        "store.puts": calls["store.put"],
        "store.put_s": self_s["store.put"],
        "store.gets": calls["store.get"],
        "store.get_s": self_s["store.get"],
        "store.hit_ratio": ratio(hits, hits + misses),
        "store.bytes": c("store_bytes", 0),
        "grid.tasks": c("grid_tasks", 0),
        "grid.overhead_s": self_s["grid"],
        "fabric.cells_dispatched": c("fabric_cells_dispatched", 0),
        "fabric.sweep_overhead_s": self_s["fabric.sweep"],
        "fabric.get_rtt_s": statistics.median(get_rtts) if get_rtts else 0.0,
        "fabric.bytes": c("fabric_bytes_on_wire", 0),
        "trace.overhead_ratio": overhead,
        "trace.unattributed_share": ratio(reduced["unattributed_s"], reduced["busy_s"]),
    }


def layer_table(reduced: Dict[str, Any]) -> Dict[str, float]:
    """Self-time share of the traced thread time, per program layer."""
    from tracing import TABLE_LAYERS

    busy = reduced["busy_s"] or 1.0
    table = {
        layer: sum(reduced["self_s"][s] for s in spans) / busy
        for layer, spans in TABLE_LAYERS.items()
    }
    table["unattributed"] = reduced["unattributed_s"] / busy
    return table


def run_setup(workload: Workload) -> Dict[str, float]:
    """Set up, with calibration samples just before and after, so the
    set-up time can be restated at the reference host speed."""
    before = time.perf_counter()
    for _ in range(SETUP_CALIBRATION_SAMPLES):
        workload.calibrator.sample()
    calibrating = time.perf_counter() - before
    workload.setup()
    setup_s = time.perf_counter() - T0 - calibrating
    for _ in range(SETUP_CALIBRATION_SAMPLES):
        workload.calibrator.sample()
    samples = workload.calibrator.durations[-2 * SETUP_CALIBRATION_SAMPLES:]
    scale = REFERENCE_CALIBRATION_S / statistics.median(samples)
    return {"setup_s": setup_s * scale, "raw_setup_s": setup_s}


def run_untraced(workload: Workload, seconds: float) -> Dict[str, Any]:
    setup = run_setup(workload)
    passes: List[PassOutcome] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        passes.append(workload.run_pass(cold=len(passes) % 2 == 0))
    metrics = end_to_end(workload, passes, scaled=True)
    metrics["setup_s"] = setup["setup_s"]
    raw = end_to_end(workload, passes, scaled=False)
    raw["setup_s"] = setup["raw_setup_s"]
    calibration = workload.calibrator.durations
    return {
        "metrics": metrics,
        "raw_metrics": raw,
        "calibration_s": statistics.median(calibration),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "samples": samples_note(workload, passes),
        "passes": len(passes),
        **check_passes(workload, passes),
    }


def run_traced(workload: Workload, seconds: float, spans_path: str) -> Dict[str, Any]:
    import importlib

    from repro.obs.metrics import REGISTRY, disable_metrics, enable_metrics

    from tracing import SPAN_LAYERS, Instrumentation, SpanRecorder

    for name in PRELOAD:
        importlib.import_module(name)
    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder)
    instrumentation.install()
    try:
        workload.setup()
        hard_dist_s = recorder.reduce(0.0)["self_s"]["lowerbounds.hard_dist"]
    finally:
        instrumentation.uninstall()
    recorder.clear()

    untraced: List[PassOutcome] = []
    traced: List[PassOutcome] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        untraced.append(workload.run_pass(calibrate=False))
        recorder.clear()
        enable_metrics(reset=True)
        instrumentation.install()
        try:
            traced.append(workload.run_pass(recorder))
        finally:
            instrumentation.uninstall()
            disable_metrics()
    # The recorder and the registry now hold the last traced pass.
    reduced = recorder.reduce(traced[-1].wall[0])
    counts = {m.name: m.total() for m in REGISTRY.metrics() if hasattr(m, "total")}
    counts["sampler_rounds.naive"] = REGISTRY.counter("sampler_rounds").value(path="naive")
    get_layer = SPAN_LAYERS.index("fabric.get")
    get_rtts = [
        end - start
        for layer, start, end in zip(recorder.layer, recorder.start, recorder.end)
        if layer == get_layer
    ]
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    recorder.write(spans_path)
    overhead = statistics.median(o.wall[0] for o in traced) / statistics.median(
        o.wall[0] for o in untraced
    )
    checked = check_passes(workload, untraced + traced)
    checked["failures"].extend(f"trace accounting: {p}" for p in reduced["problems"])
    return {
        "metrics": per_layer(reduced, counts, recorder, hard_dist_s, overhead, get_rtts),
        "table": layer_table(reduced),
        "spans": reduced["spans"],
        "spans_file": spans_path,
        "samples": f"{len(traced)} traced + {len(untraced)} untraced passes",
        "passes": len(traced) + len(untraced),
        **checked,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work_dir = os.path.join(
        ".bench_build", "perfbench", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    workload = WORKLOADS[args.workload](args.seed, args.scale, work_dir)
    try:
        if args.setup_only:
            summary: Dict[str, Any] = run_setup(workload)
        elif args.trace:
            spans_path = os.path.join(
                ".bench_build", "perfbench", "spans",
                f"{args.workload}-seed{args.seed}.npz",
            )
            summary = run_traced(workload, args.seconds, spans_path)
        else:
            summary = run_untraced(workload, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
