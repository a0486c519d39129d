"""The repository benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact-info --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload store-serve --seed 1 --seconds 15 --trace 1

Workloads: ``exact-info``, ``simulate``, ``store-serve`` (see
``perfbench/workloads.py`` and ``BENCHMARK.json``).  The workload runs
in a fresh child process (``perfbench/bench.py``).  With ``--trace 0``
five more children only set up, so that ``setup_s`` is the median of
six cold set-ups.  Every metric is printed as ``name = value unit``;
the last line of standard output is the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 1`` reports the per-layer metrics of a separate traced run
instead, with the per-layer self-time table.  The program must be
importable from ``src/``; without it the command exits with status 2
before printing any result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

from workloads import load_benchmark, program_env

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170.0


def child(args: List[str], timeout: float) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py")] + args,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=program_env(), timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"bench.py {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny inputs, for the smoke test only",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from a checkout root holding src/repro", file=sys.stderr)
        return 2
    spec = load_benchmark()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", args.scale]
    try:
        probes = []
        if not args.trace:
            probes = [
                child(common + ["--setup-only"], 60.0)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
        summary = child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            CHILD_TIMEOUT_S,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    measured = summary["metrics"]
    if not args.trace:
        measured["setup_s"] = statistics.median(probes + [measured["setup_s"]])

    failures = summary["failures"]
    attempted = summary["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"{summary['passes']} passes  ({summary['samples']})")
    metrics = {}
    for entry in wanted:
        value = measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']} = {value:.6g} {entry['unit']}")
    # Reported but not bounded: a tail percentile on a shared host moves
    # with co-tenant load far beyond any useful bound, and a failure
    # ratio is 0 on every correct run.
    if "serve_p99_ms" in measured and not args.trace:
        print(f"  serve_p99_ms = {measured['serve_p99_ms']:.6g} ms (not bounded)")
    print(f"  failed_ratio = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} checks)")
    print(f"  result digest {summary['digest'][:16]}...  ({summary['pin']})")
    if args.trace:
        print(f"  per-layer self-time share of traced thread time "
              f"({summary['spans']} spans, written to {summary['spans_file']}):")
        for layer, share in sorted(summary["table"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<14} {share:7.2%}")
    if not args.trace:
        raw = summary["raw_metrics"]
        print(f"  host speed: calibration {summary['calibration_s'] * 1e3:.3f} ms "
              f"(reference {summary['reference_calibration_s'] * 1e3:.3f} ms); as measured: "
              + ", ".join(f"{name} {raw[name]:.6g}" for name in sorted(raw)))
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
