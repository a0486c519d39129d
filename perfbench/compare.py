"""Compare benchmark runs of a parent commit and a change.

Collect paired runs (the same benchmark code drives both checkouts, at
the ``run_seconds`` of BENCHMARK.json; the side that runs first
alternates from pair to pair)::

    python3 perfbench/compare.py run --parent ../parent --change . \\
        --seeds 1-10 --out pairs.jsonl [--workloads exact-info simulate]

Then report, per workload and end-to-end metric, each side's median
and quartiles, the pair win rate and a verdict::

    python3 perfbench/compare.py report pairs.jsonl

Verdicts, using the bounds in BENCHMARK.json:

``improved``
    the change wins at least 9 of 10 pairs (ties count for neither)
    and the medians differ, in the better direction, by more than the
    parent's own interquartile distance;
``regressed``
    the change's median is worse than the parent's by more than the
    bound;
``unresolved``
    the run-to-run spread of either side (interquartile distance over
    median) exceeds the bound, and not every change run beats every
    parent run;
``no worse``
    otherwise.

A side with more failed checks than the other is flagged: a gain does
not count when more operations fail.  Each verdict is also worked out
on the values as measured, before the host-speed scaling; a metric
that regressed as measured but not scaled is flagged, since a change
that slows the calibration kernel along with the program would be
scaled away.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence, Tuple

from workloads import load_benchmark

HERE = os.path.dirname(os.path.abspath(__file__))
WIN_SHARE = 0.9


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_one(root: str, workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The unscaled values, from the ``host speed`` line.
    raw = next(line for line in lines if "as measured: " in line)
    result["raw"] = {
        name: float(value)
        for name, value in (
            part.split(" ") for part in raw.split("as measured: ", 1)[1].split(", ")
        )
    }
    return result


def collect(args: argparse.Namespace) -> int:
    spec = load_benchmark()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    sides = (("parent", args.parent), ("change", args.change))
    with open(args.out, "a") as out:
        for workload in workloads:
            for pair, seed in enumerate(parse_seeds(args.seeds)):
                order = sides if pair % 2 == 0 else sides[::-1]
                for position, (side, root) in enumerate(order):
                    result = run_one(root, workload, seed, spec["run_seconds"])
                    out.write(json.dumps({
                        "side": side, "workload": workload, "seed": seed,
                        "pair": pair, "first": position == 0, "result": result,
                    }) + "\n")
                    out.flush()
                    print(f"{workload} seed {seed} {side}: "
                          f"failed {result['failed']}", file=sys.stderr)
    return 0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], pairs: List[Tuple[float, float]],
            better: str, bound: float) -> Dict[str, Any]:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    gain = sign * (cm - pm)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    worse_by = -gain / abs(pm) if pm else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if win_rate >= WIN_SHARE and gain > (p3 - p1):
        call = "improved"
    elif worse_by > bound:
        call = "regressed"
    elif spread > bound and not all_better:
        call = "unresolved"
    else:
        call = "no worse"
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3),
        "win_rate": win_rate, "pairs": len(pairs), "spread": spread,
        "verdict": call,
    }


def report(args: argparse.Namespace) -> int:
    spec = load_benchmark()
    rows: Dict[str, Dict[str, Dict[int, Any]]] = {}
    for line in open(args.results):
        entry = json.loads(line)
        rows.setdefault(entry["workload"], {}).setdefault(entry["side"], {})[
            entry["seed"]] = entry["result"]
    exit_code = 0
    for workload, sides in sorted(rows.items()):
        parent, change = sides.get("parent", {}), sides.get("change", {})
        seeds = sorted(set(parent) & set(change))
        if not seeds:
            continue
        failed = {side: sum(r["failed"] for r in runs.values())
                  for side, runs in (("parent", parent), ("change", change))}
        print(f"\n== {workload} ({len(seeds)} pairs, "
              f"failed checks parent {failed['parent']} change {failed['change']})")
        if failed["change"] > failed["parent"]:
            print("   the change fails more checks: no gain counts")
            exit_code = 1
        print(f"   {'metric':<26}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}"
              f"{'wins':>7}{'spread':>8}  verdict")
        flagged: List[str] = []
        for entry in spec["end_to_end"]:
            name = entry["name"]
            p = [parent[s]["metrics"][name]["value"] for s in seeds]
            c = [change[s]["metrics"][name]["value"] for s in seeds]
            result = verdict(p, c, list(zip(p, c)), entry["better"], entry["bound"])
            call = result["verdict"]
            if call == "regressed":
                exit_code = 1
            p_raw = [parent[s]["raw"][name] for s in seeds]
            c_raw = [change[s]["raw"][name] for s in seeds]
            raw_call = verdict(p_raw, c_raw, list(zip(p_raw, c_raw)),
                               entry["better"], entry["bound"])["verdict"]
            if raw_call == "regressed" and call != "regressed":
                flagged.append(name)
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"   {name:<26}{fmt(result['parent']):>34}{fmt(result['change']):>34}"
                  f"{result['win_rate']:>7.0%}{result['spread']:>8.3f}  {call}"
                  f" (raw: {raw_call})")
        if flagged:
            print(f"   FLAG: {', '.join(flagged)} regressed as measured but not at the "
                  f"reference host speed; check that the change does not slow the "
                  f"calibration kernel too (a trace or profile hook, say)")
    return exit_code


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="collect alternating parent/change pairs")
    run.add_argument("--parent", required=True, help="root of the parent checkout")
    run.add_argument("--change", required=True, help="root of the change checkout")
    run.add_argument("--workloads", nargs="*")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report", help="medians, quartiles, win rate, verdicts")
    rep.add_argument("results")
    args = parser.parse_args(argv)
    return collect(args) if args.command == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
