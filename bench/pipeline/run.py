#!/usr/bin/env python3
"""Build and run bench_pipeline; record results; gate regressions.

Run one workload (the BENCHMARK.json command, from the repository root):

    python3 bench/pipeline/run.py --workload paper-grid --seed 7 \
        --seconds 25 --trace 0

builds the benchmark into build-pipeline/ (incrementally), runs it, and
passes its output through: the last stdout line is the result object.

Record every workload, each run in its own process, into one document:

    python3 bench/pipeline/run.py --record run1.json [--runs 5] [--seconds 25]

Compare two records with the bounds in BENCHMARK.json (exit 1 on any
regression or any rise in the failure ratio):

    python3 bench/pipeline/run.py --compare run1.json run2.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-pipeline"
WORKLOADS = ["paper-grid", "greedy-large", "many-trials", "csv-iterate"]
DEFAULT_SEED = 20070326
# Absolute floors of the gate, in each metric's unit: a change smaller than
# this is never a regression, whatever the relative bound allows. A setup of
# microseconds (thread creation) varies by more than its bound from run to
# run and matters to no user.
FLOORS = {"setup_s": 0.05, "peak_rss_mb": 8.0}


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no hcsched sources under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "bench_pipeline", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "bench_pipeline"


def run_workload(binary, workload, seed, seconds, trace, scratch,
                 smoke=False, env=None):
    """One workload in its own process; returns its full result document."""
    Path(scratch).mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=scratch, suffix=".json") as out:
        cmd = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--scratch", str(scratch), "--out", out.name]
        if smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env, text=True)
        # Exit 1 with a document is a failed output check; without one, the
        # run threw before writing it.
        if proc.returncode not in (0, 1) or os.path.getsize(out.name) == 0:
            sys.exit(f"run.py: {workload} exited {proc.returncode}:\n"
                     f"{proc.stderr}")
        with open(out.name) as f:
            return json.load(f)


def summary(values, unit):
    values = list(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values), "unit": unit, "samples": values}


def per_run_numbers(results, sections):
    """{name: [one number per run]} for every number under `sections`, one
    level of nesting flattened ("heuristics.map_us.KPB"); a summary object
    contributes its median."""
    numbers = {}
    for r in results:
        for section in sections:
            for name, value in r[section].items():
                if isinstance(value, dict) and "median" in value:
                    value = value["median"]
                items = value.items() if isinstance(value, dict) else \
                    [("", value)]
                for sub, x in items:
                    key = f"{name}.{sub}" if sub else name
                    numbers.setdefault(key, []).append(x)
    return numbers


def record(binary, workloads, runs, seed, seconds, scratch, smoke=False,
           env=None):
    """Runs each workload `runs` times (seeds seed, seed+1, ...), traced, and
    summarizes every metric over the runs."""
    doc = {"schema": "bench_pipeline.record.v1", "seed": seed,
           "seconds": seconds, "runs": runs, "smoke": smoke,
           "fingerprint": None, "workloads": {}}
    for workload in workloads:
        results = [run_workload(binary, workload, seed + i, seconds, True,
                                scratch, smoke, env) for i in range(runs)]
        doc["fingerprint"] = doc["fingerprint"] or results[0]["fingerprint"]
        first = results[0]
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "quarantined": sum(r["quarantined"] for r in results),
            "failed_checks": sorted({c["name"] for r in results
                                     for c in r["checks"] if not c["ok"]}),
            "end_to_end": {
                name: summary((r["end_to_end"][name]["median"]
                               for r in results), m["unit"])
                for name, m in first["end_to_end"].items()},
            "per_layer": {
                name: summary((r["per_layer"][name]["value"]
                               for r in results), m["unit"])
                for name, m in first["per_layer"].items()},
            "detail": {
                name: summary(values, "") for name, values in
                per_run_numbers(results, ("extra", "layer_detail")).items()},
        }
        print(f"{workload}: " + ", ".join(
            f"{k} {v['median']:.6g} {v['unit']}" for k, v in
            doc["workloads"][workload]["end_to_end"].items()),
            file=sys.stderr)
    return doc


def verdict(base, new, better, bound, floor=0.0):
    """One (workload, metric) verdict per the choosing-metrics rules. The
    allowed change is the bound's share of the base median, or `floor` in
    the metric's unit if that is larger. A median worse by more than that
    is a regression; a gain needs at least ten paired runs, 9/10 of them
    won, and a median move larger than the base runs' own spread. A pair
    whose quartile spread exceeds the allowed change is unresolved, unless
    every new run beats every base run (improved) or loses to every base run
    with the median past the allowed change (regressed)."""
    b, n = base["samples"], new["samples"]
    mb, mn = statistics.median(b), statistics.median(n)
    sign = 1 if better == "lower" else -1
    wins = lambda x, y: sign * (x - y) < 0  # noqa: E731  x beats y
    worse = sign * (mn - mb)
    allowed = max(bound * mb, floor)
    spread = max(base["q3"] - base["q1"], new["q3"] - new["q1"])
    if spread > allowed:
        if all(wins(x, y) for x in n for y in b):
            return "improved"
        if worse > allowed and all(wins(y, x) for x in n for y in b):
            return "regressed"
        return "unresolved"
    if worse > allowed:
        return "regressed"
    pairs = list(zip(b, n))
    paired_wins = sum(1 for x, y in pairs if wins(y, x))
    if len(pairs) >= 10 and paired_wins >= 0.9 * len(pairs) and \
            abs(mn - mb) > base["q3"] - base["q1"]:
        return "improved"
    return "ok"


def compare(base_path, new_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    rows = [("workload", "metric", "verdict", "base median [q1, q3]",
             "new median [q1, q3]")]
    for workload in WORKLOADS:
        if workload not in base["workloads"] or \
                workload not in new["workloads"]:
            continue
        wb, wn = base["workloads"][workload], new["workloads"][workload]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            mb, mn = wb["end_to_end"][name], wn["end_to_end"][name]
            rows.append((workload, name,
                         verdict(mb, mn, metric["better"], metric["bound"],
                                 FLOORS.get(name, 0.0)),
                         quartiles(mb), quartiles(mn)))
        ratio_b = wb["failed"] / wb["attempted"]
        ratio_n = wn["failed"] / wn["attempted"]
        rows.append((workload, "fail_ratio",
                     "regressed" if ratio_n > ratio_b else "ok",
                     f"{ratio_b:.4g}", f"{ratio_n:.4g}"))
    for row in rows:
        print(f"{row[0]:<13} {row[1]:<12} {row[2]:<11} {row[3]:<34} {row[4]}")
    return 1 if any(row[2] == "regressed" for row in rows) else 0


def quartiles(m):
    return f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--record", metavar="OUT")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    binary = build()
    scratch = BUILD / "scratch"
    if args.record:
        doc = record(binary, WORKLOADS, args.runs, args.seed, args.seconds,
                     scratch)
        Path(args.record).write_text(json.dumps(doc, indent=1) + "\n")
        return 0 if all(w["correct"] for w in doc["workloads"].values()) \
            else 1
    if not args.workload:
        parser.error("one of --workload, --record or --compare is required")
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace, "--scratch", str(scratch)]
    scratch.mkdir(parents=True, exist_ok=True)
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
