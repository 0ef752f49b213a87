#!/usr/bin/env python3
"""The pipeline benchmark's own tests; CMakeLists.txt registers each with
ctest. Every test takes the built binary and a scratch directory:

    test_pipeline.py --binary BIN --scratch DIR smoke    # every workload, small
    test_pipeline.py --binary BIN --scratch DIR fault    # failure accounting
    test_pipeline.py --binary BIN --scratch DIR planted  # gate rejects 2x
"""

import argparse
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import run


def catalog():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


def smoke(args):
    """Each workload at about 1/50 size, untraced and traced: every output
    check passes and the result line holds exactly BENCHMARK.json's metrics
    with their units."""
    end_to_end, per_layer, workloads = catalog()
    errors = []
    if workloads != run.WORKLOADS:
        errors.append(f"BENCHMARK.json workloads {workloads}")
    for workload in workloads:
        for trace, want in (("0", end_to_end), ("1", per_layer)):
            proc = subprocess.run(
                [args.binary, "--workload", workload, "--smoke", "--trace",
                 trace, "--scratch", args.scratch],
                stdout=subprocess.PIPE, text=True)
            where = f"{workload} --trace {trace}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"] or \
                    result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{where}: exit {proc.returncode}, {result}")
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                errors.append(f"{where}: keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics differ: "
                              f"{set(got.items()) ^ set(want.items())}")
            if trace == "0":
                zero = [k for k, v in result["metrics"].items()
                        if not v["value"] > 0]
                if zero:
                    errors.append(f"{where}: not positive: {zero}")
    return errors


def fault(args):
    """many-trials at smoke size with the heuristic-map fault site armed:
    failed = quarantined executions > 0 over trials x heuristics, the traced
    pass still matches every completed record, and the gate rejects the
    faulted result against a clean one."""
    scratch = Path(args.scratch)
    clean = run.record(args.binary, ["many-trials"], 1, run.DEFAULT_SEED, 1,
                       scratch, smoke=True)
    env = dict(os.environ, HCSCHED_FAULT="heuristic-map:0.05:7")
    faulted = run.record(args.binary, ["many-trials"], 1, run.DEFAULT_SEED,
                         1, scratch, smoke=True, env=env)
    w = faulted["workloads"]["many-trials"]
    errors = []
    trials_x_heuristics = 40 * 6  # the smoke spec, one pass
    if not (w["quarantined"] > 0 and w["failed"] == w["quarantined"] and
            w["attempted"] == trials_x_heuristics):
        errors.append(f"faulted accounting: {w['attempted']} attempted, "
                      f"{w['failed']} failed, {w['quarantined']} quarantined")
    if not w["correct"]:
        errors.append(f"faulted run failed checks: {w['failed_checks']}")
    paths = [scratch / "fault_clean.json", scratch / "fault_faulted.json"]
    for path, doc in zip(paths, (clean, faulted)):
        path.write_text(json.dumps(doc))
    gate = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                           "--compare", *map(str, paths)],
                          stdout=subprocess.PIPE, text=True)
    print(gate.stdout)
    # Timings of two one-pass smoke runs may differ either way; the failure
    # ratio alone must be enough to fail the gate.
    if gate.returncode != 1 or \
            ["many-trials", "fail_ratio"] not in regressed_pairs(gate.stdout):
        errors.append("the gate accepted a rise in fail_ratio")
    return errors


def regressed_pairs(gate_output):
    """(workload, metric) of every row the gate marked regressed."""
    return [line.split()[:2] for line in gate_output.splitlines()
            if line.split()[2:3] == ["regressed"]]


def planted(args):
    """The checked-in baseline with greedy-large's runs_per_s halved must be
    rejected for exactly that pair."""
    base_path = run.HERE / "baseline.json"
    doc = copy.deepcopy(json.loads(base_path.read_text()))
    metric = doc["workloads"]["greedy-large"]["end_to_end"]["runs_per_s"]
    for key in ("median", "q1", "q3"):
        metric[key] /= 2
    metric["samples"] = [x / 2 for x in metric["samples"]]
    slow = Path(args.scratch) / "planted_slowdown.json"
    slow.write_text(json.dumps(doc))
    gate = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                           "--compare", str(base_path), str(slow)],
                          stdout=subprocess.PIPE, text=True)
    print(gate.stdout)
    regressed = regressed_pairs(gate.stdout)
    if gate.returncode != 1 or regressed != [["greedy-large", "runs_per_s"]]:
        return [f"planted 2x slowdown: exit {gate.returncode}, "
                f"regressed {regressed}"]
    return []


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("test", choices=["smoke", "fault", "planted"])
    args = parser.parse_args()
    Path(args.scratch).mkdir(parents=True, exist_ok=True)
    errors = {"smoke": smoke, "fault": fault, "planted": planted}[args.test](
        args)
    for error in errors:
        print("FAIL:", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
