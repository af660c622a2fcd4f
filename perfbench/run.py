"""Benchmark entry point for sepdim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs from the root of a checkout.  One workload: write the seed's edge
files, set up several times in fresh processes (median = setup_s), run the
workload's rounds in one measured process (perfbench/harness.py), then check
every report in this process with perfbench/check.py, and print one JSON line:
{"correct", "attempted", "failed", "metrics"}.  End-to-end metrics come from
--trace 0, per-layer metrics from --trace 1.  Exits non-zero without a result
when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

import workloads  # noqa: E402  (this script's directory is on sys.path)

#: Fresh set-up processes per run besides the measured one.
SETUP_REPEATS = 8
#: A run must end within this many seconds.
RUN_LIMIT_S = 170


class RunError(RuntimeError):
    pass


def _harness(args, out_dir, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "harness.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    # The program's own default of one enumeration worker, whatever the
    # environment asks for.
    env = {k: v for k, v in os.environ.items() if k != "SEPDIM_THREADS"}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("the measured process did not finish in time")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"harness exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(ops, records):
    """Per-operation error lists, one per record, in order."""
    import check

    checker = check.Checker()
    errors = []
    scans = {}
    for rec in records:
        op = ops[rec["op"]]
        try:
            if op.scan is None:
                errors.append(checker.solve_errors(op.graph, op.mode, op.reduction,
                                                   rec["code"], rec["stdout"]))
                continue
            family, n, mode = op.scan
            errs, values = checker.scan_errors(family, n, mode, rec["code"],
                                               rec["stdout"])
        except (ValueError, KeyError, TypeError) as exc:
            errors.append([f"unreadable report: {exc!r}"])
            continue
        mine = scans.setdefault(rec["round"], {})
        mine[op.scan] = values
        smaller = mine.get(("tripartite", n - 1, "linear"))
        if family == "tripartite" and mode == "linear" and smaller:
            errs += check.monotone_errors(smaller, values)
        linear = mine.get((family, n, "linear"))
        if mode == "circular" and linear:
            errs += check.circular_below_linear_errors(linear, values)
        errors.append(errs)
    return errors


def run_one(args):
    deadline = monotonic() + RUN_LIMIT_S
    out_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-t{args.trace}")
    input_dir = os.path.join(out_dir, "inputs")
    os.makedirs(input_dir, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, input_dir)
    workloads.write_inputs(ops)
    setups = [_harness(args, out_dir, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    summary = _harness(args, out_dir, deadline)
    setups.append(summary["setup_s"])

    with open(os.path.join(out_dir, "ops.jsonl")) as fh:
        records = [json.loads(line) for line in fh]
    errors = _check(ops, records)

    failed = unexpected = 0
    for rec, errs in zip(records, errors):
        if errs:
            failed += 1
            op = ops[rec["op"]]
            if op.known_fault is None:
                unexpected += 1
            print(f"FAILED round {rec['round']} {op.name}: " + "; ".join(errs)
                  + ("" if op.known_fault is None else f" [known fault {op.known_fault}]"),
                  file=sys.stderr)
    if summary["foreign_modules"]:
        print(f"checker libraries loaded in the measured process: "
              f"{summary['foreign_modules']}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {summary['rounds']} round(s), "
          f"walls {[round(w, 4) for w in summary['round_walls']]}, median "
          f"operation {summary['op_s_p50']:.6f} s", file=sys.stderr)

    if args.trace:
        metrics = summary["layers"]
    else:
        metrics = {
            "wall_s": {"value": summary["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": unexpected == 0 and not summary["foreign_modules"],
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        args.workload = name
        try:
            result = run_one(args)
        except RunError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            for metric, m in result["metrics"].items():
                print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
            print(f"{name}  attempted {result['attempted']}, failed "
                  f"{result['failed']}, correct {result['correct']}")
        else:
            print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
