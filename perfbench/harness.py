"""The measured process: imports sepdim from the checkout's ``src`` and runs
one workload's operations through ``sepdim.cli.main``, in-process, one call
per operation, on one thread.

    python3 perfbench/harness.py --workload W --seed N --seconds S \\
        --trace 0|1 --out DIR [--setup-only]

Reads the edge files that run.py wrote under DIR/inputs.  Writes
DIR/ops.jsonl (one line per operation attempted: round, index, exit code,
seconds, stdout, stderr) and DIR/spans.jsonl when tracing, and prints one
JSON summary line.  It never loads the checker's libraries.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_sepdim():
    sys.path.insert(0, SRC)
    import sepdim.cli

    where = os.path.dirname(os.path.abspath(sepdim.__file__))
    if where != os.path.join(SRC, "sepdim"):
        raise SystemExit(f"sepdim imported from {where}, not from {SRC}")
    return sepdim


def _run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            traceback.print_exc()
        seconds = perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def main(argv=None):
    t0 = perf_counter()
    sepdim = _import_sepdim()
    import workloads

    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # The inputs' edge files were written by run.py before any set-up;
    # set-up is the import plus generating the inputs from the seed.
    ops = workloads.build(args.workload, args.seed, os.path.join(args.out, "inputs"))
    setup_s = perf_counter() - t0
    summary = {} if args.setup_only else _measure(args, sepdim, ops)
    summary["setup_s"] = setup_s
    print(json.dumps(summary))
    return 0


def _measure(args, sepdim, ops):
    """Whole rounds of the workload's operations; the run's summary."""
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer, sepdim)

    cli = sepdim.cli
    round_walls, op_seconds, round_of_op = [], [], []
    started = perf_counter()
    with open(os.path.join(args.out, "ops.jsonl"), "w") as log:
        # Start another round only if one as long as the last still ends
        # within --seconds, so that a run does not overrun by most of a round.
        while (not round_walls or perf_counter() - started + round_walls[-1]
               <= args.seconds):
            rnd = len(round_walls)
            round_start = perf_counter()
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = len(round_of_op)
                round_of_op.append(rnd)
                code, seconds, out, err = _run_op(cli.main, op.argv)
                op_seconds.append(seconds)
                log.write(json.dumps({"round": rnd, "op": i, "code": code,
                                      "seconds": seconds, "stdout": out,
                                      "stderr": err}) + "\n")
            round_walls.append(perf_counter() - round_start)
            if rnd == 0:
                # Taken after the first round: later rounds add a little
                # (25.5 MB after one lp-batch round, 26.2 after two), and
                # how many rounds fit depends on the machine's speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summary = {
        "rounds": len(round_walls),
        "round_walls": round_walls,
        "wall_s": statistics.median(round_walls),
        "op_s_p50": statistics.median(op_seconds),
        "peak_rss_mb": peak_rss_mb,
        "foreign_modules": sorted(m for m in ("networkx", "scipy", "numpy")
                                  if m in sys.modules),
    }
    if tracer is not None:
        summary["layers"] = layertrace.layer_metrics(tracer.spans, round_of_op)
        tracer.dump(os.path.join(args.out, "spans.jsonl"))
    return summary


if __name__ == "__main__":
    sys.exit(main())
