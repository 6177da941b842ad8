"""Measured half of a benchmark run: drives the CLI in-process.

Started by ``run.py`` in a fresh interpreter, so its peak resident set
is the program's, and kept free of output checks for the same reason.
It runs the warm-up operation, then operations 1, 2, ... until the time
is up, each through ``threshauth.cli.main`` with stdout, stderr and
warnings captured. With ``--trace 1`` it spends half the time untraced,
then runs the same operations again under the tracer. Everything it saw
goes to ``worker.json`` in the output directory for ``run.py`` to check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import spans
import workloads

# The traced pass stops once it holds this many spans (about 60 MB in
# memory): one fig1a sweep alone records some 67,000.
SPAN_BUDGET = 250_000


def run_call(cli, argv: list[str]) -> dict:
    """One CLI invocation with everything it printed or raised."""
    out, err, error = io.StringIO(), io.StringIO(), None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad input this way
                code = exc.code
            except Exception as exc:  # a crash fails this invocation, not the run
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
    return {
        "argv": argv, "code": code, "error": error, "seconds": seconds,
        "stdout": out.getvalue(), "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def run_op(cli, op: dict, tag: str) -> dict:
    calls = [run_call(cli, argv) for argv in op["calls"]]
    return {"index": op["index"], "tag": tag, "calls": calls,
            "seconds": sum(c["seconds"] for c in calls)}


def measure(cli, args, seconds: float) -> list[dict]:
    """Operations 1, 2, ... until ``seconds`` have passed; at least one."""
    records, start = [], time.perf_counter()
    for index in itertools.count(1):
        op = workloads.make_op(args.workload, args.seed, index, args.out, "timed")
        records.append(run_op(cli, op, "timed"))
        if time.perf_counter() - start >= seconds:
            return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src))
    from threshauth import cli  # the program, from the checkout's source

    if not Path(cli.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"error: imported {cli.__file__}, not the source under {args.src}", file=sys.stderr)
        return 2

    result = {"numpy": np.__version__, "program": cli.__file__}
    warmup = run_op(cli, workloads.make_op(args.workload, args.seed, 0, args.out, "warmup"), "warmup")
    if args.trace == 0:
        records = [warmup, *measure(cli, args, args.seconds)]
        if args.workload == "fig3":
            rerun = workloads.make_op(args.workload, args.seed, 1, args.out, "rerun")
            records.append(run_op(cli, rerun, "rerun"))
    else:
        untraced = measure(cli, args, args.seconds / 2)
        tracer = spans.Tracer()
        traced, start = [], time.perf_counter()
        with tracer.installed():
            for rec in untraced:
                tracer.op = rec["index"]
                op = workloads.make_op(args.workload, args.seed, rec["index"], args.out, "traced")
                traced.append(run_op(cli, op, "traced"))
                if (time.perf_counter() - start >= args.seconds / 2
                        or len(tracer.spans) >= SPAN_BUDGET):
                    break
        records = [warmup, *untraced, *traced]
        tracer.write(args.out / "spans.csv.gz")
        base = sum(r["seconds"] for r in untraced[: len(traced)])
        result["layers"] = {
            **spans.layer_metrics(tracer.spans, len(traced)),
            "trace.overhead_frac": ((sum(r["seconds"] for r in traced) - base) / base, "ratio"),
        }
        result["patched_names"] = tracer.patched_names
    result["records"] = records
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out / "worker.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
