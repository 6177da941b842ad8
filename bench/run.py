"""Benchmark of the threshauth CLI: one workload, one seed, one run.

    python3 bench/run.py --workload design|fig3|audit --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run measures set-up time in fresh
interpreters, starts ``worker.py`` in another fresh interpreter to drive
the CLI for ``--seconds`` seconds, then checks every output the worker
saw with ``oracle.py``, which shares no code with the program. It prints
the machine, the checks and every metric by name with its unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Per-run files go to
``.bench_out/`` in the checkout. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MAX_PROBLEMS = 10  # reported per invocation
# Names the traced run must have patched for its spans to see the
# calls: the copies imported into the modules that call them.
REQUIRED_PATCHES = (
    "threshauth.cli.brute_force_optimal", "threshauth.experiments.brute_force_optimal",
    "threshauth.channel.simulate_error_counts", "threshauth.exact.binomial_cdf",
    "threshauth.asymptotic.binomial_cdf", "threshauth.cli.emit_csv",
)


def measure_setup() -> list[float]:
    """Seconds from a fresh interpreter to ``import threshauth.cli`` done."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # the first import also compiles bytecode, which a user pays only once
    first = subprocess.run(
        [sys.executable, "-c", "import threshauth.cli as c; print(c.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    if not Path(first.stdout.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up probe imported {first.stdout.strip()}, not {SRC}")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import threshauth.cli"],
                       env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def call_problems(call: dict) -> list[str]:
    """Ways an invocation failed regardless of what it printed."""
    problems = []
    if call["error"]:
        problems.append(f"raised {call['error']}")
    elif call["code"] != 0:
        problems.append(f"exit code {call['code']}")
    if call["stderr"]:
        problems.append(f"wrote to stderr: {call['stderr'][:200]!r}")
    problems += [f"warned {w}" for w in call["warnings"] if w.startswith("RuntimeWarning")]
    return problems


class Checker:
    """Checks every invocation of a run and the properties across them."""

    def __init__(self, workload: str, seed: int, out_dir: Path) -> None:
        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        # (index, tag, call) -> stdout of a design call, digest of a sweep's CSV
        self.outputs: dict[tuple[int, str, int], str] = {}
        self.dominated_rows = 0  # fig1a rows where exact_worst <= elb1 must hold
        self._verified: dict[str, list[str]] = {}  # digest -> problems of that output

    def _sweep_problems(self, op: dict, call: dict) -> tuple[str, list[str]]:
        try:
            text = Path(op["out"]).read_text()
        except OSError as exc:
            return "", [f"no CSV: {exc}"]
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self._verified:
            per_omega = 12 if op["kind"] == "fig3" else oracle.FIG1A_ROUNDS
            rows = per_omega * len(op["grid"])
            problems = [] if call["stdout"] == f"wrote {rows} rows to {op['out']}\n" else [
                f"stdout {call['stdout']!r}"]
            if op["kind"] == "fig3":
                problems += oracle.check_fig3(text, op["grid"], op["trials"], op["k"], op["losses"])
            else:
                found, dominated = oracle.check_fig1a(text, op["grid"], op["losses"])
                problems += found
                self.dominated_rows = max(self.dominated_rows, dominated)
            self._verified[digest] = problems
        return digest, self._verified[digest]

    def record(self, rec: dict) -> None:
        op = workloads.make_op(self.workload, self.seed, rec["index"], self.out_dir, rec["tag"])
        for i, (argv, call) in enumerate(zip(op["calls"], rec["calls"])):
            self.attempted += 1
            problems = call_problems(call)
            if call["argv"] != argv:
                problems.append("ran other arguments than the workload's")
            elif op["kind"] == "design":
                if i == 0:
                    problems += oracle.check_bounds(op["query"], call["stdout"])
                else:
                    problems += oracle.check_exact(op["query"], call["stdout"], workloads.DESIGN_N_MAX)
                self.outputs[(rec["index"], rec["tag"], i)] = call["stdout"]
            elif not problems:
                digest, found = self._sweep_problems(op, call)
                problems += found
                self.outputs[(rec["index"], rec["tag"], i)] = digest
            if problems:
                self.failed += 1
                self.problems += [f"op {rec['index']} ({rec['tag']}) {argv[0]}: {p}"
                                  for p in problems[:MAX_PROBLEMS]]

    def across(self, records: list[dict], worker: dict) -> None:
        """Properties of the run as a whole; a violation makes it incorrect."""
        timed = [r["index"] for r in records if r["tag"] == "timed"]
        if self.workload == "design":
            omegas = {workloads.design_query(self.seed, i)["omega"] for i in timed}
            if len(omegas) != len(timed):
                self.problems.append("two design queries share an omega")
        if self.workload == "audit" and len({self.outputs.get((i, "timed", 0)) for i in timed}) > 1:
            self.problems.append("fig1a outputs differ between runs of the same command")
        for (index, tag, call), output in self.outputs.items():
            if tag in ("rerun", "traced") and output != self.outputs.get((index, "timed", call)):
                self.problems.append(f"op {index}: {tag} output differs from the same-seed first run")
        if "patched_names" in worker:
            missing = set(REQUIRED_PATCHES) - set(worker["patched_names"])
            if missing:
                self.problems.append(f"tracer did not patch {sorted(missing)}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, records: list[dict], setup: list[float], worker: dict,
               checker: Checker) -> dict[str, tuple[float, str]]:
    # Latencies are summarised by their 95th percentile: shared hosts switch
    # between speed states within a run, and a median flips with the share
    # of time spent in each (README, "Why p95").
    latencies = [r["seconds"] for r in records if r["tag"] == "timed"]
    sweeps = latencies
    if workload == "design":
        batch = workloads.DESIGN_BATCH
        sweeps = [sum(latencies[i:i + batch]) for i in range(0, len(latencies) - batch + 1, batch)]
        sweeps = sweeps or [statistics.fmean(latencies) * batch]
    return {
        "query_p95_ms": (percentile(latencies, 95) * 1e3, "ms"),
        "sweep_s": (percentile(sweeps, 95), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (worker["peak_rss_kb"] / 1024.0, "MB"),
        "ok_frac": (1.0 - checker.failed / checker.attempted, "ratio"),
    }


def machine(numpy_version: str) -> str:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"{platform.platform()} {platform.processor() or platform.machine()}, "
            f"nproc {cores}, python {platform.python_version()}, numpy {numpy_version}")


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    if not (SRC / "threshauth" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setup = measure_setup()
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    worker_cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--src", str(SRC), "--out", str(out_dir),
    ]
    try:
        proc = subprocess.run(worker_cmd, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {budget:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return 1
    worker = json.loads((out_dir / "worker.json").read_text())
    records = worker["records"]

    checker = Checker(args.workload, args.seed, out_dir)
    for rec in records:
        checker.record(rec)
    checker.across(records, worker)
    if args.trace == 0:
        metrics = end_to_end(args.workload, records, setup, worker, checker)
    else:
        metrics = {name: tuple(pair) for name, pair in worker["layers"].items()}

    timed = [r["seconds"] for r in records if r["tag"] == "timed"]
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# machine: {machine(worker['numpy'])}")
    print(f"# {len(timed)} timed operations, median {statistics.median(timed) * 1e3:.6g} ms; "
          f"{checker.attempted} CLI invocations checked, {checker.failed} failed")
    if checker.dominated_rows:
        print(f"# fig1a: exact_worst <= elb1 held on {checker.dominated_rows} rows "
              "with n*pu <= tau <= n*pa")
    if args.trace == 1:
        own = sorted((v, k[: -len(".self_s")]) for k, (v, _) in metrics.items()
                     if k.endswith(".self_s"))[::-1]
        print("# largest self times per operation: "
              + ", ".join(f"{name} {value:.4g} s" for value, name in own[:3]))
    for problem in checker.problems[:20]:
        print(f"# FAIL {problem}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")

    summary = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        **vars(args), "machine": machine(worker["numpy"]), "setup_probes_s": setup,
        "timed_latencies_s": timed,
        "problems": checker.problems, **summary,
    }
    (out_dir / "result.json").write_text(json.dumps(details, indent=1))
    for csv_file in out_dir.glob("op*.csv"):
        csv_file.unlink()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
