"""Layer spans recorded from outside the program.

The tracer replaces every public function of the traced layers with a
timing wrapper, in every module of the package that binds it: callers
look functions up through their own module's globals, so
``experiments.brute_force_optimal`` and ``cli.brute_force_optimal`` are
patched as well as ``exact.brute_force_optimal``. Leaving the ``with``
block restores every name and checks that it did.

Spans stay in memory as tuples ``(name, parent, op, start_ns, end_ns,
counts)`` and are written out once the run ends. ``parent`` is the
index of the enclosing span (-1 for a root) and ``op`` the query or
sweep the span belongs to. Counts are computed from the call's
arguments and result, not measured inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import os
import sys
import time

PACKAGE = "threshauth"
# ``loss`` has no metric of its own: its functions are one-line arithmetic
# inside exact and channel spans.
LAYERS = ("cli", "experiments", "exact", "channel", "noise", "bounds", "asymptotic")

_SWEEPS = ("figure1a_sweep", "figure1b_sweep", "figure3_comparison", "threshold_duel")

# Functions reported on their own; every other public function of a
# layer is pooled into "<layer>.other", except that all of ``bounds`` is
# one group (the CLI paths call optimal_rounds, optimal_threshold,
# threshold_loss_bound and rounds_loss_bound, and nothing else of it).
GROUP_OF = {
    "cli.main": "cli.main",
    "experiments.emit_csv": "experiments.emit_csv",
    "exact.binomial_pmf": "exact.binomial_pmf",
    "exact.brute_force_optimal": "exact.brute_force_optimal",
    "exact.binomial_cdf": "exact.binomial_cdf",
    "channel.simulate_error_counts": "channel.simulate_error_counts",
    "channel.estimate_worst_case_loss": "channel.estimate_worst_case_loss",
    "noise.simulate_coded_phase": "noise.simulate_coded_phase",
    "asymptotic.asymptotic_threshold": "asymptotic.asymptotic_threshold",
    **{f"experiments.{f}": "experiments.sweep" for f in _SWEEPS},
}
GROUPS = (
    "cli.main", "cli.other",
    "experiments.sweep", "experiments.emit_csv", "experiments.other",
    "exact.binomial_pmf", "exact.brute_force_optimal", "exact.binomial_cdf", "exact.other",
    "channel.simulate_error_counts", "channel.estimate_worst_case_loss", "channel.other",
    "noise.simulate_coded_phase", "noise.other",
    "bounds",
    "asymptotic.asymptotic_threshold", "asymptotic.other",
)
ABORT_REASONS = ("coded-abort", "gap-collapse", "invalid-rates")
# Counts summed over a group's calls, reported per operation.
COUNT_METRICS = {
    "exact.binomial_pmf.entries": "count",
    "exact.binomial_cdf.terms": "count",
    "channel.simulate_error_counts.draws": "count",
    "noise.simulate_coded_phase.symbols": "count",
    "noise.simulate_coded_phase.hopeless": "count",
    "experiments.emit_csv.bytes": "bytes",
    "experiments.sweep.rows": "count",
    **{f"experiments.sweep.abort_rows.{r}": "count" for r in ABORT_REASONS},
}


def group_of(name: str) -> str:
    layer = name.split(".")[0]
    return GROUP_OF.get(name, "bounds" if layer == "bounds" else f"{layer}.other")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _pmf_counts(args, kwargs, result) -> dict:
    return {"entries": _arg(args, kwargs, 0, "trials") + 1}


def _cdf_counts(args, kwargs, result) -> dict:
    spec, count = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "count")
    summed = 0 <= count < spec.trials and 0.0 < spec.success_prob < 1.0
    return {"terms": count + 1 if summed else 0}


def _brute_force_counts(args, kwargs, result) -> dict:
    return {"scanned": _arg(args, kwargs, 2, "n_max"), "useful": result.rounds}


def _draw_counts(args, kwargs, result) -> dict:
    rounds, trials = _arg(args, kwargs, 0, "rounds"), _arg(args, kwargs, 2, "trials")
    return {"draws": rounds * trials}


def _coded_phase_counts(args, kwargs, result) -> dict:
    code = _arg(args, kwargs, 1, "code")
    return {"symbols": code.codeword_length, "hopeless": int(result[1])}


def _emit_counts(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _sweep_counts(args, kwargs, result) -> dict:
    counts = {"rows": len(result)}
    for row in result:
        if row.aborted:
            key = f"abort_rows.{row.aborted}"
            counts[key] = counts.get(key, 0) + 1
    return counts


COUNTERS = {
    "exact.binomial_pmf": _pmf_counts,
    "exact.binomial_cdf": _cdf_counts,
    "exact.brute_force_optimal": _brute_force_counts,
    "channel.simulate_error_counts": _draw_counts,
    "noise.simulate_coded_phase": _coded_phase_counts,
    "experiments.emit_csv": _emit_counts,
    **{f"experiments.{f}": _sweep_counts for f in _SWEEPS},
}


class Tracer:
    """Wraps the layers' public functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, self.op, start, end, None)
            if counter is not None:
                spans[sid] = (name, parent, self.op, start, end, counter(args, kwargs, result))
            return result

        return traced

    def _install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    targets[obj] = self._wrap(obj, f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(module, attr, targets[obj])
                    self._patched.append((module, attr, obj))

    def _restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        stale = [f"{m.__name__}.{a}" for m, a, o in self._patched if getattr(m, a) is not o]
        if stale:
            raise RuntimeError(f"tracer left patched names behind: {stale}")

    @contextlib.contextmanager
    def installed(self):
        """Patch on entry; restore every patched name on exit."""
        self._install()
        try:
            yield self
        finally:
            self._restore()

    @property
    def patched_names(self) -> list[str]:
        return [f"{m.__name__}.{a}" for m, a, _ in self._patched]

    def write(self, path) -> None:
        """Write the spans as gzipped CSV: id, parent, op, name, start_ns, end_ns, counts."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,op,name,start_ns,end_ns,counts\n")
            for sid, (name, parent, op, start, end, counts) in enumerate(self.spans):
                extra = ";".join(f"{k}={v}" for k, v in counts.items()) if counts else ""
                fh.write(f"{sid},{parent},{op},{name},{start},{end},{extra}\n")


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the durations of its direct children, in ns.

    Spans of one thread nest, so the children of a span never overlap
    and their summed duration is the part of it they cover.
    """
    covered = [0] * len(spans)
    for name, parent, op, start, end, counts in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, _, start, end, _) in enumerate(spans)]


def layer_metrics(spans: list, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per operation (query or sweep), as name -> (value, unit)."""
    calls = dict.fromkeys(GROUPS, 0)
    self_ns = dict.fromkeys(GROUPS, 0)
    counts: dict[str, int] = {}
    for (name, _, _, _, _, c), own in zip(spans, self_times(spans)):
        group = group_of(name)
        calls[group] += 1
        self_ns[group] += own
        for key, value in (c or {}).items():
            counts[f"{group}.{key}"] = counts.get(f"{group}.{key}", 0) + value

    per_op = {}
    for group in GROUPS:
        per_op[f"{group}.calls"] = (calls[group] / ops, "count")
        per_op[f"{group}.self_s"] = (self_ns[group] / 1e9 / ops, "s")
    for name, unit in COUNT_METRICS.items():
        per_op[name] = (counts.get(name, 0) / ops, unit)
    scanned = counts.get("exact.brute_force_optimal.scanned", 0)
    useful = counts.get("exact.brute_force_optimal.useful", 0)
    per_op["exact.brute_force_optimal.useful_frac"] = (useful / scanned if scanned else 0.0, "ratio")
    roots = sum(end - start for _, parent, _, start, end, _ in spans if parent < 0)
    per_op["trace.root_s"] = (roots / 1e9 / ops, "s")
    return per_op
