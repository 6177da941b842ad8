"""Seeded inputs of the benchmark's workloads, as CLI argument lists.

Nothing here imports the program. ``run.py`` and ``worker.py`` both
build operation ``i`` of a run from ``(workload, seed, i)`` alone, so the
worker can generate inputs lazily for as long as it measures and
run.py can rebuild exactly the same inputs to check the outputs.

An operation is what one user waits for: a design query (``bounds``
then ``exact``) on ``design``, one sweep command on ``fig3`` and
``audit``. Operation 0 is the warm-up and is never timed.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("design", "fig3", "audit")

# The program's default noise grid, restated: fig3 runs at its defaults
# and audit passes this grid explicitly to fig1a.
NOISE_GRID = tuple(float(w) for w in np.geomspace(1e-3, 0.3, 24))

# fig3 defaults the output checks rely on.
FIG3_TRIALS = 10_000
FIG3_CODEWORD = 1024
DEFAULT_LOSSES = {"la": 10.0, "lu": 1.0, "lb": 1e-2}

# Design queries per "sweep" on the design workload: answering the
# 24-point grid one CLI query at a time, the interactive twin of fig1b.
DESIGN_BATCH = 24
DESIGN_N_MAX = 512

# Ranges of the design queries.
OMEGA_RANGE = (1e-3, 0.3)
LB_RANGE = (1e-4, 1e-1)
LA_CHOICES = (1.0, 10.0, 100.0)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def design_query(seed: int, index: int) -> dict:
    """Loss and noise parameters of design query ``index``.

    Each query draws from its own stream, so its inputs depend only on
    the seed and its index; omega is continuous, so no two queries
    share one and a cache across CLI calls cannot win.
    """
    rng = random.Random(f"design:{seed}:{index}")
    return {
        "omega": _log_uniform(rng, *OMEGA_RANGE),
        "la": rng.choice(LA_CHOICES),
        "lu": 1.0,
        "lb": _log_uniform(rng, *LB_RANGE),
    }


def _loss_flags(q: dict) -> list[str]:
    return ["--omega", repr(q["omega"]), "--la", repr(q["la"]),
            "--lu", repr(q["lu"]), "--lb", repr(q["lb"])]


def _program_seed(tag: str, seed: int, index: int) -> int:
    return random.Random(f"{tag}:{seed}:{index}").randrange(1, 2**31)


def make_op(workload: str, seed: int, index: int, out_dir: Path, tag: str) -> dict:
    """Operation ``index`` of a run; ``tag`` (warmup, timed, rerun, traced) names its output file.

    The returned dict holds the argument lists in ``calls`` plus what
    the output checks need to know about the inputs.
    """
    out = str(Path(out_dir) / f"op{index}-{tag}.csv")
    if workload == "design":
        q = design_query(seed, index)
        flags = _loss_flags(q)
        return {"index": index, "kind": "design", "query": q,
                "calls": [["bounds", *flags], ["exact", *flags]]}
    if workload == "fig3":
        prog_seed = _program_seed("fig3", seed, index)
        if index == 0:
            grid, trials, k = (0.05,), 200, 256
            argv = ["fig3", "--omega", "0.05", "--trials", str(trials), "--k", str(k)]
        else:
            grid, trials, k = NOISE_GRID, FIG3_TRIALS, FIG3_CODEWORD
            argv = ["fig3"]
        return {"index": index, "kind": "fig3", "grid": list(grid), "trials": trials,
                "k": k, "losses": DEFAULT_LOSSES, "out": out,
                "calls": [[*argv, "--seed", str(prog_seed), "--out", out]]}
    if workload == "audit":
        grid = (0.05,) if index == 0 else NOISE_GRID
        omegas = [a for w in grid for a in ("--omega", repr(w))]
        # fig1a is deterministic; every timed op passes the same seed, so
        # all of a run's outputs must be byte-identical
        prog_seed = _program_seed("audit", seed, min(index, 1))
        return {"index": index, "kind": "fig1a", "grid": list(grid),
                "losses": DEFAULT_LOSSES, "out": out,
                "calls": [["fig1a", *omegas, "--seed", str(prog_seed), "--out", out]]}
    raise ValueError(f"unknown workload {workload!r}")
