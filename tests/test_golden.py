"""Frozen SHA-256 digests of seed-1729 sweep CSVs.

A refactor that claims "the same outputs" must leave these files byte
for byte as they were. The digests were recorded with numpy 2.4.6 on
x86-64 Linux (Python 3.11); another numpy build may round a last bit
differently and then needs its own digests, recorded before any source
edit.

The Monte Carlo columns ``mc_worst`` and ``mc_stderr`` move whenever the
sampler's draws change. ``MC_PROJECTION`` freezes each Monte Carlo
golden with those two cells blanked, so such a change can show that it
moved nothing else.
"""

import csv
import hashlib
import io

import numpy as np
import pytest

from threshauth.cli import main

GOLDEN = {
    "fig1a": (
        ["fig1a"],
        "69a6fb5c970958e2404ca37223f95cb5e916aafb7bac702c386d84546e2bd6fa",
    ),
    "fig1b": (
        ["fig1b"],
        "80d350d939a005aa14e7f3919d1816f5717110d91b7c201375fac66fdadaeaab",
    ),
    "fig3": (
        ["fig3"],
        "7f6b30359e9dbdd9a1bc23cef43d502496d1964ab132884455f509a007b23680",
    ),
    "duel": (
        ["duel"],
        "e9ffe39cf952034c59663eecb646e5afd808222cc751dc6fde4655da6e584096",
    ),
    "fig1a-edge-noise": (
        ["fig1a", "--omega", "0", "--omega", "1e-9", "--omega", "0.2", "--omega", "0.33"],
        "3fca48ae018f09a13b685edb5b05b6e9f9788c9370ca3d3094961000ec3b5774",
    ),
    "fig3-collapsed-noise": (
        ["fig3", "--omega", "0.4", "--omega", "0.5", "--omega", "0.9"],
        "9e36a952b590e83952f8950d1c0f7516fc728f97637311c535855185fefc2fbb",
    ),
    "fig3-quiet-noise": (
        ["fig3", "--omega", "0", "--omega", "1e-9"],
        "b658ce9e7ed0c0b4d160803d2d0e7ba483d311dcd7076240b36950e2fab0b8d7",
    ),
    "duel-edge-noise": (
        ["duel", "--omega", "0", "--omega", "0.3"],
        "605e9eaa13041810c24e7e259df69a191950eb413b3c0ec63bcced20fe05cd6a",
    ),
    # the CLI's override flags: --strategy, --trials, --k and --n
    "fig3-asymptotic-overrides": (
        ["fig3", "--strategy", "asymptotic", "--omega", "0.05", "--omega", "0.2",
         "--trials", "500", "--k", "256"],
        "04276f8faca2bac699ba5ddaf0257d5d388d2a843a1e16f87e67a8a342a83220",
    ),
    "fig1b-search-limit": (
        ["fig1b", "--n", "64", "--omega", "0.1", "--omega", "0.01"],
        "db1aa8b0a25cf0616df88348eea40c838bb8dc8781c3a57f2a74933e0cc2bcc5",
    ),
    "duel-trials": (
        ["duel", "--trials", "300", "--omega", "0.1"],
        "54d5d99d5cb7406fbf88da35b6b85754356c99122d76cd44463d9967bd7749fe",
    ),
    # collapsed levels given before and between live ones: their
    # gap-collapse rows follow every live level's rows
    "fig1a-collapsed-noise": (
        ["fig1a", "--omega", "0.5", "--omega", "0.1", "--omega", "0.34", "--omega", "0"],
        "8504f9bab6fe3042447cbf5300add4bfd4cb85ee37c6440bd5ddc347671f218e",
    ),
    "fig1b-collapsed-noise": (
        ["fig1b", "--omega", "0.5", "--omega", "0.1", "--omega", "0.34", "--omega", "0"],
        "bc7dee7ca17e95bf87f6d16295d0c2ed7708eb6da985374c98ad34f090806f7d",
    ),
    # the 24-point default grid passed explicitly, spelled repr(float(w))
    "fig1a-default-grid": (
        ["fig1a", *(a for w in np.geomspace(1e-3, 0.3, 24) for a in ("--omega", repr(float(w))))],
        "ce1e5ef0a893f53c450c66383d78e4b77498e84dbde44adba5b8e7381c530aec",
    ),
}


# SHA-256 of each golden CSV that carries Monte Carlo rows, rewritten
# with its mc_worst and mc_stderr cells emptied
MC_PROJECTION = {
    "fig3": "a225f729a6b9251fccf541039b904aec25d19ae936523e347b92e86dd28428e2",
    "duel": "d703a6073d14cf89cf0401d35b03e6e71a7ac193d6d17ccbdd80c29172493e3f",
    "fig3-quiet-noise": "2f80afe9b42bee857db1e5dd4cb03c16557723d47f684546cfccce20b2a7da61",
    "duel-edge-noise": "5a58b918e750d5fc32507851ece0b9fe7e5eb3f67debd0cb14d86f9a75afda30",
    "fig3-asymptotic-overrides": "6b393ef659352feea8e6a974985443b3a49282cd058dfe4f6f3a905f0f4945cb",
    "duel-trials": "791be7e902a89212df106c4649e37e32e4d5dedcb63724c9b1031e527ef5e97a",
}


def _sweep_csv(name, tmp_path, capsys):
    argv, _ = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    return out.read_bytes()


def _without_monte_carlo(data):
    header, *records = csv.reader(io.StringIO(data.decode()))
    blank = {header.index("mc_worst"), header.index("mc_stderr")}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for rec in records:
        writer.writerow(["" if i in blank else cell for i, cell in enumerate(rec)])
    return buf.getvalue().encode()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_sweep_csv_matches_frozen_digest(name, tmp_path, capsys):
    got = hashlib.sha256(_sweep_csv(name, tmp_path, capsys)).hexdigest()
    assert got == GOLDEN[name][1], f"{name}: CSV bytes changed (numpy {np.__version__})"


@pytest.mark.parametrize("name", list(MC_PROJECTION))
def test_sweep_csv_outside_monte_carlo_matches_frozen_digest(name, tmp_path, capsys):
    data = _without_monte_carlo(_sweep_csv(name, tmp_path, capsys))
    got = hashlib.sha256(data).hexdigest()
    assert got == MC_PROJECTION[name], f"{name}: non-Monte-Carlo cells changed"
