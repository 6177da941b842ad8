"""Frozen SHA-256 digests of seed-1729 sweep CSVs.

A refactor that claims "the same outputs" must leave these files byte
for byte as they were. The digests were recorded with numpy 2.4.6 on
x86-64 Linux (Python 3.11); another numpy build may round a last bit
differently and then needs its own digests, recorded before any source
edit.
"""

import hashlib

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
        "75d5e9061a95ede9a0f3b92b992d662af73c18c8e57471c445c958a2703c03e9",
    ),
    "duel": (
        ["duel"],
        "9a25d6ea214dfac7007d32215594a8691f22733ac8d26904d974783d9e110d0b",
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
        "11b86c518c88d9f4de16620ca5300afbb6250679a2103753d4b505b0b4a84244",
    ),
    "duel-edge-noise": (
        ["duel", "--omega", "0", "--omega", "0.3"],
        "1d884f381dd2f4818d40b9d63daf392feba07ad5ee9f4cf632365b9adaa32568",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_sweep_csv_matches_frozen_digest(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == digest, f"{name}: CSV bytes changed (numpy {np.__version__})"
