"""CLI payloads stay byte for byte as captured.

perfbench/golden/payloads.json maps each seed-independent job key, the argv
joined by single spaces, to the stdout it produced at a commit whose outputs
were checked (certificate replay, symbolic verification, frontier cells);
perfbench/golden/digests.json maps every derive, scan and conjecture key of
the default seed's captured passes to the SHA-256 of that stdout. Many of
those payloads carry a basis of several operators, so their digests pin the
basis order and the operator chosen from it. This test only reads both
files.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from steinforge.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
PAYLOADS = json.loads((GOLDEN / "payloads.json").read_text())
DIGESTS = json.loads((GOLDEN / "digests.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_payloads_cover_the_seed_independent_jobs():
    assert len(PAYLOADS) == 10


@pytest.mark.parametrize("key", sorted(PAYLOADS))
def test_stdout_matches_golden_payload(key, capsys):
    main(key.split(" "))
    assert capsys.readouterr().out == PAYLOADS[key]


def test_digests_cover_the_captured_passes():
    assert {w: len(table) for w, table in DIGESTS.items()} == {
        "derive-cells": 396, "scan-grid": 87}


@pytest.mark.parametrize("workload,key", [
    (workload, key) for workload, table in sorted(DIGESTS.items())
    for key in sorted(table)])
def test_stdout_matches_golden_digest(workload, key, capsys):
    main(key.split(" "))
    assert _sha256(capsys.readouterr().out) == DIGESTS[workload][key]


def test_reordered_basis_fails_its_digest(capsys):
    # negative control: the first derive payload with a basis of two or
    # more operators, written back as the CLI writes it, keeps its digest;
    # with its first two basis operators swapped it does not
    table = DIGESTS["derive-cells"]
    for key in sorted(table):
        main(key.split(" "))
        payload = json.loads(capsys.readouterr().out)
        basis = payload.get("basis", [])
        if len(basis) >= 2:
            break
    else:
        pytest.fail("no derive payload with a basis of two operators")
    assert _sha256(json.dumps(payload, indent=2) + "\n") == table[key]
    basis[0], basis[1] = basis[1], basis[0]
    assert _sha256(json.dumps(payload, indent=2) + "\n") != table[key]
