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


H7 = "x^7-21x^5+105x^3-105x"
H8 = "x^8-28x^6+210x^4-420x^2+105"

# The frontier cells the captured passes leave out, about 1 s in all: exit
# code and stdout SHA-256 of each, as captured. x^3-3x (9, 9) has nullity 54;
# H8 is an even P, so its cells have a single block.
HARD_CELLS = {
    f"derive --poly {H7} --order 9 --degree 12": (
        0, "ba2baa4949f24397e076a7e4770d373eecb6c8a94a62d978e63cc748cebc80ff"),
    f"derive --poly {H7} --order 25 --degree 6": (
        0, "708ba47bcbdd404ddeb957a296841cf113c29841baea941e646998e75220843d"),
    f"scan --poly {H7} --max-order 16 --max-degree 12": (
        0, "822a355b415be4e3d15835bc199cbc35fe32fde9fa9ca6380e8a857a35935595"),
    "derive --poly x^3-3x --order 9 --degree 9": (
        0, "6b83bbcc05c5e8f4674c4a651b81df7be6fa9fef68c43eaec460745bf80cd1f4"),
    f"derive --poly {H8} --order 4 --degree 10": (
        0, "7aac39344ae1de6f39666ad4319c47046ad7b0aa1803aaf51fd63cabdeceddba"),
    f"derive --poly {H8} --order 4 --degree 9": (
        2, "043fd9ed7b30c85f0a3ac7f983fdf03102502afa33171dcaae362888cde02643"),
}


@pytest.mark.parametrize("key", sorted(HARD_CELLS))
def test_hard_cell_matches_golden_digest(key, capsys):
    code = main(key.split(" "))
    assert (code, _sha256(capsys.readouterr().out)) == HARD_CELLS[key]


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
