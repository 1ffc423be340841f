"""Seed-independent CLI payloads stay byte for byte as captured.

perfbench/golden/payloads.json maps each job key, the argv joined by single
spaces, to the stdout it produced at a commit whose outputs were checked
(certificate replay, symbolic verification, frontier cells). This test only
reads that file.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from steinforge.cli import main

PAYLOADS = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                       / "golden" / "payloads.json").read_text())


def test_payloads_cover_the_seed_independent_jobs():
    assert len(PAYLOADS) == 10


@pytest.mark.parametrize("key", sorted(PAYLOADS))
def test_stdout_matches_golden_payload(key, capsys):
    main(key.split(" "))
    assert capsys.readouterr().out == PAYLOADS[key]
