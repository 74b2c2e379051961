"""Every report in the committed golden corpus, rebuilt bit for bit."""

from __future__ import annotations

import json

from .make_golden_reports import GOLDEN, build_reports


def test_reports_match_the_golden_corpus():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(build_reports()))
    moved = [
        f"{section}/{key}: {got[section].get(key)} != {expected}"
        for section, reports in want.items()
        for key, expected in reports.items()
        if got[section].get(key) != expected
    ]
    assert not moved, f"{len(moved)} reports moved, first: {moved[:5]}"
    assert got.keys() == want.keys()
    assert all(got[s].keys() == want[s].keys() for s in want)
