"""Recorded output bytes of centrality and of one detector verdict.

``tests/data/golden_centrality.json`` holds the ``centrality_json`` text of
a fixed set of loops (non-quadric planes from the benchmark's catalog and
two quadric sections) at n = 128 (the all-pairs path), 512 and 2048 (the
k-d path), with the centre pinned to the axis and free, central and not;
and the ``verdict_json`` text of the README's bumped quartic at the
acceptance budget.  A speed-up must reproduce every byte.  The file is
only read.
"""

import json
from pathlib import Path

import pytest

import revquad as rq
from revquad.formats import centrality_json, verdict_json

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_centrality.json").read_text())
_PROFILES = {}


def _profile(spec):
    if spec not in _PROFILES:
        _PROFILES[spec] = rq.parse_profile(spec)
    return _PROFILES[spec]


def _label(case):
    return f"{case['profile']}-m{case['m']!r}-b{case['beta']!r}-n{case['n']}-free{case['free_center']}"


@pytest.mark.parametrize("case", GOLDEN["centrality"], ids=_label)
def test_centrality_json_bytes(case):
    loop = rq.trace_section(_profile(case["profile"]), rq.Plane(case["m"], case["beta"]), case["n"])
    rep = rq.centrality(loop, case["tol"], free_center=case["free_center"])
    assert centrality_json(rep) == case["centrality_json"]


def test_golden_set_covers_both_paths_and_verdicts():
    keys = {(c["n"], c["free_center"], json.loads(c["centrality_json"])["central"])
            for c in GOLDEN["centrality"]}
    assert {n for n, _, _ in keys} == {128, 512, 2048}
    assert {(free, central) for _, free, central in keys} == {
        (False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("case", GOLDEN["verdicts"], ids=lambda c: c["profile"])
def test_verdict_json_bytes(case):
    verdict = rq.detect_quadric(_profile(case["profile"]), case["delta"], n_planes=case["n_planes"],
                                n_samples=case["n_samples"], tol=case["tol"])
    assert verdict_json(verdict) == case["verdict_json"]
