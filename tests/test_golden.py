"""Recorded output bytes of centrality and of one detector verdict.

``tests/data/golden_centrality.json`` holds the ``centrality_json`` text of
a fixed set of loops (non-quadric planes from the benchmark's catalog and
two quadric sections) at n = 128, 512 and 2048, with the centre pinned to
the axis and free, central and not.  Every one of these loops certifies,
so each is scored by the window bound and sector refinement.  It also
holds the ``verdict_json`` text of the README's bumped quartic at the
acceptance budget.  A speed-up must reproduce every byte.  The file is
only read.

Each case also keeps the score the retired centre search reported
(``search_asymmetry``, and ``search_witness_asymmetry`` for a verdict),
divided by the loop's diameter D as scores then were.  The score at the
box midpoint b, which the bytes now hold, is divided by the larger side s
of the loop's bounding box; it is rescaled by s / D and checked against
the search's: no centre scores below half of b's score pinned, or below
b's score over 1 + sqrt 2 free (``revquad.symmetry``), so the search's
score bounds b's from above, and every central flag and verdict is the
search's.

``tests/data/golden_sampled.json`` does the same for sampled profiles,
recorded while they were still interpolated by scipy's
``PchipInterpolator``: the ``verdict_json`` of the benchmark's drawn tables
(seeds 1-3) at the acceptance budget, the ``centrality_json`` of four
``table:0`` catalog planes at n = 128, 512 and 2048 with the centre pinned
and free, and the ``repr`` of ``section_extent``, ``infimum_radius``,
``eval`` and ``derivative`` on a grid, for drawn tables and three written
out (flat runs, oscillation, four rows).
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import revquad as rq
from revquad.formats import centrality_json, verdict_json
from revquad.sections import section_extent

from conftest import assert_batch_matches_one_plane_calls, oracle_diameter

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_centrality.json").read_text())
SAMPLED = json.loads((DATA / "golden_sampled.json").read_text())
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_PROFILES = {}


def _profile(spec):
    if spec not in _PROFILES:
        _PROFILES[spec] = rq.parse_profile(spec)
    return _PROFILES[spec]


def _label(case):
    return f"{case['profile']}-m{case['m']!r}-b{case['beta']!r}-n{case['n']}-free{case['free_center']}"


def _diameter_scaled(asymmetry, loop):
    """A score of loop, divided by its box's larger side s, rescaled to
    one divided by its diameter D: times s / D."""
    side = float(np.ptp(loop.points, axis=0).max())
    return asymmetry * side / oracle_diameter(loop.points)


def _check_against_search(case, rep, loop):
    """The report keeps the search's central flag, and its score is within
    the midpoint bound of the search's."""
    factor = 1.0 + math.sqrt(2.0) if case["free_center"] else 2.0
    search = case["search_asymmetry"]
    assert rep.central == (search <= case["tol"])
    assert _diameter_scaled(rep.asymmetry, loop) <= factor * search * (1.0 + 1e-9)


def _check_witness_against_search(case, profile, verdict):
    search = case["search_witness_asymmetry"]
    assert (verdict.witness is None) == (search is None)
    if search is not None:
        plane, rep = verdict.witness
        loop = rq.trace_section(profile, plane, case["n_samples"])
        assert _diameter_scaled(rep.asymmetry, loop) <= 2.0 * search * (1.0 + 1e-9)


@pytest.mark.parametrize("case", GOLDEN["centrality"], ids=_label)
def test_centrality_json_bytes(case):
    loop = rq.trace_section(_profile(case["profile"]), rq.Plane(case["m"], case["beta"]), case["n"])
    rep = rq.centrality(loop, case["tol"], free_center=case["free_center"])
    assert centrality_json(rep) == case["centrality_json"]
    _check_against_search(case, rep, loop)


def test_golden_set_covers_both_paths_and_verdicts():
    keys = {(c["n"], c["free_center"], json.loads(c["centrality_json"])["central"])
            for c in GOLDEN["centrality"]}
    assert {n for n, _, _ in keys} == {128, 512, 2048}
    assert {(free, central) for _, free, central in keys} == {
        (False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("case", GOLDEN["verdicts"], ids=lambda c: c["profile"])
def test_verdict_json_bytes(case):
    prof = _profile(case["profile"])
    verdict = rq.detect_quadric(prof, case["delta"], n_planes=case["n_planes"],
                                n_samples=case["n_samples"], tol=case["tol"])
    assert verdict_json(verdict) == case["verdict_json"]
    _check_witness_against_search(case, prof, verdict)


def _drawn_table(seed):
    """perfbench/workloads.py's drawn table of the seed, as a profile."""
    if "perfbench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules["perfbench_workloads"].profile_from(f"table:{seed}")


def _sampled(label):
    if label not in _PROFILES:
        if label.startswith("table:"):
            _PROFILES[label] = _drawn_table(int(label[6:]))
        else:
            table = SAMPLED["tables"][int(label[7:-1])]  # tables[i]
            _PROFILES[label] = rq.make_sampled_profile(table["z"], table["F"])
    return _PROFILES[label]


@pytest.mark.parametrize("case", SAMPLED["verdicts"], ids=lambda c: f"table:{c['table_seed']}")
def test_sampled_verdict_json_bytes(case):
    prof = _sampled(f"table:{case['table_seed']}")
    verdict = rq.detect_quadric(prof, case["delta"], n_planes=case["n_planes"],
                                n_samples=case["n_samples"], tol=case["tol"])
    assert verdict_json(verdict) == case["verdict_json"]
    _check_witness_against_search(case, prof, verdict)


@pytest.mark.parametrize("case", SAMPLED["centrality"],
                         ids=lambda c: _label({**c, "profile": f"table:{c['table_seed']}"}))
def test_sampled_centrality_json_bytes(case):
    prof = _sampled(f"table:{case['table_seed']}")
    loop = rq.trace_section(prof, rq.Plane(case["m"], case["beta"]), case["n"])
    rep = rq.centrality(loop, case["tol"], free_center=case["free_center"])
    assert centrality_json(rep) == case["centrality_json"]
    _check_against_search(case, rep, loop)


@pytest.mark.parametrize("case", SAMPLED["grids"], ids=lambda c: c["table"])
def test_sampled_profile_bytes(case):
    prof = _sampled(case["table"])
    grid = np.array(case["grid"])
    assert repr(prof.eval(grid).tolist()) == case["eval"]
    assert repr(prof.derivative(grid).tolist()) == case["derivative"]
    for e in case["extents"]:
        try:
            got = repr(section_extent(prof, rq.Plane(e["m"], e["beta"])))
        except rq.RevquadError as exc:
            got = type(exc).__name__
        assert got == e["extent"], e
    for e in case["infimum_radius"]:
        assert repr(rq.infimum_radius(prof, e["delta"])) == e["infimum_radius"]


def test_batched_extents_of_the_golden_planes():
    # the planes of every profile above, bisected in one batch, keep the
    # bits each gives alone, errors included
    batches = {}
    for case in GOLDEN["centrality"]:
        batches.setdefault(_profile(case["profile"]), []).append((case["m"], case["beta"]))
    for case in SAMPLED["centrality"]:
        prof = _sampled(f"table:{case['table_seed']}")
        batches.setdefault(prof, []).append((case["m"], case["beta"]))
    for case in SAMPLED["grids"]:
        prof = _sampled(case["table"])
        batches.setdefault(prof, []).extend((e["m"], e["beta"]) for e in case["extents"])
    for prof, planes in batches.items():
        assert_batch_matches_one_plane_calls(prof, [rq.Plane(m, beta) for m, beta in planes])
