"""The benchmark's recorded catalog of non-quadric loops keeps its verdicts.

``perfbench/scan_verdicts.json`` holds the central/non-central verdict of
every catalog loop (profile, plane, sample count, centre search), recorded
from the code the benchmark was built on, with borderline planes left out.
Each is replayed here through ``trace_section`` and ``centrality``.  Only
verdicts are compared: the recorded asymmetries came from older scoring
code and are not reproduced digit for digit.  The file is only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import revquad as rq

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    """perfbench/workloads.py, which builds the catalog's drawn tables."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_catalog_verdicts_unchanged():
    doc = json.loads((PERFBENCH / "scan_verdicts.json").read_text())
    profile_from = _workloads().profile_from
    profiles = {spec: profile_from(spec) for spec in doc["profiles"]}
    assert doc["entries"]
    flipped = []
    for e in doc["entries"]:
        loop = rq.trace_section(profiles[e["profile"]], rq.Plane(e["m"], e["beta"]), e["n"])
        rep = rq.centrality(loop, doc["tol"], free_center=e["free_center"])
        if rep.central != e["central"]:
            flipped.append((e["profile"], e["m"], e["beta"], e["n"], e["free_center"]))
    assert not flipped
