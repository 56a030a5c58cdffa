"""The committed BENCH_<sha>.json records of bench/record.py: schema only.

A record's values are measurements of one machine and gate nothing; these
tests check only that each record has the shape bench/record.py writes.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_schema(path):
    rec = json.loads(path.read_text())
    assert set(rec) == {"schema", "sha", "environment", "runs"}
    assert rec["schema"] == 1
    sha = rec["sha"]
    assert len(sha) == 40 and int(sha, 16) >= 0
    assert path.name == f"BENCH_{sha[:7]}.json"
    env = rec["environment"]
    assert set(env) == {"python", "numpy", "scipy", "cpu_count", "PYTHONDONTWRITEBYTECODE"}
    assert all(isinstance(env[k], str) for k in ("python", "numpy", "scipy"))
    assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1
    assert env["PYTHONDONTWRITEBYTECODE"] is None or isinstance(env["PYTHONDONTWRITEBYTECODE"], str)
    runs = {(r["workload"], r["seed"]): r for r in rec["runs"]}
    assert len(runs) == len(rec["runs"])
    assert set(runs) == {(w["name"], s) for w in DECLARED["workloads"] for s in (1, 2)}
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    for run in runs.values():
        assert set(run) == {"workload", "seed", "correct", "attempted", "failed", "metrics"}
        assert isinstance(run["correct"], bool)
        assert isinstance(run["attempted"], int) and isinstance(run["failed"], int)
        assert 0 <= run["failed"] <= run["attempted"]
        for name, unit in per_layer.items():
            metric = run["metrics"][name]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
