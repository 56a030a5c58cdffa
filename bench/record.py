"""Record the traced per-layer metrics of git refs as BENCH_<sha>.json.

Usage, from the repository root:

    python3 bench/record.py [--out DIR] REF [REF ...]

For each ref, ``git archive`` exports the tree at that ref into a temporary
directory, and that tree's own ``perfbench/run.py --trace 1`` runs each
workload its ``BENCHMARK.json`` declares, on seeds 1 and 2, one process per
run.  A traced run makes a fixed number of rounds, so its counts repeat
exactly for a seed; its times are kept beside them but vary between runs.
The record, ``BENCH_<first 7 hex digits of the sha>.json`` in DIR (default:
the repository root), holds every metric each run reports, the run's
output check, and the environment it ran in.  It sets no bound and gates
nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
SCHEMA = 1


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def export(sha, dest):
    """Write the tree of commit sha into the directory dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def traced_run(tree, workload, seed):
    """One traced perfbench run in tree: its result line, as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        cwd=tree, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed}: perfbench exited {proc.returncode}")
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": result["metrics"]}


def record(ref):
    """The record of ref: every traced run of its declared workloads."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        export(sha, tmp)
        declared = json.loads((Path(tmp) / "BENCHMARK.json").read_text())
        runs = [traced_run(tmp, w["name"], seed)
                for w in declared["workloads"] for seed in SEEDS]
    return {"schema": SCHEMA, "sha": sha, "environment": environment(), "runs": runs}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("refs", nargs="+", help="git refs to record")
    p.add_argument("--out", type=Path, default=ROOT, help="directory for the records")
    args = p.parse_args(argv)
    for ref in args.refs:
        rec = record(ref)
        path = args.out / f"BENCH_{rec['sha'][:7]}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n")
        print(f"{ref}: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
