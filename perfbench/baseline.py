"""Record the benchmark's figures for the code in this checkout.

    python3 perfbench/baseline.py [--sets 2] [--seeds 10] [--workloads a,b,...]

Runs ``run.py`` untraced once per workload and seed (seeds 1 to N, with
BENCHMARK.json's ``run_seconds``), the whole series once per set, one set
after the other; then one traced run per workload on the development and
the held-out seed.  For each end-to-end metric it reports every set's
median and spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and the
share by which the second set's median reads worse than the first's.
Everything goes to ``perfbench/baseline.json``; each run's result line is
also appended to ``perfbench/out/baseline-runs.jsonl`` as it arrives.

The default workloads are every workload of ``run.py``, including
``certify_quadrics``, whose serial latency next to ``certify_pooled``'s
says whether the worker pool pays off at the acceptance budget.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = {"development": 1, "held_out": 2}


def run_once(workload, seed, seconds, trace, log):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stdout}")
    env = json.loads(lines[0][len("env "):])
    result = json.loads(lines[-1])
    record = {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall, **result}
    log.write(json.dumps(record) + "\n")
    log.flush()
    values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed} trace {trace} wall {wall:.1f} s {values}", flush=True)
    return env, wall, result["metrics"]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def worse_by(first, second, better):
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    sys.path.insert(0, str(HERE))
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = p.parse_args(argv)
    names = args.workloads.split(",")
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    (HERE / "out").mkdir(exist_ok=True)
    sets, walls, layers = [], {}, {}
    env = None
    with open(HERE / "out" / "baseline-runs.jsonl", "a") as log:
        for _ in range(args.sets):
            values = {}
            for name in names:
                for seed in range(1, args.seeds + 1):
                    env_now, wall, metrics = run_once(name, seed, seconds, 0, log)
                    env = env or env_now
                    walls.setdefault(name, []).append(wall)
                    for k, m in metrics.items():
                        values.setdefault(name, {}).setdefault(k, []).append(m["value"])
            sets.append({w: {k: {"unit": units[k], **summary(v)} for k, v in by.items()}
                         for w, by in values.items()})
        for name in names:
            for role, seed in SEEDS.items():
                _, wall, metrics = run_once(name, seed, seconds, 1, log)
                layers.setdefault(name, {})[f"seed{seed}"] = metrics

    doc = {
        "what": f"{args.sets} set(s) of untraced runs, seeds 1-{args.seeds} per workload, "
                f"--seconds {seconds}, one run after another; then one traced run per "
                "workload on seeds 1 and 2.  spread = (q3 - q1) / median over a set; "
                "second_worse_by = share by which the second set's median reads worse.",
        "environment": env,
        "seeds": SEEDS,
        "run_wall_s": {w: statistics.median(v) for w, v in walls.items()},
        "sets": sets,
    }
    if len(sets) > 1:
        doc["second_worse_by"] = {
            w: {k: worse_by(sets[0][w][k]["median"], sets[1][w][k]["median"], better[k])
                for k in by if sets[0][w][k]["median"]}
            for w, by in sets[1].items()}
    if {"certify_quadrics", "certify_pooled"} <= set(names):
        doc["pool_at_acceptance_budget"] = {
            "serial_request_s_p50": sets[0]["certify_quadrics"]["request_s_p50"]["median"],
            "pooled_request_s_p50": sets[0]["certify_pooled"]["request_s_p50"]["median"],
        }
    doc["per_layer"] = layers
    with open(HERE / "baseline.json", "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    for w, by in sets[-1].items():
        print(w, {k: round(v["spread"], 3) for k, v in by.items()})
    for w, by in doc.get("second_worse_by", {}).items():
        print(w, "second worse by", {k: round(v, 3) for k, v in by.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
