"""Benchmark of the revquad pipeline: four closed-loop workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload refute_nonquadrics --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One caller issues requests back to back, each only after the previous one
returned, and checks every output.  Requests come in rounds: a pass over
the whole input list on the inverse workloads, a 20-loop cycle on
``scan_sections``; a run makes whole rounds only.  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it makes a fixed
number of rounds with spans recorded and reports per-layer metrics from
them (see ``spans.py``).  ``--workload all`` runs each workload in a
process of its own.  Every metric is printed as ``name = value unit``; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output check passed, 1 when one
failed and 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 9
# scan_sections makes at least this many 20-loop cycles, so that ten loops
# lie beyond p90; the inverse workloads make at least one pass.
MIN_SCAN_CYCLES = 5
# The measured phase starts no round after this many seconds.
HARD_STOP_S = 120.0
# Rounds a traced run makes: fixed, so its counts repeat exactly.
TRACE_SCAN_CYCLES = 2


def environment():
    import numpy
    import scipy

    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": have_numba,
        "cpu_count": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def setup_seconds(workload, seed):
    """Seconds from a fresh interpreter until revquad is imported and the
    workload's profiles are built, once per repeat."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return samples


class Phase:
    """Outcome of one stretch of closed-loop requests."""

    def __init__(self):
        self.durations = []
        self.loops = 0
        self.attempted = 0
        self.failed = set()
        self.errors = []
        self.texts = {}  # label -> (request index, verdict JSON) of inverse requests
        self.wall = 0.0
        self.self_cpu = 0.0
        self.child_cpu = 0.0
        self.workers = 1

    def fail(self, index, message):
        self.failed.add(index)
        self.errors.append(message)


def _cpu():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def rounds(workload, inputs):
    """Endless rounds: 20-loop scan cycles, or passes over the input list."""
    if workload == "scan_sections":
        return inputs.cycles()
    return itertools.repeat(inputs)


def measure(wl, workload, inputs, seconds, min_rounds, max_rounds=None, tracer=None):
    """Run whole rounds of requests until the time is up (or max_rounds are done).

    Each request is timed alone; its output check runs outside the timing
    but inside the request's spans.
    """
    phase = Phase()
    start = time.perf_counter()
    for done, cases in enumerate(rounds(workload, inputs)):
        elapsed = time.perf_counter() - start
        if max_rounds is not None:
            if done >= max_rounds:
                break
        # A round expected to end after the deadline is not started.
        elif done and (elapsed >= HARD_STOP_S or (
                done >= min_rounds and elapsed + elapsed / done > seconds)):
            break
        for case in cases:
            index = phase.attempted
            phase.attempted += 1
            if tracer is not None:
                tracer.request = index
            try:
                err = serve(wl, workload, case, index, phase)
            finally:
                if tracer is not None:
                    tracer.request = None
            if err is not None:
                phase.fail(index, err)
    phase.wall = time.perf_counter() - start
    return phase


def serve(wl, workload, case, index, phase):
    """One request and its output check; returns an error message or None."""
    from revquad import RevquadError
    from revquad.formats import centrality_json, verdict_json

    cpu0 = _cpu()
    t0 = time.perf_counter()
    try:
        if workload == "scan_sections":
            out = wl.scan(case)
        else:
            out = wl.detect(case)
    except RevquadError as exc:
        return f"{case.label}: {type(exc).__name__}: {exc}"
    finally:
        dt = time.perf_counter() - t0
        cpu1 = _cpu()
        phase.self_cpu += cpu1[0] - cpu0[0]
        phase.child_cpu += cpu1[1] - cpu0[1]
    phase.durations.append(dt)
    if workload == "scan_sections":
        phase.loops += 1
        centrality_json(out)
        return wl.check_loop(case, out)
    phase.workers = max(phase.workers, case.workers)
    phase.loops += out.planes_tested
    err = wl.check_verdict(case, out)
    text = verdict_json(out)
    first = phase.texts.setdefault(case.label, (index, text))
    if err is None and first[1] != text:
        err = f"{case.label}: verdict JSON differs between identical requests"
    return err


def check_pooled_against_serial(wl, cases, phase, seed):
    """certify_pooled: one pooled verdict's bytes must equal the serial run's."""
    from revquad import RevquadError
    from revquad.formats import verdict_json

    case = cases[seed % len(cases)]
    if case.label not in phase.texts:
        return  # the pooled request raised and already counts as failed
    index, pooled = phase.texts[case.label]
    try:
        serial = verdict_json(wl.detect(case, workers=1))
    except RevquadError as exc:
        phase.fail(index, f"{case.label}: serial run: {type(exc).__name__}: {exc}")
        return
    if serial != pooled:
        phase.fail(index, f"{case.label}: pooled verdict JSON differs from the serial one")


def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb():
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def run_untraced(wl, workload, seed, seconds, inputs=None):
    inputs = wl.setup_profiles(workload, seed) if inputs is None else inputs
    min_rounds = MIN_SCAN_CYCLES if workload == "scan_sections" else 1
    phase = measure(wl, workload, inputs, seconds, min_rounds)
    # Read before the serial check and the setup probes, so that only the
    # measured phase and its pool workers count.
    rss = peak_rss_mb()
    if workload == "certify_pooled":
        check_pooled_against_serial(wl, inputs, phase, seed)
    setup = setup_seconds(workload, seed)
    d = phase.durations or [float("nan")]
    metrics = {
        "sections_per_s": (phase.loops / sum(d), "1/s"),
        "request_s_p50": (statistics.median(d), "s"),
        "request_s_p90": (quantile(d, 90), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "success_pct": (100.0 * (1.0 - len(phase.failed) / phase.attempted), "%"),
    }
    info = {"requests_timed": len(phase.durations), "loops": phase.loops,
            "error_rate": len(phase.failed) / phase.attempted,
            "setup_samples_s": [round(x, 4) for x in setup]}
    return phase, metrics, info


def run_traced(wl, workload, seed, inputs=None):
    import spans

    inputs = wl.setup_profiles(workload, seed) if inputs is None else inputs
    cost = spans.wrapper_cost()
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        max_rounds = TRACE_SCAN_CYCLES if workload == "scan_sections" else 1
        traced = measure(wl, workload, inputs, 0, 0, max_rounds=max_rounds, tracer=tracer)
    finally:
        spans.uninstall(saved)
    metrics = spans.layer_metrics(tracer.spans)
    busy = traced.self_cpu + traced.child_cpu
    # Wrapper time on the wall clock: the parent's spans, and the workers'
    # spans shared between the workers that ran them side by side.
    harvested = tracer.harvested
    added = cost * (len(tracer.spans) - harvested + harvested / traced.workers)
    metrics.update({
        "detect.pool.child_cpu_s": (traced.child_cpu, "s"),
        "detect.pool.parent_cpu_s": (traced.self_cpu, "s"),
        "detect.pool.idle_frac": (1.0 - busy / (traced.workers * sum(traced.durations)), "frac"),
        "trace.overhead_frac": (added / (traced.wall - added), "frac"),
    })
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-seed{seed}.json", "w") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "request", "pairs"],
                   "spans": tracer.spans}, handle)
    info = {"spans": len(tracer.spans), "wrapper_cost_s": cost}
    return traced, metrics, info


def run_workload(wl, workload, seed, seconds, trace, inputs=None):
    if trace:
        return run_traced(wl, workload, seed, inputs)
    return run_untraced(wl, workload, seed, seconds, inputs)


def report(workload, seed, trace, phase, metrics, info):
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print(f"  requests {phase.attempted}  failed {len(phase.failed)}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    for message in phase.errors:
        print(f"  CHECK FAILED: {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", help="a workload name, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"perfbench: cannot import revquad from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(wl.WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if len(names) > 1:
        return run_all(names, args)
    print("env " + json.dumps(environment()))
    phase, m, info = run_workload(wl, args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, args.seed, args.trace, phase, m, info)
    failed = len(phase.failed)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": phase.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(names, args):
    """Each workload in a fresh process, so none inherits another's peak RSS
    or warm caches; the result line merges theirs under workload prefixes."""
    attempted = failed = 0
    metrics = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
