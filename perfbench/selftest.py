"""Tiny-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Shrinks the detector budget (5 planes, 256 samples), the scan cycle and the
set-up repeats, then checks that every workload emits every metric named in BENCHMARK.json
with its unit, in both the untraced and the traced run, and that the output
checks fire when an expectation is wrong.  The wrong expectations are
injected into the benchmark's own inputs; the library is never changed.
Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run
import workloads as wl

wl.N_PLANES = 5
wl.N_SAMPLES = 256
# A 4-loop scan cycle with a free-centre search and a quadric loop; one
# cycle per run and per traced run.
wl.SCAN_CYCLE = ((128, False, False), (128, True, False), (128, False, True),
                 (512, False, False))
run.MIN_SCAN_CYCLES = 1
run.TRACE_SCAN_CYCLES = 1
run.SETUP_REPEATS = 1
SEED = 1

failures = []


def expect(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main_output(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().splitlines()


def check_metric_names(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in wl.WORKLOADS:
            code, lines = main_output("--workload", workload, "--seed", str(SEED),
                                      "--seconds", "0", "--trace", str(trace))
            result = json.loads(lines[-1])
            expect(code == 0 and sorted(result) == ["attempted", "correct", "failed", "metrics"]
                   and result["correct"] and result["attempted"] >= 1,
                   f"{workload} trace {trace}: clean run, result line well formed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: every {key} metric with its unit")
            printed = all(any(line.strip().startswith(f"{k} = ") and line.endswith(" " + u)
                              for line in lines) for k, u in want.items())
            expect(printed, f"{workload} trace {trace}: every metric printed by name with unit")


def check_wrong_expectations():
    cases = wl.setup_profiles("certify_quadrics", SEED)
    p = cases[0].expect
    cases[0].expect = dataclasses.replace(p, a=p.a + 1.0)
    phase, _, _ = run.run_workload(wl, "certify_quadrics", SEED, 0, False, inputs=cases)
    expect(bool(phase.failed), "certify_quadrics: wrong expected parameters are caught")

    cases = wl.setup_profiles("refute_nonquadrics", SEED)
    cases[0].expect = wl.PRESETS["sphere"]
    phase, _, _ = run.run_workload(wl, "refute_nonquadrics", SEED, 0, True, inputs=cases)
    expect(bool(phase.failed), "refute_nonquadrics: a refuted 'quadric' is caught (traced run)")

    verdicts = wl.load_verdicts()
    for e in verdicts["entries"]:
        e["central"] = not e["central"]
    inputs = wl.build_scan(SEED, verdicts)
    phase, _, _ = run.run_workload(wl, "scan_sections", SEED, 0, False, inputs=inputs)
    expect(bool(phase.failed), "scan_sections: a flipped recorded verdict is caught")

    code, lines = main_output("--workload", "nonexistent")
    expect(code == 2 and not any(line.startswith("{") for line in lines),
           "unknown workload exits 2 without a result line")


def main():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    check_metric_names(spec)
    check_wrong_expectations()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
