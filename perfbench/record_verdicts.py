"""Record the scan_sections catalog: non-quadric loops and their verdicts.

The catalog crosses fixed non-quadric profiles with fixed planes (steep and
half-steep slopes over seven intercepts), every loop size in SCAN_SIZES and
both centrality searches.  Each entry stores the verdict the current code
gives; the benchmark then requires the same verdict on every run.  Planes
where any variant scores within a factor of 2 of tol are left out, so that
last-digit changes in a loop cannot flip a recorded verdict.

Run from the repository root, on the code whose verdicts are the reference:

    python3 perfbench/record_verdicts.py
"""

from __future__ import annotations

import json

import numpy as np

import workloads as wl

PROFILES = (*wl.NAMED_NONQUADRICS, "poly:1.5,0.2,-0.3,0.6;1", "table:0")
BETA_FRACTIONS = np.linspace(-0.6, 0.6, 7)


def catalog_planes():
    for spec in PROFILES:
        prof = wl.profile_from(spec)
        for frac in BETA_FRACTIONS:
            beta = float(frac * prof.q)
            steep = wl.steep_slope(prof, beta)
            for m in (steep, 0.5 * steep):
                yield spec, prof, wl.Plane(m, beta)


def main():
    entries = []
    dropped = 0
    for spec, prof, plane in catalog_planes():
        variants = []
        for n in wl.SCAN_SIZES:
            for free in (False, True):
                case = wl.LoopCase(spec, prof, plane, n, free, None, None)
                report = wl.scan(case)
                variants.append({
                    "profile": spec, "m": plane.m, "beta": plane.beta, "n": n,
                    "free_center": free, "central": report.central,
                    "asymmetry": report.asymmetry,
                })
        if any(0.5 * wl.TOL <= v["asymmetry"] <= 2.0 * wl.TOL for v in variants):
            dropped += 1
            continue
        entries.extend(variants)
        print(spec, plane, [v["central"] for v in variants], flush=True)
    doc = {
        "tol": wl.TOL,
        "profiles": list(PROFILES),
        "dropped_borderline_planes": dropped,
        "entries": entries,
    }
    with open(wl.VERDICTS_PATH, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
