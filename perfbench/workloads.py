"""Inputs, requests and output checks of the four benchmark workloads.

Every input comes from the seed alone; the program only ever sees the
generated profiles, planes and sample counts.  A request is one call into
the library: a ``detect_quadric`` call on the inverse workloads, one
``trace_section`` plus ``centrality`` on ``scan_sections``.  Each check
returns an error message, or None when the output is right.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import revquad  # noqa: E402
import revquad.detect  # noqa: E402
import revquad.sections  # noqa: E402
import revquad.symmetry  # noqa: E402
from revquad import LoopEscapesDomain, NonPositiveProfile, Plane, QuadricParams  # noqa: E402

WORKLOADS = ("certify_quadrics", "refute_nonquadrics", "scan_sections", "certify_pooled")

# The acceptance budget: delta = 0.1 q, 17 planes, 1024 samples, tol = 1e-4.
N_PLANES = 17
N_SAMPLES = 1024
TOL = 1e-4

# A refuting witness must clear tol by this factor.  The README's bumped
# quartic is refuted at about 4.7 tol, so a larger factor would reject it.
WITNESS_MARGIN = 2.0
PARAM_TOL = 1e-6
CENTER_TOL = 1e-4

PRESETS = {
    "sphere": QuadricParams(-1.0, 0.0, 1.0),
    "cylinder:1,10": QuadricParams(0.0, 0.0, 1.0),
    "hyperboloid:1,2": QuadricParams(1.0, 0.0, 1.0),
    "paraboloid:2,1": QuadricParams(0.0, 1.0, 2.0),
}
NAMED_NONQUADRICS = ("poly:2,0,0,1;1", "poly:1,0,1,0,1;1", "poly:1,0,-1,0,0.05;1")

# scan_sections: loop sizes on both sides of the all-pairs limit
# (2n - 2 points; n = 128 gives 254 points, 64516 pairs, below 250000).
SCAN_SIZES = (128, 512, 2048)
# One cycle of 20 loops: exact shares of sizes, free-center searches and
# quadric loops, so every run sees the same mix.  Entries are
# (n, free_center, quadric).
SCAN_CYCLE = (
    [(128, False, False)] * 5 + [(128, True, False)] * 2 + [(128, False, True)]
    + [(512, False, False)] * 5 + [(512, True, False)] * 2 + [(512, False, True)]
    + [(2048, False, False)] * 2 + [(2048, True, False)] + [(2048, False, True)]
)
VERDICTS_PATH = Path(__file__).resolve().parent / "scan_verdicts.json"

# Independent random streams, one per input kind, so that adding a stream
# never changes the inputs drawn from another.
_QUADRIC, _POLY, _TABLE, _SCAN = range(4)


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


@dataclass
class DetectCase:
    """One detect_quadric request: the profile and what it must yield."""

    label: str
    profile: object
    workers: int
    expect: QuadricParams | None  # None: the profile must be refuted


@dataclass
class LoopCase:
    """One trace-and-score request on scan_sections."""

    label: str
    profile: object
    plane: Plane
    n: int
    free_center: bool
    params: QuadricParams | None  # set for quadric loops
    central: bool | None  # recorded seed-code verdict for the other loops


# --- seed-drawn profiles ------------------------------------------------------


def drawn_quadric_spec(seed):
    """A quadric:a,b,c,q spec, positive on its domain, drawn from the seed."""
    rng = _rng(seed, _QUADRIC)
    while True:
        a, b, c, q = (round(float(x), 3) for x in (
            rng.uniform(-0.5, 1.0), rng.uniform(-0.5, 0.5),
            rng.uniform(1.0, 2.0), rng.uniform(0.8, 1.5)))
        spec = f"quadric:{a!r},{b!r},{c!r},{q!r}"
        try:
            revquad.parse_profile(spec)
        except NonPositiveProfile:
            continue
        return spec, QuadricParams(a, b, c)


def drawn_poly_spec(seed):
    """A quadric plus a cubic term, positive on |z| < 1 by construction."""
    rng = _rng(seed, _POLY)
    c0, c1, c2 = (round(float(x), 3) for x in (
        rng.uniform(1.5, 2.5), rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5)))
    c3 = round(float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.8)), 3)
    return f"poly:{c0!r},{c1!r},{c2!r},{c3!r};1"


def drawn_table(seed, rows=200):
    """(z, F) rows of a quadric with a cubic perturbation, on [-1, 1]."""
    rng = _rng(seed, _TABLE)
    a, b, c = rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3), rng.uniform(1.5, 2.0)
    eps = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.5)
    z = np.linspace(-1.0, 1.0, rows)
    return z, ((eps * z + a) * z + b) * z + c


def profile_from(spec):
    """Build a profile from a spec, or from a drawn table named table:<seed>."""
    head, _, rest = spec.partition(":")
    if head == "table":
        return revquad.make_sampled_profile(*drawn_table(int(rest)))
    return revquad.parse_profile(spec)


# --- inverse workloads ----------------------------------------------------------


def inverse_specs(workload, seed):
    """(spec, expected params or None) of an inverse workload, in request order."""
    if workload == "refute_nonquadrics":
        specs = [f"table:{seed}", drawn_poly_spec(seed), *NAMED_NONQUADRICS]
        return [(s, None) for s in specs]
    spec, params = drawn_quadric_spec(seed)
    return [(spec, params), *PRESETS.items()]


def build_inverse(workload, seed):
    workers = 2 if workload == "certify_pooled" else 1
    return [DetectCase(spec, profile_from(spec), workers, params)
            for spec, params in inverse_specs(workload, seed)]


def detect(case, workers=None):
    prof = case.profile
    return revquad.detect.detect_quadric(
        prof, 0.1 * prof.q, N_PLANES, N_SAMPLES, TOL,
        workers=case.workers if workers is None else workers)


def check_verdict(case, verdict):
    if case.expect is None:
        if verdict.is_quadric:
            return f"{case.label}: certified a non-quadric"
        if verdict.witness is None:
            return f"{case.label}: refuted without a witness"
        asym = verdict.witness[1].asymmetry
        if not asym > WITNESS_MARGIN * TOL:
            return f"{case.label}: witness asymmetry {asym!r} <= {WITNESS_MARGIN} tol"
        return None
    if not verdict.is_quadric:
        return f"{case.label}: quadric not certified"
    got, want = verdict.params, case.expect
    err = max(abs(got.a - want.a), abs(got.b - want.b), abs(got.c - want.c))
    if not err <= PARAM_TOL:
        return f"{case.label}: parameters {got} off by {err!r}"
    worst = max(r.asymmetry for r in verdict.sections)
    if not worst <= TOL:
        return f"{case.label}: a section has asymmetry {worst!r} > tol"
    return None


# --- scan_sections --------------------------------------------------------------


def load_verdicts():
    with open(VERDICTS_PATH) as handle:
        return json.load(handle)


# The shrink schedule of the detector's probe planes, kept as the
# benchmark's own constants: the drawn planes and the recorded catalog must
# not move when the library retunes its probes.
SLOPE_SHRINK = 0.8
SLOPE_TRIES = 40


def steep_slope(profile, beta):
    """Steepest slope, shrunk geometrically, whose section closes in the domain."""
    m = SLOPE_SHRINK * (profile.q - abs(beta)) / np.sqrt(profile.eval(beta))
    for _ in range(SLOPE_TRIES):
        try:
            revquad.sections.section_extent(profile, Plane(m, beta))
        except LoopEscapesDomain:
            m *= SLOPE_SHRINK
            continue
        return float(m)
    raise LoopEscapesDomain(f"no closing slope at beta = {beta!r}")


class ScanInputs:
    """Seed-drawn loop cases, produced one 20-loop cycle at a time.

    Non-quadric loops come from the recorded catalog, so each one carries
    the seed code's verdict.  Quadric loops use the presets and the
    seed-drawn quadric, with seed-drawn planes checked to close.
    """

    def __init__(self, seed, verdicts):
        self.seed = seed
        self.pools = {}  # (n, free_center) -> catalog entries
        for e in verdicts["entries"]:
            self.pools.setdefault((e["n"], e["free_center"]), []).append(e)
        self.profiles = {spec: profile_from(spec) for spec in verdicts["profiles"]}
        quad_spec, quad_params = drawn_quadric_spec(seed)
        self.quadrics = [(spec, profile_from(spec), p)
                         for spec, p in [(quad_spec, quad_params), *PRESETS.items()]]

    def cycles(self):
        """The endless sequence of 20-loop cycles, the same on every call."""
        rng = _rng(self.seed, _SCAN)
        while True:
            yield self._cycle(rng)

    def _cycle(self, rng):
        out = []
        for i in rng.permutation(len(SCAN_CYCLE)):
            n, free, quadric = SCAN_CYCLE[i]
            if quadric:
                spec, prof, params = self.quadrics[rng.integers(len(self.quadrics))]
                beta = float(rng.uniform(-0.6, 0.6) * prof.q)
                m = float(rng.uniform(0.3, 1.0)) * steep_slope(prof, beta)
                revquad.sections.section_extent(prof, Plane(m, beta))
                out.append(LoopCase(spec, prof, Plane(m, beta), n, free, params, None))
                continue
            pool = self.pools[n, free]
            e = pool[rng.integers(len(pool))]
            prof = self.profiles[e["profile"]]
            plane = Plane(e["m"], e["beta"])
            revquad.sections.section_extent(prof, plane)
            out.append(LoopCase(e["profile"], prof, plane, n, free, None, e["central"]))
        return out


def build_scan(seed, verdicts=None):
    return ScanInputs(seed, load_verdicts() if verdicts is None else verdicts)


def scan(case):
    loop = revquad.sections.trace_section(case.profile, case.plane, case.n)
    return revquad.symmetry.centrality(loop, TOL, free_center=case.free_center)


def check_loop(case, report):
    where = f"{case.label} m={case.plane.m!r} beta={case.plane.beta!r} n={case.n}"
    if case.params is not None:
        if not report.central:
            return f"{where}: quadric loop not central"
        want = revquad.detect.predicted_center_height(case.params, case.plane)
        if not abs(report.center[1] - want) <= CENTER_TOL:
            return f"{where}: center height {report.center[1]!r}, predicted {want!r}"
        return None
    if report.central != case.central:
        return f"{where}: central = {report.central}, seed code gave {case.central}"
    return None


def setup_profiles(workload, seed):
    """Everything setup_s times after the import: the workload's profiles."""
    if workload == "scan_sections":
        return build_scan(seed)
    return build_inverse(workload, seed)
