"""Quadric detection from the central symmetry of cross-section loops.

A quadric profile F(z) = a z^2 + b z + c makes every tilted section loop
centrally symmetric, with the center height tied to the profile slope by
F'(zeta) = 2 (zeta - beta) / m^2.  The detector runs that logic backwards:
it sweeps planes, tests each traced loop for central symmetry, and only
when every loop passes does it certify the profile by a quadratic fit.

Two plane families are swept.  The slab family uses slope mu/2 (mu from
``slope_bound``), whose sections provably stay inside |z - beta| < delta;
it feeds the center curve and the reconstruction identities.  The probe
family uses the steepest slopes that still close inside the domain.  Probes
matter because a section's deviation from central symmetry scales like
m^4 F'''(zeta): at slope mu/2 a visibly non-quadric profile still produces
loops that are centrally symmetric to within ~1e-8, far below any usable
tolerance, so shallow planes alone cannot witness non-quadrics.

One non-central section refutes the surface (a quadric has only central
sections), and a refutation reports one witness: the failing plane of
largest asymmetry.  Each plane is traced and scored where it is tested,
in this process or a pool worker, at its loop's forced centre, the
midpoint of its extent (see centrality), so a plane's record does not
depend on where it was tested.

A central plane needs no exact score: a quadric has only central
sections, so the plane is settled by any proof that its loop is within
tol of central symmetry about the midpoint.  Every plane is tested with
centrality's midpoint bound (bound=True), an upper bound on the
midpoint's score that builds no loop geometry; a plane whose bound is
within tol passes on it, and only the others take the exact score.  A
central plane's record thus holds the midpoint as its centre and a
certified upper bound in [midpoint score, tol] as its asymmetry.  The
witness and every failing record hold the exact midpoint score.
"""

from __future__ import annotations

import atexit
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidDomain,
    RankDeficient,
    RevquadError,
    SingularConfiguration,
    SlabViolation,
)
from .profiles import QuadricParams, infimum_radius
# section_extent and trace_section are not called here: the detector
# finds extents and traces loops a batch at a time.  They stay names of
# this module only for perfbench/spans.py to wrap, as centrality does.
from .sections import (
    Plane,
    _closing_brackets,
    _count,
    _extents,
    _per_plane,
    _sample_levels,
    _trace_many,
    section_extent,  # noqa: F401
    slope_bound,
    trace_section,  # noqa: F401
)
from .symmetry import CentralityReport, _check_tol, centrality

__all__ = [
    "CenterEntry",
    "CenterCurve",
    "SectionRecord",
    "QuadricVerdict",
    "center_heights",
    "predicted_center_height",
    "derivative_from_centers",
    "fit_quadratic",
    "detect_quadric",
    "sweep_intercepts",
]

PROBE_COUNT = 5
_PROBE_SHRINK = 0.8
_PROBE_TRIES = 40

# The process's warm worker pool, (executor, size, pid of the process that
# built it), or None before the first pooled call.
_pool = None


@atexit.register
def _forget_pool():
    """Drop the warm pool at exit, after concurrent.futures has joined its
    workers: imported after this module, concurrent.futures is torn down
    before it, and a pool collected after that reports an ignored error."""
    global _pool
    _pool = None


class CenterEntry(NamedTuple):
    """One plane of a center curve: intercept, center height and asymmetry.

    A central plane's asymmetry is the certified upper bound it passed on,
    in [midpoint score, tol] (see the module docstring).
    """

    beta: float
    zeta: float
    asymmetry: float


@dataclass(frozen=True)
class CenterCurve:
    """Center heights of the sections cut at one slope, by ascending intercept."""

    m: float
    entries: tuple[CenterEntry, ...]

    def __post_init__(self):
        _check_increasing([e.beta for e in self.entries])


def _check_increasing(betas):
    if not all(map(math.isfinite, betas)):
        raise InvalidDomain("center curve intercepts must be finite")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise InvalidDomain("center curve intercepts must be strictly increasing")


@dataclass(frozen=True)
class SectionRecord:
    """One tested plane: its loop extent and centrality outcome.

    zeta, asymmetry and report come from the plane's centrality test, at
    the midpoint of the loop's extent.  A failing plane's asymmetry is the
    exact midpoint score; a central plane's is a certified upper bound on
    it, in [midpoint score, tol].
    """

    m: float
    beta: float
    z_lo: float
    z_hi: float
    zeta: float
    asymmetry: float
    report: CentralityReport


@dataclass(frozen=True)
class QuadricVerdict:
    """Detector outcome plus the diagnostics that justify it.

    witness is the failing plane of largest asymmetry, the first in plane
    order on a tie, with its centrality report: the exact score at its
    loop's midpoint.  Every record's centre is its loop's midpoint (see
    SectionRecord).
    """

    is_quadric: bool
    params: QuadricParams | None
    fit_residual: float | None
    witness: tuple[Plane, CentralityReport] | None
    planes_tested: int
    epsilon: float
    delta: float
    slope: float
    central_but_fit_failed: bool = False
    curve: CenterCurve | None = field(default=None, repr=False)
    sections: tuple[SectionRecord, ...] = field(default=(), repr=False)


def center_heights(profile, m, betas, n, tol, delta=None):
    """Trace a section per intercept and return the refined center curve.

    Intercepts that are not finite or do not strictly increase, a tol that
    is not positive and finite, and a delta that is neither None nor
    positive and finite raise InvalidDomain before any plane is traced.
    Errors from tracing or scoring are re-raised tagged with the offending
    intercept, the first in order that fails.  Each zeta is the midpoint
    of its loop's extent; a failing section's asymmetry is the exact
    midpoint score, a central section's a certified upper bound in
    [midpoint score, tol].  When delta is given, each loop must stay
    inside the slab |z - beta| < delta and its center height within delta
    of beta; violations raise SlabViolation instead of passing silently.
    """
    if not (m > 0.0):
        raise InvalidDomain(f"need slope m > 0, got {m!r}")
    betas = [float(b) for b in betas]
    _check_increasing(betas)
    _check_tol(tol)
    if not (delta is None or 0.0 < delta < math.inf):
        raise InvalidDomain(f"need 0 < delta < inf, got delta = {delta!r}")
    args = [(profile, float(m), b, n, tol, delta) for b in betas]
    records = _test_planes(args)
    entries = tuple(CenterEntry(r.beta, r.zeta, r.asymmetry) for r in records)
    return CenterCurve(m=float(m), entries=entries)


def _test_plane(m, beta, tol, delta, loop):
    """The record of the plane (m, beta), traced as loop; loop may instead
    be the error tracing it raised, which is raised here."""
    try:
        if isinstance(loop, RevquadError):
            raise loop
        report = centrality(loop, tol, bound=True)
    except RevquadError as exc:
        raise exc.__class__(f"beta = {beta!r}: {exc}") from exc
    if delta is not None:
        if not (abs(loop.z_lo - beta) < delta and abs(loop.z_hi - beta) < delta):
            raise SlabViolation(
                f"beta = {beta!r}: loop spans [{loop.z_lo!r}, {loop.z_hi!r}], "
                f"outside the slab half-width {delta!r}"
            )
        if not abs(report.center[1] - beta) < delta:
            raise SlabViolation(
                f"beta = {beta!r}: center height {report.center[1]!r} outside the slab"
            )
    return SectionRecord(
        m=m,
        beta=beta,
        z_lo=loop.z_lo,
        z_hi=loop.z_hi,
        zeta=report.center[1],
        asymmetry=report.asymmetry,
        report=report,
    )


def _test_plane_star(args):
    return _test_plane(*args)


def _test_planes(batch):
    """Test a batch of tilted planes of one profile, in order: their
    records, or the tagged error of the first plane that fails, raised.

    batch holds (profile, m, beta, n, tol, delta) per plane, with the same
    profile and n throughout.  The planes are traced as trace_section
    traces each alone, in three steps: the extents of all of them are
    found together (_extents: one root solve for the batch, then each
    bracket bisected on its own, one scalar gap value per midpoint); the
    planes up to the first without an
    extent are traced together, as one array program (_trace_many); each
    plane's loop, or its error, goes to _test_plane_star, in plane order,
    which scores the loop or raises the error.  A batch step that raises is
    redone one plane at a time (_per_plane), so each plane keeps its own
    outcome, and its errors their precedence in trace_section: the sample
    count, the intercept, the extent, then the gap.
    """
    if not batch:
        return []
    profile, n = batch[0][0], batch[0][3]
    try:
        cosines = _sample_levels(n)
    except RevquadError as exc:
        # trace_section checks n first, so the first plane raises this
        loops = [exc]
    else:
        planes = [Plane(m, beta) for _, m, beta, *_ in batch]
        extents = _per_plane(_extents, profile, planes)
        # the first plane without an extent raises: no later plane is tested
        k = next((k for k, e in enumerate(extents) if isinstance(e, RevquadError)),
                 len(planes))
        loops = _per_plane(_trace_many, profile, planes[:k], cosines,
                           extents=extents[:k]) + extents[k:k + 1]
    return [_test_plane_star((m, beta, tol, delta, loop))
            for (_, m, beta, _, tol, delta), loop in zip(batch, loops)]


def _map_pooled(size, args):
    """Test the planes of args on the process's warm pool, one task per worker.

    Task i holds the planes args[i::size], tested by _test_planes; the
    records come back in plane order.  Should a task raise, the planes are
    tested again in this process by _test_planes, in plane order, so the
    first failing plane raises its error, as in a serial run, and the warm
    pool is kept.  The pool of size workers is built on first use.  A pool
    of another size is shut down and replaced; one built by another
    process (this one is a fork of it) belongs to that process, so it is
    dropped, not shut down.  A pool that breaks is dropped too: the call
    raises, the next one builds afresh.  concurrent.futures shuts the pool
    down at interpreter exit; it is imported here, on the first pooled
    call, so that a serial run does not pay for its import.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    global _pool
    pid = os.getpid()
    if _pool is not None and _pool[1:] != (size, pid):
        if _pool[2] == pid:
            _pool[0].shutdown()
        _pool = None
    if _pool is None:
        _pool = (ProcessPoolExecutor(max_workers=size), size, pid)
    pool = _pool[0]
    try:
        batches = list(pool.map(_test_planes, [args[i::size] for i in range(size)]))
    except BrokenProcessPool:
        _pool = None
        pool.shutdown(wait=False)
        raise
    except RevquadError:
        return _test_planes(args)
    # plane j is record j // size of task j % size
    return [batches[j % size][j // size] for j in range(len(args))]


def predicted_center_height(params, plane):
    """Closed-form center height of a quadric's section.

    Solving F'(zeta) = 2 (zeta - beta) / m^2 for F = a z^2 + b z + c gives
    zeta = (b m^2 + 2 beta) / (2 - 2 a m^2).  The denominator vanishes when
    the plane slope is asymptotic for the quadric.
    """
    m = plane.m
    if m <= 0.0:
        raise InvalidDomain("center height prediction needs m > 0")
    den = 1.0 - params.a * m * m
    if abs(den) < 1e-12:
        raise SingularConfiguration(
            f"slope m = {m!r} is asymptotic for quadric a = {params.a!r}"
        )
    return (params.b * m * m + 2.0 * plane.beta) / (2.0 * den)


def derivative_from_centers(curve):
    """Reconstruct (zeta, F'(zeta)) pairs from a center curve.

    Each section's center height satisfies F'(zeta) = 2 (zeta - beta) / m^2,
    so the profile derivative is recovered without differentiating F.
    """
    m2 = curve.m * curve.m
    return [(e.zeta, 2.0 * (e.zeta - e.beta) / m2) for e in curve.entries]


def fit_quadratic(samples):
    """Least-squares quadratic through (z, value) samples.

    Solves the 3x3 normal equations on the shifted and scaled abscissa
    u = (z - mean) / spread, then maps the coefficients back.  Returns
    (params, residual) with residual = RMS error / max(1, RMS value).
    Raises InvalidDomain for a sample that is not finite or a fit that is
    not, and RankDeficient for fewer than 3 distinct abscissae.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 3:
        raise RankDeficient("need at least 3 (z, value) samples")
    if not np.isfinite(arr).all():
        raise InvalidDomain("samples must be finite")
    z = arr[:, 0]
    v = arr[:, 1]
    # distinct abscissae, counted in sorted order (np.unique would import numpy.ma)
    ordered = np.sort(z)
    if np.count_nonzero(ordered[1:] != ordered[:-1]) < 2:
        raise RankDeficient("need at least 3 distinct abscissae")
    zbar = z.mean()
    spread = float(np.max(np.abs(z - zbar)))
    u = (z - zbar) / spread
    vand = np.column_stack([u * u, u, np.ones_like(u)])
    # values near the largest double overflow the normal equations, and
    # spread**2 underflows on a tiny domain, where rounding noise in alpha
    # over it is not finite: such samples cannot be fitted
    with np.errstate(all="ignore"):
        alpha, b1, gamma = np.linalg.solve(vand.T @ vand, vand.T @ v)
        a = alpha / spread**2
        b = b1 / spread - 2.0 * alpha * zbar / spread**2
        c = gamma - b1 * zbar / spread + alpha * (zbar / spread) ** 2
        pred = (a * z + b) * z + c
    if not (np.isfinite([a, b, c]).all() and np.isfinite(pred).all()):
        raise InvalidDomain("quadratic fit coefficients are not finite")
    # squares of the values scaled by 2^-k, which is exact, cannot overflow
    k = math.frexp(float(np.max(np.abs(v))))[1]
    vs, ps = np.ldexp(v, -k), np.ldexp(pred, -k)
    rms_err = math.ldexp(float(np.sqrt(np.mean((vs - ps) ** 2))), k)
    rms_val = math.ldexp(float(np.sqrt(np.mean(vs**2))), k)
    return QuadricParams(float(a), float(b), float(c)), rms_err / max(1.0, rms_val)


def sweep_intercepts(q, delta, n_planes):
    """The detector's intercept grid: n_planes values just inside |beta| < q - 2 delta.

    n_planes must be an integer >= 1 and delta lie in (0, q/2); anything
    else, or a grid numpy cannot allocate, raises InvalidDomain.
    """
    n_planes = _count(n_planes, "plane count")
    if n_planes < 1:
        raise InvalidDomain(f"need at least 1 plane, got {n_planes!r}")
    if not (0.0 < delta < q / 2.0):
        raise InvalidDomain(f"need 0 < delta < q/2, got delta = {delta!r}")
    span = q - 2.0 * delta
    eta = span / (10.0 * n_planes)
    try:
        return np.linspace(-(span - eta), span - eta, n_planes)
    except (MemoryError, ValueError):  # numpy: too much memory, or past its size limit
        raise InvalidDomain(f"cannot allocate {n_planes!r} intercepts") from None


def _probe_planes(profile, delta, mu):
    """Steep sensitivity planes over the middle intercepts.

    For each probe intercept, start from a slope sized to the room left
    between beta and the domain edge and shrink it geometrically until the
    section closes, as section_extent decides it before it bisects.  The
    probes still open in a shrink round are decided together by
    _closing_brackets, or one at a time when that raises, so each probe
    keeps its own outcome.  Falls back to the slab slope when nothing
    closes; after the rounds, raises the first probe's error other than a
    section that does not close.
    """
    q = profile.q
    half = 0.5 * (q - 2.0 * delta)
    betas = np.linspace(-half, half, PROBE_COUNT)
    floor = 0.5 * mu
    slopes = list(_PROBE_SHRINK * (q - np.abs(betas)) / np.sqrt(profile.eval(betas)))
    chosen = [floor] * len(betas)
    errors = [None] * len(betas)
    todo = range(len(betas))
    for _ in range(_PROBE_TRIES):
        todo = [k for k in todo if not slopes[k] <= floor]
        if not todo:
            break
        found = _per_plane(_closing_brackets, profile,
                           [Plane(slopes[k], betas[k]) for k in todo])
        escaped = []
        for k, f in zip(todo, found):
            if f is None:
                slopes[k] *= _PROBE_SHRINK
                escaped.append(k)
            elif isinstance(f, RevquadError):
                errors[k] = f
            else:
                chosen[k] = slopes[k]
        todo = escaped
    for err in errors:
        if err is not None:
            raise err
    return [(float(m), float(beta)) for m, beta in zip(chosen, betas)]


def detect_quadric(profile, delta, n_planes, n_samples, tol, workers=1):
    """Decide whether the profile is quadric from its section loops.

    Sweeps n_planes slab planes at slope mu/2 plus a fixed set of steep
    probe planes; every traced loop is scored for central symmetry at the
    given tolerance, once, at its forced centre, the midpoint of its
    extent.  Any failing loop makes the verdict is_quadric=False with the
    worst failure as witness.  When all loops pass, a quadratic is
    fitted to F on a 4 n_planes grid over |z| <= q - 3 delta and the
    verdict follows the fit residual; central loops with a failing fit are
    flagged rather than certified.  A slab slope mu/2 that underflows to
    0 raises InvalidDomain before any plane is built.

    workers is an integer >= 1; workers > 1 evaluates planes in a process
    pool of k = min(workers, planes, CPUs) processes (serially when that is
    1), one task per worker: task i holds the planes i, i + k, i + 2k, ...
    Each batch (the serial run is one) decides its planes' extents
    together, bisects each bracket on its own and traces its planes as one
    array program, with the bits each extent and loop has alone; a batch
    that raises is traced again one plane at a time, so each plane keeps
    its own error.  Records are put back in plane order, and the first
    failing plane's error is raised, so the outcome does not depend on the
    worker count.  Pooled calls share one warm pool for the life of the
    process: it is built by the first pooled call, rebuilt when a call
    needs another size, after a fork, or after a worker died, and shut
    down at interpreter exit.
    """
    q = profile.q
    if not (0.0 < delta < q / 3.0):
        raise InvalidDomain(f"need 0 < delta < q/3, got delta = {delta!r}")
    n_planes = _count(n_planes, "plane count")
    n_samples = _count(n_samples, "sample count")
    if n_planes < 5:
        raise InvalidDomain(f"need at least 5 planes, got {n_planes!r}")
    if n_samples < 256:
        raise InvalidDomain(f"need at least 256 samples per loop, got {n_samples!r}")
    _check_tol(tol)
    workers = _count(workers, "worker count")
    if workers < 1:
        raise InvalidDomain(f"need at least 1 worker, got {workers!r}")

    mu = slope_bound(profile, delta)
    m_sweep = 0.5 * mu
    if not m_sweep > 0.0:
        raise InvalidDomain(f"slab slope mu / 2 underflows to 0, mu = {mu!r}")
    jobs = [(m_sweep, float(b)) for b in sweep_intercepts(q, delta, n_planes)]
    n_sweep = len(jobs)
    jobs += _probe_planes(profile, delta, mu)

    args = [(profile, m, beta, n_samples, tol, delta if i < n_sweep else None)
            for i, (m, beta) in enumerate(jobs)]
    procs = min(workers, len(args), os.cpu_count() or 1)
    records = _map_pooled(procs, args) if procs > 1 else _test_planes(args)

    curve = CenterCurve(
        m=m_sweep,
        entries=tuple(CenterEntry(r.beta, r.zeta, r.asymmetry) for r in records[:n_sweep]),
    )
    epsilon = m_sweep * infimum_radius(profile, delta)

    failing = [r for r in records if r.asymmetry > tol]
    common = dict(
        planes_tested=len(records),
        epsilon=epsilon,
        delta=float(delta),
        slope=m_sweep,
        curve=curve,
        sections=tuple(records),
    )
    if failing:
        worst = max(failing, key=lambda r: r.asymmetry)
        return QuadricVerdict(
            is_quadric=False,
            params=None,
            fit_residual=None,
            witness=(Plane(worst.m, worst.beta), worst.report),
            **common,
        )

    lim = q - 3.0 * delta
    zgrid = np.linspace(-lim, lim, 4 * n_planes)
    params, residual = fit_quadratic(np.column_stack([zgrid, profile.eval(zgrid)]))
    ok = residual <= max(tol, 1e-8)
    return QuadricVerdict(
        is_quadric=ok,
        params=params if ok else None,
        fit_residual=residual,
        witness=None,
        central_but_fit_failed=not ok,
        **common,
    )
