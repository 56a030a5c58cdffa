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
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidDomain,
    LoopEscapesDomain,
    RankDeficient,
    RevquadError,
    SingularConfiguration,
    SlabViolation,
)
from .profiles import QuadricParams, infimum_radius
from .sections import Plane, _count, section_extent, slope_bound, trace_section
from .symmetry import CentralityReport, centrality

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


class CenterEntry(NamedTuple):
    beta: float
    zeta: float
    asymmetry: float


@dataclass(frozen=True)
class CenterCurve:
    """Center heights of the sections cut at one slope, by ascending intercept."""

    m: float
    entries: tuple[CenterEntry, ...]

    def __post_init__(self):
        betas = [e.beta for e in self.entries]
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise InvalidDomain("center curve intercepts must be strictly increasing")


@dataclass(frozen=True)
class SectionRecord:
    """One tested plane: its loop extent and centrality outcome."""

    m: float
    beta: float
    z_lo: float
    z_hi: float
    zeta: float
    asymmetry: float
    report: CentralityReport


@dataclass(frozen=True)
class QuadricVerdict:
    """Detector outcome plus the diagnostics that justify it."""

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

    Errors from tracing or scoring are re-raised tagged with the offending
    intercept.  When delta is given, each loop must stay inside the slab
    |z - beta| < delta and its center height within delta of beta;
    violations raise SlabViolation instead of passing silently.
    """
    if not (m > 0.0):
        raise InvalidDomain(f"need slope m > 0, got {m!r}")
    entries = []
    for beta in betas:
        rec = _test_plane(profile, float(m), float(beta), n, tol, delta)
        entries.append(CenterEntry(rec.beta, rec.zeta, rec.asymmetry))
    return CenterCurve(m=float(m), entries=tuple(entries))


def _test_plane(profile, m, beta, n, tol, delta=None):
    try:
        loop = trace_section(profile, Plane(m, beta), n)
        report = centrality(loop, tol)
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


def _map_pooled(size, args):
    """Test the planes of args, in order, on the process's warm pool.

    The pool of size workers is built on first use.  A pool of another size
    is shut down and replaced; one built by another process (this one is a
    fork of it) belongs to that process, so it is dropped, not shut down.
    A pool that breaks is dropped too: the call raises, the next one builds
    afresh.  concurrent.futures shuts the pool down at interpreter exit.
    """
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
        return list(pool.map(_test_plane_star, args))
    except BrokenProcessPool:
        _pool = None
        pool.shutdown(wait=False)
        raise


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
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 3:
        raise RankDeficient("need at least 3 (z, value) samples")
    z = arr[:, 0]
    v = arr[:, 1]
    if np.unique(z).size < 3:
        raise RankDeficient("need at least 3 distinct abscissae")
    zbar = z.mean()
    spread = float(np.max(np.abs(z - zbar)))
    u = (z - zbar) / spread
    vand = np.column_stack([u * u, u, np.ones_like(u)])
    alpha, b1, gamma = np.linalg.solve(vand.T @ vand, vand.T @ v)
    a = alpha / spread**2
    b = b1 / spread - 2.0 * alpha * zbar / spread**2
    c = gamma - b1 * zbar / spread + alpha * (zbar / spread) ** 2
    pred = (a * z + b) * z + c
    rms_err = float(np.sqrt(np.mean((v - pred) ** 2)))
    rms_val = float(np.sqrt(np.mean(v**2)))
    return QuadricParams(float(a), float(b), float(c)), rms_err / max(1.0, rms_val)


def sweep_intercepts(q, delta, n_planes):
    """The detector's intercept grid: n_planes values just inside |beta| < q - 2 delta."""
    span = q - 2.0 * delta
    eta = span / (10.0 * n_planes)
    return np.linspace(-(span - eta), span - eta, n_planes)


def _probe_planes(profile, delta, mu):
    """Steep sensitivity planes over the middle intercepts.

    For each probe intercept, start from a slope sized to the room left
    between beta and the domain edge and shrink it geometrically until the
    section closes, which section_extent decides.  Falls back to the slab
    slope when nothing closes.
    """
    q = profile.q
    half = 0.5 * (q - 2.0 * delta)
    betas = np.linspace(-half, half, PROBE_COUNT)
    floor = 0.5 * mu
    jobs = []
    for beta in betas:
        m = _PROBE_SHRINK * (q - abs(beta)) / np.sqrt(profile.eval(beta))
        chosen = floor
        for _ in range(_PROBE_TRIES):
            if m <= floor:
                break
            try:
                section_extent(profile, Plane(m, beta))
            except LoopEscapesDomain:
                m *= _PROBE_SHRINK
                continue
            chosen = m
            break
        jobs.append((float(chosen), float(beta)))
    return jobs


def detect_quadric(profile, delta, n_planes, n_samples, tol, workers=1):
    """Decide whether the profile is quadric from its section loops.

    Sweeps n_planes slab planes at slope mu/2 plus a fixed set of steep
    probe planes; every traced loop is scored for central symmetry at the
    given tolerance.  Any failing loop makes the verdict is_quadric=False
    with the worst failure as witness.  When all loops pass, a quadratic is
    fitted to F on a 4 n_planes grid over |z| <= q - 3 delta and the
    verdict follows the fit residual; central loops with a failing fit are
    flagged rather than certified.

    workers is an integer >= 1; workers > 1 evaluates planes in a process
    pool of min(workers, planes, CPUs) processes (serially when that is 1);
    results are aggregated in deterministic plane order, so the verdict
    does not depend on the worker count.  Pooled calls share one warm pool
    for the life of the process: it is built by the first pooled call,
    rebuilt when a call needs another size, after a fork, or after a worker
    died, and shut down at interpreter exit.
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
    if not (0.0 < tol < math.inf):
        raise InvalidDomain(f"tolerance must be positive and finite, got {tol!r}")
    workers = _count(workers, "worker count")
    if workers < 1:
        raise InvalidDomain(f"need at least 1 worker, got {workers!r}")

    mu = slope_bound(profile, delta)
    m_sweep = 0.5 * mu
    jobs = [(m_sweep, float(b)) for b in sweep_intercepts(q, delta, n_planes)]
    n_sweep = len(jobs)
    jobs += _probe_planes(profile, delta, mu)

    args = [(profile, m, beta, n_samples, tol, delta if i < n_sweep else None)
            for i, (m, beta) in enumerate(jobs)]
    procs = min(workers, len(args), os.cpu_count() or 1)
    if procs > 1:
        records = _map_pooled(procs, args)
    else:
        records = [_test_plane(*a) for a in args]

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
