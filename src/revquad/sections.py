"""Cutting planes and traced cross-section loops.

Rotational symmetry reduces any non-horizontal cutting plane to
z = m x + beta with m >= 0.  For m > 0 the section of x^2 + y^2 = F(z) is
charted in the plane's own (y, z) coordinates, where it is the locus

    y^2 = g(z) = F(z) - ((z - beta) / m)^2.

Horizontal planes (m = 0) cut circles; those are charted in the plane's
orthonormal coordinates instead and carry z_lo = z_hi = beta.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidDomain,
    LoopEscapesDomain,
    NonSimpleSection,
    OutOfDomain,
    ZeroSlope,
)
from .profiles import _value_range

__all__ = [
    "Plane",
    "SectionLoop",
    "section_gap",
    "section_extent",
    "trace_section",
    "embed_3d",
    "slope_bound",
]

# The extent bisection runs to floating-point exhaustion, so the bracket
# width ends at one unit in the last place of z: far inside the documented
# |dz| <= 1e-13 q guarantee for any double-precision q.

# Outward bracketing walks this many fixed steps before the step starts
# doubling; a doubling walk still brackets the first crossing of any section
# whose gap does not dip on scales finer than the local step.
_FIXED_STEPS = 4096


@dataclass(frozen=True)
class Plane:
    """Cutting plane z = m x + beta, slope m >= 0."""

    m: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.m) and self.m >= 0.0):
            raise InvalidDomain(f"plane slope must be finite and >= 0, got {self.m!r}")
        if not np.isfinite(self.beta):
            raise InvalidDomain(f"plane intercept must be finite, got {self.beta!r}")


@dataclass(frozen=True)
class SectionLoop:
    """A traced closed section.

    For m > 0, points holds chart (y, z) pairs: the upper branch (y >= 0)
    from z_lo to z_hi followed by the lower branch (y <= 0) back from z_hi
    to z_lo, endpoints not duplicated; the first point is (0, z_lo).  For
    m = 0, points holds the circle in the plane's own orthonormal chart and
    z_lo = z_hi = beta.  ``closed`` means the last point connects to the
    first.
    """

    plane: Plane
    points: np.ndarray = field(repr=False)
    z_lo: float
    z_hi: float
    closed: bool = True


def section_gap(profile, plane, z):
    """g(z) = F(z) - ((z - beta)/m)^2; positive strictly inside the loop."""
    if plane.m == 0.0:
        raise ZeroSlope("section gap needs a tilted plane (m > 0)")
    val = profile.eval(z)
    off = (np.asarray(z, dtype=float) - plane.beta) / plane.m
    out = val - off * off
    if np.ndim(z) == 0:
        return float(out)
    return out


def section_extent(profile, plane):
    """Outermost z-interval (z_lo, z_hi) on which the section closes.

    Walks outward from beta in steps of m sqrt(F(beta)) / 8 until the gap
    changes sign, then bisects the bracket until it cannot shrink further
    (well inside |dz| <= 1e-13 q).  The returned values sit on the gap > 0
    side of each root.  Raises LoopEscapesDomain when the gap stays
    positive all the way to |z| = q.
    """
    gap, beta, step, cap = _walk_setup(profile, plane)
    z_hi = _bisect_root(gap, *_outward_bracket(gap, beta, step, cap))
    z_lo = _bisect_root(gap, *_outward_bracket(gap, beta, -step, -cap))
    return z_lo, z_hi


def _check_closes(profile, plane):
    """section_extent without the bisections: the same checks and outward
    walks, so the same exceptions, LoopEscapesDomain included."""
    gap, beta, step, cap = _walk_setup(profile, plane)
    _outward_bracket(gap, beta, step, cap)
    _outward_bracket(gap, beta, -step, -cap)


def _walk_setup(profile, plane):
    """The domain and gap checks of section_extent, then (gap, beta, step,
    cap) for its outward walks."""
    if plane.m == 0.0:
        raise ZeroSlope("section extent needs a tilted plane (m > 0)")
    beta = plane.beta
    if abs(beta) >= profile.q:
        raise OutOfDomain(f"plane intercept |beta| >= q = {profile.q!r}")
    g0 = section_gap(profile, plane, beta)
    if g0 <= 0.0:
        raise InvalidDomain("gap is not positive at z = beta")
    step = plane.m * math.sqrt(profile.eval(beta)) / 8.0
    gap = lambda z: section_gap(profile, plane, z)
    cap = profile.q * (1.0 - 2.0 ** -52)
    return gap, beta, step, cap


def _outward_bracket(gap, start, step, cap):
    """(lo, hi) with gap(lo) > 0 >= gap(hi), walking from start toward cap."""
    prev = start
    k = 0
    stride = step
    while True:
        k += 1
        if k > _FIXED_STEPS:
            stride *= 2.0
        z = prev + stride
        hit_cap = (z >= cap) if step > 0 else (z <= cap)
        if hit_cap:
            z = cap
        if gap(z) <= 0.0:
            break
        if hit_cap:
            raise LoopEscapesDomain(
                f"gap stays positive out to z = {cap!r}; section does not close inside |z| < q"
            )
        prev = z
    return prev, z


def _bisect_root(gap, lo, hi):
    """Bisect gap(lo) > 0 >= gap(hi) to exhaustion; returns the gap > 0 end."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def trace_section(profile, plane, n):
    """Trace the closed section with n sample levels.

    For m > 0 the z-extent is sampled at Chebyshev extrema
    z_k = mid + rad cos(k pi / (n-1)), which cluster toward the turning
    points where dy/dz blows up; the first and last nodes land exactly on
    z_lo and z_hi.  The returned loop has 2n - 2 distinct points.  For
    m = 0 it has n points uniformly spaced in angle.
    """
    n = _count(n, "sample level count")
    if n < 16:
        raise InvalidDomain(f"need n >= 16 sample levels, got {n!r}")
    if abs(plane.beta) >= profile.q:
        raise OutOfDomain(f"plane intercept |beta| >= q = {profile.q!r}")

    if plane.m == 0.0:
        r = math.sqrt(profile.eval(plane.beta))
        ang = 2.0 * np.pi * np.arange(n) / n
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        return SectionLoop(plane=plane, points=pts, z_lo=plane.beta, z_hi=plane.beta)

    z_lo, z_hi = section_extent(profile, plane)
    mid = 0.5 * (z_lo + z_hi)
    rad = 0.5 * (z_hi - z_lo)
    zs = mid + rad * np.cos(np.pi * np.arange(n) / (n - 1))
    zs[0] = z_hi
    zs[-1] = z_lo
    gap = section_gap(profile, plane, zs)
    floor = -1e-9 * max(1.0, profile.eval(plane.beta))
    if np.any(gap < floor):
        raise NonSimpleSection(
            "gap dips negative between the extent roots; the cut is not a single loop"
        )
    ys = np.sqrt(np.where(gap < 0.0, 0.0, gap))
    # the extent endpoints are the section's turning points: y = 0 exactly
    ys[0] = 0.0
    ys[-1] = 0.0
    upper = np.column_stack([ys, zs])[::-1]            # (0, z_lo) ... (0, z_hi)
    lower = np.column_stack([-ys[1:-1], zs[1:-1]])     # back down, endpoints excluded
    return SectionLoop(plane=plane, points=np.vstack([upper, lower]), z_lo=z_lo, z_hi=z_hi)


def _count(value, what):
    """value as an int; floats and other non-integers raise InvalidDomain."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidDomain(f"{what} must be an integer, got {value!r}") from None


def embed_3d(loop):
    """Map a chart loop back to (x, y, z) triples on the surface.

    For m > 0 the chart point (y, z) lifts to x = (z - beta)/m; for m = 0
    the chart is placed horizontally at height beta.
    """
    pts = loop.points
    m, beta = loop.plane.m, loop.plane.beta
    if m == 0.0:
        z = np.full(len(pts), beta)
        return np.column_stack([pts[:, 0], pts[:, 1], z])
    y = pts[:, 0]
    z = pts[:, 1]
    x = (z - beta) / m
    return np.column_stack([x, y, z])


def slope_bound(profile, delta):
    """mu = delta / (2 M), M = max sqrt(F) over |z| <= q - delta/2.

    M is exact (the maximum of F over the interval ends and the critical
    points of F inside), so it is a true upper bound and planes with
    m < mu and |beta| < q - 2 delta cut sections that close inside the
    slab |z - beta| < delta.
    """
    if not (0.0 < delta < profile.q):
        raise InvalidDomain(f"need 0 < delta < q, got delta = {delta!r}")
    big = math.sqrt(_value_range(profile, profile.q - 0.5 * delta)[1])
    return float(delta / (2.0 * big))
