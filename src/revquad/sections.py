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
    NonPositiveProfile,
    NonSimpleSection,
    OutOfDomain,
    ZeroSlope,
)
from .profiles import _gap_roots, _value_range

__all__ = [
    "Plane",
    "SectionLoop",
    "section_gap",
    "section_extent",
    "trace_section",
    "embed_3d",
    "slope_bound",
]

# The extent is exact up to rounding: its ends are roots of the gap, a
# polynomial (a piecewise cubic for a sampled profile), and the bisection
# that polishes each root runs to floating-point exhaustion, so the bracket
# width ends at one unit in the last place of z: far inside the documented
# |dz| <= 1e-13 q guarantee for any double-precision q.

# The upper side's sign, then the mirrored lower side's.
_SIGNS = np.array([1.0, -1.0])
# Bisection levels per round: one gap call scores the full midpoint tree of
# each open bracket, 2**_DEPTH - 1 points per bracket.
_DEPTH = 6


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
    with np.errstate(over="ignore"):
        off = (np.asarray(z, dtype=float) - plane.beta) / plane.m
        out = val - off * off
    if np.ndim(z) == 0:
        return float(out)
    return out


def section_extent(profile, plane):
    """Outermost z-interval (z_lo, z_hi) on which the section closes.

    z_lo and z_hi are the real roots of m^2 F(z) - (z - beta)^2 nearest to
    beta on either side inside |z| < q: roots of a polynomial, or of a
    piecewise cubic for a sampled profile.  Each is polished by bisection
    to exhaustion inside root +- 1e-9 max(1, |root|), so the returned
    values sit on the gap > 0 side of their roots; a candidate whose window
    does not change sign is skipped.  Raises LoopEscapesDomain when no root
    exists before |z| = q.
    """
    if plane.m == 0.0:
        raise ZeroSlope("section extent needs a tilted plane (m > 0)")
    beta = plane.beta
    if abs(beta) >= profile.q:
        raise OutOfDomain(f"plane intercept |beta| >= q = {profile.q!r}")
    if section_gap(profile, plane, beta) <= 0.0:
        raise InvalidDomain("gap is not positive at z = beta")
    gap = lambda z: section_gap(profile, plane, z)
    roots = sorted(_gap_roots(profile, plane.m, beta).tolist())
    cap = profile.q * (1.0 - 2.0 ** -52)
    # The lower side runs on the mirrored gap g(-z), so that each side
    # looks for the first crossing above its own start; the windows of both
    # sides are scored in one gap call.
    sides = (_windows(beta, roots, cap), _windows(-beta, [-r for r in roots[::-1]], cap))
    ends = [s * z for s, wins in zip(_SIGNS, sides) for win in wins for z in win]
    read = _reader(gap, np.array(ends))
    brackets, at = [], 0
    for wins in sides:
        found = None
        for win in wins:
            if found is None and read(at) > 0.0 >= read(at + 1):
                found = win
            at += 2
        if found is None:
            raise LoopEscapesDomain(
                f"gap stays positive out to |z| = {cap!r}; "
                "section does not close inside |z| < q"
            )
        brackets.append(found)
    z_hi, z_lo = _bisect_roots(gap, brackets)
    return -z_lo, z_hi


def _windows(beta, roots, cap):
    """(lo, hi) polish windows of the candidate roots above beta; roots ascending."""
    wins = []
    for r in roots:
        w = 1e-9 * max(1.0, abs(r))
        if r + w > beta:
            wins.append((max(r - w, beta), min(r + w, cap)))
    return wins


def _reader(gap, zs):
    """Index -> gap at zs[index], all from one gap call.

    Should that call raise, each point is evaluated on its own when it is
    read instead, so that only a point the scalar bisection would visit can
    raise.
    """
    try:
        return gap(zs).tolist().__getitem__
    except NonPositiveProfile:
        return lambda i: gap(zs[i])


def _bisect_roots(gap, brackets):
    """Bisect both brackets gap(lo) > 0 >= gap(hi) to exhaustion in lock-step.

    brackets[0] is in z, brackets[1] in the mirrored frame -z.  Each round
    builds the midpoint tree of every open bracket, _DEPTH levels deep, with
    the scalar bisection's arithmetic (mid = 0.5 (lo + hi)), scores all of
    it in one gap call, and walks each tree as the scalar bisection would:
    stop when mid == lo or mid == hi, else keep lo = mid where gap(mid) > 0
    and hi = mid elsewhere.  Returns the gap > 0 ends, as the brackets give
    them.
    """
    bounds = [list(b) for b in brackets]
    result = [None] * len(bounds)
    while True:
        live = [k for k, res in enumerate(result) if res is None]
        if not live:
            return result
        edges = np.array([bounds[k] for k in live])
        levels = []
        for _ in range(_DEPTH):
            mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
            levels.append(mid)
            split = np.empty((len(live), 2 * edges.shape[1] - 1))
            split[:, ::2] = edges
            split[:, 1::2] = mid
            edges = split
        # heap order: node i has children 2i + 1 (lower half), 2i + 2 (upper)
        tree = np.hstack(levels)
        read = _reader(gap, (_SIGNS[live, None] * tree).ravel())
        width = tree.shape[1]
        tree = tree.tolist()
        for row, k in enumerate(live):
            lo, hi = bounds[k]
            node = 0
            for _ in range(_DEPTH):
                mid = tree[row][node]
                if mid == lo or mid == hi:
                    result[k] = lo
                    break
                if read(row * width + node) > 0.0:
                    lo, node = mid, 2 * node + 2
                else:
                    hi, node = mid, 2 * node + 1
            bounds[k] = [lo, hi]


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
