"""Cutting planes and traced cross-section loops.

Rotational symmetry reduces any non-horizontal cutting plane to
z = m x + beta with m >= 0.  For m > 0 the section of x^2 + y^2 = F(z) is
charted in the plane's own (y, z) coordinates, where it is the locus

    y^2 = g(z) = F(z) - ((z - beta) / m)^2.

Horizontal planes (m = 0) cut circles; those are charted in the plane's
orthonormal coordinates instead and carry z_lo = z_hi = beta.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidDomain,
    LoopEscapesDomain,
    NonSimpleSection,
    OutOfDomain,
    RevquadError,
    ZeroSlope,
)
from .profiles import _gap_roots_many, _value_range

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
    z_lo = z_hi = beta.  The last point connects to the first.
    """

    plane: Plane
    points: np.ndarray = field(repr=False)
    z_lo: float
    z_hi: float


def section_gap(profile, plane, z):
    """g(z) = F(z) - ((z - beta)/m)^2; positive strictly inside the loop."""
    if plane.m == 0.0:
        raise ZeroSlope("section gap needs a tilted plane (m > 0)")
    out = _gap(profile, z, plane.beta, plane.m)
    if np.ndim(z) == 0:
        return float(out)
    return out


def _gap(profile, z, beta, m):
    """The section gap at z, elementwise for intercepts beta and slopes m."""
    val = profile.eval(z)
    with np.errstate(over="ignore"):
        off = (np.asarray(z, dtype=float) - beta) / m
        return val - off * off


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
    return _extents(profile, [plane])[0]


def _extents(profile, planes):
    """section_extent for each plane, the closing decision of all of them
    made first; raises the first error it meets, as section_extent does."""
    brackets = _closing_brackets(profile, planes)
    if None in brackets:
        raise LoopEscapesDomain(
            f"gap stays positive out to |z| = {_cap(profile)!r}; "
            "section does not close inside |z| < q"
        )
    return [(-lo, hi) for hi, lo in _bisect_roots(profile, planes, brackets)]


def _per_plane(batched, profile, planes, *shared, **columns):
    """batched(profile, planes, *shared, **columns), each column a list with
    an entry per plane; if it raises, each plane's entry alone, or its error."""
    try:
        return batched(profile, planes, *shared, **columns)
    except RevquadError:
        pass
    out = []
    for k, plane in enumerate(planes):
        own = {name: [column[k]] for name, column in columns.items()}
        try:
            out.append(batched(profile, [plane], *shared, **own)[0])
        except RevquadError as exc:
            out.append(exc)
    return out


def _cap(profile):
    """The largest |z| a root window reaches: the last double below q."""
    return profile.q * (1.0 - 2.0 ** -52)


def _closing_brackets(profile, planes):
    """section_extent's decision, short of the bisection, for each plane.

    An entry is None when the plane's section does not close inside
    |z| < q, or else the plane's two brackets (lo, hi), gap(lo) > 0 >=
    gap(hi): the upper side's in z, then the lower side's in the mirrored
    frame -z, where that side looks for the first crossing above its own
    start.  A plane whose upper side does not close reads no lower
    window.  Any other error section_extent raises before it bisects is
    raised, the first that one of the planes meets.  The profile at the
    intercepts is one eval call and the gap polynomials one stacked root
    solve (_gap_roots_many); the window ends are then read one scalar gap
    value at a time, in the order the decision needs them.
    """
    for plane in planes:
        if plane.m == 0.0:
            raise ZeroSlope("section extent needs a tilted plane (m > 0)")
        if abs(plane.beta) >= profile.q:
            raise OutOfDomain(f"plane intercept |beta| >= q = {profile.q!r}")
    ms, betas = [p.m for p in planes], [p.beta for p in planes]
    # the gap at an intercept is F there: eval raises unless it is positive
    profile.eval(np.array(betas))
    cap = _cap(profile)
    out = []
    for plane, roots in zip(planes, _gap_roots_many(profile, ms, betas)):
        roots = sorted(roots.tolist())
        beta = float(plane.beta)
        upper, lower = _side_gaps(profile, plane)
        brackets = []
        for gap, start, side in ((upper, beta, roots),
                                 (lower, -beta, [-r for r in roots[::-1]])):
            found = next((win for win in _windows(start, side, cap)
                          if gap(win[0]) > 0.0 >= gap(win[1])), None)
            if found is None:
                break
            brackets.append(found)
        out.append(brackets if len(brackets) == 2 else None)
    return out


def _windows(beta, roots, cap):
    """(lo, hi) polish windows of the candidate roots above beta; roots ascending."""
    wins = []
    for r in roots:
        w = 1e-9 * max(1.0, abs(r))
        if r + w > beta:
            wins.append((max(r - w, beta), min(r + w, cap)))
    return wins


def _side_gaps(profile, plane):
    """The plane's gap at one float, in Python floats: g(z) for the upper
    side, then g(-z) for the lower side in the mirrored frame."""
    beta, m = float(plane.beta), float(plane.m)

    def gap(z):
        val = profile.eval(z)
        off = (z - beta) / m
        return val - off * off

    return gap, lambda z: gap(-z)


def _bisect_roots(profile, planes, brackets):
    """Bisect the two brackets of every plane to exhaustion, one at a time.

    brackets[k] holds plane k's brackets, gap(lo) > 0 >= gap(hi), the first
    in z, the second in the mirrored frame -z.  Each bracket is bisected on
    its own, one scalar gap value per midpoint: mid = 0.5 (lo + hi) until
    mid == lo or mid == hi, keeping lo = mid where gap(mid) > 0 and
    hi = mid elsewhere.  Returns per plane its two gap > 0 ends, as the
    brackets give them.  A point's error is raised.
    """
    out = []
    for plane, pair in zip(planes, brackets):
        ends = []
        for gap, (lo, hi) in zip(_side_gaps(profile, plane), pair):
            while True:
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                if gap(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            ends.append(lo)
        out.append(ends)
    return out


def trace_section(profile, plane, n):
    """Trace the closed section with n sample levels.

    For m > 0 the z-extent is sampled at Chebyshev extrema
    z_k = mid + rad cos(k pi / (n-1)), which cluster toward the turning
    points where dy/dz blows up; the first and last nodes land exactly on
    z_lo and z_hi.  The returned loop has 2n - 2 distinct points.  For
    m = 0 it has n points uniformly spaced in angle.  The checks come in
    this order: the sample count (an integer >= 16 that numpy can
    allocate), the intercept, the extent (section_extent), then the gap
    between the extent's ends.  A tilted plane is traced by _trace_many,
    as a batch of one: the detector traces each batch of planes as one
    such program.
    """
    levels = _sample_levels(n, plane.m > 0.0)
    if abs(plane.beta) >= profile.q:
        raise OutOfDomain(f"plane intercept |beta| >= q = {profile.q!r}")
    if plane.m == 0.0:
        r = math.sqrt(profile.eval(plane.beta))
        ang = 2.0 * np.pi * levels / len(levels)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        return SectionLoop(plane=plane, points=pts, z_lo=plane.beta, z_hi=plane.beta)
    return _trace_many(profile, [plane], levels, extents=[section_extent(profile, plane)])[0]


def _trace_many(profile, planes, cosines, extents):
    """trace_section of every tilted plane over its extent, sampled at the
    Chebyshev levels cosines (_sample_levels), all of them as one
    (planes, n) program: the nodes, one gap call, one profile call at the
    intercepts for the floors below which a gap is not rounding, and one
    (planes, 2n - 2, 2) point array, each loop's points a view of it.
    Every element has the bits trace_section gives it alone.  Raises the
    first error it meets, as trace_section does.
    """
    n = len(cosines)
    # per plane, as columns: the extent's midpoint and radius, its ends,
    # the intercept and the slope
    cols = np.array([(0.5 * (lo + hi), 0.5 * (hi - lo), lo, hi, p.beta, p.m)
                     for p, (lo, hi) in zip(planes, extents)], dtype=float)
    mid, rad, lo, hi, beta, m = cols.reshape(-1, 6).T[..., None]
    zs = mid + rad * cosines
    zs[:, :1] = hi
    zs[:, -1:] = lo
    gap = _gap(profile, zs, beta, m)
    # fmax, as max(1.0, F) would, reads a nan value as 1.0
    floor = -1e-9 * np.fmax(1.0, profile.eval(beta))
    if (gap < floor).any():
        raise NonSimpleSection(
            "gap dips negative between the extent roots; the cut is not a single loop"
        )
    ys = np.sqrt(np.where(gap < 0.0, 0.0, gap))
    # the extent endpoints are the section's turning points: y = 0 exactly
    ys[:, 0] = 0.0
    ys[:, -1] = 0.0
    pts = np.empty((len(planes), 2 * n - 2, 2))
    pts[:, :n, 0] = ys[:, ::-1]                 # upper: (0, z_lo) ... (0, z_hi)
    pts[:, :n, 1] = zs[:, ::-1]
    np.negative(ys[:, 1:-1], out=pts[:, n:, 0])  # back down, endpoints excluded
    pts[:, n:, 1] = zs[:, 1:-1]
    return [SectionLoop(plane=plane, points=p, z_lo=z_lo, z_hi=z_hi)
            for plane, p, (z_lo, z_hi) in zip(planes, pts, extents)]


def _sample_levels(n, tilted=True):
    """The n levels trace_section samples a plane at: the Chebyshev cosines
    of a tilted plane, the indices 0 .. n - 1 of a horizontal one.  An n
    that is not an integer >= 16, or that numpy cannot allocate, raises
    InvalidDomain."""
    n = _count(n, "sample level count")
    if n < 16:
        raise InvalidDomain(f"need n >= 16 sample levels, got {n!r}")
    try:
        return _chebyshev_cosines(n) if tilted else np.arange(n)
    except (MemoryError, ValueError):  # numpy: too much memory, or past its size limit
        raise InvalidDomain(f"cannot allocate {n!r} sample levels") from None


@functools.lru_cache(maxsize=1)
def _chebyshev_cosines(n):
    """cos(k pi / (n - 1)) for k = 0 .. n - 1, read-only: the traced levels
    of the last n asked for, shared by the planes of a sweep."""
    cosines = np.cos(np.pi * np.arange(n) / (n - 1))
    cosines.setflags(write=False)
    return cosines


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
