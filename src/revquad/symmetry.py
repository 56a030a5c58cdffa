"""Central-symmetry scoring for closed loops and the midpoint mean-value test.

A loop is centrally symmetric about c when the point reflection p -> 2c - p
maps it onto itself.  The asymmetry score reflects every vertex through a
candidate center, measures each reflected vertex's distance to the original
polyline (point-to-segment, closing segment included), takes the maximum,
and normalizes by s = max(w, h), the larger side of the loop's bounding
box.  The score is zero for exact symmetry in any affine chart, so chart
coordinates are good enough to decide centrality even though they distort
lengths.

The center is forced.  A point reflection swaps the extreme points of a
centrally symmetric loop in each axis, so its center can only be the
bounding-box midpoint b, and centrality scores the loop there once.  That
score is honest against every other center c: if each reflected vertex
about c lies within e of the loop, the reflections of the extreme vertices
put c within e / 2 of b in each coordinate, so score(b) <= 2 score(c) for
c on the axis of a traced loop and score(b) <= (1 + sqrt 2) score(c) for
any c.

The box that fixes the center also fixes the scale.  The loop's diameter
D, its largest distance between two vertices, satisfies s <= D <= sqrt 2 s:
the vertices at the ends of the box's larger side are s apart at least,
and no two points of the box are farther apart than its diagonal.  So a
score is the diameter-normalised one times D / s, in [1, sqrt 2].  On a
traced loop, whose box is aligned with its mirror axis, D / s is 1 or
within a few parts in 1e5 of it.  s needs no squares, so it neither
overflows nor underflows where the loop's coordinates do not.  No score
goes through a matrix product, so none depends on the BLAS build or its
thread count.

The distance kernels work on separate x and y columns:

    t = clip((apx * dx + apy * dy) / len2, 0, 1)
    d2 = gx * gx + gy * gy,    g = ap - t * d

with ap the offset from the segment start a to the point and d the segment
vector.  Each point's value depends on that point alone, so a kernel run on
a subset of rows returns the very bits a run on all rows gives for them.
The kernels return these per-point minima; the caller takes the maximum and
its square root, which is the max-min distance the names refer to.

A row is one scored vertex, and its value is the squared distance from
its reflection to the whole polyline.  The vertices' polar angles about
the bounding-box center are sorted once.  A row's angular window is the 5
segments that start at the vertices at the sorted positions j - 3 .. j + 1,
j the reflected angle's (on a loop whose angles fall along the loop, each
vertex's segment is the one that ends at it); the squared distance W to
its nearest segment bounds the row's value from above.  An evaluation
makes one bound pass over its rows, refines the 64 rows of largest bound
first, and then only the rows whose bound exceeds their maximum L: a row
bounded by L cannot raise the maximum (the pruning of exact Hausdorff
distances, Taha & Hanbury 2015).  The score is thus the largest row value
over all scored rows, whichever rows were refined.  How a row is refined
depends on which of two classes its loop is in.

A loop certifies when it is star-shaped about its box center: its
vertices' sorted angles run in loop order, either way round, and its box
center lies inside every edge's line by more than a rounding slack.
Quadric sections, every traced loop of the benchmark, and loops that are
star-shaped without being convex (the sections of a wiggly profile, a
zigzag star) do.  Each segment then sweeps only the angles between its two
ends, which sit at consecutive sorted positions, so the window's segments
are the 5 between the sorted positions j - 3 and j + 2.  Any segment whose
computed distance could undercut W comes within r = sqrt(W) plus the slack
of the reflected point, r in box-normalised units (divided by the smaller
box half-width), so it meets the disc of radius r about it.  When the disc
leaves out the box center, at distance rho, every such segment meets the
sector theta +- asin(r / rho), widened by an angular slack, within the
angles between its two ends; the segments between consecutive sorted
angles whose span meets the sector hold the nearest segment, and where
r / rho >= 1 every segment does.  Their minimum is the all-segments
minimum, bit for bit.  When the sector lies strictly between the sorted
angles at positions j - 3 and j + 2, those segments are all in the window,
and the row keeps W at no cost: every row of a quadric's central loops
does.

Every other loop is in the general class: a loop whose box center lies
outside it or on its boundary (a crescent, a right triangle, an arc and
its chord), a loop that winds twice, and a noisy loop whose sorted angles
leave loop order.  Its rows are refined by the all-pairs scan, in blocks
of _BLOCK_ROWS rows.

The candidate kernel works on (K, N) arrays, one row per candidate, so its
closing minimum runs across contiguous rows; numpy reduces a short inner
axis many times more slowly.

Every public score (asymmetry_at, centrality, the midpoint bound) is taken
on the loop scaled by 2^-e, e the binary exponent of s, so that the scaled
box's larger side lies in [1/2, 1), and the center with it; a reported
center is scaled back.  A power of two scales every step above exactly, so
a loop in the normal range keeps its bits, while a tiny or huge one is
scored as its unit-sized copy is, and no squared distance underflows to 0
or overflows.

A traced loop is a y-mirror: its lower branch is its upper branch with y
negated, bit for bit, and both turning points lie on the axis y = 0, so the
closed polyline is its own mirror image.  About a center (0, c) the
reflection of the lower vertex (-y, z) is (y, 2c - z), the mirror of the
upper vertex's image (-y, 2c - z); in exact arithmetic the two are equally
far from the loop.  Such an evaluation therefore scores only the turning
points and the upper branch, about half the rows.  Every scored row keeps
the bits a full evaluation gives it, so the score is the full one or
lower, and lower only by the rounding of the skipped rows, whose mirrored
segments are stored the other way round.

A y-mirror loop's midpoint test can also pass on a bound, with no loop
geometry built (centrality's bound=True, _midpoint_bound): each scored row
takes only the two segments at the vertex where a central loop's
reflection of it lands, a minimum over fewer segments than its value's,
divided by the same s, bit for bit.  It is at least the row's value, so
where it is within tol it is a certified upper bound on the midpoint's
score, and the loop is central; anywhere else the exact test runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateLoop, InvalidDomain

__all__ = [
    "CentralityReport",
    "centroid",
    "asymmetry_at",
    "centrality",
    "symmetric_quotient",
    "midpoint_residual",
    "max_midpoint_residual",
]

# Segments in the angular window that bounds each row: those at the sorted
# positions 3 below to 2 above the point's (_LoopGeometry._window).
_WINDOW_SEGS = 5
_WINDOW_COLS = np.arange(_WINDOW_SEGS)[:, None]

# A refinement block of an n-point loop scans at most _BLOCK_ROWS * n
# point-segment pairs: _BLOCK_ROWS rows of the all-pairs scan, or more rows
# of narrower sectors.
_BLOCK_ROWS = 8

# Rows in an evaluation's seed, which it refines first: the rows of largest
# bound (max_dist2).
_WORST_POINTS = 64

# Rounding slack of the certificate's distances, relative to the scale of
# the loop and the center (_LoopGeometry._slack).
_SLACK = 1e-12

# Angular slack of a row's sector (_LoopGeometry._sector), in radians: a
# thousandfold the rounding of the angles it is compared with.
_ANGLE_SLACK = 1e-12


@dataclass(frozen=True)
class CentralityReport:
    """Outcome of a centrality test: center, score, and the applied tolerance."""

    center: tuple[float, float]
    asymmetry: float
    tolerance: float
    central: bool


def _as_points(obj):
    pts = obj.points if hasattr(obj, "points") else np.asarray(obj, dtype=float)
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise DegenerateLoop("need at least 3 chart points")
    if not np.isfinite(pts).all():
        raise DegenerateLoop("chart points must be finite")
    return pts


def centroid(loop):
    """Arclength-weighted centroid of the closed polyline, in chart coordinates.

    Raises InvalidDomain when the loop's length or the weighted sums
    overflow, so that the centroid is not finite.
    """
    pts = _as_points(loop)
    nxt = np.roll(pts, -1, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        seg = nxt - pts
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        total = lengths.sum()
        if total == 0.0:
            raise DegenerateLoop("loop has zero total length")
        mids = 0.5 * (pts + nxt)
        c = (mids * lengths[:, None]).sum(axis=0) / total
    if not (math.isfinite(total) and np.isfinite(c).all()):
        raise InvalidDomain("loop centroid is not finite")
    return float(c[0]), float(c[1])


def max_min_dist_candidates(refl, seg_a, seg_d, seg_len2, cand):
    """Per-point squared distance to the nearest of its candidate segments.

    refl is (N, 2), the segment arrays are indexed by cand, an (N, K) array
    of segment indices; returns an N-vector.  The work runs on (K, N)
    arrays, so the closing minimum runs across contiguous rows; cand is
    read fastest as the transpose of a C-contiguous (K, N) array.
    """
    cols = cand.T
    apx, apy, dx, dy, len2, t, tmp = np.empty((7, *cols.shape))
    # mode="wrap" reads index -1 as fancy indexing does, without buffering
    np.take(seg_a[:, 0], cols, out=apx, mode="wrap")
    np.subtract(refl[:, 0], apx, out=apx)
    np.take(seg_a[:, 1], cols, out=apy, mode="wrap")
    np.subtract(refl[:, 1], apy, out=apy)
    np.take(seg_d[:, 0], cols, out=dx, mode="wrap")
    np.take(seg_d[:, 1], cols, out=dy, mode="wrap")
    np.take(seg_len2, cols, out=len2, mode="wrap")
    return _segment_dist2(apx, apy, dx, dy, len2, t, tmp).min(axis=0)


def max_min_dist_all(refl, seg_a, seg_d, seg_len2):
    """Per-point squared distance to the nearest segment of the whole polyline.

    Scans all point-segment pairs at once, in 4 N len(seg_a) floats, so
    the caller bounds len(refl) * len(seg_a); returns an N-vector.
    """
    apx, apy, t, tmp = np.empty((4, len(refl), len(seg_a)))
    np.subtract(refl[:, 0:1], seg_a[:, 0], out=apx)
    np.subtract(refl[:, 1:2], seg_a[:, 1], out=apy)
    return _segment_dist2(apx, apy, seg_d[:, 0], seg_d[:, 1], seg_len2, t, tmp).min(axis=1)


def _segment_dist2(apx, apy, dx, dy, len2, t, tmp):
    """Squared point-to-segment distances, returned in apx; t and tmp are
    scratch, and apy is overwritten."""
    np.multiply(apx, dx, out=t)
    t += np.multiply(apy, dy, out=tmp)
    t /= len2
    np.clip(t, 0.0, 1.0, out=t)
    apx -= np.multiply(t, dx, out=tmp)
    apy -= np.multiply(t, dy, out=tmp)
    apx *= apx
    apy *= apy
    apx += apy
    return apx


class _LoopGeometry:
    """Per-loop precomputation for asymmetry evaluations.

    Each evaluation makes one bound pass and refines only the rows that can
    hold the maximum (max_dist2; the row value, the pruning rule and the
    two loop classes are in the module docstring).  For the bound, the
    vertices' polar angles about the bounding-box center, in box-normalised
    coordinates, are sorted here once; a bound pass (_bound_dist2) is a
    value, its angles and sorted positions included, which the refinement
    reads.  The loop's class is decided here once: a loop that certifies
    (_certifies), star-shaped about its box center, refines in sectors
    (_sector_dist2); any other refines by the all-pairs scan (_all_dist2),
    in blocks of at most _BLOCK_ROWS * n pairs, as sector blocks are.
    Every row's value is its squared distance to the whole polyline, a
    function of the loop, the center and the row alone, so the score does
    not depend on which rows were refined, and reflect_dist2, which refines
    every row, is its reference.

    The y-mirror layout of a traced loop is detected here once, exactly,
    from the points alone (_mirror_half); evaluations about a center on the
    axis then score only rows 0 .. h-1 (see the module docstring).  Other
    loops (an m = 0 circle, a rotated or perturbed copy of a traced loop)
    and centers off the axis are scored on every row.  side is s, the
    larger side of the bounding box (_box), which divides every score.
    """

    def __init__(self, points):
        pts = _as_points(points)
        self.pts = pts
        self.seg_a = np.ascontiguousarray(pts)
        # squares of a loop's lengths must stay finite for it to be scored
        with np.errstate(over="ignore", invalid="ignore"):
            self.seg_d = np.roll(pts, -1, axis=0) - pts
            len2 = self.seg_d[:, 0] ** 2 + self.seg_d[:, 1] ** 2
            if not np.isfinite(len2).all():
                raise InvalidDomain("squared edge lengths of the loop overflow")
            if len2.sum() == 0.0:
                raise DegenerateLoop("loop has zero total length")
        self.seg_len2 = np.where(len2 > 0.0, len2, 1.0)
        self._half = _mirror_half(pts)
        n = len(pts)
        lo, hi, self.side = _box(pts)
        self.box_center = 0.5 * (lo + hi)
        self._box_scale = np.where(hi > lo, 0.5 * (hi - lo), 1.0)
        # w + h is at least the diameter
        self._slack_scale = (hi - lo).sum() + abs(self.box_center[0]) + abs(self.box_center[1])
        angles = self._angles(pts)
        order = np.argsort(angles, kind="stable")
        self._sorted_angles = angles[order]
        # turn is 1 when the sorted angles rise along the loop, -1 when they
        # fall, else 0
        step = np.diff(order) % n
        turn = 1 if (step == 1).all() else -1 if (step == n - 1).all() else 0
        # _sector_seg[j], the segment at sorted position j: where the angles
        # fall, the segment order[j + 1] ends at vertex order[j]
        self._sector_seg = np.roll(order, -1) if turn < 0 else order
        # _ring[j + 3] is _sector_seg[j], wrapping
        self._ring = np.concatenate([self._sector_seg[-3:], self._sector_seg,
                                     self._sector_seg[:2]])
        # only a loop that certifies has _cert_angles[j + n], the angle at
        # sorted position j for j in [-n, 2n), unwrapped by 2 pi past either
        # end; its _sector_seg[j] joins sorted positions j and j + 1 (mod n)
        self._cert_angles = None
        if self._certifies(turn):
            two_pi = 2.0 * np.pi
            s = self._sorted_angles
            self._cert_angles = np.concatenate([s - two_pi, s, s + two_pi])
            # box-normalised distances, widened past the rounding of r / rho
            self._cert_scale = (1.0 + _SLACK) / self._box_scale.min()

    def _certifies(self, turn):
        """Whether the loop certifies: its sorted angles run in loop order,
        either way round (turn is not 0), and its box center lies inside
        every edge's line, along the edge's outward unit normal (dy, -dx) /
        |d| (negated where the angles fall), by more than the rounding
        slack."""
        if not turn:
            return False
        scale = turn / np.sqrt(self.seg_len2)
        nx, ny = self.seg_d[:, 1] * scale, -self.seg_d[:, 0] * scale
        c = self.box_center
        inside = (c[0] - self.seg_a[:, 0]) * nx + (c[1] - self.seg_a[:, 1]) * ny
        return bool(inside.max() < -self._slack(c))

    def _angles(self, pts):
        """Polar angles about the box center, in box-normalised coordinates."""
        q = (pts - self.box_center) / self._box_scale
        return np.arctan2(q[:, 1], q[:, 0])

    def _scored(self, center):
        """The vertices an evaluation about center scores: rows 0 .. h-1 of
        a y-mirror loop about a center on the axis, otherwise all."""
        if self._half is not None and center[0] == 0.0:
            return self.pts[: self._half]
        return self.pts

    def _window(self, refl):
        """(cols, theta, pos): each reflected point's angular window, the
        (5, m) array of segments _sector_seg[j - 3 .. j + 1], with its angle
        and sorted position j."""
        theta = self._angles(refl)
        pos = np.searchsorted(self._sorted_angles, theta)
        return self._ring[pos + _WINDOW_COLS], theta, pos

    def _bound_dist2(self, refl):
        """A bound pass over refl: (bound, theta, pos), each reflected
        point's squared distance to the nearest segment of its angular
        window, with the angle and sorted position of _window."""
        cols, theta, pos = self._window(refl)
        bound = max_min_dist_candidates(refl, self.seg_a, self.seg_d, self.seg_len2, cols.T)
        return bound, theta, pos

    def _sector(self, center, refl, bound):
        """(ratio, half) of each row: r / rho and the half-width
        asin(r / rho) + _ANGLE_SLACK of its sector (module docstring), r =
        sqrt(bound) + _slack and rho the box-normalised distances of the
        reflected point from the box center; half is meaningless where
        ratio is not below 1."""
        q = (refl - self.box_center) / self._box_scale
        with np.errstate(divide="ignore", over="ignore"):
            ratio = (np.sqrt(bound) + self._slack(center)) * self._cert_scale
            ratio /= np.hypot(q[:, 0], q[:, 1])
        half = np.arcsin(np.minimum(ratio, 1.0))
        half += _ANGLE_SLACK
        return ratio, half

    def _sector_dist2(self, center, refl, bounds, rows):
        """The values of rows on a loop that certifies, from the bound pass
        bounds over refl.  A row whose sector lies strictly between the
        sorted angles at positions j - 3 and j + 2 keeps its bound; a nan
        bound keeps nothing.  Every other row takes its minimum over the
        segments between consecutive sorted angles that meet its sector,
        every segment where r / rho is not below 1 (or nan), in blocks of
        rows sorted by that width: each row of a block scans the block's
        widest, from its own first segment.  That span holds the row's
        sector, whose minimum is the all-segments one, so it keeps the bits.
        """
        n = len(self.pts)
        refl = refl[rows]
        out, theta, pos = (part[rows] for part in bounds)
        ratio, half = self._sector(center, refl, out)
        # extended positions e: segment e joins the angles e and e + 1
        first = np.searchsorted(self._cert_angles, theta - half) - 1
        last = np.searchsorted(self._cert_angles, theta + half, side="right") - 1
        near = ratio < 1.0
        todo = np.flatnonzero(~(near & (first >= pos + (n - 3)) & (last <= pos + (n + 1))))
        every = ~near | (last - first >= n - 1)
        first[every] = 0
        last[every] = n - 1
        width = last - first + 1
        # widest first; a width is at most n, so a block holds at least one row
        order = todo[np.argsort(-width[todo], kind="stable")]
        start = 0
        while start < len(order):
            span = int(width[order[start]])
            block = order[start : start + _BLOCK_ROWS * n // span]
            cols = first[block] + np.arange(span)[:, None]
            out[block] = max_min_dist_candidates(refl[block], self.seg_a, self.seg_d,
                                                 self.seg_len2, self._sector_seg[cols % n].T)
            start += len(block)
        return out

    def _all_dist2(self, refl):
        """The values of the rows refl on a loop of the general class, by
        the all-pairs scan, _BLOCK_ROWS rows at a time."""
        out = np.empty(len(refl))
        for start in range(0, len(refl), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            out[block] = max_min_dist_all(refl[block], self.seg_a, self.seg_d, self.seg_len2)
        return out

    def _values(self, center, refl, rows, bounds):
        """The values of rows, from the bound pass bounds over refl, which
        only a loop that certifies reads."""
        if self._cert_angles is None:
            return self._all_dist2(refl[rows])
        return self._sector_dist2(center, refl, bounds, rows)

    def _slack(self, center):
        """Rounding slack of the certificate's distances about center:
        rounding moves them by a few ulp of the coordinates and the
        distances involved, which this exceeds a thousandfold."""
        return _SLACK * (self._slack_scale + abs(center[0]) + abs(center[1]))

    def reflect_dist2(self, center, rows=None):
        """Every scored row's value, all refined: the reference for max_dist2.

        With rows given, those vertices are scored, each to the bits any
        evaluation gives it.  Without, the rows an evaluation about center
        scores (_scored).
        """
        center = np.asarray(center, dtype=float)
        refl = 2.0 * center - (self._scored(center) if rows is None else self.pts[rows])
        return self._values(center, refl, np.arange(len(refl)), self._bound_dist2(refl))

    def max_dist2(self, center):
        """The largest row value about center: the square of the score's
        numerator.

        One bound pass over the scored rows; the _WORST_POINTS rows of
        largest bound are refined first, then every other row whose bound
        exceeds their maximum, so the value is the largest over every
        scored row.  On a loop that certifies, rows whose sector lies in
        their window keep their bound as their value (_sector_dist2),
        refined at no cost.  A value that overflows is inf.
        """
        center = np.asarray(center, dtype=float)
        refl = 2.0 * center - self._scored(center)
        bounds = self._bound_dist2(refl)
        seed = _worst_rows(bounds[0])
        top = self._values(center, refl, seed, bounds).max()
        more = bounds[0] > top
        more[seed] = False
        rest = np.flatnonzero(more)
        if len(rest):
            top = max(top, self._values(center, refl, rest, bounds).max())
        return top


def _mirror_half(pts):
    """h when the loop has the traced y-mirror layout, else None.

    The layout is 2h - 2 points: turning points 0 and h - 1 on the axis
    y = 0 and each lower vertex h + j the exact mirror (-y, z) of upper
    vertex h - 2 - j, so the closed polyline is its own mirror image.
    """
    n = len(pts)
    if n % 2:
        return None
    h = n // 2 + 1
    upper = pts[h - 2 : 0 : -1]
    lower = pts[h:]
    if (pts[0, 0] == 0.0 and pts[h - 1, 0] == 0.0
            and np.array_equal(lower[:, 0], -upper[:, 0])
            and np.array_equal(lower[:, 1], upper[:, 1])):
        return h
    return None


def _root(d2):
    return float(np.sqrt(d2))


def _box(pts):
    """(lo, hi, s): the corners of the loop's bounding box and its larger
    side s = max(w, h), which divides every score."""
    # column by column: numpy reduces across 2 columns far more slowly
    lo = np.array([pts[:, 0].min(), pts[:, 1].min()])
    hi = np.array([pts[:, 0].max(), pts[:, 1].max()])
    return lo, hi, float((hi - lo).max())


def _scaled(pts):
    """(p, e): the points times 2^-e, e the binary exponent of the larger
    side s of their box, so that p's box has its larger side in [1/2, 1)
    (module docstring)."""
    with np.errstate(over="ignore"):
        e = math.frexp(_box(pts)[2])[1]
        return np.ldexp(pts, -e), e


def asymmetry_at(loop, center):
    """Asymmetry of the loop about the given chart center.

    Maximum over reflected vertices of the distance to the original
    polyline, divided by the larger side of the loop's bounding box (the
    module docstring relates it to the diameter).  A center that is not
    finite, or whose reflections or their distances overflow, raises
    InvalidDomain.
    """
    pts, e = _scaled(_as_points(loop))
    geom = _LoopGeometry(pts)
    center = np.asarray(center, dtype=float)
    if center.shape != (2,) or not np.isfinite(center).all():
        raise InvalidDomain(f"center must be two finite numbers, got {center.tolist()!r}")
    return _asymmetry(geom, center, e)


def _asymmetry(geom, center, e):
    """The score of geom, the loop scaled by 2^-e, about center, which is
    scaled alike."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.ldexp(center, -e)
        if not np.isfinite(2.0 * scaled - geom.pts).all():
            raise InvalidDomain(f"reflections about {center.tolist()!r} overflow")
        dist = _root(geom.max_dist2(scaled))
    if not math.isfinite(dist):
        raise InvalidDomain(f"distances of the reflections about {center.tolist()!r} overflow")
    return dist / geom.side


def centrality(loop, tol, free_center=False, bound=False):
    """Score the loop at its forced center and decide centrality at tol.

    A point reflection swaps the extreme points of a centrally symmetric
    loop, so its center can only be the midpoint b of its extent (its
    bounding box); for a traced loop b = (0, (z_lo + z_hi) / 2).  Traced
    loops are mirror symmetric in y, so b's y-coordinate is pinned to 0;
    pass free_center=True for externally supplied loops to take the box's.
    The loop is scored once, at b, as asymmetry_at scores it there, bit
    for bit and with its errors, and it is central when that score is
    within tol.  No other center can score below half of b's score pinned,
    or below b's score over 1 + sqrt 2 free (see the module docstring).
    About a center on the axis a traced loop is scored on its turning
    points and upper branch only, which its mirror symmetry makes equal to
    the full score in exact arithmetic.

    With bound=True and the center pinned, a y-mirror loop first takes a
    certified upper bound on the midpoint's score (_midpoint_bound), which
    builds no loop geometry.  When that bound is within tol, the midpoint
    is returned with the bound as its asymmetry: at most tol and at least
    the midpoint's score, so the report is central as the exact one is,
    with the same center.  Otherwise, and on any other loop, the exact
    score is taken as without bound.
    """
    _check_tol(tol)
    pts = _as_points(loop)
    if bound and not free_center:
        passed = _midpoint_bound(pts, tol)
        if passed is not None:
            return passed
    pts, e = _scaled(pts)
    geom = _LoopGeometry(pts)
    center = np.ldexp(geom.box_center, e)
    if not free_center:
        center[0] = 0.0
    return _report(center, _asymmetry(geom, center, e), tol)


def _check_tol(tol):
    if not (0.0 < tol < math.inf):
        raise InvalidDomain(f"tolerance must be positive and finite, got {tol!r}")


def _midpoint_bound(pts, tol):
    """The central report of a y-mirror loop at its midpoint, with a
    certified upper bound on the midpoint's score as its asymmetry, when
    that bound is within tol; else None, and on any other loop.

    The loop is scaled as the exact test scales it (_scaled), and the
    midpoint (0, (min z + max z) / 2) is the exact test's, bit for bit, and
    so are the scored rows 0 .. h-1 and their reflections.  Each row i is
    scored against only the two segments at vertex (h + i - 1) mod n,
    which sits at the row's Chebyshev level on the other branch, where a
    central loop's reflection lands.  Each point-segment pair has the bits
    it has in the exact test, so the row's value, a minimum over fewer
    segments, is at least the row's exact value, its distance to the whole
    polyline.  The maximum is divided by the exact test's s (_box), bit
    for bit.  None, too, wherever the exact test raises: the segments read
    are the lower branch's and the two upper ones at its ends, and the
    lower branch mirrors the upper one bit for bit, so their squared
    lengths are those of every edge, which the exact test rejects when one
    is not finite or all are 0; every later error is a center, reflection
    or distance that is not finite, which makes the bound nan or inf.
    """
    h = _mirror_half(pts)
    if h is None:
        return None
    pts, e = _scaled(pts)
    with np.errstate(all="ignore"):
        # the h + 1 segments the rows read: h - 2 .. n - 1, then 0
        ends = np.concatenate((pts[h - 2 :], pts[:2]))
        seg_d = ends[1:] - ends[:-1]
        len2 = seg_d[:, 0] ** 2 + seg_d[:, 1] ** 2
        if not (np.isfinite(len2).all() and len2.max() > 0.0):
            return None
        lo, hi, side = _box(pts)
        center = np.array([0.0, 0.5 * (lo[1] + hi[1])])
        d2 = max_min_dist_candidates(2.0 * center - pts[:h], ends[:-1], seg_d,
                                     np.where(len2 > 0.0, len2, 1.0), _bound_candidates(h))
        asym = _root(d2.max()) / side
    return _report(np.ldexp(center, e), asym, tol) if asym <= tol else None


@lru_cache(maxsize=1)
def _bound_candidates(h):
    """(h, 2) read-only, the transpose of a C-contiguous array: row i holds
    segments h + i - 2 and h + i - 1, at vertex h + i - 1, as positions
    i and i + 1 among the segments _midpoint_bound reads."""
    cand = (np.arange(h) + np.arange(2)[:, None]).T
    cand.setflags(write=False)
    return cand


def _report(center, asym, tol):
    return CentralityReport(
        center=(float(center[0]), float(center[1])),
        asymmetry=asym,
        tolerance=float(tol),
        central=bool(asym <= tol),
    )


def _worst_rows(d2):
    k = min(_WORST_POINTS, len(d2))
    return np.argpartition(d2, -k)[-k:]


def symmetric_quotient(f, zeta, t):
    """(f(zeta + t) - f(zeta - t)) / (2 t); equals f'(zeta) for quadratics."""
    if t == 0.0:
        raise InvalidDomain("symmetric quotient needs t != 0")
    return (f(zeta + t) - f(zeta - t)) / (2.0 * t)


def midpoint_residual(f, f_prime, zeta, t):
    """f'(zeta) minus the symmetric quotient; identically 0 iff f is quadratic."""
    return f_prime(zeta) - symmetric_quotient(f, zeta, t)


def max_midpoint_residual(f, f_prime, zetas, ts):
    """Largest |midpoint residual| over the (zeta, t) grid; nan as soon as
    any residual is nan, since a nan never compares larger."""
    worst = 0.0
    for zeta in zetas:
        for t in ts:
            r = abs(midpoint_residual(f, f_prime, zeta, t))
            if math.isnan(r):
                return math.nan
            worst = max(worst, r)
    return worst
