"""Central-symmetry scoring for closed loops and the midpoint mean-value test.

A loop is centrally symmetric about c when the point reflection p -> 2c - p
maps it onto itself.  The asymmetry score reflects every vertex through a
candidate center, measures each reflected vertex's distance to the original
polyline (point-to-segment, closing segment included), takes the maximum,
and normalizes by the loop's chart diameter.  The score is zero for exact
symmetry in any affine chart, so chart coordinates are good enough to decide
centrality even though they distort lengths.

The chart diameter is exact: the largest squared distance, dx*dx + dy*dy
elementwise, over the antipodal vertex pairs of the loop's convex hull,
which rotating calipers enumerate (Shamos 1978; Toussaint 1983).  A traced
loop is a strictly convex polygon, so it serves as its own hull; other
loops take theirs from Qhull.  No score goes through a matrix product, so
none depends on the BLAS build or its thread count.

The distance kernels work on separate x and y columns:

    t = clip((apx * dx + apy * dy) / len2, 0, 1)
    d2 = gx * gx + gy * gy,    g = ap - t * d

with ap the offset from the segment start a to the point and d the segment
vector.  Each point's value depends on that point alone, so a kernel run on
a subset of rows returns the very bits a run on all rows gives for them.
The kernels return these per-point minima; the caller takes the maximum and
its square root, which is the max-min distance the names refer to.

A row is one scored vertex.  Its value is the squared distance from its
reflection to the nearest segment of the union of two candidate sets: the
near set (every segment of a small loop; for a large one, both segments at
each of the 8 vertices nearest the reflected point, from a k-d tree) and
the angular window (both segments at each of the 4 vertices whose polar
angles about the bounding-box center bracket the reflected point's).  The
window alone bounds the value from above and needs no tree query.  An
evaluation bounds every row, refines a seed batch of rows with the union
(the descent's worst rows at its best center, else the 64 rows of largest
bound), and then refines only the rows whose bound exceeds the seed's
maximum L: a row bounded by L cannot raise the maximum (the pruning of
exact Hausdorff distances, Taha & Hanbury 2015).  A row that the window
certificate below proves exact takes its bound as its value and is never
refined.  The score is thus the largest row value over all scored rows,
whichever rows were refined, and never exceeds the score of the near set
alone.

The window bounds a row from above on every loop, and from below on a
strictly convex loop that winds once, as a traced loop is.  Such a loop
lies in the inner half-plane of each of its edges, so a reflected point is
at least its outward distance to the edge's supporting line away from
every segment, and so from the nearest of its candidates.  The largest of
these distances over the window's edges, less a rounding slack a thousand
times the rounding of either side, is a certified lower bound on the
root of the row's value.  A lower bound never supplies a score: it only
rejects.  The center search drops a trial whose worst rows' bounds (from
windows kept at the best center and moved with the trial) already exceed
the best score, or, when the exact worst rows do not settle it, whose
rows still to be refined do; the midpoint test stops once a bound or a
partial maximum proves the asymmetry above the tolerance.  A rejected
trial's exact score would have been rejected too, so every reported
center, score and witness keeps its bits.  Other loops are never bounded
from below.

The window certificate proves a row's value equal to its window minimum W.
A loop can take it when it is strictly convex, its box center lies inside
every edge's line by more than the rounding slack, and its vertices'
sorted angles run in loop order, either way round, as a traced loop's do.
Each segment then sweeps the angles between its two ends, and the ends sit
at consecutive sorted positions.  Any segment whose computed distance
could undercut W comes within r = sqrt(W) plus the slack of the reflected
point, so it meets the disc of radius r about it, r in box-normalised
units (divided by the smaller box half-width).  When the disc leaves out
the box center, at distance rho, every such segment meets the sector
theta +- asin(r / rho); when that sector, widened by an angular slack,
lies strictly between the sorted angles at positions j - 3 and j + 2, each
such segment is one of the five between them, all in the window.  W is
then the minimum over every segment: the bits of the all-pairs scan and of
the k-d union alike.  Every row of a quadric's central loops certifies, so
those runs refine nothing and build no k-d tree; scipy.spatial, home of
the tree and of Qhull, is imported only when one of them is first needed.

The candidate kernel works on (K, N) arrays, one row per candidate, so its
closing minimum runs across contiguous rows; numpy reduces a short inner
axis many times more slowly.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

# Below this many point-segment pairs the exact all-pairs scan is cheap
# enough; above it, candidate segments come from a nearest-vertex query.
_BRUTE_PAIR_LIMIT = 250_000

# Neighbours consulted per reflected point on the fast path.  Both incident
# segments of each neighbour vertex are checked.
_KNN = 8

# Segments in the angular window that bounds each row: both segments at
# each of the 4 vertices whose angles bracket the reflected point's.
_BOUND_SEGS = 8
_WINDOW_OFFSETS = np.arange(_BOUND_SEGS // 2)[:, None]

# Rows refined first in an evaluation: the descent's worst rows of its best
# center, or the rows of largest bound (see _LoopGeometry.max_dist2).
_WORST_POINTS = 64

# Rounding slack of a row's lower bound, relative to the scale of the
# loop and the center (_LoopGeometry._slack).
_SLACK = 1e-12

# A rejection needs a lower bound this far above the score to beat.
_REJECT_MARGIN = 1.0 + 1e-9

# Angular slack of the window certificate (_LoopGeometry._exact_rows), in
# radians: a thousandfold the rounding of the angles it compares.
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
    """Arclength-weighted centroid of the closed polyline, in chart coordinates."""
    pts = _as_points(loop)
    nxt = np.roll(pts, -1, axis=0)
    seg = nxt - pts
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    total = lengths.sum()
    if total == 0.0:
        raise DegenerateLoop("loop has zero total length")
    mids = 0.5 * (pts + nxt)
    c = (mids * lengths[:, None]).sum(axis=0) / total
    return float(c[0]), float(c[1])


def max_min_dist_candidates(refl, seg_a, seg_d, seg_len2, cand, work=None):
    """Per-point squared distance to the nearest of its candidate segments.

    refl is (N, 2), the segment arrays are indexed by cand, an (N, K) array
    of segment indices; returns an N-vector.  The work runs on (K, N)
    arrays, so the closing minimum runs across contiguous rows; cand is
    read fastest as the transpose of a C-contiguous (K, N) array.  work,
    if given, is a flat scratch array of at least 7 N K floats used in
    place of temporaries.
    """
    cols = cand.T
    apx, apy, dx, dy, len2, t, tmp = _scratch(work, 7, cols.shape)
    # mode="wrap" reads index -1 as fancy indexing does, without buffering
    np.take(seg_a[:, 0], cols, out=apx, mode="wrap")
    np.subtract(refl[:, 0], apx, out=apx)
    np.take(seg_a[:, 1], cols, out=apy, mode="wrap")
    np.subtract(refl[:, 1], apy, out=apy)
    np.take(seg_d[:, 0], cols, out=dx, mode="wrap")
    np.take(seg_d[:, 1], cols, out=dy, mode="wrap")
    np.take(seg_len2, cols, out=len2, mode="wrap")
    return _segment_dist2(apx, apy, dx, dy, len2, t, tmp).min(axis=0)


def max_min_dist_all(refl, seg_a, seg_d, seg_len2, work=None):
    """Per-point squared distance to the nearest segment of the whole polyline.

    Scans all point-segment pairs at once, so the caller bounds
    len(refl) * len(seg_a); returns an N-vector.  work, if given, is a flat
    scratch array of at least 4 N len(seg_a) floats used in place of
    temporaries.
    """
    apx, apy, t, tmp = _scratch(work, 4, (len(refl), len(seg_a)))
    np.subtract(refl[:, 0:1], seg_a[:, 0], out=apx)
    np.subtract(refl[:, 1:2], seg_a[:, 1], out=apy)
    return _segment_dist2(apx, apy, seg_d[:, 0], seg_d[:, 1], seg_len2, t, tmp).min(axis=1)


def _scratch(work, count, shape):
    """count float arrays of the given 2-D shape: views of the leading
    entries of the flat array work, or fresh ones when work is None."""
    if work is None:
        return np.empty((count, *shape))
    return work[: count * shape[0] * shape[1]].reshape(count, *shape)


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
    """Per-loop precomputation shared by repeated asymmetry evaluations.

    Each evaluation bounds every scored row and refines only the rows that
    can hold the maximum and are not certified exact (max_dist2; the row
    value, the pruning rule and the certificate are in the module
    docstring).  For the bound, the vertices' polar angles about the
    bounding-box center, in box-normalised coordinates, are sorted here
    once, and whether the loop can take the certificate is decided here
    once (_can_certify).  The k-d tree of a large loop is built by its
    first refinement.  Every row's value is a function of the loop, the
    center and the row alone, so the score does not depend on which rows
    were refined, and reflect_dist2, which refines every row, is its
    reference.

    The scratch arrays of the distance kernels are allocated here once and
    reused by every evaluation, so the many evaluations of a centre search
    do not allocate and release megabytes each; they hold the bound of
    every row, and refinement runs in blocks that fit them.  The y-mirror
    layout of a traced loop is detected here once, exactly, from the points
    alone (_mirror_half); evaluations about a center on the axis then score
    only rows 0 .. h-1 (see the module docstring).  Other loops (an m = 0
    circle, a rotated or perturbed copy of a traced loop) and centers off
    the axis are scored on every row.
    """

    def __init__(self, points):
        pts = _as_points(points)
        self.pts = pts
        self.seg_a = np.ascontiguousarray(pts)
        self.seg_d = np.roll(pts, -1, axis=0) - pts
        len2 = self.seg_d[:, 0] ** 2 + self.seg_d[:, 1] ** 2
        if len2.sum() == 0.0:
            raise DegenerateLoop("loop has zero total length")
        self.seg_len2 = np.where(len2 > 0.0, len2, 1.0)
        convex = _convex_ccw(pts)
        self.diameter = _chart_diameter(pts, convex)
        if self.diameter == 0.0:
            raise DegenerateLoop("loop has zero diameter")
        # outward unit normals (dy, -dx) / |d| of the edges, negated on a
        # clockwise loop; only a strictly convex loop has them (_row_lower)
        self._normals = None
        if convex[0] is not None:
            scale = (1.0 if convex[0] is pts else -1.0) / np.sqrt(self.seg_len2)
            self._normals = (self.seg_d[:, 1] * scale, -self.seg_d[:, 0] * scale)
        self._half = _mirror_half(pts)
        n = len(pts)
        # column by column: numpy reduces across 2 columns far more slowly
        lo = np.array([pts[:, 0].min(), pts[:, 1].min()])
        hi = np.array([pts[:, 0].max(), pts[:, 1].max()])
        self.box_center = 0.5 * (lo + hi)
        self._box_scale = np.where(hi > lo, 0.5 * (hi - lo), 1.0)
        self._slack_scale = self.diameter + abs(self.box_center[0]) + abs(self.box_center[1])
        angles = self._angles(pts)
        order = np.argsort(angles, kind="stable")
        self._sorted_angles = angles[order]
        # _ring[j + 2] is the vertex at sorted position j, wrapping
        self._ring = np.concatenate([order[-2:], order, order[:2]])
        # the windows of the last bound pass, kept for the lower bounds, and
        # its angles and sorted positions, kept for the certificate
        self._win = np.empty(n * _BOUND_SEGS, dtype=np.intp)
        self._theta = self._pos = None
        # _cert_angles[j + 3] is the angle at sorted position j, unwrapped
        # by 2 pi past either end; only a loop that can certify has them
        self._cert_angles = None
        if self._can_certify(order):
            two_pi = 2.0 * np.pi
            s = self._sorted_angles
            self._cert_angles = np.concatenate([s[-3:] - two_pi, s, s[:3] + two_pi])
            # box-normalised distances, widened past the rounding of r / rho
            self._cert_scale = (1.0 + _SLACK) / self._box_scale.min()
        self._brute = n * n <= _BRUTE_PAIR_LIMIT
        if self._brute:
            self._work = np.empty(max(7 * n * _BOUND_SEGS, 4 * n * n))
        else:
            # refinement runs in blocks that fit these
            self._cand = np.empty(n * 2 * _KNN, dtype=np.intp)
            self._work = np.empty(7 * len(self._cand))

    @cached_property
    def _tree(self):
        """The k-d tree of the vertices, built by the first refinement of a
        large loop that the window certificate leaves open."""
        from scipy.spatial import cKDTree  # a slow import, needed here only

        return cKDTree(self.pts)

    def _can_certify(self, order):
        """Whether the window certificate holds on this loop: it is strictly
        convex, its box center lies inside every edge's line by more than
        the rounding slack, and its sorted angle order is a rotation of the
        loop order, either way round."""
        if self._normals is None:
            return False
        c = self.box_center
        edges = np.arange(len(self.pts))[:, None]
        if not self._outward(c[None, :], edges)[0].max() < -self._slack(c):
            return False
        step = np.diff(order) % len(order)
        return bool((step == 1).all() or (step == len(order) - 1).all())

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

    def _columns(self, k, m):
        """A (k, m) index array, a view of the refinement buffer."""
        return self._cand[: k * m].reshape(k, m)

    def _window_cols(self, m):
        """The (8, m) window columns of the last bound pass over m rows."""
        return self._win[: _BOUND_SEGS * m].reshape(_BOUND_SEGS, m)

    def _window(self, refl, cols):
        """Write each reflected point's angular window into the (8, m) cols:
        for an angle that sorts into position j, the vertices at sorted
        positions j - 2 .. j + 1 and the segments that end at them.
        Returns the angles and their sorted positions j."""
        theta = self._angles(refl)
        pos = np.searchsorted(self._sorted_angles, theta)
        half = _BOUND_SEGS // 2
        np.add(pos, _WINDOW_OFFSETS, out=cols[half:])
        np.take(self._ring, cols[half:], out=cols[:half])
        # vertex v starts segment v; segment v - 1 (-1: the closing one) ends at v
        np.subtract(cols[:half], 1, out=cols[half:])
        return theta, pos

    def _window_of(self, refl):
        """The reflected points' windows, in a new (8, m) array."""
        cols = np.empty((_BOUND_SEGS, len(refl)), dtype=np.intp)
        self._window(refl, cols)
        return cols

    def _bound_dist2(self, refl):
        """Per-row upper bound: the squared distance from each reflected
        point to the nearest segment of its angular window."""
        cols = self._window_cols(len(refl))
        self._theta, self._pos = self._window(refl, cols)
        return max_min_dist_candidates(refl, self.seg_a, self.seg_d, self.seg_len2, cols.T,
                                       work=self._work)

    def _exact_rows(self, center, refl, bound, rows):
        """Which of rows, of the bound pass just made over refl with the
        given bounds, have their bound as their value, as a mask over rows;
        None on a loop that cannot certify.

        A row is certified when the disc of radius r = sqrt(bound) + _slack
        about its box-normalised reflected point leaves out the box center,
        at distance rho, and its sector theta +- asin(r / rho), widened by
        _ANGLE_SLACK, lies strictly between the sorted angles at positions
        j - 3 and j + 2: every segment nearer than the bound then lies in
        the window (see the module docstring).  A nan bound certifies
        nothing.
        """
        if self._cert_angles is None:
            return None
        q = (refl[rows] - self.box_center) / self._box_scale
        with np.errstate(divide="ignore", over="ignore"):
            ratio = (np.sqrt(bound[rows]) + self._slack(center)) * self._cert_scale
            ratio /= np.hypot(q[:, 0], q[:, 1])
        half = np.arcsin(np.minimum(ratio, 1.0))
        half += _ANGLE_SLACK
        theta, pos = self._theta[rows], self._pos[rows]
        return ((ratio < 1.0) & (self._cert_angles[pos] < theta - half)
                & (theta + half < self._cert_angles[pos + 5]))

    def _values(self, center, refl, rows, bound):
        """The values of rows: with the bounds of the bound pass just made
        over refl, a certified row's bound, the others refined."""
        exact = None if bound is None else self._exact_rows(center, refl, bound, rows)
        if exact is None:
            return self._row_dist2(refl[rows])
        vals = bound[rows]
        todo = ~exact
        if todo.any():
            vals[todo] = self._row_dist2(refl[rows[todo]])
        return vals

    def _outward(self, refl, cols):
        """(s, nx, ny), (8, m) arrays: the outward distance s from each
        reflected point to the supporting line of each of its window
        segments cols, and the line's outward unit normal."""
        nx = np.take(self._normals[0], cols, mode="wrap")
        ny = np.take(self._normals[1], cols, mode="wrap")
        dist = (refl[:, 0] - np.take(self.seg_a[:, 0], cols, mode="wrap")) * nx
        dist += (refl[:, 1] - np.take(self.seg_a[:, 1], cols, mode="wrap")) * ny
        return dist, nx, ny

    def _slack(self, center):
        """Rounding slack of a lower bound about center: rounding moves the
        bounds and the row values by a few ulp of the coordinates and the
        distances involved, which this exceeds a thousandfold."""
        return _SLACK * (self._slack_scale + abs(center[0]) + abs(center[1]))

    def _row_lower(self, center, refl, cols):
        """Each row's certified lower bound on the root of its value, on a
        strictly convex loop (None on any other): the largest outward
        distance from the reflected point to the supporting lines of the
        (8, m) window segments cols, less _slack.

        The loop lies in the inner half-plane of each of its edges, so a
        point is at least that far from every segment, and a row's value
        is the squared distance to the nearest of some of the segments.
        """
        if self._normals is None:
            return None
        return self._outward(refl, cols)[0].max(axis=0) - self._slack(center)

    def _rejects(self, center, refl, bound, rows, cutoff):
        """Whether the lower bounds of rows, in the windows of the bound
        pass just made over refl, prove the score's root above cutoff.
        Only rows whose upper bound exceeds cutoff squared can, so only
        they are bounded; a nan bound proves nothing."""
        if self._normals is None or not cutoff < math.inf:
            return False
        rows = rows[bound[rows] > cutoff * cutoff]
        if not len(rows):
            return False
        cols = self._window_cols(len(refl))[:, rows]
        return bool(self._row_lower(center, refl[rows], cols).max() > cutoff)

    def floor(self, center, rows):
        """A certified lower bound on the root of the score about centers
        near center, from the given scored rows alone, as a function of
        the center; None on a loop that is not strictly convex.

        The rows' windows about center are kept.  Moving the center by
        delta moves each reflected point by 2 delta, and so its outward
        distance to a line by 2 delta . n, n the line's outward unit
        normal: one pass over the kept arrays.  Any edge bounds any row
        (_row_lower), so the windows need not be the moved points' own.  A
        center that scores fewer rows (on the axis, after one off it) gets
        no bound.
        """
        if self._normals is None:
            return None
        scored = len(self._scored(center))
        refl = 2.0 * center - self.pts[rows]
        dist, nx, ny = self._outward(refl, self._window_of(refl))

        def bound(cand):
            if len(self._scored(cand)) < scored:
                return -math.inf
            moved = dist + (2.0 * (cand[1] - center[1])) * ny
            if cand[0] != center[0]:
                moved += (2.0 * (cand[0] - center[0])) * nx
            return float(moved.max()) - self._slack(cand)

        return bound

    def _row_dist2(self, refl):
        """Each row's value: the squared distance from each reflected point
        to the nearest segment of its near set and its window."""
        if self._brute:
            # the near set is every segment, the window's among them
            return max_min_dist_all(refl, self.seg_a, self.seg_d, self.seg_len2,
                                    work=self._work)
        k = _KNN
        rows = len(self._cand) // (2 * k + _BOUND_SEGS)
        if len(refl) > rows:
            return np.concatenate([self._row_dist2(refl[:rows]), self._row_dist2(refl[rows:])])
        _, idx = self._tree.query(refl, k=k)
        cols = self._columns(2 * k + _BOUND_SEGS, len(refl))
        cols[:k] = idx.T
        # idx - 1 is -1 for vertex 0, which indexes the closing segment
        np.subtract(idx.T, 1, out=cols[k : 2 * k])
        self._window(refl, cols[2 * k :])
        return max_min_dist_candidates(refl, self.seg_a, self.seg_d, self.seg_len2, cols.T,
                                       work=self._work)

    def reflect_dist2(self, center, rows=None):
        """Every scored row's value, all refined: the reference for max_dist2.

        With rows given, those vertices are scored, each to the bits any
        evaluation gives it.  Without, the rows an evaluation about center
        scores (_scored).
        """
        center = np.asarray(center, dtype=float)
        pts = self._scored(center) if rows is None else self.pts[rows]
        return self._row_dist2(2.0 * center - pts)

    def max_dist2(self, center, seed=None, stop=math.inf, cutoff=math.inf):
        """(largest row value, refined rows, their values) about center.

        The seed rows (default: the _WORST_POINTS rows of largest bound)
        are refined first; if the root of their maximum reaches stop, that
        partial result is returned at once, and the full maximum is at
        least as large.  Otherwise every other row whose bound exceeds the
        seed's maximum is refined too, and the first value returned is the
        largest over every scored row.  Rows of the bound pass that the
        window certificate proves exact (_exact_rows) keep their bound as
        their value: they count as refined, at no cost.  The default seed
        has them from its own bound pass; a given seed is refined in full.

        With a finite cutoff, None is returned instead as soon as the lower
        bounds of a convex loop prove the score's root above cutoff: those
        of the default seed before it is refined, and those of the other
        rows to be refined before they are (_rejects).
        """
        center = np.asarray(center, dtype=float)
        refl = 2.0 * center - self._scored(center)
        bound = None
        if seed is not None:
            seed = seed[seed < len(refl)]
        if seed is None or not len(seed):
            bound = self._bound_dist2(refl)
            seed = _worst_rows(bound)
            if self._rejects(center, refl, bound, seed, cutoff):
                return None
        vals = self._values(center, refl, seed, bound)
        top = vals.max()
        if _root(top) >= stop:
            return top, seed, vals
        if bound is None:
            bound = self._bound_dist2(refl)
        more = bound > top
        more[seed] = False
        rest = np.flatnonzero(more)
        if not len(rest):
            return top, seed, vals
        if self._rejects(center, refl, bound, rest, cutoff):
            return None
        extra = self._values(center, refl, rest, bound)
        return (max(top, extra.max()), np.concatenate([seed, rest]),
                np.concatenate([vals, extra]))

    def max_reflect_distance(self, center):
        return _root(self.max_dist2(center)[0])


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


def _chart_diameter(pts, convex=None):
    """Max pairwise distance, exact: the square root of the largest
    dx*dx + dy*dy over the antipodal vertex pairs of the loop's convex hull.

    A loop that is a strictly convex polygon winding once, as every traced
    loop is, is its own hull; any other loop takes its hull from Qhull.
    Points that Qhull finds flat (collinear or repeated) lie on one line,
    whose diameter is the distance between its two ends.  convex, if
    given, is _convex_ccw(pts).
    """
    hull, phi = _convex_ccw(pts) if convex is None else convex
    if hull is None:
        from scipy.spatial import ConvexHull, QhullError  # a slow import, needed here only

        try:
            hull = pts[ConvexHull(pts).vertices]
        except QhullError:
            return _line_diameter(pts)
        _, phi = _edges_and_angles(hull)
        # a convex hull's edge angles rise; this irons out their rounding
        phi = np.maximum.accumulate(phi)
    return float(np.sqrt(_caliper_max_dist2(hull, phi)))


def _convex_ccw(pts):
    """(loop, edge angles), the loop counterclockwise (pts itself when it
    already is), if it is a strictly convex polygon that winds once;
    otherwise (None, None)."""
    cross, phi = _edges_and_angles(pts)
    if (cross < 0.0).all():
        pts = pts[::-1]
        cross, phi = _edges_and_angles(pts)
    if not (cross > 0.0).all():
        return None, None
    # Every turn is a left turn below pi, so the anchored angles rise
    # throughout exactly when the total turning is 2 pi.
    if (phi[1:] < phi[:-1]).any():
        return None, None
    return pts, phi


def _edges_and_angles(pts):
    """The turn cross product at each vertex and the angle of each edge
    pts[i] -> pts[i + 1], unwrapped to [phi_0, phi_0 + 2 pi)."""
    e = np.diff(np.concatenate([pts, pts[:2]]), axis=0)  # edges 0 .. h-1, 0
    cross = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
    phi = np.arctan2(e[:-1, 1], e[:-1, 0])
    phi[phi < phi[0]] += 2.0 * np.pi
    return cross, phi


def _caliper_max_dist2(hull, phi):
    """Largest squared distance between antipodal vertices of a convex,
    counterclockwise polygon with rising edge angles phi (rotating
    calipers; Shamos 1978, Toussaint 1983).

    The vertex farthest from edge i is where the edge angles pass
    phi[i] + pi; both ends of the edge are antipodal to it, and every
    antipodal pair arises this way from one of its edges.  The far
    vertex's two neighbours are scored too, which covers parallel edges
    and angles that round across a vertex.
    """
    h = len(hull)
    target = phi + np.pi
    target[target >= phi[0] + 2.0 * np.pi] -= 2.0 * np.pi
    far = np.searchsorted(phi, target)  # in [0, h]
    # wrap-padded columns: x[k + 1] is vertex k mod h, for k in [-1, h + 1]
    x = np.concatenate([hull[-1:, 0], hull[:, 0], hull[:2, 0]])
    y = np.concatenate([hull[-1:, 1], hull[:, 1], hull[:2, 1]])
    best = 0.0
    for end in (1, 2):  # vertex i, then vertex i + 1
        for opp in (0, 1, 2):  # vertex far - 1, far, far + 1
            dx = x[end : end + h] - x[far + opp]
            dy = y[end : end + h] - y[far + opp]
            best = max(best, float((dx * dx + dy * dy).max()))
    return best


def _line_diameter(pts):
    """Diameter of points on one line: the point farthest from any point is
    an end of the line, and the point farthest from that end is the other."""
    end = pts[np.argmax(_dist2_from(pts, pts[0]))]
    return float(np.sqrt(_dist2_from(pts, end).max()))


def _dist2_from(pts, p):
    dx = pts[:, 0] - p[0]
    dy = pts[:, 1] - p[1]
    return dx * dx + dy * dy


def asymmetry_at(loop, center):
    """Asymmetry of the loop about the given chart center.

    Maximum over reflected vertices of the distance to the original
    polyline, divided by the loop's chart diameter.  A center that is not
    finite, or whose reflections or their distances overflow, raises
    InvalidDomain.
    """
    geom = _LoopGeometry(loop)
    center = np.asarray(center, dtype=float)
    if center.shape != (2,) or not np.isfinite(center).all():
        raise InvalidDomain(f"center must be two finite numbers, got {center.tolist()!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(2.0 * center - geom.pts).all():
            raise InvalidDomain(f"reflections about {center.tolist()!r} overflow")
        dist = geom.max_reflect_distance(center)
    if not math.isfinite(dist):
        raise InvalidDomain(f"distances of the reflections about {center.tolist()!r} overflow")
    return dist / geom.diameter


def centrality(loop, tol, free_center=False):
    """Find the best center and decide centrality at the given tolerance.

    The midpoint of the loop's extent (its bounding box) is tried first: a
    point reflection swaps the extreme points of a centrally symmetric loop,
    so its center can only be that midpoint, and for a traced loop it is
    (0, (z_lo + z_hi) / 2).  If the asymmetry there is within tol, that
    center and its score are returned.  Only when the midpoint fails does
    the search run: it seeds at the arclength-weighted centroid and refines
    by coordinate descent with step diameter/8 halved 20 times, and the
    reported asymmetry is the descent's best.  Traced loops are mirror
    symmetric in y, so the center's y-coordinate is pinned to 0 in both
    steps; pass free_center=True for externally supplied loops to search
    both coordinates.  About a center on the axis a traced loop is scored
    on its turning points and upper branch only, which its mirror symmetry
    makes equal to the full score in exact arithmetic (see the module
    docstring); centers off the axis are scored on every vertex.
    """
    if not (0.0 < tol < math.inf):
        raise InvalidDomain(f"tolerance must be positive and finite, got {tol!r}")
    geom = _LoopGeometry(loop)
    center = geom.box_center.copy()
    if not free_center:
        center[0] = 0.0
    # a partial maximum or a lower bound past the cut proves asym > tol
    cut = tol * geom.diameter * _REJECT_MARGIN
    got = geom.max_dist2(center, stop=cut, cutoff=cut)
    asym = math.inf if got is None else _root(got[0]) / geom.diameter
    if not asym <= tol:
        center, asym = _centroid_descent(geom, free_center)
    return CentralityReport(
        center=(float(center[0]), float(center[1])),
        asymmetry=asym,
        tolerance=float(tol),
        central=bool(asym <= tol),
    )


def _centroid_descent(geom, free_center):
    """Coordinate descent from the centroid; returns (center, asymmetry).

    A trial center is refined first on the worst-scoring rows of the
    current best center.  Those values are the bits any evaluation gives
    the same rows, and the score is their maximum or more, so a trial that
    already reaches the best score there is rejected at once, exactly as
    its full score would reject it.  On a convex loop a trial is rejected
    earlier still when the lower bounds of those rows (floor), or else of
    the rows left to refine, prove its score above the best; a bound never
    supplies a score.
    The worst rows of an accepted center are taken from the rows its
    evaluation refined.
    """
    cy, cz = centroid(geom.pts)
    center = np.array([cy, cz]) if free_center else np.array([0.0, cz])
    top, rows, vals = geom.max_dist2(center)
    best, worst = _root(top), rows[_worst_rows(vals)]
    dirs = [np.array([0.0, 1.0])]
    if free_center:
        dirs.append(np.array([1.0, 0.0]))
    step = geom.diameter / 8.0
    floor = geom.floor(center, worst)
    for _ in range(20):
        for d in dirs:
            for cand in (center + step * d, center - step * d):
                cutoff = best * _REJECT_MARGIN
                if floor is not None and floor(cand) > cutoff:
                    continue
                got = geom.max_dist2(cand, worst, stop=best, cutoff=cutoff)
                if got is None:
                    continue
                top, rows, vals = got
                val = _root(top)
                if val < best:
                    best, center, worst = val, cand, rows[_worst_rows(vals)]
                    floor = geom.floor(center, worst)
                    break
        step *= 0.5
    return center, best / geom.diameter


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
