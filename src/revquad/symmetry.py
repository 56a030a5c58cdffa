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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

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

# Vertices of the descent's best center that every trial is scored on
# before its full evaluation (see _centroid_descent).
_WORST_POINTS = 64


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
    of segment indices; returns an N-vector.  work, if given, is a
    (7, >= N, K) scratch array used in place of fresh temporaries.
    """
    apx, apy, dx, dy, len2, t, tmp = _scratch(work, 7, cand.shape)
    # mode="wrap" reads index -1 as fancy indexing does, without buffering
    np.take(seg_a[:, 0], cand, out=apx, mode="wrap")
    np.subtract(refl[:, 0:1], apx, out=apx)
    np.take(seg_a[:, 1], cand, out=apy, mode="wrap")
    np.subtract(refl[:, 1:2], apy, out=apy)
    np.take(seg_d[:, 0], cand, out=dx, mode="wrap")
    np.take(seg_d[:, 1], cand, out=dy, mode="wrap")
    np.take(seg_len2, cand, out=len2, mode="wrap")
    return _segment_dist2(apx, apy, dx, dy, len2, t, tmp).min(axis=1)


def max_min_dist_all(refl, seg_a, seg_d, seg_len2, work=None):
    """Per-point squared distance to the nearest segment of the whole polyline.

    Scans all point-segment pairs at once, so the caller bounds
    len(refl) * len(seg_a); returns an N-vector.  work, if given, is a
    (4, >= N, len(seg_a)) scratch array used in place of fresh temporaries.
    """
    apx, apy, t, tmp = _scratch(work, 4, (len(refl), len(seg_a)))
    np.subtract(refl[:, 0:1], seg_a[:, 0], out=apx)
    np.subtract(refl[:, 1:2], seg_a[:, 1], out=apy)
    return _segment_dist2(apx, apy, seg_d[:, 0], seg_d[:, 1], seg_len2, t, tmp).min(axis=1)


def _scratch(work, count, shape):
    """count float arrays of the given 2-D shape: the leading rows of work,
    or fresh ones when work is None."""
    if work is None:
        return np.empty((count, *shape))
    return work[:count, : shape[0]]


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

    The scratch arrays of the distance kernels are allocated once here and
    reused by every evaluation, so the many evaluations of a centre search
    do not allocate and release megabytes each.
    """

    def __init__(self, points):
        pts = _as_points(points)
        self.pts = pts
        self.seg_a = np.ascontiguousarray(pts)
        self.seg_d = np.roll(pts, -1, axis=0) - pts
        len2 = (self.seg_d ** 2).sum(axis=1)
        if len2.sum() == 0.0:
            raise DegenerateLoop("loop has zero total length")
        self.seg_len2 = np.where(len2 > 0.0, len2, 1.0)
        self.diameter = _chart_diameter(pts)
        if self.diameter == 0.0:
            raise DegenerateLoop("loop has zero diameter")
        n = len(pts)
        self._brute = n * n <= _BRUTE_PAIR_LIMIT
        if self._brute:
            self._work = np.empty((4, n, n))
        else:
            self._tree = cKDTree(pts)
            self._k = min(_KNN, n)
            self._cand = np.empty((n, 2 * self._k), dtype=np.intp)
            self._work = np.empty((7, n, 2 * self._k))

    def reflect_dist2(self, center, rows=None):
        """Squared distance from each reflected vertex to the polyline.

        With rows given, only those vertices are reflected and scored; each
        value is bit-identical to the one a full evaluation gives that row.
        """
        pts = self.pts if rows is None else self.pts[rows]
        refl = 2.0 * np.asarray(center, dtype=float) - pts
        if self._brute:
            return max_min_dist_all(refl, self.seg_a, self.seg_d, self.seg_len2,
                                    work=self._work)
        _, idx = self._tree.query(refl, k=self._k)
        # idx - 1 is -1 for vertex 0, which indexes the closing segment
        cand = self._cand[: len(refl)]
        cand[:, : self._k] = idx
        np.subtract(idx, 1, out=cand[:, self._k :])
        return max_min_dist_candidates(refl, self.seg_a, self.seg_d, self.seg_len2, cand,
                                       work=self._work)

    def max_reflect_distance(self, center):
        return _root_max(self.reflect_dist2(center))


def _root_max(d2):
    return float(np.sqrt(d2.max()))


def _chart_diameter(pts):
    """Max pairwise distance, exact: the square root of the largest
    dx*dx + dy*dy over the antipodal vertex pairs of the loop's convex hull.

    A loop that is a strictly convex polygon winding once, as every traced
    loop is, is its own hull; any other loop takes its hull from Qhull.
    Points that Qhull finds flat (collinear or repeated) lie on one line,
    whose diameter is the distance between its two ends.
    """
    hull, phi = _convex_ccw(pts)
    if hull is None:
        try:
            hull = pts[ConvexHull(pts).vertices]
        except QhullError:
            return _line_diameter(pts)
        _, phi = _edges_and_angles(hull)
        # a convex hull's edge angles rise; this irons out their rounding
        phi = np.maximum.accumulate(phi)
    return float(np.sqrt(_caliper_max_dist2(hull, phi)))


def _convex_ccw(pts):
    """(loop, edge angles), the loop counterclockwise, if it is a strictly
    convex polygon that winds once; otherwise (None, None)."""
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
    polyline, divided by the loop's chart diameter.
    """
    geom = _LoopGeometry(loop)
    return geom.max_reflect_distance(center) / geom.diameter


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
    both coordinates.
    """
    if not (tol > 0.0):
        raise InvalidDomain(f"tolerance must be positive, got {tol!r}")
    geom = _LoopGeometry(loop)
    center = 0.5 * (geom.pts.min(axis=0) + geom.pts.max(axis=0))
    if not free_center:
        center[0] = 0.0
    asym = geom.max_reflect_distance(center) / geom.diameter
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

    A trial center is first scored on the worst-scoring vertices of the
    current best center.  Those values are the bits a full evaluation gives
    the same vertices, and the full score is their maximum or more, so a
    trial that already reaches the best score there is rejected without a
    full evaluation, exactly as the full evaluation would reject it.
    """
    cy, cz = centroid(geom.pts)
    center = np.array([cy, cz]) if free_center else np.array([0.0, cz])
    d2 = geom.reflect_dist2(center)
    best, worst = _root_max(d2), _worst_rows(d2)
    dirs = [np.array([0.0, 1.0])]
    if free_center:
        dirs.append(np.array([1.0, 0.0]))
    step = geom.diameter / 8.0
    for _ in range(20):
        for d in dirs:
            for cand in (center + step * d, center - step * d):
                if _root_max(geom.reflect_dist2(cand, worst)) >= best:
                    continue
                d2 = geom.reflect_dist2(cand)
                val = _root_max(d2)
                if val < best:
                    best, center, worst = val, cand, _worst_rows(d2)
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
    """Largest |midpoint residual| over the (zeta, t) grid."""
    worst = 0.0
    for zeta in zetas:
        for t in ts:
            worst = max(worst, abs(midpoint_residual(f, f_prime, zeta, t)))
    return worst
