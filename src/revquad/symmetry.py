"""Central-symmetry scoring for closed loops and the midpoint mean-value test.

A loop is centrally symmetric about c when the point reflection p -> 2c - p
maps it onto itself.  The asymmetry score reflects every vertex through a
candidate center, measures each reflected vertex's distance to the original
polyline (point-to-segment, closing segment included), takes the maximum,
and normalizes by the loop's chart diameter.  The score is zero for exact
symmetry in any affine chart, so chart coordinates are good enough to decide
centrality even though they distort lengths.

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
from scipy.spatial import cKDTree

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


def max_min_dist_candidates(refl, seg_a, seg_d, seg_len2, cand):
    """Per-point squared distance to the nearest of its candidate segments.

    refl is (N, 2), the segment arrays are indexed by cand, an (N, K) array
    of segment indices; returns an N-vector.
    """
    apx = refl[:, 0:1] - seg_a[:, 0][cand]
    apy = refl[:, 1:2] - seg_a[:, 1][cand]
    dx = seg_d[:, 0][cand]
    dy = seg_d[:, 1][cand]
    return _segment_dist2(apx, apy, dx, dy, seg_len2[cand]).min(axis=1)


def max_min_dist_all(refl, seg_a, seg_d, seg_len2):
    """Per-point squared distance to the nearest segment of the whole polyline.

    Scans all point-segment pairs at once, so the caller bounds
    len(refl) * len(seg_a); returns an N-vector.
    """
    apx = refl[:, 0:1] - seg_a[:, 0]
    apy = refl[:, 1:2] - seg_a[:, 1]
    return _segment_dist2(apx, apy, seg_d[:, 0], seg_d[:, 1], seg_len2).min(axis=1)


def _segment_dist2(apx, apy, dx, dy, len2):
    """Squared point-to-segment distances; overwrites apx and apy."""
    t = apx * dx
    t += apy * dy
    t /= len2
    np.clip(t, 0.0, 1.0, out=t)
    apx -= t * dx
    apy -= t * dy
    apx *= apx
    apy *= apy
    apx += apy
    return apx


class _LoopGeometry:
    """Per-loop precomputation shared by repeated asymmetry evaluations."""

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
        if not self._brute:
            self._tree = cKDTree(pts)
            self._k = min(_KNN, n)

    def reflect_dist2(self, center, rows=None):
        """Squared distance from each reflected vertex to the polyline.

        With rows given, only those vertices are reflected and scored; each
        value is bit-identical to the one a full evaluation gives that row.
        """
        pts = self.pts if rows is None else self.pts[rows]
        refl = 2.0 * np.asarray(center, dtype=float) - pts
        if self._brute:
            return max_min_dist_all(refl, self.seg_a, self.seg_d, self.seg_len2)
        _, idx = self._tree.query(refl, k=self._k)
        # idx - 1 is -1 for vertex 0, which indexes the closing segment
        cand = np.concatenate([idx, idx - 1], axis=1)
        return max_min_dist_candidates(refl, self.seg_a, self.seg_d, self.seg_len2, cand)

    def max_reflect_distance(self, center):
        return _root_max(self.reflect_dist2(center))


def _root_max(d2):
    return float(np.sqrt(d2.max()))


def _pairwise_max_dist2(a, b):
    sq_a = (a**2).sum(axis=1)
    sq_b = (b**2).sum(axis=1)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)
    flat = int(np.argmax(d2))
    i, j = divmod(flat, len(b))
    return float(d2[i, j]), i, j


def _chart_diameter(pts):
    """Max pairwise distance.

    Large loops use a strided coarse scan refined around the winning pair,
    which is exact whenever consecutive points advance smoothly (every
    traced loop does); small loops use the full pairwise scan.
    """
    n = len(pts)
    if n <= 700:
        d2, _, _ = _pairwise_max_dist2(pts, pts)
        return float(np.sqrt(max(d2, 0.0)))
    stride = int(np.ceil(n / 600))
    coarse = pts[::stride]
    _, ci, cj = _pairwise_max_dist2(coarse, coarse)
    half = 2 * stride + 2
    i0 = ci * stride
    j0 = cj * stride
    win_i = pts[max(i0 - half, 0) : i0 + half + 1]
    win_j = pts[max(j0 - half, 0) : j0 + half + 1]
    d2, _, _ = _pairwise_max_dist2(win_i, win_j)
    return float(np.sqrt(max(d2, 0.0)))


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
