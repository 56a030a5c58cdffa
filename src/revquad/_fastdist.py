"""Inner loops of the asymmetry metric.

The hot path reflects every loop vertex through a trial center and needs,
for each reflected point, the squared distance to the nearest segment of the
original polyline.  Both kernels work on separate x and y columns:

    t = clip((apx * dx + apy * dy) / len2, 0, 1)
    d2 = gx * gx + gy * gy,    g = ap - t * d

with ap the offset from the segment start a to the point and d the segment
vector.  Each point's value depends on that point alone, so a kernel run on
a subset of rows returns the very bits a run on all rows gives for them.
The kernels return these per-point minima; the caller takes the maximum and
its square root, which is the max-min distance the names refer to.
"""

from __future__ import annotations

import numpy as np


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
