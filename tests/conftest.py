"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's geometry code paths
(KD-tree candidate pruning, split-column kernels, normal equations): they are
plain quadratic-cost numpy so that fast-path results can be checked against
a second, independently written route.  The two reference kernels are the
exception: they keep the library's earlier (N, K, 2) formulation, which the
split-column kernels of ``revquad.symmetry`` must reproduce bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import revquad as rq
from revquad.profiles import _gap_roots

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def oracle_asymmetry(points, center):
    """Brute-force asymmetry: reflect every vertex, measure the worst
    distance to the closed polyline over all segments, divide by the
    brute-force diameter."""
    pts = np.asarray(points, dtype=float)
    refl = 2.0 * np.asarray(center, dtype=float) - pts
    return float(oracle_distances(pts, refl).max()) / oracle_diameter(pts)


def oracle_distances(points, query):
    """Each query point's distance to the closed polyline through points,
    over all segments, one point at a time."""
    a = np.asarray(points, dtype=float)
    d = np.roll(a, -1, axis=0) - a
    len2 = np.einsum("ij,ij->i", d, d)
    safe = np.where(len2 == 0.0, 1.0, len2)
    out = np.empty(len(query))
    for i, r in enumerate(np.asarray(query, dtype=float)):
        ap = r - a
        t = np.clip(np.einsum("ij,ij->i", ap, d) / safe, 0.0, 1.0)
        foot = a + t[:, None] * d
        gap = r - foot
        out[i] = np.sqrt(np.min(np.einsum("ij,ij->i", gap, gap)))
    return out


def reference_min_dist2_candidates(refl, seg_a, seg_d, seg_len2, cand):
    """Per reflected point, the squared distance to the nearest candidate
    segment, on (N, K, 2) arrays reduced with sum(axis=-1)."""
    a = seg_a[cand]
    d = seg_d[cand]
    ap = refl[:, None, :] - a
    t = (ap * d).sum(axis=-1) / seg_len2[cand]
    np.clip(t, 0.0, 1.0, out=t)
    gap = ap - t[..., None] * d
    return (gap**2).sum(axis=-1).min(axis=1)


def reference_max_min_dist_candidates(refl, seg_a, seg_d, seg_len2, cand):
    """Max over reflected points of the distance to the nearest candidate
    segment."""
    d2 = reference_min_dist2_candidates(refl, seg_a, seg_d, seg_len2, cand)
    return float(np.sqrt(d2.max()))


def reference_max_min_dist_all(refl, seg_a, seg_d, seg_len2, chunk=256):
    """As above over all segments, on (chunk, M, 2) arrays."""
    worst = 0.0
    for s in range(0, len(refl), chunk):
        p = refl[s : s + chunk]
        ap = p[:, None, :] - seg_a[None, :, :]
        t = (ap * seg_d[None, :, :]).sum(axis=-1) / seg_len2[None, :]
        np.clip(t, 0.0, 1.0, out=t)
        gap = ap - t[..., None] * seg_d[None, :, :]
        worst = max(worst, float((gap**2).sum(axis=-1).min(axis=1).max()))
    return float(np.sqrt(worst))


def oracle_diameter(points, block=256):
    """Brute-force diameter over all pairs, a block of rows at a time."""
    pts = np.asarray(points, dtype=float)
    best = 0.0
    for i in range(0, len(pts), block):
        diff = pts[i : i + block, None, :] - pts[None, :, :]
        best = max(best, float(np.max(np.einsum("ijk,ijk->ij", diff, diff))))
    return float(np.sqrt(best))


# The oracle extent walks this many fixed steps before its step starts doubling.
_ORACLE_FIXED_STEPS = 4096


def oracle_extent(profile, plane):
    """Section extent by an outward walk and bisection, no root finding.

    Walks from beta in steps of m sqrt(F(beta)) / 8 (doubling after 4096
    steps) until the gap changes sign or |z| reaches q, then bisects the
    bracket to exhaustion and returns its gap > 0 end.  Raises as
    ``section_extent`` does.  A dip in the gap narrower than the step is
    stepped over, and a subnormal step never moves: keep the planes tame.
    """
    if plane.m == 0.0:
        raise rq.ZeroSlope("section extent needs a tilted plane (m > 0)")
    beta = plane.beta
    if abs(beta) >= profile.q:
        raise rq.OutOfDomain(f"plane intercept |beta| >= q = {profile.q!r}")
    if rq.section_gap(profile, plane, beta) <= 0.0:
        raise rq.InvalidDomain("gap is not positive at z = beta")
    step = plane.m * np.sqrt(profile.eval(beta)) / 8.0
    cap = profile.q * (1.0 - 2.0 ** -52)

    def gap(z):
        return rq.section_gap(profile, plane, z)

    def walk(step, cap):
        prev, k, stride = beta, 0, step
        while True:
            k += 1
            if k > _ORACLE_FIXED_STEPS:
                stride *= 2.0
            z = prev + stride
            hit_cap = (z >= cap) if step > 0 else (z <= cap)
            if hit_cap:
                z = cap
            if gap(z) <= 0.0:
                return prev, z
            if hit_cap:
                raise rq.LoopEscapesDomain(f"gap stays positive out to z = {cap!r}")
            prev = z

    def bisect(lo, hi):
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                return lo
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid

    z_hi = bisect(*walk(step, cap))
    z_lo = bisect(*walk(-step, -cap))
    return z_lo, z_hi


def oracle_root_extent(profile, plane):
    """Section extent from the same root windows, bisected one scalar gap
    call per midpoint.

    The scalar form of ``section_extent``: the same candidate roots and
    windows, checked and bisected in order, first the upper side, then the
    lower side on the mirrored gap g(-z).
    """
    if plane.m == 0.0:
        raise rq.ZeroSlope("section extent needs a tilted plane (m > 0)")
    beta = plane.beta
    if abs(beta) >= profile.q:
        raise rq.OutOfDomain(f"plane intercept |beta| >= q = {profile.q!r}")
    if rq.section_gap(profile, plane, beta) <= 0.0:
        raise rq.InvalidDomain("gap is not positive at z = beta")

    def gap(z):
        return rq.section_gap(profile, plane, z)

    roots = sorted(_gap_roots(profile, plane.m, beta).tolist())
    cap = profile.q * (1.0 - 2.0 ** -52)
    z_hi = oracle_first_crossing(gap, beta, roots, cap)
    z_lo = -oracle_first_crossing(lambda z: gap(-z), -beta, [-r for r in roots[::-1]], cap)
    return z_lo, z_hi


def oracle_first_crossing(gap, beta, roots, cap):
    """Gap > 0 end of the first crossing in (beta, cap]; roots ascending."""
    for r in roots:
        w = 1e-9 * max(1.0, abs(r))
        if r + w > beta:
            lo, hi = max(r - w, beta), min(r + w, cap)
            if gap(lo) > 0.0 >= gap(hi):
                return oracle_bisect_root(gap, lo, hi)
    raise rq.LoopEscapesDomain(f"gap stays positive out to |z| = {cap!r}")


def oracle_bisect_root(gap, lo, hi):
    """Bisect gap(lo) > 0 >= gap(hi) to exhaustion; returns the gap > 0 end."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def oracle_quadratic_fit(z, v):
    """Independent quadratic least squares via numpy's polyfit."""
    a, b, c = np.polyfit(np.asarray(z, float), np.asarray(v, float), 2)
    return float(a), float(b), float(c)


def synthetic_loop(points, m=1.0, beta=0.0):
    """Wrap a raw point array in a SectionLoop for symmetry-level tests."""
    pts = np.asarray(points, dtype=float)
    return rq.SectionLoop(
        plane=rq.Plane(m, beta),
        points=pts,
        z_lo=float(pts[:, 1].min()),
        z_hi=float(pts[:, 1].max()),
    )


@pytest.fixture(scope="session")
def sphere():
    return rq.parse_profile("sphere")


@pytest.fixture(scope="session")
def cylinder():
    return rq.parse_profile("cylinder:1,10")


@pytest.fixture(scope="session")
def hyperboloid():
    return rq.parse_profile("hyperboloid:1,2")


@pytest.fixture(scope="session")
def paraboloid():
    return rq.parse_profile("paraboloid:2,1")


@pytest.fixture(scope="session")
def cubic():
    """F(z) = 2 + z^3 on (-1, 1): the canonical non-quadric."""
    return rq.parse_profile("poly:2,0,0,1;1")


@pytest.fixture(scope="session")
def quartic():
    """F(z) = 1 + z^2 + z^4 on (-1, 1): even but non-quadric."""
    return rq.parse_profile("poly:1,0,1,0,1;1")
