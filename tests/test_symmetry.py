"""Centroid, asymmetry scoring, centrality decisions, and the midpoint
mean-value machinery."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.spatial import cKDTree

import revquad as rq
from revquad import DegenerateLoop, InvalidDomain, Plane

from revquad import symmetry
from revquad.symmetry import _LoopGeometry

from conftest import (
    oracle_asymmetry,
    oracle_diameter,
    oracle_distances,
    reference_max_min_dist_all,
    reference_max_min_dist_candidates,
    reference_min_dist2_candidates,
    synthetic_loop,
)


def circle_points(cy, cz, r=1.0, n=64):
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([cy + r * np.cos(ang), cz + r * np.sin(ang)])


@st.composite
def scored_loops(draw):
    """A traced section of a quadric or non-quadric profile, or a noisy
    synthetic circle; paired with the free_center flag to score it with."""
    if draw(st.booleans()):
        spec = draw(st.sampled_from(
            ("sphere", "hyperboloid:1,2", "paraboloid:2,1",
             "poly:2,0,0,1;1", "poly:1,0,1,0,1;1")
        ))
        prof = rq.parse_profile(spec)
        m = draw(st.floats(0.05, 0.3))
        frac = draw(st.floats(-0.4, 0.4))
        return rq.trace_section(prof, Plane(m, frac * prof.q), 256), False
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    pts = circle_points(draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3)), 1.0, 96)
    pts = pts + rng.normal(0.0, draw(st.sampled_from((0.0, 1e-4, 0.02))), pts.shape)
    return synthetic_loop(pts), draw(st.booleans())


@st.composite
def polygons(draw):
    """A random polygon: convex (an ellipse's vertices), star-shaped, or a
    scatter of points joined in drawn order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 120))
    kind = draw(st.sampled_from(("convex", "star", "scatter")))
    if kind == "scatter":
        return rng.normal(0.0, 1.0, (n, 2))
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    rad = 1.0 if kind == "convex" else rng.uniform(0.2, 1.0, n)
    return np.column_stack([rad * np.cos(ang), 0.6 * rad * np.sin(ang)]) + rng.normal(0.0, 3.0, 2)


class TestCentroid:
    def test_circle(self):
        loop = synthetic_loop(circle_points(0.0, 0.3, 1.0, 64))
        cy, cz = rq.centroid(loop)
        assert abs(cy - 0.0) <= 1e-9
        assert abs(cz - 0.3) <= 1e-9

    def test_traced_ellipse(self, cylinder):
        # constant F makes the chart curve an exact ellipse centered at beta
        loop = rq.trace_section(cylinder, Plane(0.5, 0.2), 1024)
        cy, cz = rq.centroid(loop)
        assert abs(cy) <= 1e-6
        assert abs(cz - 0.2) <= 1e-6

    def test_zero_length_degenerate(self):
        pts = np.tile([[0.3, -0.1]], (16, 1))
        with pytest.raises(DegenerateLoop):
            rq.centroid(synthetic_loop(pts))

    @given(
        vy=st.floats(-5.0, 5.0),
        vz=st.floats(-5.0, 5.0),
    )
    def test_translation_equivariance(self, vy, vz):
        pts = circle_points(0.2, -0.4, 1.3, 48)
        base = np.array(rq.centroid(synthetic_loop(pts)))
        moved = np.array(rq.centroid(synthetic_loop(pts + [vy, vz])))
        assert np.max(np.abs(moved - (base + [vy, vz]))) <= 1e-12 * max(
            1.0, abs(vy), abs(vz)
        )


class TestAsymmetryAt:
    def test_offset_circle_closed_form(self, cylinder):
        # reflecting a unit circle about a point 0.1 off-center produces a
        # circle whose farthest point lies 0.2 away; diameter 2 gives 0.1
        loop = rq.trace_section(cylinder, Plane(0.0, 0.0), 512)
        val = rq.asymmetry_at(loop, (0.1, 0.0))
        assert val == pytest.approx(0.1, abs=1e-3)

    def test_true_center_discretization_bound(self, sphere):
        for n in (64, 1024):
            loop = rq.trace_section(sphere, Plane(0.5, 0.3), n)
            val = rq.asymmetry_at(loop, (0.0, 0.24))
            assert val <= 5.0 * (math.pi / n) ** 2

    def test_true_center_floor_is_roundoff(self, sphere):
        # quadric sections are node-symmetric under reflection through their
        # center (Chebyshev nodes are symmetric about the ellipse midpoint),
        # so the true-center score sits at the round-off floor, far below
        # the generic discretization bound
        for n in (64, 1024):
            loop = rq.trace_section(sphere, Plane(0.5, 0.3), n)
            assert rq.asymmetry_at(loop, (0.0, 0.24)) <= 1e-12

    @pytest.mark.parametrize("n", [32, 513])  # 62 points scanned all-pairs, 1024 by k-d tree
    def test_non_finite_or_overflowing_center_rejected(self, cubic, n):
        loop = rq.trace_section(cubic, Plane(0.4, 0.0), n)
        assert symmetry._LoopGeometry(loop)._brute == (n == 32)
        for center in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan),
                       (1e300, 1e300), (1e308, 0.0), (0.0, -1.7e308)):
            with pytest.raises(InvalidDomain):
                rq.asymmetry_at(loop, center)
        assert math.isfinite(rq.asymmetry_at(loop, (1e3, -1e3)))

    def test_cubic_section_is_asymmetric(self, cubic):
        loop = rq.trace_section(cubic, Plane(0.4, 0.0), 1024)
        val = rq.asymmetry_at(loop, rq.centroid(loop))
        assert val > 1e-3

    def test_exactly_symmetric_synthetic_polygon(self):
        rng = np.random.default_rng(99)
        center = np.array([0.37, -1.21])
        ang = np.sort(rng.uniform(0.0, np.pi, 24))
        rad = rng.uniform(0.5, 2.0, 24)
        upper = center + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        pts = np.vstack([upper, 2.0 * center - upper])
        val = rq.asymmetry_at(synthetic_loop(pts), tuple(center))
        assert val <= 1e-12

    @given(scale=st.floats(1e-3, 1e3), seed=st.integers(0, 10_000))
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        pts = circle_points(0.0, 0.0, 1.0, 40) + rng.normal(0.0, 0.05, (40, 2))
        center = (0.03, -0.02)
        base = rq.asymmetry_at(synthetic_loop(pts), center)
        scaled_pts = np.array([5.0, -2.0]) + scale * (pts - [5.0, -2.0])
        scaled_center = np.array([5.0, -2.0]) + scale * (np.array(center) - [5.0, -2.0])
        val = rq.asymmetry_at(synthetic_loop(scaled_pts), tuple(scaled_center))
        assert abs(val - base) <= 1e-12 + 1e-9 * base

    @given(seed=st.integers(0, 10_000))
    def test_matches_brute_force_oracle(self, seed):
        # the tree-pruned fast path must agree with the quadratic-cost oracle
        rng = np.random.default_rng(seed)
        pts = circle_points(0.0, 0.0, 1.0, 70) + rng.normal(0.0, 0.08, (70, 2))
        center = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        fast = rq.asymmetry_at(synthetic_loop(pts), center)
        brute = oracle_asymmetry(pts, center)
        assert abs(fast - brute) <= 1e-12 + 1e-9 * brute

    def test_matches_oracle_on_large_noisy_loop(self):
        # 1500 points: the diameter comes from the hull, the distances from
        # the candidate path
        rng = np.random.default_rng(1500)
        pts = circle_points(0.0, 0.0, 1.0, 1500) + rng.normal(0.0, 0.05, (1500, 2))
        center = (0.02, -0.01)
        fast = rq.asymmetry_at(synthetic_loop(pts), center)
        brute = oracle_asymmetry(pts, center)
        assert abs(fast - brute) <= 1e-12 + 1e-9 * brute

    def test_matches_oracle_on_large_traced_loop(self, hyperboloid):
        # above the pair budget the implementation switches to candidate
        # pruning; cross-check both a symmetric and an offset center
        loop = rq.trace_section(hyperboloid, Plane(0.4, 0.3), 256)
        for center in ((0.0, 0.3215), (0.05, 0.25)):
            fast = rq.asymmetry_at(loop, center)
            brute = oracle_asymmetry(loop.points, center)
            assert abs(fast - brute) <= 1e-12 + 1e-9 * brute


def reference_window(pts, refl):
    """The angular window of each reflected point, recomputed: both segments
    at each of the 4 vertices whose polar angles about the bounding-box
    center, in box-normalised coordinates, bracket the point's."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    mid, scale = 0.5 * (lo + hi), np.where(hi > lo, 0.5 * (hi - lo), 1.0)

    def angles(p):
        q = (p - mid) / scale
        return np.arctan2(q[:, 1], q[:, 0])

    ang = angles(pts)
    order = np.argsort(ang, kind="stable")
    pos = np.searchsorted(ang[order], angles(refl))
    verts = order[(pos[:, None] + np.arange(-2, 2)) % len(pts)]
    return np.concatenate([verts, verts - 1], axis=1) % len(pts)


def reference_score(geom, center, all_rows=False):
    """Unnormalized asymmetry through the (N, K, 2) reference kernels, on the
    rows _LoopGeometry scores: rows 0 .. h-1 of a y-mirror loop about a
    center on the axis, otherwise (or with all_rows) every row.  A row's
    value is the smaller of its k-d candidates' and its angular window's:
    np.minimum with the bound.  A small loop scans every segment, which
    holds the window's."""
    center = np.asarray(center, dtype=float)
    pts = geom.pts
    if not all_rows and geom._half is not None and center[0] == 0.0:
        pts = pts[: geom._half]
    refl = 2.0 * center - pts
    args = (geom.seg_a, geom.seg_d, geom.seg_len2)
    if geom._brute:
        return reference_max_min_dist_all(refl, *args)
    _, idx = geom._tree.query(refl, k=symmetry._KNN)
    cand = np.concatenate([idx, idx - 1], axis=1) % len(geom.pts)
    knn = reference_min_dist2_candidates(refl, *args, cand)
    bound = reference_min_dist2_candidates(refl, *args, reference_window(geom.pts, refl))
    return float(np.sqrt(np.minimum(knn, bound).max()))


def reference_centrality(loop, tol, free_center):
    """centrality without the worst-point pre-check: the extent midpoint,
    then, if it fails, the coordinate descent with every trial center
    scored in full.  Returns (center, asymmetry, descent_ran)."""
    geom = _LoopGeometry(loop)
    center = 0.5 * (geom.pts.min(axis=0) + geom.pts.max(axis=0))
    if not free_center:
        center[0] = 0.0
    asym = reference_score(geom, center) / geom.diameter
    if asym <= tol:
        return (float(center[0]), float(center[1])), asym, False
    cy, cz = rq.centroid(loop)
    center = np.array([cy, cz]) if free_center else np.array([0.0, cz])
    best = reference_score(geom, center)
    dirs = [np.array([0.0, 1.0])]
    if free_center:
        dirs.append(np.array([1.0, 0.0]))
    step = geom.diameter / 8.0
    for _ in range(20):
        for d in dirs:
            for cand in (center + step * d, center - step * d):
                val = reference_score(geom, cand)
                if val < best:
                    best, center = val, cand
                    break
        step *= 0.5
    return (float(center[0]), float(center[1])), best / geom.diameter, True


def sampled_cubic():
    z = np.linspace(-1.0, 1.0, 200)
    return rq.make_sampled_profile(z, ((0.4 * z - 0.1) * z + 0.2) * z + 1.8)


def kernel_loops():
    """Seeded noisy circles and a traced cubic section, on both sides of
    the all-pairs limit."""
    for seed, n_pts in ((0, 96), (1, 254), (2, 700)):
        rng = np.random.default_rng(seed)
        yield circle_points(0.1, -0.2, 1.0, n_pts) + rng.normal(0.0, 0.01, (n_pts, 2))
    for n in (128, 1024):
        yield rq.trace_section(rq.parse_profile("poly:2,0,0,1;1"), Plane(0.4, 0.0), n).points


class TestKernels:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_split_kernels_match_reference_bits(self, seed):
        rng = np.random.default_rng(seed)
        paths = set()
        for pts in kernel_loops():
            geom = _LoopGeometry(synthetic_loop(pts))
            paths.add(geom._brute)
            args = (geom.seg_a, geom.seg_d, geom.seg_len2)
            for _ in range(3):
                center = rng.normal(0.0, 0.05, 2) + pts.mean(axis=0)
                refl = 2.0 * center - pts
                _, idx = cKDTree(pts).query(refl, k=8)
                cand = np.concatenate([idx, idx - 1], axis=1) % len(pts)
                d2 = symmetry.max_min_dist_candidates(refl, *args, cand)
                assert float(np.sqrt(d2.max())) == reference_max_min_dist_candidates(
                    refl, *args, cand
                )
                assert geom.max_reflect_distance(center) == reference_score(geom, center)
                # the pre-check's premise: a subset of rows scores the very
                # bits the full evaluation gives those rows
                rows = rng.choice(len(pts), 64, replace=False)
                assert np.array_equal(geom.reflect_dist2(center, rows),
                                      geom.reflect_dist2(center)[rows])
                if len(pts) > 700:
                    continue  # the all-pairs scan of the 2046-point loop is slow
                full = symmetry.max_min_dist_all(refl, *args)
                assert float(np.sqrt(full.max())) == reference_max_min_dist_all(refl, *args)
                assert np.array_equal(symmetry.max_min_dist_all(refl[rows], *args), full[rows])
        assert paths == {True, False}

    def test_index_minus_one_is_the_closing_segment(self):
        # reflect_dist2 passes idx - 1 = -1 for vertex 0
        pts = circle_points(0.0, 0.0, 1.0, 8)
        geom = _LoopGeometry(synthetic_loop(pts))
        mid = 0.5 * (pts[-1] + pts[0])
        args = (geom.seg_a, geom.seg_d, geom.seg_len2, np.array([[-1]]))
        assert symmetry.max_min_dist_candidates(mid[None, :], *args)[0] <= 1e-30


class TestHalfEvaluation:
    """A traced loop is a y-mirror, so about a center on the axis only its
    first h rows are scored; every other loop or center scores all rows."""

    SPECS = ("sphere", "cylinder:1,10", "hyperboloid:1,2", "paraboloid:2,1",
             "poly:2,0,0,1;1", "poly:1,0,1,0,1;1", "sampled")

    @given(
        spec=st.sampled_from(SPECS),
        n=st.sampled_from((128, 1024, 2048)),
        m=st.floats(0.05, 0.45),
        frac=st.floats(-0.3, 0.3),
        shifts=st.lists(st.floats(-0.05, 0.05), min_size=2, max_size=3),
    )
    def test_half_score_bounded_by_all_rows(self, spec, n, m, frac, shifts):
        prof = sampled_cubic() if spec == "sampled" else rq.parse_profile(spec)
        try:
            loop = rq.trace_section(prof, Plane(m, frac * prof.q), n)
        except rq.LoopEscapesDomain:
            assume(False)
        geom = _LoopGeometry(loop)
        pts = geom.pts
        assert geom._half == n
        mid = 0.5 * (loop.z_lo + loop.z_hi)
        # the midpoint, the centroid height and shifts both ways, which put
        # one or the other turning point's image outside the loop
        heights = [mid, rq.centroid(loop)[1]] + [mid + s * geom.diameter for s in shifts]
        for z in heights:
            center = (0.0, z)
            d2 = geom.reflect_dist2(center)
            assert np.array_equal(d2, geom.reflect_dist2(center, np.arange(len(pts)))[:n])
            half = geom.max_reflect_distance(center) / geom.diameter
            full = reference_score(geom, center, all_rows=True) / geom.diameter
            assert half <= full
            assert full - half <= 2.0**-52
            assert half == reference_score(geom, center) / geom.diameter
        # off the axis, however slightly, every row is scored
        for cy in (5e-324, -1e-3 * geom.diameter):
            assert len(geom.reflect_dist2((cy, mid))) == len(pts)
            assert geom.max_reflect_distance((cy, mid)) == reference_score(geom, (cy, mid))

    @pytest.mark.parametrize("n", [128, 1024])
    def test_broken_mirrors_score_all_rows(self, quartic, cylinder, n):
        loop = rq.trace_section(quartic, Plane(0.4, -0.2), n)
        h = _LoopGeometry(loop)._half
        assert h == n
        nudged = loop.points.copy()
        nudged[h + 3, 0] = np.nextafter(nudged[h + 3, 0], -np.inf)
        off_axis = loop.points.copy()
        off_axis[h - 1, 0] = 1e-300
        copies = {
            "lower vertex nudged by 1 ulp": nudged,
            "turning point off the axis": off_axis,
            "start-rotated": np.roll(loop.points, n // 3, axis=0),
            "m = 0 circle": rq.trace_section(cylinder, Plane(0.0, 0.5), 2 * n).points,
        }
        mid = 0.5 * (loop.z_lo + loop.z_hi)
        for name, pts in copies.items():
            geom = _LoopGeometry(synthetic_loop(pts))
            assert geom._half is None, name
            for center in ((0.0, mid), (0.0, mid + 0.01), (0.0, 0.0)):
                assert len(geom.reflect_dist2(center)) == len(pts), name
                got = geom.max_reflect_distance(center)
                assert got == reference_score(geom, center, all_rows=True), name


def crescent_points(rng, n, noise):
    """A noisy crescent of n points: an outer arc and an inner arc bulging
    the same way.  It is not star-shaped about its bounding-box center,
    which lies in the hollow, so its angular windows are poor bounds."""
    k = n // 2
    outer = np.linspace(-0.8 * np.pi, 0.8 * np.pi, k)
    inner = np.linspace(0.7 * np.pi, -0.7 * np.pi, n - k)
    pts = np.vstack([
        np.column_stack([np.cos(outer), np.sin(outer)]),
        np.column_stack([0.35 + 0.75 * np.cos(inner), 0.75 * np.sin(inner)]),
    ])
    return pts + rng.normal(0.0, noise, pts.shape)


@st.composite
def bounded_loops(draw):
    """(loop, free_center): a traced section of a preset or non-quadric
    profile at n = 128 / 1024 / 2048, or a noisy crescent."""
    if draw(st.booleans()):
        spec = draw(st.sampled_from(TestHalfEvaluation.SPECS + ("poly:1,0,-1,0,0.05;1",)))
        prof = sampled_cubic() if spec == "sampled" else rq.parse_profile(spec)
        n = draw(st.sampled_from((128, 1024, 2048)))
        plane = Plane(draw(st.floats(0.05, 0.45)), draw(st.floats(-0.3, 0.3)) * prof.q)
        try:
            return rq.trace_section(prof, plane, n), draw(st.booleans())
        except rq.LoopEscapesDomain:
            assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n = draw(st.sampled_from((60, 400, 900)))
    pts = crescent_points(rng, n, draw(st.sampled_from((0.0, 1e-3, 0.03))))
    return synthetic_loop(pts), True


def trial_centers(geom, rng):
    """The box center, on and off the axis, and centers shifted from it."""
    mid = geom.box_center[1]
    span = 0.05 * geom.diameter
    return [(0.0, mid), (0.0, mid + rng.uniform(-span, span)),
            (rng.uniform(-span, span), mid), tuple(geom.box_center)]


class TestBoundThenRefine:
    """Each row is bounded by its angular window and refined with its k-d
    candidates only when the bound can hold the maximum; the score must
    be the all-rows maximum, bit for bit, whichever rows were refined."""

    @given(case=bounded_loops(), seed=st.integers(0, 2**32 - 1))
    def test_bound_covers_rows_and_refinement_is_exact(self, case, seed):
        loop, _ = case
        geom = _LoopGeometry(loop)
        rng = np.random.default_rng(seed)
        for center in trial_centers(geom, rng):
            vals = geom.reflect_dist2(center)
            pts = geom.pts[: len(vals)]
            bound = geom._bound_dist2(2.0 * np.asarray(center) - pts)
            assert (bound >= vals).all()
            top, rows, got = geom.max_dist2(center)
            assert top == vals.max()
            assert np.array_equal(got, vals[rows])
            # any seed, rows out of range included, gives the same maximum
            picked = rng.choice(len(geom.pts), 40, replace=False)
            assert geom.max_dist2(center, picked)[0] == top
            # a stop below the score ends on a seed whose maximum reaches it
            part, _, got = geom.max_dist2(center, picked, stop=0.5 * math.sqrt(top))
            assert part <= top and got.max() == part

    @given(case=bounded_loops(), seed=st.integers(0, 2**32 - 1))
    def test_oracle_never_exceeds_score(self, case, seed):
        loop, _ = case
        assume(len(loop.points) <= 1000)
        geom = _LoopGeometry(loop)
        for center in trial_centers(geom, np.random.default_rng(seed)):
            score = rq.asymmetry_at(loop, center)
            assert oracle_asymmetry(loop.points, center) <= score * (1.0 + 1e-12) + 1e-15

    @given(case=bounded_loops(), tol=st.sampled_from((1e-5, 1e-4, 3e-3)))
    def test_reported_asymmetry_is_the_score_at_the_center(self, case, tol):
        loop, free = case
        rep = rq.centrality(loop, tol, free_center=free)
        assert rq.asymmetry_at(loop, rep.center) == rep.asymmetry


@st.composite
def convex_loops(draw):
    """A strictly convex polygon: an ellipse's vertices, some a hair
    apart, rotated, shifted far from the origin or not, in either
    orientation; or a traced section."""
    if draw(st.booleans()):
        spec = draw(st.sampled_from(TestHalfEvaluation.SPECS))
        prof = sampled_cubic() if spec == "sampled" else rq.parse_profile(spec)
        plane = Plane(draw(st.floats(0.05, 0.45)), draw(st.floats(-0.3, 0.3)) * prof.q)
        try:
            pts = rq.trace_section(prof, plane, draw(st.sampled_from((16, 128, 512)))).points
        except rq.LoopEscapesDomain:
            assume(False)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(3, 600))
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        # near-degenerate short edges: some vertices 1e-7 rad past the last
        close = rng.random(n) < draw(st.sampled_from((0.0, 0.2)))
        ang = np.sort(np.where(close, np.roll(ang, 1) + 1e-7, ang) % (2.0 * np.pi))
        pts = np.column_stack([np.cos(ang), draw(st.floats(0.05, 1.0)) * np.sin(ang)])
        rot = rng.uniform(0.0, np.pi)
        pts = pts @ np.array([[np.cos(rot), np.sin(rot)], [-np.sin(rot), np.cos(rot)]])
        pts = pts * draw(st.sampled_from((1e-3, 1.0, 50.0))) + rng.normal(0.0, 1e3, 2)
    return pts[::-1] if draw(st.booleans()) else pts


def nearby_centers(geom, rng):
    """The box center, on the axis or not, and centers up to half a
    diameter away from it."""
    span = 0.5 * geom.diameter
    return [tuple(geom.box_center), (0.0, geom.box_center[1])] + [
        tuple(geom.box_center + rng.uniform(-span, span, 2)) for _ in range(2)]


def without_rejection(monkeypatch):
    """Turn the lower-bound rejection off: no descent floor, no rejects."""
    monkeypatch.setattr(_LoopGeometry, "floor", lambda self, center, rows: None)
    monkeypatch.setattr(_LoopGeometry, "_rejects", lambda self, *args: False)


class TestLowerBound:
    """A strictly convex loop bounds each row from below by its outward
    distance to its window edges' supporting lines; the bound only ever
    rejects a center whose exact score would be rejected too."""

    @given(pts=convex_loops(), seed=st.integers(0, 2**32 - 1))
    def test_row_bound_never_exceeds_oracle_distance(self, pts, seed):
        geom = _LoopGeometry(synthetic_loop(pts))
        if geom._normals is None:
            # rounding made a hair-thin edge turn the wrong way
            assert symmetry._convex_ccw(pts)[0] is None
            return
        rng = np.random.default_rng(seed)
        for center in nearby_centers(geom, rng):
            center = np.asarray(center)
            refl = 2.0 * center - geom._scored(center)
            picked = rng.choice(len(refl), min(64, len(refl)), replace=False)
            exact = oracle_distances(pts, refl[picked])
            own = geom._row_lower(center, refl, geom._window_of(refl))
            assert (own[picked] <= exact).all()
            # the bound pass's windows give the rows the same guarantee
            bound = geom._bound_dist2(refl)
            assert not geom._rejects(center, refl, bound, picked, exact.max())
            # the descent's floor, kept from center and moved to cand
            floor = geom.floor(center, picked)
            for cand in (center, center + rng.uniform(-0.1, 0.1, 2) * geom.diameter,
                         center + [0.0, 0.01 * geom.diameter]):
                moved = oracle_distances(pts, 2.0 * cand - pts[picked])
                if len(geom._scored(cand)) == len(refl):
                    assert floor(cand) <= moved.max()

    def test_bound_is_tight_outside_a_square(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        for pts in (square, square[::-1]):
            geom = _LoopGeometry(synthetic_loop(pts))
            # the corners' reflections about (0.5, -0.25) lie straight below
            # the bottom edge, 0.5 and 1.5 away; about the center, on corners
            for center in ((0.5, -0.25), (0.5, 0.5)):
                refl = 2.0 * np.array(center) - pts
                low = geom._row_lower(center, refl, geom._window_of(refl))
                assert np.allclose(low, oracle_distances(pts, refl), rtol=0.0, atol=1e-11)

    @given(poly=polygons())
    def test_non_convex_loops_never_take_the_bound(self, poly):
        geom = _LoopGeometry(synthetic_loop(poly))
        convex = symmetry._convex_ccw(poly)[0] is not None
        assert (geom._normals is not None) == convex
        if convex:
            return
        center = geom.box_center
        refl = 2.0 * center - geom.pts
        rows = np.arange(len(refl))
        assert geom._row_lower(center, refl, geom._window_of(refl)) is None
        assert geom.floor(center, rows) is None
        assert not geom._rejects(center, refl, geom._bound_dist2(refl), rows, 0.0)

    @pytest.mark.parametrize("name", ["crescent", "doubly wound", "star"])
    def test_named_non_convex_loops(self, cubic, name):
        rng = np.random.default_rng(3)
        traced = rq.trace_section(cubic, Plane(0.45, -0.2), 64).points
        pts = {
            "crescent": crescent_points(rng, 200, 0.0),
            "doubly wound": np.vstack([traced, traced]),
            "star": circle_points(0.0, 0.0, 1.0, 40) * (1.0 + 0.3 * (np.arange(40) % 2))[:, None],
        }[name]
        geom = _LoopGeometry(synthetic_loop(pts))
        assert geom._normals is None
        assert geom.floor(geom.box_center, np.arange(10)) is None

    def test_nan_never_certifies_a_rejection(self, cubic):
        loop = rq.trace_section(cubic, Plane(0.45, -0.2), 512)
        geom = _LoopGeometry(loop)
        center = np.array([0.0, geom.box_center[1]])
        floor = geom.floor(center, np.arange(64))
        assert floor is not None
        assert not floor(np.array([0.0, math.nan])) > -math.inf
        assert not floor(np.array([math.nan, geom.box_center[1]])) > -math.inf
        refl = 2.0 * center - geom._scored(center)
        bound = geom._bound_dist2(refl)
        refl[5] = math.nan  # one nan row among rows that would certify
        rows = np.arange(len(refl))
        assert math.isnan(geom._row_lower(center, refl, geom._window_of(refl))[5])
        assert not geom._rejects(center, refl, np.full(len(refl), math.inf), rows, 0.0)
        assert not geom._rejects(center, refl, bound, rows, math.nan)

    @given(case=bounded_loops(), tol=st.sampled_from((1e-5, 1e-4, 3e-3)))
    def test_rejection_changes_no_bits(self, case, tol):
        loop, free = case
        with_bound = rq.centrality(loop, tol, free_center=free)
        with pytest.MonkeyPatch.context() as mp:
            without_rejection(mp)
            plain = rq.centrality(loop, tol, free_center=free)
        assert repr(with_bound) == repr(plain)  # bits, signed zeros too

    @pytest.mark.parametrize("n", [128, 1024])
    def test_descent_skips_refinement_of_rejected_trials(self, cubic, monkeypatch, n):
        loop = rq.trace_section(cubic, Plane(0.4, 0.0), n)
        calls = []
        refine = _LoopGeometry._row_dist2
        monkeypatch.setattr(_LoopGeometry, "_row_dist2",
                            lambda self, refl: calls.append(len(refl)) or refine(self, refl))
        with_bound = rq.centrality(loop, 1e-4)
        refined = len(calls)
        del calls[:]
        without_rejection(monkeypatch)
        assert rq.centrality(loop, 1e-4) == with_bound
        assert refined < 0.6 * len(calls)


@st.composite
def certificate_loops(draw):
    """A loop the window certificate may take: a small strictly convex
    polygon (3-8 vertices, some a hair apart, shifted and scaled, in either
    orientation), a traced section, or an m = 0 circle."""
    kind = draw(st.sampled_from(("polygon", "traced", "circle")))
    if kind == "traced":
        spec = draw(st.sampled_from(TestHalfEvaluation.SPECS))
        prof = sampled_cubic() if spec == "sampled" else rq.parse_profile(spec)
        plane = Plane(draw(st.floats(0.05, 0.45)), draw(st.floats(-0.3, 0.3)) * prof.q)
        try:
            return rq.trace_section(prof, plane, draw(st.sampled_from((16, 128, 512)))).points
        except rq.LoopEscapesDomain:
            assume(False)
    if kind == "circle":
        plane = Plane(0.0, draw(st.floats(-5.0, 5.0)))
        cylinder = rq.parse_profile("cylinder:1,10")
        return rq.trace_section(cylinder, plane, draw(st.sampled_from((16, 64, 512)))).points
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 8))
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    # near-degenerate short edges: some vertices 1e-9 rad past the last
    close = rng.random(n) < draw(st.sampled_from((0.0, 0.3)))
    ang = np.sort(np.where(close, np.roll(ang, 1) + 1e-9, ang) % (2.0 * np.pi))
    pts = np.column_stack([np.cos(ang), draw(st.floats(0.05, 1.0)) * np.sin(ang)])
    pts = pts * draw(st.sampled_from((1e-3, 1.0, 50.0))) + rng.normal(0.0, 1e3, 2)
    return pts[::-1] if draw(st.booleans()) else pts


def all_segments_dist2(geom, refl):
    """Each point's squared distance to the nearest segment of the whole
    loop, through the (N, K, 2) reference kernel."""
    cand = np.broadcast_to(np.arange(len(geom.pts)), (len(refl), len(geom.pts)))
    return reference_min_dist2_candidates(refl, geom.seg_a, geom.seg_d, geom.seg_len2, cand)


def cannot_certify(geom):
    center = geom.box_center
    refl = 2.0 * center - geom.pts
    bound = geom._bound_dist2(refl)
    return geom._exact_rows(center, refl, bound, np.arange(len(refl))) is None


class TestWindowCertificate:
    """On a strictly convex loop around its box center, a row whose disc
    of candidates fits in its angular window takes its window minimum as
    its value; that value is the all-segments minimum, bit for bit."""

    @given(pts=certificate_loops(), seed=st.integers(0, 2**32 - 1))
    def test_certified_rows_match_all_pairs_oracle(self, pts, seed):
        geom = _LoopGeometry(synthetic_loop(pts))
        rng = np.random.default_rng(seed)
        far = tuple(geom.box_center + 3.0 * geom.diameter * rng.uniform(-1.0, 1.0, 2))
        for center in nearby_centers(geom, rng) + [far]:
            center = np.asarray(center)
            refl = 2.0 * center - geom._scored(center)
            bound = geom._bound_dist2(refl)
            exact = geom._exact_rows(center, refl, bound, np.arange(len(refl)))
            if exact is None:
                assert geom._cert_angles is None
                continue
            rows = np.flatnonzero(exact)
            rows = rng.choice(rows, min(64, len(rows)), replace=False)
            assert np.array_equal(bound[rows], all_segments_dist2(geom, refl[rows]))
            # max_dist2 takes the same values
            assert geom.max_dist2(center)[0] == geom.reflect_dist2(center).max()

    @pytest.mark.parametrize("n", [128, 1024])
    def test_quadric_sections_certify_every_row(self, n, monkeypatch):
        calls = []
        refine = _LoopGeometry._row_dist2
        monkeypatch.setattr(_LoopGeometry, "_row_dist2",
                            lambda self, refl: calls.append(len(refl)) or refine(self, refl))
        for spec in ("sphere", "cylinder:1,10", "hyperboloid:1,2", "paraboloid:2,1"):
            prof = rq.parse_profile(spec)
            for m, frac in ((0.1, -0.4), (0.3, 0.0), (0.45, 0.2)):
                loop = rq.trace_section(prof, Plane(m, frac * prof.q), n)
                geom = _LoopGeometry(loop)
                center = np.array([0.0, 0.5 * (loop.z_lo + loop.z_hi)])
                refl = 2.0 * center - geom._scored(center)
                bound = geom._bound_dist2(refl)
                assert geom._exact_rows(center, refl, bound, np.arange(len(refl))).all()
                assert rq.centrality(loop, 1e-4).central
        # no row was refined: no all-pairs scan, no k-d tree
        assert calls == []

    @given(poly=polygons())
    def test_non_convex_loops_never_certify(self, poly):
        geom = _LoopGeometry(synthetic_loop(poly))
        if symmetry._convex_ccw(poly)[0] is None:
            assert cannot_certify(geom)

    @pytest.mark.parametrize("name", [
        "crescent", "doubly wound", "star", "right triangle", "arc and chord"])
    def test_named_loops_never_certify(self, cubic, name):
        # a convex loop's box center lies inside it or on its boundary; the
        # triangle's lies on its hypotenuse, the arc's on its chord
        traced = rq.trace_section(cubic, Plane(0.45, -0.2), 64).points
        arc = np.radians([-10.0, 20.0, 50.0, 80.0])
        pts = {
            "crescent": crescent_points(np.random.default_rng(3), 200, 0.0),
            "doubly wound": np.vstack([traced, traced]),
            "star": circle_points(0.0, 0.0, 1.0, 40) * (1.0 + 0.3 * (np.arange(40) % 2))[:, None],
            "right triangle": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            "arc and chord": np.column_stack([np.cos(arc), np.sin(arc)]),
        }[name]
        geom = _LoopGeometry(synthetic_loop(pts))
        assert cannot_certify(geom)
        assert (geom._normals is not None) == (name in ("right triangle", "arc and chord"))

    def test_nan_certifies_nothing(self, sphere):
        loop = rq.trace_section(sphere, Plane(0.3, 0.1), 256)
        geom = _LoopGeometry(loop)
        center = np.array([0.0, 0.5 * (loop.z_lo + loop.z_hi)])
        refl = 2.0 * center - geom._scored(center)
        bound = geom._bound_dist2(refl)
        bound[7] = math.nan
        exact = geom._exact_rows(center, refl, bound, np.arange(len(refl)))
        assert not exact[7] and exact.sum() == len(refl) - 1

    @given(case=bounded_loops(), tol=st.sampled_from((1e-5, 1e-4, 3e-3)))
    def test_certificate_changes_no_bits(self, case, tol):
        loop, free = case
        geom = _LoopGeometry(loop)
        centers = trial_centers(geom, np.random.default_rng(len(loop.points)))
        with_cert = [rq.centrality(loop, tol, free_center=free)]
        with_cert += [rq.asymmetry_at(loop, c) for c in centers]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_LoopGeometry, "_exact_rows", lambda self, *args: None)
            plain = [rq.centrality(loop, tol, free_center=free)]
            plain += [rq.asymmetry_at(loop, c) for c in centers]
        assert repr(with_cert) == repr(plain)  # bits, signed zeros too


SRC = str(Path(__file__).resolve().parent.parent / "src")

COLD_PROBE = """
import sys
import numpy as np
import revquad as rq
for spec in ("sphere", "quadric:-0.3,0.2,1.5,1"):
    prof = rq.parse_profile(spec)
    assert rq.detect_quadric(prof, 0.1 * prof.q, 17, 1024, 1e-4).is_quadric, spec
assert "scipy.spatial" not in sys.modules, "a quadric run loaded scipy.spatial"
print(repr(rq.centrality(np.array(eval(sys.stdin.read())), 1e-4, free_center=True)))
assert "scipy.spatial" in sys.modules
"""


def test_quadric_runs_leave_scipy_spatial_out():
    # a fresh interpreter: this one has imported scipy.spatial already.  A
    # 1500-point noisy circle is not convex: it takes its hull from Qhull
    # and its rows from the k-d tree, loaded on first use
    rng = np.random.default_rng(1500)
    pts = circle_points(0.0, 0.0, 1.0, 1500) + rng.normal(0.0, 0.05, (1500, 2))
    out = subprocess.run([sys.executable, "-c", COLD_PROBE], input=repr(pts.tolist()),
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout == repr(rq.centrality(pts, 1e-4, free_center=True)) + "\n"


class TestChartDiameter:
    # (spec, steep plane); every profile is also cut at a shallow slope
    CASES = (
        ("sphere", Plane(0.8, 0.0)),
        ("hyperboloid:1,2", Plane(0.6, 0.4)),
        ("poly:2,0,0,1;1", Plane(0.45, -0.2)),
        ("poly:1,0,-1,0,0.05;1", Plane(0.65, 0.2)),
    )

    @pytest.mark.parametrize("n", [128, 512, 1024, 2048])
    def test_exact_on_traced_loops(self, n):
        # 2n - 2 points, 254 to 4094; every traced loop is a strictly convex
        # polygon, so it serves as its own hull for the calipers
        for spec, steep in self.CASES:
            prof = rq.parse_profile(spec)
            for plane in (Plane(0.02, 0.3 * prof.q), steep):
                pts = rq.trace_section(prof, plane, n).points
                exact = oracle_diameter(pts)
                assert abs(symmetry._chart_diameter(pts) - exact) <= 2.0**-51 * exact

    @pytest.mark.parametrize("noise", [0.01, 0.05, 0.3])
    def test_exact_on_noisy_circles(self, noise):
        # non-convex loops of 100-3000 points take their hull from Qhull
        for seed in range(6):
            rng = np.random.default_rng([seed, int(noise * 100)])
            n = int(rng.integers(100, 3001))
            pts = circle_points(0.0, 0.0, 1.0, n) + rng.normal(0.0, noise, (n, 2))
            exact = oracle_diameter(pts)
            assert abs(symmetry._chart_diameter(pts) - exact) <= 2.0**-51 * exact

    @pytest.mark.parametrize("n", [16, 1024])
    def test_orientation_start_and_winding(self, cubic, n):
        pts = rq.trace_section(cubic, Plane(0.45, -0.2), n).points
        assert symmetry._convex_ccw(pts)[0] is pts
        exact = oracle_diameter(pts)
        copies = {
            "clockwise": pts[::-1],
            "start-rotated": np.roll(pts, n // 3, axis=0),
            "doubly wound": np.vstack([pts, pts]),
        }
        for name, copy in copies.items():
            got = symmetry._chart_diameter(copy)
            assert abs(got - exact) <= 2.0**-51 * exact, name
        assert symmetry._convex_ccw(copies["doubly wound"])[0] is None

    def test_parallel_opposite_edges(self):
        # a centrally symmetric hexagon: every edge has an exactly parallel
        # opposite edge, so far vertices tie and the diameter pair is found
        # only through a far vertex's neighbour
        hexagon = np.array([[4.0, -6.0], [5.0, -6.0], [1.0, 5.0],
                            [-4.0, 6.0], [-5.0, 6.0], [-1.0, -5.0]])
        for pts in (hexagon, hexagon[::-1], np.roll(hexagon, 2, axis=0)):
            assert symmetry._chart_diameter(pts) == oracle_diameter(hexagon)

    def test_collinear_and_repeated_points(self):
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert symmetry._chart_diameter(line) == 2.0
        back_and_forth = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
        assert symmetry._chart_diameter(back_and_forth) == 2.0 * math.sqrt(2.0)
        assert rq.asymmetry_at(synthetic_loop(back_and_forth), (1.0, 1.0)) == 0.0
        # rounded coordinates on a slanted line, in shuffled order
        t = np.random.default_rng(5).permutation(np.linspace(-1.0, 3.0, 9))
        slanted = np.column_stack([0.1 * t, 0.7 * t])
        exact = oracle_diameter(slanted)
        assert abs(symmetry._chart_diameter(slanted) - exact) <= 2.0**-51 * exact

    def test_degenerate_loops_rejected(self):
        for pts in (np.tile([[0.3, -0.1]], (5, 1)),
                    [[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]],
                    [[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]]):
            with pytest.raises(DegenerateLoop):
                rq.asymmetry_at(pts, (0.0, 0.0))

    @given(poly=polygons(), shift=st.integers(0, 200))
    def test_matches_oracle_and_ignores_vertex_order(self, poly, shift):
        got = symmetry._chart_diameter(poly)
        exact = oracle_diameter(poly)
        assert abs(got - exact) <= 2.0**-51 * exact
        assert symmetry._chart_diameter(np.roll(poly, shift, axis=0)) == got
        assert symmetry._chart_diameter(poly[::-1]) == got


class TestCentrality:
    def test_sphere_section(self, sphere):
        loop = rq.trace_section(sphere, Plane(0.5, 0.3), 1024)
        rep = rq.centrality(loop, 1e-4)
        assert rep.central is True
        assert rep.center[0] == 0.0
        assert rep.center[1] == pytest.approx(0.24, abs=1e-6)
        assert rep.asymmetry <= 1e-4
        assert rep.tolerance == 1e-4

    def test_cylinder_section(self, cylinder):
        loop = rq.trace_section(cylinder, Plane(0.5, 0.2), 1024)
        rep = rq.centrality(loop, 1e-4)
        assert rep.central is True
        assert rep.center == pytest.approx((0.0, 0.2), abs=1e-9)

    def test_cubic_section_not_central(self, cubic):
        loop = rq.trace_section(cubic, Plane(0.4, 0.0), 1024)
        rep = rq.centrality(loop, 1e-4)
        assert rep.central is False
        assert rep.asymmetry > 1e-3

    def test_report_invariants(self, paraboloid):
        loop = rq.trace_section(paraboloid, Plane(0.3, 0.1), 256)
        rep = rq.centrality(loop, 1e-4)
        assert rep.central == (rep.asymmetry <= rep.tolerance)
        assert 0.0 <= rep.asymmetry <= 1.0

    def test_tolerance_domain(self, sphere):
        loop = rq.trace_section(sphere, Plane(0.5, 0.0), 64)
        with pytest.raises(InvalidDomain):
            rq.centrality(loop, 0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -math.inf, -1e-4])
    def test_tolerance_must_be_finite_and_positive(self, sphere, tol):
        loop = rq.trace_section(sphere, Plane(0.5, 0.0), 64)
        with pytest.raises(InvalidDomain):
            rq.centrality(loop, tol)

    def test_free_center_finds_off_axis_center(self):
        pts = circle_points(0.15, 0.3, 1.0, 256)
        rep_free = rq.centrality(synthetic_loop(pts), 1e-3, free_center=True)
        assert rep_free.central is True
        assert rep_free.center[0] == pytest.approx(0.15, abs=1e-4)
        assert rep_free.center[1] == pytest.approx(0.3, abs=1e-4)
        # the default pins y = 0, which cannot serve this synthetic loop
        rep_pinned = rq.centrality(synthetic_loop(pts), 1e-3)
        assert rep_pinned.central is False

    def test_quadric_center_is_extent_midpoint(self, sphere, hyperboloid, paraboloid):
        # the point reflection swaps the turning points (0, z_lo) and
        # (0, z_hi), so a quadric section's center is exactly their midpoint
        for prof in (sphere, hyperboloid, paraboloid):
            for m in (0.1, 0.3):
                for frac in (-0.5, 0.0, 0.4):
                    loop = rq.trace_section(prof, Plane(m, frac * prof.q), 512)
                    rep = rq.centrality(loop, 1e-4)
                    assert rep.center == (0.0, 0.5 * (loop.z_lo + loop.z_hi))
                    assert rep.asymmetry <= rep.tolerance

    def test_steep_cubic_witness_comes_from_descent(self, cubic):
        for m in (0.4, 0.5):
            loop = rq.trace_section(cubic, Plane(m, 0.0), 1024)
            rep = rq.centrality(loop, 1e-4)
            mid = (0.0, 0.5 * (loop.z_lo + loop.z_hi))
            assert rep.central is False
            assert rep.asymmetry == rq.asymmetry_at(loop, rep.center)
            # the descent improves on the failed midpoint
            assert rep.asymmetry < rq.asymmetry_at(loop, mid)

    @pytest.mark.parametrize("free", [False, True])
    @pytest.mark.parametrize("n", [128, 1024])
    @pytest.mark.parametrize("spec, plane", [
        ("poly:2,0,0,1;1", Plane(0.4, 0.0)),
        ("poly:1,0,1,0,1;1", Plane(0.4, -0.2)),
        ("sampled", Plane(0.5, 0.0)),
    ])
    def test_pruned_descent_reproduces_full_descent(self, spec, plane, n, free):
        prof = sampled_cubic() if spec == "sampled" else rq.parse_profile(spec)
        loop = rq.trace_section(prof, plane, n)
        center, asym, descent_ran = reference_centrality(loop, 1e-4, free)
        rep = rq.centrality(loop, 1e-4, free_center=free)
        assert descent_ran
        assert rep.center == center
        assert rep.asymmetry == asym

    @given(case=scored_loops(), tol=st.sampled_from((1e-5, 1e-4, 3e-3)))
    def test_reported_center_reproduces_verdict(self, case, tol):
        loop, free = case
        rep = rq.centrality(loop, tol, free_center=free)
        assert rep.central == (rq.asymmetry_at(loop, rep.center) <= tol)


class TestMidpointMachinery:
    def test_quotient_quadratic_exact(self):
        assert rq.symmetric_quotient(lambda z: z * z, 3.0, 0.5) == 6.0

    def test_quotient_cubic(self):
        val = rq.symmetric_quotient(lambda z: z**3, 0.0, 0.1)
        assert val == pytest.approx(0.01, rel=1e-12)

    def test_quotient_even_function(self):
        for t in (0.25, 1.0, 2.5):
            assert rq.symmetric_quotient(abs, 0.0, t) == 0.0

    def test_quotient_zero_t(self):
        with pytest.raises(InvalidDomain):
            rq.symmetric_quotient(lambda z: z, 0.0, 0.0)

    def test_residual_quadratic(self):
        f = lambda z: 2.0 + 3.0 * z + 4.0 * z * z
        fp = lambda z: 3.0 + 8.0 * z
        for zeta in (-1.0, 0.3, 2.0):
            for t in (0.1, 0.7):
                assert abs(rq.midpoint_residual(f, fp, zeta, t)) <= 1e-12

    def test_residual_cubic_values(self):
        f = lambda z: z**3
        fp = lambda z: 3.0 * z * z
        assert rq.midpoint_residual(f, fp, 0.0, 0.1) == pytest.approx(-0.01, rel=1e-12)
        assert rq.midpoint_residual(f, fp, 1.0, 0.2) == pytest.approx(-0.04, rel=1e-10)

    def test_grid_characterizes_quadratics(self):
        zetas = np.linspace(-1.0, 1.0, 21)
        ts = np.arange(1, 22) / 21.0
        quad = lambda z: 1.0 - 0.7 * z + 0.4 * z * z
        quad_p = lambda z: -0.7 + 0.8 * z
        assert rq.max_midpoint_residual(quad, quad_p, zetas, ts) <= 1e-12
        for coeffs in ([0, 0, 0, 1], [1, 0, 0, 0, 1], [0, 1, 0, 0.3, 0, 0.2]):
            f = np.polynomial.Polynomial(coeffs)
            fp = f.deriv()
            assert rq.max_midpoint_residual(f, fp, zetas, ts) > 1e-6

    @pytest.mark.parametrize("poison", [-1.0, 0.0, 1.0])
    def test_nan_residual_is_reported(self, poison):
        # a nan residual never compares larger, so a plain running max would
        # skip it and report only the finite ones (0 for a quadratic)
        zetas = np.linspace(-1.0, 1.0, 5)
        ts = np.array([0.5, 1.0])
        for f, fp in ((lambda z: z * z, lambda z: 2.0 * z),
                      (lambda z: z**3, lambda z: 3.0 * z * z)):
            g = lambda z, f=f: math.nan if z == poison else f(z)
            assert math.isnan(rq.max_midpoint_residual(g, fp, zetas, ts))
            gp = lambda z, fp=fp: math.nan if z == poison else fp(z)
            assert math.isnan(rq.max_midpoint_residual(f, gp, zetas, ts))
