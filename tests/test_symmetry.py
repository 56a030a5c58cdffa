"""Centroid, asymmetry scoring, centrality decisions, and the midpoint
mean-value machinery."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import revquad as rq
from revquad import DegenerateLoop, InvalidDomain, Plane

from revquad import symmetry
from revquad.symmetry import CentralityReport, _LoopGeometry

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


def wiggly_section(n, amp=0.3, m=0.4, beta=0.0):
    """A traced section of F = 2 + amp sin(10 z), a 400-row table on
    [-1, 1], cut by Plane(m, beta): a loop of 2n - 2 points that is not
    convex, yet star-shaped about its box center, so it certifies."""
    z = np.linspace(-1.0, 1.0, 400)
    prof = rq.make_sampled_profile(z, 2.0 + amp * np.sin(10.0 * z))
    return rq.trace_section(prof, Plane(m, beta), n)


# 254 and 2046 points
WIGGLY = {n: wiggly_section(n) for n in (128, 1024)}


def noisy_table(seed, noise=1e-3):
    """A 401-row table of the sphere on |z| <= 0.95 with Gaussian noise in F."""
    z = np.linspace(-0.95, 0.95, 401)
    f = 1.0 - z * z + np.random.default_rng(seed).normal(0.0, noise, len(z))
    return rq.make_sampled_profile(z, f)


def noisy_circle(n, noise=0.05, seed=None):
    """n points of the unit circle with Gaussian noise; at 0.05 their sorted
    angles leave loop order, so the loop is in the general class."""
    rng = np.random.default_rng(n if seed is None else seed)
    return circle_points(0.0, 0.0, 1.0, n) + rng.normal(0.0, noise, (n, 2))


# loops of the general class, centered on the axis: 254 and 2046 points
GENERAL = {n: synthetic_loop(noisy_circle(n)) for n in (254, 2046)}


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_weighted_sums_rejected(self):
        # a finite 3-lobed loop of radius 1e150 about (1e160, 1e160): its
        # length-weighted sums overflow, so centroid has no finite centre
        t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        r = 1e150 * (1.0 + 0.3 * np.cos(3.0 * t))
        pts = 1e160 + r[:, None] * np.column_stack([np.cos(t), np.sin(t)])
        with pytest.raises(InvalidDomain, match="centroid is not finite"):
            rq.centroid(pts)
        assert 0.0 < rq.asymmetry_at(pts, (1e160, 1e160)) < 1.0
        # centrality reads no centroid: free, it scores the box centre
        rep = rq.centrality(pts, 1e-4, free_center=True)
        box = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        assert rep.center == tuple(box)
        assert rep.asymmetry == rq.asymmetry_at(pts, box) == pytest.approx(0.2832, abs=1e-4)
        # pinned, the midpoint (0, 1e160): its reflections lie 2e160 away,
        # some 8.5e9 box sides; the loop is scored at its box's scale, so
        # their squared distances stay finite
        mid = 0.5 * (pts[:, 1].min() + pts[:, 1].max())
        rep = rq.centrality(pts, 1e-4)
        assert rep.center == (0.0, mid) and not rep.central
        assert rep.asymmetry == rq.asymmetry_at(pts, (0.0, mid)) == pytest.approx(8.475e9, rel=1e-3)

    def test_pinned_search_far_from_the_axis_warns_of_nothing(self):
        # about (1e155, 1e155) the pinned midpoint's reflections lie some
        # 1e5 box sides away: centrality scores the midpoint as asymmetry_at
        # does there, with no warning
        t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        r = 1e150 * (1.0 + 0.3 * np.cos(3.0 * t))
        pts = 1e155 + r[:, None] * np.column_stack([np.cos(t), np.sin(t)])
        mid = 0.5 * (pts[:, 1].min() + pts[:, 1].max())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = rq.asymmetry_at(synthetic_loop(pts), (0.0, mid))
            got = rq.centrality(pts, 1e-4)
        assert got.asymmetry == want and got.center == (0.0, mid) and not got.central
        # the free centre is the box centre, near the loop
        assert rq.centrality(pts, 1e-4, free_center=True).asymmetry < 1.0

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
        # circle whose farthest point lies 0.2 away; box side 2 gives 0.1
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

    @pytest.mark.parametrize("n", [32, 513])
    def test_non_finite_or_overflowing_center_rejected(self, cubic, n):
        # the cubic's 62 or 1024 points refine in sectors; the noisy
        # circle's 254 or 2046, of the general class, by the all-pairs scan
        noisy = GENERAL[254 if n == 32 else 2046]
        assert _LoopGeometry(noisy)._cert_angles is None
        for loop in (rq.trace_section(cubic, Plane(0.4, 0.0), n), noisy):
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
        # the bound-then-refine path must agree with the quadratic-cost oracle
        rng = np.random.default_rng(seed)
        pts = circle_points(0.0, 0.0, 1.0, 70) + rng.normal(0.0, 0.08, (70, 2))
        center = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        fast = rq.asymmetry_at(synthetic_loop(pts), center)
        brute = oracle_asymmetry(pts, center)
        assert abs(fast - brute) <= 1e-12 + 1e-9 * brute

    def test_matches_oracle_on_large_noisy_loop(self):
        # 1500 points whose sorted angles leave loop order: the general
        # class, refined by the all-pairs scan
        pts = noisy_circle(1500)
        center = (0.02, -0.01)
        fast = rq.asymmetry_at(synthetic_loop(pts), center)
        brute = oracle_asymmetry(pts, center)
        assert abs(fast - brute) <= 1e-12 + 1e-9 * brute

    def test_matches_oracle_on_large_traced_loop(self, hyperboloid):
        # the hyperboloid's section refines in sectors, at a symmetric and an
        # offset center; so do the wiggly sections, which are not convex, at
        # the center centrality reports and off it
        loop = rq.trace_section(hyperboloid, Plane(0.4, 0.3), 256)
        cases = [(loop, (0.0, 0.3215)), (loop, (0.05, 0.25))]
        for wiggly in WIGGLY.values():
            center = rq.centrality(wiggly, 1e-4).center
            cases += [(wiggly, center), (wiggly, (0.03, center[1] - 0.02))]
        for loop, center in cases:
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


def all_pairs_dist2(geom, refl):
    """Each point's squared distance to the nearest segment of the whole
    loop, by max_min_dist_all over blocks of 256 points."""
    args = (geom.seg_a, geom.seg_d, geom.seg_len2)
    return np.concatenate([symmetry.max_min_dist_all(refl[i : i + 256], *args)
                           for i in range(0, len(refl), 256)])


def reference_score(geom, center, all_rows=False):
    """Unnormalized asymmetry by the all-pairs scan, on the rows
    _LoopGeometry scores: rows 0 .. h-1 of a y-mirror loop about a center on
    the axis, otherwise (or with all_rows) every row."""
    center = np.asarray(center, dtype=float)
    pts = geom.pts
    if not all_rows and geom._half is not None and center[0] == 0.0:
        pts = pts[: geom._half]
    return float(np.sqrt(all_pairs_dist2(geom, 2.0 * center - pts).max()))


def sampled_cubic():
    z = np.linspace(-1.0, 1.0, 200)
    return rq.make_sampled_profile(z, ((0.4 * z - 0.1) * z + 0.2) * z + 1.8)


def kernel_loops():
    """Seeded noisy circles and a traced cubic section, of both classes."""
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
            paths.add(geom._cert_angles is None)
            args = (geom.seg_a, geom.seg_d, geom.seg_len2)
            for _ in range(3):
                center = rng.normal(0.0, 0.05, 2) + pts.mean(axis=0)
                refl = 2.0 * center - pts
                # 16 candidates per point, -1 the closing segment among them
                cand = rng.integers(-1, len(pts), (len(pts), 16))
                d2 = symmetry.max_min_dist_candidates(refl, *args, cand)
                assert float(np.sqrt(d2.max())) == reference_max_min_dist_candidates(
                    refl, *args, cand
                )
                assert math.sqrt(geom.max_dist2(center)) == reference_score(geom, center)
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
        heights = [mid, rq.centroid(loop)[1]] + [mid + s * geom.side for s in shifts]
        # every row's value is the all-pairs scan's (TestExactRows), so the
        # rows refined by reflect_dist2 are the reference here
        for z in heights:
            center = (0.0, z)
            d2 = geom.reflect_dist2(center)
            every = geom.reflect_dist2(center, np.arange(len(pts)))
            assert np.array_equal(d2, every[:n])
            half = math.sqrt(geom.max_dist2(center)) / geom.side
            full = math.sqrt(every.max()) / geom.side
            assert half <= full
            assert full - half <= 2.0**-52
            assert half == math.sqrt(d2.max()) / geom.side
        # off the axis, however slightly, every row is scored
        for cy in (5e-324, -1e-3 * geom.side):
            d2 = geom.reflect_dist2((cy, mid))
            assert len(d2) == len(pts)
            assert geom.max_dist2((cy, mid)) == d2.max()

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
                got = math.sqrt(geom.max_dist2(center))
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
    span = 0.05 * geom.side
    return [(0.0, mid), (0.0, mid + rng.uniform(-span, span)),
            (rng.uniform(-span, span), mid), tuple(geom.box_center)]


class TestBoundThenRefine:
    """Each row is bounded by its angular window and refined only when the
    bound can hold the maximum; the score must be the all-rows maximum, bit
    for bit, whichever rows were refined."""

    @given(case=bounded_loops(), seed=st.integers(0, 2**32 - 1))
    def test_bound_covers_rows_and_refinement_is_exact(self, case, seed):
        loop, _ = case
        geom = _LoopGeometry(loop)
        rng = np.random.default_rng(seed)
        for center in trial_centers(geom, rng):
            vals = geom.reflect_dist2(center)
            pts = geom.pts[: len(vals)]
            bound = geom._bound_dist2(2.0 * np.asarray(center) - pts)[0]
            assert (bound >= vals).all()
            assert geom.max_dist2(center) == vals.max()

    @given(case=bounded_loops(), seed=st.integers(0, 2**32 - 1))
    def test_one_bound_pass_per_evaluation(self, case, seed):
        loop, _ = case
        geom = _LoopGeometry(loop)
        rng = np.random.default_rng(seed)
        passes = []
        bound_pass = _LoopGeometry._bound_dist2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_LoopGeometry, "_bound_dist2",
                       lambda self, refl: passes.append(len(refl)) or bound_pass(self, refl))
            for center in trial_centers(geom, rng):
                del passes[:]
                geom.max_dist2(center)
                assert passes == [len(geom._scored(center))]

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


def nearby_centers(geom, rng):
    """The box center, on the axis or not, and centers up to half the box's
    larger side away from it."""
    span = 0.5 * geom.side
    return [tuple(geom.box_center), (0.0, geom.box_center[1])] + [
        tuple(geom.box_center + rng.uniform(-span, span, 2)) for _ in range(2)]


@st.composite
def certificate_loops(draw):
    """A loop the window certificate may take: a small strictly convex
    polygon (3-8 vertices, some a hair apart, shifted and scaled, in either
    orientation), a star-shaped polygon of random radii, a traced section,
    or an m = 0 circle."""
    kind = draw(st.sampled_from(("polygon", "star", "traced", "circle")))
    if kind == "star":
        return draw(polar_polygons())
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


def certified(geom, center, refl, bounds):
    """Which rows of the bound pass bounds over refl the window certificate
    holds for, restated from the module docstring: the disc of radius r
    leaves out the box center, and the widened sector theta +- half lies
    strictly between the sorted angles at positions j - 3 and j + 2."""
    bound, theta, pos = bounds
    ratio, half = geom._sector(center, refl, bound)
    n, ext = len(geom.pts), geom._cert_angles
    return (ratio < 1.0) & (ext[pos + n - 3] < theta - half) & (theta + half < ext[pos + n + 2])


def uncertified(bounds, n):
    """The bound pass bounds with its sorted positions moved past every
    angle of an n-point loop, so that no row keeps its bound."""
    bound, theta, pos = bounds
    return bound, theta, pos + 3 * n


def refine_every_row(mp):
    """Make every bound pass keep no row's bound, so that sector
    refinement refines every row of a loop that certifies."""
    bound_pass = _LoopGeometry._bound_dist2
    mp.setattr(_LoopGeometry, "_bound_dist2",
               lambda self, refl: uncertified(bound_pass(self, refl), len(self.pts)))


@st.composite
def polar_polygons(draw, n_max=40):
    """A polygon of random radii at sorted random angles about a random
    point, in either orientation: star-shaped about that point, which need
    not be its box center."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(5, n_max))
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    rad = rng.uniform(draw(st.sampled_from((0.2, 0.6, 0.95))), 1.0, n)
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]) + rng.normal(0.0, 2.0, 2)
    return pts[::-1] if draw(st.booleans()) else pts


def count_kernel_runs(mp):
    """Record the (rows, columns) of every candidate-kernel run."""
    runs = []
    kernel = symmetry.max_min_dist_candidates
    mp.setattr(symmetry, "max_min_dist_candidates",
               lambda refl, seg_a, seg_d, seg_len2, cand, **kw:
               runs.append(cand.shape) or kernel(refl, seg_a, seg_d, seg_len2, cand, **kw))
    return runs


def cannot_certify(geom):
    return geom._cert_angles is None


def is_convex(pts):
    """Whether the loop is a strictly convex polygon that winds once."""
    e = np.diff(np.vstack([pts, pts[:1]]), axis=0)
    f = np.roll(e, -1, axis=0)
    cross = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
    turning = np.arctan2(cross, (e * f).sum(axis=1)).sum()
    same = (cross > 0.0).all() or (cross < 0.0).all()
    return bool(same and abs(abs(turning) - 2.0 * np.pi) < 1e-6)


def star_shaped_margin(pts, c):
    """How clearly the loop is star-shaped about c, in units of its box's
    larger side: where it winds once around c, the smallest distance of c
    inside an edge's line (negative when c lies outside one); where it
    does not, -1."""
    a = pts - c
    b = np.roll(a, -1, axis=0)
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    turns = np.arctan2(cross, (a * b).sum(axis=1)).sum() / (2.0 * np.pi)
    if abs(abs(turns) - 1.0) > 1e-6:
        return -1.0
    length = np.hypot(*(b - a).T)
    dist = np.sign(turns) * cross / np.where(length > 0.0, length, np.inf)
    return float(dist.min() / np.ptp(pts, axis=0).max())


def named_loop(cubic, name):
    """Loops of the general class, and a zigzag star that certifies."""
    traced = rq.trace_section(cubic, Plane(0.45, -0.2), 64).points
    arc = np.radians([-10.0, 20.0, 50.0, 80.0])
    return {
        "crescent": crescent_points(np.random.default_rng(3), 200, 0.0),
        "doubly wound": np.vstack([traced, traced]),
        "right triangle": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        "arc and chord": np.column_stack([np.cos(arc), np.sin(arc)]),
        "zigzag star": circle_points(0.0, 0.0, 1.0, 40) * (1.0 + 0.3 * (np.arange(40) % 2))[:, None],
    }[name]


class TestWindowCertificate:
    """On a loop that certifies, a row whose disc of candidates fits in its
    angular window keeps its window minimum as its value, with no kernel
    run; that value is the all-segments minimum, bit for bit."""

    @given(pts=certificate_loops(), seed=st.integers(0, 2**32 - 1))
    def test_certified_rows_match_all_pairs_oracle(self, pts, seed):
        geom = _LoopGeometry(synthetic_loop(pts))
        if geom._cert_angles is None:
            assert cannot_certify(geom)
            return
        rng = np.random.default_rng(seed)
        far = tuple(geom.box_center + 3.0 * geom.side * rng.uniform(-1.0, 1.0, 2))
        for center in nearby_centers(geom, rng) + [far]:
            center = np.asarray(center)
            refl = 2.0 * center - geom._scored(center)
            bounds = geom._bound_dist2(refl)
            # the rows sector refinement keeps are the certified rows: with
            # bounds 1 ulp up, a kept row returns its bound, a refined row
            # its all-segments minimum, which is at most the true bound
            bumped = (np.nextafter(bounds[0], math.inf),) + bounds[1:]
            every = np.arange(len(refl))
            kept = geom._sector_dist2(center, refl, bumped, every) == bumped[0]
            assert np.array_equal(kept, certified(geom, center, refl, bumped))
            rows = np.flatnonzero(certified(geom, center, refl, bounds))
            rows = rng.choice(rows, min(64, len(rows)), replace=False)
            assert np.array_equal(bounds[0][rows], all_segments_dist2(geom, refl[rows]))
            # sector refinement keeps these rows' bounds, running no kernel
            with pytest.MonkeyPatch.context() as mp:
                runs = count_kernel_runs(mp)
                got = geom._sector_dist2(center, refl, bounds, rows)
            assert runs == [] and np.array_equal(got, bounds[0][rows])
            # max_dist2 takes the same values
            assert geom.max_dist2(center) == geom.reflect_dist2(center).max()

    @given(pts=certificate_loops(), seed=st.integers(0, 2**32 - 1))
    def test_five_column_window_is_the_ring_window(self, pts, seed):
        # a certifying loop's 8 window segments are 5 distinct ones, and
        # the bound pass over those 5 keeps the 8-column minimum's bits
        geom = _LoopGeometry(synthetic_loop(pts))
        if cannot_certify(geom):
            return
        rng = np.random.default_rng(seed)
        far = tuple(geom.box_center + 3.0 * geom.side * rng.uniform(-1.0, 1.0, 2))
        for center in nearby_centers(geom, rng) + [far]:
            refl = 2.0 * np.asarray(center) - geom.pts
            five = geom._window(refl)[0].T
            eight = reference_window(geom.pts, refl)
            assert five.shape == (len(refl), 5)
            assert (five[:, :, None] == eight[:, None, :]).any(axis=2).all()
            assert (eight[:, :, None] == five[:, None, :]).any(axis=2).all()
            if len(geom.pts) >= 5:
                assert all(len(set(row)) == 5 for row in five.tolist())
            ring = symmetry.max_min_dist_candidates(
                refl, geom.seg_a, geom.seg_d, geom.seg_len2, eight)
            assert np.array_equal(geom._bound_dist2(refl)[0], ring)

    @pytest.mark.parametrize("n", [128, 1024])
    def test_quadric_sections_certify_every_row(self, n, monkeypatch):
        scans = []
        refine = _LoopGeometry._all_dist2
        monkeypatch.setattr(_LoopGeometry, "_all_dist2",
                            lambda self, refl: scans.append(len(refl)) or refine(self, refl))
        runs = count_kernel_runs(monkeypatch)
        for spec in ("sphere", "cylinder:1,10", "hyperboloid:1,2", "paraboloid:2,1"):
            prof = rq.parse_profile(spec)
            for m, frac in ((0.1, -0.4), (0.3, 0.0), (0.45, 0.2)):
                loop = rq.trace_section(prof, Plane(m, frac * prof.q), n)
                geom = _LoopGeometry(loop)
                center = np.array([0.0, 0.5 * (loop.z_lo + loop.z_hi)])
                refl = 2.0 * center - geom._scored(center)
                bounds = geom._bound_dist2(refl)
                assert certified(geom, center, refl, bounds).all()
                del runs[:]
                got = geom._sector_dist2(center, refl, bounds, np.arange(len(refl)))
                assert runs == [] and np.array_equal(got, bounds[0])
                assert rq.centrality(loop, 1e-4).central
                # one kernel run, the bound pass over the scored rows: no
                # row was refined
                assert runs == [(len(refl), symmetry._WINDOW_SEGS)]
        # no all-pairs scan
        assert scans == []

    @given(poly=st.one_of(polygons(), polar_polygons()))
    def test_certifies_exactly_the_star_shaped_loops(self, poly):
        # a loop that is star-shaped about its box center by a clear margin
        # certifies, and one that is clearly not does not
        geom = _LoopGeometry(synthetic_loop(poly))
        star = star_shaped_margin(poly, geom.box_center)
        if star > 1e-9:
            assert not cannot_certify(geom)
        elif star < -1e-9:
            assert cannot_certify(geom)

    @pytest.mark.parametrize("name", ["crescent", "doubly wound", "right triangle",
                                      "arc and chord"])
    def test_named_loops_never_certify(self, cubic, name):
        # the crescent's box center lies in its hollow, and a doubly wound
        # loop's sorted angles interleave its two turns; a convex loop's
        # box center may lie on its boundary, the triangle's on its
        # hypotenuse, the arc's on its chord, so these two convex loops are
        # in the general class too
        pts = named_loop(cubic, name)
        assert cannot_certify(_LoopGeometry(synthetic_loop(pts)))
        assert is_convex(pts) == (name in ("right triangle", "arc and chord"))

    def test_zigzag_star_certifies(self, cubic):
        # not convex, but star-shaped about its box center
        pts = named_loop(cubic, "zigzag star")
        assert not is_convex(pts)
        assert not cannot_certify(_LoopGeometry(synthetic_loop(pts)))

    def test_nan_certifies_nothing(self, sphere):
        loop = rq.trace_section(sphere, Plane(0.3, 0.1), 256)
        geom = _LoopGeometry(loop)
        center = np.array([0.0, 0.5 * (loop.z_lo + loop.z_hi)])
        refl = 2.0 * center - geom._scored(center)
        bounds = geom._bound_dist2(refl)
        want = bounds[0].copy()
        bounds[0][7] = math.nan
        exact = certified(geom, center, refl, bounds)
        assert not exact[7] and exact.sum() == len(refl) - 1
        # the nan row is refined over every segment; the others keep their bounds
        got = geom._sector_dist2(center, refl, bounds, np.arange(len(refl)))
        assert got[7] == all_segments_dist2(geom, refl[7:8])[0]
        assert np.array_equal(np.delete(got, 7), np.delete(want, 7))

    @given(case=bounded_loops(), tol=st.sampled_from((1e-5, 1e-4, 3e-3)))
    @example(case=(WIGGLY[128], True), tol=1e-4)
    @example(case=(WIGGLY[1024], False), tol=1e-4)
    def test_certificate_changes_no_bits(self, case, tol):
        loop, free = case
        geom = _LoopGeometry(loop)
        centers = trial_centers(geom, np.random.default_rng(len(loop.points)))
        with_cert = [rq.centrality(loop, tol, free_center=free)]
        with_cert += [rq.asymmetry_at(loop, c) for c in centers]
        with pytest.MonkeyPatch.context() as mp:
            refine_every_row(mp)
            plain = [rq.centrality(loop, tol, free_center=free)]
            plain += [rq.asymmetry_at(loop, c) for c in centers]
        assert repr(with_cert) == repr(plain)  # bits, signed zeros too


def never_takes_the_bound(geom):
    """Check that no row of geom, a loop of the general class, keeps its
    bound about the box center: with every bound pass value zeroed, each
    row still takes its distance to the whole polyline, bit for bit, which
    is at most its window bound."""
    assert cannot_certify(geom)
    center = geom.box_center
    refl = 2.0 * center - geom.pts
    bound, theta, pos = geom._bound_dist2(refl)
    rows = np.arange(len(refl))
    got = geom._values(center, refl, rows, (np.zeros_like(bound), theta, pos))
    assert np.array_equal(got, all_segments_dist2(geom, refl))
    assert (got <= bound).all()


class TestLowerBound:
    """A row's distance to the whole polyline bounds its value from below
    and its window minimum from above.  A loop that certifies may keep the
    window minimum as the value; a loop of the general class never takes
    the bound: each of its rows is refined, to the lower bound itself."""

    @given(poly=polygons())
    def test_general_loops_never_take_the_bound(self, poly):
        geom = _LoopGeometry(synthetic_loop(poly))
        if cannot_certify(geom):
            never_takes_the_bound(geom)

    @pytest.mark.parametrize("name", ["crescent", "doubly wound"])
    def test_named_non_convex_loops(self, cubic, name):
        pts = named_loop(cubic, name)
        assert not is_convex(pts)
        never_takes_the_bound(_LoopGeometry(synthetic_loop(pts)))


class TestSectorRefinement:
    """On a loop that certifies, a row the window leaves open takes the
    minimum over the segments that meet its sector, or over every segment
    where r / rho is not below 1: the all-segments value, bit for bit."""

    @given(pts=certificate_loops(), seed=st.integers(0, 2**32 - 1))
    def test_refined_rows_match_all_pairs_oracle(self, pts, seed):
        geom = _LoopGeometry(synthetic_loop(pts))
        if geom._cert_angles is None:
            return
        rng = np.random.default_rng(seed)
        far = [tuple(geom.box_center + k * geom.side * rng.uniform(-1.0, 1.0, 2))
               for k in (1.0, 3.0)]
        for center in nearby_centers(geom, rng) + far:
            center = np.asarray(center)
            refl = 2.0 * center - geom._scored(center)
            rows = rng.choice(len(refl), min(64, len(refl)), replace=False)
            want = all_segments_dist2(geom, refl[rows])
            bounds = geom._bound_dist2(refl)
            assert np.array_equal(geom._sector_dist2(center, refl, bounds, rows), want)
            # every row refined in its sector, certified or not
            refined = geom._sector_dist2(center, refl, uncertified(bounds, len(geom.pts)), rows)
            assert np.array_equal(refined, want)
            # every evaluation takes these values
            assert np.array_equal(geom.reflect_dist2(center, rows), want)
            assert geom.max_dist2(center) == geom.reflect_dist2(center).max()

    def test_far_rows_of_a_thin_loop_take_every_segment(self, monkeypatch):
        # box-normalised, r is measured in units of the short half-width:
        # reflections far out along the long axis have r / rho >= 1
        ang = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        pts = np.column_stack([np.cos(ang), 0.02 * np.sin(ang)])
        geom = _LoopGeometry(synthetic_loop(pts))
        assert geom._cert_angles is not None
        n = len(geom.pts)
        center = np.array([3.0 * geom.side, 0.01])
        refl = 2.0 * center - geom.pts
        bounds = geom._bound_dist2(refl)
        assert (geom._sector(center, refl, bounds[0])[0] >= 1.0).all()
        # 64 rows of 64 segments each run in blocks of 8 rows, 8 n pairs
        runs = count_kernel_runs(monkeypatch)
        got = geom._sector_dist2(center, refl, bounds, np.arange(n))
        assert runs == [(8, 64)] * 8
        assert np.array_equal(got, all_segments_dist2(geom, refl))
        # about a center near the loop, rows that take every segment and
        # rows of narrow sectors share the blocks, widest first
        center = np.array([0.5, 0.0])
        refl = 2.0 * center - geom.pts
        bounds = uncertified(geom._bound_dist2(refl), n)
        ratio = geom._sector(center, refl, bounds[0])[0]
        assert (ratio >= 1.0).any() and (ratio < 1.0).any()
        del runs[:]
        got = geom._sector_dist2(center, refl, bounds, np.arange(n))
        assert np.array_equal(got, all_segments_dist2(geom, refl))
        assert sum(rows for rows, _ in runs) == n
        assert all(rows * cols <= symmetry._BLOCK_ROWS * n for rows, cols in runs)
        widths = [cols for _, cols in runs]
        assert widths[0] == n and widths[-1] < n and widths == sorted(widths, reverse=True)


def traced_or_skip(make):
    """make(), or no example where its loop escapes the domain."""
    try:
        return make()
    except rq.LoopEscapesDomain:
        assume(False)


@st.composite
def non_convex_sections(draw):
    """A traced section of a wiggly table, F = 2 + amp sin(10 z), or of a
    noisy sphere table: y-mirror loops that are not convex, some of the
    general class (wiggly ones at the steeper slopes)."""
    m, beta = draw(st.floats(0.1, 0.6)), draw(st.floats(-0.3, 0.3))
    n = draw(st.sampled_from((32, 128, 1024)))
    if draw(st.booleans()):
        amp = draw(st.sampled_from((0.3, 0.9, 1.5, 1.9)))
        return traced_or_skip(lambda: wiggly_section(n, amp, m, beta))
    prof = noisy_table(draw(st.integers(0, 4)))
    return traced_or_skip(lambda: rq.trace_section(prof, Plane(m, beta), n))


@st.composite
def exact_loops(draw):
    """A loop of either class: a polar polygon of random radii in either
    orientation, a zigzag or 5-lobed star, a wiggly or noisy-table section,
    a noisy circle of more than 500 points, a crescent, or a doubly wound
    loop."""
    kind = draw(st.sampled_from(("polar", "zigzag", "lobed", "section", "noisy circle",
                                 "crescent", "doubly wound")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "polar":
        return draw(polar_polygons(n_max=200))
    if kind == "section":
        return draw(non_convex_sections()).points
    if kind == "noisy circle":
        return noisy_circle(draw(st.integers(501, 900)), draw(st.sampled_from((0.01, 0.05))),
                            seed=draw(st.integers(0, 10_000)))
    if kind == "crescent":
        return crescent_points(rng, draw(st.sampled_from((60, 400, 900))),
                               draw(st.sampled_from((0.0, 1e-3, 0.03))))
    if kind == "doubly wound":
        once = draw(polar_polygons(n_max=100))
        return np.vstack([once, once])
    n = draw(st.integers(10, 512))
    t = 2.0 * np.pi * np.arange(n) / n
    depth = draw(st.floats(0.1, 0.6))
    rad = 1.0 + depth * (np.arange(n) % 2 if kind == "zigzag" else np.cos(5.0 * t))
    pts = rad[:, None] * np.column_stack([np.cos(t), np.sin(t)])
    return pts[::-1] if draw(st.booleans()) else pts


class TestExactRows:
    """Every row's value is its distance to the whole polyline, bit for
    bit the all-pairs scan's, on a loop of either class and about any
    center."""

    @given(pts=exact_loops(), seed=st.integers(0, 2**32 - 1))
    @example(pts=WIGGLY[1024].points, seed=0)
    @example(pts=GENERAL[2046].points, seed=0)
    def test_every_row_is_the_all_pairs_value(self, pts, seed):
        geom = _LoopGeometry(synthetic_loop(pts))
        rng = np.random.default_rng(seed)
        span = geom.side
        centers = [geom.box_center, (0.0, geom.box_center[1])] + [
            geom.box_center + rng.uniform(-span, span, 2) for _ in range(2)]
        for center in centers:
            center = np.asarray(center)
            want = all_pairs_dist2(geom, 2.0 * center - geom.pts)
            assert np.array_equal(geom.reflect_dist2(center, np.arange(len(pts))), want)
            assert geom.max_dist2(center) == want[: len(geom._scored(center))].max()

    @pytest.mark.parametrize("kind, certifies", [
        ("zigzag star", True), ("5-lobed star", True), ("wiggly", True), ("noisy table", True),
        ("steep wiggly", False), ("noisy circle", False), ("crescent", False),
        ("doubly wound", False)])
    def test_both_classes_are_drawn(self, cubic, kind, certifies):
        t = 2.0 * np.pi * np.arange(600) / 600
        pts = {
            "zigzag star": named_loop(cubic, "zigzag star"),
            "5-lobed star": (1.0 + 0.3 * np.cos(5.0 * t))[:, None]
            * np.column_stack([np.cos(t), np.sin(t)]),
            "wiggly": WIGGLY[128].points,
            "noisy table": rq.trace_section(noisy_table(0), Plane(0.5, 0.0), 128).points,
            "steep wiggly": wiggly_section(128, 1.9, 0.6, 0.0).points,
            "noisy circle": noisy_circle(600, 0.01),
            "crescent": crescent_points(np.random.default_rng(3), 400, 1e-3),
            "doubly wound": named_loop(cubic, "doubly wound"),
        }[kind]
        assert cannot_certify(_LoopGeometry(synthetic_loop(pts))) != certifies


SRC = str(Path(__file__).resolve().parent.parent / "src")

COLD_PROBE = """
import sys
import warnings
import numpy as np
import revquad as rq
for spec in ("sphere", "quadric:-0.3,0.2,1.5,1"):
    prof = rq.parse_profile(spec)
    assert rq.detect_quadric(prof, 0.1 * prof.q, 17, 1024, 1e-4).is_quadric, spec
z = np.linspace(-1.0, 1.0, 200)
table = rq.make_sampled_profile(z, ((0.3 * z + 0.2) * z - 0.1) * z + 1.7)
for prof in (rq.parse_profile("poly:2,0,0,1;1"), table):
    assert not rq.detect_quadric(prof, 0.1 * prof.q, 17, 1024, 1e-4).is_quadric
loop = rq.trace_section(rq.parse_profile("poly:1,0,1,0,1;1"), rq.Plane(0.4, -0.2), 2048)
assert not rq.centrality(loop, 1e-4, free_center=True).central
wiggly = rq.make_sampled_profile(z := np.linspace(-1.0, 1.0, 400), 2.0 + 0.3 * np.sin(10.0 * z))
assert not rq.centrality(rq.trace_section(wiggly, rq.Plane(0.4, 0.0), 128), 1e-4).central
print(repr(rq.centrality(np.array(eval(sys.stdin.read())), 1e-4, free_center=True)))
loaded = [name for name in sys.modules if name.startswith("scipy")]
assert not loaded, f"a run loaded {loaded}"
"""


def test_quadric_runs_leave_scipy_spatial_out():
    # a fresh interpreter: this one has imported scipy already.  Quadric,
    # non-quadric and sampled verdicts, a free centrality test on a traced
    # loop, a test of a 254-point wiggly one, which is not convex, and a
    # free test of a 1500-point noisy circle of the general class load no
    # scipy module: every score is divided by the loop's box, with no hull,
    # and every row is refined in sectors or by the all-pairs scan, with no
    # k-d tree
    pts = noisy_circle(1500)
    out = subprocess.run([sys.executable, "-c", COLD_PROBE], input=repr(pts.tolist()),
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout == repr(rq.centrality(pts, 1e-4, free_center=True)) + "\n"


def diameter_scaled_oracle(pts, center):
    """The brute-force asymmetry divided by the chart diameter D, as scores
    were before the box's larger side s replaced it."""
    refl = 2.0 * np.asarray(center, dtype=float) - pts
    return float(oracle_distances(pts, refl).max()) / oracle_diameter(pts)


def check_side_against_diameter(pts, ratio=math.sqrt(2.0), center=None):
    """s, the larger side of the bounding box, is what _LoopGeometry
    divides by, and s <= D <= ratio s for the brute-force diameter D.  With
    a center, the score times s / D is the diameter-normalised oracle's."""
    pts = np.asarray(pts, dtype=float)
    side = _LoopGeometry(synthetic_loop(pts)).side
    assert side == float(np.ptp(pts, axis=0).max())
    exact = oracle_diameter(pts)
    assert side <= exact * (1.0 + 2.0**-51) and exact <= ratio * side * (1.0 + 2.0**-51)
    if center is not None:
        want = diameter_scaled_oracle(pts, center)
        got = rq.asymmetry_at(pts, center) * side / exact
        assert abs(got - want) <= 1e-15 + 1e-9 * want
    return side


class TestChartDiameter:
    """Every score is divided by s = max(w, h), the larger side of the
    loop's bounding box.  The chart diameter D, the largest distance
    between two vertices, divided scores before and is now a brute-force
    oracle only (oracle_diameter): s <= D <= sqrt 2 s on every loop, D / s
    is within 1e-4 of 1 on a traced loop, and a score times s / D is the
    diameter-normalised oracle's."""

    # (spec, steep plane); every profile is also cut at a shallow slope
    CASES = (
        ("sphere", Plane(0.8, 0.0)),
        ("hyperboloid:1,2", Plane(0.6, 0.4)),
        ("poly:2,0,0,1;1", Plane(0.45, -0.2)),
        ("poly:1,0,-1,0,0.05;1", Plane(0.65, 0.2)),
    )

    @pytest.mark.parametrize("n", [128, 512, 1024, 2048])
    def test_exact_on_traced_loops(self, n):
        # 2n - 2 points, 254 to 4094, mirror symmetric about the z axis, so
        # their box's sides are their widths along and across the axis;
        # scored at the midpoint and off it where the oracle is quick
        for spec, steep in self.CASES:
            prof = rq.parse_profile(spec)
            for plane in (Plane(0.02, 0.3 * prof.q), steep):
                loop = rq.trace_section(prof, plane, n)
                mid = (0.0, 0.5 * (loop.z_lo + loop.z_hi))
                for center in ((mid, (0.01, mid[1] + 0.02)) if n <= 512 else (None,)):
                    check_side_against_diameter(loop.points, 1.0001, center)

    @pytest.mark.parametrize("noise", [0.01, 0.05, 0.3])
    def test_exact_on_noisy_circles(self, noise):
        # loops of 100-3000 points that are not convex
        for seed in range(6):
            rng = np.random.default_rng([seed, int(noise * 100)])
            n = int(rng.integers(100, 3001))
            pts = circle_points(0.0, 0.0, 1.0, n) + rng.normal(0.0, noise, (n, 2))
            check_side_against_diameter(pts, center=(0.02, -0.01) if n <= 1000 else None)

    @pytest.mark.parametrize("scale", [1e-150, 1e-158, 1e-160, 1e-162, 1e-170, 1e150, 1e153])
    def test_hull_of_tiny_and_huge_coordinates(self, scale):
        # s takes no squares: where the squares of a noisy circle's
        # coordinates underflow or overflow, its s is the unscaled circle's
        # times the scale, to rounding; the box is the loop's axis-aligned hull
        rng = np.random.default_rng(0)
        unit = circle_points(0.0, 0.0, 1.0, 300) + rng.normal(0.0, 0.05, (300, 2))
        pts = scale * unit
        side = symmetry._box(pts)[2]
        assert side == float(np.ptp(pts, axis=0).max())
        assert abs(side / scale - check_side_against_diameter(unit)) <= 1e-15
        if scale >= 1e-158:
            assert side == _LoopGeometry(synthetic_loop(pts)).side

    @pytest.mark.parametrize("n", [16, 1024])
    def test_orientation_start_and_winding(self, cubic, n):
        pts = rq.trace_section(cubic, Plane(0.45, -0.2), n).points
        assert is_convex(pts)
        side = check_side_against_diameter(pts, 1.0001)
        copies = {
            "clockwise": pts[::-1],
            "start-rotated": np.roll(pts, n // 3, axis=0),
            "doubly wound": np.vstack([pts, pts]),
        }
        for name, copy in copies.items():
            geom = _LoopGeometry(synthetic_loop(copy))
            assert geom.side == side, name
            # a doubly wound loop's sorted angles interleave its two turns
            assert cannot_certify(geom) == (name == "doubly wound"), name

    def test_parallel_opposite_edges(self):
        # a centrally symmetric hexagon, every edge exactly parallel to its
        # opposite: 0 about its center, and D / s = sqrt(244) / 12
        hexagon = np.array([[4.0, -6.0], [5.0, -6.0], [1.0, 5.0],
                            [-4.0, 6.0], [-5.0, 6.0], [-1.0, -5.0]])
        for pts in (hexagon, hexagon[::-1], np.roll(hexagon, 2, axis=0)):
            assert check_side_against_diameter(pts, center=(0.0, 0.0)) == 12.0
            assert rq.asymmetry_at(pts, (0.0, 0.0)) == 0.0

    def test_collinear_and_repeated_points(self):
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert check_side_against_diameter(line, 1.0, center=(1.0, 0.0)) == 2.0
        # a diagonal attains D = sqrt 2 s
        back_and_forth = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
        assert check_side_against_diameter(back_and_forth, center=(1.0, 1.0)) == 2.0
        assert oracle_diameter(back_and_forth) == 2.0 * math.sqrt(2.0)
        assert rq.asymmetry_at(synthetic_loop(back_and_forth), (1.0, 1.0)) == 0.0
        # rounded coordinates on a slanted line, in shuffled order
        t = np.random.default_rng(5).permutation(np.linspace(-1.0, 3.0, 9))
        slanted = np.column_stack([0.1 * t, 0.7 * t])
        check_side_against_diameter(slanted, center=(0.1, 0.7))

    def test_degenerate_loops_rejected(self):
        for pts in (np.tile([[0.3, -0.1]], (5, 1)),
                    [[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0, 2.0],
                    [[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]],
                    [[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]]):
            with pytest.raises(DegenerateLoop):
                rq.asymmetry_at(pts, (0.0, 0.0))

    @given(poly=polygons(), shift=st.integers(0, 200))
    def test_matches_oracle_and_ignores_vertex_order(self, poly, shift):
        # the score is taken about the box center, the center centrality
        # scores free
        center = tuple(0.5 * (poly.min(axis=0) + poly.max(axis=0)))
        side = check_side_against_diameter(poly, center=center)
        for copy in (np.roll(poly, shift, axis=0), poly[::-1]):
            assert _LoopGeometry(synthetic_loop(copy)).side == side


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("free_center", [False, True])
    def test_overflowing_loop_rejected(self, free_center):
        # a 64-point ellipse: scaled by 8e307 its box's width overflows, so
        # it has no scale to be scored at.  At 1e150, 1e160 and 1e300 the
        # squares of its lengths would overflow, but it is scored at its
        # box's scale, as at scale 1
        t = 2.0 * np.pi * np.arange(64) / 64
        ellipse = np.column_stack([2.0 * np.cos(t), np.sin(t) + 0.3])
        with pytest.raises(InvalidDomain, match="overflow"):
            rq.centrality(ellipse * 8e307, 1e-4, free_center=free_center)
        for scale in (1e150, 1e160, 1e300):
            rep = rq.centrality(ellipse * scale, 1e-4, free_center=free_center)
            assert rep.central is True
            assert rep.asymmetry <= 1e-12
            assert rep.center[0] / scale == pytest.approx(0.0, abs=1e-12)
            assert rep.center[1] / scale == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("free", [False, True])
    def test_tiny_and_huge_copies_score_as_at_scale_one(self, cubic, free):
        # scored at scale 1, the 30-point cubic section is not central; its
        # squared distances would underflow to 0 at 2^-535, and it would
        # score 0.0, but every copy is scored at its box's scale: a copy by
        # a power of two keeps every bit, any other scale the score to
        # rounding
        pts = rq.trace_section(cubic, Plane(0.4, 0.0), 16).points
        want = rq.centrality(pts, 1e-4, free_center=free)
        assert want.asymmetry == 0.012837866951651851 and not want.central
        for bound in (False, True):
            for k in (-535, -1000, 500, 1000):
                got = rq.centrality(np.ldexp(pts, k), 1e-4, free_center=free, bound=bound)
                assert got == CentralityReport(tuple(np.ldexp(want.center, k).tolist()),
                                               want.asymmetry, 1e-4, False)
            for scale in (1e-200, 1e200):
                got = rq.centrality(pts * scale, 1e-4, free_center=free, bound=bound)
                assert got.asymmetry == pytest.approx(want.asymmetry, rel=1e-12)
        tiny = np.ldexp(pts, -535)
        assert rq.asymmetry_at(tiny, np.ldexp(want.center, -535)) == want.asymmetry

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

    @given(case=scored_loops(), tol=st.sampled_from((1e-5, 1e-4, 3e-3)))
    def test_reported_center_reproduces_verdict(self, case, tol):
        loop, free = case
        rep = rq.centrality(loop, tol, free_center=free)
        assert rep.central == (rq.asymmetry_at(loop, rep.center) <= tol)

    @given(case=st.one_of(bounded_loops(), scored_loops(), st.tuples(polygons(), st.booleans())),
           tol=st.sampled_from((1e-5, 1e-4, 3e-3)), bound=st.booleans())
    @example(case=(WIGGLY[128], False), tol=1e-4, bound=True)
    @example(case=(WIGGLY[1024], True), tol=1e-4, bound=False)
    @example(case=(GENERAL[254], False), tol=1e-4, bound=True)
    @example(case=(GENERAL[2046], True), tol=1e-4, bound=False)
    def test_score_is_asymmetry_at_the_box_midpoint(self, case, tol, bound):
        # a loop the midpoint bound does not settle is scored once, at the
        # box midpoint b, with the bits asymmetry_at gives there
        loop, free = case
        pts = np.asarray(getattr(loop, "points", loop))
        b = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        if not free:
            b[0] = 0.0
        if bound and not free and symmetry._midpoint_bound(pts, tol) is not None:
            return
        scored = []
        evaluate = _LoopGeometry.max_dist2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_LoopGeometry, "max_dist2",
                       lambda self, center: scored.append(tuple(center)) or evaluate(self, center))
            rep = rq.centrality(loop, tol, free_center=free, bound=bound)
        # scored on the loop scaled by 2^-e, s = m 2^e with m in [1/2, 1)
        e = math.frexp(float(np.ptp(pts, axis=0).max()))[1]
        assert scored == [tuple(np.ldexp(b, -e))]
        assert repr(rep.center) == repr(tuple(b.tolist()))
        assert rep.asymmetry == rq.asymmetry_at(loop, b)

    @given(case=st.one_of(bounded_loops(), scored_loops()), seed=st.integers(0, 2**32 - 1))
    def test_no_centre_scores_below_the_midpoint_bound(self, case, seed):
        # score(b) <= 2 score(c) for c on the axis of a traced loop, and
        # score(b) <= (1 + sqrt 2) score(c) for any c (module docstring)
        loop, _ = case
        pts = loop.points
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        rng = np.random.default_rng(seed)
        free = rq.centrality(loop, 1e-4, free_center=True).asymmetry
        for c in lo + rng.uniform(-0.25, 1.25, (3, 2)) * (hi - lo):
            assert free <= (1.0 + math.sqrt(2.0)) * rq.asymmetry_at(loop, c) * (1.0 + 1e-9)
        if symmetry._mirror_half(pts) is None:
            return
        pinned = rq.centrality(loop, 1e-4).asymmetry
        for t in lo[1] + rng.uniform(-0.25, 1.25, 3) * (hi[1] - lo[1]):
            assert pinned <= 2.0 * rq.asymmetry_at(loop, (0.0, t)) * (1.0 + 1e-9)


@st.composite
def mirror_loops(draw):
    """A traced section of a quadric or of a cubic perturbation of one, at
    a drawn slope, intercept and n in [256, 2048]."""
    c0, c1, c2 = draw(st.floats(1.8, 2.5)), draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.5, 0.5))
    c3 = draw(st.sampled_from((0.0, 1.0))) * draw(st.floats(-0.8, 0.8))
    prof = rq.parse_profile(f"poly:{c0!r},{c1!r},{c2!r},{c3!r};1")
    plane = Plane(draw(st.floats(0.05, 0.5)), draw(st.floats(-0.5, 0.5)))
    try:
        return rq.trace_section(prof, plane, draw(st.integers(256, 2048)))
    except rq.RevquadError:
        assume(False)


class TestMidpointBound:
    @given(loop=mirror_loops(), tol=st.sampled_from((1e-6, 1e-4, 1e-2)))
    def test_bound_report_brackets_the_exact_one(self, loop, tol):
        exact = rq.centrality(loop, tol)
        got = rq.centrality(loop, tol, bound=True)
        if got != exact:
            assert got.central and exact.central
            assert got.center == exact.center
            assert exact.asymmetry <= got.asymmetry <= tol

    @given(loop=mirror_loops())
    def test_bound_and_exact_divide_by_one_side(self, loop):
        # the bound's rows, each against the two segments at vertex
        # (h + i - 1) mod n, recomputed by the (N, K, 2) reference kernel,
        # give the bound over the exact test's s, bit for bit; the exact
        # score is its own numerator over that s
        pts = loop.points
        n, h = len(pts), symmetry._mirror_half(pts)
        geom = _LoopGeometry(loop)
        center = np.array([0.0, geom.box_center[1]])
        cand = (h - 2 + np.arange(h)[:, None] + np.arange(2)) % n
        d2 = reference_min_dist2_candidates(2.0 * center - pts[:h], geom.seg_a, geom.seg_d,
                                            geom.seg_len2, cand)
        assert symmetry._midpoint_bound(pts, 1e300).asymmetry == math.sqrt(d2.max()) / geom.side
        assert rq.asymmetry_at(loop, center) == math.sqrt(geom.max_dist2(center)) / geom.side
        assert geom.side == symmetry._box(pts)[2] == float(np.ptp(pts, axis=0).max())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("free", [False, True])
    @pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e-165, 1e-162, 1e-158, 1e-150,
                                       1.0, 1e150, 1e153, 1e155])
    def test_bound_and_exact_agree_across_scales(self, sphere, cubic, scale, free):
        # where the exact test raises, the bound declines, so the error is
        # the exact one's; elsewhere the center and verdict are the exact
        # ones, at no lower a score.  Both score the loop at its box's
        # scale, so no squared length underflows or overflows at any of
        # these scales
        for prof, plane in ((sphere, Plane(0.5, 0.3)), (cubic, Plane(0.4, 0.0))):
            pts = rq.trace_section(prof, plane, 128).points * scale
            outcomes = []
            for bound in (False, True):
                try:
                    outcomes.append(rq.centrality(pts, 1e-4, free_center=free, bound=bound))
                except rq.RevquadError as exc:
                    outcomes.append((type(exc), str(exc)))
            exact, got = outcomes
            if isinstance(exact, tuple):
                assert got == exact
            else:
                assert (got.center, got.central) == (exact.center, exact.central)
                assert got.asymmetry >= exact.asymmetry

    def test_quadric_sections_take_the_bound(self, sphere, hyperboloid, paraboloid):
        for prof in (sphere, hyperboloid, paraboloid):
            loop = rq.trace_section(prof, Plane(0.3, 0.1 * prof.q), 1024)
            passed = symmetry._midpoint_bound(loop.points, 1e-4)
            assert passed is not None
            assert passed == rq.centrality(loop, 1e-4, bound=True)
            assert passed.center == (0.0, 0.5 * (loop.z_lo + loop.z_hi))

    def test_other_loops_get_the_exact_report(self, sphere):
        circle = rq.trace_section(sphere, Plane(0.0, 0.2), 512)
        loop = rq.trace_section(sphere, Plane(0.3, 0.2), 512)
        nudged = loop.points.copy()
        nudged[5, 0] *= 1.0 + 1e-9
        # not y-mirrors, and a y-mirror whose bound would pass, scored free
        for pts, free, mirror in ((circle.points, False, False), (nudged, False, False),
                                  (loop.points, True, True)):
            assert (symmetry._midpoint_bound(pts, 1e-3) is not None) == mirror
            exact = rq.centrality(pts, 1e-3, free_center=free)
            assert exact.central
            assert repr(rq.centrality(pts, 1e-3, free_center=free, bound=True)) == repr(exact)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_declines_the_bound(self, sphere):
        pts = rq.trace_section(sphere, Plane(1.0, 0.0), 256).points
        # the box's height overflows, so the loop has no scale to be scored
        # at: both paths raise the exact one's error
        big = pts * (0.75 * np.finfo(float).max / np.abs(pts).max())
        with np.errstate(over="ignore"):
            assert symmetry._box(big)[2] == math.inf
        assert symmetry._midpoint_bound(big, 1e-4) is None
        with pytest.raises(InvalidDomain, match="overflow") as exact:
            rq.centrality(big, 1e-4)
        with pytest.raises(InvalidDomain, match="overflow") as got:
            rq.centrality(big, 1e-4, bound=True)
        assert str(got.value) == str(exact.value)
        # the widest pair's square and the turning pair's (about half of
        # it) are finite, their sum, the squared diameter, is not: s takes
        # no square, so the exact path scores the loop and the bound passes
        h = symmetry._mirror_half(pts)
        wide = 2.0 * np.abs(pts[1 : h - 1, 0]).max()
        tall = pts * (0.9 * 2.0**512 / wide)
        exact = rq.centrality(tall, 1e-4)
        got = symmetry._midpoint_bound(tall, 1e-4)
        assert got == rq.centrality(tall, 1e-4, bound=True)
        assert got.center == exact.center and exact.central
        assert exact.asymmetry <= got.asymmetry <= 1e-4


    @given(loop=non_convex_sections())
    @example(loop=WIGGLY[1024])
    def test_bound_is_at_least_the_exact_score_on_non_convex_loops(self, loop):
        # each row's exact value is its distance to the whole polyline, on
        # a loop of either class, so the bound's two segments never undercut it
        pts = loop.points
        assume(not is_convex(pts))
        got = symmetry._midpoint_bound(pts, 1e300)
        exact = rq.centrality(loop, 1e-4)
        assert got.center == exact.center
        assert got.asymmetry >= exact.asymmetry


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
