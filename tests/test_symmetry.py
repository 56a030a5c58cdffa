"""Centroid, asymmetry scoring, centrality decisions, and the midpoint
mean-value machinery."""

import math

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
    reference_max_min_dist_all,
    reference_max_min_dist_candidates,
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


def reference_score(geom, center, all_rows=False):
    """Unnormalized asymmetry through the (N, K, 2) reference kernels, on the
    rows _LoopGeometry scores: rows 0 .. h-1 of a y-mirror loop about a
    center on the axis, otherwise (or with all_rows) every row."""
    center = np.asarray(center, dtype=float)
    pts = geom.pts
    if not all_rows and geom._half is not None and center[0] == 0.0:
        pts = pts[: geom._half]
    refl = 2.0 * center - pts
    if geom._brute:
        return reference_max_min_dist_all(refl, geom.seg_a, geom.seg_d, geom.seg_len2)
    _, idx = geom._tree.query(refl, k=geom._k)
    cand = np.concatenate([idx, idx - 1], axis=1) % len(geom.pts)
    return reference_max_min_dist_candidates(refl, geom.seg_a, geom.seg_d, geom.seg_len2, cand)


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
