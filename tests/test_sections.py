"""Cutting planes, loop extent, tracing, embedding, and the slope bound."""

import math
import signal
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import revquad as rq
from revquad import sections
from revquad import (
    InvalidDomain,
    LoopEscapesDomain,
    NonSimpleSection,
    OutOfDomain,
    Plane,
    ZeroSlope,
)
from numpy.polynomial import polynomial as P

from conftest import assert_batch_matches_one_plane_calls, oracle_extent, oracle_root_extent

SQ2 = 1.0 / math.sqrt(2.0)
_TABLE_Z = np.linspace(-0.95, 0.95, 1025)
_SAMPLED_SPHERE = rq.make_sampled_profile(_TABLE_Z, 1.0 - _TABLE_Z * _TABLE_Z)
_SAMPLED_BUMP = rq.make_sampled_profile(
    _TABLE_Z, 1.5 + 0.3 * np.sin(3.0 * _TABLE_Z + 1.0) + 0.1 * _TABLE_Z**3)


class TestPlane:
    def test_fields(self):
        pl = Plane(0.5, -0.2)
        assert pl.m == 0.5 and pl.beta == -0.2

    def test_rejects_negative_slope(self):
        with pytest.raises(InvalidDomain):
            Plane(-0.1, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidDomain):
            Plane(float("nan"), 0.0)
        with pytest.raises(InvalidDomain):
            Plane(1.0, float("inf"))


class TestSectionGap:
    def test_sphere_hand_values(self, sphere):
        pl = Plane(1.0, 0.0)
        assert rq.section_gap(sphere, pl, 0.0) == 1.0
        assert rq.section_gap(sphere, pl, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert rq.section_gap(sphere, pl, SQ2) == pytest.approx(0.0, abs=1e-15)

    def test_zero_slope_rejected(self, sphere):
        with pytest.raises(ZeroSlope):
            rq.section_gap(sphere, Plane(0.0, 0.0), 0.1)

    def test_vectorized(self, sphere):
        pl = Plane(1.0, 0.0)
        zs = np.array([0.0, 0.3, 0.5])
        out = rq.section_gap(sphere, pl, zs)
        assert np.allclose(out, 1.0 - 2.0 * zs**2)


class TestSectionExtent:
    def test_cylinder_closed_form(self, cylinder):
        lo, hi = rq.section_extent(cylinder, Plane(0.5, 0.0))
        assert lo == pytest.approx(-0.5, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)

    @given(
        m=st.floats(0.05, 3.0),
        beta=st.floats(-5.0, 5.0),
    )
    def test_cylinder_any_plane(self, cylinder, m, beta):
        # roots of r^2 - ((z - beta)/m)^2 are beta -+ m r
        lo, hi = rq.section_extent(cylinder, Plane(m, beta))
        assert abs(lo - (beta - m)) <= 1e-11
        assert abs(hi - (beta + m)) <= 1e-11

    def test_sphere_diagonal(self, sphere):
        lo, hi = rq.section_extent(sphere, Plane(1.0, 0.0))
        assert lo == pytest.approx(-SQ2, abs=1e-12)
        assert hi == pytest.approx(SQ2, abs=1e-12)

    def test_steep_offcenter_sphere_plane_still_closes(self, sphere):
        # the plane z = 4x + 0.9 passes within distance 0.218 of the origin,
        # so it cuts the unit sphere in a closed loop; the extent roots are
        # the roots of the quadratic 17 z^2 - 1.8 z - 15.19
        lo, hi = rq.section_extent(sphere, Plane(4.0, 0.9))
        disc = math.sqrt(1.8**2 + 4.0 * 17.0 * 15.19)
        assert lo == pytest.approx((1.8 - disc) / 34.0, abs=1e-10)
        assert hi == pytest.approx((1.8 + disc) / 34.0, abs=1e-10)

    def test_escape_near_cylinder_edge(self, cylinder):
        # z = x + 9.8 would need to reach z = 10.8 to close
        with pytest.raises(LoopEscapesDomain):
            rq.section_extent(cylinder, Plane(1.0, 9.8))

    def test_escape_on_hyperboloid(self, hyperboloid):
        # slope above the asymptotic cone: the gap 1 + z^2 - (z/m)^2 > 0 always
        with pytest.raises(LoopEscapesDomain):
            rq.section_extent(hyperboloid, Plane(1.5, 0.0))

    def test_intercept_outside_domain(self, sphere):
        with pytest.raises(OutOfDomain):
            rq.section_extent(sphere, Plane(1.0, 1.5))

    def test_zero_slope(self, sphere):
        with pytest.raises(ZeroSlope):
            rq.section_extent(sphere, Plane(0.0, 0.0))

    @given(
        spec=st.sampled_from(("sphere", "cylinder:1,10", "hyperboloid:1,2",
                              "poly:2,0,0,1;1", "poly:1,0,-1,0,0.05;1",
                              "sampled-sphere")),
        m=st.just(0.0) | st.floats(0.05, 4.0),
        frac=st.floats(-1.2, 1.2),
    )
    def test_extent_matches_walk_oracle(self, spec, m, frac):
        # the roots and the outward walk raise the same class, or close on
        # the same crossings to within 4 ulp
        prof = _SAMPLED_SPHERE if spec == "sampled-sphere" else rq.parse_profile(spec)
        plane = Plane(m, frac * prof.q)
        outcomes = []
        for fn in (rq.section_extent, oracle_extent):
            try:
                outcomes.append(fn(prof, plane))
            except rq.RevquadError as exc:
                outcomes.append(type(exc))
        got, want = outcomes
        if isinstance(want, type):
            assert got is want
        else:
            for a, b in zip(got, want):
                assert abs(a - b) <= 4.0 * np.spacing(abs(b))

    @settings(max_examples=200)
    @given(
        spec=st.sampled_from(("sphere", "cylinder:1,10", "hyperboloid:1,2",
                              "poly:2,0,0,1;1", "poly:1,0,-1,0,0.05;1",
                              "sampled-bump")),
        m=st.sampled_from((5e-324, 1e-200, 1e200)) | st.floats(0.0, 5.0),
        frac=st.floats(-1.2, 1.2),
    )
    def test_extent_matches_scalar_bisection(self, spec, m, frac):
        # the extent returns the scalar oracle's bits and raises its error
        # classes
        prof = _SAMPLED_BUMP if spec == "sampled-bump" else rq.parse_profile(spec)
        plane = Plane(m, frac * prof.q)
        outcomes = []
        for fn in (rq.section_extent, oracle_root_extent):
            try:
                outcomes.append(fn(prof, plane))
            except rq.RevquadError as exc:
                outcomes.append(type(exc))
        got, want = outcomes
        if isinstance(want, type):
            assert got is want
        else:
            assert all(type(z) is float for z in got)
            assert [z.hex() for z in got] == [z.hex() for z in want]

    def test_extent_raises_only_where_scalar_bisection_evaluates(self, monkeypatch):
        # The gap F(z) - z^2 = -(z + 0.5)(z - 0.3)(z - 0.5)(z - 0.7) / 2 first
        # crosses at 0.3 above beta = 0; the windows at 0.5 and 0.7 are never
        # evaluated by the scalar bisection.  A profile that raises beyond
        # 0.45 must not make the extent raise.
        prof = rq.make_polynomial_profile(
            P.polysub([0.0, 0.0, 1.0], 0.5 * P.polyfromroots([-0.5, 0.3, 0.5, 0.7])), 1.0)
        plane = Plane(1.0, 0.0)
        want = rq.section_extent(prof, plane)
        evaluate = rq.Profile.eval

        def cliff(self, z):
            if np.any(np.asarray(z) > 0.45):
                raise rq.NonPositiveProfile("profile value <= 0 inside |z| < q")
            return evaluate(self, z)

        monkeypatch.setattr(rq.Profile, "eval", cliff)
        assert rq.section_extent(prof, plane) == oracle_root_extent(prof, plane) == want
        assert want[1] == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("plane", [Plane(5e-324, 0.0), Plane(1e-200, 0.3)],
                             ids=["subnormal", "tiny"])
    def test_tiny_slopes_return(self, sphere, plane):
        # the walk's step m sqrt(F) / 8 rounds to 0 on a subnormal slope and
        # never moves; the roots do not walk
        def timeout(signum, frame):
            raise TimeoutError("section_extent did not return within 10 s")

        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lo, hi = rq.section_extent(sphere, plane)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert lo <= plane.beta <= hi
        assert rq.section_gap(sphere, plane, lo) > 0.0
        assert rq.section_gap(sphere, plane, hi) > 0.0

    def test_huge_slope_escapes(self, sphere):
        # m^2 overflows, so the root step scales the gap by 1 / m^2 instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LoopEscapesDomain):
                rq.section_extent(sphere, Plane(1e200, 0.3))


class TestBatchedExtents:
    @given(
        spec=st.sampled_from(("sphere", "cylinder:1,10", "hyperboloid:1,2",
                              "poly:2,0,0,1;1", "poly:1,0,-1,0,0.05;1",
                              "sampled-bump")),
        planes=st.lists(st.tuples(st.sampled_from((0.0, 1e-200, 1e200)) | st.floats(0.0, 5.0),
                                  st.floats(-1.2, 1.2)), min_size=1, max_size=8),
    )
    def test_matches_one_plane_calls(self, spec, planes):
        prof = _SAMPLED_BUMP if spec == "sampled-bump" else rq.parse_profile(spec)
        assert_batch_matches_one_plane_calls(prof, [Plane(m, f * prof.q) for m, f in planes])

    @given(
        spec=st.sampled_from(("sphere", "cylinder:1,10", "cylinder:1,1e200", "cylinder:1,1e300")),
        planes=st.lists(st.tuples(st.sampled_from((0.0, 0.5, 1e155, 1e161, 1e200))
                                  | st.floats(0.05, 5.0),
                                  st.sampled_from((-1.0, 0.0, 1e-3, 0.1, 1.5))
                                  | st.floats(-0.99, 0.99)),
                        min_size=2, max_size=8),
    )
    def test_redone_batches_match_one_plane_calls(self, spec, planes):
        # closing planes beside horizontal ones, |beta| >= q, steep escaping
        # slopes and gap polynomials that overflow: a batch that raises is
        # redone one plane at a time, and every entry is the plane's own
        prof = rq.parse_profile(spec)
        planes = [Plane(m, f * prof.q) for m, f in planes]
        assert_batch_matches_one_plane_calls(prof, planes)
        got = sections._per_plane(sections._closing_brackets, prof, planes)
        assert [_outcome(e) for e in got] == [_closing_alone(prof, p) for p in planes]

    def test_mixed_outcomes_in_one_batch(self, cylinder, hyperboloid):
        # closing, escaping (near the domain edge and above the asymptotic
        # cone), horizontal and out-of-domain planes side by side
        planes = [Plane(0.5, 0.0), Plane(1.0, 9.8), Plane(0.0, 0.3), Plane(0.7, -10.0),
                  Plane(0.7, 0.2), Plane(1.5, 0.0)]
        assert_batch_matches_one_plane_calls(cylinder, planes)
        assert_batch_matches_one_plane_calls(hyperboloid, planes)
        kinds = [type(e) for e in sections._per_plane(sections._extents, cylinder, planes)]
        assert kinds == [tuple, LoopEscapesDomain, ZeroSlope, OutOfDomain, tuple, tuple]

    def test_root_error_stays_with_its_plane(self):
        # the second plane's gap coefficients overflow; the first closes
        prof = rq.parse_profile("cylinder:1,1e200")
        planes = [Plane(0.5, 0.0), Plane(0.5, 1e199)]
        assert_batch_matches_one_plane_calls(prof, planes)
        kinds = [type(e) for e in sections._per_plane(sections._extents, prof, planes)]
        assert kinds == [tuple, InvalidDomain]

    def test_sphere_batch_reaching_q(self, sphere):
        # the steep planes' roots sit within a few ulp of z = +-q
        planes = [Plane(m, beta) for m in (1.0, 1e6, 1e9, 1e15) for beta in (-0.999, 0.0, 0.5)]
        assert_batch_matches_one_plane_calls(sphere, planes)

    @pytest.mark.parametrize("bad, failing", [
        (lambda z: z > 0.45, 0),  # the window of the first plane's upper root
        (lambda z: abs(z - 5.0 ** -0.5) < 1e-10, 2),  # inside the third plane's window
    ], ids=["window", "bisection"])
    def test_failing_point_fails_only_its_plane(self, sphere, monkeypatch, bad, failing):
        # A profile that raises at some points fails a batch whose planes
        # read one; the batch is redone one plane at a time, so only the
        # plane that visits such a point fails, with that point's error.
        evaluate = rq.Profile.eval

        def cliff(self, z):
            if np.any(bad(np.asarray(z))):
                raise rq.NonPositiveProfile("profile value <= 0 inside |z| < q")
            return evaluate(self, z)

        monkeypatch.setattr(rq.Profile, "eval", cliff)
        # upper roots 0.841, 0.411 and 1/sqrt(5), the window read by the
        # closing decision at 1/sqrt(5) +- 4.5e-10
        planes = [Plane(1.0, 0.3), Plane(1.0, -0.5), Plane(0.5, 0.0)]
        assert_batch_matches_one_plane_calls(sphere, planes)
        kinds = [type(e) for e in sections._per_plane(sections._extents, sphere, planes)]
        assert [k for k, kind in enumerate(kinds) if kind is not tuple] == [failing]
        assert kinds[failing] is rq.NonPositiveProfile


def _outcome(entry):
    """A batch entry by repr, or an error by class and message."""
    if isinstance(entry, rq.RevquadError):
        return type(entry), str(entry)
    return repr(entry)


def _closing_alone(prof, plane):
    """The plane's closing decision in a batch of its own, as an _outcome."""
    try:
        return _outcome(sections._closing_brackets(prof, [plane])[0])
    except rq.RevquadError as exc:
        return _outcome(exc)


def _widened(extent, q):
    """extent stretched by a fifth of its width on each side, inside |z| < q:
    gap values below zero between its ends make the cut not a single loop."""
    lo, hi = extent
    w = 0.2 * (hi - lo)
    return max(lo - w, -0.99 * q), min(hi + w, 0.99 * q)


def _traced_alone(prof, plane, n, wide):
    """trace_section of the plane alone, section_extent giving the wide
    extent for the plane of wide, a (plane, extent) pair or None: a
    (class, message) pair on error, the loop's extent and point bytes
    otherwise."""
    extent = sections.section_extent

    def patched(profile, pl):
        return wide[1] if wide is not None and pl is wide[0] else extent(profile, pl)

    with mock.patch.object(sections, "section_extent", patched):
        try:
            loop = rq.trace_section(prof, plane, n)
        except rq.RevquadError as exc:
            return type(exc), str(exc)
    return loop.plane, loop.z_lo, loop.z_hi, loop.points.tobytes()


class TestBatchedTraces:
    @given(
        spec=st.sampled_from(("sphere", "poly:1,0,-1,0,0.05;1", "sampled-bump")),
        n=st.sampled_from((16, 128, 1024)),
        planes=st.lists(st.tuples(st.sampled_from((1e200,)) | st.floats(0.05, 3.0),
                                  st.floats(-1.2, 1.2)),
                        min_size=1, max_size=6),
        wide_at=st.integers(0, 5),
    )
    @settings(deadline=None)
    def test_matches_one_plane_calls(self, spec, n, planes, wide_at):
        # closing planes, planes whose extent raises (steep escaping slopes,
        # |beta| >= q) and one plane traced over a wide extent, in one batch:
        # _trace_many, redone one plane at a time when it raises, gives each
        # plane what trace_section gives it alone
        prof = _SAMPLED_BUMP if spec == "sampled-bump" else rq.parse_profile(spec)
        planes = [Plane(m, f * prof.q) for m, f in planes]
        extents = sections._per_plane(sections._extents, prof, planes)
        k, wide = wide_at % len(planes), None
        if not isinstance(extents[k], rq.RevquadError):
            extents[k] = _widened(extents[k], prof.q)
            wide = planes[k], extents[k]
        closed = [k for k, e in enumerate(extents) if not isinstance(e, rq.RevquadError)]
        traced = sections._per_plane(sections._trace_many, prof, [planes[k] for k in closed],
                                     sections._sample_levels(n),
                                     extents=[extents[k] for k in closed])
        for k, loop in zip(closed, traced):
            extents[k] = loop
        got = [(type(e), str(e)) if isinstance(e, rq.RevquadError)
               else (e.plane, e.z_lo, e.z_hi, e.points.tobytes()) for e in extents]
        assert got == [_traced_alone(prof, plane, n, wide) for plane in planes]

    def test_wide_extent_fails_only_its_plane(self, sphere):
        planes = [Plane(1.0, 0.3), Plane(0.5, 0.0), Plane(2.0, -0.4)]
        extents = [rq.section_extent(sphere, p) for p in planes]
        extents[1] = _widened(extents[1], sphere.q)
        got = sections._per_plane(sections._trace_many, sphere, planes,
                                  sections._sample_levels(128), extents=extents)
        assert [type(e) for e in got] == [rq.SectionLoop, NonSimpleSection, rq.SectionLoop]
        for plane, loop in zip(planes[::2], got[::2]):
            assert loop.points.tobytes() == rq.trace_section(sphere, plane, 128).points.tobytes()

    def test_empty_batch(self, sphere):
        assert sections._trace_many(sphere, [], sections._sample_levels(16), []) == []


class TestTraceSection:
    def test_point_count_and_order(self, sphere):
        loop = rq.trace_section(sphere, Plane(1.0, 0.0), 64)
        pts = loop.points
        assert len(pts) == 2 * 64 - 2
        # starts at (0, z_lo), reaches (0, z_hi) at index n-1
        assert pts[0, 0] == 0.0 and pts[0, 1] == loop.z_lo
        assert pts[63, 0] == 0.0 and pts[63, 1] == loop.z_hi
        # upper branch first, then lower branch back
        assert np.all(pts[:64, 0] >= 0.0)
        assert np.all(pts[64:, 0] <= 0.0)
        assert np.all(np.diff(pts[:64, 1]) > 0.0)
        assert np.all(np.diff(pts[64:, 1]) < 0.0)

    def test_sphere_extent_and_peak(self, sphere):
        loop = rq.trace_section(sphere, Plane(1.0, 0.0), 65)
        assert loop.z_lo == pytest.approx(-SQ2, abs=1e-12)
        assert loop.z_hi == pytest.approx(SQ2, abs=1e-12)
        # odd n puts a node at the midpoint z = 0 where y peaks at 1
        assert np.max(loop.points[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_mirror_symmetry_exact(self, paraboloid):
        loop = rq.trace_section(paraboloid, Plane(0.3, 0.1), 64)
        pts = loop.points
        upper = pts[:64]
        lower = pts[64:]
        # the lower branch is the exact mirror image of the upper interior
        mirrored = np.column_stack([-upper[1:-1, 0], upper[1:-1, 1]])
        assert np.array_equal(lower[::-1], mirrored)

    def test_gap_consistency(self, hyperboloid):
        pl = Plane(0.4, 0.3)
        loop = rq.trace_section(hyperboloid, pl, 128)
        gaps = rq.section_gap(hyperboloid, pl, loop.points[:, 1])
        resid = np.abs(gaps - loop.points[:, 0] ** 2)
        assert np.max(resid) <= 1e-12 * max(1.0, hyperboloid.eval(pl.beta))

    def test_z_extent_brackets_beta(self, paraboloid):
        loop = rq.trace_section(paraboloid, Plane(0.2, 0.4), 32)
        assert loop.z_lo < 0.4 < loop.z_hi

    def test_horizontal_circle(self, cylinder):
        loop = rq.trace_section(cylinder, Plane(0.0, 0.3), 32)
        assert len(loop.points) == 32
        assert loop.z_lo == loop.z_hi == 0.3
        radii = np.hypot(loop.points[:, 0], loop.points[:, 1])
        assert np.allclose(radii, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [1.0, -1.0, 1.5])
    def test_intercept_outside_domain(self, sphere, beta):
        with pytest.raises(OutOfDomain):
            rq.trace_section(sphere, Plane(0.5, beta), 64)

    def test_minimum_sample_count(self, sphere):
        with pytest.raises(InvalidDomain):
            rq.trace_section(sphere, Plane(1.0, 0.0), 15)

    @pytest.mark.parametrize("n", [100.5, 100.0, "100", None])
    def test_non_integer_sample_count_rejected(self, sphere, n):
        with pytest.raises(InvalidDomain):
            rq.trace_section(sphere, Plane(0.5, 0.1), n)

    @pytest.mark.parametrize("slope", [0.0, 0.5])
    @pytest.mark.parametrize("n", [2**45, 2**62])
    def test_sample_count_numpy_cannot_allocate(self, sphere, slope, n):
        # 256 TiB is past the user address space, 2**62 past numpy's size
        # limit: both fail before any memory is touched
        with pytest.raises(InvalidDomain, match="allocate"):
            rq.trace_section(sphere, Plane(slope, 0.0), n)

    def test_numpy_integer_sample_count(self, sphere):
        loop = rq.trace_section(sphere, Plane(0.5, 0.1), np.int64(100))
        assert np.array_equal(loop.points, rq.trace_section(sphere, Plane(0.5, 0.1), 100).points)

    def test_non_simple_cut_detected(self, sphere, monkeypatch):
        # an extent wider than the loop, (-0.9, 0.9) against the true
        # +-1/sqrt(2) of this plane, puts negative gaps between its ends
        monkeypatch.setattr(sections, "section_extent", lambda prof, plane: (-0.9, 0.9))
        with pytest.raises(NonSimpleSection):
            rq.trace_section(sphere, Plane(1.0, 0.0), 64)


class TestEmbed3d:
    def test_sphere_points_on_surface(self, sphere):
        loop = rq.trace_section(sphere, Plane(1.0, 0.0), 64)
        xyz = rq.embed_3d(loop)
        # plane equation is exact
        assert np.max(np.abs(xyz[:, 2] - (1.0 * xyz[:, 0] + 0.0))) <= 1e-12
        # surface equation to relative precision
        lhs = xyz[:, 0] ** 2 + xyz[:, 1] ** 2
        rhs = 1.0 - xyz[:, 2] ** 2
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_chart_lift_example(self, sphere):
        loop = rq.trace_section(sphere, Plane(1.0, 0.0), 65)
        xyz = rq.embed_3d(loop)
        top = xyz[np.argmax(xyz[:, 2])]
        assert top[0] == pytest.approx(SQ2, abs=1e-12)
        assert top[1] == pytest.approx(0.0, abs=1e-12)
        assert top[2] == pytest.approx(SQ2, abs=1e-12)

    def test_cylinder_unit_offset(self, cylinder):
        loop = rq.trace_section(cylinder, Plane(0.7, 0.2), 64)
        xyz = rq.embed_3d(loop)
        # the chart point (y=0, z=beta+m) lifts to x=1 on a radius-1 cylinder
        i = np.argmax(xyz[:, 2])
        assert xyz[i, 0] == pytest.approx(1.0, abs=1e-10)
        assert xyz[i, 2] == pytest.approx(0.9, abs=1e-10)

    def test_horizontal_embedding(self, cylinder):
        loop = rq.trace_section(cylinder, Plane(0.0, 0.4), 32)
        xyz = rq.embed_3d(loop)
        assert np.all(xyz[:, 2] == 0.4)
        assert np.allclose(np.hypot(xyz[:, 0], xyz[:, 1]), 1.0, atol=1e-12)


class TestSlopeBound:
    def test_cylinder_values(self):
        c1 = rq.parse_profile("cylinder:1,10")
        c2 = rq.parse_profile("cylinder:2,10")
        assert rq.slope_bound(c1, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert rq.slope_bound(c2, 1.0) == pytest.approx(0.25, abs=1e-14)

    def test_sphere_value(self, sphere):
        assert rq.slope_bound(sphere, 0.4) == pytest.approx(0.2, abs=1e-14)

    def test_interior_maximum_exact(self):
        # the maximum of F sits at z = -b / 2a, between the nodes of any grid
        a, b, c = -1.0, 0.3137, 1.5
        p = rq.make_quadric_profile(rq.QuadricParams(a, b, c), 1.0)
        exact = 0.1 / (2.0 * math.sqrt(c - b * b / (4.0 * a)))
        assert rq.slope_bound(p, 0.1) == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_delta_domain(self, sphere):
        with pytest.raises(InvalidDomain):
            rq.slope_bound(sphere, 0.0)
        with pytest.raises(InvalidDomain):
            rq.slope_bound(sphere, 1.0)

    @pytest.mark.parametrize("preset", ["sphere", "cylinder:1,10", "hyperboloid:1,2", "paraboloid:2,1"])
    def test_slab_and_extent_guarantees(self, preset):
        # planes under the bound cut loops inside the slab with the
        # guaranteed minimum extent
        p = rq.parse_profile(preset)
        delta = 0.1 * p.q
        mu = rq.slope_bound(p, delta)
        phi = rq.infimum_radius(p, delta)
        for frac in (0.3, 0.6, 0.95):
            m = frac * mu
            for beta in (-(p.q - 2 * delta) * 0.9, 0.0, (p.q - 2 * delta) * 0.9):
                lo, hi = rq.section_extent(p, Plane(m, beta))
                assert abs(lo - beta) < delta
                assert abs(hi - beta) < delta
                assert hi - lo >= 2.0 * m * phi - 1e-9 * p.q
