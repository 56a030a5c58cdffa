"""Profile construction, evaluation, differentiation, and spec-string parsing."""

import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from numpy.polynomial import polynomial as P
from scipy.interpolate import PchipInterpolator, PPoly

import revquad as rq
from revquad import (
    InvalidDomain,
    NonPositiveProfile,
    OutOfDomain,
    ParseError,
    QuadricParams,
)
from revquad import profiles, sections
from revquad.profiles import _value_range

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestEval:
    def test_sphere_values(self, sphere):
        assert sphere.eval(0.0) == 1.0
        assert sphere.eval(0.6) == pytest.approx(0.64, abs=1e-15)
        assert sphere.eval(-0.6) == sphere.eval(0.6)

    def test_vectorized_matches_scalar(self, paraboloid):
        zs = np.linspace(-0.9, 0.9, 17)
        vec = paraboloid.eval(zs)
        assert vec.shape == zs.shape
        for z, v in zip(zs, vec):
            assert paraboloid.eval(float(z)) == v

    @pytest.mark.parametrize("prof", [
        rq.parse_profile("sphere"),
        rq.parse_profile("paraboloid:2,1"),
        rq.parse_profile("poly:2,-0.3,0.7,0.05,-0.1;1.2"),
        rq.make_sampled_profile(np.linspace(-1.0, 1.0, 9),
                                [2.0, 1.5, 1.5, 1.5, 1.7, 2.5, 2.5, 1.2, 3.0]),
        rq.make_sampled_profile([-1.3, -0.4, 0.0, 0.25, 1.1], [1.0, 2.0, 2.0, 0.5, 0.7], 1.0),
        # built unchecked: values <= 0 inside the domain, and overflows
        rq.Profile(kind="quadratic", q=1.0, coeffs=[-0.1, 0.0, 1.0]),
        rq.Profile(kind="polynomial", q=1e10, coeffs=[1.0, -1e300, 1e300]),
        rq.Profile(kind="polynomial", q=1e10, coeffs=[1.0, 1e300, -1e300]),
        rq.Profile(kind="sampled", q=1.0, sample_z=[-1.0, -0.5, 0.5, 1.0],
                   sample_f=[1.0, -1.0, 2.0, 2.0]),
    ], ids=["sphere", "paraboloid", "quartic", "flat-pieces", "uneven-table",
            "dips", "overflows", "overflows-negative", "negative-table"])
    def test_float_matches_one_element_array(self, prof):
        # a Python float takes eval's float branch: the array path's bits,
        # its error classes and messages
        q = prof.q
        zs = [0.0, -0.0, 0.3 * q, -0.7 * q, 0.1 * q, 0.1, 1e9, -1e9,
              math.nextafter(q, 0.0), -math.nextafter(q, 0.0), q, -q,
              math.nextafter(q, math.inf), -math.nextafter(q, math.inf),
              math.nan, math.inf, -math.inf]
        if prof.sample_z is not None:
            zs += prof.sample_z.tolist()
        for z in zs:
            outcomes = []
            for arg in (z, np.array([z])):
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        val = prof.eval(arg)
                    outcomes.append(val.hex() if type(val) is float else val[0].hex())
                except rq.RevquadError as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], z

    def test_polynomial_matches_numpy_polyval(self):
        coeffs = [2.0, -0.3, 0.7, 0.05, -0.1]
        p = rq.make_polynomial_profile(coeffs, 1.2)
        zs = np.linspace(-1.1, 1.1, 41)
        expected = np.polynomial.polynomial.polyval(zs, coeffs)
        assert np.allclose(p.eval(zs), expected, rtol=0, atol=1e-14)

    def test_out_of_domain(self, sphere):
        with pytest.raises(OutOfDomain):
            sphere.eval(1.0)
        with pytest.raises(OutOfDomain):
            sphere.eval(-1.0)
        with pytest.raises(OutOfDomain):
            sphere.eval(np.array([0.0, 2.0]))

    def test_nan_is_out_of_domain(self, sphere):
        # abs(nan) >= q is false, so the domain check is written to fail on nan
        table = rq.make_sampled_profile(np.linspace(-1.0, 1.0, 9), np.full(9, 2.0))
        for prof in (sphere, table):
            for z in (math.nan, np.array([0.0, math.nan]), -math.inf):
                with pytest.raises(OutOfDomain):
                    prof.eval(z)
                with pytest.raises(OutOfDomain):
                    prof.derivative(z)

    def test_positivity_rejected_at_construction(self):
        # 1 - 2 z^2 goes negative inside |z| < 1
        with pytest.raises(NonPositiveProfile):
            rq.make_polynomial_profile([1.0, 0.0, -2.0], 1.0)

    @pytest.mark.parametrize("coeffs", [[], [[1.0, 0.5]], [1.0, np.nan]],
                             ids=["empty", "2-d", "nan"])
    def test_bad_coefficients_rejected(self, coeffs):
        with pytest.raises(InvalidDomain):
            rq.make_polynomial_profile(coeffs, 1.0)

    def test_dip_between_grid_nodes_rejected(self):
        # F = (z - z0)^2 - 1e-9 is negative only within 3.2e-5 of z0, which
        # sits midway between two nodes of a 4097-point grid on |z| < 1
        lim = 1.0 - 2.0 ** -20
        z0 = -lim + 2500.5 * (2.0 * lim / 4096)
        with pytest.raises(NonPositiveProfile):
            rq.parse_profile(f"quadric:1,{-2.0 * z0!r},{z0 * z0 - 1e-9!r},1")

    @pytest.mark.parametrize("spec", [
        "poly:1,0,-1;1.0000001",  # F(+-q) < 0, F > 0 on |z| <= q (1 - 2^-20)
        "quadric:-1,0,1,1.0000001",
    ])
    def test_negative_at_the_domain_ends_rejected(self, spec):
        with pytest.raises(NonPositiveProfile):
            rq.parse_profile(spec)

    def test_dip_next_to_the_domain_end_rejected(self):
        # F = (z - z0)^2 - 1e-14 with z0 = 1 - 2^-23 is negative only within
        # 1e-7 of z0, all of it in the last 2^-20 of |z| < 1, and positive
        # at both ends
        z0 = 1.0 - 2.0 ** -23
        with pytest.raises(NonPositiveProfile):
            rq.parse_profile(f"quadric:1,{-2.0 * z0!r},{z0 * z0 - 1e-14!r},1")

    def test_zero_at_the_domain_ends_accepted(self):
        # the open domain leaves out +-q, where the sphere's F reaches 0
        for spec in ("sphere", "poly:1,0,-1;1", "quadric:0,1,1,1"):
            assert rq.parse_profile(spec).eval(0.0) == 1.0
        z = np.linspace(-1.0, 1.0, 9)
        assert rq.make_sampled_profile(z, 2.0 - z * z, q=1.0).eval(0.0) == 2.0

    @pytest.mark.parametrize("coeffs, q, top", [
        ([1.0, 0.5, 0.3, 1e-310], 1.0, 1.0 + 0.5 * 0.95 + 0.3 * 0.95**2),
        ([1.0, 0.0, 0.0, 0.0], 1e200, 1.0),
    ], ids=["subnormal-top", "huge-q"])
    def test_degenerate_leading_terms_accepted(self, coeffs, q, top):
        # a subnormal leading term, or zero terms whose powers of q
        # overflow, must not break the critical-point search
        p = rq.make_polynomial_profile(coeffs, q)
        assert rq.slope_bound(p, 0.1 * q) == pytest.approx(0.05 * q / math.sqrt(top), rel=1e-14)

    def test_scalar_eval_returns_float(self, sphere):
        assert isinstance(sphere.eval(0.25), float)


class TestDerivative:
    def test_sphere_exact(self, sphere):
        assert sphere.derivative(0.0) == 0.0
        assert sphere.derivative(0.5) == -1.0

    def test_polynomial_exact(self):
        p = rq.make_polynomial_profile([2.0, 0.0, 0.0, 1.0], 1.0)  # 2 + z^3
        zs = np.linspace(-0.9, 0.9, 21)
        assert np.allclose(p.derivative(zs), 3.0 * zs**2, rtol=0, atol=1e-14)

    def test_constant_profile(self):
        p = rq.make_polynomial_profile([4.0], 2.0)
        assert p.derivative(1.3) == 0.0

    @given(
        z=st.floats(-0.8, 0.8),
        h=st.floats(1e-5, 0.09),
    )
    def test_quadratic_symmetric_quotient_is_exact(self, z, h):
        # the symmetric difference quotient of a quadratic equals the
        # derivative for every step size, up to round-off
        p = rq.make_quadric_profile(QuadricParams(-1.0, 0.5, 2.0), 1.0)
        quot = (p.eval(z + h) - p.eval(z - h)) / (2.0 * h)
        der = p.derivative(z)
        assert abs(quot - der) <= 1e-9 * max(1.0, abs(der))


class TestValueSemantics:
    def table(self):
        z = np.linspace(-1.0, 1.0, 40)
        return z, 2.0 + z**3

    def test_equality(self):
        assert rq.parse_profile("sphere") == rq.parse_profile("sphere")
        assert rq.parse_profile("sphere") == rq.parse_profile("quadric:-1,0,1,1")
        assert rq.parse_profile("sphere") != rq.parse_profile("cylinder:1,1")
        assert rq.parse_profile("poly:2,0,0,1;1") != rq.parse_profile("poly:2,0,0,1;0.9")
        assert rq.make_sampled_profile(*self.table()) == rq.make_sampled_profile(*self.table())
        z, f = self.table()
        assert rq.make_sampled_profile(z, f) != rq.make_sampled_profile(z, f + 1.0)
        assert rq.parse_profile("sphere") != "sphere"

    def test_hashing(self):
        a, b = rq.parse_profile("sphere"), rq.parse_profile("sphere")
        assert hash(a) == hash(b)
        assert len({a, b, rq.parse_profile("cylinder:1,1")}) == 2
        assert hash(rq.make_sampled_profile(*self.table())) == hash(
            rq.make_sampled_profile(*self.table())
        )

    def test_arrays_are_read_only_copies(self):
        coeffs = np.array([2.0, 0.0, 0.0, 1.0])
        prof = rq.make_polynomial_profile(coeffs, 1.0)
        with pytest.raises(ValueError):
            prof.coeffs[0] = -5.0
        coeffs[0] = -5.0  # the caller's array stays writable and detached
        assert prof.eval(0.0) == 2.0
        samp = rq.make_sampled_profile(*self.table())
        for arr in (samp.sample_z, samp.sample_f):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_pickle_round_trip(self):
        for prof in (rq.parse_profile("sphere"), rq.make_sampled_profile(*self.table())):
            want = prof.eval(0.3)  # builds the lists eval's float branch reads
            back = pickle.loads(pickle.dumps(prof))
            # those lists stay out of the pickle, the key and the hash
            assert "_float_pieces" not in vars(back)
            assert back == prof and hash(back) == hash(prof)
            assert back.eval(0.3) == want
            arr = back.coeffs if back.coeffs is not None else back.sample_f
            assert not arr.flags.writeable


IMPORT_PROBE = """
import pickle, sys
import numpy as np
import revquad as rq
assert "scipy.interpolate" not in sys.modules, "import revquad loaded scipy.interpolate"
z = np.linspace(-1.0, 1.0, 40)
prof = rq.make_sampled_profile(z, 2.0 - z * z)
back = pickle.loads(pickle.dumps(prof))
assert back == prof and back.eval(0.3) == prof.eval(0.3)
assert abs(prof.eval(0.3) - 1.91) < 1e-3
loop = rq.trace_section(back, rq.Plane(0.5, 0.1), 64)
assert loop.z_lo < 0.1 < loop.z_hi
assert not [m for m in sys.modules if m.startswith("scipy")], "a sampled profile loaded scipy"
print("ok")
"""


def test_import_leaves_interpolation_to_sampled_profiles():
    # a fresh interpreter: this one has imported scipy.interpolate already
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


class TestSampled:
    def build(self, n=1025, span=0.95):
        z = np.linspace(-span, span, n)
        return rq.make_sampled_profile(z, 1.0 - z * z)

    def test_q_inferred_from_table(self):
        z = np.array([-0.7, -0.2, 0.1, 0.5])
        p = rq.make_sampled_profile(z, np.full(4, 2.0))
        assert p.q == 0.5

    def test_explicit_q_must_fit_table(self):
        z = np.array([-0.7, -0.2, 0.1, 0.5])
        with pytest.raises(InvalidDomain):
            rq.make_sampled_profile(z, np.full(4, 2.0), q=0.6)

    def test_construction_rejections(self):
        good_z = np.array([-0.5, -0.1, 0.1, 0.5])
        with pytest.raises(InvalidDomain):
            rq.make_sampled_profile(good_z[:3], np.ones(3))  # too few
        with pytest.raises(InvalidDomain):
            rq.make_sampled_profile(good_z[::-1], np.ones(4))  # decreasing
        with pytest.raises(NonPositiveProfile):
            rq.make_sampled_profile(good_z, np.array([1.0, 1.0, 0.0, 1.0]))
        with pytest.raises(InvalidDomain):
            rq.make_sampled_profile(good_z + 1.0, np.ones(4))  # no straddle
        for z, f in ((good_z, np.array([1.0, np.nan, 1.0, 1.0])),
                     (np.array([-np.inf, -0.1, 0.1, 0.5]), np.ones(4)),
                     (good_z, np.array([1.0, 1.0, np.inf, 1.0]))):
            with pytest.raises(InvalidDomain):
                rq.make_sampled_profile(z, f)  # not finite

    def test_interpolation_hits_samples(self):
        p = self.build()
        idx = [100, 512, 900]
        for i in idx:
            assert p.eval(float(p.sample_z[i])) == pytest.approx(
                float(p.sample_f[i]), abs=1e-14
            )

    def test_eval_reproduces_quadratics_on_interior_half(self):
        # shape-preserving interpolation of a smooth table converges slowly
        # near interior extrema (the slope limiter clamps there), so the
        # 1e-8 relative reproduction bound needs a dense table
        rng = np.random.default_rng(20260823)
        zz = np.linspace(-0.475, 0.475, 1501)
        for _ in range(12):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(-1.0, 1.0)
            c = rng.uniform(1.5, 4.0)
            z = np.linspace(-0.95, 0.95, 32769)
            f = a * z * z + b * z + c
            if f.min() <= 0.3:
                continue
            p = rq.make_sampled_profile(z, f)
            exact = a * zz * zz + b * zz + c
            rel = np.max(np.abs(p.eval(zz) - exact) / np.abs(exact))
            assert rel <= 1e-8

    def test_sampled_sphere_derivative(self):
        # the interpolant's exact derivative; the error against the sphere's
        # F' comes from the interpolant's O(h^2) node slopes and depends on
        # where the query lands between nodes
        p = self.build()
        assert abs(p.derivative(0.5) - (-1.0)) <= 2e-6
        assert abs(p.derivative(0.0) - 0.0) <= 2e-6

    def test_derivative_step_shrinks_near_edge(self):
        p = self.build()
        # differentiable right up to the edge of the open domain, where the
        # interpolant's derivative is evaluated like anywhere else
        val = p.derivative(0.9499)
        assert np.isfinite(val)
        assert abs(val - (-1.8998)) < 1e-2

    def test_derivative_is_the_interpolants(self):
        # exact to rounding everywhere, including a hair inside the edge,
        # where a difference quotient with a shrinking step cancels
        z = np.linspace(-1.0, 1.0, 200)
        f = 3.0 + z + z**3
        p = rq.make_sampled_profile(z, f)
        want = PchipInterpolator(z, f).derivative()
        pts = np.concatenate([np.linspace(-0.99, 0.99, 101), [-1.0 + 1e-12, 1.0 - 1e-12]])
        assert np.all(np.abs(p.derivative(pts) - want(pts)) <= 1e-15 * np.abs(want(pts)))
        edge = 1.0 - 1e-12
        assert abs(p.derivative(edge) - want(edge)) <= 1e-15 * abs(want(edge))


@st.composite
def tables(draw):
    """A (z, F) table of 4-300 rows on [-1, 1]: even or uneven abscissae,
    and ordinates that rise, oscillate, sit in flat runs or follow a
    perturbed quadric."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 300))
    if draw(st.booleans()):
        z = np.linspace(-1.0, 1.0, n)
    else:
        z = np.unique(np.concatenate([[-1.0, 1.0], rng.uniform(-1.0, 1.0, n - 2)]))
        assume(len(z) >= 4)
    kind = draw(st.sampled_from(("monotone", "oscillating", "flat runs", "cubic")))
    if kind == "monotone":
        f = 1.0 + np.cumsum(rng.uniform(0.0, 1.0, len(z))) / len(z)
    elif kind == "oscillating":
        f = 2.0 + 0.5 * np.sin(rng.uniform(3.0, 40.0) * z)
    elif kind == "flat runs":
        f = np.round(2.0 + rng.uniform(-0.5, 0.5, len(z)), 1)
        f[rng.random(len(z)) < 0.5] = 1.5
    else:
        a, b, c, eps = rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3), 1.8, rng.uniform(-0.5, 0.5)
        f = ((eps * z + a) * z + b) * z + c
    return z, f


def _scipy_gap_roots(ref, m, beta):
    """The section gap's roots as PPoly.roots gives them (the scaling of
    profiles._gap_roots_many)."""
    fw, qw = (m * m, 1.0) if m <= 1.0 else (1.0, (1.0 / m) ** 2)
    off = ref.x[:-1] - beta
    c = fw * ref.c
    c[-3] -= qw
    c[-2] -= 2.0 * qw * off
    c[-1] -= qw * off * off
    return PPoly.construct_fast(c, ref.x, extrapolate=False).roots()


def _assert_same_roots(got, want):
    assert len(got) == len(want)
    both = ~np.isnan(want)
    assert np.array_equal(np.isnan(got), ~both)
    ulp = np.spacing(np.maximum(np.abs(got[both]), np.abs(want[both])))
    assert (np.abs(got[both] - want[both]) <= 4.0 * ulp).all()


class TestPchipMatchesScipy:
    """The numpy interpolant of a sampled profile repeats scipy's
    PchipInterpolator and PPoly, which serve here as the oracle."""

    @given(table=tables(), seed=st.integers(0, 2**32 - 1))
    def test_coefficients_values_and_derivatives_are_scipys_bits(self, table, seed):
        z, f = table
        ref = PchipInterpolator(z, f, extrapolate=False)
        prof = rq.make_sampled_profile(z, f)
        assert np.array_equal(prof._pchip, ref.c)
        rng = np.random.default_rng(seed)
        grid = np.concatenate([rng.uniform(-prof.q, prof.q, 500), z[np.abs(z) < prof.q],
                               [-prof.q * (1.0 - 2.0 ** -52), prof.q * (1.0 - 2.0 ** -52)]])
        assert np.array_equal(prof.eval(grid), ref(grid))
        assert np.array_equal(prof.derivative(grid), ref(grid, 1))
        # the float branch of eval, at every grid point, has the bits too
        assert [prof.eval(x).hex() for x in grid.tolist()] == [v.hex() for v in ref(grid).tolist()]
        x = float(grid[0])
        assert prof.derivative(x) == float(ref(x, 1))

    @given(table=tables(), seed=st.integers(0, 2**32 - 1))
    def test_roots_and_extents_match_ppoly_roots(self, table, seed):
        z, f = table
        ref = PchipInterpolator(z, f, extrapolate=False)
        prof = rq.make_sampled_profile(z, f)
        crit = profiles._pp_roots(z, prof._pchip[:-1] * profiles._DERIVATIVE_SCALE)
        _assert_same_roots(crit, ref.derivative().roots(extrapolate=False))
        rng = np.random.default_rng(seed)
        for m in (0.05, 0.3, 0.9, 2.5):
            beta = float(rng.uniform(-0.6, 0.6)) * prof.q
            want = _scipy_gap_roots(ref, m, beta)
            (got,) = profiles._gap_roots_many(prof, [m], [beta])
            _assert_same_roots(got, want[np.abs(want) < prof.q])
            # the extent bisects from either set of roots to the same bits
            plane = rq.Plane(m, beta)
            got = _extent_or_error(prof, plane)
            injected = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sections, "_gap_roots_many",
                           lambda p, ms, bs: injected.append(ms) or [want[np.abs(want) < p.q]])
                assert _extent_or_error(prof, plane) == got
            # the extent asked the injected roots for its one plane
            assert injected == [[m]]

    def test_flat_pieces_report_their_breakpoint_and_nan(self):
        # a flat piece of the derivative is a zero piece: PPoly.roots gives
        # its left end and nan, and the flat run's values stay candidates
        z = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        f = np.array([2.0, 1.0, 1.0, 1.0, 3.0])
        ref = PchipInterpolator(z, f, extrapolate=False).derivative().roots(extrapolate=False)
        got = profiles._pp_roots(z, rq.make_sampled_profile(z, f)._pchip[:-1]
                                 * profiles._DERIVATIVE_SCALE)
        assert np.isnan(got).any()
        assert np.array_equal(got, ref, equal_nan=True)

    def test_roots_raise_no_warning(self):
        # zero leading terms, double roots and breakpoints on a root
        z = np.linspace(-1.0, 1.0, 9)
        prof = rq.make_sampled_profile(z, 1.0 + (z - 0.25) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (0.1, 1.0, 1e-3, 1e3):
                profiles._gap_roots_many(prof, [m], [0.25])
            profiles._critical_points(prof, prof.q)


def _reference_poly_roots(c, lim):
    """The checks and the one-polynomial root solve, numpy.polynomial's
    own calls: P.polytrim, the finite check, the size trim, the
    subnormal-lead check, then P.polyroots(c).real; an error as a value."""
    c = P.polytrim(c)
    if not np.isfinite(c).all():
        return InvalidDomain("polynomial coefficients overflow")
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(c) * lim ** np.arange(c.size)
    c = c[: np.flatnonzero(size >= 2.0 ** -52 * np.nanmax(size))[-1] + 1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if c.size > 2 and not np.isfinite(c[:-1] / c[-1]).all():
            return InvalidDomain("polynomial roots overflow")
        return P.polyroots(c).real


def _reference_gap_roots(profile, m, beta):
    """A plane's gap roots through P.polysub and _reference_poly_roots."""
    fw, qw = (m * m, 1.0) if m <= 1.0 else (1.0, (1.0 / m) ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        quad = qw * np.array([beta * beta, -2.0 * beta, 1.0])
        roots = _reference_poly_roots(P.polysub(fw * profile.coeffs, quad), profile.q)
    if isinstance(roots, InvalidDomain):
        return roots
    return roots[np.abs(roots) < profile.q]


def _same_bits(got, want):
    if isinstance(want, InvalidDomain):
        return isinstance(got, InvalidDomain) and str(got) == str(want)
    return (isinstance(got, np.ndarray) and got.dtype == want.dtype
            and got.shape == want.shape and got.tobytes() == want.tobytes())


class TestStackedRoots:
    """The stacked solve gives every row the bits numpy.polynomial gives it
    alone: a numpy whose companion layout or sort changed fails here."""

    @given(degrees=st.lists(st.integers(1, 8), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_polyroots_alone(self, degrees, seed):
        rng = np.random.default_rng(seed)
        rows = []
        for d in degrees:
            c = rng.uniform(-1.0, 1.0, d + 1) * 10.0 ** rng.integers(-2, 3, d + 1)
            c[-1] = math.copysign(rng.uniform(0.5, 2.0), c[-1])
            rows.append(c)
        # padded with zeros to one width, as the rows of a batch may be
        width = max(degrees) + 1
        padded = [np.concatenate([c, np.zeros(width - c.size)]).tolist() for c in rows]
        got = profiles._poly_roots(padded, 1.0)
        for g, c in zip(got, rows):
            assert _same_bits(g, P.polyroots(c).real)
            assert _same_bits(g, _reference_poly_roots(c, 1.0))

    @pytest.mark.parametrize("spec, planes, errors", [
        # at m = 1 the leading gap term cancels exactly: 1 root, or none at
        # beta = 0, between quadratic gaps with 2
        ("hyperboloid:1,2", [(0.5, 0.3), (1.0, 0.4), (1.0, 0.0), (2.0, -0.7), (0.3, 1.2)], []),
        # a gap whose coefficients overflow mid-batch
        ("cylinder:1,1e200", [(0.5, 0.0), (0.5, 1e199), (0.5, 3.0), (1e-3, 2.0)], [1]),
        # subnormal leading coefficients, kept by the size trim, mid-batch
        ("cylinder:1,1e300", [(0.5, 0.0), (1e155, 0.0), (2.0, 1.0), (1e161, 0.0), (1e3, 5.0)],
         [1, 3]),
        ("poly:2,0,0,1;1", [(0.4, 0.1), (1.0, 0.0), (3.0, -0.5), (0.05, 0.9)], []),
        ("poly:1,0.3,-0.2,0.1,0.05,-0.01,0.002,0.001,-0.0005;1",
         [(0.3, 0.0), (0.9, -0.4), (1.5, 0.2), (40.0, 0.6)], []),
    ])
    def test_gap_batches_equal_one_plane_solves(self, spec, planes, errors):
        # a batch holding an overflowing plane raises that plane's error, as
        # the plane alone does; the other planes, solved as one stack, keep
        # their bits
        prof = rq.parse_profile(spec)
        want = [_reference_gap_roots(prof, m, beta) for m, beta in planes]
        assert [k for k, w in enumerate(want) if isinstance(w, InvalidDomain)] == errors
        ok = [k for k in range(len(planes)) if k not in errors]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in errors:
                for batch in ([planes[i] for i in ok] + [planes[k]], [planes[k]]):
                    with pytest.raises(InvalidDomain) as exc:
                        profiles._gap_roots_many(prof, *zip(*batch))
                    assert str(exc.value) == str(want[k])
            got = profiles._gap_roots_many(prof, *zip(*[planes[k] for k in ok]))
        assert all(_same_bits(g, want[k]) for g, k in zip(got, ok))
        if spec.startswith("hyperboloid"):
            assert [len(w) for w in want[:3]] == [2, 1, 0]

    def test_critical_points_are_the_one_row_case(self, quartic):
        want = _reference_poly_roots(P.polyder(quartic.coeffs), 0.5)
        got = profiles._critical_points(quartic, 0.5)
        assert _same_bits(got, want[np.abs(want) < 0.5])


def _extent_or_error(prof, plane):
    try:
        return repr(rq.section_extent(prof, plane))
    except rq.RevquadError as exc:
        return type(exc).__name__


def _assert_range_holds(p, lim):
    lo, hi = _value_range(p, lim)
    vals = p.eval(np.linspace(-lim, lim, 20001))
    assert lo <= vals.min() + 1e-12 * abs(vals.min())
    assert hi >= vals.max() - 1e-12 * abs(vals.max())


class TestValueRange:
    @given(
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7),
        lim=st.floats(0.05, 0.99),
    )
    def test_polynomial_range_holds_dense_grid(self, coeffs, lim):
        # a constant term above the sum of the others keeps F positive on |z| < 1
        p = rq.make_polynomial_profile([0.1 + sum(map(abs, coeffs))] + coeffs, 1.0)
        _assert_range_holds(p, lim)

    @given(seed=st.integers(0, 2**32 - 1), flat=st.booleans())
    @example(seed=7, flat=True)
    def test_table_range_holds_dense_grid(self, seed, flat):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        z = np.linspace(-1.0, 1.0, n)
        z[1:-1] += rng.uniform(-0.3, 0.3, n - 2) / n
        f = rng.uniform(0.5, 2.0, n)
        if flat:
            start = int(rng.integers(0, n - 3))
            f[start : start + 4] = f[start]
        p = rq.make_sampled_profile(z, f)
        _assert_range_holds(p, p.q * float(rng.uniform(0.5, 0.999)))


class TestInfimumRadius:
    def test_cylinder_constant(self, cylinder):
        assert rq.infimum_radius(cylinder, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_cylinder_radius_two(self):
        p = rq.parse_profile("cylinder:2,10")
        assert rq.infimum_radius(p, 0.5) == pytest.approx(2.0, abs=1e-14)

    def test_sphere_closed_form(self, sphere):
        # inf sqrt(1 - z^2) over |z| <= 0.8 is at the edge
        assert rq.infimum_radius(sphere, 0.2) == pytest.approx(0.6, abs=1e-12)

    def test_interior_minimum_refined(self):
        # w-shaped profile with its minimum strictly inside the slab
        p = rq.make_polynomial_profile([0.5, 0.0, -1.0, 0.0, 1.0], 1.0)
        # min of 0.5 - z^2 + z^4 at z = 1/sqrt(2): value 0.25
        assert rq.infimum_radius(p, 0.1) == pytest.approx(0.5, abs=1e-10)

    @given(
        d1=st.floats(0.05, 0.9),
        d2=st.floats(0.05, 0.9),
    )
    def test_monotone_in_delta(self, sphere, d1, d2):
        if d1 < d2:
            d1, d2 = d2, d1
        # the infimum over the smaller slab is no smaller
        assert rq.infimum_radius(sphere, d1) >= rq.infimum_radius(sphere, d2) - 1e-10

    def test_delta_domain(self, sphere):
        with pytest.raises(InvalidDomain):
            rq.infimum_radius(sphere, 0.0)
        with pytest.raises(InvalidDomain):
            rq.infimum_radius(sphere, 1.0)


class TestParser:
    def test_sphere_preset(self):
        p = rq.parse_profile("sphere")
        assert p.kind == "quadratic" and p.q == 1.0
        assert tuple(p.coeffs) == (1.0, 0.0, -1.0)

    def test_quadric_form(self):
        p = rq.parse_profile("quadric:1,0,1,2")
        assert p.q == 2.0
        assert tuple(p.coeffs) == (1.0, 0.0, 1.0)

    def test_poly_form(self):
        p = rq.parse_profile("poly:2,0,0,1;1")
        assert p.kind == "polynomial"
        assert tuple(p.coeffs) == (2.0, 0.0, 0.0, 1.0)
        assert p.q == 1.0

    def test_cylinder_squares_radius(self):
        p = rq.parse_profile("cylinder:3,5")
        assert tuple(p.coeffs) == (9.0, 0.0, 0.0)

    def test_hyperboloid(self):
        p = rq.parse_profile("hyperboloid:2,3")
        assert tuple(p.coeffs) == (4.0, 0.0, 1.0)

    def test_paraboloid_requires_c_above_q(self):
        p = rq.parse_profile("paraboloid:2,1")
        assert tuple(p.coeffs) == (2.0, 1.0, 0.0)
        with pytest.raises(NonPositiveProfile):
            rq.parse_profile("paraboloid:1,2")

    def test_samples_csv(self, tmp_path):
        z = np.linspace(-0.9, 0.9, 33)
        f = 2.0 + 0.5 * z
        path = tmp_path / "table.csv"
        rows = ["z,F"] + [f"{zi},{fi}" for zi, fi in zip(z, f)]
        path.write_text("\n".join(rows) + "\n")
        p = rq.parse_profile(f"samples:{path}")
        assert p.kind == "sampled"
        assert p.q == pytest.approx(0.9)
        assert p.eval(0.4) == pytest.approx(2.2, abs=1e-9)
        # blank lines are skipped
        path.write_text("\n\n".join(rows) + "\n\n")
        assert rq.parse_profile(f"samples:{path}") == p

    @pytest.mark.parametrize("text", [
        "", "z,F\n0,1\n0.5,1,2\n", "z,F\n-0.5,1\n0,x\n"],
        ids=["empty", "three columns", "not a number"])
    def test_samples_csv_rejections(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError):
            rq.parse_profile(f"samples:{path}")

    def test_samples_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ParseError):
            rq.parse_profile(f"samples:{path}")

    def test_samples_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            rq.parse_profile(f"samples:{tmp_path}/nope.csv")

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "sphere:1",
            "quadric:1,2,3",
            "poly:1,2,3",
            "poly:;1",
            "quadric:1,x,3,4",
            "wat:1",
            "samples:",
            None,
            1.0,
        ],
    )
    def test_malformed_specs(self, spec):
        with pytest.raises(ParseError):
            rq.parse_profile(spec)

    @pytest.mark.parametrize("spec", ["quadric:-1,0,1,0", "quadric:-1,0,1,-1", "poly:1;nan"])
    def test_non_positive_or_non_finite_q_rejected(self, spec):
        with pytest.raises(InvalidDomain):
            rq.parse_profile(spec)

    def test_overflowing_derivative_rejected(self):
        # F(-0.5) < 0, but the derivative's coefficients overflow, which
        # would hide every critical point from the positivity check
        with pytest.raises(InvalidDomain):
            rq.parse_profile("poly:1,1e308,1e308;1")

    @pytest.mark.parametrize("spec, m", [
        ("cylinder:1,1e300", 1e155), ("cylinder:1,1e300", 1e158), ("cylinder:1,1e300", 1e161),
        ("cylinder:1,1e160", 8e159),
    ])
    def test_subnormal_leading_gap_coefficient_rejected(self, spec, m):
        # the scaled gap's leading term (1 / m)^2 is subnormal but kept, and
        # the companion matrix would divide by it
        prof = rq.parse_profile(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDomain, match="roots overflow"):
                profiles._gap_roots_many(prof, [m], [0.0])

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            rq.parse_profile("quadric:1,x,3,4")
        assert info.value.position == len("quadric:1,")

    def test_preset_lines(self):
        lines = rq.preset_lines()
        assert len(lines) == 4
        assert lines[0].startswith("sphere")
