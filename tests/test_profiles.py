"""Profile construction, evaluation, differentiation, and spec-string parsing."""

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.interpolate import PchipInterpolator

import revquad as rq
from revquad import (
    InvalidDomain,
    NonPositiveProfile,
    OutOfDomain,
    ParseError,
    QuadricParams,
)
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
            back = pickle.loads(pickle.dumps(prof))
            assert back == prof
            assert back.eval(0.3) == prof.eval(0.3)
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
        ],
    )
    def test_malformed_specs(self, spec):
        with pytest.raises(ParseError):
            rq.parse_profile(spec)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            rq.parse_profile("quadric:1,x,3,4")
        assert info.value.position == len("quadric:1,")

    def test_preset_lines(self):
        lines = rq.preset_lines()
        assert len(lines) == 4
        assert lines[0].startswith("sphere")
