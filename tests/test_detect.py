"""Center curves, the center-height relation, quadratic fitting, and the
quadric decision procedure."""

import concurrent.futures
import math
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import revquad as rq
import revquad.detect as detect_module
from revquad import (
    CenterCurve,
    CenterEntry,
    CentralityReport,
    InvalidDomain,
    LoopEscapesDomain,
    NonPositiveProfile,
    Plane,
    QuadricParams,
    RankDeficient,
    SingularConfiguration,
    SlabViolation,
)
from revquad import symmetry

from conftest import oracle_quadratic_fit


class TestCenterHeights:
    def test_sphere_oracle(self, sphere):
        curve = rq.center_heights(sphere, 0.5, [-0.2, 0.0, 0.2], 1024, 1e-4)
        zetas = [e.zeta for e in curve.entries]
        assert zetas == pytest.approx([-0.16, 0.0, 0.16], abs=1e-6)

    def test_cylinder_centers_at_intercepts(self, cylinder):
        betas = [-4.0, -1.0, 0.5, 3.0]
        curve = rq.center_heights(cylinder, 0.7, betas, 512, 1e-4)
        for e in curve.entries:
            assert abs(e.zeta - e.beta) <= 1e-6

    def test_even_profile_symmetric_plane(self, hyperboloid):
        curve = rq.center_heights(hyperboloid, 0.5, [0.0], 512, 1e-4)
        assert abs(curve.entries[0].zeta) <= 1e-9

    def test_positive_slope_required(self, sphere):
        with pytest.raises(InvalidDomain):
            rq.center_heights(sphere, 0.0, [0.0], 64, 1e-4)

    def test_errors_tagged_with_intercept(self, cylinder):
        with pytest.raises(LoopEscapesDomain) as info:
            rq.center_heights(cylinder, 1.0, [0.0, 9.8], 64, 1e-4)
        assert "beta = 9.8" in str(info.value)

    def test_root_errors_tagged_with_intercept(self):
        prof = rq.parse_profile("cylinder:1,1e200")
        with pytest.raises(InvalidDomain) as info:
            rq.center_heights(prof, 0.5, [0.0, 1e199], 64, 1e-4)
        assert str(info.value) == "beta = 1e+199: polynomial coefficients overflow"

    def test_slab_violation_flagged(self, sphere):
        # slope 0.5 is far above the bound for delta = 0.05: the loop spans
        # about 2 m sqrt(F) which cannot sit inside |z - beta| < 0.05
        with pytest.raises(SlabViolation) as info:
            rq.center_heights(sphere, 0.5, [0.0], 64, 1e-4, delta=0.05)
        assert "beta = 0.0" in str(info.value)

    def test_curve_requires_increasing_intercepts(self):
        entries = (
            CenterEntry(0.2, 0.1, 0.0),
            CenterEntry(0.1, 0.0, 0.0),
        )
        with pytest.raises(InvalidDomain):
            CenterCurve(m=0.5, entries=entries)

    @pytest.mark.parametrize("betas", [[0.2, -0.2], [0.0, 0.1, 0.1]])
    def test_intercept_order_checked_before_tracing(self, sphere, monkeypatch, betas):
        traced = []
        real = detect_module.trace_section
        monkeypatch.setattr(detect_module, "trace_section",
                            lambda *args: traced.append(args) or real(*args))
        with pytest.raises(InvalidDomain) as info:
            rq.center_heights(sphere, 0.3, betas, 256, 1e-4)
        assert str(info.value) == "center curve intercepts must be strictly increasing"
        assert traced == []

    @pytest.mark.parametrize("betas", [[0.1, math.nan], [0.1, math.inf], [-math.inf, 0.1]])
    def test_non_finite_intercepts_rejected_before_tracing(self, sphere, monkeypatch, betas):
        traced = []
        real = detect_module.trace_section
        monkeypatch.setattr(detect_module, "trace_section",
                            lambda *args: traced.append(args) or real(*args))
        with pytest.raises(InvalidDomain) as info:
            rq.center_heights(sphere, 0.5, betas, 256, 1e-4)
        assert str(info.value) == "center curve intercepts must be finite"
        assert traced == []

    @pytest.mark.parametrize("kwargs, message", [
        ({"delta": -0.1}, "need 0 < delta < inf, got delta = -0.1"),
        ({"delta": 0.0}, "need 0 < delta < inf, got delta = 0.0"),
        ({"delta": math.nan}, "need 0 < delta < inf, got delta = nan"),
        ({"tol": math.nan}, "tolerance must be positive and finite, got nan"),
        ({"tol": 0.0}, "tolerance must be positive and finite, got 0.0"),
    ])
    def test_delta_and_tol_checked_before_tracing(self, sphere, monkeypatch, kwargs, message):
        traced = []
        real = detect_module.trace_section
        monkeypatch.setattr(detect_module, "trace_section",
                            lambda *args: traced.append(args) or real(*args))
        args = {"tol": 1e-4, **kwargs}
        with pytest.raises(InvalidDomain) as info:
            rq.center_heights(sphere, 0.2, [0.0, 0.1], 256, args.pop("tol"), **args)
        assert str(info.value) == message
        assert traced == []

    def test_no_intercepts_give_an_empty_curve(self, sphere):
        assert rq.center_heights(sphere, 0.3, [], 256, 1e-4) == CenterCurve(m=0.3, entries=())

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_curve_requires_finite_intercepts(self, beta):
        with pytest.raises(InvalidDomain, match="must be finite"):
            CenterCurve(m=0.5, entries=(CenterEntry(beta, 0.0, 0.0),))

    @pytest.mark.parametrize("spec, m", [("poly:2,0,0,1;1", 0.4), ("poly:1,0,-1,0,0.05;1", 0.6)])
    def test_failing_sections_report_full_searches(self, spec, m):
        # at these steep slopes the sections fail their midpoint test; each
        # entry is the centre and asymmetry of the plane's own centrality
        # report, bit for bit
        prof = rq.parse_profile(spec)
        betas = [-0.3, -0.1, 0.2]
        curve = rq.center_heights(prof, m, betas, 512, 1e-4)
        want = [rq.centrality(rq.trace_section(prof, Plane(m, b), 512), 1e-4) for b in betas]
        assert all(not w.central for w in want)
        assert curve.entries == tuple(CenterEntry(b, w.center[1], w.asymmetry)
                                      for b, w in zip(betas, want))


class TestPredictedCenterHeight:
    def test_cylinder_identity(self):
        qp = QuadricParams(0.0, 0.0, 4.0)
        for beta in (-1.2, 0.0, 0.7):
            assert rq.predicted_center_height(qp, Plane(0.8, beta)) == beta

    def test_sphere_foot_of_perpendicular(self):
        qp = QuadricParams(-1.0, 0.0, 1.0)
        assert rq.predicted_center_height(qp, Plane(1.0, 0.5)) == 0.25
        for m in (0.3, 0.7):
            for beta in (-0.4, 0.2):
                zeta = rq.predicted_center_height(qp, Plane(m, beta))
                assert zeta == pytest.approx(beta / (1.0 + m * m), abs=1e-14)

    def test_paraboloid_offset(self):
        qp = QuadricParams(0.0, 1.0, 2.0)
        zeta = rq.predicted_center_height(qp, Plane(0.3, 0.1))
        assert zeta == pytest.approx(0.1 + 0.09 / 2.0, abs=1e-14)

    def test_asymptotic_slope_singular(self):
        with pytest.raises(SingularConfiguration):
            rq.predicted_center_height(QuadricParams(1.0, 0.0, 1.0), Plane(1.0, 0.0))

    def test_zero_slope_rejected(self):
        with pytest.raises(InvalidDomain):
            rq.predicted_center_height(QuadricParams(0.0, 0.0, 1.0), Plane(0.0, 0.0))

    def test_derivative_identity_holds(self):
        # the returned height satisfies F'(zeta) = 2 (zeta - beta) / m^2
        qp = QuadricParams(0.7, -0.3, 2.0)
        pl = Plane(0.45, 0.2)
        zeta = rq.predicted_center_height(qp, pl)
        lhs = 2.0 * qp.a * zeta + qp.b
        rhs = 2.0 * (zeta - pl.beta) / pl.m**2
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestDerivativeFromCenters:
    def test_cylinder_zero_derivative(self, cylinder):
        curve = rq.center_heights(cylinder, 0.7, [-2.0, 0.0, 2.0], 512, 1e-4)
        for zeta, fp in rq.derivative_from_centers(curve):
            assert abs(fp) <= 1e-6

    def test_sphere_single_plane(self, sphere):
        curve = rq.center_heights(sphere, 0.5, [0.25], 1024, 1e-4)
        (zeta, fp), = rq.derivative_from_centers(curve)
        assert zeta == pytest.approx(0.2, abs=1e-6)
        assert fp == pytest.approx(-0.4, abs=1e-5)

    def test_paraboloid_constant_derivative(self, paraboloid):
        curve = rq.center_heights(paraboloid, 0.2, [-0.3, 0.0, 0.3], 1024, 1e-4)
        for zeta, fp in rq.derivative_from_centers(curve):
            assert fp == pytest.approx(1.0, abs=1e-4)
            assert zeta == pytest.approx(
                [e.beta for e in curve.entries if e.zeta == zeta][0] + 0.02,
                abs=1e-6,
            )


class TestFitQuadratic:
    def test_exact_model(self):
        z = np.linspace(-1.0, 1.0, 33)
        params, resid = rq.fit_quadratic(np.column_stack([z, 1.0 - z * z]))
        assert params.a == pytest.approx(-1.0, abs=1e-12)
        assert params.b == pytest.approx(0.0, abs=1e-12)
        assert params.c == pytest.approx(1.0, abs=1e-12)
        assert resid <= 1e-12

    def test_cubic_residual_large(self):
        z = np.linspace(-0.9, 0.9, 101)
        _, resid = rq.fit_quadratic(np.column_stack([z, 2.0 + z**3]))
        assert resid > 1e-2

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            rq.fit_quadratic([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(RankDeficient):
            rq.fit_quadratic([(0.0, 1.0), (0.0, 2.0), (1.0, 3.0)])

    def test_distinct_abscissae_counted_exactly(self):
        # repeats and signed zeros count once; three distinct values suffice
        with pytest.raises(RankDeficient):
            rq.fit_quadratic([(0.0, 1.0), (-0.0, 2.0), (1.0, 3.0), (1.0, 4.0)])
        params, _ = rq.fit_quadratic([(1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (-1.0, 1.0)])
        assert params.a == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        # two nan abscissae used to pass as distinct and fit to nan
        with pytest.raises(InvalidDomain):
            rq.fit_quadratic([[0.0, 1.0], [1.0, 2.0], [bad, 3.0], [bad, 4.0]])
        with pytest.raises(InvalidDomain):
            rq.fit_quadratic([[0.0, 1.0], [1.0, 2.0], [2.0, bad]])

    def test_matches_polyfit_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            true = rng.uniform(-2.0, 2.0, 3)
            z = np.sort(rng.uniform(-3.0, 3.0, 40))
            v = true[0] * z * z + true[1] * z + true[2]
            v_noisy = v + rng.normal(0.0, 1e-3, z.size)
            params, resid = rq.fit_quadratic(np.column_stack([z, v_noisy]))
            oa, ob, oc = oracle_quadratic_fit(z, v_noisy)
            assert params.a == pytest.approx(oa, abs=1e-9)
            assert params.b == pytest.approx(ob, abs=1e-9)
            assert params.c == pytest.approx(oc, abs=1e-9)

    def test_residual_normalization(self):
        # residual is relative to the value scale once that scale exceeds 1
        z = np.linspace(-1.0, 1.0, 21)
        big = 1e6 * (1.0 + z * z) + np.sin(10 * z)
        _, resid_big = rq.fit_quadratic(np.column_stack([z, big]))
        assert resid_big < 1e-5

    @pytest.mark.parametrize("half", [1e-170, 1e-200])
    def test_fit_on_a_tiny_domain_rejected(self, half):
        # spread**2 underflows, and rounding noise in the curvature over it
        # is not finite
        z = np.linspace(-half, half, 33)
        with pytest.raises(InvalidDomain, match="not finite"):
            rq.fit_quadratic(np.column_stack([z, np.ones_like(z)]))

    def test_overflowing_normal_equations_rejected(self):
        # values near 1e307 overflow vand.T @ v: bad input, with no warning
        z = np.linspace(-1.0, 1.0, 20)
        with pytest.raises(InvalidDomain, match="not finite"):
            rq.fit_quadratic(np.column_stack([z, 1e307 * (1.0 + z * z)]))

    def test_residual_of_huge_values_does_not_overflow(self):
        # the squares of values near 2^600 overflow; the residual, relative
        # to an RMS value above 1, is the unscaled samples' bit for bit
        z = np.linspace(-1.0, 1.0, 68)
        v = 2.0 + 0.3 * np.sin(3.0 * z)
        _, resid = rq.fit_quadratic(np.column_stack([z, v]))
        _, huge = rq.fit_quadratic(np.column_stack([z, np.ldexp(v, 600)]))
        assert 0.0 < resid < 1.0
        assert huge == resid


class TestSweepIntercepts:
    def test_contract(self):
        betas = rq.sweep_intercepts(1.0, 0.1, 17)
        span = 0.8
        eta = span / 170.0
        assert len(betas) == 17
        assert betas[0] == pytest.approx(-(span - eta), abs=1e-15)
        assert betas[-1] == pytest.approx(span - eta, abs=1e-15)
        assert np.allclose(betas, -betas[::-1], atol=1e-15)
        assert np.all(np.diff(betas) > 0.0)

    @pytest.mark.parametrize("n_planes", [0, -1, 2.5])
    def test_plane_count_below_one_or_not_integer_rejected(self, n_planes):
        with pytest.raises(InvalidDomain):
            rq.sweep_intercepts(1.0, 0.1, n_planes)

    @pytest.mark.parametrize("delta", [0.0, -0.1, 0.5, 0.7, math.nan])
    def test_delta_outside_half_q_rejected(self, delta):
        # delta = q/2 would put every intercept at beta = 0
        with pytest.raises(InvalidDomain):
            rq.sweep_intercepts(1.0, delta, 17)

    @pytest.mark.parametrize("n_planes", [2**45, 2**62])
    def test_grid_numpy_cannot_allocate_rejected(self, n_planes):
        # 256 TiB is past the user address space, 2**62 past numpy's size
        # limit: both fail before any memory is touched
        with pytest.raises(InvalidDomain, match="allocate"):
            rq.sweep_intercepts(1.0, 0.1, n_planes)


class TestDetectQuadric:
    def test_preconditions(self, sphere):
        with pytest.raises(InvalidDomain):
            rq.detect_quadric(sphere, 0.0, 17, 1024, 1e-4)
        with pytest.raises(InvalidDomain):
            rq.detect_quadric(sphere, 0.4, 17, 1024, 1e-4)  # delta >= q/3
        with pytest.raises(InvalidDomain):
            rq.detect_quadric(sphere, 0.1, 4, 1024, 1e-4)
        with pytest.raises(InvalidDomain):
            rq.detect_quadric(sphere, 0.1, 17, 128, 1e-4)
        with pytest.raises(InvalidDomain):
            rq.detect_quadric(sphere, 0.1, 17, 1024, 0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -math.inf, -1e-4])
    def test_tolerance_must_be_finite_and_positive(self, sphere, tol):
        with pytest.raises(InvalidDomain):
            rq.detect_quadric(sphere, 0.1, 5, 256, tol)
        with pytest.raises(InvalidDomain):
            rq.center_heights(sphere, 0.3, [0.0], 256, tol)

    @pytest.mark.parametrize("n_planes, n_samples", [(5.5, 256), (17, 256.5), (17.0, 1024)])
    def test_non_integer_counts_rejected(self, sphere, n_planes, n_samples):
        with pytest.raises(InvalidDomain):
            rq.detect_quadric(sphere, 0.1, n_planes, n_samples, 1e-4)

    @pytest.mark.parametrize("workers", [1.5, "2", 2.5, 0, -3])
    def test_bad_worker_counts_rejected(self, sphere, workers):
        with pytest.raises(InvalidDomain):
            rq.detect_quadric(sphere, 0.1, 5, 256, 1e-4, workers=workers)

    def test_underflowing_slab_slope_rejected(self, monkeypatch):
        # mu = 5e-324, so mu / 2 rounds to 0: no tilted slab plane exists,
        # and the detector says so before it builds any probe
        prof = rq.parse_profile("cylinder:1e122,1e-200")
        assert rq.slope_bound(prof, 0.1 * prof.q) == 5e-324
        monkeypatch.setattr(detect_module, "_probe_planes", None)
        for workers in (1, 2):
            with pytest.raises(InvalidDomain, match=r"^slab slope mu / 2 underflows to 0, "
                                                    r"mu = 5e-324$"):
                rq.detect_quadric(prof, 0.1 * prof.q, 17, 1024, 1e-4, workers=workers)

    def test_numpy_integer_counts(self, sphere):
        got = rq.detect_quadric(sphere, 0.1, np.int64(5), np.int32(256), 1e-4)
        assert rq.verdict_json(got) == rq.verdict_json(rq.detect_quadric(sphere, 0.1, 5, 256, 1e-4))

    def test_sphere_small_budget(self, sphere):
        # structural checks at the smallest allowed budget; the full-budget
        # accuracy checks live in the acceptance suite
        v = rq.detect_quadric(sphere, 0.1, 5, 256, 1e-4)
        assert v.is_quadric is True
        assert v.witness is None
        assert v.central_but_fit_failed is False
        assert v.params.a == pytest.approx(-1.0, abs=1e-9)
        assert v.params.b == pytest.approx(0.0, abs=1e-9)
        assert v.params.c == pytest.approx(1.0, abs=1e-9)
        assert v.fit_residual <= 1e-8
        assert v.planes_tested == len(v.sections)
        sweep = [r for r in v.sections if r.m == v.slope]
        assert len(sweep) == 5
        assert len(v.curve.entries) == 5
        assert v.epsilon == pytest.approx(v.slope * rq.infimum_radius(sphere, 0.1))
        assert 0.0 < v.slope < rq.slope_bound(sphere, 0.1)

    def test_cubic_witnessed(self, cubic):
        v = rq.detect_quadric(cubic, 0.1, 5, 256, 1e-4)
        assert v.is_quadric is False
        assert v.params is None
        assert v.fit_residual is None
        plane, report = v.witness
        assert report.asymmetry > 1e-3
        assert report.central is False
        # the witness is the worst recorded failure
        assert report.asymmetry == max(r.asymmetry for r in v.sections)
        assert plane.m > v.slope  # shallow slab planes cannot see the cubic

    def test_steep_probes_are_the_sensitive_planes(self, cubic):
        # at the slab slope the cubic's sections are centrally symmetric far
        # below tolerance; only the steep probe planes expose it
        v = rq.detect_quadric(cubic, 0.1, 5, 256, 1e-4)
        sweep = [r for r in v.sections if r.m == v.slope]
        probes = [r for r in v.sections if r.m != v.slope]
        assert max(r.asymmetry for r in sweep) < 1e-6
        assert max(r.asymmetry for r in probes) > 1e-3

    @pytest.mark.parametrize("spec, expected", [
        ("sphere", [(0.5237229365663817, -0.4), (0.653197264742181, -0.2), (0.8, 0.0),
                    (0.6531972647421809, 0.20000000000000007), (0.5237229365663817, 0.4)]),
        ("hyperboloid:1,2", [(0.47976579652179785, -0.8), (0.6084864841385637, -0.4),
                             (0.8192000000000003, 0.0), (0.6084864841385635, 0.40000000000000013),
                             (0.47976579652179785, 0.8)]),
        ("poly:2,0,0,1;1", [(0.34497574474564136, -0.4), (0.45345616101210867, -0.2),
                            (0.565685424949238, 0.0), (0.45164594955010934, 0.20000000000000007),
                            (0.3341076278338227, 0.4)]),
        ("poly:1,0,1,0,1;1", [(0.28213184961432775, -0.4), (0.40133724245484576, -0.2),
                              (0.5120000000000001, 0.0), (0.40133724245484564, 0.20000000000000007),
                              (0.28213184961432775, 0.4)]),
        ("poly:1,0,-1,0,0.05;1", [(0.5233243650196336, -0.4), (0.6531700498903997, -0.2),
                                  (0.8, 0.0), (0.6531700498903997, 0.20000000000000007),
                                  (0.5233243650196336, 0.4)]),
    ])
    def test_probe_slopes_pinned(self, spec, expected):
        # the probe slopes are bit for bit those the outward-walk extent
        # picked; witnesses, and so verdict bytes, depend on them
        prof = rq.parse_profile(spec)
        delta = 0.1 * prof.q
        mu = rq.slope_bound(prof, delta)
        assert detect_module._probe_planes(prof, delta, mu) == expected

    def test_sampled_sphere_detected(self):
        z = np.linspace(-0.95, 0.95, 1025)
        p = rq.make_sampled_profile(z, 1.0 - z * z)
        v = rq.detect_quadric(p, 0.1 * p.q, 5, 256, 1e-4)
        assert v.is_quadric is True
        assert v.params.a == pytest.approx(-1.0, abs=1e-4)
        assert v.params.c == pytest.approx(1.0, abs=1e-4)

    def test_verdict_serializes_with_flag(self):
        # the central-but-fit-failed outcome carries no witness; simulate the
        # verdict shape directly (reaching it needs inconsistent data, since
        # for smooth profiles the centrality stage is the more sensitive one)
        v = rq.QuadricVerdict(
            is_quadric=False,
            params=None,
            fit_residual=2e-3,
            witness=None,
            planes_tested=22,
            epsilon=0.01,
            delta=0.1,
            slope=0.02,
            central_but_fit_failed=True,
        )
        text = rq.verdict_json(v)
        assert '"central_but_fit_failed": true' in text
        assert '"witness": null' in text
        assert '"a": null' in text

    def test_pool_size_is_bounded(self, sphere, monkeypatch):
        # min(workers, planes, CPUs) processes, serial when that is 1; the
        # recording pool runs the planes in-process and starts nothing
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

            def shutdown(self, wait=True):
                pass

        # the pool class is looked up on the first pooled call
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(detect_module, "_pool", None)
        serial = rq.verdict_json(rq.detect_quadric(sphere, 0.1, 5, 256, 1e-4))
        for cpus, workers, want in ((2, 3, 2), (64, 100, 10), (1, 3, None), (None, 3, None)):
            sizes.clear()
            monkeypatch.setattr(detect_module.os, "cpu_count", lambda: cpus)
            v = rq.detect_quadric(sphere, 0.1, 5, 256, 1e-4, workers=workers)
            assert sizes == ([] if want is None else [want])
            assert v.planes_tested == 10
            assert rq.verdict_json(v) == serial

    def test_worker_pool_matches_serial(self, sphere):
        serial = rq.detect_quadric(sphere, 0.1, 5, 256, 1e-4, workers=1)
        pooled = rq.detect_quadric(sphere, 0.1, 5, 256, 1e-4, workers=2)
        assert rq.verdict_json(serial) == rq.verdict_json(pooled)


def _worker_pids():
    return set(detect_module._pool[0]._processes)


class TestWarmPool:
    """Pooled calls share one pool; each test starts without one and shuts
    down the pool it leaves."""

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        monkeypatch.setattr(detect_module, "_pool", None)
        monkeypatch.setattr(detect_module.os, "cpu_count", lambda: 4)
        yield
        if detect_module._pool is not None:
            detect_module._pool[0].shutdown()

    @staticmethod
    def detect(profile, workers=2):
        return rq.verdict_json(rq.detect_quadric(profile, 0.1, 5, 256, 1e-4, workers=workers))

    def test_calls_reuse_the_workers(self, sphere):
        first = self.detect(sphere)
        pool, pids = detect_module._pool[0], _worker_pids()
        assert self.detect(sphere) == first
        assert detect_module._pool[0] is pool
        assert _worker_pids() == pids and len(pids) == 2

    def test_size_change_replaces_the_pool(self, sphere):
        self.detect(sphere, workers=2)
        old = detect_module._pool[0]
        procs = list(old._processes.values())
        self.detect(sphere, workers=3)
        assert detect_module._pool[0] is not old
        assert len(_worker_pids()) == 3
        # the old pool was shut down and its workers joined
        with pytest.raises(RuntimeError):
            old.submit(int)
        assert not any(p.is_alive() for p in procs)

    def test_pool_of_another_process_is_not_reused(self, sphere):
        # after a fork the inherited pool belongs to the parent: a new one is
        # built and the inherited one is left running
        self.detect(sphere)
        old, size, pid = detect_module._pool
        detect_module._pool = (old, size, pid + 1)
        self.detect(sphere)
        assert detect_module._pool[0] is not old
        assert detect_module._pool[2] == pid
        assert old.submit(int).result() == 0
        old.shutdown()

    def test_dead_worker_breaks_only_one_call(self, sphere):
        want = self.detect(sphere, workers=1)
        self.detect(sphere)
        old = detect_module._pool[0]
        victim = min(_worker_pids())
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):
            for _ in range(100):  # until the pool has seen its worker die
                self.detect(sphere)
                time.sleep(0.05)
        assert detect_module._pool is None
        assert self.detect(sphere) == want
        assert detect_module._pool[0] is not old
        assert victim not in _worker_pids()

    @pytest.mark.parametrize("spec", ["poly:2,0,0,1;1", "poly:1,0,-1,0,0.05;1"])
    def test_refutations_match_serial(self, spec):
        # the cubic and the README's bumped quartic at the acceptance budget:
        # one task per worker gives the serial run's bytes, record by record
        prof = rq.parse_profile(spec)
        serial, pooled = (rq.detect_quadric(prof, 0.1 * prof.q, 17, 1024, 1e-4, workers=w)
                          for w in (1, 2))
        assert not serial.is_quadric
        assert rq.verdict_json(pooled) == rq.verdict_json(serial)
        assert repr(pooled.sections) == repr(serial.sections)
        assert pooled.sections == serial.sections

    def test_first_failing_plane_raises_as_in_serial(self, cylinder):
        # With two workers, task 0 holds planes 0, 2, 4 and fails at plane 4
        # (outside the domain); task 1 holds planes 1, 3, 5 and fails at
        # plane 3 (escapes).  A failed task makes the calling process test
        # the planes in order, so plane 3, the first failing plane in plane
        # order, raises.
        planes = [(0.5, 0.0), (0.5, 1.0), (0.5, 2.0), (1.0, 9.8), (0.5, 12.0), (0.5, 3.0)]
        args = [(cylinder, m, beta, 256, 1e-4, None) for m, beta in planes]
        with pytest.raises(LoopEscapesDomain) as serial:
            detect_module._test_planes(args)
        with pytest.raises(LoopEscapesDomain) as pooled:
            detect_module._map_pooled(2, args)
        assert str(pooled.value) == str(serial.value)
        assert str(serial.value).startswith("beta = 9.8: gap stays positive")

    # at slope 1e-153 every section of this profile escapes the domain,
    # which tracing raises; at slope 1e-155 they close, about 5e153 wide.
    # No traced loop raises in centrality: about its midpoint a reflected
    # vertex lies within the loop's half-width, at most sqrt(max F), of
    # the loop, so no squared distance overflows.  A loop that spans more
    # than its slab half-width delta raises in scoring, after centrality:
    # delta = 0.01 at beta = 0.0, whose section spans |z| < 0.084
    @pytest.mark.parametrize("planes, failing", [
        ([(1e-155, -0.9, None), (1e-155, 0.8, None), (1e-153, 0.5, None),
          (1e-155, 0.0, None)], 2),
        ([(1e-155, -0.9, None), (1e-155, 0.0, 0.01), (1e-153, 0.5, None),
          (1e-155, 0.9, None)], 1),
        ([(1e-153, -0.9, None), (1e-155, 0.0, None)], 0),
    ], ids=["trace-first", "scoring-first", "first-plane"])
    def test_batch_raises_its_first_failing_plane(self, planes, failing):
        # planes are traced as one batch, but each raises in plane order: a
        # plane that fails at trace raises only once the planes before it
        # are scored, serially and pooled
        prof = rq.parse_profile("quadric:-6e307,0,7e307,1")
        args = [(prof, m, beta, 64, 1e-4, delta) for m, beta, delta in planes]
        with pytest.raises(rq.RevquadError) as alone:
            detect_module._test_planes(args[failing:failing + 1])
        assert str(alone.value).startswith(f"beta = {planes[failing][1]!r}: ")
        for run in (detect_module._test_planes, lambda a: detect_module._map_pooled(2, a)):
            with pytest.raises(rq.RevquadError) as batch:
                run(args)
            assert type(batch.value) is type(alone.value)
            assert str(batch.value) == str(alone.value)

    def test_sample_count_raises_on_the_first_plane(self, sphere):
        args = [(sphere, 0.5, beta, 15, 1e-4, None) for beta in (-0.5, 0.0, 0.5)]
        for run in (detect_module._test_planes, lambda a: detect_module._map_pooled(2, a)):
            with pytest.raises(InvalidDomain, match=r"^beta = -0\.5: need n >= 16 sample levels"):
                run(args)

    @pytest.mark.parametrize("spec", ["sphere", "poly:2,0,0,1;1", "poly:1,0,-1,0,0.05;1"])
    def test_batch_records_are_each_planes_own(self, spec):
        # a detection's slab planes and probes, whose failing midpoints come
        # back pending
        prof = rq.parse_profile(spec)
        verdict = rq.detect_quadric(prof, 0.1 * prof.q, 5, 256, 1e-4)
        planes = [(r.m, r.beta, 0.1 * prof.q if i < 5 else None)
                  for i, r in enumerate(verdict.sections)]
        args = [(prof, m, beta, 256, 1e-4, delta) for m, beta, delta in planes]
        alone = [detect_module._test_plane(m, beta, 1e-4, delta,
                                           rq.trace_section(prof, Plane(m, beta), 256))
                 for m, beta, delta in planes]
        for batch in (detect_module._test_planes(args), detect_module._map_pooled(2, args)):
            assert batch == alone
            assert repr(batch) == repr(alone)

    def test_failing_call_keeps_the_pool(self, sphere, cylinder):
        want = self.detect(sphere)
        pool, pids = detect_module._pool[0], _worker_pids()
        args = [(cylinder, 0.5, 0.0, 256, 1e-4, None), (cylinder, 1.0, 9.8, 256, 1e-4, None)]
        with pytest.raises(LoopEscapesDomain):
            detect_module._map_pooled(2, args)
        assert detect_module._pool[0] is pool and _worker_pids() == pids
        assert self.detect(sphere) == want
        assert detect_module._pool[0] is pool and _worker_pids() == pids


def exact_reports(profile, verdict, n, tol):
    """Each recorded plane's exact centrality report, on the loop traced
    alone, whose extent is the recorded one."""
    out = []
    for r in verdict.sections:
        loop = rq.trace_section(profile, Plane(r.m, r.beta), n)
        assert (loop.z_lo, loop.z_hi) == (r.z_lo, r.z_hi)
        out.append(rq.centrality(loop, tol))
    return out


def check_refutation_records(profile, n=1024, tol=1e-4):
    """Refute at both worker counts: every failing record is its plane's
    exact report, at its loop's midpoint, and the witness is the first
    record of largest asymmetry."""
    for workers in (1, 2):
        v = rq.detect_quadric(profile, 0.1 * profile.q, 17, n, tol, workers=workers)
        assert not v.is_quadric
        ref = exact_reports(profile, v, n, tol)
        for r, exact in zip(v.sections, ref):
            assert r.report.center == (0.0, 0.5 * (r.z_lo + r.z_hi)) == exact.center
            assert r.zeta == r.report.center[1] and r.asymmetry == r.report.asymmetry
            if not r.report.central:
                assert repr(r.report) == repr(exact)
        worst = max(range(len(ref)), key=lambda i: v.sections[i].asymmetry)
        assert v.witness == (Plane(v.sections[worst].m, v.sections[worst].beta), ref[worst])
    return v


class TestRefutationRecords:
    @pytest.mark.parametrize("spec", ["poly:2,0,0,1;1", "poly:1,0,-1,0,0.05;1"])
    def test_witness_keeps_its_bits(self, spec):
        check_refutation_records(rq.parse_profile(spec))

    def test_sampled_table_witness(self):
        z = np.linspace(-1.0, 1.0, 200)
        check_refutation_records(rq.make_sampled_profile(z, ((0.3 * z + 0.2) * z - 0.1) * z + 1.7))

    @settings(max_examples=8)
    @given(c0=st.floats(1.8, 2.5), c1=st.floats(-0.3, 0.3), c2=st.floats(-0.5, 0.5),
           c3=st.floats(0.3, 0.8), sign=st.sampled_from([-1.0, 1.0]))
    def test_cubic_perturbations(self, c0, c1, c2, c3, sign):
        prof = rq.parse_profile(f"poly:{c0!r},{c1!r},{c2!r},{sign * c3!r};1")
        check_refutation_records(prof, n=256)

    def test_tied_planes_give_the_first_witness(self, cubic, monkeypatch):
        # two probes on one plane tie: the witness is the first of them
        real = detect_module._probe_planes
        monkeypatch.setattr(detect_module, "_probe_planes",
                            lambda *args: [real(*args)[2]] * 2 + real(*args)[:2])
        v = rq.detect_quadric(cubic, 0.1, 17, 512, 1e-4)
        ref = exact_reports(cubic, v, 512, 1e-4)
        assert v.sections[17] == v.sections[18]
        assert v.witness == (Plane(v.sections[17].m, v.sections[17].beta), ref[17])
        assert ref[17].asymmetry == max(r.asymmetry for r in ref)

    def test_near_quadric_cubic_is_refuted(self):
        # a 1e-3 cubic term: one probe's midpoint scores above tol, though a
        # centre search once found a centre within tol there, so the
        # surface is refuted; it is a true non-quadric
        v = check_refutation_records(rq.parse_profile("poly:1,0,1,0.001;1"))
        assert v.witness[1].asymmetry > 1e-4
        assert v.witness[1].asymmetry == pytest.approx(1.042e-4, rel=1e-3)


class _CountingGeometry(symmetry._LoopGeometry):
    built = 0

    def __init__(self, points):
        type(self).built += 1
        super().__init__(points)


def check_bound_records(profile, n=1024, tol=1e-4):
    """Certify at both worker counts: every record keeps the exact
    report's centre and zeta, bit for bit, with an asymmetry between the
    exact one and tol, and the serial run builds no loop geometry."""
    serial = None
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(symmetry, "_LoopGeometry", _CountingGeometry)
            _CountingGeometry.built = 0
            v = rq.detect_quadric(profile, 0.1 * profile.q, 17, n, tol, workers=workers)
            if workers == 1:
                assert _CountingGeometry.built == 0
        assert v.is_quadric
        if serial is None:
            serial = v
            ref = exact_reports(profile, v, n, tol)
        assert v.sections == serial.sections
        for r, exact in zip(v.sections, ref):
            assert r.report.center == exact.center and r.zeta == exact.center[1]
            assert exact.asymmetry <= r.asymmetry == r.report.asymmetry <= tol


class TestMidpointBound:
    @pytest.mark.parametrize("spec", ["sphere", "cylinder:1,10", "hyperboloid:1,2",
                                      "paraboloid:2,1"])
    def test_presets(self, spec):
        check_bound_records(rq.parse_profile(spec))

    @settings(max_examples=3)
    @given(a=st.floats(-0.5, 1.0), b=st.floats(-0.5, 0.5), c=st.floats(1.0, 2.0),
           q=st.floats(0.8, 1.5))
    def test_drawn_quadric(self, a, b, c, q):
        try:
            prof = rq.parse_profile(f"quadric:{a!r},{b!r},{c!r},{q!r}")
        except NonPositiveProfile:
            assume(False)
        check_bound_records(prof)

    def test_center_heights_keep_the_full_search_zeta(self, sphere):
        betas = [-0.4, -0.1, 0.0, 0.2, 0.5]
        curve = rq.center_heights(sphere, 0.5, betas, 1024, 1e-4)
        for e in curve.entries:
            exact = rq.centrality(rq.trace_section(sphere, Plane(0.5, e.beta), 1024), 1e-4)
            assert e.zeta == exact.center[1]
            assert exact.asymmetry <= e.asymmetry <= 1e-4


MA_PROBE = """
import sys
import revquad as rq
prof = rq.parse_profile("sphere")
assert rq.detect_quadric(prof, 0.1 * prof.q, 17, 1024, 1e-4).is_quadric
assert "numpy.ma" not in sys.modules, "a quadric verdict loaded numpy.ma"
print("ok")
"""


def test_quadric_verdict_leaves_numpy_ma_out():
    # a fresh interpreter: the fit counts distinct abscissae without
    # np.unique, whose first call imports numpy.ma
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", MA_PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


POOL_PROBE = """
import sys
import revquad as rq
assert "concurrent.futures" not in sys.modules, "import revquad loaded concurrent.futures"
prof = rq.parse_profile("sphere")
assert rq.detect_quadric(prof, 0.1, 5, 256, 1e-4).is_quadric
assert "concurrent.futures" not in sys.modules, "a serial verdict loaded concurrent.futures"
print("ok")
"""


def test_import_leaves_the_pool_out():
    # a fresh interpreter: concurrent.futures is imported on the first
    # pooled call only
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", POOL_PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"
