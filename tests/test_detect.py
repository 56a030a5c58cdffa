"""Center curves, the center-height relation, quadratic fitting, and the
quadric decision procedure."""

import numpy as np
import pytest

import revquad as rq
import revquad.detect as detect_module
from revquad import (
    CenterCurve,
    CenterEntry,
    InvalidDomain,
    LoopEscapesDomain,
    Plane,
    QuadricParams,
    RankDeficient,
    SingularConfiguration,
    SlabViolation,
)

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

    @pytest.mark.parametrize("n_planes, n_samples", [(5.5, 256), (17, 256.5), (17.0, 1024)])
    def test_non_integer_counts_rejected(self, sphere, n_planes, n_samples):
        with pytest.raises(InvalidDomain):
            rq.detect_quadric(sphere, 0.1, n_planes, n_samples, 1e-4)

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

    @pytest.mark.parametrize("spec", [
        "sphere", "hyperboloid:1,2", "poly:2,0,0,1;1", "poly:1,0,1,0,1;1",
        "poly:1,0,-1,0,0.05;1",
    ])
    def test_probe_slopes_stop_at_the_bracket(self, spec, monkeypatch):
        # the closure check never bisects, and it picks the very slopes the
        # full section_extent picks
        prof = rq.parse_profile(spec)
        delta = 0.1 * prof.q
        mu = rq.slope_bound(prof, delta)
        expected = []
        half = 0.5 * (prof.q - 2.0 * delta)
        for beta in np.linspace(-half, half, detect_module.PROBE_COUNT):
            m = detect_module._PROBE_SHRINK * (prof.q - abs(beta)) / np.sqrt(prof.eval(beta))
            chosen = 0.5 * mu
            for _ in range(detect_module._PROBE_TRIES):
                if m <= 0.5 * mu:
                    break
                try:
                    rq.section_extent(prof, Plane(m, beta))
                except LoopEscapesDomain:
                    m *= detect_module._PROBE_SHRINK
                    continue
                chosen = m
                break
            expected.append((float(chosen), float(beta)))

        def no_bisection(*args):
            raise AssertionError("probe closure check bisected a root")

        monkeypatch.setattr(rq.sections, "_bisect_root", no_bisection)
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

        monkeypatch.setattr(detect_module, "ProcessPoolExecutor", RecordingPool)
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
