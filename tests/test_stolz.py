import math

import numpy as np
import pytest

import reference as ref
from poincare_boundary_lab import analysis as an
from poincare_boundary_lab import curves as cv
from poincare_boundary_lab import functions as fn
from poincare_boundary_lab import geometry as ge
from poincare_boundary_lab import stolz as st


class TestRhoRule:
    def test_first_branch(self):
        assert st.rho_of_alpha(math.pi / 4) == 1.0

    def test_branch_point(self):
        assert st.rho_of_alpha(math.pi / 3) == pytest.approx(1.0)
        assert 2.0 * math.cos(math.pi / 3) == pytest.approx(1.0)

    def test_second_branch(self):
        assert st.rho_of_alpha(2 * math.pi / 5) == pytest.approx(
            2.0 * math.cos(2 * math.pi / 5))

    def test_continuity_at_branch_point(self):
        eps = 1e-9
        below = st.rho_of_alpha(math.pi / 3 - eps)
        above = st.rho_of_alpha(math.pi / 3 + eps)
        assert abs(below - above) < 1e-8

    def test_rejects_out_of_range(self):
        for bad in (0.0, math.pi / 2, -0.1, 2.0):
            with pytest.raises(ValueError):
                st.rho_of_alpha(bad)


class TestStolzAngle:
    def test_sector_stays_in_disk(self):
        for alpha in (0.3, math.pi / 3, 1.4):
            ang = st.StolzAngle(alpha)
            z = ang.sample(2000, seed=1)
            assert np.all(np.abs(z) < 1.0)
            assert np.all(ang.contains(z))

    def test_membership(self):
        ang = st.StolzAngle(math.pi / 4)
        assert ang.contains(0.5)
        assert not ang.contains(0.5j)
        assert not ang.contains(1.0 - 1.5)  # |1-z| >= rho

    def test_radius_follows_half_angle(self):
        for alpha in (0.3, math.pi / 4, math.pi / 3, 1.2, 1.4):
            assert st.StolzAngle(alpha).rho == st.rho_of_alpha(alpha)
        for bad in (3.0, 0.0, -0.5, math.pi / 2):
            with pytest.raises(ValueError, match="not in"):
                st.StolzAngle(bad)
        with pytest.raises(TypeError):
            st.StolzAngle(0.5, 0.5)  # the radius is not a parameter


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3, 1.3])
class TestStolzMap:
    def test_boundary_correspondences(self, alpha):
        m = st.StolzAngle(alpha)
        w = m.apply(1.0 - m.rho + 1e-12)
        assert abs(w + 1.0) <= 1e-9
        assert abs(m.apply(1.0 - 1e-8) - 1.0) <= 1e-7

    def test_axis_sequence_converges_to_one(self, alpha):
        m = st.StolzAngle(alpha)
        gaps = [abs(m.apply(1.0 - 10.0 ** (-k)) - 1.0)
                for k in range(2, 8)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6

    def test_composition_matches_closed_form(self, alpha):
        m = st.StolzAngle(alpha)
        z = m.sample(1000, seed=2, margin=1e-9)
        assert np.max(np.abs(m.forward_steps(z) - m.closed_form(z))) <= 1e-9

    def test_image_inside_disk_and_roundtrip(self, alpha):
        m = st.StolzAngle(alpha)
        z = m.sample(1000, seed=3, margin=1e-9)
        w = m.forward_steps(z)
        assert np.all(np.abs(w) < 1.0)
        assert np.max(np.abs(m.invert(w) - z)) <= 1e-9

    def test_domain_rejection(self, alpha):
        m = st.StolzAngle(alpha)
        with pytest.raises(st.StolzMapDomainError):
            m.apply(0.9j)


class TestDistortionBounds:
    @pytest.mark.parametrize("alpha,beta", [
        (math.pi / 4, math.pi / 6), (math.pi / 4, math.pi / 4),
        (math.pi / 3, math.pi / 6), (math.pi / 3, math.pi / 4)])
    def test_holdout_passes(self, alpha, beta):
        m_hat, big_m, ok = st.stolz_distortion_bounds(alpha, beta, 10_000, seed=5)
        assert ok
        assert 0.0 < m_hat <= big_m < math.inf

    def test_near_degenerate_beta(self):
        # beta close to alpha: constants worsen but stay positive and finite
        alpha = math.pi / 4
        m_hat, big_m, ok = st.stolz_distortion_bounds(alpha, alpha - 1e-3,
                                                      8000, seed=6)
        assert ok and m_hat > 0 and math.isfinite(big_m)


class TestGRegion:
    def test_radius_point_between_chord_and_curve(self):
        g = st.GRegion(0.3, math.pi / 6, 0.5)
        assert g.contains(1.0 - g.rho / 2.0, 8)

    def test_point_on_curve(self):
        g = st.GRegion(0.3, math.pi / 6, 0.5)
        assert np.all(g.contains(g.curve.refine(6)[2:10], 8))

    def test_outside_both_parts(self):
        g = st.GRegion(0.2, math.pi / 6, 0.4)
        assert not g.contains(-0.5 + 0.5j, 8)
        assert not g.contains(0.2 - 0.6j, 8)

    def test_lens_respects_arc(self):
        g = st.GRegion(0.1, math.pi / 4, 0.3)
        # on the radius but beyond the arc, and farther from the tangent
        # curve than the deflection plus the sampling slack
        assert not g.contains(0.35, 8)

    def test_lower_side_bounded_by_chord(self):
        g = st.GRegion(0.2, 0.4, 0.5)
        inside = 1.0 - 0.2 * complex(np.exp(1j * 0.3))    # below chord angle
        outside = 1.0 - 0.2 * complex(np.exp(1j * 0.6))   # beyond the chord
        assert g.contains(inside, 8)
        assert not g.contains(outside, 8)

    @pytest.mark.parametrize("params", [(0.3, math.pi / 6, 0.5), (0.1, math.pi / 4, 0.3),
                                        (0.2, 0.4, 0.5)])
    def test_array_membership_matches_scalar_test(self, params):
        # 12,000 points of w = 1 - z: a quarter within 1e-12 of each edge of
        # the lens (the arc |w| = rho, the chord arg w = alpha, the axis
        # arg w = 0 and the horodisk |w|^2 = Re w, each moved out by
        # BOUNDARY_TOL), half of those within a few ulps of it.  contains
        # takes them in one call and gives the booleans of the scalar test it
        # replaced, point by point; the lens reads |w| as Python's abs does,
        # which numpy's complex abs differs from in the last bit on about a
        # third of inputs
        g = st.GRegion(*params)
        rng = np.random.default_rng(int(1e3 * sum(params)))
        tol, n = st.BOUNDARY_TOL, 3000

        def near(edge):
            edge = np.broadcast_to(edge, n)
            return edge + np.where(np.arange(n) % 2, rng.uniform(-1e-12, 1e-12, n),
                                   np.spacing(edge) * rng.integers(-4, 5, n))

        ang = rng.uniform(-g.alpha - 0.2, g.alpha + 0.2, n)
        low = rng.uniform(-g.alpha, 0.0, n)
        polar = [(near(g.rho + tol), ang),
                 (g.rho * np.sqrt(rng.uniform(0, 1, n)), near(g.alpha + tol)),
                 (g.rho * np.sqrt(rng.uniform(0, 1, n)), near(-tol)),
                 (near(np.cos(low)), low)]
        pts = np.concatenate([1.0 - r * np.exp(1j * a) for r, a in polar])
        pts = pts[np.abs(pts) < 1.0 - 1e-9]
        assert len(pts) > 10_000
        want = [ref.g_region_contains(g, p, 8) for p in pts]
        assert g.contains(pts, 8).tolist() == want

    @pytest.mark.parametrize("bad", [1.0 - 1e-15, 1.5j, complex(math.nan, 0.0)])
    def test_point_outside_the_disk_is_refused(self, bad):
        g = st.GRegion(0.3, math.pi / 6, 0.5)
        with pytest.raises(ge.DiskDomainError, match="point 1 has"):
            g.contains([0.5, bad], 8)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            st.GRegion(0.2, 2.0, 0.5)
        with pytest.raises(ValueError):
            st.GRegion(0.2, 0.4, 1.5)


class TestDecayProfiles:
    def test_forms_increase_toward_zero(self):
        for prof in (st.DecayProfile.log_form(), st.DecayProfile.power_form(0.5),
                     st.DecayProfile.super_exponential(2)):
            t = np.logspace(-5, -1, 20)
            assert np.all(np.diff(prof.p(t)) < 0)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            st.DecayProfile("bad", lambda t: t, 1.0)

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            st.DecayProfile.log_form(exponent=0.5)

    @pytest.mark.parametrize("shift", [-1.0, -5.0, float("nan")])
    def test_log_shift_must_keep_the_profile_finite_on_the_disk(self, shift):
        # depths t = 1 - |z| reach 1, where log(shift + 1/t) needs shift > -1;
        # log:-1 used to pass and divide by zero at the centre of the disk
        with pytest.raises(ValueError, match="log profile needs shift > -1"):
            st.DecayProfile.log_form(shift)
        assert np.isfinite(st.DecayProfile.log_form(-0.9).bound(np.array([1.0]))).all()


class TestDecayMargin:
    def test_zero_function_satisfies_everything(self):
        rad = cv.canonical_curve("radius", 0.0)
        zero = fn.constant_function(0.0)
        for prof in (st.DecayProfile.log_form(), st.DecayProfile.power_form(2.0)):
            rep = st.decay_margin(zero, rad, prof, 8)
            assert rep.verdict == "satisfied"

    def test_slow_exp_identity(self):
        rad = cv.canonical_curve("radius", 0.0)
        h = fn.gallery("saginjan_h")
        pts = rad.refine(12)
        t = 1.0 - np.abs(pts)
        assert np.max(np.abs(-h.log_abs_array(pts) * t - 1.0)) <= 1e-9

    def test_violation_threshold_matches_oracle(self):
        rad = cv.canonical_curve("radius", 0.0)
        h = fn.gallery("saginjan_h")
        rep = st.decay_margin(h, rad, st.DecayProfile.log_form(shift=1.0), 12)
        assert rep.verdict == "violated"
        oracle = 1.0 / math.expm1(1.0)
        assert abs(1.0 - math.log1p(1.0 / oracle)) <= 1e-15
        assert rep.violation_threshold == pytest.approx(oracle, abs=1e-6)

    def test_euler_shift_violated_everywhere(self):
        rad = cv.canonical_curve("radius", 0.0)
        h = fn.gallery("saginjan_h")
        rep = st.decay_margin(h, rad, st.DecayProfile.log_form(), 10)
        assert rep.verdict == "violated"
        assert rep.violation_threshold is None

    def test_square_exp_exact_bound(self):
        rad = cv.canonical_curve("radius", 0.0)
        sq = fn.gallery("square_exp")
        rep = st.decay_margin(sq, rad, st.DecayProfile.super_exponential(1), 12)
        assert rep.verdict == "satisfied"

    def test_pole_on_curve_violates(self, ):
        sch = fn.PoleSchedule.default(12)
        f0 = fn.RationalPoleFunction(sch)
        pole = sch.pole_points[1]
        samples = [0.1, pole, 0.9, 0.99, 0.999, 1 - 2e-4]
        curve = cv.SampleBackedCurve(0.0, samples)
        rep = st.decay_margin(f0, curve, st.DecayProfile.log_form(), 8)
        assert rep.verdict == "violated"

    def test_consistency_probe(self):
        # the super-exponential bound holds along the radius while the
        # normality sup over the deflection band diverges
        rad = cv.canonical_curve("radius", 0.0)
        sq = fn.gallery("square_exp")
        margin = st.decay_margin(sq, rad, st.DecayProfile.super_exponential(1), 12)
        sup = an.normality_sup(sq, cv.CurvilinearAngle(rad, 0.5), 14)
        assert margin.verdict == "satisfied" and sup.verdict == "diverging"
