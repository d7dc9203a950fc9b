import cmath
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from poincare_boundary_lab import analysis as an
from poincare_boundary_lab import curves as cv
from poincare_boundary_lab import functions as fn
from poincare_boundary_lab import geometry as ge


@pytest.fixture(scope="module")
def radius():
    return cv.canonical_curve("radius", 0.0)


@pytest.fixture(scope="module")
def band(radius):
    return cv.CurvilinearAngle(radius, 0.5)


@pytest.fixture(scope="module")
def schedule():
    return fn.PoleSchedule.default()


@pytest.fixture(scope="module")
def f0(schedule):
    return fn.RationalPoleFunction(schedule)


@pytest.fixture(scope="module")
def f1(schedule):
    return fn.RationalPoleFunction(schedule, damped=True)


class TestNormalitySup:
    def test_identity_sup_is_one_at_origin(self, band):
        rep = an.normality_sup(fn.identity_function(), band, 8)
        assert rep.verdict == "bounded"
        assert max(rep.sups) == pytest.approx(1.0, abs=1e-9)

    def test_automorphism_bounded_by_one(self, band):
        f = fn.automorphism_function(ge.mobius_translation(0.3))
        rep = an.normality_sup(f, band, 8)
        assert rep.verdict == "bounded"
        assert max(rep.sups) <= 1.0 + 1e-9

    def test_pole_series_bounded(self, band, f0):
        rep = an.normality_sup(f0, band, 14)
        assert rep.verdict == "bounded"

    def test_square_exp_diverging(self, band):
        rep = an.normality_sup(fn.gallery("square_exp"), band, 14)
        assert rep.verdict == "diverging"

    def test_sups_non_decreasing(self, band, f0):
        rep = an.normality_sup(f0, band, 10)
        assert all(a <= b + 1e-15 for a, b in zip(rep.sups, rep.sups[1:]))

    def test_min_level_enforced(self, band):
        with pytest.raises(ValueError):
            an.normality_sup(fn.identity_function(), band, 3)

    def test_constant_all_zero(self, band):
        rep = an.normality_sup(fn.constant_function(3.0), band, 6)
        assert max(rep.sups) == 0.0 and rep.verdict == "bounded"


class TestTrendVerdict:
    def test_plateau(self):
        assert an.sup_trend_verdict([1, 2, 3, 3.0, 3.01, 3.02]) == "bounded"

    def test_growth(self):
        assert an.sup_trend_verdict([1, 2.5, 6, 15, 40]) == "diverging"

    def test_inconclusive(self):
        assert an.sup_trend_verdict([1, 1.5, 2.2, 3.1]) == "inconclusive"


class TestPointwiseIndicator:
    def test_constant_negative(self):
        seq = [1 - 2.0 ** (-k) for k in range(1, 9)]
        rep = an.pseq_indicator_pointwise(fn.constant_function(1.0), seq)
        assert rep.verdict == "negative"
        assert all(v == 0.0 for v in rep.values)

    def test_pole_adjacent_positive(self, schedule, f0):
        seq = schedule.pole_points[:8] + schedule.radii[:8] ** 2 * 1e-3
        rep = an.pseq_indicator_pointwise(f0, seq)
        assert rep.verdict == "positive"
        assert rep.values[-1] > 1e3

    def test_double_exp_radial_trend_recorded(self):
        g = fn.gallery("gavrilov_g")
        seq = [1 - 2.0 ** (-k) for k in range(1, 10)]
        rep = an.pseq_indicator_pointwise(g, seq)
        # the indicator is only sufficient: here it stays quiet
        assert rep.verdict == "negative"
        assert len(rep.values) == 9

    def test_requires_increasing_moduli(self):
        with pytest.raises(ValueError):
            an.pseq_indicator_pointwise(fn.identity_function(), [0.5, 0.4])

    @staticmethod
    def _crossing_by_suffix(vals, T):
        """The first i with every vals[i:] >= T, tried suffix by suffix."""
        above = vals >= T
        for i in range(len(vals)):
            if np.all(above[i:]):
                return i
        return None

    def test_crossing_matches_suffix_scan(self, monkeypatch):
        rng = np.random.default_rng(0)
        cases = [np.full(n, 5e3) for n in (1, 7)]               # all above
        cases += [np.full(n, 1.0) for n in (1, 7)]              # never above
        cases += [np.array([np.nan]), np.array([2e3, np.nan]),  # NaN counts as below
                  np.array([np.nan, 2e3, 2e3]), np.array([100.0, 10.0, 1000.0])]
        for _ in range(300):
            vals = 10.0 ** rng.uniform(0.0, 4.0, rng.integers(1, 13))
            vals[rng.random(len(vals)) < 0.1] = np.nan
            cases.append(np.sort(vals) if rng.random() < 0.3 else vals)
        for vals in cases:
            monkeypatch.setattr(an, "lehto_virtanen_array", lambda f, z: vals)
            seq = [1 - 2.0 ** (-k) for k in range(1, len(vals) + 1)]
            crossed = an.pseq_indicator_pointwise(fn.identity_function(), seq) \
                .details["crossed_at"]
            assert crossed == {str(T): self._crossing_by_suffix(vals, T)
                               for T in an.PSEQ_THRESHOLDS}, vals


class TestLocalSupIndicator:
    def test_constant_zero(self):
        seq = [1 - 2.0 ** (-k) for k in range(1, 7)]
        radii = [0.5 * 0.7 ** k for k in range(6)]
        rep = an.pseq_indicator_local_sup(fn.constant_function(0.0), seq, radii)
        assert max(rep.values) == 0.0

    def test_pole_sequence_diverging(self, schedule, f0):
        rep = an.pseq_indicator_local_sup(
            f0, schedule.pole_points[:10], schedule.hyperbolic_diameters[:10])
        assert rep.verdict == "diverging"

    def test_identity_bounded_by_one(self):
        seq = [1 - 2.0 ** (-k) for k in range(1, 8)]
        radii = [0.3 * 0.8 ** k for k in range(7)]
        rep = an.pseq_indicator_local_sup(fn.identity_function(), seq, radii)
        assert max(rep.values) <= 1.0 + 1e-12

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            an.pseq_indicator_local_sup(fn.identity_function(), [0.5, 0.9], [0.1, 0.2])

    def test_echoes_the_thresholds_it_is_judged_with(self):
        seq = [1 - 2.0 ** (-k) for k in range(1, 5)]
        radii = [0.5 * 0.7 ** k for k in range(4)]
        rep = an.pseq_indicator_local_sup(fn.identity_function(), seq, radii)
        assert rep.details["thresholds"] == {"plateau_ratio": cv.PLATEAU_RATIO,
                                             "growth_factor": an.GROWTH_FACTOR}


class TestSplitPairIndicator:
    def test_pole_construction_flags_both(self, schedule, f0):
        n = 9
        seq_a = schedule.pole_points[:n] + schedule.radii[:n]
        seq_b = schedule.pole_points[:n] + schedule.radii[:n] ** 2 * 1e-3
        alpha = complex(f0.eval_array(np.array([seq_a[-1]]))[0])
        rep = an.pseq_indicator_split_pair(f0, seq_a, seq_b, alpha, 0.5)
        assert rep.verdict == "positive"
        assert rep.details["pairs_merge"]

    def test_constant_fails_separation(self):
        seq = np.array([1 - 2.0 ** (-k) for k in range(1, 9)])
        rep = an.pseq_indicator_split_pair(
            fn.constant_function(1.0), seq, seq + 1e-9, 1.0, 0.5)
        assert rep.verdict == "negative"
        assert not rep.details["separated_along_b"]

    def test_equal_sequences_fail(self, schedule, f0):
        seq = schedule.pole_points[:8] + schedule.radii[:8]
        alpha = complex(f0.eval_array(np.array([seq[-1]]))[0])
        rep = an.pseq_indicator_split_pair(f0, seq, seq, alpha, 0.5)
        assert rep.verdict == "negative"


class TestClusterEstimate:
    def test_identity_limit_one(self):
        member = an.radial_angle_membership(0.3, 0.0)
        rep = an.cluster_estimate(fn.identity_function(), member, 0.0,
                                  range(2, 15), seed=3)
        assert rep.verdict == "limit"
        assert ge.spherical_distance(rep.limit_candidate, 1.0) < 1e-3
        assert rep.diameters[-1] < 1e-3

    def test_damped_series_limit_zero(self, f1):
        member = an.radial_angle_membership(0.3, 0.0)
        rep = an.cluster_estimate(f1, member, 0.0, range(2, 15), seed=5)
        assert rep.verdict == "limit"
        assert ge.spherical_distance(rep.limit_candidate, 0.0) < 1e-3

    def test_two_value_region(self, schedule, f1):
        member_band = an.radial_angle_membership(0.5, 0.0)
        poles, radii = schedule.pole_points, schedule.radii

        def member(z):
            z = np.asarray(z, complex)
            d = np.abs(z[:, None] - poles[None, :])
            return member_band(z) | np.any(d <= radii[None, :], axis=1)

        extra = {}
        for zj in poles:
            for k in range(2, 11):
                if 2.0 ** (-k - 1) <= abs(zj - 1) < 2.0 ** (-k):
                    extra.setdefault(k, []).append(zj)
        rep = an.cluster_estimate(f1, member, 0.0, range(2, 11), seed=7,
                                  extra_points=extra)
        assert rep.limit_candidate is None
        found = False
        for sh in rep.shells:
            if not sh.get("values"):
                continue
            arr = np.asarray(sh["values"])
            d0 = ge.spherical_distance_array(arr, np.zeros(len(arr)))
            di = ge.spherical_distance_array(arr, np.full(len(arr), np.inf))
            if d0.min() < 1e-2 and di.min() < 1e-2:
                found = True
        assert found

    def test_empty_region_inconclusive(self):
        def member(z):
            return np.zeros(len(np.asarray(z)), dtype=bool)

        rep = an.cluster_estimate(fn.identity_function(), member, 0.0,
                                  range(2, 8), seed=9)
        assert rep.verdict == "inconclusive"

    def test_deterministic_given_seed(self, f1):
        member = an.radial_angle_membership(0.4, 0.0)
        a = an.cluster_estimate(f1, member, 0.0, range(2, 8), seed=11)
        b = an.cluster_estimate(f1, member, 0.0, range(2, 8), seed=11)
        assert asdict(a) == asdict(b)


class TestRenormalizedFamily:
    def test_constant_is_exact(self):
        ws = [1 - 2.0 ** (-k) for k in range(1, 8)]
        rep = an.renormalized_family_check(fn.constant_function(2.0), ws, 0.5, 2.0)
        assert rep.verdict == "converges"
        assert max(rep.sup_ds) == 0.0

    def test_identity_converges_to_one(self):
        ws = [1 - 2.0 ** (-k) for k in range(1, 17)]
        rep = an.renormalized_family_check(fn.identity_function(), ws, 0.9, 1.0)
        assert rep.verdict == "converges"
        assert rep.sup_ds[-1] < 1e-3
        # decreasing tail
        assert all(a >= b for a, b in zip(rep.sup_ds[4:], rep.sup_ds[5:]))

    def test_damped_series_converges_to_zero(self, f1):
        ws = [1 - 2.0 ** (-k) for k in range(1, 15)]
        rep = an.renormalized_family_check(f1, ws, 0.5, 0.0)
        assert rep.verdict == "converges"

    def test_wrong_target_fails(self):
        ws = [1 - 2.0 ** (-k) for k in range(1, 10)]
        rep = an.renormalized_family_check(fn.identity_function(), ws, 0.5, 0.0)
        assert rep.verdict == "no_convergence"

    def test_r1_range(self):
        with pytest.raises(ValueError):
            an.renormalized_family_check(fn.identity_function(), [0.5], 1.2, 1.0)

    def test_nan_values_are_failures(self):
        nanf = fn.CallableFunction("nanf", lambda z: np.full_like(z, np.nan),
                                   lambda z: np.full_like(z, np.nan))
        rep = an.renormalized_family_check(nanf, [0.5, 0.75], 0.5, 0.0)
        assert rep.failures > 0
        assert rep.verdict == "inconclusive"

    def test_poles_are_not_failures(self):
        # numpy's 1/0 is (inf+nanj): the point at infinity, not a failure
        def recip(z):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / z

        def drecip(z):
            with np.errstate(divide="ignore", invalid="ignore"):
                return -1.0 / z ** 2
        rep = an.renormalized_family_check(
            fn.CallableFunction("recip", recip, drecip), [0.0], 0.5, 0.0)
        assert rep.failures == 0
        assert rep.sup_ds == [2.0]


class TestRadialMembership:
    def test_agrees_with_sampled_predicate(self, radius):
        rng = np.random.default_rng(71)
        member = an.radial_angle_membership(0.5, 0.0)
        region = cv.CurvilinearAngle(radius, 0.5)
        pts = 0.95 * np.sqrt(rng.uniform(0, 1, 300)) * np.exp(
            1j * rng.uniform(-math.pi, math.pi, 300))
        closed = member(pts)
        for p, m in zip(pts, closed):
            sampled = cv.angle_contains(region, p, 10)
            if m != sampled:
                # disagreements live within the sampling slack of the border
                d = np.min(ge.pseudo_hyperbolic_distance_array(
                    p, region.curve.refine(10)))
                assert abs(d - 0.5) <= region.curve.max_gap(10) + 1e-9


class TestConsistencyAcrossTheory:
    def test_normality_verdict_constant_on_equivalence_class(self, f0):
        # equivalent curves must agree on the normality verdict
        curves = [cv.canonical_curve("radius", 0.0),
                  cv.canonical_curve("chord", 0.0, math.pi / 6),
                  cv.canonical_curve("hypercycle", 0.0, 0.5)]
        cases = [(fn.identity_function(), "bounded"),
                 (fn.gallery("saginjan_h"), "bounded"),
                 (fn.gallery("square_exp"), "diverging"),
                 (f0, "bounded")]
        for f, expect in cases:
            for curve in curves:
                rep = an.normality_sup(f, cv.CurvilinearAngle(curve, 0.5), 12)
                assert rep.verdict == expect, (f.label, curve.label)

    def test_bounded_values_imply_bounded_verdict(self, band, f0):
        # if the sampled moduli stay small near the endpoint, the normality
        # verdict must come out bounded
        s = np.linspace(1.0, 10.0, 200)
        for t in (-0.4, 0.0, 0.4):
            z = np.asarray(ge.strip_to_disk(s, np.full_like(s, t)), complex)
            vals = np.abs(f0.eval_array(z))
            assert np.max(vals) < 1e3
        rep = an.normality_sup(f0, band, 12)
        assert rep.verdict == "bounded"

    def test_cluster_agrees_with_family(self, f1):
        member = an.radial_angle_membership(0.3, 0.0)
        cl = an.cluster_estimate(f1, member, 0.0, range(2, 15), seed=13)
        ws = [1 - 2.0 ** (-k) for k in range(1, 15)]
        fam = an.renormalized_family_check(f1, ws, 0.3, 0.0)
        assert cl.verdict == "limit" and fam.verdict == "converges"
        assert ge.spherical_distance(cl.limit_candidate, 0.0) < 1e-3


class TestSphereStatistics:
    def test_mean_of_identical_points(self):
        m = an.sphere_mean(np.array([2.0 + 1j, 2.0 + 1j, 2.0 + 1j]))
        assert ge.spherical_distance(m, 2.0 + 1j) < 1e-9

    def test_mean_near_infinity(self):
        m = an.sphere_mean(np.array([np.inf, np.inf], dtype=complex))
        assert not cmath.isfinite(m)

    def test_diameter_antipodal(self):
        d = an.spherical_diameter(np.array([0.0, np.inf], dtype=complex))
        assert d == pytest.approx(2.0)

    def test_huge_finite_values_embed_at_the_north_pole(self):
        # |v|^2 overflows here; the embedding must not turn into NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = an._sphere_embed(np.array([1e200, -3e200j]))
            d = an.spherical_diameter(np.array([1e200, np.inf], dtype=complex))
        assert np.allclose(p, [(0.0, 0.0, 1.0)] * 2, rtol=0, atol=1e-150)
        assert d == 0.0

    def test_diameter_matches_tensor_form(self):
        # the (N, N, 3) difference tensor summed over its last axis, as the
        # diameter was computed before it took the three components apart
        def tensor_diameter(values):
            pts = an._sphere_embed(values)
            diff = pts[:, None, :] - pts[None, :, :]
            return float(np.sqrt(np.max(np.sum(diff * diff, axis=-1))))

        rng = np.random.default_rng(77)
        for n in list(range(1, 12)) + [50, 120, 230, 400]:
            mag = 10.0 ** rng.uniform(-8.0, 8.0, n)
            v = mag * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
            v[rng.uniform(size=n) < 0.1] = np.inf
            v[rng.uniform(size=n) < 0.05] = 0.0
            assert an.spherical_diameter(v) == tensor_diameter(v)
