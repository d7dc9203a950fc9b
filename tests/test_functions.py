import cmath
import math

import numpy as np
import pytest

from poincare_boundary_lab import functions as fn
from poincare_boundary_lab import geometry as ge


@pytest.fixture(scope="module")
def schedule():
    return fn.PoleSchedule.default(0.0, 20)


@pytest.fixture(scope="module")
def f0(schedule):
    return fn.RationalPoleFunction(schedule)


@pytest.fixture(scope="module")
def f1(schedule):
    return fn.DampedPoleFunction(fn.RationalPoleFunction(schedule))


def sample_disk(rng, n, radius=0.9):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))


class TestSphericalDerivative:
    def test_constant_zero(self):
        f = fn.constant_function(2.0 + 1.0j)
        assert f.sph_array(0.3) == 0.0
        assert fn.lehto_virtanen_array(f, 0.5j) == 0.0

    def test_identity_at_origin(self):
        assert fn.identity_function().sph_array(0.0) == 1.0

    def test_identity_on_circle(self):
        rho = 0.7
        expect = (1 - rho ** 2) / (1 + rho ** 2)
        for phi in (0.0, 1.0, 2.5):
            z = rho * complex(np.exp(1j * phi))
            assert fn.lehto_virtanen_array(fn.identity_function(), z) == \
                pytest.approx(expect, rel=1e-12)

    def test_reciprocal_of_identity_at_origin(self):
        inv = fn.reciprocal_function(fn.identity_function())
        assert inv.sph_array(0.3) == pytest.approx(1.0 / (1 + 0.09), rel=1e-9)

    def test_reciprocal_invariance_sweep(self, f0):
        rng = np.random.default_rng(41)
        z = sample_disk(rng, 400, 0.9)
        # keep clear of the pole disks
        keep = np.min(np.abs(z[:, None] - f0.pole_points[None, :]), axis=1) > 0.05
        z = z[keep]
        inv = fn.reciprocal_function(f0)
        a = f0.sph_array(z)
        b = inv.sph_array(z)
        ok = np.isfinite(a) & np.isfinite(b)
        assert np.max(np.abs(a[ok] - b[ok]) / np.maximum(np.abs(a[ok]), 1e-30)) <= 1e-6

    def test_automorphism_schwarz_pick(self):
        m = ge.MobiusAutomorphism(0.4 - 0.1j, 0.8)
        f = fn.automorphism_function(m)
        rng = np.random.default_rng(43)
        z = sample_disk(rng, 300, 0.95)
        lv = fn.lehto_virtanen_array(f, z)
        img = m.apply(z)
        expect = (1 - np.abs(img) ** 2) / (1 + np.abs(img) ** 2)
        assert np.max(np.abs(lv - expect)) <= 1e-12
        assert np.all(lv <= 1.0 + 1e-12)


class TestDerivativeCrossCheck:
    @pytest.mark.parametrize("name", ["saginjan_h", "square_exp", "gavrilov_g"])
    def test_gallery_deriv_vs_central_difference(self, name):
        f = fn.gallery(name)
        rng = np.random.default_rng(47)
        z = sample_disk(rng, 1000, 1.0 - 1e-3)
        # compare only where the value is representable in doubles
        lm = f.log_abs_array(z)
        z = z[np.abs(lm) < 100.0]
        assert len(z) > 300
        d_closed = f.deriv_array(z)
        d_num = (f.eval_array(z + 1e-6 * (1 - np.abs(z)))
                 - f.eval_array(z - 1e-6 * (1 - np.abs(z)))) / (2e-6 * (1 - np.abs(z)))
        rel = np.abs(d_closed - d_num) / np.maximum(np.abs(d_closed), 1e-300)
        assert np.max(rel) <= 1e-4

    def test_pole_series_deriv_vs_central_difference(self, f0):
        rng = np.random.default_rng(53)
        z = sample_disk(rng, 500, 0.9)
        keep = np.min(np.abs(z[:, None] - f0.pole_points[None, :]), axis=1) > 0.05
        z = z[keep]
        d_closed = f0.deriv_array(z)
        h = 1e-6 * (1 - np.abs(z))
        d_num = (f0.eval_array(z + h) - f0.eval_array(z - h)) / (2 * h)
        rel = np.abs(d_closed - d_num) / np.abs(d_closed)
        assert np.max(rel) <= 1e-4


class TestPoleSchedule:
    def test_conditions_hold(self, schedule):
        checks = schedule.validate()
        assert all(checks.values())

    def test_radii_strictly_decreasing_to_zero(self, schedule):
        eps = schedule.radii
        assert np.all(np.diff(eps) < 0)
        assert eps[-1] < 1e-10

    def test_disks_pairwise_disjoint(self, schedule):
        z, eps = schedule.pole_points, schedule.radii
        for i in range(len(z)):
            for j in range(i + 1, len(z)):
                assert abs(z[i] - z[j]) > eps[i] + eps[j]

    def test_hyperbolic_diameters_vanish(self, schedule):
        d = schedule.hyperbolic_diameters
        assert d[-1] < 1e-2 and d[-1] < d[0] / 100

    def test_radii_summable(self, schedule):
        assert schedule.radii.sum() < math.inf
        assert np.all(schedule.radii[1:] / schedule.radii[:-1] <= 0.5)

    def test_poles_on_deflection_arcs(self, schedule):
        # pole k sits at the exact hyperbolic offset of its deflection arc,
        # upper for even k and lower for odd k
        for k, (s, t) in enumerate(schedule.pole_strip, start=1):
            m = (k + 1) // 2
            expect = ge.radius_convert(1.0 - 0.5 ** m, "ph_to_h")
            assert abs(t) == pytest.approx(expect, rel=1e-12)
            assert (t > 0) == (k % 2 == 0)

    def test_rejects_bad_schedule(self):
        sch = fn.PoleSchedule.default(0.0, 12)
        with pytest.raises(ValueError):
            fn.PoleSchedule(sch.theta, sch.pole_points, sch.radii[::-1],
                            sch.deflections, sch.pole_strip)

class TestPoleSeries:
    def test_finite_at_offset_points(self, schedule, f0):
        for k in (1, 2, 5, 8):
            z = schedule.pole_points[k - 1] + schedule.radii[k - 1]
            v, saturated = f0.eval(z)
            assert cmath.isfinite(v) and not saturated

    def test_pole_evaluation_is_infinity(self, schedule, f0):
        v, saturated = f0.eval(schedule.pole_points[0])
        assert not cmath.isfinite(v) and not saturated

    def test_off_disk_bound(self, schedule, f0):
        # away from every pole disk the tail is controlled by sum eps_k
        rng = np.random.default_rng(59)
        z = sample_disk(rng, 800, 0.95)
        dist = np.abs(z[:, None] - schedule.pole_points[None, :])
        keep = np.all(dist >= schedule.radii[None, :], axis=1)
        z = z[keep]
        vals = np.abs(f0.eval_array(z))
        nearest = np.argmin(np.abs(z[:, None] - schedule.pole_points[None, :]), axis=1)
        main = schedule.radii[nearest] ** 2 / np.min(
            np.abs(z[:, None] - schedule.pole_points[None, :]), axis=1)
        assert np.all(vals <= main + schedule.radii.sum() + 1e-12)

    def test_lipschitz_off_disks(self, schedule, f0):
        # sampled Lipschitz bound on a band clear of the pole disks
        rng = np.random.default_rng(61)
        s = rng.uniform(0.2, 6.0, 600)
        t = rng.uniform(-0.4, 0.4, 600)
        z = np.asarray(ge.strip_to_disk(s, t), dtype=complex)
        dist = np.abs(z[:, None] - schedule.pole_points[None, :])
        z = z[np.all(dist >= 2 * schedule.radii[None, :], axis=1)]
        vals = f0.eval_array(z)
        lip = np.abs(f0.deriv_array(z))
        pairs = min(len(z) - 1, 400)
        for i in range(pairs):
            dz = abs(z[i + 1] - z[i])
            bound = max(lip[i], lip[i + 1]) * dz * 1.5 + 1e-12
            assert abs(vals[i + 1] - vals[i]) <= bound

    def test_sph_at_pole_is_reciprocal_residue(self, schedule, f0):
        for k in (1, 3):
            zk = schedule.pole_points[k - 1]
            assert f0.sph_array(np.array([zk]))[0] == pytest.approx(
                1.0 / f0.coeffs[k - 1], rel=1e-9)


class TestDampedSeries:
    def test_decays_along_band(self, schedule, f1):
        # |f1| <= C |z - 1| toward the endpoint, within the deflection band
        s = np.linspace(4.0, 14.0, 40)
        z = np.asarray(ge.strip_to_disk(s, np.full_like(s, 0.2)), dtype=complex)
        vals = np.abs(f1.eval_array(z))
        gaps = np.abs(z - 1.0)
        assert np.all(vals <= 1.0 * gaps)
        assert vals[-1] < 1e-4

    def test_huge_near_poles(self, schedule, f1):
        k = 4
        zk = schedule.pole_points[k - 1]
        probe = zk + schedule.radii[k - 1] ** 2 * 1e-7
        assert abs(f1.eval_array(np.array([probe]))[0]) > 1e6

    def test_finite_at_origin(self, f1):
        v, _ = f1.eval(0.0)
        assert cmath.isfinite(v)

    def test_pole_residues_shifted(self, schedule, f0, f1):
        expect = f0.coeffs * (f0.pole_points - 1.0)
        assert np.allclose(f1.pole_residues, expect)


class TestGallery:
    def test_names(self):
        assert fn.gallery_names() == ["gavrilov_g", "saginjan_h", "square_exp"]
        with pytest.raises(ValueError):
            fn.gallery("nope")

    def test_slow_exp_radial_identity(self):
        h = fn.gallery("saginjan_h")
        r = np.array([0.1, 0.5, 0.9, 0.999, 1 - 1e-9])
        vals = -h.log_abs_array(r.astype(complex)) * (1 - r)
        assert np.max(np.abs(vals - 1.0)) <= 1e-9

    def test_double_exp_radial_identity(self):
        g = fn.gallery("gavrilov_g")
        r = np.array([0.1, 0.5, 0.8, 0.99])
        vals = -g.log_abs_array(r.astype(complex))
        assert np.allclose(vals, np.exp(1.0 / (1.0 - r)), rtol=1e-12)

    def test_square_exp_radial_identity(self):
        f = fn.gallery("square_exp")
        r = np.array([0.2, 0.6, 0.95, 0.9999])
        vals = -f.log_abs_array(r.astype(complex))
        assert np.allclose(vals, (1.0 - r) ** -2.0, rtol=1e-12)

    def test_saturation_flags(self):
        g = fn.gallery("gavrilov_g")
        v, saturated = g.eval(0.999)   # |log|f|| ~ e^1000: underflows to 0
        assert v == 0 and saturated
        # a point where Re exp(1/(1-z)) < 0 blows the modulus up instead
        z = 1 - 0.001 * complex(np.exp(1j * 1.3))
        lm = g.log_abs_array(np.array([z]))[0]
        if lm > fn.LOG_SATURATION:
            v2, saturated = g.eval(z)
            assert not cmath.isfinite(v2) and saturated

    def test_log_sph_finite_at_any_depth(self):
        g = fn.gallery("gavrilov_g")
        z = np.array([0.999999, 1 - 1e-12, 1 - 0.001 * np.exp(1.3j)])
        ls = g.log_sph_array(z)
        assert not np.any(np.isnan(ls))
