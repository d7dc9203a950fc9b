import math

import numpy as np
import pytest

from poincare_boundary_lab import geometry as ge


def sample_disk(rng, n, radius=0.99):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))


class TestAsComplex:
    def test_accepts_interior(self):
        assert ge.as_complex(0.5 + 0.2j) == 0.5 + 0.2j

    @pytest.mark.parametrize("z", [1.0, -1.0, 1.0 + 1e-16j, 2.0, 1 - 1e-16,
                                   math.nan, complex(0.0, math.nan)])
    def test_rejects_boundary_and_outside(self, z):
        with pytest.raises(ge.DiskDomainError):
            ge.as_complex(z)

    def test_as_complex_coercion(self):
        v = ge.as_complex(0.3)
        assert v == 0.3 and isinstance(v, complex)
        with pytest.raises(ge.DiskDomainError):
            ge.as_complex(1.0)


class TestDistances:
    def test_pseudo_hyperbolic_examples(self):
        assert ge.pseudo_hyperbolic_distance(0.0, 0.3 + 0.4j) == pytest.approx(0.5)
        assert ge.pseudo_hyperbolic_distance(0.2j, 0.2j) == 0.0
        # hand evaluation |1 / 1.25|
        assert ge.pseudo_hyperbolic_distance(0.5, -0.5) == pytest.approx(0.8, abs=1e-15)

    def test_hyperbolic_examples(self):
        assert ge.hyperbolic_distance(0.1, 0.1) == 0.0
        assert ge.hyperbolic_distance(0.0, math.tanh(0.5)) == pytest.approx(1.0, abs=1e-12)
        assert ge.hyperbolic_distance(0.0, 0.5) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_spherical_examples(self):
        inf = complex(math.inf, 0.0)
        assert ge.spherical_distance(1 + 2j, 1 + 2j) == 0.0
        assert ge.spherical_distance(0.0, inf) == pytest.approx(2.0)
        assert ge.spherical_distance(1.0, 1j) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert ge.spherical_distance(inf, inf) == 0.0

    def test_every_non_finite_complex_is_infinity(self):
        # one convention for scalars and arrays: the scalar distance agrees
        # bit for bit with the array kernel, non-finite points included
        pts = [0.0, 2 + 1j, complex(math.inf, 0.0), complex(0.0, -math.inf),
               complex(math.nan, 0.0)]
        for a in pts:
            for b in pts:
                assert ge.spherical_distance(a, b) == \
                    ge.spherical_distance_array(a, b)[()]

    def test_metric_axioms_random_sweep(self):
        rng = np.random.default_rng(7)
        n = 10_000
        z, w, u = (sample_disk(rng, n) for _ in range(3))
        for dist in (ge.pseudo_hyperbolic_distance_array, ge.hyperbolic_distance_array):
            assert np.max(np.abs(dist(z, w) - dist(w, z))) <= 1e-12
            assert np.max(dist(z, w) - dist(z, u) - dist(u, w)) <= 1e-12
            assert np.max(dist(z, z)) <= 1e-12

    def test_spherical_bounded_by_two(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(5000) * 10 + 1j * rng.standard_normal(5000)
        b = np.where(rng.uniform(size=5000) < 0.2, np.inf, rng.standard_normal(5000))
        d = ge.spherical_distance_array(a, b)
        assert np.all(d <= 2.0 + 1e-12)


class TestRadiusConvert:
    def test_examples(self):
        assert ge.radius_convert(0.0, "ph_to_h") == 0.0
        assert ge.radius_convert(0.5, "ph_to_h") == pytest.approx(math.log(3.0), abs=1e-14)
        assert ge.radius_convert(1.0, "h_to_ph") == pytest.approx(math.tanh(0.5), abs=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ge.radius_convert(1.0, "ph_to_h")
        with pytest.raises(ValueError):
            ge.radius_convert(-0.1, "h_to_ph")
        with pytest.raises(ValueError):
            ge.radius_convert(0.5, "sideways")

    def test_round_trip_on_log_grid(self):
        r = 1.0 - np.logspace(-4, -0.02, 80)
        fwd = np.array([ge.radius_convert(x, "ph_to_h") for x in r])
        back = np.array([ge.radius_convert(x, "h_to_ph") for x in fwd])
        assert np.max(np.abs(back - r)) <= 1e-12
        rp = np.logspace(-6, 1, 80)
        mid = np.array([ge.radius_convert(x, "h_to_ph") for x in rp])
        again = np.array([ge.radius_convert(x, "ph_to_h") for x in mid])
        assert np.max(np.abs(again - rp)) <= 1e-12


class TestMobius:
    def test_translation_examples(self):
        m = ge.mobius_translation(0.5)
        assert m.apply(0.0) == pytest.approx(0.5)
        assert m.apply(0.5) == pytest.approx(0.8)

    def test_inverse_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = ge.MobiusAutomorphism(complex(sample_disk(rng, 1, 0.95)[0]),
                                      rng.uniform(0, 2 * math.pi))
            mi = m.inverse()
            z = sample_disk(rng, 200)
            assert np.max(np.abs(mi.apply(m.apply(z)) - z)) <= 1e-12

    def test_translation_inverse_is_negated_center(self):
        m = ge.mobius_translation(0.4 - 0.2j)
        mi = m.inverse()
        assert mi.center == pytest.approx(-0.4 + 0.2j)
        assert mi.tau == 0.0

    def test_maps_disk_into_disk(self):
        rng = np.random.default_rng(12)
        m = ge.MobiusAutomorphism(0.7j, 1.3)
        z = sample_disk(rng, 2000)
        assert np.all(np.abs(m.apply(z)) < 1.0)

    def test_invariance_of_pseudo_distance(self):
        rng = np.random.default_rng(13)
        z, w = sample_disk(rng, 3000), sample_disk(rng, 3000)
        m = ge.MobiusAutomorphism(0.3 + 0.4j, 0.7)
        d0 = ge.pseudo_hyperbolic_distance_array(z, w)
        d1 = ge.pseudo_hyperbolic_distance_array(m.apply(z), m.apply(w))
        assert np.max(np.abs(d0 - d1)) <= 1e-12


class TestDiskImage:
    def test_identity_center(self):
        assert ge.disk_image_check(0.0, 0.5, 2000, seed=1)

    def test_generic_pair(self):
        assert ge.disk_image_check(0.6, 0.3, 10_000, seed=2)

    def test_membership_definition_agrees(self):
        # z in the pseudo-disk iff d_ph(z, w) <= r, via the Euclidean form
        rng = np.random.default_rng(3)
        w, r = 0.4 + 0.3j, 0.45
        c, er = ge.pseudo_disk_euclidean(w, r)
        z = sample_disk(rng, 4000)
        inside_euclid = np.abs(z - c) <= er
        inside_metric = ge.pseudo_hyperbolic_distance_array(z, w) <= r
        mismatch = inside_euclid != inside_metric
        # disagreement only possible within float noise of the boundary
        assert np.all(np.abs(ge.pseudo_hyperbolic_distance_array(z[mismatch], w) - r) < 1e-9)


class TestStripCoordinates:
    def test_round_trip(self):
        s, t = 2.3, -0.8
        z = ge.strip_to_disk(s, t)
        s2, t2 = ge.disk_to_strip(z)
        assert s2 == pytest.approx(s, abs=1e-12)
        assert t2 == pytest.approx(t, abs=1e-12)

    def test_distance_matches_complex_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            s1, s2 = rng.uniform(0, 6, 2)
            t1, t2 = rng.uniform(-1.5, 1.5, 2)
            z1 = ge.strip_to_disk(s1, t1)
            z2 = ge.strip_to_disk(s2, t2)
            expect = ge.hyperbolic_distance(complex(z1), complex(z2))
            got = float(ge.strip_distance(s1, t1, s2, t2))
            assert got == pytest.approx(expect, abs=1e-9)

    def test_axis_is_tanh_of_half_position(self):
        # t = 0 is the diameter geodesic, parametrised by hyperbolic arc length
        assert complex(ge.strip_to_disk(2.0, 0.0)) == pytest.approx(math.tanh(1.0))
        assert complex(ge.strip_to_disk(-2.0, 0.0)) == pytest.approx(-math.tanh(1.0))

    def test_depth_deep_and_shallow(self):
        assert float(ge.strip_depth(5.0, 0.3)) == pytest.approx(
            1 - abs(complex(ge.strip_to_disk(5.0, 0.3))), rel=1e-10)
        # far beyond double saturation of the complex chart
        d = float(ge.strip_depth(100.0, 0.0))
        assert 0 < d < 1e-40

    def test_theta_rotation(self):
        th = 1.1
        z = ge.strip_to_disk(1.5, 0.4, th)
        s, t = ge.disk_to_strip(z, th)
        assert float(s) == pytest.approx(1.5, abs=1e-12)
        assert float(t) == pytest.approx(0.4, abs=1e-12)
