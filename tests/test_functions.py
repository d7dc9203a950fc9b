import cmath
import math

import numpy as np
import pytest

from poincare_boundary_lab import functions as fn
from poincare_boundary_lab import geometry as ge

import reference
from reference import reciprocal_function


@pytest.fixture(scope="module")
def schedule():
    return fn.PoleSchedule.default()


@pytest.fixture(scope="module")
def f0(schedule):
    return fn.RationalPoleFunction(schedule)


@pytest.fixture(scope="module")
def f1(schedule):
    return fn.RationalPoleFunction(schedule, damped=True)


# PoleSchedule.default(52) with float.hex: the first 20 poles recorded from
# the scalar bisection that ran one pole at a time, all 52 from the
# bisection in lockstep with one strip_to_disk call a pole.  Per pole: the
# real and imaginary parts of the pole point, its axial coordinates (s, t)
# and its radius eps_k
POLE_PINS = [
    ("0x1.87eb1990b696dp-27", "-0x1.ffffffffffffcp-2",
     "0x1.3988e14092126p-26", "-0x1.193ea7aad030ap+0", "0x1.0000000000000p-2"),
    ("0x1.61c5f7b5331ffp-1", "0x1.2aaaaaaaaaaa8p-2",
     "0x1.6550ff7356acep+0", "0x1.193ea7aad030ap+0", "0x1.0000000000000p-4"),
    ("0x1.8dfa17bdf5a1dp-1", "-0x1.9b6db6db6db74p-2",
     "0x1.60bdfc8a8735ep+0", "-0x1.f2272ae325a57p+0", "0x1.0000000000000p-6"),
    ("0x1.d415b32395381p-1", "0x1.a92492492492ap-3",
     "0x1.130387bdbaacap+1", "0x1.f2272ae325a57p+0", "0x1.0000000000000p-8"),
    ("0x1.e1db6937bcbc4p-1", "-0x1.d66666666665bp-3",
     "0x1.0e022b062b464p+1", "-0x1.5aa16394d481ep+1", "0x1.0000000000000p-10"),
    ("0x1.f480d24e2299cp-1", "0x1.da22222222215p-4",
     "0x1.6922cdaa6e4ccp+1", "0x1.5aa16394d481ep+1", "0x1.0000000000000p-12"),
    ("0x1.f83d6bfe25761p-1", "-0x1.ed8c6318c62a7p-4",
     "0x1.65d8b4806e4a4p+1", "-0x1.b78ce48912b5ap+1", "0x1.0000000000000p-14"),
    ("0x1.fd10073db71afp-1", "0x1.ee84210842098p-5",
     "0x1.bf2d4e0ece188p+1", "0x1.b78ce48912b5ap+1", "0x1.0000000000000p-16"),
    ("0x1.fe07d3abd48d0p-1", "-0x1.f76186186196fp-5",
     "0x1.bd59e8981b2d8p+1", "-0x1.09291e8e3181bp+2", "0x1.0000000000000p-18"),
    ("0x1.ff42003cdcaa1p-1", "0x1.f7a082082092ep-6",
     "0x1.0b1d2724c03c2p+2", "0x1.09291e8e3181bp+2", "0x1.0000000000000p-20"),
    ("0x1.ff80fd1ea6098p-1", "-0x1.fbd83060c1848p-6",
     "0x1.0aa2afaa20914p+2", "-0x1.3607294602e42p+2", "0x1.0000000000000p-22"),
    ("0x1.ffd04001f33a9p-1", "0x1.fbe810204082cp-7",
     "0x1.37042a79b9580p+2", "0x1.3607294602e42p+2", "0x1.0000000000000p-24"),
    ("0x1.ffe01fd0fa847p-1", "-0x1.fdf606060600cp-7",
     "0x1.36c58b779b314p+2", "-0x1.62a40fda3e3ccp+2", "0x1.0000000000000p-26"),
    ("0x1.fff408000fcc8p-1", "0x1.fdfa020201fc3p-8",
     "0x1.63235002cbf96p+2", "0x1.62a40fda3e3ccp+2", "0x1.0000000000000p-28"),
    ("0x1.fff803fd07ea0p-1", "-0x1.fefd80c05fedap-8",
     "0x1.6303a821568aep+2", "-0x1.8f20adeaec67cp+2", "0x1.0000000000000p-30"),
    ("0x1.fffd0100007f4p-1", "0x1.fefe80401fce3p-9",
     "0x1.8f607df01fde0p+2", "0x1.8f20adeaec67cp+2", "0x1.0000000000000p-32"),
    ("0x1.fffe007fd03fbp-1", "-0x1.ff7f601801ed7p-9",
     "0x1.8f5093f3de64ap+2", "-0x1.bb8d39eb37215p+2", "0x1.0000000000000p-34"),
    ("0x1.ffff402000040p-1", "0x1.ff7fa007fdebdp-10",
     "0x1.bbad2debe02f8p+2", "0x1.bb8d39eb37215p+2", "0x1.0000000000000p-36"),
    ("0x1.ffff800ffd020p-1", "-0x1.ffbfd802fff87p-10",
     "0x1.bba5336c5645ap+2", "-0x1.e7f1c169764eep+2", "0x1.0000000000000p-38"),
    ("0x1.ffffd00400004p-1", "0x1.ffbfe800ffb91p-11",
     "0x1.e801be698b8f2p+2", "0x1.e7f1c169764eep+2", "0x1.0000000000000p-40"),
    ("0x1.ffffe001ffd04p-1", "-0x1.ffdff6006012ep-11",
     "0x1.e7fdbfc99a3ecp+2", "-0x1.0a2923e3ba0c8p+3", "0x1.0000000000000p-42"),
    ("0x1.fffff40080000p-1", "0x1.ffdffa00200eap-12",
     "0x1.0a2d2383bb600p+3", "0x1.0a2923e3ba0c8p+3", "0x1.0000000000000p-44"),
    ("0x1.fffff8003ffd0p-1", "-0x1.ffeffd800cc95p-12",
     "0x1.0a2c23afbc3f8p+3", "-0x1.205866eeb4dbdp+3", "0x1.0000000000000p-46"),
    ("0x1.fffffd0010000p-1", "0x1.ffeffe8004c8bp-13",
     "0x1.205a66d6b4f9ep+3", "0x1.205866eeb4dbdp+3", "0x1.0000000000000p-48"),
    ("0x1.fffffe0007ffep-1", "-0x1.fff7ff4002babp-13",
     "0x1.2059e6e3b5182p+3", "-0x1.368729f0af286p+3", "0x1.0000000000000p-50"),
    ("0x1.ffffff4002002p-1", "0x1.fff7ff8001ba1p-14",
     "0x1.368829ecaf222p+3", "0x1.368729f0af286p+3", "0x1.0000000000000p-52"),
    ("0x1.ffffff8000ffep-1", "-0x1.fffbffe003308p-14",
     "0x1.3687e9ecef006p+3", "-0x1.4cb5acf06964bp+3", "0x1.0000000000000p-54"),
    ("0x1.ffffffd000402p-1", "0x1.fffbfff003118p-15",
     "0x1.4cb62cee69344p+3", "0x1.4cb5acf06964bp+3", "0x1.0000000000000p-56"),
    ("0x1.ffffffe000202p-1", "-0x1.fffdfff800ed1p-15",
     "0x1.4cb60cef79574p+3", "-0x1.62e40fef939eep+3", "0x1.0000000000000p-58"),
    ("0x1.fffffff40007ep-1", "0x1.fffdfffc00e9dp-16",
     "0x1.62e44fef13906p+3", "0x1.62e40fef939eep+3", "0x1.0000000000000p-60"),
    ("0x1.fffffff800040p-1", "-0x1.fffefffe0c832p-16",
     "0x1.62e43fef56d6ep+3", "-0x1.791262ee99d8ep+3", "0x1.0000000000000p-62"),
    ("0x1.fffffffd00012p-1", "0x1.fffeffff0c824p-17",
     "0x1.791282ee7910cp+3", "0x1.791262ee99d8ep+3", "0x1.0000000000000p-64"),
    ("0x1.fffffffe00008p-1", "-0x1.ffff7fff63ae7p-17",
     "0x1.79127aee8c9e0p+3", "-0x1.8f40aded9712dp+3", "0x1.0000000000000p-66"),
    ("0x1.ffffffff3ffffp-1", "0x1.ffff7fffa3aefp-18",
     "0x1.8f40bded90d7ep+3", "0x1.8f40aded9712dp+3", "0x1.0000000000000p-68"),
    ("0x1.ffffffff7ffffp-1", "-0x1.ffffffffb208fp-18",
     "0x1.8f40b5ed95f24p+3", "-0x1.a56ef4ec920ccp+3", "0x1.0000000000000p-70"),
    ("0x1.ffffffffd0003p-1", "0x1.ffffffffc20a3p-19",
     "0x1.a56ef8ec92ac2p+3", "0x1.a56ef4ec920ccp+3", "0x1.0000000000000p-72"),
    ("0x1.ffffffffe0000p-1", "-0x1.ffffffffaebc1p-19",
     "0x1.a56ef8ec95a10p+3", "-0x1.bb9d39eb8c76bp+3", "0x1.0000000000000p-74"),
    ("0x1.fffffffff4000p-1", "0x1.ffffffffb2bcfp-20",
     "0x1.bb9d3beb907aep+3", "0x1.bb9d39eb8c76bp+3", "0x1.0000000000000p-76"),
    ("0x1.fffffffff8000p-1", "-0x1.ffffffff70250p-20",
     "0x1.bb9d3beb95146p+3", "-0x1.d1cb7dea86bcap+3", "0x1.0000000000000p-78"),
    ("0x1.fffffffffd002p-1", "0x1.ffffffff71242p-21",
     "0x1.d1cb7eea8f766p+3", "0x1.d1cb7dea86bcap+3", "0x1.0000000000000p-80"),
    ("0x1.fffffffffe000p-1", "-0x1.fffffffee4f40p-21",
     "0x1.d1cb7eea98556p+3", "-0x1.e7f9c16980f99p+3", "0x1.0000000000000p-82"),
    ("0x1.ffffffffff400p-1", "0x1.fffffffee532ep-22",
     "0x1.e7f9c1e992996p+3", "0x1.e7f9c16980f99p+3", "0x1.0000000000000p-84"),
    ("0x1.ffffffffff802p-1", "-0x1.fffffffdcb10fp-22",
     "0x1.e7f9c1e9a4428p+3", "-0x1.fe2804a87b344p+3", "0x1.0000000000000p-86"),
    ("0x1.ffffffffffd00p-1", "0x1.fffffffdcb1fdp-23",
     "0x1.fe2804e89e7f0p+3", "0x1.fe2804a87b344p+3", "0x1.0000000000000p-88"),
    ("0x1.ffffffffffe00p-1", "-0x1.fffffffb966bfp-23",
     "0x1.fe2804e8c1cc0p+3", "-0x1.0a2b23e3bab73p+4", "0x1.0000000000000p-90"),
    ("0x1.fffffffffff42p-1", "0x1.fffffffb9670fp-24",
     "0x1.0a2b23f3de034p+4", "0x1.0a2b23e3bab73p+4", "0x1.0000000000000p-92"),
    ("0x1.fffffffffff84p-1", "-0x1.fffffff72cebfp-24",
     "0x1.0a2b23f4014fap+4", "-0x1.1542456b37d42p+4", "0x1.0000000000000p-94"),
    ("0x1.fffffffffffd0p-1", "0x1.fffffff72cea3p-25",
     "0x1.154245737e6ccp+4", "0x1.1542456b37d42p+4", "0x1.0000000000000p-96"),
    ("0x1.fffffffffffdep-1", "-0x1.ffffffee59d7ep-25",
     "0x1.15424573c5056p+4", "-0x1.205966eeb4f12p+4", "0x1.0000000000000p-98"),
    ("0x1.ffffffffffff4p-1", "0x1.ffffffee59d7ep-26",
     "0x1.205966f342226p+4", "0x1.205966eeb4f12p+4", "0x1.0000000000000p-100"),
    ("0x1.ffffffffffffap-1", "-0x1.ffffffdcb3b46p-26",
     "0x1.205966f3cf538p+4", "-0x1.2b708870320e1p+4", "0x1.0000000000000p-102"),
    ("0x1.ffffffffffffcp-1", "0x1.ffffffdcb3b36p-27",
     "0x1.2b7088734c708p+4", "0x1.2b708870320e1p+4", "0x1.0000000000000p-104"),
]


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
        inv = reciprocal_function(fn.identity_function())
        assert inv.sph_array(0.3) == pytest.approx(1.0 / (1 + 0.09), rel=1e-9)

    def test_reciprocal_invariance_sweep(self, f0):
        rng = np.random.default_rng(41)
        z = sample_disk(rng, 400, 0.9)
        # keep clear of the pole disks
        keep = np.min(np.abs(z[:, None] - f0.pole_points[None, :]), axis=1) > 0.05
        z = z[keep]
        inv = reciprocal_function(f0)
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
        # f# from the log form against |f'| / (1 + |f|^2) with a numerical f'
        f = fn.gallery(name)
        rng = np.random.default_rng(47)
        z = sample_disk(rng, 1000, 1.0 - 1e-3)
        # compare only where the value is representable in doubles
        lm = f.log_abs_array(z)
        z = z[np.abs(lm) < 100.0]
        assert len(z) > 300
        h = 1e-6 * (1 - np.abs(z))
        d_num = (f.eval_array(z + h) - f.eval_array(z - h)) / (2 * h)
        sph_num = np.abs(d_num) / (1 + np.abs(f.eval_array(z)) ** 2)
        sph = f.sph_array(z)
        rel = np.abs(sph - sph_num) / np.maximum(sph, 1e-300)
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
        sch = fn.PoleSchedule.default(12)
        with pytest.raises(ValueError):
            fn.PoleSchedule(sch.pole_points, sch.radii[::-1], sch.deflections,
                            sch.pole_strip)

    @pytest.mark.parametrize("count", [10, 20, 52])
    def test_default_schedule_pinned(self, count):
        # pole k does not depend on the count, so count 10 is the first ten rows
        sch = fn.PoleSchedule.default(count)
        rows = [(z.real.hex(), z.imag.hex(), float(s).hex(), float(t).hex(), float(e).hex())
                for z, (s, t), e in zip(sch.pole_points, sch.pole_strip, sch.radii)]
        assert rows == POLE_PINS[:count]


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


def _hex(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return [(float(x.real).hex(), float(x.imag).hex()) for x in a]
    return [float(x).hex() for x in a]


class TestOneClassSeries:
    """RationalPoleFunction(schedule, damped) forms z - z_k once per call;
    every value must match, to the last bit, the two classes it replaced
    (tests/reference.py), which formed it once per value and again for the
    pole snap."""

    @staticmethod
    def points(sch):
        z, eps = sch.pole_points, sch.radii
        s = np.linspace(4.0, 36.0, 17)
        deep = np.concatenate([1.0 - 2.0 ** -np.arange(1.0, 53.0),
                               ge.strip_to_disk(s, np.full_like(s, 0.3)),
                               ge.strip_to_disk(s, np.full_like(s, -0.3))])
        return np.concatenate([sample_disk(np.random.default_rng(67), 300, 0.99),
                               z, z + eps, z + eps ** 2 * 1e-3,
                               z + 0.5j * fn.POLE_SNAP, [0.0], deep])

    @pytest.mark.parametrize("method", ["eval_array", "deriv_array", "sph_array",
                                        "log_sph_array"])
    @pytest.mark.parametrize("damped", [False, True])
    @pytest.mark.parametrize("count", [10, 20, 52])
    def test_bit_identical_to_two_classes(self, count, damped, method):
        sch = fn.PoleSchedule.default(count)
        new = fn.RationalPoleFunction(sch, damped=damped)
        old = reference.RationalPoleFunction(sch)
        if damped:
            old = reference.DampedPoleFunction(old)
        z = self.points(sch)
        assert new.label == old.label
        assert _hex(getattr(new, method)(z)) == _hex(getattr(old, method)(z))

    def test_pole_points_snap(self, schedule, f0, f1):
        # the snap points above do reach it: 1/|residue| at every pole
        z = schedule.pole_points + 0.5j * fn.POLE_SNAP
        for f in (f0, f1):
            assert np.array_equal(f.sph_array(z), 1.0 / np.abs(f.pole_residues))


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
        assert v == 0 and saturated is True
        # where Re exp(1/(1-z)) < 0 the modulus blows up instead: log|f| ~ 9.1e115
        v, saturated = g.eval(1 - 0.001 * complex(np.exp(1j * 1.3)))
        assert not cmath.isfinite(v) and saturated is True
        # a finite tower value is not flagged
        v, saturated = g.eval(1 - 0.01 * complex(np.exp(1j * 1.55)))
        assert cmath.isfinite(v) and v != 0 and saturated is False

    def test_log_sph_finite_at_any_depth(self):
        g = fn.gallery("gavrilov_g")
        z = np.array([0.999999, 1 - 1e-12, 1 - 0.001 * np.exp(1.3j)])
        ls = g.log_sph_array(z)
        assert not np.any(np.isnan(ls))
