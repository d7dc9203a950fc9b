import collections
import hashlib
import math
import random

import numpy as np
import pytest

import reference as ref
from poincare_boundary_lab import curves as cv
from poincare_boundary_lab import geometry as ge


@pytest.fixture(scope="module")
def radius():
    return cv.canonical_curve("radius", 0.0)


@pytest.fixture(scope="module")
def horocycle():
    return cv.canonical_curve("horocycle", 0.0)


@pytest.fixture(scope="module")
def chord():
    return cv.canonical_curve("chord", 0.0, math.pi / 6)


class TestCanonicalCurves:
    def test_radius_samples_real_increasing(self, radius):
        pts = radius.refine(8)
        assert np.all(np.abs(pts.imag) < 1e-14)
        assert np.all(np.diff(pts.real) > 0)
        assert np.all(np.abs(pts) < 1.0)

    def test_horocycle_circle_equation(self, horocycle):
        pts = horocycle.refine(10)
        assert np.max(np.abs(np.abs(pts - 0.5) - 0.5)) <= 1e-12

    def test_horocycle_through_origin(self, horocycle):
        pts = horocycle.refine(4)
        assert abs(pts[0]) <= 1e-12

    def test_chord_collinear(self, chord):
        pts = chord.refine(8)
        angles = np.angle(1.0 - pts)
        assert np.ptp(angles) <= 1e-12
        assert np.isclose(angles[0], -math.pi / 6)

    def test_refine_depth_schedule(self, radius, horocycle, chord):
        for curve in (radius, horocycle, chord):
            for k in (4, 8, 12):
                pts = curve.refine(k)
                assert 1.0 - abs(pts[-1]) <= 2.0 ** (-k)

    def test_refinement_is_nested(self, radius, chord):
        for curve in (radius, chord):
            a = curve.refine(6)
            b = curve.refine(9)
            assert len(b) >= len(a)
            assert np.allclose(b[:len(a)], a)

    def test_samples_converge_to_endpoint(self, chord):
        pts = chord.refine(12)
        gaps = np.abs(pts - 1.0)
        assert gaps[-1] < 1e-3 and gaps[-1] < gaps[0]

    def test_polyline_simple_at_sample_resolution(self, radius, horocycle, chord):
        for curve in (radius, horocycle, chord):
            assert cv.polyline_is_simple(curve.refine(10))
        assert not cv.polyline_is_simple(np.array([0, 2 + 2j, 2, 2j]))  # bow-tie
        assert not cv.polyline_is_simple(np.array([0, 2, 3, 1]))  # collinear back-track

    def test_polyline_simple_matches_pairwise_loop(self):
        def orient(p, q, r):
            return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

        def simple(xy):
            for i in range(len(xy) - 1):
                for j in range(i + 2, len(xy) - 1):
                    p, q, r, s = xy[i], xy[i + 1], xy[j], xy[j + 1]
                    d = (orient(p, q, r), orient(p, q, s), orient(r, s, p), orient(r, s, q))
                    if d[0] * d[1] < 0 and d[2] * d[3] < 0:
                        return False
                    if not any(d) and all(min(p[k], q[k]) <= max(r[k], s[k])
                                          and min(r[k], s[k]) <= max(p[k], q[k])
                                          for k in (0, 1)):
                        return False
            return True

        rng = np.random.default_rng(3)
        verdicts = set()
        for k in range(200):
            # small integer lattices give collinear overlaps; floats general position
            m = int(rng.integers(0, 12))
            xy = (rng.integers(0, 4, (m, 2)).astype(float) if k % 2
                  else rng.normal(size=(m, 2)))
            want = simple(xy.tolist())
            verdicts.add(want)
            assert cv.polyline_is_simple(xy) == want
        assert verdicts == {True, False}

    def test_hypercycle_constant_offset(self):
        c = cv.canonical_curve("hypercycle", 0.0, 0.5)
        s, t = c.strip_refine(8)
        assert np.allclose(t, t[0])
        assert math.tanh(abs(t[0]) / 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cv.canonical_curve("chord", 0.0, math.pi / 2)
        with pytest.raises(ValueError):
            cv.canonical_curve("hypercycle", 0.0, 1.5)
        with pytest.raises(ValueError):
            cv.canonical_curve("lemniscate", 0.0)

    @pytest.mark.parametrize("kind,parameter,message", [
        ("radius", 5.0, "a radius takes no parameter, got 5.0"),
        ("radius", math.nan, "a radius takes no parameter, got nan"),
        ("horocycle", 0.3, "horocycle side must be 1 or -1, got 0.3"),
        ("horocycle", -2.0, "horocycle side must be 1 or -1, got -2.0"),
        ("horocycle", math.nan, "horocycle side must be 1 or -1, got nan"),
        ("hypercycle", None, "hypercycle offset must be in (-1, 1)"),
        ("hypercycle", -0.999999999, "hypercycle offset -0.999999999 is too close to "
         "the boundary: its arclength step rounds to 0"),
    ])
    def test_parameter_a_kind_does_not_take_is_refused(self, kind, parameter, message):
        # a horocycle used to read any side >= 0 as +1 and any other as -1
        with pytest.raises(ValueError) as exc:
            cv.canonical_curve(kind, 0.0, parameter)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind,parameter", [
        ("radius", None), ("radius", 0), ("horocycle", None), ("horocycle", 1),
        ("horocycle", -1.0)])
    def test_accepted_parameters(self, kind, parameter):
        assert cv.canonical_curve(kind, 0.0, parameter).endpoint_angle == 0.0

    def test_max_gap_near_mesh(self, radius):
        gap = radius.max_gap_hyperbolic(8)
        assert 0 < gap <= cv.HYP_MESH + 1e-9


class TestParametricSampling:
    # float.hex of sum(s), sum(t) and len(s) of strip_refine(18), recorded
    # before the point functions moved from numpy to cmath scalars
    PINNED = {
        ("horocycle", 0.0, 1): ("0x1.f884602048246p+13", "0x1.1b84654e604fap+14", 2890),
        ("horocycle", 0.0, -1): ("0x1.f884602048246p+13", "-0x1.1b84654e604fap+14", 2890),
        ("horocycle", 2.5, 1): ("0x1.f884602049ba3p+13", "0x1.1b84654e61f1dp+14", 2890),
        ("horocycle", 2.5, -1): ("0x1.f884602049b69p+13", "-0x1.1b84654e61c16p+14", 2890),
        ("chord", 0.0, 0.5): ("0x1.8dac61c6816edp+8", "0x1.0cdcb95d6f0dfp+5", 60),
        ("chord", 0.0, -0.4): ("0x1.8264896ab1982p+8", "-0x1.9a67ce668ff7cp+4", 58),
        ("chord", 0.0, 0.3): ("0x1.72f0492125a87p+8", "0x1.268d6bceeb793p+4", 56),
        ("chord", 2.5, 0.5): ("0x1.8dac61c682bd5p+8", "0x1.0cdcb95d6da6bp+5", 60),
        ("chord", 2.5, -0.4): ("0x1.8264896ab1f95p+8", "-0x1.9a67ce668f889p+4", 58),
        ("chord", 2.5, 0.3): ("0x1.72f0492126006p+8", "0x1.268d6bceed5a0p+4", 56),
    }

    @pytest.mark.parametrize("spec", list(PINNED), ids=lambda k: "%s:%g:%g" % k)
    def test_strip_refine_pinned(self, spec):
        s, t = cv.canonical_curve(*spec).strip_refine(18)
        assert (float(sum(s)).hex(), float(sum(t)).hex(), len(s)) == self.PINNED[spec]

    def test_failed_level_leaves_a_valid_prefix(self):
        # level 54 of a chord fails part-way; the samples stepped before the
        # failure stay, and every level is still the one a fresh curve builds
        curve = cv.canonical_curve("chord", 0.0, 0.5)
        with pytest.raises(ValueError, match="at level 54"):
            curve.strip_refine(54)
        assert len(curve._u) == len(curve._pts) > 1
        fresh = cv.canonical_curve("chord", 0.0, 0.5)
        for level in (18, 53):
            for a, b in zip(curve.strip_refine(level), fresh.strip_refine(level)):
                assert np.array_equal(a, b)


def _recording_brackets(curve):
    """Make `curve` record (u, a, b) of each step's bracket, (0, inf) where
    it is not certified."""
    calls = []
    bracket = type(curve)._bracket

    def record(u, z):
        a, b = bracket(curve, u, z)
        calls.append((u, a, b))
        return a, b

    curve._bracket = record
    return calls


def _case_id(x):
    return "%s:%g:%g" % x if isinstance(x, tuple) else str(x)


def _halvings(curve, u, z):
    """How many times the halving of a step from z = point(u) halves u."""
    n, lo = 1, u * 0.5
    while ref.dh(z, curve._point(lo)) < cv.HYP_MESH:
        n, lo = n + 1, lo * 0.5
    return n


class TestCertifiedBisection:
    """ParametricCurve._step skips the halving and bisection points whose
    outcome its closed-form bracket decides; these tests evaluate what it
    skips."""

    SHADOW = [(("chord", th, a), 22) for th in (0.0, 2.5, -1.3)
              for a in (0.5, -0.4, -1.55)]
    SHADOW += [(("horocycle", th, side), 14) for th in (0.0, 2.5, -1.3)
               for side in (1, -1)]

    @pytest.mark.parametrize("spec,level", SHADOW, ids=_case_id)
    def test_skipped_midpoints_agree_with_evaluation(self, spec, level):
        curve = cv.canonical_curve(*spec)
        calls = _recording_brackets(curve)
        curve.strip_refine(level)
        us, pts = curve._u, curve._pts
        assert [u for u, _, _ in calls] == us[:-1]
        skipped = 0
        for z, u_next, (u, a, b) in zip(pts, us[1:], calls):
            # the halving, then the bisection of every midpoint, 60 times
            lo, hi = 0.0, u
            for _ in range(_halvings(curve, u, z) + 60):
                mid = 0.5 * (lo + hi)
                close = ref.dh(z, curve._point(mid)) < cv.HYP_MESH
                if lo < mid < hi and not a < mid < b:
                    assert close == (mid >= b)
                    skipped += 1
                if close:
                    hi = mid
                else:
                    lo = mid
            assert lo == u_next
        assert skipped > 20 * len(calls)

    # sha256 of the little-endian bytes of _u, s and t of strip_refine(level),
    # recorded while _step evaluated every midpoint
    SHA256 = {
        (("horocycle", 2.5, -1), 22): (
            "e2cfd002cbc547ce530bfb2dbb9f0dcf968c830f2819d3aae269e5e72e5b0196",
            "51755774b59a79d6880a70e11d7aeeae87ce973332c77f1a7682a252a78eb047",
            "90675e06acdb3b55e143be212c08fcc57255fc086b2d2c207be8b7d937a9ad05"),
        (("chord", 0.0, 1.5), 45): (
            "f11a5ae14ccf786bf7d15db1d1f2831d554e993baec8cb80a3e35055d3c7bc20",
            "d262f57fb8858ec3675e3452c5240acfa91c5062e7c2a88be9a9284417eff615",
            "a3e8102e8b37026d8972530ed952ede6e8704402497b558d11baf9f56160f853"),
        (("chord", 2.5, -1.55), 40): (
            "bfe8ee94c5aade89e39d837841e484cc828856d0f21fd8391126349f62cbe339",
            "de1254cbb73682000e88a304296ed40f9b37eb1cf33c16405e3392d4e3b06484",
            "09060e4f4df7d8e89650b40d66d02721ec3b7719d8ae0ba6824d8d7d975d61f5"),
    }

    @pytest.mark.parametrize("spec,level", list(SHA256), ids=_case_id)
    def test_deep_samples_pinned(self, spec, level):
        curve = cv.canonical_curve(*spec)
        s, t = curve.strip_refine(level)
        digests = tuple(hashlib.sha256(np.asarray(x, dtype="<f8").tobytes()).hexdigest()
                        for x in (curve._u, s, t))
        assert digests == self.SHA256[(spec, level)]

    SAMPLES = [(("chord", th, a), level) for th, a in
               ((0.0, 0.5), (2.5, -0.4), (-1.3, -1.55), (0.0, 1.5))
               for level in (14, 22, 45)]
    SAMPLES += [(("horocycle", th, side), level) for th, side in ((0.0, 1), (2.5, -1))
                for level in (14, 22)]

    @pytest.mark.parametrize("spec,level", SAMPLES, ids=_case_id)
    def test_samples_match_bisection_of_every_midpoint(self, spec, level):
        # _u, s and t bit for bit against a shadow that evaluates every
        # midpoint with the reference gap
        curve = cv.canonical_curve(*spec)
        s, t = curve.strip_refine(level)
        us, pts = ref.bisection_samples(cv.canonical_curve(*spec), level)
        assert curve._u == us
        arr = np.asarray(pts, dtype=complex)
        keep = cv._level_end(1.0 - np.abs(arr), level)
        s_ref, t_ref = ge.disk_to_strip(arr[:keep], spec[1])
        assert np.array_equal(s, s_ref) and np.array_equal(t, t_ref)

    @staticmethod
    def evaluations_per_step(monkeypatch, spec, level):
        curve = cv.canonical_curve(*spec)
        count = [0]
        ph_gap = cv._ph_gap

        def counted(z, p):
            count[0] += 1
            return ph_gap(z, p)

        monkeypatch.setattr(cv, "_ph_gap", counted)
        curve.strip_refine(level)
        return count[0] / (len(curve._u) - 1)

    def test_evaluations_per_horocycle_step(self, monkeypatch):
        # evaluating every midpoint costs about 54 a step (one halving, 53
        # bisections); the closed-form bracket spends 17.92
        assert self.evaluations_per_step(monkeypatch, ("horocycle", 0.0, 1), 18) <= 18

    @pytest.mark.parametrize("spec", [("chord", 0.0, 0.5), ("chord", 2.5, -1.55)],
                             ids=_case_id)
    def test_evaluations_per_chord_step(self, monkeypatch, spec):
        # 20.26 and 20.40, about as many as a horocycle step
        assert self.evaluations_per_step(monkeypatch, spec, 22) <= 21

    def test_raising_probe_certifies_nothing(self, monkeypatch):
        # a distance that rounds to 1 makes log1p(-d) raise
        curve = cv.canonical_curve("chord", 0.0, 0.5)
        monkeypatch.setattr(cv, "_ph_gap", lambda z, p: 1.0)
        z = np.complex128(curve._pts[0])
        assert curve._bracket(curve._u[0], z) == (0.0, math.inf)

    @pytest.mark.parametrize("case", ["nan", "a below u/2", "no margin", "sides swapped"])
    def test_failed_certification_certifies_nothing(self, case):
        # a bracket its evaluations do not certify is (0, inf), and the step
        # still evaluates its way to the bisection's sample
        good = cv.canonical_curve("horocycle", 0.0)
        mesh, beyond = cv.HYP_MESH, good._beyond
        curve = cv.canonical_curve("horocycle", 0.0)
        curve._beyond = {
            "nan": lambda u, g: math.nan,
            "a below u/2": lambda u, g: 0.4 * u if g > mesh else beyond(u, g),
            "no margin": lambda u, g: beyond(u, mesh),
            "sides swapped": lambda u, g: beyond(u, 2.0 * mesh - g),
        }[case]
        u, z = good._u[0], np.complex128(good._pts[0])
        assert good._bracket(u, z) != (0.0, math.inf)
        assert curve._bracket(u, z) == (0.0, math.inf)
        assert curve.strip_refine(6)[0].tobytes() == good.strip_refine(6)[0].tobytes()
        assert curve._u == good._u

    @pytest.mark.parametrize("d", [0.0, np.nextafter(cv._MESH_PH, 0.0), cv._MESH_PH,
                                   0.5, 1.0, 2.0, math.inf, math.nan])
    def test_distance_at_midpoints_decides_as_the_gap(self, monkeypatch, d):
        # the bisection compares d with _MESH_PH, and must move lo or hi as
        # comparing the gap with HYP_MESH does, or raise where the gap raises
        def fake(z, p):
            # the halving stops at lo = 0.5, and z is at distance 0 from itself
            return 0.5 if p == 0.5 else 0.0 if p == z else d

        def gap(z, p):
            e = fake(z, p)
            return math.log1p(e) - math.log1p(-e)

        curve = cv.ParametricCurve(0.0, complex, None, 1.0, lambda level: 2)
        curve._bracket = lambda u, z: (0.0, math.inf)
        monkeypatch.setattr(cv, "_ph_gap", fake)
        outcomes = []
        for step in (curve._step, lambda u, z: ref.bisection_step(complex, u, z, gap)):
            try:
                outcomes.append(step(1.0, 1.0 + 0j))
            except ValueError:
                outcomes.append("raises")
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == "raises") == (d >= 1.0)

    def test_mesh_threshold_pinned(self):
        # _MESH_PH is the smallest double whose evaluated gap reaches
        # HYP_MESH, and the two comparisons agree on every double within
        # 2^18 ulps of it
        gap = lambda d: math.log1p(d) - math.log1p(-d)
        mesh_ph = cv._MESH_PH
        assert gap(mesh_ph) >= cv.HYP_MESH > gap(float(np.nextafter(mesh_ph, 0.0)))
        bits = np.float64(mesh_ph).view(np.int64) + np.arange(-2 ** 18, 2 ** 18 + 1)
        for d in bits.view(np.float64).tolist():
            assert (gap(d) < cv.HYP_MESH) == (d < mesh_ph)

    def test_gap_matches_reference_on_random_pairs(self):
        rng = np.random.default_rng(11)
        n = 20_000
        th = rng.uniform(-math.pi, math.pi, n)
        th2 = th + rng.normal(size=n) * 10.0 ** rng.uniform(-12, 0, n)
        r = 1.0 - 10.0 ** rng.uniform(-15, 0, n)
        r2 = 1.0 - 10.0 ** rng.uniform(-15, 0, n)
        for a, b in zip((r * np.exp(1j * th)).tolist(), (r2 * np.exp(1j * th2)).tolist()):
            self.assert_gap_matches_reference(np.complex128(a), b)

    def test_gap_matches_reference_on_horocycle_probes(self, monkeypatch):
        # every point a level-14 horocycle evaluates, halving, probe or mid
        pairs = []
        ph_gap = cv._ph_gap

        def recorded(z, p):
            pairs.append((z, p))
            return ph_gap(z, p)

        monkeypatch.setattr(cv, "_ph_gap", recorded)
        cv.canonical_curve("horocycle", 2.5, -1).strip_refine(14)
        monkeypatch.undo()
        assert len(pairs) > 10_000
        for z, p in pairs:
            self.assert_gap_matches_reference(z, p)

    @staticmethod
    def assert_gap_matches_reference(z, p):
        d = cv._ph_gap(z, p)
        try:
            want = ref.dh(complex(z), p).hex()
        except ValueError:
            want = "raises"
        try:
            got = (math.log1p(d) - math.log1p(-d)).hex()
        except ValueError:
            got = "raises"
        assert got == want

    ORACLE = [(("horocycle", 0.0, 1), 16), (("horocycle", 2.5, -1), 16),
              (("chord", 0.0, 0.5), 40), (("chord", -1.3, -1.55), 45)]

    @pytest.mark.parametrize("spec,level", ORACLE, ids=_case_id)
    def test_gap_error_against_mpmath(self, spec, level):
        """Inside the band HYP_MESH +- tau, an evaluated gap from point(u) to
        a point of [u/2, u] is within one unit 2^-52 / depth(point(u/2)) of
        the exact distance between the exact curve points, and an exact gap
        outside the band is not evaluated more than one unit into it: with
        GAP_ERROR_ULPS = 16, 8 times inside the tau/2 that _step relies on."""
        import mpmath as mp

        kind, theta, par = spec
        curve = cv.canonical_curve(*spec)
        calls = _recording_brackets(curve)
        curve.strip_refine(level)
        rng = np.random.default_rng(7)
        steps = np.unique(np.linspace(0, len(calls) - 1, 40).astype(int))
        mesh = cv.HYP_MESH
        worst = 0.0
        certified = 0
        with mp.workprec(200):
            rot = mp.expj(mp.mpf(theta))
            if kind == "chord":
                lean = mp.expj(-mp.mpf(par))
                point = lambda v: rot * (1 - mp.mpf(v) * lean)
            else:
                point = lambda v: rot * (1 + mp.expj(par * mp.mpf(v))) / 2
            for i in steps:
                u, a, b = calls[i]
                z, lo = curve._pts[i], 0.5 * u
                unit = 2.0 ** -52 / (1.0 - abs(curve._point(lo)))
                tau = cv.GAP_ERROR_ULPS * unit
                band = lambda x: min(max(x, mesh - tau), mesh + tau)
                vs = [lo, curve._u[i + 1], *rng.uniform(lo, u, 12)]
                if a:
                    certified += 1
                    vs += [a, b, *np.linspace(a, b, 12)]
                for v in vs:
                    g = ref.dh(z, curve._point(float(v)))
                    p, q = point(u), point(v)
                    exact = float(2 * mp.atanh(abs(p - q) / abs(1 - p * mp.conj(q))))
                    worst = max(worst, abs(band(g) - band(exact)) / unit)
        assert certified > len(steps) // 2
        assert worst < 1.0


class TestClosedFormSteps:
    """The closed forms a chord or horocycle step brackets its bisection
    with: `beyond(u, g)` is the parameter at hyperbolic distance g past
    point(u).  They do not depend on the endpoint, so they are checked at
    theta = 0."""

    @pytest.mark.parametrize("spec", [
        ("horocycle", 0.0, 1), ("horocycle", 0.0, -1), ("chord", 0.0, 0.0),
        ("chord", 0.0, 0.5), ("chord", 0.0, -1.55), ("chord", 0.0, 1.55)], ids=_case_id)
    def test_beyond_against_mpmath(self, spec):
        """Stepped from the first sample by beyond(u, HYP_MESH) for
        SAMPLE_BUDGET steps, or until u passes 1e-290, the exact distance
        from point(u) to point(beyond(u, g)) is g to within 4 units: 2^-52 /
        sqrt(depth(point(beyond(u, g)))) along a horocycle, whose x = -+2
        cot(phi/2) in the upper half-plane rounds relative to its size,
        2^-52 / cos(alpha) along a chord, whose distance from its foot does.
        The worst seen is 1.85 and 2.92 units (alpha = +-1.55)."""
        import mpmath as mp

        kind, _, par = spec
        curve = cv.canonical_curve(*spec)
        us = [curve._u[0]]
        while len(us) < cv.SAMPLE_BUDGET and us[-1] > 1e-290:
            us.append(curve._beyond(us[-1], cv.HYP_MESH))
        assert len(us) == cv.SAMPLE_BUDGET or kind == "chord"
        worst = 0.0
        with mp.workprec(1200):   # resolves 1 - |z| down to 1e-290
            if kind == "chord":
                lean = mp.expj(-mp.mpf(par))
                point = lambda v: 1 - mp.mpf(v) * lean
            else:
                point = lambda v: (1 + mp.expj(par * mp.mpf(v))) / 2
            for i in np.unique(np.geomspace(1, len(us), 30).astype(int) - 1):
                for g in (0.5 * cv.HYP_MESH, cv.HYP_MESH, 1.5 * cv.HYP_MESH):
                    v = curve._beyond(us[i], g)
                    p, q = point(us[i]), point(v)
                    exact = 2 * mp.atanh(abs(p - q) / abs(1 - p * mp.conj(q)))
                    scale = mp.sqrt(1 - abs(q)) if kind == "horocycle" else math.cos(par)
                    worst = max(worst, float(abs(exact - g) * scale) / 2.0 ** -52)
        assert worst <= 4.0


def _strip_digest(curve, level):
    s, t = curve.strip_refine(level)
    data = np.asarray(s, dtype="<f8").tobytes() + np.asarray(t, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest(), len(s)


class TestLevelEnd:
    """Where a level of each curve class ends."""

    # sha256 of the little-endian bytes of s then t, and len(s), of
    # strip_refine(level), recorded when the radius, the hypercycles and the
    # polyline tail each cut their own runs
    OFFSET_RUNS = {
        (("radius", 0.0, 0), 1): (
            "df286f75bbf504e34ec49e2e0d58bef3368d59b9381845780b88fd59ed3f788f", 6),
        (("radius", 0.0, 0), 20): (
            "af0cb710c675c324473b06fadbaa660d6b39e901a29650e1030613487cd6af90", 60),
        (("radius", 2.5, 0), 60): (
            "2ef2e9954d3b0deed51ce1b5cb877b273f74f474e9a024e9b5bda52e0555e459", 171),
        (("hypercycle", 0.0, 0.0), 1): (
            "092360039a8536ff05d302b66f5b34155d3221071c762b957a121406ec80ff80", 6),
        (("hypercycle", 0.0, 0.0), 60): (
            "92ccecaf435f854455ba4c11320fef2868e1c317fa7bc2a1e77e983bbfb42b1b", 171),
        (("hypercycle", 0.0, 1e-9), 60): (
            "c29c79f79735e7b09ae49c13ac6ae9637fa5463972221a0a8062d6d3bac74e09", 171),
        (("hypercycle", 0.0, 0.5), 1): (
            "96f8e6b3f9ccf5567eb055f6a4494141908691ee5f62cf81fa2820cc2ef411b6", 2),
        (("hypercycle", 0.0, 0.5), 60): (
            "52eeadea9308ab64b36333cf4de886be5fad0bab2c8f740fbc70234f9884ea50", 280),
        (("hypercycle", 0.0, 0.95), 1): (
            "cee416e930af4659eb469b2bfea91f79ce594d6aef2d8d8a797f54f0646ba65c", 1),
        (("hypercycle", 0.0, 0.95), 20): (
            "a47c00bbf3a9925eea9bce723646950cbda00764231afe3b6b9c2842fbdba9e1", 903),
        (("hypercycle", 2.5, -0.95), 1): (
            "f0a37a93ca38dd2eb73395a16afb7614cf3647e61bb695965f5d5102009e7b29", 1),
        (("hypercycle", 2.5, -0.95), 60): (
            "644e6322e6fe427b4bcae5fed0594e45bbee7751c2908b9ef9d0338c3863e2a0", 3062),
    }

    @pytest.mark.parametrize("spec,level", list(OFFSET_RUNS), ids=_case_id)
    def test_offset_runs_pinned(self, spec, level):
        curve = cv.canonical_curve(*spec)
        assert _strip_digest(curve, level) == self.OFFSET_RUNS[(spec, level)]

    # (gamma1, gamma2) digests at (n, level) for r = 0.5; None is the pair's
    # truncation level
    ZIGZAGS = {
        (0, None): (("67e5de2a4dbf74fee43c7351f6866b5d4c8737c82579dd1e6cc9051b1fe3b8f1", 21),
                    ("67e5de2a4dbf74fee43c7351f6866b5d4c8737c82579dd1e6cc9051b1fe3b8f1", 21)),
        (0, 80): (("dfbda0f040564840d4032e5bb3348118e1c5fbfe5fa7474507e1c1869e996d93", 226),
                  ("dfbda0f040564840d4032e5bb3348118e1c5fbfe5fa7474507e1c1869e996d93", 226)),
        (3, None): (("41004506f1e319938b06fb3f92ad158ae5054c35f0164c89fc24451b4036cd70", 79),
                    ("c5e96aea8c8a931a2b66c88f96822acd7a474994ce637138f40a035bb1cc9cdc", 404)),
        (3, 80): (("dfbda0f040564840d4032e5bb3348118e1c5fbfe5fa7474507e1c1869e996d93", 226),
                  ("00eb44f160749e9518a8b724ab5e77bee32c9565d06246abe0c1ef6b79365b87", 555)),
        (8, None): (("c5235348f1d672e22a38ca6a87978c1f93584b636a09553179a743b40a2fef42", 340),
                    ("b07cced17200fdf415d4080c56a13b9e74da8677eb19b1cc535c0fedc9619ad8", 1869)),
        (8, 80): (("dfbda0f040564840d4032e5bb3348118e1c5fbfe5fa7474507e1c1869e996d93", 226),
                  ("61f45603688f7035f73f587c4b1e9de86be9f87ff4902d25e78d477d462619c0", 1856)),
        (12, None): (("4a24a757fe58a78449c3aee48c96fa7659c66e0cb48b9b4bc9b0c2357e29430c", 692),
                     ("f29f4b42f354f31766045692903e93ea678bd8e4c5842409f00eb07bf9c19933", 3762)),
        (12, 80): (("dfbda0f040564840d4032e5bb3348118e1c5fbfe5fa7474507e1c1869e996d93", 226),
                   ("b2d28c827146aee30c807a5f46aa63191e8c280335efc25586e641e46f4b37b1", 3748)),
    }

    @pytest.mark.parametrize("n,level", list(ZIGZAGS), ids=str)
    def test_zigzag_pairs_pinned(self, n, level):
        g1, g2, mk = cv.build_zigzag_pair(0.5, n)
        k = level or cv.zigzag_truncation_level(mk)
        assert (_strip_digest(g1, k), _strip_digest(g2, k)) == self.ZIGZAGS[(n, level)]

    def test_imported_samples_cut_at_level_depth(self):
        # depths 1, 0.5, 0.1, 0.01: through the first at most 2^-level deep,
        # or all of them
        curve = cv.SampleBackedCurve(0.0, [0.0, 0.5, 0.9, 0.99])
        assert [len(curve.refine(k)) for k in (1, 3, 4, 7)] == [2, 3, 4, 4]
        hyp = cv.canonical_curve("hypercycle", 0.0, 0.5)
        back = cv.curve_from_exchange(cv.curve_to_exchange(hyp, 12))
        for k in range(1, 13):
            assert back.refine(k) == pytest.approx(hyp.refine(k), abs=1e-12)
        assert len(back.refine(14)) == len(hyp.refine(12))

    def test_level_below_one_rejected(self, radius, chord):
        with pytest.raises(ValueError, match="level must be >= 1"):
            radius.strip_refine(0)
        for level in (0, -3):
            with pytest.raises(ValueError, match="level must be >= 1"):
                cv.curve_frechet(radius, chord, level)


def _run_case(case):
    """A fresh curve for a case id: a canonical spec, `zigzag:r:n` (gamma2
    of the pair) or `import` (a chord exported at level 12)."""
    kind, *rest = case.split(":")
    if kind == "zigzag":
        return cv.build_zigzag_pair(float(rest[0]), int(rest[1]))[1]
    if kind == "import":
        return cv.curve_from_exchange(
            cv.curve_to_exchange(cv.canonical_curve("chord", 0.0, 0.5), 12))
    return cv.canonical_curve(kind, *map(float, rest))


def _run_levels(case):
    if case.startswith("zigzag"):
        _, r, n = case.split(":")
        mk = cv.build_zigzag_pair(float(r), int(n))[2]
        return [*range(1, 41), cv.zigzag_truncation_level(mk)]
    return [*range(1, 25), *((30, 40, 45) if case.startswith("chord") else ())]


_RUN_CASES = ["radius:0", "radius:2.5", "chord:0:0.5", "chord:2.5:-0.4", "chord:-1.3:-1.55",
              "chord:0:1.5", "hypercycle:0:0.5", "hypercycle:2.5:-0.95", "horocycle:0:1",
              "horocycle:2.5:-1", "import",
              *(f"zigzag:{r}:{n}" for r in (0.3, 0.5) for n in (0, 1, 2, 3, 5, 8))]


@pytest.fixture(scope="module", params=_RUN_CASES)
def run_case(request):
    """A case id, and its levels as the per-level builders give them."""
    stepper = _run_case(request.param)
    return request.param, {k: ref.level_strip(stepper, k) for k in _run_levels(request.param)}


class TestLevelsAreOneRun:
    """Every level is a prefix of one sample run, cut by `_cut`: the bytes of
    strip_refine and refine are those of the per-level builders it replaced
    (`reference.level_strip`), whatever order the levels are asked in."""

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_levels_match_per_level_builders(self, run_case, order):
        case, want = run_case
        levels = sorted(want, reverse=order == "descending")
        if order == "shuffled":
            random.Random(case).shuffle(levels)
        curve = _run_case(case)
        for k in levels:
            s, t = curve.strip_refine(k)
            disk = ge.strip_to_disk(*want[k], curve.endpoint_angle)
            assert (s.tobytes(), t.tobytes()) == (want[k][0].tobytes(), want[k][1].tobytes())
            assert curve.refine(k).tobytes() == disk.tobytes()

    def test_lemma4_export_has_no_tail_sample(self):
        # `lemma4 --r 0.5 --n-zigzags 8` reads gamma2 at level 121, then
        # exports level 12, where the polyline ends past that level's own
        # run: the deeper run's first tail sample must not join it
        _, g2, mk = cv.build_zigzag_pair(0.5, 8)
        g2.strip_refine(cv.zigzag_truncation_level(mk))
        assert len(cv.curve_to_exchange(g2, 12)["samples"]) == len(g2._dense[0]) == 1856


class TestSampleBudget:
    """strip_refine predicts a level's sample count before building it."""

    @pytest.mark.parametrize("spec", [
        ("radius", 0.0, 0), ("chord", 0.0, 0.5), ("chord", 2.5, -1.2),
        ("chord", 0.0, 1.5), ("hypercycle", 0.0, 0.5), ("hypercycle", 2.5, -0.95),
        ("horocycle", 0.0, 1)], ids=_case_id)
    def test_prediction_bounds_the_count(self, spec):
        curve = cv.canonical_curve(*spec)
        for level in range(1, 25):
            assert len(curve.strip_refine(level)[0]) <= curve._sample_bound(level)

    def test_prediction_bounds_polyline_and_imported_counts(self):
        zigzag = cv.build_zigzag_pair(0.5, 3)[1]
        imported = cv.curve_from_exchange(
            cv.curve_to_exchange(cv.canonical_curve("chord", 0.0, 0.5), 12))
        for curve in (zigzag, imported):
            for level in range(1, 25):
                assert len(curve.strip_refine(level)[0]) <= curve._sample_bound(level)

    def test_horocycle_prediction_doubles_every_two_levels(self):
        curve = cv.canonical_curve("horocycle", 0.0)
        for level in (20, 30, 40, 50):
            ratio = curve._sample_bound(level) / 2.0 ** (level / 2)
            assert ratio == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-3)

    def test_over_budget_level_is_refused_unbuilt(self):
        curve = cv.canonical_curve("horocycle", 0.0)
        assert curve._sample_bound(28) <= cv.SAMPLE_BUDGET < curve._sample_bound(29)
        with pytest.raises(ValueError, match="at level 29: 131073 samples predicted"):
            curve.strip_refine(29)
        assert len(curve._u) == 1 and curve._run is None
        wide = cv.canonical_curve("hypercycle", 0.0, 0.999999)
        with pytest.raises(ValueError, match="above the budget of 100000"):
            wide.strip_refine(1)


class TestCurvilinearAngle:
    def test_deflection_zero_is_curve(self, radius):
        region = cv.CurvilinearAngle(radius, 0.0)
        on_curve = radius.refine(6)[5]
        assert cv.angle_contains(region, on_curve, 6)

    def test_point_on_curve_any_deflection(self, radius):
        for r in (0.0, 0.2, 0.7):
            region = cv.CurvilinearAngle(radius, r)
            assert cv.angle_contains(region, radius.refine(5)[3], 5)

    def test_membership_example_near_axis(self, radius):
        region = cv.CurvilinearAngle(radius, 0.5)
        assert cv.angle_contains(region, 0.5 + 0.005j, 8)

    def test_far_point_excluded(self, radius):
        region = cv.CurvilinearAngle(radius, 0.3)
        assert not cv.angle_contains(region, -0.8 + 0.4j, 8)

    def test_monotone_in_deflection(self, radius):
        rng = np.random.default_rng(5)
        pts = 0.9 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(
            1j * rng.uniform(-math.pi, math.pi, 200))
        small = cv.CurvilinearAngle(radius, 0.3)
        large = cv.CurvilinearAngle(radius, 0.6)
        for p in pts:
            if cv.angle_contains(small, p, 7):
                assert cv.angle_contains(large, p, 7)

    def test_pseudo_and_hyperbolic_radii_agree(self, radius):
        r = 0.4
        a = cv.CurvilinearAngle(radius, r)
        b = cv.CurvilinearAngle(radius, ge.radius_convert(
            ge.radius_convert(r, "ph_to_h"), "h_to_ph"))
        assert a.deflection == pytest.approx(b.deflection, abs=1e-14)

    def test_deflection_range(self, radius):
        with pytest.raises(ValueError):
            cv.CurvilinearAngle(radius, 1.0)


class TestDirectedDistance:
    def test_reflexive_within_slack(self, radius, chord):
        for curve in (radius, chord):
            assert cv.directed_curve_distance(curve, curve, 6)[-1] <= \
                curve.max_gap_hyperbolic(8) + 1e-9

    def test_radius_chord_bounded(self, radius, chord):
        vals = cv.directed_curve_distance(radius, chord, 12)
        assert max(vals) - min(vals[3:]) < 1.2  # settles quickly
        assert max(vals[-3:]) / min(vals[-3:]) <= 1.05

    def test_radius_horocycle_strictly_increasing(self, radius, horocycle):
        vals = cv.directed_curve_distance(radius, horocycle, 12)[3:]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_endpoint_mismatch_rejected(self, radius):
        other = cv.canonical_curve("radius", 0.5)
        with pytest.raises(cv.CurveEndpointMismatch):
            cv.directed_curve_distance(radius, other, 4)

    def test_nan_endpoint_is_a_mismatch(self, radius):
        # a NaN angle difference compares false against the tolerance
        nan_end = cv.SampleBackedCurve(math.nan, [0.5, 0.9])
        for pair in ((nan_end, radius), (radius, nan_end)):
            with pytest.raises(cv.CurveEndpointMismatch):
                cv.directed_curve_distance(*pair, 3)
            with pytest.raises(cv.CurveEndpointMismatch):
                cv.curve_frechet(*pair, 3)


class TestEquivalence:
    def test_reflexive(self, radius):
        assert cv.are_equivalent(radius, radius, 8).verdict == "equivalent"

    def test_hypercycle_pair_equivalent(self):
        a = cv.canonical_curve("hypercycle", 0.0, 0.5)
        b = cv.canonical_curve("hypercycle", 0.0, -0.3)
        assert cv.are_equivalent(a, b, 12).verdict == "equivalent"

    def test_radius_horocycle_not_equivalent(self, radius, horocycle):
        v = cv.are_equivalent(radius, horocycle, 12)
        assert v.verdict == "not_equivalent"
        assert v.values[-1] > 5.0

    def test_symmetric_evidence(self, radius, chord):
        v = cv.are_equivalent(radius, chord, 10)
        assert v.verdict == "equivalent"
        assert len(v.forward) == len(v.backward) == 10

    def test_swapping_the_curves_swaps_the_directions(self, radius, chord, horocycle):
        for c1, c2 in ((radius, chord), (radius, horocycle), (chord, horocycle)):
            v, w = cv.are_equivalent(c1, c2, 12), cv.are_equivalent(c2, c1, 12)
            assert [x.hex() for x in w.forward] == [x.hex() for x in v.backward]
            assert [x.hex() for x in w.backward] == [x.hex() for x in v.forward]

    def test_one_matrix_per_direction(self, radius, horocycle, monkeypatch):
        # each direction reads the cells of its deepest level once, in blocks
        # of rows against the other curve's samples; one matrix a level and
        # direction would read each cell up to 12 times.  The cells are keyed
        # by the other curve's sample count, which differs between the two
        cells = collections.Counter()
        kernel = cv._strip_distance_matrix

        def counting(s1, ct1, st1, s2, *rest):
            cells[s2.size] += s1.size * s2.size
            return kernel(s1, ct1, st1, s2, *rest)

        monkeypatch.setattr(cv, "_strip_distance_matrix", counting)
        cv.are_equivalent(radius, horocycle, 12)
        assert cells == {
            len(c2.strip_refine(14)[0]): len(c1.strip_refine(12)[0]) * len(c2.strip_refine(14)[0])
            for c1, c2 in ((radius, horocycle), (horocycle, radius))}

    def test_relation_properties_on_family(self):
        fam = [cv.canonical_curve("radius", 0.0),
               cv.canonical_curve("chord", 0.0, 0.4),
               cv.canonical_curve("hypercycle", 0.0, 0.4)]
        verdicts = {}
        for i, a in enumerate(fam):
            for j, b in enumerate(fam):
                if i <= j:
                    verdicts[(i, j)] = cv.are_equivalent(a, b, 10).verdict
        assert all(v == "equivalent" for v in verdicts.values())
        # transitivity implication holds trivially on an all-equivalent family
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    ij = verdicts.get((min(i, j), max(i, j)))
                    jk = verdicts.get((min(j, k), max(j, k)))
                    ik = verdicts.get((min(i, k), max(i, k)))
                    if ij == "equivalent" and jk == "equivalent":
                        assert ik == "equivalent"


# six catalogue pairs, as (kind, parameter) at a common endpoint angle
_PAIRS = [(("radius", None), ("hypercycle", 0.5)), (("radius", None), ("chord", 0.5)),
          (("radius", None), ("horocycle", 1)), (("chord", 0.5), ("horocycle", -1)),
          (("hypercycle", -0.3), ("chord", -0.4)), (("chord", 0.3), ("chord", -0.4))]


class TestMetamorphicRelations:
    """Relations between curve distances that need no reference value."""

    @staticmethod
    def values(pair, theta, level, reflect=False, swap=False):
        """curve_frechet and both directed distances of a pair of fresh
        curves ending at e^{i theta}.  Reflected, every angle and parameter
        changes sign.  Swapped, the second curve is passed first (and built
        first), and its directions are read back in the first curve's order."""
        sign = -1.0 if reflect else 1.0
        c1, c2 = (cv.canonical_curve(kind, sign * theta, None if p is None else sign * p)
                  for kind, p in pair)
        if swap:
            c1, c2 = c2, c1
        v = cv.are_equivalent(c1, c2, level)
        fwd, bwd = (v.backward, v.forward) if swap else (v.forward, v.backward)
        return [cv.curve_frechet(c1, c2, level), *fwd, *bwd]

    @pytest.mark.parametrize("level", [12, 14])
    @pytest.mark.parametrize("theta", [0.0, 2.5])
    @pytest.mark.parametrize("pair", _PAIRS, ids=lambda p: "-".join(k for k, _ in p))
    def test_reflection_and_swap_are_exact(self, pair, theta, level):
        # (theta, p) -> (-theta, -p) conjugates every sample, which flips t
        # and keeps s: cosh t and sinh t1 sinh t2 are unchanged bit for bit
        want = [x.hex() for x in self.values(pair, theta, level)]
        assert [x.hex() for x in self.values(pair, theta, level, reflect=True)] == want
        assert [x.hex() for x in self.values(pair, theta, level, swap=True)] == want

    @pytest.mark.parametrize("level", [12, 14])
    @pytest.mark.parametrize("pair", _PAIRS, ids=lambda p: "-".join(k for k, _ in p))
    def test_rotation_moves_only_last_bits(self, pair, level):
        # chords and horocycles are stepped in disk coordinates, so rotating
        # the endpoint moves their last bits.  Measured at levels 12 and 14:
        # the Frechet values move by 2.75e-13 relative at most, the directed
        # distances by 2.24e-12 (0.2386 from hypercycle:-0.3 back to
        # chord:-0.4, 5.3e-13 absolute)
        turned, rest = self.values(pair, 2.5, level), self.values(pair, 0.0, level)
        assert turned[0] == pytest.approx(rest[0], rel=1e-12, abs=0.0)
        assert turned[1:] == pytest.approx(rest[1:], rel=4e-12, abs=0.0)


class TestAngleInclusion:
    def test_same_curve_zero_inflation(self, radius):
        assert cv.angle_inclusion_check(radius, radius, 0.3, 1.0, 300, level=8, seed=1)

    def test_radius_into_chord_inflated(self, radius, chord):
        r = cv.directed_curve_distance(radius, chord, 8)[-1]
        assert cv.angle_inclusion_check(radius, chord, r, 1.0, 1000, level=8, seed=2)

    def test_shrunk_target_fails(self, radius, chord):
        r = cv.directed_curve_distance(radius, chord, 8)[-1]
        assert not cv.angle_inclusion_check(radius, chord, r, 1.0, 1000, level=8,
                                            seed=3, r2=1.0 + r / 2.0)


class TestExchangeFormat:
    def test_round_trip(self, chord):
        payload = cv.curve_to_exchange(chord, 6)
        back = cv.curve_from_exchange(payload)
        assert back.endpoint_angle == chord.endpoint_angle
        assert np.allclose(back.refine(6), chord.refine(6))

    @pytest.mark.parametrize("bad", [1.5, 1.0, 1.0 - 1e-16, -0.6 - 0.8j, complex("nan")])
    def test_samples_outside_disk_rejected(self, bad):
        z = complex(bad)
        payload = {"endpoint_angle": 0.0, "samples": [[0.5, 0.0], [z.real, z.imag]]}
        with pytest.raises(ge.DiskDomainError, match="sample 1 "):
            cv.curve_from_exchange(payload)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_endpoint_rejected(self, angle):
        payload = {"endpoint_angle": angle, "samples": [[0.5, 0.0], [0.9, 0.0]]}
        with pytest.raises(ValueError, match="endpoint_angle .* is not finite"):
            cv.curve_from_exchange(payload)

    def test_payload_shape(self, radius):
        payload = cv.curve_to_exchange(radius, 5)
        assert set(payload) == {"endpoint_angle", "samples"}
        assert all(len(p) == 2 for p in payload["samples"])
