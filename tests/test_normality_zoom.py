"""Pinned per-level normality sups: the cusp zoom must reproduce them exactly.

The values were recorded with float.hex from the one-level-at-a-time zoom
(one golden-section search per slab candidate, one point per evaluation) that
the batched zoom replaced.  The batched search does the same arithmetic on
the same points, so every sup must agree to the last bit and every verdict
must be unchanged.  The cases are the four normality_sup calls of the
selftest battery and the gallery towers on the other canonical regions.
"""

import json

import numpy as np
import pytest

from poincare_boundary_lab import analysis as an
from poincare_boundary_lab import cli
from poincare_boundary_lab import curves as cv
from poincare_boundary_lab import functions as fn
from poincare_boundary_lab import geometry as ge

import reference as ref

# (function, curve kind:theta[:param], deflection, max_level, verdict, sups)
PINNED = [
    ("identity", "radius:0", 0.5, 10, "bounded", [
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0",
    ]),
    ("automorphism", "radius:0", 0.5, 10, "bounded", [
        "0x1.ffe4a8c58bf62p-1", "0x1.ffe4a8c58bf62p-1", "0x1.ffe4a8c58bf62p-1",
        "0x1.ffe4a8c58bf62p-1", "0x1.ffe4a8c58bf62p-1", "0x1.ffe4a8c58bf62p-1",
        "0x1.ffe4a8c58bf62p-1", "0x1.ffe4a8c58bf62p-1", "0x1.ffe4a8c58bf62p-1",
        "0x1.ffe4a8c58bf62p-1",
    ]),
    ("pole_series", "radius:0", 0.5, 14, "bounded", [
        "0x1.80c174e9695e1p+3", "0x1.f9573ba9dc562p+5", "0x1.f9573ba9dc562p+5",
        "0x1.f9573ba9dc562p+5", "0x1.f9573ba9dc562p+5", "0x1.f9573ba9dc562p+5",
        "0x1.f9573ba9dc562p+5", "0x1.f9573ba9dc562p+5", "0x1.f9573ba9dc562p+5",
        "0x1.f9573ba9dc562p+5", "0x1.f9573ba9dc562p+5", "0x1.f9573ba9dc562p+5",
        "0x1.f9573ba9dc562p+5", "0x1.f9573ba9dc562p+5",
    ]),
    ("square_exp", "radius:0", 0.5, 14, "diverging", [
        "0x1.3d9cf0dedad70p+0", "0x1.5e06f6ef2fcb0p+2", "0x1.0a4038f5e2e24p+5",
        "0x1.3b5eb33817c87p+7", "0x1.531526ab0acc3p+9", "0x1.5ea63e2126bf1p+11",
        "0x1.645989d79d537p+13", "0x1.6732138face7dp+15", "0x1.689f8f98a3e12p+17",
        "0x1.6954c0af9e520p+19", "0x1.69af54f64e2efp+21", "0x1.69dc9e0996cccp+23",
        "0x1.69f3424f38a9dp+25", "0x1.69fe946144cbfp+27",
    ]),
    ("gavrilov_g", "hypercycle:0:0.5", 0.5, 10, "bounded", [
        "0x1.49bf773f3f307p-2", "0x1.807d367f9c529p+5", "0x1.0b37686b26e12p+13",
        "0x1.0b37686b26e12p+13", "0x1.0b37686b26e12p+13", "0x1.0b37686b26e12p+13",
        "0x1.0b37686b26e12p+13", "0x1.0b37686b26e12p+13", "0x1.0b37686b26e12p+13",
        "0x1.0b37686b26e12p+13",
    ]),
    ("saginjan_h", "hypercycle:0:0.5", 0.5, 10, "bounded", [
        "0x1.b50dc2146fd77p-2", "0x1.b50dc2146fd79p-2", "0x1.b50dc2146fd79p-2",
        "0x1.b50dc2146fd79p-2", "0x1.b50dc2146fd7ap-2", "0x1.b50dc2146fd7ap-2",
        "0x1.b50dc2146fd7ap-2", "0x1.b50dc2146fd7ap-2", "0x1.b50dc2146fd7ap-2",
        "0x1.b50dc2146fd7ap-2",
    ]),
    ("square_exp", "hypercycle:0:0.5", 0.5, 10, "diverging", [
        "0x1.3e33d73b65f70p+0", "0x1.617f139da06e7p+2", "0x1.0a7b88ae1f547p+5",
        "0x1.3b9113f9724bbp+7", "0x1.52fe52ac7ce3fp+9", "0x1.5ea66175564f6p+11",
        "0x1.645b0a2440fa9p+13", "0x1.6732d4137c444p+15", "0x1.689e73deb92fap+17",
        "0x1.695432c10d56bp+19",
    ]),
    ("gavrilov_g", "chord:0:0.5", 0.5, 10, "bounded", [
        "0x1.53e507b132478p-2", "0x1.81f0a6152f8b2p+5", "0x1.4de32f5150e75p+13",
        "0x1.494f799bdccc3p+21", "0x1.4ec27d08697b7p+36", "0x1.4ec27d08697b7p+36",
        "0x1.4ec27d08697b7p+36", "0x1.4ec27d08697b7p+36", "0x1.4ec27d08697b7p+36",
        "0x1.4ec27d08697b7p+36",
    ]),
    ("saginjan_h", "chord:0:0.5", 0.5, 10, "bounded", [
        "0x1.b50dc2146fd78p-2", "0x1.b50dc2146fd78p-2", "0x1.b50dc2146fd78p-2",
        "0x1.b50dc2146fd78p-2", "0x1.b50dc2146fd78p-2", "0x1.b50dc2146fd78p-2",
        "0x1.b50dc2146fd78p-2", "0x1.b50dc2146fd78p-2", "0x1.b50dc2146fd78p-2",
        "0x1.b50dc2146fd78p-2",
    ]),
    ("square_exp", "chord:0:0.5", 0.5, 10, "diverging", [
        "0x1.3e88c9a51182ap+0", "0x1.5f53ad00b6a20p+2", "0x1.0a707c9635becp+5",
        "0x1.3b8d7606800bep+7", "0x1.5318a1d494122p+9", "0x1.5e9cfc619b981p+11",
        "0x1.645b692337c96p+13", "0x1.673303aa127e1p+15", "0x1.689e8bafe63a1p+17",
        "0x1.69543eab1d8d3p+19",
    ]),
    ("gavrilov_g", "horocycle:0", 0.5, 10, "bounded", [
        "0x1.543dc18b6a855p-2", "0x1.446791d6b414fp+3", "0x1.5db212869be27p+3",
        "0x1.5db212869be27p+3", "0x1.5db212869be27p+3", "0x1.5db212869be27p+3",
        "0x1.5f969ea4bc995p+3", "0x1.5f969ea4bc995p+3", "0x1.5f969ea4bc995p+3",
        "0x1.5f969ea4bc995p+3",
    ]),
    ("saginjan_h", "horocycle:0", 0.5, 10, "bounded", [
        "0x1.b50dc2146fd78p-2", "0x1.b50dc2146fd78p-2", "0x1.b50dc2146fd78p-2",
        "0x1.b50dc2146fd78p-2", "0x1.b50dc2146fd78p-2", "0x1.b50dc2146fd78p-2",
        "0x1.b50dc2146fdb1p-2", "0x1.b50dc2146fdccp-2", "0x1.b50dc2146fe5fp-2",
        "0x1.b50dc2146fe5fp-2",
    ]),
    ("square_exp", "horocycle:0", 0.5, 10, "bounded", [
        "0x1.3d9cf0dedad70p+0", "0x1.5979bc12f004ap+2", "0x1.0fe2d97fd4a5dp+3",
        "0x1.100887a666646p+3", "0x1.100887a66664bp+3", "0x1.100887a66664bp+3",
        "0x1.100887a66664bp+3", "0x1.100887a66664bp+3", "0x1.100887a66664bp+3",
        "0x1.100887a66664bp+3",
    ]),
]


def _function(name):
    if name == "identity":
        return fn.identity_function()
    if name == "automorphism":
        return fn.automorphism_function(ge.mobius_translation(0.3))
    if name == "pole_series":
        return fn.RationalPoleFunction(fn.PoleSchedule.default())
    return fn.gallery(name)


def _region(spec, deflection):
    kind, theta, *param = spec.split(":")
    curve = cv.canonical_curve(kind, float(theta),
                               float(param[0]) if param else None)
    return cv.CurvilinearAngle(curve, deflection)


@pytest.mark.parametrize(
    "name, curve, deflection, level, verdict, sups", PINNED,
    ids=[f"{c[0]}-{c[1]}-L{c[3]}" for c in PINNED])
def test_zoomed_sups_match_pinned_values(name, curve, deflection, level,
                                         verdict, sups):
    rep = an.normality_sup(_function(name), _region(curve, deflection), level)
    assert [s.hex() for s in rep.sups] == sups
    assert rep.verdict == verdict


def test_square_exp_verdict_needs_the_zoom(monkeypatch):
    """Without the zoom the grid misses the cusp-narrow peaks and square_exp
    reads as bounded; the zoom carries the diverging verdict."""
    region = _region("radius:0", 0.5)
    f = fn.gallery("square_exp")
    assert an.normality_sup(f, region, 14).verdict == "diverging"
    # the grid alone: each level keeps its grid maximum
    monkeypatch.setattr(an, "_zoom_max",
                        lambda region, jobs, z0, v0: [float(v) for v in v0])
    assert an.normality_sup(f, region, 14).verdict == "bounded"


# ---------------------------------------------------------------------------
# the slab region test against the per-level loop and the per-call blocks


def _exchange_curve(tmp_path):
    """A curve read back from an exchange file, as `@file` specs are."""
    path = tmp_path / "hyper.json"
    path.write_text(json.dumps(cv.curve_to_exchange(
        cv.canonical_curve("hypercycle", 0.0, -0.3), 16)))
    return cli.parse_curve(f"@{path}")


REGION_CURVES = ["radius:0", "chord:0:0.5", "chord:0:-1.2", "hypercycle:0:0.5",
                 "hypercycle:2.5:-0.3", "horocycle:0", "horocycle:2.5:-1",
                 "zigzag", "@file"]


def _region_rows(zm, rng, n):
    """Random rows tagged with a level, plus rows just inside and just
    outside r_h of a sample: at equal s, the distance is the offset gap."""
    lev = rng.integers(0, len(zm.samples), n)
    s = np.empty(n)
    t = np.empty(n)
    for i, (cs, ct) in enumerate(zm.samples):
        rows = np.flatnonzero(lev == i)
        j = rng.integers(0, len(cs), len(rows))
        kind = rng.integers(0, 3, len(rows))
        gap = zm.r_h * np.where(kind == 0, 1.0 - 1e-9, 1.0 + 1e-9)
        sign = np.where(rng.uniform(size=len(rows)) < 0.5, -1.0, 1.0)
        s[rows] = cs[j]
        t[rows] = ct[j] + sign * gap
        spread = kind == 2
        s[rows[spread]] = cs[j[spread]] + rng.uniform(-1.0, 1.0, spread.sum())
        t[rows[spread]] = rng.uniform(-3.0, 3.0, spread.sum())
    return lev, s, t


def _edge_rows(zm, rng):
    """Rows whose s lies just past r_h (by 0 to 1e-7, where the windows
    end) before or after a sample, read at offsets around the sample's, so
    that the sample's own cell is just outside the region."""
    lev, s, t = [], [], []
    for i, (cs, ct) in enumerate(zm.samples):
        j = rng.integers(0, len(cs), 40)
        past = zm.r_h + np.concatenate([[0.0], np.geomspace(1e-12, 1e-7, 39)])
        side = np.where(rng.uniform(size=40) < 0.5, -1.0, 1.0)
        lev.append(np.full(40, i))
        s.append(cs[j] + side * past)
        t.append(ct[j])
    return np.concatenate(lev), np.concatenate(s), np.concatenate(t)


def _window_min(slab, t):
    """Each row's minimum of cosh d over its window, t of shape (rows,)."""
    near = np.empty(len(t))
    for rows, cs, ch, sh in slab[2]:
        t1 = t[rows, None]
        near[rows] = np.min(cs[:, 0] * np.cosh(t1) * ch[:, 0] - np.sinh(t1) * sh[:, 0],
                            axis=1, initial=np.inf)
    return near


def _level_min(zm, lev, s, t):
    """Each row's minimum of cosh d over all its level's samples."""
    near = np.empty(len(t))
    for i in np.unique(lev):
        r = np.flatnonzero(lev == i)
        cs, ct = zm.samples[i]
        t1 = t[r, None]
        near[r] = np.min(np.cosh(s[r, None] - cs) * np.cosh(t1) * np.cosh(ct)
                         - np.sinh(t1) * np.sinh(ct), axis=1)
    return near


def _region_curve(spec, tmp_path):
    if spec == "zigzag":
        return cv.build_zigzag_pair(0.5, 3)[1]
    if spec == "@file":
        return _exchange_curve(tmp_path)
    return cli.parse_curve(spec)


class TestRegionTest:
    @pytest.mark.parametrize("deflection", [0.0, 0.5, 0.99])
    @pytest.mark.parametrize("spec", REGION_CURVES)
    def test_slabs_agree_with_per_level_loop_and_blocks(self, spec, deflection,
                                                        tmp_path):
        zm = an._LockstepZoom(cv.CurvilinearAngle(_region_curve(spec, tmp_path),
                                                  deflection),
                              [(fn.identity_function(), list(range(1, 15)))])
        if spec == "chord:0:-1.2":
            assert len(zm.samples[0][0]) == 1   # level 1 zooms over refine(3)
        rng = np.random.default_rng(20261018)
        rows = [_region_rows(zm, rng, 4000), _edge_rows(zm, rng)]
        left_out, inside, read, narrow = 0, 0, 0, 0
        sizes = np.array([len(cs) for cs, _ in zm.samples])
        for (lev, s, t), spread in zip(rows, (rng.uniform(0.0, 1.0, 4000), 1e-9)):
            for t_lo, t_hi in ((t - spread, t + spread),
                               (-np.abs(t) - 1.0, np.abs(t) + 1.0)):
                slab = zm.slab(lev, s, t_lo, t_hi)
                for x in (t_lo, t, t_hi):
                    # the identity's log-density is finite wherever the
                    # region test passes: every row here has |z| < 1 - 6e-5
                    got = np.isfinite(zm.log_value(slab, x))
                    assert np.array_equal(got, ref.per_level_region(zm, lev, s, x))
                    assert np.array_equal(got, ref.block_region(zm, lev, s, x))
                    # a left-out sample never decides a row: the window's
                    # minimum is the level's, or both lie past r_h + 1e-12
                    window, level = _window_min(slab, x), _level_min(zm, lev, s, x)
                    past = zm.r_h + 1e-12
                    assert np.all((window == level) | (
                        (np.arccosh(np.maximum(window, 1.0)) > past)
                        & (np.arccosh(np.maximum(level, 1.0)) > past)))
                    left_out += np.count_nonzero(window != level)
                    inside, read = inside + np.count_nonzero(got), read + len(got)
                # a window block pads each of its rows to under twice its width
                for r, cs, _, _ in slab[2]:
                    width = np.isfinite(cs[:, 0]).sum(axis=1)
                    assert cs.shape[2] == 0 or np.all(cs.shape[2] < 2 * width)
                    narrow += np.count_nonzero(width < sizes[lev[r]])
        # at deflection 0 a row off the radius passes only where cosh^2 t -
        # sinh^2 t rounds to 1, which on the hypercycle it never does
        assert 0 < inside < read or deflection == 0.0 and inside < read
        # windows narrow the rows' samples wherever r_h is not 0
        assert (narrow > 0) == (deflection > 0) and (left_out > 0) <= (narrow > 0)

    def test_horocycle_slab_spans_several_blocks(self):
        zm = an._LockstepZoom(_region("horocycle:0", 0.5),
                              [(fn.identity_function(), list(range(1, 15)))])
        lev = np.arange(len(zm.samples))
        s = np.array([np.max(cs) for cs, _ in zm.samples])
        slab = zm.slab(lev, s, np.full(len(s), -1.0), np.full(len(s), 1.0))
        widths = np.concatenate([np.isfinite(cs[:, 0]).sum(axis=1) for _, cs, _, _ in slab[2]])
        assert len(slab[2]) == len({int(w).bit_length() for w in widths}) > 3


class TestMonotoneRounding:
    """The region test applies np.maximum(., 1) and np.arccosh to a row's
    minimum of cosh d instead of to each cell; that is exact only if both
    are nondecreasing as numpy evaluates them."""

    @staticmethod
    def _assert_nondecreasing(c):
        c = np.sort(c)
        for g in (np.maximum(c, 1.0), np.arccosh(np.maximum(c, 1.0))):
            assert np.all(np.diff(g) >= 0)

    def test_dense_sample_of_one_to_1e300(self):
        near_one = 1.0 + np.arange(200_000) * np.finfo(float).eps
        self._assert_nondecreasing(np.concatenate([
            np.geomspace(1.0, 1e300, 1_000_000), near_one,
            np.linspace(0.0, 1.0, 1001), [np.inf]]))

    def test_cells_of_one_zoom(self, monkeypatch):
        region = _region("horocycle:0", 0.5)
        seen = []
        log_value = an._LockstepZoom.log_value

        def recording(zm, slab, t):
            seen.append((zm, slab, t.reshape(len(slab[1]), -1).copy()))
            return log_value(zm, slab, t)

        monkeypatch.setattr(an._LockstepZoom, "log_value", recording)
        an.normality_sup(fn.gallery("square_exp"), region, 8)
        cells = []
        for zm, (_, _, blocks), t in seen:
            for rows, cs, ch, sh in blocks:
                t1 = t[rows, :, None]
                c = cs * np.cosh(t1) * ch - np.sinh(t1) * sh
                cells.append(c[np.isfinite(c)])
        cells = np.concatenate(cells)
        # cells on both sides of the region's edge, cosh r_h
        assert len(cells) > 100_000
        assert np.min(cells) < np.cosh(seen[0][0].r_h) < np.max(cells)
        self._assert_nondecreasing(cells)


class TestZoomWork:
    """The zoom hands the function the same points it always did: a faster
    region test may not come from fewer evaluations."""

    @pytest.mark.parametrize("name, spec, level, calls, points", [
        ("square_exp", "radius:0", 14, 220, 12155),
        ("identity", "horocycle:0", 12, 148, 6802),
    ])
    def test_points_evaluated(self, name, spec, level, calls, points, monkeypatch):
        seen = []
        evaluate = an.log_lehto_virtanen_array
        monkeypatch.setattr(an, "log_lehto_virtanen_array",
                            lambda f, z: seen.append(len(z)) or evaluate(f, z))
        an.normality_sup(_function(name), _region(spec, 0.5), level)
        assert (len(seen), sum(seen)) == (calls, points)


class TestJointZoom:
    """normality_sups zooms every job of a region in one batch; each job must
    come out as its own call: the same report, sups to the last bit, and the
    same points handed to its function in the same calls."""

    # (curve, deflection, [(function, max_level, zoom calls, zoom points)])
    CASES = [
        ("radius:0", 0.5, [("identity", 10, 148, 6500),
                           ("automorphism", 10, 148, 6340),
                           ("pole_series", 14, 220, 12352),
                           ("square_exp", 14, 220, 12155)]),
        ("horocycle:0", 0.5, [("gavrilov_g", 12, 220, 6420),
                              ("identity", 8, 148, 4583)]),
        # no zoom row passes at deflection 0 off the diameter (CHANGES.md)
        ("hypercycle:0:0.5", 0.0, [("square_exp", 10, 0, 0), ("identity", 8, 0, 0)]),
    ]

    @staticmethod
    def _recording(monkeypatch):
        """Each function's evaluations by the analysis module, keyed by the
        function object: (evaluator, the points' bytes) in call order."""
        seen = {}
        for name in ("lehto_virtanen_array", "log_lehto_virtanen_array"):
            def record(f, z, name=name, evaluate=getattr(an, name)):
                seen.setdefault(id(f), []).append((name, z.tobytes()))
                return evaluate(f, z)
            monkeypatch.setattr(an, name, record)
        return seen

    @staticmethod
    def _same_report(a, b):
        assert [x.hex() for x in a.sups] == [x.hex() for x in b.sups]
        assert (a.region, a.deflection, a.levels, a.verdict, a.failures,
                a.evaluations) == (b.region, b.deflection, b.levels, b.verdict,
                                   b.failures, b.evaluations)

    @pytest.mark.parametrize("spec, deflection, jobs", CASES,
                             ids=[c[0] for c in CASES])
    def test_joint_zoom_equals_separate_zooms(self, spec, deflection, jobs,
                                              monkeypatch):
        region = _region(spec, deflection)
        fs = [(_function(name), level) for name, level, _, _ in jobs]
        seen = self._recording(monkeypatch)
        joint = an.normality_sups(region, fs)
        joint_seen = dict(seen)
        seen.clear()
        alone = [an.normality_sup(f, region, level) for f, level in fs]
        for a, b in zip(joint, alone):
            self._same_report(a, b)
        assert joint_seen == seen and len(seen) == len(fs)
        for (f, _), (_, _, calls, points) in zip(fs, jobs):
            zoomed = [len(z) // 16 for name, z in seen[id(f)]
                      if name == "log_lehto_virtanen_array"]
            assert (len(zoomed), sum(zoomed)) == (calls, points)


class TestClosedFormSups:
    """An oracle the lab does not compute: for automorphism:w the density is
    1 / cosh d_h(z, -w), since mobius_translation(w) sends -w to 0.  Every
    point a level reads lies within r_h of the curve samples c_j of level
    k + 2 (the ones the zoom's region test reads), so by the triangle
    inequality its sup is at most 1 / cosh(max(0, min_j d_h(-w, c_j) - r_h)).
    """

    @pytest.mark.parametrize("theta", [0.0, 0.7, 1.3, -2.2])
    def test_sups_reach_the_closed_form(self, theta):
        w = 0.4 * complex(np.exp(1j * theta))
        region = _region(f"chord:{theta}:0.4", 0.5)
        f = fn.automorphism_function(ge.mobius_translation(w))
        rep = an.normality_sup(f, region, 4)
        r_h = ge.radius_convert(0.5, "ph_to_h")
        for k, sup in zip(rep.levels, rep.sups):
            d = float(np.min(ge.hyperbolic_distance_array(-w, region.curve.refine(k + 2))))
            bound = 1.0 / np.cosh(max(0.0, d - r_h))
            assert sup <= bound * (1.0 + 1e-12)
            # measured gaps: 1.7e-3 at theta 0, under 1.4e-4 at the others
            assert (bound - sup) / bound < 2e-3
