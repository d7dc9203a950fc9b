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
                        lambda f, region, levels, z0, v0: [float(v) for v in v0])
    assert an.normality_sup(f, region, 14).verdict == "bounded"


# ---------------------------------------------------------------------------
# the batched region test against one strip_distance call per level


def _per_level_region(zm, lev, s, t):
    """The region test as it ran before the levels were batched into
    blocks: one strip_distance call per level present in the rows."""
    ok = ge.strip_depth(s, t) >= zm.depth_floor[lev]
    for i in np.unique(lev[ok]):
        rows = np.flatnonzero(ok & (lev == i))
        cs, ct = zm.samples[i]
        d = ge.strip_distance(s[rows, None], t[rows, None], cs[None, :], ct[None, :])
        ok[rows] = np.min(d, axis=1) <= zm.r_h + 1e-12
    return ok


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


class TestRegionTest:
    @pytest.mark.parametrize("spec", REGION_CURVES)
    def test_blocks_agree_with_per_level_loop(self, spec, tmp_path):
        if spec == "zigzag":
            curve = cv.build_zigzag_pair(0.5, 3)[1]
        elif spec == "@file":
            curve = _exchange_curve(tmp_path)
        else:
            curve = cli.parse_curve(spec)
        zm = an._LockstepZoom(fn.identity_function(),
                              cv.CurvilinearAngle(curve, 0.5), list(range(1, 15)))
        if spec == "chord:0:-1.2":
            assert len(zm.samples[0][0]) == 1   # level 1 zooms over refine(3)
        rng = np.random.default_rng(20261018)
        lev, s, t = _region_rows(zm, rng, 4000)
        got = zm.in_region(lev, s, t)
        assert np.array_equal(got, _per_level_region(zm, lev, s, t))
        assert 0 < np.count_nonzero(got) < len(got)
        # every block pads each of its levels to under twice its samples
        for ps, _, _ in zm.blocks:
            assert np.all(ps.shape[1] < 2 * np.isfinite(ps).sum(axis=1))

    def test_horocycle_zoom_spans_several_blocks(self):
        zm = an._LockstepZoom(fn.identity_function(), _region("horocycle:0", 0.5),
                              list(range(1, 15)))
        sizes = [len(cs) for cs, _ in zm.samples]
        assert len(zm.blocks) == len({n.bit_length() for n in sizes}) > 3


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
        in_region = an._LockstepZoom.in_region

        def recording(zm, lev, s, t):
            seen.append((zm, lev.copy(), s.copy(), t.copy()))
            return in_region(zm, lev, s, t)

        monkeypatch.setattr(an._LockstepZoom, "in_region", recording)
        an.normality_sup(fn.gallery("square_exp"), region, 8)
        cells = []
        for zm, lev, s, t in seen:
            for i, (cs, ct) in enumerate(zm.samples):
                s1, t1 = s[lev == i, None], t[lev == i, None]
                cells.append((np.cosh(s1 - cs) * np.cosh(t1) * np.cosh(ct)
                              - np.sinh(t1) * np.sinh(ct)).ravel())
        cells = np.concatenate(cells)
        # cells on both sides of the region's edge, cosh r_h
        assert len(cells) > 100_000
        assert np.min(cells) < np.cosh(seen[0][0].r_h) < np.max(cells)
        self._assert_nondecreasing(cells)


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
