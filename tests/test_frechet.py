import itertools
import math

import numpy as np
import pytest

from poincare_boundary_lab import curves as cv
from poincare_boundary_lab import geometry as ge

from reference import discrete_frechet


def brute_force_frechet(p, q):
    """Independent oracle: enumerate all monotone couplings (tiny inputs)."""
    n, m = len(p), len(q)
    dist = ge.hyperbolic_distance_array(np.asarray(p)[:, None],
                                        np.asarray(q)[None, :])
    best = [math.inf]

    def walk(i, j, cur):
        cur = max(cur, dist[i, j])
        if cur >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = cur
            return
        if i + 1 < n:
            walk(i + 1, j, cur)
        if j + 1 < m:
            walk(i, j + 1, cur)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cur)

    walk(0, 0, 0.0)
    return best[0]


def cell_loop_frechet(dist: np.ndarray) -> float:
    """Reference: the cell-by-cell Eiter-Mannila loop that `_frechet_dp`
    replaced, kept verbatim; the wavefront must match it bit for bit."""
    n, m = dist.shape
    prev = dist[0].copy()
    np.maximum.accumulate(prev, out=prev)
    prev = prev.tolist()
    for i in range(1, n):
        di = dist[i].tolist()
        cur = [0.0] * m
        c = max(prev[0], di[0])
        cur[0] = c
        for j in range(1, m):
            mn = prev[j]
            pjm = prev[j - 1]
            if pjm < mn:
                mn = pjm
            if c < mn:
                mn = c
            v = di[j]
            c = v if v > mn else mn
            cur[j] = c
        prev = cur
    return float(prev[-1])


SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (5, 13), (13, 5), (17, 17),
          (40, 310), (310, 40)]
SHAPE_IDS = [f"{n}x{m}" for n, m in SHAPES]


class TestFrechetWavefront:
    """`_frechet_dp` against the cell loop, compared as float.hex."""

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_random_matrices_bit_identical(self, shape):
        rng = np.random.default_rng(41)
        for _ in range(5):
            dist = rng.exponential(2.0, shape)
            assert cv._frechet_dp(dist).hex() == cell_loop_frechet(dist).hex()

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_ties_bit_identical(self, shape):
        rng = np.random.default_rng(43)
        for decimals in (0, 1):
            dist = np.round(rng.uniform(0.0, 4.0, shape), decimals)
            assert cv._frechet_dp(dist).hex() == cell_loop_frechet(dist).hex()

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_infinite_cells_bit_identical(self, shape):
        rng = np.random.default_rng(47)
        for frac in (0.1, 0.5, 0.9):
            dist = rng.uniform(0.0, 3.0, shape)
            dist[rng.uniform(size=shape) < frac] = np.inf
            assert cv._frechet_dp(dist).hex() == cell_loop_frechet(dist).hex()
        # a coupling must pass both corners and cross every row and column
        for cell in ((0, 0), (-1, -1), (shape[0] // 2, slice(None)),
                     (slice(None), shape[1] // 2)):
            dist = rng.uniform(0.0, 3.0, shape)
            dist[cell] = np.inf
            assert cv._frechet_dp(dist) == cell_loop_frechet(dist) == np.inf

    def test_non_contiguous_input(self):
        dist = np.random.default_rng(53).exponential(1.0, (30, 70))
        for view in (dist.T, dist[::2, ::3], np.asfortranarray(dist)):
            assert cv._frechet_dp(view).hex() == cell_loop_frechet(view).hex()


class TestDiscreteFrechet:
    def test_identical_lists_zero(self):
        p = np.array([0.0, 0.1 + 0.05j, 0.3, 0.5 + 0.1j])
        assert discrete_frechet(p, p) == 0.0

    def test_matches_brute_force_oracle(self):
        # both take the max over the same matrix cells, so they agree exactly;
        # every shape up to 6x6, single-sample curves included
        rng = np.random.default_rng(23)
        for n, m in itertools.product(range(1, 7), repeat=2):
            p = 0.8 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) / 2
            q = 0.8 * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)) / 2
            assert discrete_frechet(p, q) == brute_force_frechet(p, q)

    def test_resampled_polyline_within_gap(self):
        # same curve sampled at two meshes: distance bounded by the coarser gap
        curve = cv.canonical_curve("chord", 0.0, 0.3)
        fine = curve.refine(8)
        coarse = fine[::3]
        gap = float(np.max(ge.hyperbolic_distance_array(coarse[:-1], coarse[1:])))
        assert discrete_frechet(fine, coarse) <= gap + 1e-12

    def test_at_least_directed_hausdorff(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = 0.4 * (rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12))
            q = 0.4 * (rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9))
            df = discrete_frechet(p, q)
            d = ge.hyperbolic_distance_array(p[:, None], q[None, :])
            assert df >= np.max(np.min(d, axis=1)) - 1e-12
            assert df >= np.max(np.min(d, axis=0)) - 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            discrete_frechet([], [0.1])

    def test_strip_variant_agrees_with_complex(self):
        rng = np.random.default_rng(31)
        s1, s2 = rng.uniform(0, 4, 8), rng.uniform(0, 4, 6)
        t1, t2 = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 6)
        z1 = ge.strip_to_disk(s1, t1)
        z2 = ge.strip_to_disk(s2, t2)
        assert cv.discrete_frechet_strip(s1, t1, s2, t2) == pytest.approx(
            discrete_frechet(z1, z2), abs=1e-9)


class TestZigzagPair:
    # Frechet values by prefix observed from the coupled-traversal oracle at
    # build time; the lower bound (4n+1)/2 from monotone-coupling order
    # forcing is exactly attained for n >= 2.
    ORACLE = {1: 1.75, 2: 4.5, 3: 6.5, 4: 8.5, 5: 10.5, 6: 12.5, 7: 14.5, 8: 16.5}
    # float.hex of lemma4's frechet_by_prefix for n = 1..12, recorded from the
    # cell-by-cell DP; r = 0.4 and r = 0.5 give the same values
    PINNED_PREFIX = [
        "0x1.c000000000000p+0", "0x1.2000000000000p+2", "0x1.a000000000000p+2",
        "0x1.1000000000000p+3", "0x1.5000000000000p+3", "0x1.9000000000000p+3",
        "0x1.d000000000000p+3", "0x1.0800000000000p+4", "0x1.2800000000000p+4",
        "0x1.4800000000000p+4", "0x1.6800000000000p+4", "0x1.8800000000000p+4",
    ]

    def test_zero_zigzags_is_radius_prefix(self):
        g1, g2, mk = cv.build_zigzag_pair(0.5, 0)
        assert cv.curve_frechet(g1, g2, 8) == 0.0

    def test_anchor_schedule(self):
        _, _, mk = cv.build_zigzag_pair(0.5, 5)
        assert mk["z_anchors_s"] == [1.0, 4.0, 9.0, 16.0, 25.0, 36.0]
        # return anchor j sits at hyperbolic distance 1 behind forward anchor j-1
        for j, w in enumerate(mk["w_anchors_s"][1:], start=2):
            assert w == pytest.approx((j - 1) ** 2 - 1.0)
            assert abs(mk["z_anchors_s"][j - 2] - w) == pytest.approx(1.0)
        assert mk["clearance"] == 0.125
        assert mk["deflection_band"] == 0.25

    def test_containment_in_band(self):
        for n in (1, 4, 8):
            g1, g2, mk = cv.build_zigzag_pair(0.5, n)
            s, t = g2.strip_refine(cv.zigzag_truncation_level(mk))
            band = ge.radius_convert(mk["deflection_band"], "ph_to_h")
            assert np.all(np.abs(t) <= band + 1e-12)
            assert np.all(s >= -1e-12)

    def test_sampled_membership_shallow(self):
        g1, g2, _ = cv.build_zigzag_pair(0.5, 2)
        region = cv.CurvilinearAngle(g1, 0.5)
        pts = g2.refine(10)
        pts = pts[np.abs(pts) < 0.999]
        for p in pts[::7]:
            assert cv.angle_contains(region, p, 10)

    def test_simple_polyline(self):
        for n in (1, 3, 6, 8):
            _, g2, _ = cv.build_zigzag_pair(0.5, n)
            assert cv.polyline_is_simple(
                np.array([complex(a, b) for a, b in g2.vertices]))
        # dense sampling of a mid-size instance stays simple too
        _, g2, mk = cv.build_zigzag_pair(0.5, 3)
        s, t = g2.strip_refine(cv.zigzag_truncation_level(mk))
        assert cv.polyline_is_simple(np.array([complex(a, b) for a, b in zip(s, t)]))

    def test_frechet_growth_matches_oracle(self):
        values = {}
        for n in range(1, 9):
            g1, g2, mk = cv.build_zigzag_pair(0.5, n)
            values[n] = cv.curve_frechet(g1, g2, cv.zigzag_truncation_level(mk))
        for n, expect in self.ORACLE.items():
            assert values[n] == pytest.approx(expect, abs=0.3)
        seq = [values[n] for n in range(1, 9)]
        assert all(a < b for a, b in zip(seq, seq[1:]))
        assert values[5] > 10.0

    @pytest.mark.parametrize("r", [0.4, 0.5])
    def test_frechet_by_prefix_pinned(self, r):
        values = []
        for n in range(1, 13):
            g1, g2, mk = cv.build_zigzag_pair(r, n)
            level = cv.zigzag_truncation_level(mk)
            values.append(cv.curve_frechet(g1, g2, level).hex())
        assert values == self.PINNED_PREFIX

    def test_lower_bound_from_anchor_projection(self):
        # the coupling bound (s(z_{n+1}) - s(w_n)) / 2 must hold exactly
        for n in (3, 5, 8):
            g1, g2, mk = cv.build_zigzag_pair(0.5, n)
            lower = (mk["z_anchors_s"][-1] - mk["w_anchors_s"][-1]) / 2.0
            assert cv.curve_frechet(g1, g2, cv.zigzag_truncation_level(mk)) >= lower - 1e-9

    def test_monotone_under_prefix_extension(self):
        # appending zigzags only increases the distance on this family
        vals = []
        for n in range(0, 7):
            g1, g2, mk = cv.build_zigzag_pair(0.4, n)
            level = cv.zigzag_truncation_level(mk) if n else 8
            vals.append(cv.curve_frechet(g1, g2, level))
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cv.build_zigzag_pair(0.0, 3)
        with pytest.raises(ValueError):
            cv.build_zigzag_pair(0.5, -1)
