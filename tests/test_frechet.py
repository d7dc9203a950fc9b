import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from poincare_boundary_lab import curves as cv
from poincare_boundary_lab import geometry as ge

import reference as ref
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


def assert_dp_matches_cell_loop(dist, monkeypatch):
    """`_frechet_dp` on the matrix, in bands of the default size, of one
    diagonal and of seven cells (ragged band edges), and the whole-matrix
    wavefront of tests/reference.py, all against the cell loop as float.hex."""
    want = cell_loop_frechet(dist).hex()
    assert ref.frechet_wavefront(dist).hex() == want
    for block in (cv._PRODUCT_BLOCK_CELLS, 1, 7):
        monkeypatch.setattr(cv, "_PRODUCT_BLOCK_CELLS", block)
        assert cv._frechet_dp(ref.MatrixCells(dist)).hex() == want


class TestFrechetWavefront:
    """`_frechet_dp` against the cell loop, compared as float.hex."""

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_random_matrices_bit_identical(self, shape, monkeypatch):
        rng = np.random.default_rng(41)
        for _ in range(5):
            assert_dp_matches_cell_loop(rng.exponential(2.0, shape), monkeypatch)

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_ties_bit_identical(self, shape, monkeypatch):
        rng = np.random.default_rng(43)
        for decimals in (0, 1):
            dist = np.round(rng.uniform(0.0, 4.0, shape), decimals)
            assert_dp_matches_cell_loop(dist, monkeypatch)

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_infinite_cells_bit_identical(self, shape, monkeypatch):
        rng = np.random.default_rng(47)
        for frac in (0.1, 0.5, 0.9):
            dist = rng.uniform(0.0, 3.0, shape)
            dist[rng.uniform(size=shape) < frac] = np.inf
            assert_dp_matches_cell_loop(dist, monkeypatch)
        # a coupling must pass both corners and cross every row and column
        for cell in ((0, 0), (-1, -1), (shape[0] // 2, slice(None)),
                     (slice(None), shape[1] // 2)):
            dist = rng.uniform(0.0, 3.0, shape)
            dist[cell] = np.inf
            assert cell_loop_frechet(dist) == np.inf
            assert_dp_matches_cell_loop(dist, monkeypatch)

    def test_non_contiguous_input(self, monkeypatch):
        dist = np.random.default_rng(53).exponential(1.0, (30, 70))
        for view in (dist.T, dist[::2, ::3], np.asfortranarray(dist)):
            assert_dp_matches_cell_loop(view, monkeypatch)


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
        value = cv._distance_of_cosh(cv._frechet_dp(cv._CoshCells(s1, t1, s2, t2)))
        assert value == pytest.approx(discrete_frechet(z1, z2), abs=1e-9)


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
        assert np.all(region.contains(pts[::7], 10))

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


# the seven curve pairs of the benchmark's frechet_curves workload, each at
# two settings that between them take every value the workload draws
COSH_PAIRS = {
    "radius-hypercycle": [(("radius", th), ("hypercycle", th, p))
                          for th, p in ((0.0, 0.5), (2.5, -0.3))],
    "radius-chord": [(("radius", th), ("chord", th, a)) for th, a in ((0.0, 0.5), (2.5, -0.4))],
    "radius-horocycle": [(("radius", th), ("horocycle", th, side))
                         for th, side in ((0.0, 1.0), (2.5, -1.0))],
    "chord-horocycle": [(("chord", th, a), ("horocycle", th, side))
                        for th, a, side in ((0.0, 0.5, 1.0), (2.5, -0.4, -1.0))],
    "hypercycle-chord": [(("hypercycle", th, p), ("chord", th, a))
                         for th, p, a in ((0.0, 0.5, 0.5), (2.5, -0.3, -0.4))],
    "hypercycle-hypercycle": [(("hypercycle", th, 0.5), ("hypercycle", th, p))
                              for th, p in ((0.0, 0.5), (2.5, -0.3))],
    "chord-chord": [(("chord", th, 0.3), ("chord", th, a)) for th, a in ((0.0, 0.5), (2.5, -0.4))],
}


@functools.lru_cache(maxsize=None)
def zigzag(r, n):
    g1, g2, mk = cv.build_zigzag_pair(r, n)
    return g1, g2, cv.zigzag_truncation_level(mk)


def dp_cells(s1, t1, s2, t2):
    """Every cell `_frechet_dp` reads from `_CoshCells(s1, t1, s2, t2)`, put
    back in its (n1, n2) place from the bands it reads them in; checks that
    every cell is read and that every band cell off the matrix is +inf."""
    cells = cv._CoshCells(s1, t1, s2, t2)
    n, m = cells.shape
    matrix = np.full((n, m), np.nan)

    class Recording:
        shape, size = cells.shape, cells.size

        def band(self, k, i, out, scratch):
            band = cells.band(k, i, out, scratch)
            rows, cols, inside = ref.band_cells(k, i, band.shape, m)
            assert np.all(band[~inside] == np.inf)
            matrix[rows[inside], cols[inside]] = band[inside]
            return band

    cv._frechet_dp(Recording())
    assert not np.any(np.isnan(matrix))
    return matrix


def directed_cells(c1, c2, level):
    """Every cell `directed_curve_distance(c1, c2, level)` reads, its
    `_strip_distance_matrix` blocks of rows stacked."""
    blocks = []
    kernel = cv._strip_distance_matrix

    def recording(*args):
        blocks.append(kernel(*args).copy())
        return blocks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cv, "_strip_distance_matrix", recording)
        cv.directed_curve_distance(c1, c2, level)
    return np.concatenate(blocks)


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCoshDomain:
    """The curve distances take their max and min on cosh d and convert the
    result once; the reference converts every cell first.  Compared as
    float.hex."""

    def assert_matches_reference(self, c1, c2, level, every_level=True):
        # the directed distances of all levels come from one matrix; the
        # reference builds each level's own
        for a, b in ((c1, c2), (c2, c1)):
            values = cv.directed_curve_distance(a, b, level)
            assert len(values) == level
            for k in range(1, level + 1) if every_level else (level,):
                assert values[k - 1].hex() == ref.directed_curve_distance(a, b, k).hex()
        value = cv.curve_frechet(c1, c2, level).hex()
        assert value == ref.curve_frechet(c1, c2, level).hex()
        assert value == cv.curve_frechet(c2, c1, level).hex()  # swapping the curves

    @pytest.mark.parametrize("kind", COSH_PAIRS)
    def test_canonical_pairs_bit_identical(self, kind):
        for spec1, spec2 in COSH_PAIRS[kind]:
            c1, c2 = cv.canonical_curve(*spec1), cv.canonical_curve(*spec2)
            for level in (12, 14, 16):
                self.assert_matches_reference(c1, c2, level)
                # every cell, not only the ones the max and min pick, as
                # the directed distance's row blocks and the DP's bands
                s1, t1 = c1.strip_refine(level)
                s2, t2 = c2.strip_refine(level + 2)
                want = ref.strip_distance_matrix(s1, t1, s2, t2)
                for c in (directed_cells(c1, c2, level), dp_cells(s1, t1, s2, t2)):
                    assert np.array_equal(np.arccosh(np.maximum(c, 1.0)), want)

    @pytest.mark.parametrize("r", [0.4, 0.5])
    def test_zigzag_pairs_bit_identical(self, r):
        # every level up to n = 4 (level 40); past it only the deepest, as the
        # reference builds one matrix a level
        for n in range(1, 13):
            self.assert_matches_reference(*zigzag(r, n), every_level=n <= 4)

    def test_import_read_past_its_export_level(self):
        # the import keeps all its samples from level 8 on, so its levels 10
        # to 16 end at the same sample: column blocks with the same end
        chord = cv.canonical_curve("chord", 0.0, 0.5)
        imported = cv.curve_from_exchange(cv.curve_to_exchange(chord, 8))
        assert len(imported.strip_refine(16)[0]) == len(imported.strip_refine(8)[0])
        self.assert_matches_reference(imported, cv.canonical_curve("radius", 0.0), 14)

    @pytest.mark.parametrize("block", [1, 7])
    def test_small_blocks_bit_identical(self, block, monkeypatch):
        # bands of one diagonal, and of seven cells: ragged band edges, and
        # a band narrower than a row where 7 // n is 0
        monkeypatch.setattr(cv, "_PRODUCT_BLOCK_CELLS", block)
        for spec1, spec2 in (COSH_PAIRS["radius-horocycle"][1], COSH_PAIRS["chord-chord"][0]):
            self.assert_matches_reference(cv.canonical_curve(*spec1),
                                          cv.canonical_curve(*spec2), 10)
        self.assert_matches_reference(*zigzag(0.4, 2))
        radius, chord = cv.canonical_curve("radius", 0.0), cv.canonical_curve("chord", 0.0, 0.5)
        s1, t1 = radius.strip_refine(8)
        s2, t2 = chord.strip_refine(10)
        want = ref.strip_distance_matrix(s1, t1, s2, t2)
        for c in (directed_cells(radius, chord, 8), dp_cells(s1, t1, s2, t2),
                  dp_cells(s2, t2, s1, t1).T):
            assert np.array_equal(np.arccosh(np.maximum(c, 1.0)), want)

    def test_matrix_rows_span_several_product_blocks(self):
        # rows of 133 cells: bands of 492 diagonals over 1,132, two whole
        # and a partial third; transposed, rows of 1,000 and bands of 65
        n = 2 * (cv._PRODUCT_BLOCK_CELLS // 1000) + 3
        rng = np.random.default_rng(59)
        s1, s2 = rng.uniform(0, 30, n), rng.uniform(0, 30, 1000)
        t1, t2 = rng.uniform(-2, 2, n), rng.uniform(-2, 2, 1000)
        want = ref.strip_distance_matrix(s1, t1, s2, t2)
        for c in (dp_cells(s1, t1, s2, t2), dp_cells(s2, t2, s1, t1).T):
            assert np.array_equal(np.arccosh(np.maximum(c, 1.0)), want)

    def test_frechet_peak_memory_does_not_grow_with_cells(self):
        # lemma4's largest pair, 692 x 3,641 cells: the whole cosh matrix
        # peaked at 20 MB under tracemalloc, the bands at about 1.3 MB
        g1, g2, level = zigzag(0.4, 12)
        cells = len(g1.strip_refine(level)[0]) * len(g2.strip_refine(level)[0])
        assert cells == 692 * 3641
        assert traced_peak(lambda: cv.curve_frechet(g1, g2, level)) <= 4 * 2**20

    def test_directed_peak_memory_does_not_grow_with_cells(self):
        # 2,044 x 4,088 cells: the whole cosh matrix peaked at 64 MiB under
        # tracemalloc, the row blocks at about 1.9 MiB
        c1 = cv.canonical_curve("horocycle", 0.0, 1)
        c2 = cv.canonical_curve("horocycle", 0.0, -1)
        cv.directed_curve_distance(c1, c2, 17)   # builds every level first
        cells = len(c1.strip_refine(17)[0]) * len(c2.strip_refine(19)[0])
        assert cells >= 5_000_000
        assert traced_peak(lambda: cv.directed_curve_distance(c1, c2, 17)) <= 4 * 2**20


class TestCellOracle:
    """The streamed cells against cosh d evaluated in 50-digit arithmetic
    from the same double samples.

    Error model, in units of 2^-53: the rounding of s1 - s2 moves cosh by up
    to |s1 - s2| units, and cosh, the two products and the difference add a
    few more, amplified by cancellation in the difference, by
    cond = cosh(s1 - s2) cosh t1 cosh t2 / cosh d.  So a cell's relative error
    is read in units of 2^-53 cond (1 + |s1 - s2|).  Measured worst: 4.3 of
    those units (the horocycle pair at level 14); relative errors up to
    1.0e-15 on the canonical pairs and 1.4e-14 on the 12-zigzag pair, whose
    s reaches 170.  Asserted below 16 units, a 3.7x margin."""

    UNITS = 16.0

    @staticmethod
    def worst_units(s1, t1, s2, t2, rng):
        import mpmath as mp

        c = dp_cells(s1, t1, s2, t2)
        # random cells, and each row's nearest, where the difference cancels most
        rows = np.r_[rng.integers(0, len(s1), 100), np.arange(len(s1))]
        cols = np.r_[rng.integers(0, len(s2), 100), np.argmin(c, axis=1)]
        worst = 0.0
        with mp.workdps(50):
            for i, j in zip(rows, cols):
                ds = mp.mpf(s1[i]) - mp.mpf(s2[j])
                terms = mp.cosh(ds) * mp.cosh(t1[i]) * mp.cosh(t2[j])
                exact = terms - mp.sinh(t1[i]) * mp.sinh(t2[j])
                err = abs(mp.mpf(c[i, j]) - exact) / exact
                units = err / (2.0 ** -53 * (terms / exact) * (1 + abs(ds)))
                worst = max(worst, float(units))
        return worst

    @pytest.mark.parametrize("kind", COSH_PAIRS)
    def test_canonical_pairs(self, kind):
        rng = np.random.default_rng(61)
        for spec1, spec2 in COSH_PAIRS[kind]:
            c1, c2 = cv.canonical_curve(*spec1), cv.canonical_curve(*spec2)
            for level in (12, 14, 16):
                units = self.worst_units(*c1.strip_refine(level), *c2.strip_refine(level), rng)
                assert units < self.UNITS

    def test_horocycle_pair(self):
        rng = np.random.default_rng(67)
        c1 = cv.canonical_curve("horocycle", 0.0, 1)
        c2 = cv.canonical_curve("horocycle", 0.0, -1)
        for level in (12, 14, 16):
            assert self.worst_units(*c1.strip_refine(level), *c2.strip_refine(level), rng) < self.UNITS

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_zigzag_pairs(self, n):
        g1, g2, level = zigzag(0.4, n)
        units = self.worst_units(*g1.strip_refine(level), *g2.strip_refine(level),
                                 np.random.default_rng(71))
        assert units < self.UNITS
