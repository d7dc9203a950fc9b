"""Normality along curves, blow-up indicators, cluster sets, renormalized families.

The central quantity is the normality density (1 - |z|^2) f#(z).  Its sup
over a deflection region decides normality along the underlying curve;
truncation-indexed sup estimates with a bounded/diverging verdict are the
desk-scale rendering of that limit statement.

Sampling note: the density can blow up inside bands that narrow like the
square of the boundary depth (the closed-form gallery probes do exactly
this), which no fixed sampling mesh can see.  The sup estimator therefore
combines disk covers along the refined curve (hyperbolic mesh <= 0.1) with a
deterministic local zoom around each level's grid maximum, whose depth budget
grows with the truncation level.  The verdict depends on the zoom: without it
square_exp reads as bounded instead of diverging.  A level's zoom depends only
on that level's grid maximum, so the zooms of all levels run in one lockstep
batch: every slab scan, golden-section step and floor bisection evaluates the
points of all levels in one call.  A search keeps its axial position, so its
region test (within the deflection of the level's curve samples) is built
once, as a slab: a window of the samples near that position, the only ones
that can decide it, with cosh(s - s_j) taken once.  Verdicts are taken on the
accumulated sups, which are non-decreasing in the level by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import _PRODUCT_BLOCK_CELLS, CurvilinearAngle, PLATEAU_RATIO
from .functions import (
    FunctionHandle,
    lehto_virtanen_array,
    log_lehto_virtanen_array,
)
from .geometry import (
    DISK_BOUNDARY_MARGIN,
    DiskDomainError,
    as_disk_points,
    disk_to_strip,
    hyperbolic_distance_array,
    mobius_translation,
    pseudo_hyperbolic_distance_array,
    radius_convert,
    spherical_distance_array,
    strip_depth,
    strip_to_disk,
)

COVER_MESH = 0.1          # hyperbolic sub-sampling mesh inside disk covers
# most disk-cover points normality_sup may pool, counted from the ring sizes
# before any is built.  A point takes about 90 bytes with its values, the
# pole series' too, since it takes its offsets z - z_k a block of points at
# a time; one (N, K) array of them took about 2 KB a point at K = 52, some
# 8 GB at the budget.  Every job the README, the demos, the selftest and the
# benchmark run pools at most 20,167 (the radius at deflection 0.5, level
# 14), the CLI tests 339,556 (a horocycle at level 14); the radius at
# deflection 0.999, level 12, would pool 27,431,174.
POOL_BUDGET = 4_000_000
FAMILY_MESH = 0.02        # Euclidean grid step on the compact of a family check
GROWTH_FACTOR = 2.0       # each of the last three steps >= x2 => diverging
CONVERGE_TOL = 1e-3       # limit candidates / family convergence
FAILURE_FRACTION = 0.01   # more nan evaluations than this => inconclusive
SHELL_SAMPLES = 200       # accepted points a cluster shell aims for
PSEQ_THRESHOLDS = (10.0, 100.0, 1000.0)  # all eventually exceeded => positive

# echoed by the reports of this module as an init=False field, so that no
# caller can pass thresholds that no rule reads
DEFAULT_THRESHOLDS = {
    "plateau_ratio": PLATEAU_RATIO,
    "growth_factor": GROWTH_FACTOR,
    "converge_tol": CONVERGE_TOL,
    "failure_fraction": FAILURE_FRACTION,
}


def sup_trend_verdict(values) -> str:
    """bounded / diverging / inconclusive for a non-decreasing sup sequence."""
    v = [float(x) for x in values]
    if len(v) >= 3:
        last3 = v[-3:]
        if min(last3) > 0 and max(last3) / min(last3) <= PLATEAU_RATIO:
            return "bounded"
        if max(last3) == 0.0:
            return "bounded"
    if len(v) >= 4:
        steps = [v[-1], v[-2], v[-3], v[-4]]
        if all(a >= GROWTH_FACTOR * b > 0 for a, b in zip(steps, steps[1:])):
            return "diverging"
    return "inconclusive"


# ---------------------------------------------------------------------------
# disk-cover templates


def _disk_rings(r_ph: float, mesh: float) -> list[tuple[float, int]]:
    """(radius, point count) of each ring of _disk_template(r_ph, mesh)."""
    t_max = radius_convert(r_ph, "ph_to_h")
    ts = list(np.arange(mesh, t_max, mesh))
    if not ts or ts[-1] < t_max - 1e-12:
        ts.append(t_max)
    return [(math.tanh(t / 2.0), max(8, int(math.ceil(2.0 * math.pi * math.sinh(t) / mesh))))
            for t in ts]


def _disk_template(r_ph: float, mesh: float) -> np.ndarray:
    """Sample points of the origin-centered pseudo-hyperbolic disk of radius
    r_ph, on rings spaced by `mesh` in the hyperbolic metric."""
    pts = [0.0 + 0.0j]
    for rho, n in _disk_rings(r_ph, mesh):
        ang = 2.0 * math.pi * np.arange(n) / n
        pts.extend(rho * np.exp(1j * ang))
    return np.asarray(pts, dtype=complex)


# ---------------------------------------------------------------------------
# normality sup


@dataclass
class NormalityReport:
    region: str
    deflection: float
    levels: list[int]
    sups: list[float]
    verdict: str
    failures: int = 0
    evaluations: int = 0
    thresholds: dict = field(init=False, default_factory=DEFAULT_THRESHOLDS.copy)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_ITERS = 70  # golden-section steps of each zoom offset refinement
SLAB_GRID = 97     # offsets of each zoom slab's coarse scan


def _linspace_rows(lo, hi, n):
    """np.linspace(lo[i], hi[i], n) for every row i, rounded as the scalar
    call rounds it (an array np.linspace changes all rows once one row has a
    zero step)."""
    step = (hi - lo) / (n - 1)
    grid = np.arange(n) * step[:, None] + lo[:, None]
    grid[:, -1] = hi
    return grid


class _LockstepZoom:
    """Deterministic sup refinement in axial coordinates, every level at once.

    The density of the gallery probes peaks inside bands whose hyperbolic
    width shrinks like the squared boundary depth; grids cannot see them.
    For a candidate slab (fixed axial position s), a coarse offset scan is
    followed by golden-section refinement of the log-density, which converges
    onto cusp-narrow peaks.  Everything is clipped to the region and to the
    level's depth floor, so reported sups remain honest sampled values.

    Each method works on rows (one slab or one search each) tagged with
    `lev`, an index into the zoomed levels, and advances all rows together;
    a row's arithmetic depends only on its own level, and `slab` builds a
    row's region test once for all the offsets it reads.
    """

    def __init__(self, f, region, levels):
        self.f = f
        self.theta = region.curve.endpoint_angle
        self.r_h = radius_convert(region.deflection, "ph_to_h") \
            if region.deflection > 0 else 0.0
        self.depth_floor = np.array([2.0 ** (-k) for k in levels])
        s, t = region.curve.strip_refine(max(levels) + 2)   # level k reads level k + 2
        ends = region.curve.level_ends(max(levels) + 2)
        self.samples = [(s[:ends[k + 1]], t[:ends[k + 1]]) for k in levels]
        # each level's samples sorted by s, the levels end to end; as the
        # complex (level, s), which numpy orders lexicographically
        order = [np.argsort(cs) for cs, _ in self.samples]
        sizes = [len(o) for o in order]
        self.sorted_s, ct = (np.concatenate([x[o] for x, o in zip(xs, order)])
                             for xs in zip(*self.samples))
        self.key = np.repeat(np.arange(len(sizes)), sizes) + 1j * self.sorted_s
        self.ch, self.sh = np.cosh(ct), np.sinh(ct)
        self.ch_max = np.maximum.reduceat(self.ch, np.cumsum([0] + sizes[:-1]))
        cut = np.cosh(self.r_h + 2e-12)
        self.cut = cut if np.arccosh(cut) > self.r_h + 1e-12 else np.inf

    def slab(self, lev, s, t_lo, t_hi):
        """The region test of rows at axial positions s, read at offsets in
        [t_lo, t_hi]: (depth floors, s, blocks).  Row i keeps the samples j of
        its level with |s_i - s_j| <= D_i as cosh(s_i - s_j), cosh t_j and
        sinh t_j; a block holds the rows whose window widths share an octave,
        padded with cosh = +inf (under 2x).  A cell read at t is cosh d formed
        as strip_distance forms it, the same double.  A sample left out never
        makes a row pass: with u = 2^-53, |t| <= T and cosh, sinh within 4
        ulps, a = fl(cosh(s_i - s_j)) >= 1 gives the exact cell (a - 1) cosh t
        cosh t_j + cosh(t - t_j) >= a and the evaluated one >= a (1 - 40 u
        cosh T cosh t_j).  The bounds s_i -+ D_i, widened by 1e-9 (1 + |s_i| +
        D_i), put |fl(s_i - s_j)| >= D_i outside the window, so a >= fl(cosh
        D_i)(1 - 16 u).  D_i stands only if fl(cosh D_i)(1 - 64 u cosh T max_j
        cosh t_j) > cut = fl(cosh(r_h + 2e-12)) (64 > 40 + 16 covers this
        test's roundings) and arccosh(cut) > r_h + 1e-12: then a left-out cell
        c has arccosh(max(c, 1)) > r_h + 1e-12.  Otherwise D_i = inf."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = 1.0 - 64.0 * 2.0 ** -53 * self.ch_max[lev] \
                * np.cosh(np.maximum(np.abs(t_lo), np.abs(t_hi)))
            reach = np.arccosh(self.cut / np.where(g > 0.0, g, 0.0)) + 1e-9
            reach[~(np.cosh(reach) * g > self.cut)] = np.inf
            reach += 1e-9 * (1.0 + np.abs(s) + reach)
        bound = np.empty((2, len(s)), dtype=complex)
        bound.real, bound.imag = lev, (s - reach, s + reach)
        lo = np.searchsorted(self.key, bound[0])
        width = np.searchsorted(self.key, bound[1], "right") - lo
        blocks, octave = [], np.frexp(width)[1]
        for o in np.unique(octave):
            rows = np.flatnonzero(octave == o)
            keep = np.arange(width[rows].max()) < width[rows, None]
            j = np.where(keep, lo[rows, None] + np.arange(keep.shape[1]), 0)
            cs = np.where(keep, np.cosh(s[rows, None] - self.sorted_s[j]), np.inf)
            blocks.append((rows, cs[:, None], np.where(keep, self.ch[j], 1.0)[:, None],
                           np.where(keep, self.sh[j], 0.0)[:, None]))
        return self.depth_floor[lev, None], s, blocks

    def log_value(self, slab, t):
        """Log-density of the slab's rows at offsets t, (rows,) or (rows, k);
        -inf below the depth floor or past r_h from the samples.  max(., 1)
        and arccosh are nondecreasing: of the least cosh d, the least d."""
        floor, s, blocks = slab
        tk = t if t.ndim == 2 else t[:, None]
        ct, st = np.cosh(tk)[..., None], np.sinh(tk)[..., None]
        near = np.empty(tk.shape)
        for rows, cs, ch, sh in blocks:
            near[rows] = (cs * ct[rows] * ch - st[rows] * sh).min(axis=2, initial=np.inf)
        ok = (strip_depth(s[:, None], tk) >= floor) \
            & (np.arccosh(np.maximum(near, 1.0)) <= self.r_h + 1e-12)
        z = strip_to_disk(s[np.nonzero(ok)[0]], tk[ok], self.theta)
        good = np.abs(z) < 1.0 - DISK_BOUNDARY_MARGIN
        ok[ok] = good
        out = np.full(tk.shape, -np.inf)
        if good.any():
            lv = log_lehto_virtanen_array(self.f, z[good])
            out[ok] = np.where(np.isnan(lv), -np.inf, lv)
        return out.reshape(t.shape)

    def golden_t(self, lev, s, t_lo, t_hi):
        slab = self.slab(lev, s, t_lo, t_hi)
        a, b = t_lo, t_hi
        c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
        fc, fd = self.log_value(slab, c), self.log_value(slab, d)
        for _ in range(GOLDEN_ITERS):
            left = fc >= fd  # keep [a, d]; otherwise keep [c, b]
            a, b = np.where(left, a, c), np.where(left, d, b)
            x = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
            fx = self.log_value(slab, x)
            c, d = np.where(left, x, d), np.where(left, c, x)
            fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        left = fc >= fd
        return np.where(left, c, d), np.where(left, fc, fd)

    def sweep_slab(self, lev, s, t_lo, t_hi):
        """Coarse offset scan of each slab + golden refinement of its top
        three offsets; returns (found, log value, t) per slab."""
        grid = _linspace_rows(t_lo, t_hi, SLAB_GRID)
        vals = self.log_value(self.slab(lev, s, t_lo, t_hi), grid)
        step = grid[:, 1] - grid[:, 0]
        top = np.argsort(vals, axis=1)[:, -3:]
        top_t, top_v = (np.take_along_axis(x, top, axis=1) for x in (grid, vals))
        cand_v, cand_t = np.full(top_v.shape, -np.inf), top_t.copy()
        row, col = np.nonzero(np.isfinite(top_v))
        if len(row):
            g_t, g_v = self.golden_t(lev[row], s[row], top_t[row, col] - step[row],
                                     top_t[row, col] + step[row])
            better = g_v > top_v[row, col]
            cand_v[row, col] = np.where(better, g_v, top_v[row, col])
            cand_t[row, col] = np.where(better, g_t, top_t[row, col])
        # in ascending-value order, a later candidate wins only if strictly larger
        best_v, best_t = np.full(len(s), -np.inf), np.zeros(len(s))
        for j in range(top.shape[1]):
            take = cand_v[:, j] > best_v
            best_v = np.where(take, cand_v[:, j], best_v)
            best_t = np.where(take, cand_t[:, j], best_t)
        return np.isfinite(top_v).any(axis=1), best_v, best_t

    def floor_position(self, lev, t):
        """Axial position where depth hits the level's floor at offset t."""
        lo, hi = np.zeros(len(t)), np.full(len(t), 120.0)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            deeper = strip_depth(mid, t) > self.depth_floor[lev]
            lo, hi = np.where(deeper, mid, lo), np.where(deeper, hi, mid)
        return lo


def _zoom_max(f, region, levels, z0, v0):
    """Refine each level's grid sup (value v0 at z0) by structured search;
    returns values attained at admissible sampled points (never an
    extrapolation).  The three phases run in lockstep over all levels."""
    zm = _LockstepZoom(f, region, levels)
    lev = np.arange(len(levels))
    s0, t0 = disk_to_strip(z0, zm.theta)
    t_span = np.array([np.max(np.abs(ct)) for _, ct in zm.samples]) + zm.r_h + 0.1
    found_a, v_a, t_a = zm.sweep_slab(lev, s0, -t_span, t_span)
    s_floor = zm.floor_position(lev, np.where(found_a, t_a, t0))
    found_b, v_b, t_b = zm.sweep_slab(lev, s_floor, -t_span, t_span)
    # the larger (value, t, s) of the two slabs, as tuples compare
    pick_b = found_b & (~found_a | (v_b > v_a) | ((v_b == v_a) & (
        (t_b > t_a) | ((t_b == t_a) & (s_floor > s0)))))
    found = found_a | found_b
    v, t, s = (np.where(pick_b, x_b, x_a)[found]
               for x_a, x_b in ((v_a, v_b), (t_a, t_b), (s0, s_floor)))
    # polish along the axial direction toward the floor, then re-refine
    lev_c = lev[found]
    start = np.where(s - 2.0 > 0.0, s - 2.0, 0.0)
    s_grid = _linspace_rows(start, zm.floor_position(lev_c, t), 33)
    t_c = np.repeat(t, 33)
    vals = zm.log_value(zm.slab(np.repeat(lev_c, 33), s_grid.ravel(), t_c, t_c),
                        t_c).reshape(s_grid.shape)
    j = np.argmax(vals, axis=1)
    ok = np.isfinite(vals[np.arange(len(j)), j])
    if np.any(ok):
        found_c, v_c, _ = zm.sweep_slab(lev_c[ok], s_grid[ok, j[ok]],
                                        t[ok] - 0.2, t[ok] + 0.2)
        v[ok] = np.where(found_c & (v_c > v[ok]), v_c, v[ok])
    best_log = np.full(len(levels), -np.inf)
    best_log[found] = v
    return [max(float(v), math.exp(b) if b < 700 else math.inf)
            for v, b in zip(v0, best_log)]


def normality_sup(f: FunctionHandle, region: CurvilinearAngle,
                  max_level: int) -> NormalityReport:
    """Truncation-indexed sups of (1 - |z|^2) f#(z) over the deflection region.

    Level k covers the curve out to refine(k) with pseudo-hyperbolic disks of
    the region's radius (sub-sampled at hyperbolic mesh <= COVER_MESH), keeps the
    samples with 1 - |z| >= 2^{-k}, and refines the level's sample maximum
    with the cusp zoom (one lockstep batch for all levels).  Sups accumulate,
    so they are non-decreasing in k; the verdict follows the plateau/growth
    rules.  A cover predicted to pool more than POOL_BUDGET points is
    refused before it is built, and so is a curve sample that rounds onto
    the boundary; both refusals name the curve and the level.
    """
    if max_level < 4:
        raise ValueError("max_level must be >= 4")
    rings = _disk_rings(region.deflection, COVER_MESH) if region.deflection > 0 else []
    ws = region.curve.refine(max_level)
    n = (1 + sum(count for _, count in rings)) * len(ws)
    if n > POOL_BUDGET:
        raise ValueError(
            f"normality of curve {region.curve.label} at deflection "
            f"{region.deflection!r}, level {max_level}: {n} cover points, "
            f"above the budget of {POOL_BUDGET}")
    template = _disk_template(region.deflection, COVER_MESH) if rings \
        else np.zeros(1, dtype=complex)
    # each sample's level: the first whose prefix of the curve holds it
    ends = region.curve.level_ends(max_level)
    first = np.searchsorted(ends, np.arange(len(ws)), side="right") + 1
    try:
        pool = np.concatenate([mobius_translation(w).apply(template) for w in ws])
    except DiskDomainError as exc:   # a deep sample rounds onto the boundary
        raise DiskDomainError(
            f"normality of curve {region.curve.label} at deflection "
            f"{region.deflection!r}, level {max_level}: {exc}") from None
    inside = np.abs(pool) < 1.0 - DISK_BOUNDARY_MARGIN
    pool, intro = pool[inside], np.repeat(first, len(template))[inside]
    vals = lehto_virtanen_array(f, pool)
    bad = ~np.isfinite(vals)
    failures, total = int(np.sum(bad)), len(vals)
    pool, intro, vals = pool[~bad], intro[~bad], vals[~bad]
    depth = 1.0 - np.abs(pool)

    levels = list(range(1, max_level + 1))
    peak_levels, peaks = [], []  # each sampled level and its grid argmax
    for k in levels:
        mask = (intro <= k) & (depth >= 2.0 ** (-k))
        if np.any(mask):
            peak_levels.append(k)
            peaks.append(int(np.argmax(np.where(mask, vals, -np.inf))))
    level_sups = _zoom_max(f, region, peak_levels, pool[peaks], vals[peaks]) \
        if peaks else []
    level_sup = dict(zip(peak_levels, level_sups))
    sups = [float(x) for x in np.maximum.accumulate(
        [0.0] + [level_sup.get(k, 0.0) for k in levels])[1:]]

    verdict = sup_trend_verdict(sups)
    if total and failures / total > FAILURE_FRACTION:
        verdict = "inconclusive"
    return NormalityReport(region.curve.label, region.deflection, levels,
                           sups, verdict, failures, total)


# ---------------------------------------------------------------------------
# blow-up ("P-sequence") indicators: sufficient conditions only


@dataclass
class IndicatorReport:
    kind: str
    values: list[float]
    verdict: str
    details: dict = field(default_factory=dict)


def pseq_indicator_pointwise(f: FunctionHandle, sequence) -> IndicatorReport:
    """Reports (1 - |z_n|^2) f#(z_n) and whether the values eventually exceed
    each of PSEQ_THRESHOLDS: a sufficient blow-up indicator, never a
    definitional verdict."""
    z = as_disk_points(sequence, "sequence point")
    if not np.all(np.diff(np.abs(z)) > 0):
        raise ValueError("sequence moduli must increase toward 1")
    vals = lehto_virtanen_array(f, z)
    crossed = {}
    for T in PSEQ_THRESHOLDS:
        # the first index from which every value is >= T; a NaN is below
        below = np.flatnonzero(~(vals >= T))
        idx = below[-1] + 1 if len(below) else 0
        crossed[str(T)] = int(idx) if idx < len(vals) else None
    positive = all(v is not None for v in crossed.values())
    return IndicatorReport(
        "pointwise", [float(v) for v in vals],
        "positive" if positive else "negative",
        {"thresholds": list(PSEQ_THRESHOLDS), "crossed_at": crossed})


def pseq_indicator_local_sup(f: FunctionHandle, sequence, radii) -> IndicatorReport:
    """Per-n sup of the density over the hyperbolic disk D_h(z_n, r_n),
    sampled at mesh r_n / 10; the growth trend across n is the indicator."""
    z = as_disk_points(sequence, "sequence point")
    radii = np.asarray(radii, dtype=float)
    if len(radii) != len(z):
        raise ValueError("need one radius per sequence point")
    if np.any(radii <= 0) or not np.all(np.diff(radii) < 0):
        raise ValueError("radii must be positive and decreasing")
    sups = []
    for zn, rn in zip(z, radii):
        template = _disk_template(radius_convert(rn, "h_to_ph"), rn / 10.0)
        pts = mobius_translation(zn).apply(template)
        pts = pts[np.abs(pts) < 1.0 - DISK_BOUNDARY_MARGIN]
        vals = lehto_virtanen_array(f, pts)
        sups.append(float(np.nanmax(vals)))
    return IndicatorReport("local_sup", sups, sup_trend_verdict(sups), {
        "radii": [float(r) for r in radii],
        "thresholds": {"plateau_ratio": PLATEAU_RATIO, "growth_factor": GROWTH_FACTOR}})


def pseq_indicator_split_pair(f: FunctionHandle, seq_a, seq_b, alpha,
                              delta: float) -> IndicatorReport:
    """Checks the split-pair hypotheses: f converges to alpha along seq_a,
    stays spherically delta-away along seq_b, and the two sequences merge in
    the hyperbolic metric.  All three holding flags both sequences."""
    if not 0.0 < delta <= 2.0:  # spherical distances are at most 2; NaN fails too
        raise ValueError(f"split-pair delta must be a spherical distance in "
                         f"(0, 2], got {delta!r}")
    za = as_disk_points(seq_a, "sequence point")
    zb = as_disk_points(seq_b, "sequence point")
    if len(za) != len(zb):
        raise ValueError("sequences must have equal length")
    target = np.full(len(za), complex(alpha))
    da = spherical_distance_array(f.eval_array(za), target)
    db = spherical_distance_array(f.eval_array(zb), target)
    dh = hyperbolic_distance_array(za, zb)
    n0 = max(1, len(za) // 4)
    conv_a = bool(np.max(da[-n0:]) < 0.05 and da[-1] <= da[0] + 1e-12)
    away_b = bool(np.all(db[n0:] >= delta))
    merge = bool(dh[-1] < max(0.05 * dh[0], 1e-2))
    flagged = conv_a and away_b and merge
    return IndicatorReport(
        "split_pair",
        [float(x) for x in da],
        "positive" if flagged else "negative",
        {"d_target_b": [float(x) for x in db],
         "d_h_pairs": [float(x) for x in dh],
         "converges_along_a": conv_a,
         "separated_along_b": away_b,
         "pairs_merge": merge,
         "delta": delta})


# ---------------------------------------------------------------------------
# cluster-set estimation


def _sphere_embed(values: np.ndarray) -> np.ndarray:
    """Chordal embedding of sphere points into R^3."""
    v = np.asarray(values, dtype=complex)
    inf = ~np.isfinite(v)
    safe = np.where(inf, 0.0, v)
    with np.errstate(over="ignore", invalid="ignore"):
        n = 1.0 + np.abs(safe) ** 2
        out = np.column_stack([2.0 * safe.real / n, 2.0 * safe.imag / n,
                               (np.abs(safe) ** 2 - 1.0) / n])
    # |v|^2 overflows only for |v| > 1e154, within 2e-154 of the north pole
    out[inf | ~np.isfinite(n)] = (0.0, 0.0, 1.0)
    return out


def _sphere_unembed(p) -> complex:
    x, y, z = (float(v) for v in p)
    if 1.0 - z < 1e-12:
        return complex(math.inf, 0.0)
    return complex(x, y) / (1.0 - z)


def sphere_mean(values) -> complex:
    """Chordal-embedding mean renormalized back to the sphere."""
    pts = _sphere_embed(values)
    m = pts.mean(axis=0)
    norm = np.linalg.norm(m)
    if norm < 1e-12:
        return 0j
    return _sphere_unembed(m / norm)


def spherical_diameter(values) -> float:
    """Largest chordal distance between two of the values.  Only the upper
    triangle is read: rows i against columns i..N-1, a block of rows at a
    time, at most _PRODUCT_BLOCK_CELLS cells (or one row), in two buffers
    allocated once a call.  A cell is dx*dx + dy*dy + dz*dz in that order,
    and a - b = -(b - a) exactly, so cell (j, i) is cell (i, j) and the max
    is the one the whole (N, N) matrix gives."""
    x, y, z = (np.ascontiguousarray(c) for c in _sphere_embed(values).T)
    n = len(x)
    buf = np.empty((2, min(n * n, max(n, _PRODUCT_BLOCK_CELLS))))
    best = 0.0
    i = 0
    while i < n:
        j = min(n, i + max(1, _PRODUCT_BLOCK_CELLS // (n - i)))
        s, t = (b[:(j - i) * (n - i)].reshape(j - i, n - i) for b in buf)
        np.subtract(x[i:j, None], x[i:], out=s)
        s *= s
        for c in (y, z):
            np.subtract(c[i:j, None], c[i:], out=t)
            t *= t
            s += t
        best = np.maximum(best, np.max(s))
        i = j
    return float(np.sqrt(best))


@dataclass
class ClusterEstimate:
    theta: float
    shells: list[dict]
    diameters: list[float]
    limit_candidate: complex | None
    verdict: str
    seed: int
    thresholds: dict = field(init=False, default_factory=DEFAULT_THRESHOLDS.copy)


def cluster_estimate(f: FunctionHandle, region_contains, theta: float,
                     shell_levels=range(2, 15), seed: int = 0, extra_points=None,
                     record_values: bool = True) -> ClusterEstimate:
    """Sample f on nested boundary shells of the region and track the
    spherical spread of the values.

    region_contains: vectorized predicate, complex array -> bool array.
    Shell k is the annulus 2^{-k-1} <= |z - e^{i theta}| < 2^{-k}.
    extra_points: optional dict shell_index -> points, appended to the shell
    samples (stratified probes for features rejection sampling cannot hit,
    e.g. vanishing pole disks).
    """
    rng = np.random.default_rng(seed)
    e = complex(np.exp(1j * theta))
    shells = []
    diameters = []
    means = []
    empty_run = 0
    max_empty_run = 0
    for k in shell_levels:
        hi, lo = 2.0 ** (-k), 2.0 ** (-k - 1)
        accepted = []
        attempts = 0
        while sum(len(a) for a in accepted) < SHELL_SAMPLES and attempts < 60:
            attempts += 1
            n = 4 * SHELL_SAMPLES
            rho = np.sqrt(rng.uniform(lo ** 2, hi ** 2, n))
            ang = rng.uniform(-math.pi, math.pi, n)
            z = e * (1.0 - rho * np.exp(1j * ang))
            z = z[(np.abs(z) < 1.0 - DISK_BOUNDARY_MARGIN)]
            z = z[np.abs(z - e) >= lo]
            z = z[np.abs(z - e) < hi]
            if len(z):
                z = z[region_contains(z)]
            if len(z):
                accepted.append(z)
        pts = np.concatenate(accepted) if accepted else np.zeros(0, complex)
        if extra_points and k in extra_points and len(extra_points[k]):
            pts = np.concatenate([pts, np.asarray(extra_points[k], complex)])
        if len(pts) == 0:
            empty_run += 1
            max_empty_run = max(max_empty_run, empty_run)
            shells.append({"shell": int(k), "range": [lo, hi], "n": 0,
                           "mean": None, "diameter": None})
            continue
        empty_run = 0
        vals = f.eval_array(pts)
        mean = sphere_mean(vals)
        dia = spherical_diameter(vals)
        means.append(mean)
        diameters.append(dia)
        rec = {"shell": int(k), "range": [lo, hi], "n": int(len(pts)),
               "mean": mean, "diameter": dia}
        if record_values:
            rec["values"] = list(vals)
        shells.append(rec)
    candidate = None
    verdict = "no_limit"
    # the limit rule reads the last two diameters: fewer decide nothing
    if max_empty_run >= 3 or len(diameters) < 2:
        verdict = "inconclusive"
    elif diameters[-1] < CONVERGE_TOL and diameters[-2] < CONVERGE_TOL:
        if spherical_distance_array(means[-1], means[-2]) < CONVERGE_TOL:
            candidate = means[-1]
            verdict = "limit"
    return ClusterEstimate(theta, shells, diameters, candidate, verdict, seed)


# ---------------------------------------------------------------------------
# renormalized families


@dataclass
class FamilyReport:
    w_sequence: list[complex]
    compact_radius: float
    target: complex
    sup_ds: list[float | None]
    verdict: str
    failures: int = 0
    thresholds: dict = field(init=False, default_factory=DEFAULT_THRESHOLDS.copy)


def renormalized_family_check(f: FunctionHandle, w_sequence, r1: float,
                              c) -> FamilyReport:
    """Per n, sup over a grid of the compact |z| <= r1 of the spherical
    distance d_S(f(phi_{w_n}(z)), c): local-topology convergence of the
    renormalized family to the constant c, rendered at desk scale.

    A NaN value of f with no infinite part is a failed evaluation, not the
    point at infinity: it is left out of the sups, and more than
    FAILURE_FRACTION of them makes the verdict inconclusive.  The sup of a
    w_n none of whose values evaluated is None (JSON null)."""
    if not 0.0 < r1 < 1.0:
        raise ValueError("compact radius r1 must be in (0, 1)")
    c = complex(c)
    side = np.arange(-r1, r1 + FAMILY_MESH / 2, FAMILY_MESH)
    gx, gy = np.meshgrid(side, side)
    grid = (gx + 1j * gy).ravel()
    grid = grid[np.abs(grid) <= r1]
    ws = as_disk_points(w_sequence, "w").tolist()
    sups = []
    failures = 0
    for w in ws:
        img = mobius_translation(w).apply(grid)
        vals = f.eval_array(img)
        bad = np.isnan(vals) & ~np.isinf(vals)
        failures += int(np.sum(bad))
        good = vals[~bad]
        ds = spherical_distance_array(good, np.full(len(good), c))
        sups.append(float(np.max(ds)) if len(ds) else None)
    converged = sups and sups[-1] is not None and sups[-1] < CONVERGE_TOL
    verdict = "converges" if converged else "no_convergence"
    if sups and failures / (len(sups) * len(grid)) > FAILURE_FRACTION:
        verdict = "inconclusive"
    return FamilyReport(ws, r1, c, sups, verdict, failures)


# ---------------------------------------------------------------------------
# closed-form membership for radius-based deflection regions


def radial_angle_membership(r_ph: float, theta: float = 0.0):
    """Vectorized exact membership predicate for the deflection region of the
    radius curve: pseudo-hyperbolic distance to the radius at most r_ph.
    Cross-checked against the sampled CurvilinearAngle.contains in the tests."""
    t_max = radius_convert(r_ph, "ph_to_h")

    def contains(z):
        z = np.asarray(z, dtype=complex)
        s, t = disk_to_strip(z, theta)
        band = (np.abs(t) <= t_max) & (s >= 0.0)
        near_origin = pseudo_hyperbolic_distance_array(z, 0.0) <= r_ph
        return band | near_origin

    return contains
