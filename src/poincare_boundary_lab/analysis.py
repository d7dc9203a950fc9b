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
points of all levels in one call.  The region test of those points (within
the deflection of the level's curve samples) runs one broadcast per block of
levels: levels whose sample counts share floor(log2 n) form a block, padded
to its longest level with s = +inf (cosh d = +inf), so padding adds less than
2x to any level however fast the counts grow.  Verdicts are taken on the
accumulated sups, which are non-decreasing in the level by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import CurvilinearAngle, PLATEAU_RATIO
from .functions import (
    FunctionHandle,
    lehto_virtanen_array,
    log_lehto_virtanen_array,
)
from .geometry import (
    DISK_BOUNDARY_MARGIN,
    as_complex,
    disk_to_strip,
    hyperbolic_distance_array,
    mobius_translation,
    pseudo_hyperbolic_distance_array,
    radius_convert,
    spherical_distance,
    spherical_distance_array,
    strip_depth,
    strip_to_disk,
)

COVER_MESH = 0.1          # hyperbolic sub-sampling mesh inside disk covers
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


def _disk_template(r_ph: float, mesh: float) -> np.ndarray:
    """Sample points of the origin-centered pseudo-hyperbolic disk of radius
    r_ph, on rings spaced by `mesh` in the hyperbolic metric."""
    t_max = radius_convert(r_ph, "ph_to_h")
    ts = list(np.arange(mesh, t_max, mesh))
    if not ts or ts[-1] < t_max - 1e-12:
        ts.append(t_max)
    pts = [0.0 + 0.0j]
    for t in ts:
        n = max(8, int(math.ceil(2.0 * math.pi * math.sinh(t) / mesh)))
        rho = math.tanh(t / 2.0)
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
    a row's arithmetic depends only on its own level.
    """

    def __init__(self, f, region, levels):
        self.f = f
        self.theta = region.curve.endpoint_angle
        self.r_h = radius_convert(region.deflection, "ph_to_h") \
            if region.deflection > 0 else 0.0
        self.depth_floor = np.array([2.0 ** (-k) for k in levels])
        self.samples = [region.curve.strip_refine(min(k + 2, 60)) for k in levels]
        # region-test blocks: levels whose sample counts n share
        # floor(log2 n), so a block pads each of its levels by less than 2x
        octave = [len(cs).bit_length() for cs, _ in self.samples]
        self.blocks = []                          # (s, cosh t, sinh t) pads
        self.block_of = np.zeros(len(levels), dtype=int)
        self.row_of = np.zeros(len(levels), dtype=int)
        for b, o in enumerate(sorted(set(octave))):
            members = [i for i, oi in enumerate(octave) if oi == o]
            m = max(len(self.samples[i][0]) for i in members)
            ps, pt = np.full((len(members), m), np.inf), np.zeros((len(members), m))
            for row, i in enumerate(members):
                cs, ct = self.samples[i]
                ps[row, :len(cs)], pt[row, :len(ct)] = cs, ct
                self.block_of[i], self.row_of[i] = b, row
            self.blocks.append((ps, np.cosh(pt), np.sinh(pt)))

    def in_region(self, lev, s, t):
        """Rows at or above their level's depth floor and within r_h of the
        level's curve samples.  One broadcast per block: the cells are
        strip_distance's cosh d, and a padded cell (s = +inf, t = 0) gives
        +inf.  np.maximum(., 1) and np.arccosh are nondecreasing, so
        applying them to each row's minimum of cosh d gives the minimum
        distance exactly."""
        ok = strip_depth(s, t) >= self.depth_floor[lev]
        rows = np.flatnonzero(ok)
        blk = self.block_of[lev[rows]]
        for b, (ps, ch, sh) in enumerate(self.blocks):
            r = rows[blk == b]
            if not len(r):
                continue
            i = self.row_of[lev[r]]
            t1 = t[r, None]
            c = np.cosh(s[r, None] - ps[i]) * np.cosh(t1) * ch[i] - np.sinh(t1) * sh[i]
            ok[r] = np.arccosh(np.maximum(np.min(c, axis=1), 1.0)) <= self.r_h + 1e-12
        return ok

    def log_value(self, lev, s, t):
        out = np.full(s.shape, -np.inf)
        ok = self.in_region(lev, s, t)
        if np.any(ok):
            z = strip_to_disk(s[ok], t[ok], self.theta)
            good = np.abs(z) < 1.0 - DISK_BOUNDARY_MARGIN
            vals = np.full(len(z), -np.inf)
            if np.any(good):
                lv = log_lehto_virtanen_array(self.f, z[good])
                vals[good] = np.where(np.isnan(lv), -np.inf, lv)
            out[ok] = vals
        return out

    def golden_t(self, lev, s, t_lo, t_hi, iters=70):
        a, b = t_lo, t_hi
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc = self.log_value(lev, s, c)
        fd = self.log_value(lev, s, d)
        for _ in range(iters):
            left = fc >= fd  # keep [a, d]; otherwise keep [c, b]
            a = np.where(left, a, c)
            b = np.where(left, d, b)
            x = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
            fx = self.log_value(lev, s, x)
            c, d = np.where(left, x, d), np.where(left, c, x)
            fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        left = fc >= fd
        return np.where(left, c, d), np.where(left, fc, fd)

    def sweep_slab(self, lev, s, t_lo, t_hi, n_grid=97):
        """Coarse offset scan of each slab + golden refinement of its top
        three offsets; returns (found, log value, t) per slab."""
        grid = _linspace_rows(t_lo, t_hi, n_grid)
        vals = self.log_value(np.repeat(lev, n_grid), np.repeat(s, n_grid),
                              grid.ravel()).reshape(grid.shape)
        step = grid[:, 1] - grid[:, 0]
        top = np.argsort(vals, axis=1)[:, -3:]
        top_t = np.take_along_axis(grid, top, axis=1)
        top_v = np.take_along_axis(vals, top, axis=1)
        cand_v = np.full(top_v.shape, -np.inf)
        cand_t = top_t.copy()
        row, col = np.nonzero(np.isfinite(top_v))
        if len(row):
            g_t, g_v = self.golden_t(lev[row], s[row], top_t[row, col] - step[row],
                                     top_t[row, col] + step[row])
            better = g_v > top_v[row, col]
            cand_v[row, col] = np.where(better, g_v, top_v[row, col])
            cand_t[row, col] = np.where(better, g_t, top_t[row, col])
        # in ascending-value order, a later candidate wins only if strictly larger
        best_v = np.full(len(s), -np.inf)
        best_t = np.zeros(len(s))
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
    v = np.where(pick_b, v_b, v_a)[found]
    t = np.where(pick_b, t_b, t_a)[found]
    s = np.where(pick_b, s_floor, s0)[found]
    # polish along the axial direction toward the floor, then re-refine
    lev_c = lev[found]
    start = np.where(s - 2.0 > 0.0, s - 2.0, 0.0)
    s_grid = _linspace_rows(start, zm.floor_position(lev_c, t), 33)
    vals = zm.log_value(np.repeat(lev_c, 33), s_grid.ravel(),
                        np.repeat(t, 33)).reshape(s_grid.shape)
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
    rules.
    """
    if max_level < 4:
        raise ValueError("max_level must be >= 4")
    template = _disk_template(region.deflection, COVER_MESH) if region.deflection > 0 \
        else np.zeros(1, dtype=complex)
    pts_all: list[np.ndarray] = []
    intro_all: list[np.ndarray] = []
    prev_count = 0
    for k in range(1, max_level + 1):
        ws = region.curve.refine(k)
        new_ws = ws[prev_count:]
        prev_count = len(ws)
        if len(new_ws):
            pts = np.concatenate([
                mobius_translation(w).apply(template) for w in new_ws])
            pts = pts[np.abs(pts) < 1.0 - DISK_BOUNDARY_MARGIN]
            pts_all.append(pts)
            intro_all.append(np.full(len(pts), k))
    pool = np.concatenate(pts_all)
    intro = np.concatenate(intro_all)
    vals = lehto_virtanen_array(f, pool)
    bad = ~np.isfinite(vals)
    failures = int(np.sum(bad))
    total = len(vals)
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
    sups: list[float] = []
    running = 0.0
    for k in levels:
        running = max(running, level_sup.get(k, 0.0))
        sups.append(running)

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
    z = np.asarray([as_complex(p) for p in sequence], dtype=complex)
    if not np.all(np.diff(np.abs(z)) > 0):
        raise ValueError("sequence moduli must increase toward 1")
    vals = lehto_virtanen_array(f, z)
    crossed = {}
    for T in PSEQ_THRESHOLDS:
        above = vals >= T
        idx = None
        for i in range(len(vals)):
            if np.all(above[i:]):
                idx = i
                break
        crossed[str(T)] = idx
    positive = all(v is not None for v in crossed.values())
    return IndicatorReport(
        "pointwise", [float(v) for v in vals],
        "positive" if positive else "negative",
        {"thresholds": list(PSEQ_THRESHOLDS), "crossed_at": crossed})


def pseq_indicator_local_sup(f: FunctionHandle, sequence, radii) -> IndicatorReport:
    """Per-n sup of the density over the hyperbolic disk D_h(z_n, r_n),
    sampled at mesh r_n / 10; the growth trend across n is the indicator."""
    z = np.asarray([as_complex(p) for p in sequence], dtype=complex)
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
    return IndicatorReport("local_sup", sups, sup_trend_verdict(sups),
                           {"radii": [float(r) for r in radii]})


def pseq_indicator_split_pair(f: FunctionHandle, seq_a, seq_b, alpha,
                              delta: float) -> IndicatorReport:
    """Checks the split-pair hypotheses: f converges to alpha along seq_a,
    stays spherically delta-away along seq_b, and the two sequences merge in
    the hyperbolic metric.  All three holding flags both sequences."""
    za = np.asarray([as_complex(p) for p in seq_a], dtype=complex)
    zb = np.asarray([as_complex(p) for p in seq_b], dtype=complex)
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
    x, y, z = _sphere_embed(values).T
    dx, dy, dz = (c[:, None] - c[None, :] for c in (x, y, z))
    return float(np.sqrt(np.max(dx * dx + dy * dy + dz * dz)))


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
    if max_empty_run >= 3:
        verdict = "inconclusive"
    elif len(diameters) >= 2 and diameters[-1] < CONVERGE_TOL \
            and diameters[-2] < CONVERGE_TOL:
        if spherical_distance(means[-1], means[-2]) < CONVERGE_TOL:
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
    ws = [as_complex(w) for w in w_sequence]
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
    Cross-checked against the sampled angle_contains in the tests."""
    t_max = radius_convert(r_ph, "ph_to_h")

    def contains(z):
        z = np.asarray(z, dtype=complex)
        s, t = disk_to_strip(z, theta)
        band = (np.abs(t) <= t_max) & (s >= 0.0)
        near_origin = pseudo_hyperbolic_distance_array(z, 0.0) <= r_ph
        return band | near_origin

    return contains
