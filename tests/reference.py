"""Reference implementations that only the tests read: cross-checks of
the package's own paths, kept out of the package because no run uses them."""

import json
import math

import numpy as np

from poincare_boundary_lab import analysis as an
from poincare_boundary_lab import curves as cv
from poincare_boundary_lab import functions as fn
from poincare_boundary_lab import geometry as ge
from poincare_boundary_lab import stolz as st
from poincare_boundary_lab.cli import CliError, _positive, parse_complex
from poincare_boundary_lab.curves import HYP_MESH, _frechet_dp
from poincare_boundary_lab.functions import (
    POLE_SNAP,
    CallableFunction,
    FunctionHandle,
    PoleSchedule,
)
from poincare_boundary_lab.geometry import hyperbolic_distance_array


def band_cells(k, i, shape, m):
    """(rows, cols, inside) of a band of `shape` (b, w) that starts at the
    anti-diagonal k and the row i, in a matrix of m columns: band cell
    [d, r] is the cell (rows[d, r], cols[d, r]) = (i + r, k + d - i - r),
    and `inside` marks the ones on the matrix."""
    b, w = shape
    rows = np.broadcast_to(np.arange(i, i + w), shape)
    cols = np.arange(k, k + b)[:, None] - rows
    return rows, cols, (cols >= 0) & (cols < m)


class MatrixCells:
    """A ready distance matrix behind the interface `curves._frechet_dp`
    reads its cells through (`curves._CoshCells`): shape, size, and `band`,
    which fills out with the band's cells, +inf off the matrix."""

    def __init__(self, dist):
        self.dist = np.asarray(dist, dtype=float)
        self.shape, self.size = self.dist.shape, self.dist.size

    def band(self, k, i, out, scratch):
        m = self.shape[1]
        rows, cols, inside = band_cells(k, i, out.shape, m)
        out[...] = np.where(inside, self.dist[rows, np.clip(cols, 0, m - 1)], np.inf)
        return out


def frechet_wavefront(dist) -> float:
    """The Frechet DP over a whole distance matrix, the path
    `curves._frechet_dp` took before it read its cells a band at a time: the
    same anti-diagonal wavefront, with the cells of a diagonal a strided
    slice of the raveled matrix."""
    n, m = dist.shape
    if n == 1 or m == 1:
        return float(np.max(dist))   # a single row or column: its running max
    flat = np.ascontiguousarray(dist, dtype=float).ravel()
    older = np.full(n + 1, np.inf)   # diagonal k - 2
    prev = np.full(n + 1, np.inf)    # diagonal k - 1
    cur = np.full(n + 1, np.inf)
    prev[1] = flat[0]
    mins = np.empty(n)
    for k in range(1, n + m - 1):
        lo, hi = max(0, k - m + 1), min(k, n - 1)
        w = hi - lo + 1
        mn = mins[:w]
        np.minimum(prev[lo + 1:hi + 2], prev[lo:hi + 1], out=mn)
        np.minimum(mn, older[lo:hi + 1], out=mn)
        np.maximum(flat[lo * m + k - lo::m - 1][:w], mn, out=cur[lo + 1:hi + 2])
        older, prev, cur = prev, cur, older
    return float(prev[n])


def discrete_frechet(p_samples, q_samples) -> float:
    """Discrete Frechet distance between two sample polylines, with
    hyperbolic leg distance (complex samples), by `curves._frechet_dp`."""
    p = np.atleast_1d(np.asarray(p_samples, dtype=complex))
    q = np.atleast_1d(np.asarray(q_samples, dtype=complex))
    if len(p) == 0 or len(q) == 0:
        raise ValueError("sample lists must be non-empty")
    d = hyperbolic_distance_array(p[:, None], q[None, :])
    return _frechet_dp(MatrixCells(d))


def strip_distance_matrix(s1, t1, s2, t2):
    """Hyperbolic distances between axial samples, one arccosh a cell: the
    matrix the curve distances were taken on before they moved to cosh d."""
    with np.errstate(over="ignore"):
        c = (np.cosh(s1[:, None] - s2[None, :])
             * (np.cosh(t1)[:, None] * np.cosh(t2)[None, :])
             - np.sinh(t1)[:, None] * np.sinh(t2)[None, :])
    return np.arccosh(np.maximum(c, 1.0))


def directed_curve_distance(c1, c2, level: int) -> float:
    """One level of `curves.directed_curve_distance`, on that level's own
    distance matrix."""
    d = strip_distance_matrix(*c1.strip_refine(level), *c2.strip_refine(level + 2))
    return float(np.max(np.min(d, axis=1)))


def curve_frechet(c1, c2, level: int) -> float:
    """`curves.curve_frechet` on the whole distance matrix."""
    return frechet_wavefront(strip_distance_matrix(*c1.strip_refine(level),
                                                   *c2.strip_refine(level)))


def dh(a: complex, b: complex) -> float:
    """Hyperbolic distance between two disk points, as
    `ParametricCurve._dh` evaluated it before `_step` moved to
    `curves._ph_gap`: numpy's scalar complex arithmetic on np.conj(b)."""
    d = abs((a - b) / (1.0 - a * np.conj(b)))
    return math.log1p(d) - math.log1p(-d)


def bisection_step(point, u: float, z: complex, gap=dh) -> float:
    """The step `ParametricCurve._step` stands for: halve u until the gap
    from z = point(u) reaches HYP_MESH, then bisect 60 times, evaluating
    every midpoint; a gap below HYP_MESH moves hi, any other moves lo."""
    hi, lo = u, u * 0.5
    while gap(z, point(lo)) < HYP_MESH:
        hi, lo = lo, lo * 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(z, point(mid)) < HYP_MESH:
            hi = mid
        else:
            lo = mid
    return lo


def bisection_samples(curve, level: int):
    """Parameters and disk points of a ParametricCurve stepped from its
    first sample with `bisection_step` through depth 2^-level, as
    `_build_strip` steps them."""
    us, pts = curve._u[:1], curve._pts[:1]
    while 1.0 - abs(pts[-1]) > 2.0 ** -level:
        u = bisection_step(curve._point, us[-1], pts[-1])
        us.append(u)
        pts.append(complex(curve._point(u)))
    return us, pts


def level_end(depth, level: int) -> int:
    """How many samples of a run level `level` keeps: every sample through
    the first one with depth <= 2^-level, or all of them if none is that deep
    (one level of `BoundaryCurve._cut`)."""
    deep = depth <= cv._depth_target(level)
    return int(np.argmax(deep)) + 1 if np.any(deep) else len(deep)


def level_strip(curve, level: int):
    """(s, t) of `curve` at `level` as each curve class built and cut every
    level on its own, before each level became a prefix of one sample run.
    A ParametricCurve's samples are stepped in place on `curve`, so pass one
    that the code under test does not read."""
    if isinstance(curve, cv.ParametricCurve):
        us, pts = curve._u, curve._pts
        while 1.0 - abs(pts[-1]) > 2.0 ** -level:
            us.append(curve._step(us[-1], pts[-1]))
            pts.append(complex(curve._point(us[-1])))
        arr = np.asarray(pts, dtype=complex)
        keep = level_end(1.0 - np.abs(arr), level)
        return ge.disk_to_strip(arr[:keep], curve.endpoint_angle)
    if isinstance(curve, cv.HypercycleCurve):
        s, t = cv._offset_run(0.0, curve.t0, curve._ds, level)
        keep = level_end(ge.strip_depth(s, t), level)
        return s[:keep], t[:keep]
    if isinstance(curve, cv.StripPolylineCurve):
        s, t = curve._dense
        tail_s, tail_t = cv._offset_run(s[-1], curve.tail_offset, curve._tail_ds, level)
        tail_s, tail_t = tail_s[1:], tail_t[1:]
        keep = level_end(ge.strip_depth(tail_s, tail_t), level)
        return np.concatenate([s, tail_s[:keep]]), np.concatenate([t, tail_t[:keep]])
    keep = level_end(1.0 - np.abs(curve._fixed), level)   # SampleBackedCurve
    return ge.disk_to_strip(curve._fixed[:keep], curve.endpoint_angle)


def max_gap(curve, level: int) -> float:
    """Max adjacent-sample pseudo-hyperbolic gap (the sampling slack)."""
    return float(np.tanh(curve.max_gap_hyperbolic(level) / 2.0))


def angle_contains(angle: cv.CurvilinearAngle, z, level: int) -> bool:
    """Sampled membership test: min d_ph(z, samples) <= deflection + slack;
    one point at a time, as `CurvilinearAngle.contains` tested before it
    took arrays."""
    zv = ge.as_complex(z)
    samples = angle.curve.refine(level)
    d = ge.pseudo_hyperbolic_distance_array(zv, samples)
    slack = max_gap(angle.curve, level)
    return bool(np.min(d) <= angle.deflection + slack + ge.ALGEBRAIC_TOL)


def g_region_contains(region: st.GRegion, z, level: int) -> bool:
    """Membership in the extended region: the deflection band of the tangent
    curve, or the chord-to-curve lens inside the arc; one point at a time,
    as `GRegion.contains` tested before it took arrays."""
    zv = ge.as_complex(z)
    w = 1.0 - zv
    aw = abs(w)
    if aw <= region.rho + st.BOUNDARY_TOL:
        ang = float(np.angle(w))
        on_chord_side = ang <= region.alpha + st.BOUNDARY_TOL
        # below the axis the lens is bounded by the chord alone; above it,
        # by the tangent curve (inside its horodisk: |w|^2 <= Re w)
        in_horodisk = aw * aw <= w.real + st.BOUNDARY_TOL
        if on_chord_side and (ang >= -st.BOUNDARY_TOL or in_horodisk):
            return True
    band = cv.CurvilinearAngle(region.curve, region.r)
    return angle_contains(band, zv, level)


def per_level_region(zm, lev, s, t):
    """The zoom's region test of rows (level index, s, t) as it ran before
    the levels were batched: one strip_distance call per level present."""
    ok = ge.strip_depth(s, t) >= zm.depth_floor[lev]
    for i in np.unique(lev[ok]):
        rows = np.flatnonzero(ok & (lev == i))
        cs, ct = zm.samples[i]
        d = ge.strip_distance(s[rows, None], t[rows, None], cs[None, :], ct[None, :])
        ok[rows] = np.min(d, axis=1) <= zm.r_h + 1e-12
    return ok


def block_region(zm, lev, s, t):
    """The zoom's region test as it ran before the slabs: every call pads
    each level's samples into blocks of levels sharing floor(log2 n) (s =
    +inf, t = 0) and takes cosh(s - s_j) of every row against its level's
    whole block row, one broadcast per block."""
    octave = [len(cs).bit_length() for cs, _ in zm.samples]
    ok = ge.strip_depth(s, t) >= zm.depth_floor[lev]
    for o in sorted(set(octave)):
        members = [i for i, oi in enumerate(octave) if oi == o]
        m = max(len(zm.samples[i][0]) for i in members)
        ps, pt = np.full((len(members), m), np.inf), np.zeros((len(members), m))
        row_of = np.zeros(len(octave), dtype=int)
        for row, i in enumerate(members):
            cs, ct = zm.samples[i]
            ps[row, :len(cs)], pt[row, :len(ct)] = cs, ct
            row_of[i] = row
        ch, sh = np.cosh(pt), np.sinh(pt)
        r = np.flatnonzero(ok & np.isin(lev, members))
        if not len(r):
            continue
        i = row_of[lev[r]]
        t1 = t[r, None]
        c = np.cosh(s[r, None] - ps[i]) * np.cosh(t1) * ch[i] - np.sinh(t1) * sh[i]
        ok[r] = np.arccosh(np.maximum(np.min(c, axis=1), 1.0)) <= zm.r_h + 1e-12
    return ok


def reciprocal_function(f: FunctionHandle) -> FunctionHandle:
    """1/f; since (1/f)# = f#, an independent cross-check of sph_array."""

    def fn(z):
        v = f.eval_array(z)
        out = np.empty_like(v)
        finite = np.isfinite(v)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[finite] = np.where(v[finite] == 0, np.inf + 0j, 1.0 / v[finite])
        out[~finite] = 0.0
        return out

    def dfn(z):
        v = f.eval_array(z)
        d = f.deriv_array(z)
        out = np.empty_like(v)
        finite = np.isfinite(v) & (v != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[finite] = -(d[finite] / v[finite]) / v[finite]
        bad = ~finite
        if np.any(bad):
            # at a zero or pole of f: central difference of 1/f, its step
            # scaled to the distance from the boundary
            zb = z[bad]
            h = 1e-6 * (1.0 - np.abs(zb))
            out[bad] = (fn(zb + h) - fn(zb - h)) / (2.0 * h)
        return out

    return CallableFunction(f"reciprocal({f.label})", fn, dfn)


# The pole series as two classes, the damped one re-evaluating the plain one,
# and the pole snap in their base class: the code that the one-class
# RationalPoleFunction(schedule, damped) replaced, which must agree with it
# to the last bit.


class SnappingHandle(FunctionHandle):
    """FunctionHandle whose sph_array sets 1/|residue| within POLE_SNAP of a
    pole, for subclasses that set pole_points and pole_residues."""

    pole_points: np.ndarray | None = None
    pole_residues: np.ndarray | None = None

    def sph_array(self, z):
        """Vectorized spherical derivative; nan marks evaluation failure."""
        z = np.asarray(z, dtype=complex)
        v = self.eval_array(z)
        d = self.deriv_array(z)
        av = np.abs(v)
        out = np.full(z.shape, np.nan)
        small = av <= 1.0
        out[small] = np.abs(d[small]) / (1.0 + av[small] ** 2)
        big = (~small) & np.isfinite(av)
        if np.any(big):
            q = np.abs(d[big] / v[big])
            out[big] = q / (av[big] + 1.0 / av[big])
        if self.pole_points is not None:
            dist = np.abs(z[:, None] - self.pole_points[None, :])
            nearest = np.argmin(dist, axis=1)
            at_pole = dist[np.arange(len(z)), nearest] < POLE_SNAP
            if np.any(at_pole):
                res = self.pole_residues[nearest[at_pole]]
                out[at_pole] = 1.0 / np.abs(res)
        return out


class RationalPoleFunction(SnappingHandle):
    """Truncated series sum_{k<=K} eps_k^2 / (z - z_k) over the K poles of
    the schedule."""

    def __init__(self, schedule: PoleSchedule):
        self.label = f"pole-series:K={len(schedule.pole_points)}"
        self.pole_points = schedule.pole_points
        self.coeffs = (schedule.radii ** 2).astype(float)
        self.pole_residues = self.coeffs.astype(complex)
        self._endpoint = complex(np.exp(1j * 0.0))   # schedules end at 1

    def eval_array(self, z):
        z = np.asarray(z, dtype=complex)
        u = z[..., None] - self.pole_points
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = self.coeffs / u
        out = terms.sum(axis=-1)
        hit = np.min(np.abs(u), axis=-1) < POLE_SNAP
        out = np.where(hit, np.inf + 0j, out)
        return out

    def deriv_array(self, z):
        z = np.asarray(z, dtype=complex)
        u = z[..., None] - self.pole_points
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = -self.coeffs / u ** 2
        out = terms.sum(axis=-1)
        hit = np.min(np.abs(u), axis=-1) < POLE_SNAP
        return np.where(hit, np.inf + 0j, out)


class DampedPoleFunction(SnappingHandle):
    """The pole series multiplied by (z - e^{i theta}): same poles, boundary
    factor forcing the value 0 along the deflection regions."""

    def __init__(self, base: RationalPoleFunction):
        self.label = f"damped-{base.label}"
        self.base = base
        self._endpoint = base._endpoint
        self.pole_points = base.pole_points
        self.pole_residues = base.coeffs * (base.pole_points - self._endpoint)

    def eval_array(self, z):
        z = np.asarray(z, dtype=complex)
        v = self.base.eval_array(z)
        out = v * (z - self._endpoint)
        out[~np.isfinite(v)] = np.inf + 0j
        return out

    def deriv_array(self, z):
        z = np.asarray(z, dtype=complex)
        v = self.base.eval_array(z)
        d = self.base.deriv_array(z)
        with np.errstate(invalid="ignore"):  # at a pole inf - inf; set to inf below
            out = d * (z - self._endpoint) + v
        bad = ~(np.isfinite(v) & np.isfinite(d))
        out[bad] = np.inf + 0j
        return out


class OneShotPoleFunction(fn.RationalPoleFunction):
    """The pole series with `_series` as it stood before it took its offsets
    a block of points at a time, copied unchanged: one (..., K) array of
    offsets z - z_k for all points at once."""

    def _series(self, z, deriv: bool):
        """(f, f' or None, where z is within POLE_SNAP of a pole, the index of
        that pole), all from one (..., K) array of offsets z - z_k; infinity
        at a pole."""
        z = np.asarray(z, dtype=complex)
        u = z[..., None] - self.pole_points
        hit = np.min(np.abs(u), axis=-1) < POLE_SNAP
        nearest = np.argmin(np.abs(u[hit]), axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = self.coeffs / u
        v = np.where(hit, np.inf + 0j, terms.sum(axis=-1))
        d = None
        if deriv:
            # -coeffs / u ** 2 bit for bit, in buffers already held: the (N, K)
            # buffers of a 2e4-point normality bulk pass set the peak memory
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(-self.coeffs, np.square(u, out=u), out=terms)
            d = np.where(hit, np.inf + 0j, terms.sum(axis=-1))
        if self.damped:
            w = z - 1.0
            if deriv:
                with np.errstate(invalid="ignore"):  # at a pole inf - inf; set to inf below
                    dw = d * w + v
                dw[~(np.isfinite(v) & np.isfinite(d))] = np.inf + 0j
                d = dw
            vw = v * w
            vw[~np.isfinite(v)] = np.inf + 0j
            v = vw
        return v, d, hit, nearest


def spherical_diameter(values) -> float:
    """`analysis.spherical_diameter` as it stood before it read the upper
    triangle a block of rows at a time, copied unchanged: three (N, N)
    difference arrays."""
    x, y, z = an._sphere_embed(values).T
    dx, dy, dz = (c[:, None] - c[None, :] for c in (x, y, z))
    return float(np.sqrt(np.max(dx * dx + dy * dy + dz * dz)))


# ---------------------------------------------------------------------------
# the CLI's five hand spec parsers as they stood before the spec grammar
# (`cli.parse_spec` over its tables), copied unchanged: the record of what
# they accepted and built


def parse_curve(spec: str) -> cv.BoundaryCurve:
    """kind:theta[:param], or @path to a curve exchange JSON file."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as f:
            return cv.curve_from_exchange(json.load(f))
    parts = spec.split(":")
    kind = parts[0]
    if kind not in ("radius", "chord", "hypercycle", "horocycle"):
        raise CliError(f"unknown curve kind {kind!r}")
    if len(parts) < 2:
        raise CliError(f"curve spec {spec!r} needs kind:theta[:param]")
    theta = float(parts[1])
    param = float(parts[2]) if len(parts) > 2 else None
    return cv.canonical_curve(kind, theta, param)


def parse_function(spec: str) -> fn.FunctionHandle:
    parts = spec.split(":")
    name = parts[0]
    if name == "identity":
        return fn.identity_function()
    if name == "constant":
        return fn.constant_function(parse_complex(parts[1]) if len(parts) > 1 else 0.0)
    if name == "automorphism":
        w = parse_complex(parts[1]) if len(parts) > 1 else 0.3 + 0.0j
        return fn.automorphism_function(ge.mobius_translation(w))
    if name in fn.gallery_names():
        return fn.gallery(name)
    if name in ("pole_series", "damped_pole_series"):
        k = int(parts[1]) if len(parts) > 1 else 20
        return fn.RationalPoleFunction(fn.PoleSchedule.default(k),
                                       damped=name == "damped_pole_series")
    raise CliError(f"unknown function {spec!r}; gallery: {fn.gallery_names()}, "
                   f"also identity, constant:c, automorphism:w, "
                   f"pole_series[:K], damped_pole_series[:K]")


def parse_profile(spec: str) -> st.DecayProfile:
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "log":
            shift = float(parts[1]) if len(parts) > 1 else math.e
            expo = float(parts[2]) if len(parts) > 2 else 1.0
            return st.DecayProfile.log_form(shift, expo)
        if kind == "pow":
            s = float(parts[1])
            expo = float(parts[2]) if len(parts) > 2 else 1.0
            return st.DecayProfile.power_form(s, expo)
        if kind == "super":
            return st.DecayProfile.super_exponential(int(parts[1]))
    except (IndexError, ValueError) as exc:
        raise CliError(f"bad profile spec {spec!r}: {exc}") from None
    raise CliError(f"unknown profile kind {kind!r}; use log[:shift[:e]], "
                   f"pow:s[:e], super:n")


SEQUENCE_KINDS = ("radial", "poles", "pole-adjacent", "pole-offset")


def _parse_sequence(spec: str, n_poles: int) -> tuple[str, int]:
    """kind[:N], N >= 1 (default 8); the pole kinds take at most the n_poles
    scheduled poles."""
    kind, colon, count = spec.partition(":")
    if kind not in SEQUENCE_KINDS or (colon and not count.isdecimal()):
        raise CliError(f"bad sequence spec {spec!r}; expected kind[:N] with kind in "
                       f"{', '.join(SEQUENCE_KINDS)}")
    n = _positive(int(count) if colon else 8, f"N of sequence {spec!r}")
    if kind != "radial" and n > n_poles:
        raise CliError(f"sequence {spec!r} asks for {n} poles; the schedule has {n_poles}")
    return kind, n


def _parse_region(spec: str):
    parts = spec.split(":")
    if parts[0] != "radius-angle" or len(parts) < 2:
        raise CliError("region spec must be radius-angle:R[:theta]")
    r = float(parts[1])
    theta = float(parts[2]) if len(parts) > 2 else 0.0
    return an.radial_angle_membership(r, theta), theta
