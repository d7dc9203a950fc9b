"""Boundary-terminating curves, curvilinear angles, and curve distances.

A BoundaryCurve is a simple curve in the open disk ending at a unit-modulus
point e^{i theta}, represented by an ordered sample polyline plus a refinement
rule: refine(k) samples the curve at hyperbolic gaps of about HYP_MESH
through the first sample of depth 1 - |z| <= 2^{-k}, a cut `_level_end` makes
for every curve class, imported samples too.  Refinement is prefix-consistent:
refine(k+1) extends refine(k).  Each class bounds a level's sample count
before building it, and a level over SAMPLE_BUDGET is refused.

The module provides the deflection regions Delta_r gamma (unions of closed
pseudo-hyperbolic disks along the curve), the directed truncated Hausdorff
distance between curves, the finite-distance equivalence verdict, the
discrete Frechet distance, and the zigzag construction of a pair of curves
that stay within a fixed deflection of each other while their Frechet
distance grows without bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import (
    ALGEBRAIC_TOL,
    DISK_BOUNDARY_MARGIN,
    DiskDomainError,
    as_complex,
    mobius_translation,
    pseudo_hyperbolic_distance_array,
    radius_convert,
    strip_depth,
    strip_distance,
    strip_to_disk,
    disk_to_strip,
)

HYP_MESH = 0.25       # target hyperbolic gap between consecutive samples
# most samples a level may be predicted to hold before it is built.  A
# horocycle passes it at level 29 (131,073); every job the README, the CI
# and the benchmark run predicts under 6,000.  A distance matrix of 100,000
# samples against a few hundred is a few hundred MB a temporary.
SAMPLE_BUDGET = 100_000
# most cells a curve distance matrix may hold; it takes about 27 B a cell at
# its peak.  The largest of any benchmark job holds 2.6M; two horocycles at
# level 21 would ask for 67M, though each has only 8,172 samples.
CELL_BUDGET = 20_000_000
# half-width of ParametricCurve._step's rounding band, in units of
# 2^-52 / depth(point(lo)); inside the band a gap evaluated on the bracket
# [lo, u] is trusted to within half of it (an mpmath oracle puts the worst
# error there at 0.64 of those units, and tests/test_curves.py checks that
# it stays below 1)
GAP_ERROR_ULPS = 64.0

# verdict thresholds (recorded in every EquivalenceVerdict)
PLATEAU_RATIO = 1.05       # last three levels within 5% => bounded
SMALL_DISTANCE = 0.05      # below this the plateau ratio test is moot
GROWTH_RUN = 5             # strictly increasing levels needed for divergence
GROWTH_FLOOR = 5.0         # and the last value must exceed this


class CurveEndpointMismatch(ValueError):
    """Raised when two curves do not share a boundary endpoint."""


def _depth_target(level: int) -> float:
    return 2.0 ** (-level)


def _level_end(depth, level: int) -> int:
    """How many samples level `level` keeps: every sample through the first
    one with depth <= 2^-level, or all of them if none is that deep."""
    deep = depth <= _depth_target(level)
    return int(np.argmax(deep)) + 1 if np.any(deep) else len(deep)


def _offset_run_length(s0: float, t: float, ds: float, level: int) -> int:
    """Samples of the uncut run (s0 + j ds, t), j = 0, 1, ..., out to s_end =
    log(2 cosh t / 2^-level) + 1.  It ends past depth 2^-level: the depth is
    below 1 - |z|^2 < 4 e^-s / cosh t, which is (2/e) 2^-level / cosh^2 t there."""
    s_end = math.log(2.0 * math.cosh(t) / _depth_target(level)) + 1.0
    return max(0, int(math.ceil((s_end - s0) / ds))) + 1


def _offset_run(s0: float, t: float, ds: float, level: int):
    s = s0 + ds * np.arange(_offset_run_length(s0, t, ds, level))
    return s, np.full_like(s, t)


def _stepped_bound(arclength: float) -> int:
    """Samples a ParametricCurve level can hold when the hyperbolic arclength
    from its first sample to depth 2^-level is `arclength`: every step spans
    a chord of at least HYP_MESH, so every sample before the last one lies
    within that arclength."""
    return int(arclength / HYP_MESH) + 2


def _horocycle_bound(level: int) -> int:
    # z = (1 + e^{i phi}) / 2 from phi = pi: ds = dphi / sin^2(phi/2), so the
    # arclength to depth eps = 1 - cos(phi/2) is 2 cot(phi/2), about
    # sqrt(2) 2^(level/2)
    eps = _depth_target(level)
    return _stepped_bound(2.0 * (1.0 - eps) / math.sqrt(eps * (2.0 - eps)))


def _chord_bound(alpha: float, level: int) -> int:
    # z = 1 - u e^{-i alpha} from u = c = cos(alpha): ds = 2 du / (u (2c - u)),
    # so the arclength to parameter u is log((2c - u) / u) / c, linear in the
    # level; the chord starts at depth 1 - |sin alpha|
    c = math.cos(alpha)
    eps = _depth_target(level)
    disc = c * c - eps * (2.0 - eps)
    if disc <= 0.0:
        return _stepped_bound(0.0)
    u = eps * (2.0 - eps) / (c + math.sqrt(disc))
    return _stepped_bound(math.log((2.0 * c - u) / u) / c)


class BoundaryCurve:
    """Base class: subclasses fill _build_strip, cut with `_level_end`."""

    def __init__(self, endpoint_angle: float, label: str = "curve"):
        self.endpoint_angle = float(endpoint_angle)
        self.label = label
        self._levels: dict[int, np.ndarray] = {}
        self._strip_levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- public surface ----------------------------------------------------

    def refine(self, level: int) -> np.ndarray:
        """Complex samples out to depth 2^{-level}; memoized and nested."""
        if level not in self._levels:
            s, t = self.strip_refine(level)
            self._levels[level] = strip_to_disk(s, t, self.endpoint_angle)
        return self._levels[level]

    def strip_refine(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Axial-coordinate samples (s, t); exact arbitrarily deep.  Every
        truncated view of a curve comes through here, so the level is
        checked here once: a level predicted to hold more than SAMPLE_BUDGET
        samples is refused before any of them is built."""
        if level < 1:
            raise ValueError("level must be >= 1")
        if level not in self._strip_levels:
            n = self._sample_bound(level)
            if n > SAMPLE_BUDGET:
                raise ValueError(
                    f"curve {self.label} at level {level}: {n} samples "
                    f"predicted, above the budget of {SAMPLE_BUDGET}")
            self._strip_levels[level] = self._build_strip(level)
        return self._strip_levels[level]

    def max_gap(self, level: int) -> float:
        """Max adjacent-sample pseudo-hyperbolic gap (the sampling slack)."""
        return float(np.tanh(self.max_gap_hyperbolic(level) / 2.0))

    def max_gap_hyperbolic(self, level: int) -> float:
        s, t = self.strip_refine(level)
        d = strip_distance(s[:-1], t[:-1], s[1:], t[1:])
        return float(np.max(d)) if len(s) > 1 else 0.0

    def _build_strip(self, level):
        raise NotImplementedError

    def _sample_bound(self, level) -> int:
        """An upper bound on len(strip_refine(level)), without building it."""
        raise NotImplementedError


class ParametricCurve(BoundaryCurve):
    """Curve given by a parameter u decreasing to 0 as the point approaches
    the endpoint; samples are stepped in hyperbolic arclength by bisection.

    `_step` skips the bisection evaluations whose outcome is already known,
    and relies on two properties of point_fn for that:
    - monotone gaps: the exact hyperbolic distance from point(u) to point(v)
      grows as v decreases from u.  Hyperbolic disks are Euclidean disks, so
      they are convex, which settles the chords; a horocycle is a horizontal
      line in the upper half-plane, where the distance between two of its
      points grows with their Euclidean gap.
    - a rounding bound: on a bracket [lo, u], with
      tau = GAP_ERROR_ULPS * 2^-52 / (1 - |point(lo)|), the evaluated gap
      `_dh(point(u), point(v))` clipped to the band HYP_MESH +- tau is
      within tau/2 of the exact gap clipped the same way.  Inside the band
      that is the plain error; an exact gap outside the band is never
      evaluated more than tau/2 into it.  The error comes from the
      cancellation in 1 - a conj(b) (Higham 2002, ch. 3), so it scales with
      one over the depth of the deepest point, point(lo).  It also grows
      with the gap, like sinh(gap), which is why only the band is bounded.
    Both hold for the chords and horocycles of canonical_curve;
    tests/test_curves.py checks the bound against mpmath.

    `sample_bound` maps a level to an upper bound on its sample count.
    """

    def __init__(self, endpoint_angle, point_fn, u_start, sample_bound, label="curve"):
        super().__init__(endpoint_angle, label)
        self._point = point_fn          # u -> complex disk point
        self._u = [float(u_start)]
        self._pts = [complex(point_fn(u_start))]
        self._bound = sample_bound

    def _dh(self, a: complex, b: complex) -> float:
        d = abs((a - b) / (1.0 - a * np.conj(b)))
        return math.log1p(d) - math.log1p(-d)

    def _step(self, u: float, z: complex) -> float:
        """Parameter of the next sample after the sample z = point(u).

        Halve u until the gap reaches HYP_MESH, then bisect the bracket
        [lo, hi] 60 times at mid = 0.5 * (lo + hi): a gap below HYP_MESH
        moves hi, any other moves lo.  The result is the one of evaluating
        every mid, with fewer evaluations:
        - `_certified_bracket` finds a < b with the evaluated gap at a at
          least HYP_MESH + tau and the one at b at most HYP_MESH - tau.  By
          the rounding bound, the clipped exact gap is above HYP_MESH + tau/2
          at a and below HYP_MESH - tau/2 at b; by monotonicity the same
          holds at every mid <= a and every mid >= b; by the rounding bound
          again, evaluating such a mid would give at least HYP_MESH (move
          lo) or less than HYP_MESH (move hi).  So it is moved without an
          evaluation, and only mids in (a, b) are evaluated.
        - Once mid rounds to lo or hi, every later mid does too and repeats
          an outcome already taken there, so the loop stops.
        Without a certificate, a = lo and b = hi, and every mid is
        evaluated.
        """
        hi, g_hi = u, 0.0                 # the gap from z to itself
        lo = u * 0.5
        p = self._point(lo)
        g_lo = self._dh(z, p)
        while g_lo < HYP_MESH:
            hi, g_hi = lo, g_lo
            lo *= 0.5
            if lo < 1e-300:
                raise RuntimeError("curve parametrization does not reach the boundary")
            p = self._point(lo)
            g_lo = self._dh(z, p)
        a, b = lo, hi
        depth = 1.0 - abs(p)
        if depth > 0.0:
            a, b = self._certified_bracket(
                z, lo, g_lo, hi, g_hi, GAP_ERROR_ULPS * 2.0 ** -52 / depth)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if mid <= a:
                lo = mid
            elif mid >= b or self._dh(z, self._point(mid)) < HYP_MESH:
                hi = mid
            else:
                lo = mid
        return lo

    def _certified_bracket(self, z, lo, g_lo, hi, g_hi, tau):
        """(a, b) with lo <= a < b <= hi: a is lo or a probe whose gap is at
        least HYP_MESH + tau, b is hi or one whose gap is at most
        HYP_MESH - tau.

        Each probe is a secant step through the last two points, aimed at a
        gap 2 tau past HYP_MESH on the side opposite the last point, so the
        probes close in on the crossing from both sides.  The secant runs in
        (1/v, sinh(gap/2)): along a horocycle sinh(gap/2) is linear in
        cot(v/2), which is close to 2/v.  The probing stops once both a and
        b have gaps within 4 tau of HYP_MESH, after 8 probes, or when a
        probe leaves (a, b).  A probe only narrows (a, b): one whose gap
        falls in the band, or whose evaluation raises (d >= 1 in `_dh`),
        certifies nothing.
        """
        a, b = lo, hi
        w0, g0, w1, g1 = 1.0 / lo, g_lo, 1.0 / hi, g_hi
        a_close = b_close = False
        for _ in range(8):
            q0, q1 = math.sinh(0.5 * g0), math.sinh(0.5 * g1)
            if q0 == q1:
                break
            y = HYP_MESH + 2.0 * tau if g1 < HYP_MESH else HYP_MESH - 2.0 * tau
            w = w1 + (math.sinh(0.5 * y) - q1) * (w0 - w1) / (q0 - q1)
            x = 1.0 / w if w > 0.0 else 0.0
            if not a < x < b:
                break
            try:
                g = self._dh(z, self._point(x))
            except ValueError:
                break
            if g >= HYP_MESH + tau:
                a, a_close = x, g <= HYP_MESH + 4.0 * tau
            elif g <= HYP_MESH - tau:
                b, b_close = x, g >= HYP_MESH - 4.0 * tau
            if a_close and b_close:
                break
            w0, g0, w1, g1 = w1, g1, w, g
        return a, b

    def _sample_bound(self, level):
        return self._bound(level)

    def _build_strip(self, level):
        # extends the shared samples in place; a step that raises leaves a
        # valid prefix, and each level is cut from it by `_level_end`
        target = _depth_target(level)
        us, pts = self._u, self._pts
        try:
            while 1.0 - abs(pts[-1]) > target:
                u = self._step(us[-1], pts[-1])
                z = complex(self._point(u))
                us.append(u)
                pts.append(z)
        except ValueError:
            # `_dh` met a rounded pseudo-hyperbolic distance >= 1
            raise ValueError(
                f"curve {self.label} at level {level}: depth 2^-{level} is "
                f"below what complex-double samples resolve") from None
        arr = np.asarray(pts, dtype=complex)
        n = _level_end(1.0 - np.abs(arr), level)
        return disk_to_strip(arr[:n], self.endpoint_angle)


class HypercycleCurve(BoundaryCurve):
    """Constant hyperbolic offset t0 from the diameter geodesic, sampled at
    arclength steps ds along it; t0 = 0 is the radius."""

    def __init__(self, endpoint_angle: float, t0: float, ds: float, label: str):
        super().__init__(endpoint_angle, label)
        self.t0 = float(t0)
        self._ds = float(ds)

    def _build_strip(self, level):
        s, t = _offset_run(0.0, self.t0, self._ds, level)
        keep = _level_end(strip_depth(s, t), level)
        return s[:keep], t[:keep]

    def _sample_bound(self, level):
        return _offset_run_length(0.0, self.t0, self._ds, level)


def canonical_curve(kind: str, theta: float, parameter: float | None = None) -> BoundaryCurve:
    """Canonical curve families ending at e^{i theta}.

    kind = "radius"                     parameter unused
    kind = "chord"      parameter = angle to the radius, in (-pi/2, pi/2)
    kind = "hypercycle" parameter = signed pseudo-hyperbolic offset in (-1, 1)
    kind = "horocycle"  parameter = side (+1 upper / -1 lower), default +1
    """
    theta = float(theta)
    if kind == "radius":
        return HypercycleCurve(theta, 0.0, HYP_MESH, f"radius:{theta:g}")
    if kind == "chord":
        if parameter is None or not -math.pi / 2 < parameter < math.pi / 2:
            raise ValueError("chord angle must be in (-pi/2, pi/2)")
        alpha = float(parameter)
        rot = complex(np.exp(1j * theta))
        lean = complex(np.exp(-1j * alpha))
        fn = lambda u: rot * (1.0 - u * lean)
        return ParametricCurve(theta, fn, math.cos(alpha),
                               lambda level: _chord_bound(alpha, level),
                               f"chord:{theta:g}:{alpha:g}")
    if kind == "hypercycle":
        if parameter is None:
            raise ValueError("hypercycle needs a pseudo-hyperbolic offset")
        offset = float(parameter)
        if not -1.0 < offset < 1.0:
            raise ValueError("hypercycle offset must be in (-1, 1)")
        t0 = radius_convert(abs(offset), "ph_to_h") * (1.0 if offset >= 0 else -1.0)
        # arclength step producing chordal hyperbolic gaps of HYP_MESH; the
        # radius passes HYP_MESH itself, which this rounds to 0.25000000000000006
        c = (math.cosh(HYP_MESH) + math.sinh(t0) ** 2) / math.cosh(t0) ** 2
        return HypercycleCurve(theta, t0, math.acosh(max(c, 1.0)),
                               f"hypercycle:{theta:g}:{offset:g}")
    if kind == "horocycle":
        side = 1.0 if parameter is None or parameter >= 0 else -1.0
        rot = complex(np.exp(1j * theta))
        fn = lambda phi: rot * (1.0 + cmath.exp(1j * side * phi)) / 2.0
        return ParametricCurve(theta, fn, math.pi, _horocycle_bound,
                               f"horocycle:{theta:g}")
    raise ValueError(f"unknown curve kind {kind!r}")


# ---------------------------------------------------------------------------
# curvilinear angles


@dataclass(frozen=True)
class CurvilinearAngle:
    """Union of closed pseudo-hyperbolic disks of radius `deflection` centered
    on the curve; deflection 0 degenerates to the curve itself."""

    curve: BoundaryCurve
    deflection: float

    def __post_init__(self):
        if not 0.0 <= self.deflection < 1.0:
            raise ValueError("deflection must be a pseudo-hyperbolic radius in [0, 1)")


def angle_contains(angle: CurvilinearAngle, z, level: int) -> bool:
    """Sampled membership test: min d_ph(z, samples) <= deflection + slack."""
    zv = as_complex(z)
    samples = angle.curve.refine(level)
    d = pseudo_hyperbolic_distance_array(zv, samples)
    slack = angle.curve.max_gap(level)
    return bool(np.min(d) <= angle.deflection + slack + ALGEBRAIC_TOL)


# ---------------------------------------------------------------------------
# directed curve distance and equivalence


def _strip_distance_matrix(s1, t1, s2, t2):
    with np.errstate(over="ignore"):
        c = (np.cosh(s1[:, None] - s2[None, :])
             * (np.cosh(t1)[:, None] * np.cosh(t2)[None, :])
             - np.sinh(t1)[:, None] * np.sinh(t2)[None, :])
    return np.arccosh(np.maximum(c, 1.0))


def _check_cells(c1: BoundaryCurve, c2: BoundaryCurve, level: int, n1: int, n2: int):
    if n1 * n2 > CELL_BUDGET:
        raise ValueError(
            f"curves {c1.label} and {c2.label} at level {level}: {n1 * n2} "
            f"distance-matrix cells, above the budget of {CELL_BUDGET}")


def _check_same_endpoint(c1: BoundaryCurve, c2: BoundaryCurve):
    d = (c1.endpoint_angle - c2.endpoint_angle) % (2.0 * math.pi)
    if min(d, 2.0 * math.pi - d) > 1e-9:
        raise CurveEndpointMismatch(
            f"curves end at different boundary points: "
            f"{c1.endpoint_angle!r} vs {c2.endpoint_angle!r}")


def directed_curve_distance(c1: BoundaryCurve, c2: BoundaryCurve, level: int) -> float:
    """sup over refine(level) samples of c1 of the hyperbolic distance to
    c2's refine(level+2) samples: a directed Hausdorff distance at truncation
    `level`."""
    _check_same_endpoint(c1, c2)
    s1, t1 = c1.strip_refine(level)
    s2, t2 = c2.strip_refine(level + 2)
    _check_cells(c1, c2, level, len(s1), len(s2))
    d = _strip_distance_matrix(s1, t1, s2, t2)
    return float(np.max(np.min(d, axis=1)))


@dataclass
class EquivalenceVerdict:
    """Per-level directed distances and the finiteness verdict.

    `values` holds max(forward, backward) per level.  The verdict encodes the
    trend evidence: bounded sequences (last three levels within PLATEAU_RATIO,
    or all below SMALL_DISTANCE) are called equivalent; sequences strictly
    increasing over the last GROWTH_RUN levels and ending above GROWTH_FLOOR
    are called not_equivalent; anything else is inconclusive.
    """

    levels: list[int]
    forward: list[float]
    backward: list[float]
    values: list[float]
    verdict: str
    thresholds: dict = field(init=False, default_factory=lambda: {
        "plateau_ratio": PLATEAU_RATIO, "small_distance": SMALL_DISTANCE,
        "growth_run": GROWTH_RUN, "growth_floor": GROWTH_FLOOR})


def _trend_verdict(values: list[float]) -> str:
    if len(values) >= 3:
        last3 = values[-3:]
        if max(last3) <= SMALL_DISTANCE:
            return "equivalent"
        if min(last3) > 0 and max(last3) / min(last3) <= PLATEAU_RATIO:
            return "equivalent"
    if len(values) >= GROWTH_RUN:
        tail = values[-GROWTH_RUN:]
        if all(a < b for a, b in zip(tail, tail[1:])) and tail[-1] > GROWTH_FLOOR:
            return "not_equivalent"
    return "inconclusive"


def are_equivalent(c1: BoundaryCurve, c2: BoundaryCurve,
                   max_level: int = 12) -> EquivalenceVerdict:
    """Run the directed distance both ways over levels 1..max_level and judge
    whether the two curves are at finite distance (same equivalence class)."""
    _check_same_endpoint(c1, c2)
    levels = list(range(1, max_level + 1))
    fwd = [directed_curve_distance(c1, c2, k) for k in levels]
    bwd = [directed_curve_distance(c2, c1, k) for k in levels]
    values = [max(f, b) for f, b in zip(fwd, bwd)]
    return EquivalenceVerdict(levels, fwd, bwd, values, _trend_verdict(values))


def angle_inclusion_check(c1: BoundaryCurve, c2: BoundaryCurve, r: float,
                          r1: float, samples: int = 1000, *, level: int,
                          seed: int = 0, r2: float | None = None) -> bool:
    """Sampled check that the r1-angle over c1 sits inside the (r1+r)-angle
    over c2 (hyperbolic radii): triangle-inequality inflation of curve
    distance to region inclusion.  Pass r2 to test a different target radius.

    Points of Delta_{r1} c1 are drawn by pushing disk samples through the
    automorphisms centered at curve samples (30% of them on the boundary
    circle of the disk, where violations happen first).
    """
    _check_same_endpoint(c1, c2)
    if r2 is None:
        r2 = r1 + r
    rng = np.random.default_rng(seed)
    cs = c1.refine(level)
    s2, t2 = c2.strip_refine(level + 2)
    slack = c2.max_gap_hyperbolic(level + 2) + 1e-9
    idx = rng.integers(0, len(cs), samples)
    rho_ph = math.tanh(r1 / 2.0)
    rad = rho_ph * np.sqrt(rng.uniform(0.0, 1.0, samples))
    boundary = rng.uniform(0.0, 1.0, samples) < 0.3
    rad[boundary] = rho_ph
    u = rad * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, samples))
    for k in np.unique(idx):
        z = mobius_translation(cs[k]).apply(u[idx == k])
        sz, tz = disk_to_strip(z, c1.endpoint_angle)
        d = np.min(strip_distance(sz[:, None], tz[:, None], s2, t2), axis=1)
        if np.any(d > r2 + slack):
            return False
    return True


# ---------------------------------------------------------------------------
# discrete Frechet distance


def _frechet_dp(dist: np.ndarray) -> float:
    """Coupled-traversal DP (Eiter-Mannila) over a ready distance matrix.

    The recurrence D[i, j] = max(dist[i, j], min(D[i-1, j], D[i, j-1],
    D[i-1, j-1])) runs one anti-diagonal i + j = k at a time: every cell of a
    diagonal depends only on the two diagonals before it.  Three rotating
    buffers indexed by i + 1 hold those two and the new one, with +inf at
    index 0 and at every index a diagonal does not reach, which stands in for
    the missing neighbours on the matrix border.  The cells of dist on a
    diagonal are a strided basic slice of the raveled matrix.  Only max and
    min of the same doubles are taken, so the value is bit-identical to the
    cell-by-cell loop for any NaN-free matrix.
    """
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


def discrete_frechet_strip(s1, t1, s2, t2) -> float:
    """Discrete Frechet distance on axial-coordinate samples (exact deep)."""
    if len(s1) == 0 or len(s2) == 0:
        raise ValueError("sample lists must be non-empty")
    return _frechet_dp(_strip_distance_matrix(
        np.asarray(s1, float), np.asarray(t1, float),
        np.asarray(s2, float), np.asarray(t2, float)))


def curve_frechet(c1: BoundaryCurve, c2: BoundaryCurve, level: int) -> float:
    """Discrete Frechet distance between two curves truncated at `level`."""
    _check_same_endpoint(c1, c2)
    s1, t1 = c1.strip_refine(level)
    s2, t2 = c2.strip_refine(level)
    _check_cells(c1, c2, level, len(s1), len(s2))
    return discrete_frechet_strip(s1, t1, s2, t2)


# ---------------------------------------------------------------------------
# polyline simplicity (at sample resolution)


def polyline_is_simple(points) -> bool:
    """True iff no two non-adjacent segments of the polyline intersect.

    Points may be complex or an (n, 2) array.  Every pair of non-adjacent
    segments is tested in one broadcast, in O(n^2) memory; adequate for the
    few hundred points used here.
    """
    pts = np.asarray(points)
    if pts.ndim == 1:
        xy = np.column_stack([pts.real.astype(float), pts.imag.astype(float)])
    else:
        xy = pts.astype(float)
    i, j = np.triu_indices(max(len(xy) - 1, 0), 2)
    p, q, r, s = xy[i], xy[i + 1], xy[j], xy[j + 1]

    def orient(p, q, r):
        return ((q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1])
                - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0]))

    d1, d2, d3, d4 = orient(p, q, r), orient(p, q, s), orient(r, s, p), orient(r, s, q)
    crossing = ((d1 * d2) < 0) & ((d3 * d4) < 0)
    # collinear overlap: conservative bounding-box check on degenerate pairs
    deg = (d1 == 0) & (d2 == 0) & (d3 == 0) & (d4 == 0)
    overlap = np.all((np.minimum(p, q) <= np.maximum(r, s))
                     & (np.minimum(r, s) <= np.maximum(p, q)), axis=1)
    return not np.any(crossing | (deg & overlap))


# ---------------------------------------------------------------------------
# zigzag pair: same deflection class, unbounded Frechet distance


class StripPolylineCurve(BoundaryCurve):
    """Curve given by a polyline in axial coordinates plus a straight tail at
    fixed offset; refine(k) densifies edges at HYP_MESH, keeps the polyline
    whole and extends the tail until it is cut at the level's depth."""

    def __init__(self, endpoint_angle, vertices, tail_offset, label="strip-polyline"):
        super().__init__(endpoint_angle, label)
        self.vertices = [(float(s), float(t)) for s, t in vertices]
        self.tail_offset = float(tail_offset)
        self._tail_ds = HYP_MESH / math.cosh(self.tail_offset)

    @cached_property
    def _dense(self):
        """The polyline densified at HYP_MESH; the same for every level."""
        vs = np.asarray(self.vertices, dtype=float)
        out_s, out_t = [vs[0, 0]], [vs[0, 1]]
        for (s0, t0), (s1, t1) in zip(vs[:-1], vs[1:]):
            d = float(strip_distance(s0, t0, s1, t1))
            pieces = max(1, int(math.ceil(d / HYP_MESH)))
            frac = np.arange(1, pieces + 1) / pieces
            out_s.extend(s0 + (s1 - s0) * frac)
            out_t.extend(t0 + (t1 - t0) * frac)
        return np.asarray(out_s), np.asarray(out_t)

    def _build_strip(self, level):
        s, t = self._dense
        # tail: continue at the final offset past the polyline's last sample
        # (keeps truncation ends of different curves aligned to within one
        # mesh step)
        tail_s, tail_t = _offset_run(s[-1], self.tail_offset, self._tail_ds, level)
        tail_s, tail_t = tail_s[1:], tail_t[1:]
        keep = _level_end(strip_depth(tail_s, tail_t), level)
        return (np.concatenate([s, tail_s[:keep]]),
                np.concatenate([t, tail_t[:keep]]))

    def _sample_bound(self, level):
        s = self._dense[0]
        return len(s) - 1 + _offset_run_length(s[-1], self.tail_offset,
                                               self._tail_ds, level)


def zigzag_anchor_positions(n_zigzags: int) -> tuple[list[float], list[float]]:
    """Axial positions of the forward anchors (at k^2) and the return anchors
    (each at hyperbolic distance 1 behind the previous forward anchor)."""
    zs = [float(k * k) for k in range(1, n_zigzags + 2)]
    ws = [0.5] + [float(k * k - 1) for k in range(1, n_zigzags)]
    return zs, ws[:n_zigzags]


def zigzag_truncation_level(markers: dict) -> int:
    """Truncation level for a zigzag pair: the first level with 2^-level below
    e^{-(s + 2)}, s the last forward anchor, plus one."""
    return int(math.ceil((markers["z_anchors_s"][-1] + 2.0) / math.log(2.0))) + 1


def zigzag_contained(gamma2: BoundaryCurve, markers: dict) -> bool:
    """Whether gamma2's samples at the pair's truncation level lie, to 1e-12,
    in s >= 0, |t| <= markers["deflection_band"] (as a hyperbolic radius)."""
    s, t = gamma2.strip_refine(zigzag_truncation_level(markers))
    band = radius_convert(markers["deflection_band"], "ph_to_h")
    return bool(np.all(np.abs(t) <= band + 1e-12) and np.all(s >= -1e-12))


def build_zigzag_pair(r: float, n_zigzags: int):
    """Construct the radius gamma1 and a simple curve gamma2 inside the
    deflection band Delta_{r/2} gamma1 that revisits anchor points of gamma1
    in the order z1, z2, w1, z3, w2, ...: each return leg forces any
    order-preserving matching to stretch, so the Frechet distance over
    prefixes grows without bound while the band containment stays fixed.

    Returns (gamma1, gamma2, markers).  markers records the anchor schedule,
    visit order, lane offsets and the clearance (r/4) kept by the traveling
    lanes, so tests do not depend on the concrete routing.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must be a pseudo-hyperbolic radius in (0, 1)")
    if n_zigzags < 0:
        raise ValueError("n_zigzags must be >= 0")
    theta = 0.0
    gamma1 = canonical_curve("radius", theta)

    zs, ws = zigzag_anchor_positions(n_zigzags)
    markers = {
        "theta": theta,
        "deflection_band": r / 2.0,
        "clearance": r / 4.0,
        "z_anchors_s": zs,
        "w_anchors_s": ws,
        "z_anchors": [complex(strip_to_disk(s, 0.0)) for s in zs],
        "w_anchors": [complex(strip_to_disk(s, 0.0)) for s in ws],
    }
    if n_zigzags == 0:
        # gamma2 degenerates to a prefix of gamma1 (the radius itself); give
        # it the radius sampling grid so the Frechet distance is exactly 0.
        markers["visit_s"] = zs[:1]
        gamma2 = HypercycleCurve(theta, 0.0, HYP_MESH, "zigzag:0")
        return gamma1, gamma2, markers

    # visit order: z1, z2, w1, z3, w2, ..., z_{n+1}, w_n
    visit = [zs[0], zs[1]]
    for i in range(1, n_zigzags):
        visit += [ws[i - 1], zs[i + 1]]
    visit.append(ws[n_zigzags - 1])
    markers["visit_s"] = visit

    # lanes travel above the axis at strictly decreasing offsets in
    # [clearance, band); earlier-visited anchors inside a lane's span are
    # cleared by dipping below the axis, at strictly increasing depths, so
    # same-anchor dips nest and never touch.
    eps = 0.2
    n_lanes = len(visit)  # one lane per leg plus the tail lane
    y_lane = [r / 4.0 + (r / 4.0) * 2.0 ** (-(j + 1)) for j in range(n_lanes)]
    y_dip = [r / 2.0 - (r / 8.0) * 2.0 ** (-j) for j in range(n_lanes)]
    t_lane = [radius_convert(y, "ph_to_h") for y in y_lane]
    t_dip = [-radius_convert(y, "ph_to_h") for y in y_dip]

    verts: list[tuple[float, float]] = [(visit[0], 0.0)]
    visited: list[float] = []

    def add_leg(j, s_a, s_b):
        d = 1.0 if s_b > s_a else -1.0
        tj, tdj = t_lane[j], t_dip[j]
        verts.append((s_a + d * eps, tj))
        lo, hi = min(s_a, s_b), max(s_a, s_b)
        inner = sorted((q for q in visited if lo < q < hi), reverse=d < 0)
        for q in inner:
            verts.append((q - d * eps, tj))
            verts.append((q, tdj))
            verts.append((q + d * eps, tj))
        verts.append((s_b - d * eps, tj))
        verts.append((s_b, 0.0))

    for j in range(len(visit) - 1):
        visited.append(visit[j])
        add_leg(j, visit[j], visit[j + 1])
    visited.append(visit[-1])

    # tail lane: forward from the last anchor, clearing remaining anchors
    j = n_lanes - 1
    tj, tdj = t_lane[j], t_dip[j]
    s_a = visit[-1]
    verts.append((s_a + eps, tj))
    for q in sorted(q for q in visited if q > s_a):
        verts.append((q - eps, tj))
        verts.append((q, tdj))
        verts.append((q + eps, tj))
    tail_start = max(max(visited) + eps, s_a + eps) + eps
    verts.append((tail_start, tj))

    markers["lane_offsets"] = y_lane
    markers["dip_offsets"] = y_dip
    gamma2 = StripPolylineCurve(theta, verts, tj, label=f"zigzag:{n_zigzags}")
    return gamma1, gamma2, markers


# ---------------------------------------------------------------------------
# curve exchange format


class SampleBackedCurve(BoundaryCurve):
    """Curve defined by a fixed sample list (the CLI exchange format); a level
    keeps the samples through the first at depth <= 2^-level, or all of them.
    Every sample must satisfy as_complex's |z| < 1 - DISK_BOUNDARY_MARGIN."""

    def __init__(self, endpoint_angle, samples, label="imported"):
        super().__init__(endpoint_angle, label)
        self._fixed = np.asarray(samples, dtype=complex)
        if len(self._fixed) == 0:
            raise ValueError("curve needs at least one sample")
        radii = np.abs(self._fixed)
        outside = ~(radii < 1.0 - DISK_BOUNDARY_MARGIN)   # NaN counts as outside
        if np.any(outside):
            k = int(np.argmax(outside))
            raise DiskDomainError(
                f"curve sample {k} has |z| = {float(radii[k])!r}, "
                f"not inside the unit disk")

    def _build_strip(self, level):
        keep = _level_end(1.0 - np.abs(self._fixed), level)
        return disk_to_strip(self._fixed[:keep], self.endpoint_angle)

    def _sample_bound(self, level):
        return len(self._fixed)


def curve_to_exchange(curve: BoundaryCurve, level: int) -> dict:
    pts = curve.refine(level)
    return {
        "endpoint_angle": curve.endpoint_angle,
        "samples": [[float(p.real), float(p.imag)] for p in pts],
    }


def curve_from_exchange(payload: dict) -> BoundaryCurve:
    try:
        samples = [complex(re, im) for re, im in payload["samples"]]
        theta = float(payload["endpoint_angle"])
    except KeyError as exc:
        raise ValueError(f"curve exchange payload lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed curve exchange payload: {exc}") from None
    return SampleBackedCurve(theta, samples)
