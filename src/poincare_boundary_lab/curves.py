"""Boundary-terminating curves, curvilinear angles, and curve distances.

A BoundaryCurve is a simple curve in the open disk ending at a unit-modulus
point e^{i theta}, represented by an ordered sample polyline plus a refinement
rule: refine(k) samples the curve at hyperbolic gaps of about HYP_MESH
through the first sample of depth 1 - |z| <= 2^{-k}, imported samples too.
A curve keeps one sample run, its deepest level built, and the length of
every level through it; every level is a prefix of the run, so refine(k+1)
extends refine(k).  Each class bounds a level's sample count before building
it, and a level over SAMPLE_BUDGET is refused.

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
    as_disk_points,
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
# and the benchmark run predicts under 6,000.
SAMPLE_BUDGET = 100_000
# most cells a curve distance may read.  The cells are computed a block at a
# time, so a distance's memory no longer grows with them and the budget
# bounds its run time: the largest of any benchmark job reads 2.6M; two
# horocycles at level 21 would ask for 67M, though each has only 8,172
# samples.
CELL_BUDGET = 20_000_000
# cells a curve distance computes at a time (512 KiB): a block of rows of the
# directed distance or a band of anti-diagonals of the Frechet DP, or one
# row where a row is longer
_PRODUCT_BLOCK_CELLS = 1 << 16
# half-width of ParametricCurve._step's rounding band, in units of
# 2^-52 / depth(point(u/2)), the deepest point a step from u may evaluate;
# inside the band a gap from point(u) to a point of [u/2, u] is trusted to
# within half of it, 8 units (an mpmath oracle puts the worst error there at
# 0.64 of those units, and tests/test_curves.py checks that it stays below
# 1, an 8x margin).  The closed-form bracket of a step sits 1.25 of it either
# side of HYP_MESH
GAP_ERROR_ULPS = 16.0
# the smallest double d whose evaluated log1p(d) - log1p(-d) reaches
# HYP_MESH, so that for d < 1 the gap is below HYP_MESH exactly when d is
# below this (tests/test_curves.py pins it)
_MESH_PH = math.tanh(HYP_MESH / 2)

# verdict thresholds (recorded in every EquivalenceVerdict)
PLATEAU_RATIO = 1.05       # last three levels within 5% => bounded
SMALL_DISTANCE = 0.05      # below this the plateau ratio test is moot
GROWTH_RUN = 5             # strictly increasing levels needed for divergence
GROWTH_FLOOR = 5.0         # and the last value must exceed this


class CurveEndpointMismatch(ValueError):
    """Raised when two curves do not share a boundary endpoint."""


def _depth_target(level: int) -> float:
    return 2.0 ** (-level)


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
    """Base class: subclasses fill _build_strip(level) with (s, t, depth) of
    an uncut sample run through that level, and `_cut` gives each level's
    length in it: every level is a prefix of the deepest run built."""

    def __init__(self, endpoint_angle: float, label: str = "curve"):
        self.endpoint_angle = float(endpoint_angle)
        self.label = label
        self._run = None        # (s, t) of the deepest level built
        self._ends = np.zeros(0, dtype=int)   # its levels' lengths, from level 1

    # -- public surface ----------------------------------------------------

    def refine(self, level: int) -> np.ndarray:
        """Complex samples out to depth 2^{-level}; nested."""
        return strip_to_disk(*self.strip_refine(level), self.endpoint_angle)

    def strip_refine(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Axial-coordinate samples (s, t); exact arbitrarily deep.  Every
        truncated view of a curve is a prefix of the run."""
        n = self.level_ends(level)[-1]
        return self._run[0][:n], self._run[1][:n]

    def level_ends(self, level: int) -> np.ndarray:
        """The lengths of strip_refine(k), k = 1..level.  A level deeper than
        the run rebuilds it, refused unbuilt past SAMPLE_BUDGET samples or
        where its sample bound overflows doubles (2^-level rounds to 0, or
        the bound's 1 / 2^-level to infinity)."""
        if level < 1:
            raise ValueError("level must be >= 1")
        if level > len(self._ends):
            try:
                n = self._sample_bound(level)
            except ArithmeticError:   # OverflowError, ZeroDivisionError
                raise ValueError(
                    f"curve {self.label} at level {level}: depth 2^-{level} is "
                    f"past the range of doubles") from None
            if n > SAMPLE_BUDGET:
                raise ValueError(
                    f"curve {self.label} at level {level}: {n} samples "
                    f"predicted, above the budget of {SAMPLE_BUDGET}")
            s, t, depth = self._build_strip(level)
            self._run, self._ends = (s, t), self._cut(depth, level)
        return self._ends[:level]

    def max_gap_hyperbolic(self, level: int) -> float:
        s, t = self.strip_refine(level)
        d = strip_distance(s[:-1], t[:-1], s[1:], t[1:])
        return float(np.max(d)) if len(s) > 1 else 0.0

    def _build_strip(self, level):
        raise NotImplementedError

    def _cut(self, depth, level) -> np.ndarray:
        """Lengths of levels 1..level in a run with these depths: level k keeps
        every sample through the first with depth <= 2^-k, where the running
        minimum of depth reaches it, or all of them if none is that deep."""
        reached = -np.minimum.accumulate(depth)
        first = np.searchsorted(reached, -np.ldexp(1.0, -np.arange(1, level + 1)))
        return np.minimum(first + 1, len(depth))

    def _sample_bound(self, level) -> int:
        """An upper bound on len(strip_refine(level)), without building it."""
        raise NotImplementedError


def _ph_gap(z, p) -> float:
    """Pseudo-hyperbolic distance d from the numpy complex z to the point p,
    in numpy's scalar complex arithmetic; the hyperbolic gap is
    log1p(d) - log1p(-d), and log1p(-d) raises ValueError for d >= 1."""
    return abs((z - p) / (1.0 - z * p.conjugate()))


class ParametricCurve(BoundaryCurve):
    """Curve given by a parameter u decreasing to 0 as the point approaches
    the endpoint; samples are stepped in hyperbolic arclength by bisection.

    `beyond(u, g)` is the parameter at hyperbolic distance g past point(u),
    in closed form.  `_step` takes from it only a bracket of outcomes it
    need not evaluate, so the samples are the bisection's bit for bit.  The
    skipping relies on two properties of point_fn:
    - monotone gaps: the exact hyperbolic distance from point(u) to point(v)
      grows as v decreases from u.  Hyperbolic disks are Euclidean disks, so
      they are convex, which settles the chords; a horocycle is a horizontal
      line in the upper half-plane, where the distance between two of its
      points grows with their Euclidean gap.
    - a rounding bound: for v in [u/2, u], with tau = GAP_ERROR_ULPS * 2^-52
      / (1 - |point(u/2)|) and GAP_ERROR_ULPS = 16, the evaluated gap
      log1p(d) - log1p(-d) of d = `_ph_gap(point(u), point(v))` clipped to
      the band HYP_MESH +- tau is within tau/2 of the exact gap clipped the
      same way.  Inside the band that is the plain error; an exact gap
      outside the band is never evaluated more than tau/2 into it.  The
      error comes from the cancellation in 1 - a conj(b) (Higham 2002, ch.
      3), so it scales with one over the depth of the deepest point the step
      may evaluate, point(u/2), where its halving starts.  It also grows with
      the gap, like sinh(gap), which is why only the band is bounded.  tau/2
      is 8 of the units above, 8 times the error bound tests/test_curves.py
      checks against mpmath.
    Both hold for the chords and horocycles of canonical_curve, whose
    `beyond` tests/test_curves.py checks against mpmath too.

    `sample_bound` maps a level to an upper bound on its sample count.
    """

    def __init__(self, endpoint_angle, point_fn, beyond, u_start, sample_bound,
                 label="curve"):
        super().__init__(endpoint_angle, label)
        self._point = point_fn          # u -> complex disk point
        self._beyond = beyond           # (u, gap) -> parameter
        self._u = [float(u_start)]
        self._pts = [complex(point_fn(u_start))]
        self._bound = sample_bound

    def _bracket(self, u: float, z) -> tuple[float, float]:
        """(a, b) = beyond(u, HYP_MESH +- 1.25 tau) if a >= u/2, the
        evaluated gap at a is at least HYP_MESH + tau and the one at b at
        most HYP_MESH - tau, which leaves tau/4 (4 units) for the error of
        either; else (0, inf).  An evaluation that raises (d >= 1 in
        log1p(-d)) or gives NaN certifies nothing."""
        def gap(v):
            d = _ph_gap(z, self._point(v))
            return math.log1p(d) - math.log1p(-d)

        depth = 1.0 - abs(self._point(0.5 * u))
        if depth > 0.0:
            tau = GAP_ERROR_ULPS * 2.0 ** -52 / depth
            a = self._beyond(u, HYP_MESH + 1.25 * tau)
            b = self._beyond(u, HYP_MESH - 1.25 * tau)
            try:
                if 0.5 * u <= a and gap(a) >= HYP_MESH + tau and gap(b) <= HYP_MESH - tau:
                    return a, b
            except ValueError:
                pass
        return 0.0, math.inf

    def _step(self, u: float, z: complex) -> float:
        """Parameter of the next sample after the sample z = point(u).

        Halve u until the gap reaches HYP_MESH, then bisect the bracket
        [lo, hi] at mid = 0.5 * (lo + hi): a gap below HYP_MESH moves hi, any
        other moves lo.  One loop does both: while lo is 0, mid halves hi.
        The result is the one of evaluating every mid, with fewer
        evaluations:
        - `_bracket` certifies a >= u/2 with an evaluated gap of at least
          HYP_MESH + tau and b with one of at most HYP_MESH - tau.  By the
          rounding bound, the clipped exact gap is above HYP_MESH + tau/2 at
          a and below HYP_MESH - tau/2 at b; by monotonicity the same holds
          at every mid <= a and every mid >= b; by the rounding bound again,
          evaluating such a mid would give at least HYP_MESH (move lo) or
          less than HYP_MESH (move hi).  So it is moved without an
          evaluation, and only mids in (a, b) are evaluated.  The halving
          stops at u/2 <= a, so every mid lies in [u/2, u], where the bound
          holds.  Uncertified, (a, b) is (0, inf): every mid is evaluated.
        - A mid in (a, b) compares d = `_ph_gap` with `_MESH_PH` instead of
          the gap with HYP_MESH, which gives the same outcome without the
          two log1p: d >= 1, where log1p(-d) would raise, raises ValueError,
          and a NaN d moves lo, as a NaN gap does.
        - Once mid rounds to lo or hi, every later mid does too and repeats
          an outcome already taken there, so the loop stops.  The halving
          leaves hi = 2 lo, and the 2^52 doubles of [lo, 2 lo] are about
          halved by each mid, so that is within about 54 bisections: the cap
          of 60 that the bisection is defined with never binds.
        """
        z = np.complex128(z)
        a, b = self._bracket(u, z)
        lo, hi = 0.0, u
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if mid <= a:
                lo = mid
            elif mid >= b:
                hi = mid
            else:
                d = _ph_gap(z, self._point(mid))
                if d < _MESH_PH:
                    hi = mid
                elif d >= 1.0:
                    raise ValueError("pseudo-hyperbolic distance rounds to 1")
                else:
                    lo = mid
        if not lo:
            raise RuntimeError("curve parametrization does not reach the boundary")
        return lo

    def _sample_bound(self, level):
        return self._bound(level)

    def _build_strip(self, level):
        # extends the samples in place; a step that raises leaves a valid
        # prefix, which a later level extends
        target = _depth_target(level)
        us, pts = self._u, self._pts
        try:
            while 1.0 - abs(pts[-1]) > target:
                u = self._step(us[-1], pts[-1])
                z = complex(self._point(u))
                us.append(u)
                pts.append(z)
        except ValueError:
            # `_step` met a rounded pseudo-hyperbolic distance >= 1
            raise ValueError(
                f"curve {self.label} at level {level}: depth 2^-{level} is "
                f"below what complex-double samples resolve") from None
        arr = np.asarray(pts, dtype=complex)
        return (*disk_to_strip(arr, self.endpoint_angle), 1.0 - np.abs(arr))


class HypercycleCurve(BoundaryCurve):
    """Constant hyperbolic offset t0 from the diameter geodesic, sampled at
    arclength steps ds along it; t0 = 0 is the radius."""

    def __init__(self, endpoint_angle: float, t0: float, ds: float, label: str):
        super().__init__(endpoint_angle, label)
        self.t0 = float(t0)
        self._ds = float(ds)

    def _build_strip(self, level):
        s, t = _offset_run(0.0, self.t0, self._ds, level)
        return s, t, strip_depth(s, t)

    def _sample_bound(self, level):
        return _offset_run_length(0.0, self.t0, self._ds, level)


def _spec_number(x: float) -> str:
    """x as a spec field that parses back to x: `:g` where that round-trips,
    else repr (`hypercycle:0:0.99999999`, not `hypercycle:0:1`)."""
    return text if float(text := f"{x:g}") == x else repr(x)


def canonical_curve(kind: str, theta: float, parameter: float | None = None) -> BoundaryCurve:
    """Canonical curve families ending at e^{i theta}.

    kind = "radius"                     no parameter (or offset 0)
    kind = "chord"      parameter = angle to the radius, in (-pi/2, pi/2)
    kind = "hypercycle" parameter = signed pseudo-hyperbolic offset in (-1, 1)
    kind = "horocycle"  parameter = side (+1 upper / -1 lower), default +1
    """
    theta = float(theta)
    if kind == "radius":
        if parameter not in (None, 0):  # the offset of the radius is 0
            raise ValueError(f"a radius takes no parameter, got {parameter!r}")
        return HypercycleCurve(theta, 0.0, HYP_MESH, f"radius:{_spec_number(theta)}")
    if kind == "chord":
        if parameter is None or not -math.pi / 2 < parameter < math.pi / 2:
            raise ValueError("chord angle must be in (-pi/2, pi/2)")
        alpha = float(parameter)
        rot = complex(np.exp(1j * theta))
        lean = complex(np.exp(-1j * alpha))
        fn = lambda u: rot * (1.0 - u * lean)
        c = math.cos(alpha)

        def beyond(u, g):
            # in the upper half-plane the chord is a Euclidean ray, point(u)
            # at rho = (2c/u - 1)/c from its foot: r = sqrt(rho'/rho) solves
            # r - 1/r = 2 c sinh(gap/2)
            r = (q := c * math.sinh(0.5 * g)) + math.hypot(1.0, q)
            return 2.0 * c / ((2.0 * c / u - 1.0) * r * r + 1.0)

        return ParametricCurve(theta, fn, beyond, c,
                               lambda level: _chord_bound(alpha, level),
                               f"chord:{_spec_number(theta)}:{_spec_number(alpha)}")
    if kind == "hypercycle":
        if parameter is None or not -1.0 < parameter < 1.0:
            raise ValueError("hypercycle offset must be in (-1, 1)")
        offset = float(parameter)
        t0 = radius_convert(abs(offset), "ph_to_h") * (1.0 if offset >= 0 else -1.0)
        # arclength step producing chordal hyperbolic gaps of HYP_MESH; the
        # radius passes HYP_MESH itself, which this rounds to 0.25000000000000006
        c = (math.cosh(HYP_MESH) + math.sinh(t0) ** 2) / math.cosh(t0) ** 2
        ds = math.acosh(max(c, 1.0))
        if not ds > 0.0:
            raise ValueError(f"hypercycle offset {offset!r} is too close to "
                             f"the boundary: its arclength step rounds to 0")
        return HypercycleCurve(theta, t0, ds,
                               f"hypercycle:{_spec_number(theta)}:{_spec_number(offset)}")
    if kind == "horocycle":
        if parameter not in (None, 1, -1):
            raise ValueError(f"horocycle side must be 1 or -1, got {parameter!r}")
        rot = complex(np.exp(1j * theta))
        turn = -1j if parameter == -1 else 1j
        fn = lambda phi: rot * (1.0 + cmath.exp(turn * phi)) / 2.0
        # in the upper half-plane the horocycle is the line y = 1, point(phi)
        # at x = -+2 cot(phi/2), and sinh(gap/2) = |dx|/2 on it
        beyond = lambda phi, g: 2.0 * math.atan2(
            1.0, 1.0 / math.tan(0.5 * phi) + math.sinh(0.5 * g))
        return ParametricCurve(theta, fn, beyond, math.pi, _horocycle_bound,
                               f"horocycle:{_spec_number(theta)}")
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

    def contains(self, z, level: int):
        """Sampled membership of the points z, a bool array of z's shape:
        min d_ph(z, samples) <= deflection + slack, the slack being the
        largest pseudo-hyperbolic gap between adjacent samples."""
        zv = as_disk_points(z)
        d = pseudo_hyperbolic_distance_array(zv[..., None], self.curve.refine(level))
        slack = np.tanh(self.curve.max_gap_hyperbolic(level) / 2.0)
        return np.min(d, axis=-1) <= self.deflection + float(slack) + ALGEBRAIC_TOL


# ---------------------------------------------------------------------------
# directed curve distance and equivalence


def _strip_distance_matrix(s1, ct1, st1, s2, ct2, st2, out, scratch):
    """cosh of the hyperbolic distance between samples (s1, t1) and samples
    (s2, t2), given as s, cosh t and sinh t and broadcast to out's shape,
    written into out and returned, unclamped: a cell may round below 1.
    Each cell is cosh(s1 - s2) * (cosh t1 cosh t2) - sinh t1 sinh t2 in that
    order, with cosh taken in place on out; scratch has out's shape.  A cell
    against padding (s2 = +inf, cosh t2 = 1, sinh t2 = 0) is +inf."""
    np.subtract(s1, s2, out=out)
    with np.errstate(over="ignore"):
        np.cosh(out, out=out)
        np.multiply(ct1, ct2, out=scratch)
        out *= scratch
        np.multiply(st1, st2, out=scratch)
        out -= scratch
    return out


def _distance_of_cosh(c) -> float:
    """The hyperbolic distance whose cosh is c, with c rounded below 1 read
    as 1.  It is nondecreasing, so it commutes with max and min: a max/min
    taken over cosh d and then converted is exact."""
    return float(np.arccosh(np.maximum(c, 1.0)))


def _check_cells(c1: BoundaryCurve, c2: BoundaryCurve, level: int, n1: int, n2: int):
    if n1 * n2 > CELL_BUDGET:
        raise ValueError(
            f"curves {c1.label} and {c2.label} at level {level}: {n1 * n2} "
            f"distance-matrix cells, above the budget of {CELL_BUDGET}")


def _check_same_endpoint(c1: BoundaryCurve, c2: BoundaryCurve):
    d = (c1.endpoint_angle - c2.endpoint_angle) % (2.0 * math.pi)
    if not min(d, 2.0 * math.pi - d) <= 1e-9:  # a NaN angle fails too
        raise CurveEndpointMismatch(
            f"curves end at different boundary points: "
            f"{c1.endpoint_angle!r} vs {c2.endpoint_angle!r}")


def directed_curve_distance(c1: BoundaryCurve, c2: BoundaryCurve,
                            max_level: int) -> list[float]:
    """Directed Hausdorff distances at truncation levels 1..max_level: at
    level k, the sup over c1's refine(k) samples of the hyperbolic distance
    to c2's refine(k+2) samples.  Levels are nested prefixes, so each
    level's cells are a corner of the ones at max_level, the only level
    read and budget-checked.  They are read a block of c1's rows at a time,
    at most _PRODUCT_BLOCK_CELLS cells (or one row), and each row keeps only
    its minimum over each block of columns that ends where one of c2's
    levels ends (deduplicated: an import stops growing past its last
    sample).  The running minimum of those gives a row's minimum at every
    level, and level k takes the max over its rows.  Only min and max of the
    same cells are taken, so every value is the one its own matrix gives,
    and no (n1, n2) array is held."""
    _check_same_endpoint(c1, c2)
    s1, t1 = c1.strip_refine(max_level)
    s2, t2 = c2.strip_refine(max_level + 2)
    _check_cells(c1, c2, max_level, len(s1), len(s2))
    cols = c2.level_ends(max_level + 2)[2:]
    ends = np.unique(cols)
    starts = np.r_[0, ends[:-1]]
    n1 = len(s1)
    col1 = [s1[:, None], np.cosh(t1)[:, None], np.sinh(t1)[:, None]]
    row2 = [s2, np.cosh(t2), np.sinh(t2)]
    rows = max(1, _PRODUCT_BLOCK_CELLS // len(s2))
    # one allocation for both buffers, as in _frechet_dp
    out, scratch = np.empty((2, min(rows, n1), len(s2)))
    mins = []
    for i in range(0, n1, rows):
        j = min(i + rows, n1)
        block = _strip_distance_matrix(*(x[i:j] for x in col1), *row2,
                                       out[:j - i], scratch[:j - i])
        mins.append(np.minimum.reduceat(block, starts, axis=1))
    run = np.minimum.accumulate(np.concatenate(mins), axis=1)
    return [_distance_of_cosh(np.max(run[:n, j]))
            for n, j in zip(c1.level_ends(max_level), np.searchsorted(ends, cols))]


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
    fwd = directed_curve_distance(c1, c2, max_level)
    bwd = directed_curve_distance(c2, c1, max_level)
    values = [max(f, b) for f, b in zip(fwd, bwd)]
    return EquivalenceVerdict(list(range(1, max_level + 1)), fwd, bwd, values,
                              _trend_verdict(values))


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


class _CoshCells:
    """The cosh d cells of samples (s1, t1) against samples (s2, t2), as an
    (n1, n2) matrix that is never built: `band` computes a band of its
    anti-diagonals at a time with `_strip_distance_matrix`.

    The columns' s, cosh t and sinh t are reversed, padded with n1 - 1 cells
    of (+inf, 1, 0) at each end and read through windows of n1: window q
    holds at index i the column of the cell (i, k - i) on the anti-diagonal
    k = n1 + n2 - 2 - q, or padding where that cell is off the matrix."""

    def __init__(self, s1, t1, s2, t2):
        n = len(s1)
        self.shape, self.size = (n, len(s2)), n * len(s2)
        self._rows = s1, np.cosh(t1), np.sinh(t1)
        self._diagonals = []
        for col, pad in ((s2, np.inf), (np.cosh(t2), 1.0), (np.sinh(t2), 0.0)):
            edge = np.full(n - 1, pad)
            self._diagonals.append(np.lib.stride_tricks.sliding_window_view(
                np.concatenate([edge, col[::-1], edge]), n))

    def band(self, k: int, i: int, out, scratch):
        """Fill out, of shape (b, w), with the cells (i + r, k + d - i - r)
        of the anti-diagonals k + d, d < b, for rows i .. i + w - 1: +inf
        where a cell is off the matrix.  scratch has out's shape."""
        b, w = out.shape
        q = sum(self.shape) - 2 - k
        return _strip_distance_matrix(
            *(x[i:i + w] for x in self._rows),
            *(x[q - b + 1:q + 1][::-1, i:i + w] for x in self._diagonals),
            out, scratch)


def _frechet_dp(cells) -> float:
    """Coupled-traversal DP (Eiter-Mannila) over the cells of a distance
    matrix that `cells.band` computes a band of anti-diagonals at a time.

    The DP takes only max and min, so the cells may be any nondecreasing
    function of the leg distances and the value is that function of the
    Frechet distance: curve_frechet passes the cosh d of _CoshCells and
    converts the value once.

    The recurrence D[i, j] = max(dist[i, j], min(D[i-1, j], D[i, j-1],
    D[i-1, j-1])) runs one anti-diagonal i + j = k at a time: every cell of a
    diagonal depends only on the two diagonals before it.  Three rotating
    buffers indexed by i + 1 hold those two and the new one, with +inf at
    index 0 and at every index a diagonal does not reach, which stands in for
    the missing neighbours on the matrix border.  The cells come a band of
    max(1, _PRODUCT_BLOCK_CELLS // n) diagonals at a time, over the rows the
    band reaches, so no (n, m) array is held.  The band and its scratch are
    one allocation a call: freed as one block, the allocator keeps it for
    the next call, where two blocks of 512 KiB were handed back to the
    system and paged in again on every call (about 240 minor faults).  Only
    max and min of the same doubles are taken, so the value is
    bit-identical to the cell-by-cell loop for any NaN-free matrix.
    """
    n, m = cells.shape
    diagonals = max(1, _PRODUCT_BLOCK_CELLS // n)
    buf, scratch = np.empty((2, min(diagonals, n + m - 1) * n))
    older = np.full(n + 1, np.inf)   # diagonal k - 2
    prev = np.full(n + 1, np.inf)    # diagonal k - 1
    cur = np.full(n + 1, np.inf)
    mins = np.empty(n)
    for k0 in range(0, n + m - 1, diagonals):
        k1 = min(k0 + diagonals, n + m - 1)
        r0, r1 = max(0, k0 - m + 1), min(k1 - 1, n - 1) + 1
        used = (k1 - k0) * (r1 - r0)
        band = cells.band(k0, r0, buf[:used].reshape(k1 - k0, -1),
                          scratch[:used].reshape(k1 - k0, -1))
        if k0 == 0:
            prev[1] = band[0, 0]
        for k in range(max(k0, 1), k1):
            lo, hi = max(0, k - m + 1), min(k, n - 1)
            w = hi - lo + 1
            mn = mins[:w]
            np.minimum(prev[lo + 1:hi + 2], prev[lo:hi + 1], out=mn)
            np.minimum(mn, older[lo:hi + 1], out=mn)
            np.maximum(band[k - k0, lo - r0:hi - r0 + 1], mn, out=cur[lo + 1:hi + 2])
            older, prev, cur = prev, cur, older
    return float(prev[n])


def curve_frechet(c1: BoundaryCurve, c2: BoundaryCurve, level: int) -> float:
    """Discrete Frechet distance between two curves truncated at `level`.
    The shorter curve gives the DP's rows: the DP of the transposed matrix
    takes the same max and min, and its cells are the same doubles (s2 - s1
    is -(s1 - s2) exactly, cosh is even and products commute)."""
    _check_same_endpoint(c1, c2)
    a, b = c1.strip_refine(level), c2.strip_refine(level)
    _check_cells(c1, c2, level, len(a[0]), len(b[0]))
    if len(b[0]) < len(a[0]):
        a, b = b, a
    return _distance_of_cosh(_frechet_dp(_CoshCells(*a, *b)))


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
        edges = strip_distance(vs[:-1, 0], vs[:-1, 1], vs[1:, 0], vs[1:, 1])
        for (s0, t0), (s1, t1), d in zip(vs[:-1], vs[1:], edges):
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
        s, t = np.concatenate([s, tail_s[1:]]), np.concatenate([t, tail_t[1:]])
        return s, t, strip_depth(s, t)

    def _cut(self, depth, level):
        # the polyline whole, then the tail through its first sample at depth
        # <= 2^-k, but none past level k's own run (none at all where the
        # polyline ends past that run's s_end)
        p = len(self._dense[0])
        return np.minimum(p + super()._cut(depth[p:], level),
                          [self._sample_bound(k) for k in range(1, level + 1)])

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
    Every sample must pass as_disk_points."""

    def __init__(self, endpoint_angle, samples, label="imported"):
        super().__init__(endpoint_angle, label)
        self._fixed = as_disk_points(samples, "curve sample")
        if len(self._fixed) == 0:
            raise ValueError("curve needs at least one sample")

    def _build_strip(self, level):
        return (*disk_to_strip(self._fixed, self.endpoint_angle),
                1.0 - np.abs(self._fixed))

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
        if not math.isfinite(theta := float(payload["endpoint_angle"])):
            raise ValueError(f"endpoint_angle {theta!r} is not finite")
    except KeyError as exc:
        raise ValueError(f"curve exchange payload lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed curve exchange payload: {exc}") from None
    return SampleBackedCurve(theta, samples)
