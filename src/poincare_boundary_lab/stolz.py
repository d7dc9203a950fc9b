"""Stolz angles, the sector-to-disk conformal map, distortion bounds, and
decay-margin checks for uniqueness-type hypotheses.

The Stolz angle A(1, alpha, rho) is the chordal sector
{ |arg(1 - z)| < alpha, |1 - z| < rho } with rho = 1 for alpha <= pi/3 and
rho = 2 cos(alpha) above (the largest radius keeping the sector inside the
disk); the radius always follows from alpha.  The conformal map onto the
disk is the seven-step composition: negate, shift-scale the sector to unit
size, rotate the sector base onto the positive axis, raise to pi/(2 alpha)
(half-disk), Joukowski (lower half-plane), rotate by pi (upper half-plane),
Cayley.

The simplified rational form of that composition, with
T = ((1-z)/rho)^{pi/(2 alpha)}, is

    w = (T^2 + 2T - 1) / (T^2 - 2T - 1)
      = 1 - 4 rho^c (1-z)^c / (2 rho^{2c} - ((1-z)^c - rho^c)^2),   c = pi/(2 alpha)

fixed by the boundary correspondences w(1 - rho) = -1 and w(z) -> 1 as
z -> 1, and |w| = 1 along the chord edges.  The composition is kept as the
ground truth and the closed form is cross-checked against it in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import BoundaryCurve, CurvilinearAngle, angle_contains, canonical_curve
from .functions import FunctionHandle
from .geometry import as_complex

BOUNDARY_TOL = 1e-12
MARGIN_REL_TOL = 1e-9


def rho_of_alpha(alpha: float) -> float:
    """Largest admissible sector radius: 1 up to pi/3, then 2 cos(alpha)."""
    if not 0.0 < alpha < math.pi / 2:
        raise ValueError(f"half-angle {alpha!r} not in (0, pi/2)")
    return 1.0 if alpha <= math.pi / 3 else 2.0 * math.cos(alpha)


class StolzMapDomainError(ValueError):
    """Point outside the Stolz angle handed to the sector-to-disk map."""


@dataclass(frozen=True)
class StolzAngle:
    """The chordal sector A(1, alpha, rho(alpha)) and its conformal map onto
    the unit disk."""

    alpha: float
    rho: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rho", rho_of_alpha(self.alpha))

    def contains(self, z):
        zv = np.asarray(z, dtype=complex)
        w = 1.0 - zv
        return ((np.abs(w) < self.rho) & (np.abs(w) > 0)
                & (np.abs(np.angle(w)) < self.alpha) & (np.abs(zv) < 1.0))

    def sample(self, n: int, seed: int = 0, margin: float = 0.0):
        """Area-uniform interior samples (optionally keeping a relative
        margin away from the sector boundary)."""
        rng = np.random.default_rng(seed)
        a = self.alpha * (1.0 - margin)
        r = self.rho * (1.0 - margin)
        rad = r * np.sqrt(rng.uniform(0.0, 1.0, n))
        rad = np.maximum(rad, 1e-12)
        ang = rng.uniform(-a, a, n)
        return 1.0 - rad * np.exp(1j * ang)

    @property
    def exponent(self) -> float:
        return math.pi / (2.0 * self.alpha)

    # -- forward: the seven-step composition ---------------------------------

    def forward_steps(self, z):
        z = np.asarray(z, dtype=complex)
        u = -z                                   # negate
        u = (1.0 + u) / self.rho                 # sector to unit size at 0
        u = np.exp(1j * self.alpha) * u          # base onto the positive axis
        u = u ** self.exponent                   # open to the upper half-disk
        u = 0.5 * (u + 1.0 / u)                  # Joukowski: lower half-plane
        u = u * np.exp(-1j * math.pi)            # upper half-plane
        return (u - 1j) / (u + 1j)               # Cayley: unit disk

    def closed_form(self, z):
        z = np.asarray(z, dtype=complex)
        T = ((1.0 - z) / self.rho) ** self.exponent
        return (T * T + 2.0 * T - 1.0) / (T * T - 2.0 * T - 1.0)

    def apply(self, z):
        arr = np.asarray(z, dtype=complex)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if not np.all(self.contains(arr)):
            raise StolzMapDomainError("point outside the Stolz angle")
        out = self.forward_steps(arr)
        return complex(out[0]) if scalar else out

    # -- inverse: reversed composition ---------------------------------------

    def invert(self, w):
        arr = np.asarray(w, dtype=complex)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        u = 1j * (1.0 + arr) / (1.0 - arr)       # Cayley inverse
        u = u * np.exp(1j * math.pi)             # undo the rotation
        root = np.sqrt(u * u - 1.0)              # Joukowski inverse, |.| <= 1
        cand1 = u + root
        cand2 = u - root
        u = np.where(np.abs(cand1) <= np.abs(cand2), cand1, cand2)
        u = u ** (1.0 / self.exponent)
        u = np.exp(-1j * self.alpha) * u
        u = self.rho * u - 1.0
        out = -u
        return complex(out[0]) if scalar else out


def stolz_distortion_bounds(alpha: float, beta: float, samples: int = 10000,
                            seed: int = 0) -> tuple[float, float, bool]:
    """Estimate the boundary-distance distortion constants of the inverse
    sector map: for omega in the image Stolz angle A(1, beta, rho(beta)) and
    z its preimage, the ratio (1 - |omega|) / (1 - |z|)^{pi/(2 alpha)} stays
    inside [m, M].  Returns (m_hat, M_hat, holdout_pass) where the holdout
    draws a fresh sample set and requires all ratios inside [m_hat/2, 2 M_hat].
    """
    m = StolzAngle(alpha)
    image = StolzAngle(beta)

    def ratios(sd):
        omega = image.sample(samples, seed=sd)
        z = m.invert(omega)
        return (1.0 - np.abs(omega)) / (1.0 - np.abs(z)) ** m.exponent

    r = ratios(seed)
    m_hat, big_m_hat = float(np.min(r)), float(np.max(r))
    fresh = ratios(seed + 104729)
    ok = bool(np.all(fresh >= m_hat / 2.0) and np.all(fresh <= 2.0 * big_m_hat))
    return m_hat, big_m_hat, ok


# ---------------------------------------------------------------------------
# the extended region for tangent curves


@dataclass
class GRegion:
    """Union of the deflection band of the canonical tangent curve at 1 (the
    horocycle through 0) and the lens bounded by that curve, the chord at
    angle alpha on the opposite side, and the arc |z - 1| = rho.
    The lens sweeps across the radius, so the region joins tangential and
    non-tangential approach; boundaries are included (closed convention)."""

    r: float
    alpha: float
    rho: float
    curve: BoundaryCurve = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < math.pi / 2:
            raise ValueError("chord angle must be in (0, pi/2)")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("arc radius must be in (0, 1)")
        self.curve = canonical_curve("horocycle", 0.0)


def g_region_contains(region: GRegion, z, level: int) -> bool:
    """Membership in the extended region: the deflection band of the tangent
    curve, or the chord-to-curve lens inside the arc."""
    zv = as_complex(z)
    w = 1.0 - zv
    aw = abs(w)
    if aw <= region.rho + BOUNDARY_TOL:
        ang = float(np.angle(w))
        on_chord_side = ang <= region.alpha + BOUNDARY_TOL
        # below the axis the lens is bounded by the chord alone; above it,
        # by the tangent curve (inside its horodisk: |w|^2 <= Re w)
        in_horodisk = aw * aw <= w.real + BOUNDARY_TOL
        if on_chord_side and (ang >= -BOUNDARY_TOL or in_horodisk):
            return True
    band = CurvilinearAngle(region.curve, region.r)
    return angle_contains(band, zv, level)


# ---------------------------------------------------------------------------
# decay profiles and margin tables


@dataclass(frozen=True)
class DecayProfile:
    """A named slow-growth profile p(t) with p(t) -> +inf as t -> 0+, paired
    with the denominator exponent e of the decay bound exp(-p(t)/t^e)."""

    name: str
    p: callable
    exponent: float = 1.0

    def __post_init__(self):
        if self.exponent < 1.0:
            raise ValueError("denominator exponent must be >= 1")
        t = np.logspace(-6, -0.5, 40)
        with np.errstate(all="ignore"):  # a bad profile is refused below, not warned about
            v = self.p(t)
        if not (np.all(np.diff(v) < 0) and v[0] > v[-1] * 1.5):
            raise ValueError(f"profile {self.name!r} does not increase toward 0+")

    def bound(self, t):
        return self.p(np.asarray(t, dtype=float)) / np.asarray(t, dtype=float) ** self.exponent

    @classmethod
    def log_form(cls, shift: float = math.e, exponent: float = 1.0) -> "DecayProfile":
        if not shift > -1.0:  # else p(t) = log(shift + 1/t) is not finite at t = 1
            raise ValueError(f"log profile needs shift > -1, got {shift:g}")
        return cls(f"log:{shift:g}:{exponent:g}",
                   lambda t: np.log(shift + 1.0 / t), exponent)

    @classmethod
    def power_form(cls, s: float, exponent: float = 1.0) -> "DecayProfile":
        if s <= 0:
            raise ValueError("power profile needs s > 0")
        return cls(f"pow:{s:g}:{exponent:g}", lambda t: t ** (-s), exponent)

    @classmethod
    def super_exponential(cls, n: int) -> "DecayProfile":
        """Profile/exponent pair whose combined bound is exp(-1/t^{1+1/n})."""
        if n < 1:
            raise ValueError("n must be a positive integer")
        s = 1.0 / (2.0 * n)
        return cls(f"super-exp:{n}", lambda t: t ** (-s), 1.0 + s)


@dataclass
class MarginReport:
    profile: str
    exponent: float
    levels: list[int]
    rows: list[dict]            # per-sample: depth, margin
    verdict: str                # satisfied / violated / mixed
    violation_threshold: float | None
    thresholds: dict = field(init=False,
                             default_factory=lambda: {"margin_rel_tol": MARGIN_REL_TOL})


def _margin_values(f: FunctionHandle, z, profile: DecayProfile):
    z = np.asarray(z, dtype=complex)
    t = 1.0 - np.abs(z)
    bound = profile.bound(t)
    neg_log = -f.log_abs_array(z)
    return t, neg_log - bound, np.abs(neg_log) + np.abs(bound)


def decay_margin(f: FunctionHandle, curve: BoundaryCurve, profile: DecayProfile,
                 level: int) -> MarginReport:
    """Margin table -log|f| - p(1-|z|)/(1-|z|)^e along the refined curve.

    satisfied: margin >= 0 (to relative tolerance) at every sample deeper
    than the first level.  violated: margins persistently negative on the
    deepest two levels.  A sign change is bisected along the curve to locate
    the violation threshold in 1 - |z|.
    """
    pts = curve.refine(level)
    t, margin, scale = _margin_values(f, pts, profile)
    tol = MARGIN_REL_TOL * np.maximum(scale, 1.0)
    beyond = t <= 0.5  # deeper than the first refinement level
    rows = [{"depth": float(tv), "margin": float(mv)}
            for tv, mv in zip(t, margin)]
    ok = margin >= -tol
    if np.any(np.isposinf(-margin) & (f.log_abs_array(pts) == np.inf)):
        # a pole sits on the curve: the bound fails outright
        verdict = "violated"
    elif np.all(ok[beyond]):
        verdict = "satisfied"
    else:
        deep2 = t <= 2.0 ** (-(level - 1))
        if np.any(deep2) and np.all(margin[deep2] < 0):
            verdict = "violated"
        else:
            verdict = "mixed"

    threshold = None
    if np.any(margin < -tol) and np.any(margin > tol):
        # locate the deepest sign change and bisect between the samples
        sign = margin > 0
        flips = np.nonzero(sign[:-1] != sign[1:])[0]
        if len(flips):
            i = int(flips[-1])
            a, b = pts[i], pts[i + 1]
            for _ in range(80):
                mid = 0.5 * (a + b)
                _, mv, _ = _margin_values(f, np.array([mid]), profile)
                if (mv[0] > 0) == bool(sign[i]):
                    a = mid
                else:
                    b = mid
            threshold = float(1.0 - abs(0.5 * (a + b)))
    return MarginReport(profile.name, profile.exponent,
                        list(range(1, level + 1)), rows, verdict, threshold)
