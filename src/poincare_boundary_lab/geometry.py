"""Metric and Mobius primitives on the unit disk and the Riemann sphere.

Everything else in the package is built on the three distances defined here,
each one numpy kernel that takes points and arrays of points alike:

* pseudo-hyperbolic  d_ph(z, w) = |(z - w) / (1 - z * conj(w))|, values in [0, 1)
* hyperbolic         d_h = log((1 + d_ph) / (1 - d_ph)), the Poincare metric
* spherical (chordal) d_S on the extended plane, bounded by 2

plus the disk automorphisms z -> e^{i tau} (z + w) / (1 + z conj(w)) and
axial ("strip") coordinates for the diameter geodesic, which stay numerically
exact arbitrarily close to the boundary where complex doubles saturate.

The distance kernels check no domain: a caller checks its points once where
they come in, with as_complex for one point or as_disk_points for an array.

A point of the Riemann sphere is a complex number, scalar or array entry;
every complex that is not finite stands for the point at infinity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

# |z| >= 1 - this margin is rejected by as_complex: closer to the circle the
# term 1 - |z|^2 loses all significant digits.
DISK_BOUNDARY_MARGIN = 1e-15

ALGEBRAIC_TOL = 1e-12   # tolerance for algebraic identities on O(1) inputs
COMPOSED_TOL = 1e-9     # tolerance for composed/iterated maps


class DiskDomainError(ValueError):
    """Raised when a point is outside the admissible part of the open disk."""


def as_complex(z) -> complex:
    """Coerce a number to a complex point of the open disk, rejecting
    |z| >= 1 - DISK_BOUNDARY_MARGIN."""
    v = complex(z)
    if not abs(v) < 1.0 - DISK_BOUNDARY_MARGIN:  # NaN fails this test too
        raise DiskDomainError(f"|z| = {abs(v)!r} is not inside the unit disk")
    return v


def as_disk_points(z, name: str = "point") -> np.ndarray:
    """as_complex for an array of points; the first to fail (in flat order) is named."""
    zv = np.asarray(z, dtype=complex)
    radii = np.abs(zv)
    outside = ~(radii < 1.0 - DISK_BOUNDARY_MARGIN)   # NaN counts as outside
    if np.any(outside):
        k = int(np.argmax(outside))
        raise DiskDomainError(f"{name} {k} has |z| = {float(radii.flat[k])!r}, "
                              f"not inside the unit disk")
    return zv


# ---------------------------------------------------------------------------
# distances


def radius_convert(r: float, direction: Literal["ph_to_h", "h_to_ph"]) -> float:
    """Convert between pseudo-hyperbolic radii in [0,1) and hyperbolic in [0,inf)."""
    if direction == "ph_to_h":
        if not 0.0 <= r < 1.0:
            raise ValueError(f"pseudo-hyperbolic radius {r!r} not in [0, 1)")
        return math.log1p(r) - math.log1p(-r)
    if direction == "h_to_ph":
        if not (r >= 0.0 and math.isfinite(r)):
            raise ValueError(f"hyperbolic radius {r!r} not in [0, inf)")
        return math.tanh(r / 2.0)
    raise ValueError(f"bad direction {direction!r}")


def pseudo_hyperbolic_distance_array(z, w):
    """d_ph(z, w) = |(z - w) / (1 - z conj(w))|, in [0, 1).

    The denominator is built from real products, 1 - (zr wr + zi wi) and
    zr wi - zi wr: swapping the points leaves the first unchanged and negates
    the second exactly, as it negates z - w, so the value is bit-for-bit
    symmetric (numpy's z * conj(w) is not always the exact conjugate of
    w * conj(z)).  Written into one complex array, not summed as re + 1j im,
    which takes two more passes over it.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    zr, zi, wr, wi = z.real, z.imag, w.real, w.imag
    den = np.empty(np.broadcast_shapes(z.shape, w.shape), dtype=complex)
    den.real = 1.0 - (zr * wr + zi * wi)
    den.imag = zr * wi - zi * wr
    return np.abs(z - w) / np.abs(den)


def hyperbolic_distance_array(z, w):
    """The Poincare distance d_h = 2 asinh(|z - w| / sqrt(q)), with
    q = ((1 - |z|)(1 + |z|)) ((1 - |w|)(1 + |w|)).

    It equals log((1 + d_ph) / (1 - d_ph)) but does not go through d_ph:
    near the boundary 1 - d_ph is tiny, and one ulp of d_ph there is about
    1e-12 of the distance. Swapping the points only swaps the two factors of
    q, so the value is bit-for-bit symmetric.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    az, aw = np.abs(z), np.abs(w)
    q = ((1.0 - az) * (1.0 + az)) * ((1.0 - aw) * (1.0 + aw))
    return 2.0 * np.arcsinh(np.abs(z - w) / np.sqrt(q))


def spherical_distance_array(a, b):
    """Chordal distance on the Riemann sphere, bounded by 2; a complex that is
    not finite is the point at infinity."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a_inf = ~np.isfinite(a)
    b_inf = ~np.isfinite(b)
    safe_a = np.where(a_inf, 0.0, a)
    safe_b = np.where(b_inf, 0.0, b)
    na = np.hypot(1.0, np.abs(safe_a))
    nb = np.hypot(1.0, np.abs(safe_b))
    out = 2.0 * np.abs(safe_a - safe_b) / (na * nb)
    out = np.where(a_inf & ~b_inf, 2.0 / nb, out)
    out = np.where(b_inf & ~a_inf, 2.0 / na, out)
    out = np.where(a_inf & b_inf, 0.0, out)
    return out


# ---------------------------------------------------------------------------
# disk automorphisms


@dataclass(frozen=True)
class MobiusAutomorphism:
    """z -> e^{i tau} (z + w) / (1 + z conj(w)); maps the disk onto itself."""

    center: complex
    tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", as_complex(self.center))
        object.__setattr__(self, "tau", float(self.tau))

    def apply(self, z):
        z = np.asarray(z, dtype=complex)
        w = self.center
        return np.exp(1j * self.tau) * (z + w) / (1.0 + z * np.conj(w))

    def inverse(self) -> "MobiusAutomorphism":
        # closed form: the inverse is again of the same shape
        w = self.center
        return MobiusAutomorphism(-cmath.exp(1j * self.tau) * w, -self.tau)


def mobius_translation(w) -> MobiusAutomorphism:
    """The automorphism phi_w(z) = (z + w) / (1 + z conj(w)) (no rotation)."""
    return MobiusAutomorphism(w, 0.0)


def pseudo_disk_euclidean(w, r: float) -> tuple[complex, float]:
    """Euclidean center and radius of the pseudo-hyperbolic disk around w.

    The closed pseudo-hyperbolic disk of radius r about w is the Euclidean disk
    with center w (1 - r^2) / (1 - r^2 |w|^2) and radius
    r (1 - |w|^2) / (1 - r^2 |w|^2).
    """
    wv = as_complex(w)
    a = abs(wv) ** 2
    denom = 1.0 - r * r * a
    return wv * (1.0 - r * r) / denom, r * (1.0 - a) / denom


def disk_image_check(w, r: float, samples: int, seed: int = 0) -> bool:
    """Sampling check that phi_w maps the closed disk of radius r onto the
    pseudo-hyperbolic disk of radius r about w, both inclusions.

    Route 1: push |u| <= r forward through phi_w, verify d_ph(phi_w(u), w) <= r.
    Route 2: draw points of the pseudo-hyperbolic disk from its independent
    Euclidean-disk description, verify |phi_w^{-1}(z)| <= r.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius {r!r} not in [0, 1)")
    wv = as_complex(w)
    rng = np.random.default_rng(seed)
    m = mobius_translation(wv)
    minv = m.inverse()

    rho = r * np.sqrt(rng.uniform(0.0, 1.0, samples))
    ang = rng.uniform(0.0, 2.0 * np.pi, samples)
    u = rho * np.exp(1j * ang)
    fwd = m.apply(u)
    if not np.all(pseudo_hyperbolic_distance_array(fwd, wv) <= r + ALGEBRAIC_TOL):
        return False

    ec, er = pseudo_disk_euclidean(wv, r)
    rho2 = er * np.sqrt(rng.uniform(0.0, 1.0, samples))
    ang2 = rng.uniform(0.0, 2.0 * np.pi, samples)
    z = ec + rho2 * np.exp(1j * ang2)
    if not np.all(pseudo_hyperbolic_distance_array(z, wv) <= r + ALGEBRAIC_TOL):
        return False
    back = minv.apply(z)
    return bool(np.all(np.abs(back) <= r + ALGEBRAIC_TOL))


# ---------------------------------------------------------------------------
# axial (strip) coordinates
#
# For the diameter geodesic ending at e^{i theta}, a point is addressed by
# (s, t): s = signed hyperbolic position of its foot on the diameter, t =
# signed hyperbolic offset.  The conformal chart w = log((1+z)/(1-z)) sends
# the disk to the strip |Im w| < pi/2 with s = Re w and Im w = gd(t), the
# Gudermannian.  Distances come from the exact hyperboloid-model formula and
# remain meaningful at depths where |z| rounds to 1 in doubles.


def gudermann(t):
    return np.arcsin(np.tanh(t))


def gudermann_inv(g):
    return np.arctanh(np.sin(g))


def strip_to_disk(s, t, theta: float = 0.0):
    """Disk point for axial coordinates; saturates toward e^{i theta} deep down."""
    w = np.asarray(s, dtype=float) + 1j * gudermann(np.asarray(t, dtype=float))
    return np.exp(1j * theta) * np.tanh(w / 2.0)


def disk_to_strip(z, theta: float = 0.0):
    """Axial coordinates (s, t) of disk points relative to e^{i theta}."""
    zz = np.asarray(z, dtype=complex) * np.exp(-1j * theta)
    w = np.log((1.0 + zz) / (1.0 - zz))
    return np.real(w), gudermann_inv(np.imag(w))


def strip_distance(s1, t1, s2, t2):
    """Hyperbolic distance between axial-coordinate points (exact at any depth).

    cosh d = cosh(s1 - s2) cosh t1 cosh t2 - sinh t1 sinh t2, with signed
    offsets; this is the hyperboloid-model inner product for the Fermi chart.
    """
    s1 = np.asarray(s1, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    c = np.cosh(s1 - s2) * np.cosh(t1) * np.cosh(t2) - np.sinh(t1) * np.sinh(t2)
    return np.arccosh(np.maximum(c, 1.0))


def strip_depth(s, t):
    """1 - |z| for the axial point (s, t), computed without cancellation."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    g = gudermann(t)
    # |z|^2 = (cosh s - cos g) / (cosh s + cos g)
    with np.errstate(over="ignore"):
        denom = np.cosh(s) + np.cos(g)
        one_minus_sq = np.where(np.isfinite(denom), 2.0 * np.cos(g) / denom,
                                4.0 * np.cos(g) * np.exp(-np.abs(s)))
    abs_z = np.sqrt(np.maximum(0.0, 1.0 - one_minus_sq))
    return one_minus_sq / (1.0 + abs_z)
