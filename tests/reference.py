"""Reference implementations that only the tests read: cross-checks of
the package's own paths, kept out of the package because no run uses them."""

import numpy as np

from poincare_boundary_lab.curves import _frechet_dp
from poincare_boundary_lab.functions import (
    POLE_SNAP,
    CallableFunction,
    FunctionHandle,
    PoleSchedule,
)
from poincare_boundary_lab.geometry import hyperbolic_distance_array


def discrete_frechet(p_samples, q_samples) -> float:
    """Discrete Frechet distance between two sample polylines, with
    hyperbolic leg distance (complex samples)."""
    p = np.atleast_1d(np.asarray(p_samples, dtype=complex))
    q = np.atleast_1d(np.asarray(q_samples, dtype=complex))
    if len(p) == 0 or len(q) == 0:
        raise ValueError("sample lists must be non-empty")
    d = hyperbolic_distance_array(p[:, None], q[None, :])
    return _frechet_dp(d)


def strip_distance_matrix(s1, t1, s2, t2):
    """Hyperbolic distances between axial samples, one arccosh a cell: the
    matrix the curve distances were taken on before they moved to cosh d."""
    with np.errstate(over="ignore"):
        c = (np.cosh(s1[:, None] - s2[None, :])
             * (np.cosh(t1)[:, None] * np.cosh(t2)[None, :])
             - np.sinh(t1)[:, None] * np.sinh(t2)[None, :])
    return np.arccosh(np.maximum(c, 1.0))


def directed_curve_distance(c1, c2, level: int) -> float:
    """`curves.directed_curve_distance` on the distance matrix."""
    d = strip_distance_matrix(*c1.strip_refine(level), *c2.strip_refine(level + 2))
    return float(np.max(np.min(d, axis=1)))


def curve_frechet(c1, c2, level: int) -> float:
    """`curves.curve_frechet` on the distance matrix."""
    return _frechet_dp(strip_distance_matrix(*c1.strip_refine(level),
                                             *c2.strip_refine(level)))


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
