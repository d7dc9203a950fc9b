"""Reference implementations that only the tests read: cross-checks of
the package's own paths, kept out of the package because no run uses them."""

import numpy as np

from poincare_boundary_lab.curves import _frechet_dp
from poincare_boundary_lab.functions import CallableFunction, FunctionHandle
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
