"""Evaluatable meromorphic functions on the disk and the constructed gallery.

A FunctionHandle packages vectorized evaluation and one way to produce the
spherical derivative f# = |f'| / (1 + |f|^2).  Handles with a closed-form
derivative get that formula from the base class; the pole series sets
1/|residue| at its poles itself.  Functions built from exponential towers
f = exp(L) carry log-scale forms instead (log|f| and log|L'|), so f#
survives |log|f|| far beyond double range; a point value saturates to
0 / infinity with a flag.

The gallery holds the closed-form probe functions; RationalPoleFunction is
the truncated series  sum_k eps_k^2 / (z - z_k)  over a pole schedule whose
poles march to the boundary point 1 along the two boundary arcs of
deflection regions of growing radius, optionally damped by the factor
(z - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import _PRODUCT_BLOCK_CELLS, _spec_number
from .geometry import (
    MobiusAutomorphism,
    as_disk_points,
    radius_convert,
    strip_depth,
    strip_to_disk,
)

LOG_SATURATION = 700.0        # |log|f|| beyond this: saturate to 0 / infinity
POLE_SNAP = 1e-12             # closer than this to a pole counts as the pole


class EvaluationError(RuntimeError):
    """Raised when a function value cannot be computed in any scale."""


def _spherical_derivative(v, d):
    """|d| / (1 + |v|^2) for values v and derivatives d; nan where v is nan
    or infinite."""
    av = np.abs(v)
    out = np.full(av.shape, np.nan)
    small = av <= 1.0
    out[small] = np.abs(d[small]) / (1.0 + av[small] ** 2)
    big = (~small) & np.isfinite(av)
    if np.any(big):
        q = np.abs(d[big] / v[big])
        out[big] = q / (av[big] + 1.0 / av[big])
    return out


class FunctionHandle:
    """Base class; subclasses provide eval_array and deriv_array, or
    override sph_array."""

    label = "function"

    def eval_array(self, z):
        raise NotImplementedError

    def deriv_array(self, z):
        raise NotImplementedError

    def log_abs_array(self, z):
        v = self.eval_array(z)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(v))

    def log_sph_array(self, z):
        """log f#; -inf where f# vanishes, nan where evaluation fails."""
        with np.errstate(divide="ignore"):
            return np.log(self.sph_array(z))

    def sph_array(self, z):
        """Vectorized spherical derivative; nan marks evaluation failure."""
        z = np.asarray(z, dtype=complex)
        return _spherical_derivative(self.eval_array(z), self.deriv_array(z))

    def eval(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(f(z), saturated) at disk points z, checked once: a value that is
        not finite is infinity, and a NaN value fails, naming the first such
        point; only a LogScaleFunction flags values as saturated (clamped to
        0 or infinity)."""
        zv = as_disk_points(z)
        v = self.eval_array(zv)
        failed = np.isnan(v)
        if np.any(failed):
            bad = complex(zv.flat[np.argmax(failed)])
            raise EvaluationError(f"{self.label} failed to evaluate at {bad!r}")
        return v, np.zeros(v.shape, dtype=bool)

    def __repr__(self):
        return f"<FunctionHandle {self.label}>"


class CallableFunction(FunctionHandle):
    def __init__(self, label, fn, dfn):
        self.label = label
        self._fn = fn
        self._dfn = dfn

    def eval_array(self, z):
        return self._fn(np.asarray(z, dtype=complex))

    def deriv_array(self, z):
        return self._dfn(np.asarray(z, dtype=complex))


def identity_function() -> FunctionHandle:
    return CallableFunction("identity", lambda z: z, lambda z: np.ones_like(z))


def constant_function(c) -> FunctionHandle:
    cv = complex(c)
    return CallableFunction(f"constant:{_spec_number(cv.real)},{_spec_number(cv.imag)}",
                            lambda z: np.full_like(z, cv),
                            lambda z: np.zeros_like(z))


def automorphism_function(m: MobiusAutomorphism) -> FunctionHandle:
    w = m.center
    tau = m.tau
    scale = complex(np.exp(1j * tau)) * (1.0 - abs(w) ** 2)

    def dfn(z):
        return scale / (1.0 + z * np.conj(w)) ** 2

    return CallableFunction(f"automorphism:{_spec_number(w.real)},{_spec_number(w.imag)}",
                            m.apply, dfn)


# ---------------------------------------------------------------------------
# normality density


def lehto_virtanen_array(f: FunctionHandle, z) -> np.ndarray:
    """(1 - |z|^2) f#(z), the normality density."""
    z = np.asarray(z, dtype=complex)
    return (1.0 - np.abs(z) ** 2) * f.sph_array(z)


def log_lehto_virtanen_array(f: FunctionHandle, z) -> np.ndarray:
    """log of the normality density; comparable even where the density
    underflows doubles (the search objective for sup refinement)."""
    z = np.asarray(z, dtype=complex)
    a = np.abs(z)
    with np.errstate(divide="ignore"):
        base = np.log1p(-a) + np.log1p(a)
    return base + f.log_sph_array(z)


# ---------------------------------------------------------------------------
# pole schedules and the constructed series

MIN_POLES = 10   # the smallest count whose default schedule passes validate
MAX_POLES = 52   # the largest count whose default schedule passes validate


@dataclass
class PoleSchedule:
    """Pole positions marching to 1 along the two boundary arcs of deflection
    regions of radius r_m (pseudo-hyperbolic), with disk radii eps_k around
    them.  The construction constraints are checked, not assumed: eps
    strictly decreasing to 0, the disks pairwise disjoint, hyperbolic disk
    diameters shrinking to 0, and sum eps_k finite.
    """

    pole_points: np.ndarray          # complex, pole k at index k-1
    radii: np.ndarray                # eps_k
    deflections: np.ndarray          # r_m, increasing to 1
    pole_strip: np.ndarray           # (k, 2) axial coordinates (s, t)
    hyperbolic_diameters: np.ndarray = field(init=False)

    def __post_init__(self):
        self.hyperbolic_diameters = self._disk_diameters()
        self.validate()

    def _disk_diameters(self):
        # |z - z_k| < eps_k is the pseudo-hyperbolic disk about z_k of radius
        # eps_k / ((1 - |z_k|^2) - eps_k |z_k|), doubled in d_h; inf where
        # the disk reaches the circle
        d = strip_depth(*self.pole_strip.T)   # 1 - |z_k|
        den, eps = d * (2.0 - d) - self.radii * (1.0 - d), self.radii
        return np.where(den > eps, 4.0 * np.arctanh(eps / np.where(den > eps, den, np.inf)),
                        np.inf)

    def validate(self) -> dict:
        eps = self.radii
        checks = {
            "radii_strictly_decreasing": bool(np.all(np.diff(eps) < 0)),
            "radii_vanishing": bool(eps[-1] < eps[0] * 1e-3),
            "radii_summable": bool(np.all(eps[1:] / eps[:-1] <= 0.5)),
            "deflections_increasing": bool(np.all(np.diff(self.deflections) > 0)
                                           and np.all(self.deflections < 1.0)),
            # distances to the endpoint shrink; lag 4 spans the alternation
            # between the two boundary arcs and the deflection growth
            "poles_converge": bool(
                np.all(dist_end[4:] < dist_end[:-4])
                and dist_end[-1] < dist_end[0] * 0.05
                if len(dist_end := np.abs(self.pole_points - 1.0)) > 4
                else dist_end[-1] < dist_end[0]),
        }
        z = self.pole_points
        sep = np.abs(z[:, None] - z[None, :])
        need = eps[:, None] + eps[None, :]
        np.fill_diagonal(sep, np.inf)
        checks["disks_disjoint"] = bool(np.all(sep > need))
        dia = self.hyperbolic_diameters
        checks["hyperbolic_diameters_vanishing"] = bool(
            dia[-1] < dia[0] * 1e-2 and dia[-1] < 1e-2)
        if not all(checks.values()):
            bad = [k for k, v in checks.items() if not v]
            raise ValueError(f"pole schedule violates: {bad}")
        return checks

    @classmethod
    def default(cls, count: int = 20) -> "PoleSchedule":
        """r_m = 1 - 2^{-m}, eps_k = 4^{-k}, pole k at depth ~2^{-k} on the
        upper arc for even k, lower for odd k."""
        if count < MIN_POLES:
            raise ValueError(f"pole schedule needs K >= {MIN_POLES}, got K = {count}")
        if count > MAX_POLES:
            raise ValueError(f"pole schedule needs K <= {MAX_POLES}, got K = {count}")
        ks = np.arange(1, count + 1)
        ms = (ks + 1) // 2
        r_m = 1.0 - 0.5 ** np.arange(1, ms[-1] + 1)
        eps = 0.25 ** ks
        t = np.array([radius_convert(r_m[m - 1], "ph_to_h")
                      * (1.0 if k % 2 == 0 else -1.0) for k, m in zip(ks, ms)])
        target = np.array([0.5 ** int(k) for k in ks])
        # all poles bisect in lockstep, each with its own midpoints
        lo, hi = np.zeros(count), np.full(count, 60.0)
        for _ in range(80):   # strip_depth decreases in s
            mid = 0.5 * (lo + hi)
            deeper = strip_depth(mid, t) > target
            lo, hi = np.where(deeper, mid, lo), np.where(deeper, hi, mid)
        s = 0.5 * (lo + hi)
        return cls(strip_to_disk(s, t), eps, r_m, np.column_stack([s, t]))


class RationalPoleFunction(FunctionHandle):
    """Truncated series sum_{k<=K} eps_k^2 / (z - z_k) over the K poles of
    the schedule; damped, it is multiplied by (z - 1): same poles, and a
    boundary factor forcing the value 0 along the deflection regions."""

    def __init__(self, schedule: PoleSchedule, damped: bool = False):
        self.damped = damped
        self.schedule = schedule
        label = f"pole_series:{len(schedule.pole_points)}"
        self.label = f"damped_{label}" if damped else label
        self.pole_points = schedule.pole_points
        self.coeffs = (schedule.radii ** 2).astype(float)
        self.pole_residues = self.coeffs * (self.pole_points - 1.0) if damped \
            else self.coeffs.astype(complex)

    def _series(self, z, deriv: bool):
        """(f, f' or None, where z is within POLE_SNAP of a pole, the index of
        that pole), infinity at a pole.  The offsets z - z_k are taken a block
        of points at a time, at most _PRODUCT_BLOCK_CELLS of them (or one
        row), in buffers allocated once a call: each point's sum, min |u| and
        argmin are the same reductions of the same K doubles as over one
        (N, K) array, which a 2e4-point normality bulk pass no longer holds."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        n, count = len(flat), len(self.pole_points)
        rows = max(1, _PRODUCT_BLOCK_CELLS // count)
        u, terms = np.empty((2, min(rows, n), count), dtype=complex)
        mag = np.empty(u.shape)
        v = np.empty(n, dtype=complex)
        d = np.empty(n, dtype=complex) if deriv else None
        hit = np.empty(n, dtype=bool)
        nearest = [np.zeros(0, dtype=np.intp)]   # each hit's pole, in hit order
        for i in range(0, n, rows):
            j = min(i + rows, n)
            ub, tb, mb = u[:j - i], terms[:j - i], mag[:j - i]
            np.subtract(flat[i:j, None], self.pole_points, out=ub)
            h = np.less(np.min(np.abs(ub, out=mb), axis=-1), POLE_SNAP, out=hit[i:j])
            nearest.append(np.argmin(mb[h], axis=-1))
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(self.coeffs, ub, out=tb)
            np.sum(tb, axis=-1, out=v[i:j])
            if deriv:
                # -coeffs / u ** 2 bit for bit, in the buffers already held
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(-self.coeffs, np.square(ub, out=ub), out=tb)
                np.sum(tb, axis=-1, out=d[i:j])
        v[hit] = np.inf + 0j
        if deriv:
            d[hit] = np.inf + 0j
        nearest = np.concatenate(nearest)
        if self.damped:
            w = flat - 1.0
            if deriv:
                with np.errstate(invalid="ignore"):  # at a pole inf - inf; set to inf below
                    dw = d * w + v
                dw[~(np.isfinite(v) & np.isfinite(d))] = np.inf + 0j
                d = dw
            vw = v * w
            vw[~np.isfinite(v)] = np.inf + 0j
            v = vw
        shape = z.shape
        return (v.reshape(shape), d if d is None else d.reshape(shape),
                hit.reshape(shape), nearest)

    def eval_array(self, z):
        return self._series(z, False)[0]

    def deriv_array(self, z):
        return self._series(z, True)[1]

    def sph_array(self, z):
        v, d, hit, nearest = self._series(z, True)
        out = _spherical_derivative(v, d)
        out[hit] = 1.0 / np.abs(self.pole_residues[nearest])
        return out


# ---------------------------------------------------------------------------
# gallery of exponential-tower probes (log-scale evaluation)


class LogScaleFunction(FunctionHandle):
    """f = exp(L(z)) with explicit log-magnitude forms; saturating eval.

    log_deriv_factor = log|L'| stays finite even where Re L overflows to
    +-inf, which keeps the spherical derivative computable at any depth:
    log f# = log|L'| + (Re L - log(1 + e^{2 Re L})), the only form f# takes.
    `log_abs` (Re L) defaults to Re log_complex; pass one that cannot overflow.
    """

    def __init__(self, label, log_complex, log_deriv_factor, log_abs=None):
        self.label = label
        self._logc = log_complex               # L(z), may overflow to inf parts
        self._log_deriv_factor = log_deriv_factor   # log |L'|, always finite
        self._log_abs = log_abs or (lambda z: np.real(log_complex(z)))

    def eval_array(self, z):
        z = np.asarray(z, dtype=complex)
        lm = self._log_abs(z)
        out = np.empty(z.shape, dtype=complex)
        sat_lo = lm < -LOG_SATURATION
        sat_hi = lm > LOG_SATURATION
        ok = ~(sat_lo | sat_hi)
        if np.any(ok):
            out[ok] = np.exp(self._logc(z[ok]))
        out[sat_lo] = 0.0
        out[sat_hi] = np.inf
        return out

    def eval(self, z) -> tuple[np.ndarray, np.ndarray]:
        v, _ = super().eval(z)
        return v, np.abs(self.log_abs_array(z)) > LOG_SATURATION

    def log_abs_array(self, z):
        return self._log_abs(np.asarray(z, dtype=complex))

    def log_sph_array(self, z):
        z = np.asarray(z, dtype=complex)
        lm = self._log_abs(z)
        lp = self._log_deriv_factor(z)
        # lm - log(1 + e^{2 lm}) -> -|lm| in both tails; finite at any depth
        tail = np.abs(lm) > 350.0
        with np.errstate(invalid="ignore", over="ignore"):
            mid = lm - np.logaddexp(0.0, 2.0 * lm)
        return lp + np.where(tail, -np.abs(lm), mid)

    def sph_array(self, z):
        with np.errstate(invalid="ignore"):
            return np.exp(self.log_sph_array(z))


def _gavrilov() -> FunctionHandle:
    # f = exp(-exp(1/(1-z)))
    def E(z):
        return 1.0 / (1.0 - z)

    def log_abs(z):
        e = E(z)
        c = np.cos(e.imag)
        with np.errstate(divide="ignore", over="ignore"):
            mag = np.exp(e.real + np.log(np.abs(c)))
        return -np.sign(c) * mag

    def logc(z):
        return -np.exp(E(z))

    def log_deriv_factor(z):
        e = E(z)
        return e.real - 2.0 * np.log(np.abs(1.0 - z))

    return LogScaleFunction("gavrilov_g", logc, log_deriv_factor, log_abs)


def _saginjan() -> FunctionHandle:
    # f = exp(-1/(1-z))
    def logc(z):
        return -1.0 / (1.0 - z)

    def log_deriv_factor(z):
        return -2.0 * np.log(np.abs(1.0 - z))

    return LogScaleFunction("saginjan_h", logc, log_deriv_factor)


def _square_exp() -> FunctionHandle:
    # f = exp(-(1-z)^{-2})
    def logc(z):
        return -(1.0 - z) ** -2.0

    def log_deriv_factor(z):
        return math.log(2.0) - 3.0 * np.log(np.abs(1.0 - z))

    return LogScaleFunction("square_exp", logc, log_deriv_factor)


_GALLERY = {
    "gavrilov_g": _gavrilov,
    "saginjan_h": _saginjan,
    "square_exp": _square_exp,
}


def gallery(name: str) -> FunctionHandle:
    """Closed-form probe functions addressable by name."""
    try:
        return _GALLERY[name]()
    except KeyError:
        raise ValueError(f"unknown gallery function {name!r}; "
                         f"choices: {sorted(_GALLERY)}") from None


def gallery_names() -> list[str]:
    return sorted(_GALLERY)
