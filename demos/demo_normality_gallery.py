"""Normality along curves, read off from the density (1-|z|^2) f#(z).

Bounded sups mean the renormalized family along the curve is normal; sup
blow-up pins down exactly where that fails.  The gallery shows every
behavior: the identity and a disk automorphism cap at the conformal bound 1,
a bounded exponential stays quiet, the pole series is normal along the
radius because its poles march just outside the deflection band, and the
square-exponential diverges inside the band despite decaying super-fast on
the radius itself.
"""

from poincare_boundary_lab import analysis as an
from poincare_boundary_lab import curves as cv
from poincare_boundary_lab import functions as fn
from poincare_boundary_lab import geometry as ge

rad = cv.canonical_curve("radius", 0.0)
band = cv.CurvilinearAngle(rad, 0.5)
sch = fn.PoleSchedule.default()

cases = [
    fn.identity_function(),
    fn.automorphism_function(ge.mobius_translation(0.3)),
    fn.gallery("saginjan_h"),
    fn.RationalPoleFunction(sch),
    fn.gallery("square_exp"),
]

print("normality sups over the deflection band r=0.5 of the radius\n")
for f in cases:
    rep = an.normality_sup(f, band, 12)
    tail = ", ".join(f"{v:.3g}" for v in rep.sups[-4:])
    print(f"{f.label:<22} verdict={rep.verdict:<10} sup tail: {tail}")

print("\nblow-up indicators at the pole sequence of the series:")
f0 = fn.RationalPoleFunction(sch)
ind = an.pseq_indicator_local_sup(f0, sch.pole_points[:8],
                                  sch.hyperbolic_diameters[:8])
print("  local sups:", ", ".join(f"{v:.3g}" for v in ind.values))
print("  verdict:", ind.verdict)

probes = sch.pole_points[:8] + sch.radii[:8] ** 2 * 1e-3
pt = an.pseq_indicator_pointwise(f0, probes)
print("  pointwise at pole-adjacent probes:", pt.verdict,
      "(crossed thresholds:", pt.details["crossed_at"], ")")

print("\nthe split-pair route: bounded values and blow-up values at merging")
print("points force the blow-up verdict on both sequences:")
seq_a = sch.pole_points[:9] + sch.radii[:9]
seq_b = sch.pole_points[:9] + sch.radii[:9] ** 2 * 1e-3
import numpy as np
alpha = complex(f0.eval_array(np.array([seq_a[-1]]))[0])
sp = an.pseq_indicator_split_pair(f0, seq_a, seq_b, alpha, 0.5)
print("  verdict:", sp.verdict, "| hypotheses:",
      {k: sp.details[k] for k in
       ("converges_along_a", "separated_along_b", "pairs_merge")})
