"""The sector-to-disk map and decay-rate margins for uniqueness hypotheses.

The conformal map of a Stolz angle onto the disk comes as a seven-step
composition; its rational simplification and the composition agree to float
precision, with the boundary correspondences pinning the normalization.
The distortion estimate (1-|omega|) ~ (1-|z|)^{pi/(2 alpha)} quantifies how
sub-sectors see boundary depth through the map.

Decay margins compare -log|f| along a curve against p(1-|z|)/(1-|z|)^e.  The
slow exponential exp(-1/(1-z)) satisfies the bound only down to the depth
where the profile overtakes 1 and violates it below: the hypothesis of the
vanishing theorem cannot be weakened.  The square-exponential satisfies the
super-exponential bound exactly along the radius while its normality sup
diverges on any deflection band: the normality hypothesis carries the load.
"""

import math

import numpy as np

from poincare_boundary_lab import analysis as an
from poincare_boundary_lab import curves as cv
from poincare_boundary_lab import functions as fn
from poincare_boundary_lab import stolz as st

alpha = math.pi / 4
m = st.StolzAngle(alpha)
print(f"sector half-angle {alpha:.4f}, admissible radius rho = {m.rho}")
print(f"  map at 1 - rho: {m.apply(1 - m.rho + 1e-13):.6f}")
print(f"  map near 1:     {m.apply(1 - 1e-9):.12f}")
z = m.sample(2000, seed=0, margin=1e-9)
w = m.forward_steps(z)
print(f"  composition vs rational form: "
      f"{float(np.max(np.abs(w - m.closed_form(z)))):.2e}")
print(f"  inverse round trip:           "
      f"{float(np.max(np.abs(m.invert(w) - z))):.2e}")

print("\ndistortion constants for image sub-sectors:")
for beta in (math.pi / 6, math.pi / 4):
    mh, Mh, ok = st.stolz_distortion_bounds(alpha, beta, 10_000, seed=0)
    print(f"  beta={beta:.4f}: ratio in [{mh:.4f}, {Mh:.4f}], holdout pass={ok}")

print("\ndecay margins along the radius:")
rad = cv.canonical_curve("radius", 0.0)
h = fn.gallery("saginjan_h")
rep = st.decay_margin(h, rad, st.DecayProfile.log_form(shift=1.0), 12)
print(f"  slow exponential vs log(1 + 1/t)/t: {rep.verdict}, "
      f"threshold 1-|z| = {rep.violation_threshold:.9f} "
      f"(analytic 1/(e-1) = {1/(math.e-1):.9f})")

sq = fn.gallery("square_exp")
rep2 = st.decay_margin(sq, rad, st.DecayProfile.super_exponential(1), 12)
sup = an.normality_sup(sq, cv.CurvilinearAngle(rad, 0.5), 14)
print(f"  square-exponential vs exp(-1/t^2): {rep2.verdict}")
print(f"  its normality sup on the band r=0.5: {sup.verdict} "
      f"(tail {', '.join(f'{v:.2g}' for v in sup.sups[-3:])})")

print("\nthe extended region for tangent curves joins the band and the lens:")
g = st.GRegion(0.3, math.pi / 6, 0.5)
for label, p in [("radius point", 1 - g.rho / 2),
                 ("tangent-curve point", complex(g.curve.refine(6)[8])),
                 ("far point", -0.5 + 0.5j)]:
    print(f"  {label:<20} -> {st.g_region_contains(g, p, 8)}")
