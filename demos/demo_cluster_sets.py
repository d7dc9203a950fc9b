"""Cluster sets and renormalized families agree about boundary values.

Two independent estimates of the boundary value along a region: (1) sample
the function on shells closing in on the endpoint and watch the spherical
spread collapse, (2) renormalize the function by automorphisms centered on a
sequence marching along the curve and watch it flatten to a constant.  The
damped pole series converges to 0 along every deflection band of the radius,
yet the region that also swallows the pole disks keeps both 0 and infinity
in every shell: no enlargement of the bands carries a single boundary value.
"""

import numpy as np

from poincare_boundary_lab import analysis as an
from poincare_boundary_lab import functions as fn
from poincare_boundary_lab import geometry as ge

sch = fn.PoleSchedule.default()
f1 = fn.RationalPoleFunction(sch, damped=True)

print("cluster estimate for the damped pole series on the band r=0.5:")
member = an.radial_angle_membership(0.5, 0.0)
cl = an.cluster_estimate(f1, member, 0.0, range(2, 15), seed=1,
                         record_values=False)
for sh, d in zip(cl.shells[-5:], cl.diameters[-5:]):
    print(f"  shell {sh['shell']:>2}: {sh['n']:>4} samples, "
          f"spherical diameter {d:.2e}")
c = cl.limit_candidate
print("  verdict:", cl.verdict, " candidate:", c if c is None else [c.real, c.imag])

print("\nrenormalized family along the radius, target 0:")
ws = [1 - 2.0 ** (-k) for k in range(1, 15)]
fam = an.renormalized_family_check(f1, ws, 0.5, 0.0)
print("  sup d_S per depth:", ", ".join(f"{v:.1e}" for v in fam.sup_ds[-6:]))
print("  verdict:", fam.verdict)

print("\nsame function on the region that includes the pole disks:")
poles, radii = sch.pole_points, sch.radii


def member_region(z):
    z = np.asarray(z, complex)
    d = np.abs(z[:, None] - poles[None, :])
    return member(z) | np.any(d <= radii[None, :], axis=1)


extra = {}
for zj in poles:
    for k in range(2, 11):
        if 2.0 ** (-k - 1) <= abs(zj - 1) < 2.0 ** (-k):
            extra.setdefault(k, []).append(zj)

cl2 = an.cluster_estimate(f1, member_region, 0.0, range(2, 11), seed=2,
                          extra_points=extra)
print(f"{'shell':>6} {'n':>5} {'min d_S to 0':>13} {'min d_S to inf':>15}")
for sh in cl2.shells:
    arr = np.asarray(sh.get("values", []), dtype=complex)
    d0 = ge.spherical_distance_array(arr, np.zeros(len(arr)))
    di = ge.spherical_distance_array(arr, np.full(len(arr), np.inf))
    print(f"{sh['shell']:>6} {sh['n']:>5} {float(np.min(d0)):>13.2e} "
          f"{float(np.min(di)):>15.2e}")
print("verdict:", cl2.verdict, "- both values persist in every shell.")
