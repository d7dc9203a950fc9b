"""Tour of the disk metrics and Mobius transport.

Shows the three distances side by side, the conversion between the two
radius scales, and why pseudo-hyperbolic geometry is the right currency:
automorphisms move points around without changing their mutual distances.
"""

import numpy as np

from poincare_boundary_lab import geometry as ge

print("distances from 0 to points marching toward the boundary")
print(f"{'x':>10} {'d_ph':>10} {'d_h':>10} {'d_S':>10}")
for x in (0.1, 0.5, 0.9, 0.99, 0.999999):
    print(f"{x:>10} {ge.pseudo_hyperbolic_distance(0, x):>10.5f} "
          f"{ge.hyperbolic_distance(0, x):>10.4f} "
          f"{ge.spherical_distance(0, x):>10.5f}")
print("d_ph saturates below 1, d_h runs off to infinity, d_S is chordal.\n")

print("the two radius scales interconvert exactly:")
for r in (0.25, 0.5, 0.9):
    rp = ge.radius_convert(r, "ph_to_h")
    print(f"  pseudo {r}  <->  hyperbolic {rp:.6f}  "
          f"(back: {ge.radius_convert(rp, 'h_to_ph'):.15f})")

print("\nMobius invariance: distances survive any disk automorphism")
rng = np.random.default_rng(0)
m = ge.MobiusAutomorphism(0.55 - 0.2j, 1.1)
z = 0.8 * np.sqrt(rng.uniform(0, 1, 5)) * np.exp(2j * np.pi * rng.uniform(size=5))
w = 0.8 * np.sqrt(rng.uniform(0, 1, 5)) * np.exp(2j * np.pi * rng.uniform(size=5))
before = ge.pseudo_hyperbolic_distance_array(z, w)
after = ge.pseudo_hyperbolic_distance_array(m.apply(z), m.apply(w))
for b, a in zip(before, after):
    print(f"  {b:.12f} -> {a:.12f}")

print("\npseudo-hyperbolic disks are automorphism images of centered disks:")
print("  sampled check for w=0.6, r=0.3:",
      ge.disk_image_check(0.6, 0.3, 10_000, seed=1))

print("\naxial coordinates stay exact where complex doubles saturate:")
s, t = 90.0, 0.25
print(f"  point at axial position s={s}, offset t={t}:")
print(f"  1-|z| = {float(ge.strip_depth(s, t)):.3e} "
      f"(complex chart would round |z| to 1.0)")
print(f"  distance to the axis point at s=80: "
      f"{float(ge.strip_distance(s, t, 80.0, 0.0)):.6f}")
