"""Curve classes at a boundary point: who is at finite distance from whom.

Non-tangential curves (radius, chords, hypercycles) ending at the same
boundary point all sit inside each other's inflated deflection regions, so
their truncated directed distances plateau.  A tangent horocycle runs away
from all of them: the directed distance grows with every truncation level.
"""

import math

from poincare_boundary_lab import curves as cv

rad = cv.canonical_curve("radius", 0.0)
chords = [cv.canonical_curve("chord", 0.0, a) for a in (math.pi / 6, -math.pi / 4)]
hypers = [cv.canonical_curve("hypercycle", 0.0, y) for y in (0.5, -0.3)]
hor = cv.canonical_curve("horocycle", 0.0)

print("directed distance radius -> chord(pi/6) by truncation level")
ch = chords[0]
for k in range(2, 13, 2):
    print(f"  level {k:2d}: {cv.directed_curve_distance(rad, ch, k):.6f}")
print("The sequence settles: the chord lives in a fixed inflation of the radius.\n")

print("directed distance radius -> horocycle by truncation level")
for k in range(2, 13, 2):
    print(f"  level {k:2d}: {cv.directed_curve_distance(rad, hor, k):.4f}")
print("Steady growth: no fixed deflection region over the radius contains it.\n")

family = {"radius": rad, "chord(pi/6)": chords[0], "chord(-pi/4)": chords[1],
          "hyper(+0.5)": hypers[0], "hyper(-0.3)": hypers[1], "horocycle": hor}
names = list(family)
print("pairwise verdicts (max over both directed distances, levels 1..12):")
width = max(len(n) for n in names)
for i, a in enumerate(names):
    for b in names[i + 1:]:
        v = cv.are_equivalent(family[a], family[b], 12)
        print(f"  {a:<{width}} | {b:<{width}} -> {v.verdict}"
              f"  (last value {v.values[-1]:.3f})")

print("\nregion inclusion made quantitative: if the radius sits within r of")
print("the chord, its r1-angle sits inside the chord's (r1 + r)-angle:")
r = cv.directed_curve_distance(rad, chords[0], 8)
print("  measured r =", round(r, 4))
print("  inclusion with the full budget:",
      cv.angle_inclusion_check(rad, chords[0], r, 1.0, 800, level=8, seed=3))
print("  inclusion with half the budget:",
      cv.angle_inclusion_check(rad, chords[0], r, 1.0, 800, level=8, seed=3,
                               r2=1.0 + r / 2.0))
