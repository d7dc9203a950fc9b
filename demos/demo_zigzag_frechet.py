"""Finite curve distance does not bound the Frechet distance.

The zigzag construction keeps a second curve inside a fixed deflection band
of the radius while forcing it to revisit anchor points in an order that any
monotone matching must pay for.  Each extra zigzag adds a return leg of
hyperbolic length ~4n, and the discrete Frechet distance grows without bound
even though the band (hence the curve-equivalence budget) never changes.
"""

import math

import numpy as np

from poincare_boundary_lab import curves as cv
from poincare_boundary_lab import geometry as ge

r = 0.5
print(f"deflection band: r/2 = {r/2} around the radius; clearance r/4 = {r/4}\n")

print(f"{'zigzags':>8} {'anchors reach s':>16} {'samples':>8} "
      f"{'max |offset|':>13} {'discrete Frechet':>17}")
for n in range(0, 9):
    g1, g2, mk = cv.build_zigzag_pair(r, n)
    s_last = mk["z_anchors_s"][-1]
    level = cv.zigzag_truncation_level(mk)
    s, t = g2.strip_refine(level)
    df = cv.curve_frechet(g1, g2, level)
    off = math.tanh(float(np.max(np.abs(t))) / 2.0)
    print(f"{n:>8} {s_last:>16.0f} {len(s):>8} {off:>13.4f} {df:>17.4f}")

print("\nThe growth follows the return legs: prefix n must match the visit")
print("z_{n+1} (axial position (n+1)^2) before returning to w_n (position")
print("(n-1)^2 - 1), and a monotone matching pays half that gap:")
for n in (2, 5, 8):
    _, _, mk = cv.build_zigzag_pair(r, n)
    gap = mk["z_anchors_s"][-1] - mk["w_anchors_s"][-1]
    print(f"  n={n}: gap {gap:.0f}, lower bound {gap/2:.1f}")

print("\nmeanwhile every sample of the zigzag curve stays in the band:")
g1, g2, mk = cv.build_zigzag_pair(r, 5)
s, t = g2.strip_refine(80)
band = ge.radius_convert(r / 2.0, "ph_to_h")
print(f"  max |t| = {float(np.max(np.abs(t))):.4f} <= band {band:.4f}")
print("  simple at sample resolution:",
      cv.polyline_is_simple(np.array([complex(a, b) for a, b in g2.vertices])))
