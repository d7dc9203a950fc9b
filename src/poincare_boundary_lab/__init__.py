"""poincare-boundary-lab: boundary behavior of functions on the unit disk.

Modules:

* geometry  - metrics, Mobius automorphisms, axial coordinates
* curves    - boundary-terminating curves, curvilinear angles, equivalence,
              discrete Frechet distance, the zigzag counterexample pair
* functions - evaluatable meromorphic functions and the constructed gallery
* analysis  - normality along curves, blow-up indicators, cluster sets,
              renormalized families
* stolz     - Stolz angles, the sector-to-disk conformal map, distortion
              bounds, decay-margin checks
* cli       - batch front end emitting JSON reports
* selftest  - the acceptance battery shared by the CLI and pytest
"""

__version__ = "0.1.0"
