"""A tour of the support-function calculus.

Bodies are sampled support functions on a uniform angular grid, so the
Minkowski algebra is pointwise arithmetic and the area functionals are
those of the sampled polygon, quadratic forms in the samples.  This script
builds a few bodies and prints the quantities the rest of the package is
built on.
"""

import numpy as np

from setflow import (area, hausdorff_distance, hukuhara_difference, make_ball,
                     make_polygon, make_segment, minkowski_add, mixed_area,
                     mixed_area_report, perimeter, scale, steiner_fit)

disc = make_ball(1.0)
square = make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
segment = make_segment(4.0)

print("unit disc:    area %.6f  perimeter %.6f" % (area(disc), perimeter(disc)))
print("unit square:  area %.6f  perimeter %.6f" % (area(square), perimeter(square)))
print("segment(4):   area %.6f  (degenerate bodies are first-class)" % area(segment))

sausage = minkowski_add(square, disc)
print("\nsquare + disc: area %.6f  (exact value 5 + pi = %.6f)"
      % (area(sausage), 5 + np.pi))

print("\nquadratic structure of area(square + rho * disc):")
c0, c1, c2 = steiner_fit(square, disc, [0.0, 0.5, 1.0, 1.5])
print("  fitted  %.6f + %.6f rho + %.6f rho^2" % (c0, c1, c2))
print("  mixed area V[square, disc] = %.6f  (= c1 / 2)" % mixed_area(square, disc))

rep = mixed_area_report(square, disc)
print("  isoperimetric slack V[u,v]^2 - V[u] V[v] = %.6f (nonnegative)" % rep.bm_slack)

print("\nHausdorff distances:")
print("  d(disc, 2 disc)      = %.6f" % hausdorff_distance(disc, scale(disc, 2.0)))
print("  d(square, square)    = %.6f" % hausdorff_distance(square, square))

print("\nHukuhara differences (w with u = v + w, when it exists):")
w = hukuhara_difference(scale(disc, 2.0), disc)
print("  2 disc - disc -> area %.6f" % area(w))
print("  disc - 2 disc ->", hukuhara_difference(disc, scale(disc, 2.0)))
print("  square - small disc ->", hukuhara_difference(square, make_ball(0.3)))
