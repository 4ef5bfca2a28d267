"""Walkthrough: layer decomposition and the corner audit.

A nonnegative domain is sliced into nested level surfaces; the corners
of each level are counted from the quadrants around each vertex, and the
audit checks exactly that the layer sum of e + n_x + n_y reproduces the
Maslov index, that single clean layers satisfy chi(F) + concave = mu,
and that n_x - n_y equals the intersection number of the domain's alpha
and beta boundaries.
"""

from hfcalc import (audit_index, build_s1s2, enumerate_generators, maslov_index,
                    positive_representative, solve_domain)

d = build_s1s2().diagram
x, y = enumerate_generators(d)
bigon = positive_representative(solve_domain(d, x, y))

# Stack the full surface on top of the bigon: multiplicities (1,2,1).
coeffs = tuple(c + 1 for c in bigon.coefficients)
print("domain coefficients:", coeffs, " mu =", maslov_index(d, x, y, coeffs))

# The audit counts the corners of each level from the multiplicities of
# the four quadrants around each vertex, and checks the identities.
report = audit_index(d, x, y, coeffs)
for l in report.layers:
    print(f"level {l.level}: regions {tuple(r for r, c in enumerate(coeffs) if c >= l.level)}")
    print(f"   chi = {l.chi} convex = {l.convex} concave = {l.concave} "
          f"boundary degenerate = {l.boundary_degenerate} "
          f"interior degenerate = {l.interior_degenerate} "
          f"auxiliary (signed) = {l.auxiliary_signed} index = {l.index}")
print("layer sum", report.layer_sum, "= mu", report.maslov)
print("n_x - n_y", report.n_x_minus_n_y,
      "= d_alpha D . d_beta D", report.boundary_intersection)

# The zero domain has no layers at all; the full surface alone is a
# closed torus with a single interior degenerate corner.
print()
print("zero domain report:", audit_index(d, x, x, (0,) * d.n_regions).layers)
full = audit_index(d, x, x, (1,) * d.n_regions)
print("full surface: mu =", full.maslov, " interior degenerate occurrences =",
      full.layers[0].interior_degenerate)
