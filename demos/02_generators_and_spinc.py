"""Walkthrough: generators, connecting domains, and Spin^c classes.

Generators pick one intersection point per curve pair; two generators
x and y lie in the same Spin^c class exactly when eps(x, y), the loop
along the alpha curves from x to y and back along the beta curves,
vanishes in H1(Y).  Then a domain connects them: a 2-chain of regions
that solves the corner system.
"""

from hfcalc import (build_s1s2, build_torus_diagram, enumerate_generators,
                    homogeneous_lattice, homology_of_Y, positive_representative,
                    solve_domain, spinc_partition)

# Lens spaces: every generator sits alone in its class.
for p in (2, 3, 5):
    d = build_torus_diagram(p, 1).diagram
    gens = enumerate_generators(d)
    classes = spinc_partition(d)
    print(f"L({p},1): {len(gens)} generators, {len(classes)} classes, "
          f"H1 order {homology_of_Y(d).order}")

# S1 x S2: one class of two generators joined by a bigon.
d = build_s1s2().diagram
x, y = enumerate_generators(d)
print()
print("corner system for (x, y):", 2 * d.n_vertices, "equations,", d.n_regions,
      "region unknowns")

dom = solve_domain(d, x, y)
print("particular solution:", dict(zip(map(d.canonical_region_name, range(d.n_regions)),
                                       dom.coefficients)))
print("periodic lattice basis:", dom.lattice)
print("(the all-ones vector, the class of the full surface, always lies in it)")

pos = positive_representative(dom)
print("nonnegative representative:", pos.coefficients, "<- the bigon")

# Distinct lens-space generators admit no connecting domain at all.
d31 = build_torus_diagram(3, 1).diagram
g = enumerate_generators(d31)
print()
print("L(3,1) generators x0, x1 connect?", solve_domain(d31, g[0], g[1]) is not None)
print("lattice rank equals 1 + b1:", len(homogeneous_lattice(d)), "=",
      1 + homology_of_Y(d).b1)
