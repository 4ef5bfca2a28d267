"""Walkthrough: describing a Heegaard diagram and tracing its faces.

A diagram file lists each curve as a cyclic vertex sequence; crossing
signs on the alpha listing fix the rotation system, and face tracing
recovers the complement regions.  Run with ``python demos/01_diagrams_and_faces.py``.
"""

from hfcalc import load_diagram, parse_diagram, serialize, trace_faces

# The standard genus-1 picture of the three-sphere: one crossing, whose
# complement is a single square region.
S3 = """heegaard v1
genus: 1
alpha a0: x0+
beta  b0: x0
basepoint: a0 x0 left-after
"""

inp = parse_diagram(S3)
print("parsed: genus", inp.genus, "alpha", inp.alpha, "beta", inp.beta)

circles = trace_faces(inp)
print("traced circles:", circles)
print("-> one circle of length four: the square, every arc side used once")

d = load_diagram(S3)
print("regions:", [(r.label, r.genus, len(r.faces)) for r in d.regions])
# The regions of the four quadrants at x0, in rotation order: all four
# are the one square.
print("quadrants at x0:", d.quadrants[d.vertex_id("x0")])

# A lens-space diagram: three crossings, all positive, three squares.
L31 = """heegaard v1
genus: 1
alpha a0: x0+ x1+ x2+
beta  b0: x0 x2 x1
basepoint: a0 x0 right-after
"""
d31 = load_diagram(L31)
print()
print("lens diagram: V =", d31.n_vertices, " E =", d31.n_arcs,
      " regions =", d31.n_regions)
print("Euler check: V - E + sum chi =",
      d31.n_vertices - d31.n_arcs + sum(r.chi for r in d31.regions),
      "= 2 - 2g for g = 1")

# Non-disk regions are grouped by explicit directives.  The S1 x S2
# diagram needs an annulus (two traced circles in a single region).
S1S2 = """heegaard v1
genus: 1
alpha a0: x0+ x1-
beta  b0: x0 x1
basepoint: a0 x1 left-after
region rA: genus=0 circles=a0.0- a0.1+
"""
ds = load_diagram(S1S2)
print()
print("S1xS2 regions:", [(ds.canonical_region_name(r.index), r.genus, len(r.faces))
                         for r in ds.regions])
print("basepoint region:", ds.canonical_region_name(ds.basepoint_region))

# Serialization is canonical: curves sorted, cycles rotated, directives
# only for the non-default regions.  Re-parsing is a fixed point.
text = serialize(ds)
print()
print("canonical form:")
print(text)
assert serialize(load_diagram(text)) == text
