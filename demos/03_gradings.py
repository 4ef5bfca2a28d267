"""Walkthrough: measures, the Maslov index, and relative gradings.

Everything is exact: Euler and point measures are quarter-integers held
as Fractions, the index of a genuine connecting domain is an integer,
and the relative grading lives in Z or Z/d depending on the class.
"""

from hfcalc import (build_s1s2, enumerate_generators, euler_measure, generator_measure,
                    gr0_of_theta, grading_table, load_diagram, maslov_index,
                    positive_representative, relative_grading, solve_domain,
                    spinc_partition, theta_and_shift)

d = build_s1s2().diagram
x, y = enumerate_generators(d)
bigon = positive_representative(solve_domain(d, x, y))

print("the connecting bigon:")
print("  e   =", euler_measure(d, bigon))
print("  n_x =", generator_measure(d, bigon, x))
print("  n_y =", generator_measure(d, bigon, y))
print("  mu  =", maslov_index(d, x, y, bigon))
print("  gr(x, y) =", relative_grading(d, x, y), "(basepoint away from the bigon)")

print()
print("grading table (offsets relative to each class anchor):")
for g, label in grading_table(d):
    mod = f" mod {label.modulus}" if label.modulus else ""
    print(f"  {g.display(d)}: class {label.spinc}, offset {label.offset}{mod}")

# A diagram with the other circle pairing has a class of divisibility 2:
# the relative grading is only defined modulo 2 there.
D2 = """heegaard v1
genus: 1
alpha a0: x0+ x1-
beta  b0: x0 x1
basepoint: a0 x1 left-after
region rA: genus=0 circles=a0.0+ a0.1-
"""
d2 = load_diagram(D2)
cls = spinc_partition(d2)[0]
print()
print("same curves, other pairing: divisibility", cls.divisibility,
      "-> gradings live in Z/2")

# Quarter-integer shift arithmetic for the absolute grading.
theta, shift = theta_and_shift(0, 2, 0)
print()
print("theta(c1^2=0, chi=2, sigma=0) =", theta, " shift =", shift)
print("gr0 at theta = -2 (the 4-ball):", gr0_of_theta(-2))
