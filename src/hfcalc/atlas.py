"""Programmatic builders for benchmark diagrams and stabilization.

All builders emit canonical vertex names (x0, x1, ...) and validate their
output through the full assembly pipeline, so the results are
reproducible byte for byte via ``diagram.serialize``.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .diagram import (CurveSystemInput, HeegaardDiagram, RegionDirective,
                      assemble_regions, load_diagram)
from .grading import Generator, enumerate_generators


class MarkedDiagram(NamedTuple):
    """A built diagram with optional marked contact generator.

    The contact generator, when present, selects the unique interior
    intersection of each arc with its push-off in an open-book diagram;
    ``provenance`` records the builder and its parameters.
    """

    diagram: HeegaardDiagram
    contact_generator: Generator | None
    provenance: str


def build_torus_diagram(p: int, q: int) -> MarkedDiagram:
    """Genus-1 diagram whose beta curve winds p times across the alpha curve.

    The alpha curve is a (1,0) curve with vertices x0..x(p-1) in order;
    the beta curve visits x((-q*k) mod p) for k = 0..p-1, and all
    crossings are positive.  The resulting manifold is the lens space
    with H1 of order p (the three-sphere for p = 1).  Requires p >= 1 and
    gcd(p, q) = 1.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got ({p}, {q})")
    alpha = " ".join(f"x{j}+" for j in range(p))
    beta = " ".join(f"x{(-q * k) % p}" for k in range(p))
    text = (f"heegaard v1\ngenus: 1\nalpha a0: {alpha}\nbeta  b0: {beta}\n"
            f"basepoint: a0 x0 right-after\n")
    return MarkedDiagram(load_diagram(text), None, f"torus({p},{q})")


def build_s1s2() -> MarkedDiagram:
    """The two-vertex diagram of S1 x S2 with a connecting bigon.

    The complement of the curves is a bigon, a second two-cornered disk,
    and an annulus (one region with two boundary circles, supplied by a
    region directive).  The basepoint sits in the annulus, outside the
    bigon, so the bigon realizes relative grading 1 between the two
    generators.  It is the annulus open book with no twists, without its
    marked contact generator.
    """
    return MarkedDiagram(build_annulus_open_book(0).diagram, None, "s1s2()")


def _fresh(prefix: str, taken: set[str]) -> str:
    if prefix not in taken:
        return prefix
    k = 0
    while f"{prefix}{k}" in taken:
        k += 1
    return f"{prefix}{k}"


def stabilize(diagram: HeegaardDiagram) -> tuple[MarkedDiagram, dict[Generator, Generator]]:
    """Connected sum with the standard genus-1 three-sphere diagram.

    A new alpha/beta pair meeting in a single new vertex w is added
    inside the basepoint region: the new square circle is merged into
    that region, which keeps the basepoint where it was.  The returned
    map sends every generator to itself extended by w; it is a bijection
    preserving class structure and gradings.
    """
    inp = diagram.input
    taken_curves = set(inp.curve_names())
    taken_vertices = set(diagram.vertex_names)
    na = _fresh(f"a{inp.genus}", taken_curves)
    nb = _fresh(f"b{inp.genus}", taken_curves | {na})
    w = _fresh("w", taken_vertices)

    k = diagram.basepoint_region
    bp_region = diagram.regions[k]
    bp_circles = [diagram.face_names[f] for f in bp_region.faces]
    # Region k is made by the k-th directive that lists circles; a disk has none.
    own = [d for d in inp.directives if d.circles is not None][k:k + 1]
    merged_label = own[0].label if own else _fresh("r", {d.label for d in inp.directives})
    directives = tuple(d for d in inp.directives if d not in own)
    directives += (RegionDirective(merged_label, bp_region.genus, (*bp_circles, f"{na}.0+")),)

    signs = dict(inp.signs)
    signs[w] = 1
    new_input = CurveSystemInput(
        genus=inp.genus + 1,
        alpha=inp.alpha + ((na, (w,)),),
        beta=inp.beta + ((nb, (w,)),),
        signs=signs,
        basepoint=inp.basepoint,
        directives=directives,
    )
    new_diagram = assemble_regions(new_input)
    w_id = new_diagram.vertex_id(w)
    # Each image is made by tuple.__new__ as namedtuple's _make does:
    # Generator's own __new__ would parse its arguments each time.
    correspondence = {g: tuple.__new__(Generator, (g.vertices + (w_id,),))
                      for g in enumerate_generators(diagram)}
    return (MarkedDiagram(new_diagram, None, f"stabilize(genus={inp.genus})"),
            correspondence)


def build_annulus_open_book(n: int) -> MarkedDiagram:
    """Open-book diagram for the annulus page with n boundary Dehn twists.

    The Heegaard surface is the double of the annulus page (a torus); the
    alpha curve doubles the spanning arc, the beta curve doubles its
    push-off twisted n times across the bottom page.  Vertex x0 is the
    unique interior intersection of the arc with its push-off on the
    middle page and is marked as the contact generator; the remaining
    vertices are the twist crossings on the bottom page, in both curves'
    traversal order.  The basepoint is placed in the region adjacent to
    the long segment of the binding circle that the final alpha arc
    crosses on the bottom page, via the locator (a0, last vertex,
    left-after).

    The underlying manifold has |H1| = |n| for n != 0 and H1 = Z for
    n = 0 (where the complement contains an annulus region, supplied by
    a directive).
    """
    bottom = n + 1 if n >= 0 else -n - 1
    nv = 1 + bottom
    sign = "-" if n >= 0 else "+"
    alpha = " ".join(["x0+"] + [f"x{j}{sign}" for j in range(1, nv)])
    beta = " ".join(f"x{j}" for j in range(nv))
    region = "region r0: genus=0 circles=a0.0- a0.1+\n" if n == 0 else ""
    text = (f"heegaard v1\ngenus: 1\nalpha a0: {alpha}\nbeta  b0: {beta}\n"
            f"basepoint: a0 x{nv - 1} left-after\n{region}")
    d = load_diagram(text)
    contact = Generator((d.vertex_id("x0"),))
    return MarkedDiagram(d, contact, f"openbook-annulus({n})")
