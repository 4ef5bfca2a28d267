"""Test oracle for the layer audit: every layer rebuilt level by level.

``classify_corner`` classifies the quadrant clusters of one vertex at one
level, one ``CornerClass`` record per cluster.  ``per_level_decompose``
builds each level surface of a nonnegative domain from the raw face
lookups, with its regions, its arcs and the clusters ``classify_corner``
finds at every vertex.  ``fraction_layer_euler`` and
``fraction_layer_index`` take chi and e + n_x + n_y of one layer in
Fractions, and ``fraction_audit`` recounts every statistic of
``audit_index``'s report from those layers.  ``boundary_identity_sides``
gives both sides of n_x - n_y = d_alpha D . d_beta D in arc form.  None of
it reads the audit's corner table or its run walk.
"""

from fractions import Fraction
from typing import NamedTuple, Sequence

from hfcalc.diagram import ALPHA, BETA
from hfcalc.grading import basepoint_multiplicity, maslov_index
from hfcalc.layers import AuditError, AuditReport, LayerReport
from smith_oracle import arc_table


INTERIOR = "interior"
EDGE_POINT = "edge-point"
CONVEX = "convex"
CONCAVE = "concave"
BOUNDARY_DEGENERATE = "boundary-degenerate"
INTERIOR_DEGENERATE = "interior-degenerate"
AUXILIARY = "auxiliary"


class CornerClass(NamedTuple):
    """Classification of one quadrant cluster of a layer at a vertex.

    ``shape`` records the local geometry (interior, edge, convex,
    concave); ``kind`` additionally takes the vertex's generator
    membership into account.  ``sign`` is set for corner-shaped clusters
    at vertices in neither or both generators (auxiliary and degenerate
    corners pair up convex/concave with a common sign).
    """

    kind: str
    shape: str
    quadrants: tuple[int, ...]
    role: str | None = None  # 'x' or 'y' for vertices in exactly one generator
    sign: int | None = None
    vertex: int | None = None
    level: int | None = None


def _clusters(included: Sequence[bool]) -> list[tuple[int, ...]]:
    """Maximal cyclic runs of included quadrant positions."""
    if all(included):
        return [(0, 1, 2, 3)]
    if not any(included):
        return []
    runs = []
    # Start scanning right after an excluded position so runs never wrap.
    start = next(i for i in range(4) if not included[i])
    run: list[int] = []
    for k in range(1, 5):
        i = (start + k) % 4
        if included[i]:
            run.append(i)
        elif run:
            runs.append(tuple(run))
            run = []
    if run:
        runs.append(tuple(run))
    runs.sort(key=lambda r: r[0])
    return runs


def _pair_sign(mults: Sequence[int]) -> int:
    """Type of the corner pairs at a vertex in neither or both generators.

    a and b are the multiplicity jumps across the two half-edge pairs in
    rotation indexing; corner-shaped clusters exist only when both jumps
    are nonzero, and the pairs behave like (convex x, concave y) exactly
    when the jumps have equal signs.
    """
    a, b = mults[1] - mults[0], mults[3] - mults[0]
    if a * b > 0:
        return 1
    if a * b < 0:
        return -1
    return 1  # unreachable for domains satisfying a corner system


# Shape of a cluster by its number of quadrants (four is an interior point).
_CLUSTER_SHAPE = {1: CONVEX, 2: EDGE_POINT, 3: CONCAVE}


def classify_corner(mults: Sequence[int], level: int, in_x: bool, in_y: bool,
                    vertex: int | None = None) -> tuple[CornerClass, ...]:
    """Classify the quadrant clusters of one vertex at one layer level.

    ``mults`` are the four quadrant multiplicities in rotation order.
    Returns one ``CornerClass`` per cluster (none when the vertex is
    absent from the layer).  Total on all inputs; patterns with two
    opposite quadrants (impossible for solved domains) yield two convex
    clusters.
    """
    included = [m >= level for m in mults]
    role = "x" if (in_x and not in_y) else ("y" if (in_y and not in_x) else None)
    degenerate = in_x and in_y
    count = sum(included)
    if count == 0:
        return ()
    if count == 4:
        kind = INTERIOR_DEGENERATE if degenerate else INTERIOR
        return (CornerClass(kind, INTERIOR, (0, 1, 2, 3), role, None, vertex, level),)

    out = []
    for run in _clusters(included):
        shape = _CLUSTER_SHAPE[len(run)]
        if shape == EDGE_POINT:
            kind = BOUNDARY_DEGENERATE if degenerate else EDGE_POINT
            sign = None
        elif degenerate:
            kind, sign = BOUNDARY_DEGENERATE, _pair_sign(mults)
        elif role is not None:
            kind, sign = shape, None
        else:
            kind, sign = AUXILIARY, _pair_sign(mults)
        out.append(CornerClass(kind, shape, run, role, sign, vertex, level))
    return tuple(out)


class LayerSurface(NamedTuple):
    """One level set of a nonnegative domain.

    ``regions`` are the regions of multiplicity >= level, ``arcs`` the
    arcs with at least one adjacent region included, and ``clusters`` the
    vertex clusters with their corner classification.
    """

    level: int
    regions: tuple[int, ...]
    arcs: tuple[int, ...]
    clusters: tuple[CornerClass, ...]


def per_level_decompose(d, x, y, coeffs):
    """Every layer recomputed from the raw face lookups, level by level."""
    def region_of_dart(dart):
        return d.region_of_face[d.face_of_dart[dart]]

    xset, yset = set(x.vertices), set(y.vertices)
    sides = [(region_of_dart(2 * a), region_of_dart(2 * a + 1)) for a in range(d.n_arcs)]
    mults = [[coeffs[region_of_dart(dart)] for dart in d.rotations[v]]
             for v in range(d.n_vertices)]
    layers = []
    for level in range(1, max(coeffs, default=0) + 1):
        regions = tuple(i for i, c in enumerate(coeffs) if c >= level)
        rset = set(regions)
        arcs = tuple(a for a, (left, right) in enumerate(sides)
                     if left in rset or right in rset)
        clusters = []
        for v in range(d.n_vertices):
            clusters.extend(classify_corner(mults[v], level, v in xset, v in yset, v))
        layers.append(LayerSurface(level, regions, arcs, tuple(clusters)))
    return tuple(layers)


def fraction_layer_euler(d, layer):
    return len(layer.clusters) - len(layer.arcs) + sum(d.regions[r].chi for r in layer.regions)


def fraction_layer_index(d, x, y, layer):
    p = sum(1 for c in layer.clusters if c.shape == CONVEX)
    q = sum(1 for c in layer.clusters if c.shape == CONCAVE)
    rset = set(layer.regions)
    total = Fraction(fraction_layer_euler(d, layer)) - Fraction(p, 4) + Fraction(q, 4)
    for gen in (x, y):
        for v in gen.vertices:
            inc = sum(1 for r in d.quadrants[v] if r in rset)
            total += Fraction(inc, 4)
    return total


def fraction_audit(d, x, y, coeffs, layers):
    """The audit of ``per_level_decompose``'s layers with every statistic
    recounted per use, in Fractions; a failed identity raises ``AuditError``
    with the audit's message."""
    mu = maslov_index(d, x, y, coeffs)
    reports = []
    total = Fraction(0)
    degenerate_present = auxiliary_present = False
    for layer in layers:
        idx = fraction_layer_index(d, x, y, layer)
        total += idx
        aux_signed = bdeg = ideg = 0
        for c in layer.clusters:
            if c.kind == INTERIOR_DEGENERATE:
                ideg += 1
                degenerate_present = True
            elif c.kind == BOUNDARY_DEGENERATE:
                bdeg += 1
                degenerate_present = True
            elif c.kind == AUXILIARY:
                auxiliary_present = True
                aux_signed += c.sign or 0
        reports.append(LayerReport(
            layer.level, fraction_layer_euler(d, layer),
            sum(1 for c in layer.clusters if c.shape == CONVEX),
            sum(1 for c in layer.clusters if c.shape == CONCAVE),
            bdeg, ideg, aux_signed, idx))
    if total != mu:
        raise AuditError(f"layer index sum {total} differs from Maslov index {mu}")
    single = None
    if len(layers) == 1 and not degenerate_present and not auxiliary_present:
        chi = fraction_layer_euler(d, layers[0])
        q = sum(1 for c in layers[0].clusters if c.shape == CONCAVE)
        single = chi + q == mu
        if not single:
            raise AuditError(f"single-layer identity failed: chi {chi} + q {q} != mu {mu}")
    n_x_minus_n_y, intersection = boundary_identity_sides(d, x, y, coeffs)
    if n_x_minus_n_y != intersection:
        raise AuditError(f"n_x - n_y = {n_x_minus_n_y} differs from "
                         f"d_alpha D . d_beta D = {intersection}")
    return AuditReport(tuple(reports), total, mu, basepoint_multiplicity(d, coeffs),
                       n_x_minus_n_y, intersection, single)


def boundary_identity_sides(d, x, y, coeffs):
    """n_x - n_y and d_alpha D . d_beta D, in Fractions, from the raw face
    lookups.  The right side is in arc form: J(a) = D(left) - D(right) on
    each arc, summed over the two alpha and the two beta arcs at each
    vertex, and sum over v of sign(v) J_alpha(v) J_beta(v) / 4."""
    def region_of_dart(dart):
        return d.region_of_face[d.face_of_dart[dart]]

    def n(gen):
        return sum((Fraction(coeffs[region_of_dart(dart)], 4)
                    for v in gen.vertices for dart in d.rotations[v]), Fraction(0))

    jumps = {ALPHA: [0] * d.n_vertices, BETA: [0] * d.n_vertices}
    for arc in arc_table(d):
        jump = coeffs[region_of_dart(2 * arc.index)] - coeffs[region_of_dart(2 * arc.index + 1)]
        jumps[arc.family][arc.tail] += jump
        jumps[arc.family][arc.head] += jump
    intersection = sum((Fraction(d.signs[v] * jumps[ALPHA][v] * jumps[BETA][v], 4)
                        for v in range(d.n_vertices)), Fraction(0))
    return n(x) - n(y), intersection
