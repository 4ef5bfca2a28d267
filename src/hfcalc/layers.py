"""Layer decomposition of nonnegative domains and corner accounting.

A nonnegative domain decomposes into nested level surfaces: the l-th
layer consists of one copy of every region with multiplicity at least l.
At a vertex, the included quadrants split into maximal cyclic runs
("clusters"); each cluster is an interior point, a point on a boundary
edge, or a convex/concave corner of the layer, and the vertex's
membership in the source and target generators refines the corner into
x-, y-, degenerate, or auxiliary type.

A layer changes only where the domain's multiplicities do: the layers
of levels c' + 1, ..., c between two consecutive distinct multiplicities
c' < c hold the same regions, arcs and clusters.  A domain is therefore
classified once per run of levels between distinct multiplicities (see
``decompose_layers``), so the work grows with the number of distinct
multiplicities, not with the largest one.  Layer indices are counted in
integer quarter units and become a ``Fraction`` only when returned.
They are counted on the layers, not from the region weights
``maslov_index`` uses, so the first identity below compares two
independent computations.

Three exact identities are audited for every decomposition:

* the layer sum of e + n_x + n_y equals the same quantity computed
  region-linearly on the whole domain (hence equals the Maslov index);
* for a single layer without degenerate or auxiliary corners,
  chi(F) + (number of concave corners) equals the index;
* a signed corner balance, as follows.

At a vertex lying in neither generator (auxiliary) or in both
(degenerate), the domain's boundary jumps a = m1 - m0 and b = m3 - m0
(rotation indexing) force the corner clusters into min(|a|, |b|)
convex/concave pairs.  A pair is of positive type when a*b > 0 (its
convex member looks like a convex x-corner and its concave member like a
concave y-corner) and of negative type otherwise.  Consecutive pairs at
one vertex cancel, so a vertex contributes to the balance only when its
pair count is odd, and only when the pair type agrees with the vertex's
crossing sign; such vertices at positive crossings count as positive,
at negative crossings as negative.  The balance then reads: interior
occurrences of x-only vertices plus positive vertices equal interior
occurrences of y-only vertices plus negative vertices.  (The type label
alone, without the parity and crossing-sign filter, does not balance.)

The balance is not invariant under reversing a curve, and fails on some
correct domains of curve-reversed open books.  A reversal flips the
crossing sign of every vertex on the curve but leaves a*b unchanged:
reversing a beta curve keeps the rotation, and reversing an alpha curve
shifts it by two slots, which negates both jumps.  So a vertex that
counted stops counting.  Example: the annulus open book with n = 1 and
b0 reversed, pair x2 -> x1, domain (2, 1, 0).  Vertex x0 has quadrant
multiplicities (2, 1, 0, 1) before and after the reversal; at crossing
sign +1 it counts as positive and the balance reads 0 + 1 = 1 + 0, at
-1 it does not count and 0 + 0 != 1 + 0 raises ``AuditError``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .grading import (ConsistencyError, Generator, basepoint_multiplicity, maslov_index,
                      _coeffs)
from .diagram import HeegaardDiagram


class AuditError(ConsistencyError):
    """An audited identity failed; this is an implementation bug."""


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


def _jumps(mults: Sequence[int]) -> tuple[int, int]:
    return mults[1] - mults[0], mults[3] - mults[0]


def _pair_sign(mults: Sequence[int]) -> int:
    """Type of the corner pairs at a vertex in neither or both generators.

    a and b are the multiplicity jumps across the two half-edge pairs in
    rotation indexing; corner-shaped clusters exist only when both jumps
    are nonzero, and the pairs behave like (convex x, concave y) exactly
    when the jumps have equal signs.
    """
    a, b = _jumps(mults)
    if a * b > 0:
        return 1
    if a * b < 0:
        return -1
    return 1  # unreachable for domains satisfying a corner system


def _balance_weight(crossing_sign: int, mults: Sequence[int]) -> int:
    """Net balance contribution of one auxiliary/degenerate vertex.

    Pairs at one vertex cancel in consecutive pairs, so only the parity
    of the pair count survives, and it registers only when the pair type
    matches the crossing sign.
    """
    a, b = _jumps(mults)
    if a == 0 or b == 0:
        return 0
    pairs = min(abs(a), abs(b))
    if _pair_sign(mults) != crossing_sign:
        return 0
    return crossing_sign * (pairs % 2)


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


_Vertex = tuple[int, list[int], bool, bool, int]  # (max, mults, in x, in y, index)


def _vertex_table(diagram: HeegaardDiagram, x: Generator, y: Generator,
                  domain) -> tuple[Sequence[int], list[_Vertex]]:
    """A nonnegative domain's coefficients and, per vertex, its quadrant
    multiplicities (and their maximum) and membership in x and y, each
    read once."""
    coeffs = _coeffs(diagram, domain)
    if any(c < 0 for c in coeffs):
        raise ValueError("layer decomposition needs a nonnegative domain")
    xset, yset = set(x.vertices), set(y.vertices)
    vertices = []
    for v, quadrants in enumerate(diagram.quadrants):
        mults = [coeffs[r] for r in quadrants]
        vertices.append((max(mults), mults, v in xset, v in yset, v))
    return coeffs, vertices


def _layer_runs(diagram: HeegaardDiagram, coeffs: Sequence[int],
                vertices: list[_Vertex]) -> Iterator[tuple[LayerSurface, int]]:
    """Each run of identical layers as (its first layer, its last level).

    Between consecutive distinct positive coefficients c' < c, the levels
    c' + 1, ..., c include exactly the regions, vertex quadrants and arcs
    of multiplicity >= c, so they share one set of regions, arcs and
    clusters; the clusters are classified at the run's first level.
    A region, vertex or arc whose largest multiplicity is below a run is
    absent from it and from every run above it.
    """
    arcs = [(max(coeffs[left], coeffs[right]), a)
            for a, (left, right) in enumerate(diagram.arc_sides)]
    regions = range(len(coeffs))
    first = 1
    for last in sorted(set(coeffs) - {0}):
        regions = [r for r in regions if coeffs[r] >= last]
        vertices = [t for t in vertices if t[0] >= last]
        arcs = [t for t in arcs if t[0] >= last]
        clusters: list[CornerClass] = []
        for _, mults, in_x, in_y, v in vertices:
            clusters.extend(classify_corner(mults, first, in_x, in_y, v))
        yield (LayerSurface(first, tuple(regions), tuple(a for _, a in arcs),
                            tuple(clusters)), last)
        first = last + 1


def decompose_layers(diagram: HeegaardDiagram, x: Generator, y: Generator,
                     domain) -> tuple[LayerSurface, ...]:
    """Split a nonnegative domain into its max-multiplicity many layers.

    One ``LayerSurface`` per level 1, ..., max; every cluster carries its
    layer's level.  The layers are classified once per run of levels
    between distinct multiplicities and copied across the run.
    """
    coeffs, vertices = _vertex_table(diagram, x, y, domain)
    layers = []
    for layer, last in _layer_runs(diagram, coeffs, vertices):
        layers.append(layer)
        for level in range(layer.level + 1, last + 1):
            layers.append(layer._replace(
                level=level, clusters=tuple(c._replace(level=level) for c in layer.clusters)))
    return tuple(layers)


def layer_euler(diagram: HeegaardDiagram, layer: LayerSurface) -> int:
    """chi of the layer: clusters - included arcs + sum of region chi."""
    chi = diagram.region_chi
    return len(layer.clusters) - len(layer.arcs) + sum(chi[r] for r in layer.regions)


def _corner_shapes(layer: LayerSurface) -> tuple[int, int]:
    """(convex, concave) cluster counts of a layer."""
    convex = concave = 0
    for c in layer.clusters:
        if c.shape == CONVEX:
            convex += 1
        elif c.shape == CONCAVE:
            concave += 1
    return convex, concave


def _index_quarters(diagram: HeegaardDiagram, x: Generator, y: Generator,
                    layer: LayerSurface, chi: int, convex: int, concave: int) -> int:
    """4 (e + n_x + n_y)(F_l): 4 chi - p + q plus the included quadrants
    at the vertices of x and y."""
    rset = set(layer.regions)
    quadrants = diagram.quadrants
    included = sum(r in rset for v in x.vertices + y.vertices for r in quadrants[v])
    return 4 * chi - convex + concave + included


def layer_index(diagram: HeegaardDiagram, x: Generator, y: Generator,
                layer: LayerSurface) -> Fraction:
    """e(F_l) + n_x(F_l) + n_y(F_l) with corners counted on the layer.

    The layer's Euler measure uses chi(F_l) - p/4 + q/4 where p and q
    count convex and concave boundary corners of the layer, auxiliary and
    degenerate ones included; the point measures use the layer's 0/1
    multiplicity function.  The sum is counted in integer quarter units,
    4 chi(F_l) - p + q + (included quadrants at x and y), and returned as
    a ``Fraction``.  It is taken on the layer itself, not from the
    region weights of ``maslov_index``, so the audit compares two
    independent computations.
    """
    quarters = _index_quarters(diagram, x, y, layer, layer_euler(diagram, layer),
                               *_corner_shapes(layer))
    return Fraction(quarters, 4)


class LayerReport(NamedTuple):
    level: int
    chi: int
    convex: int
    concave: int
    boundary_degenerate: int
    interior_degenerate: int
    auxiliary_signed: int
    index: Fraction


class AuditReport(NamedTuple):
    """Per-layer corner statistics plus the audited identities.

    ``positive_vertices`` and ``negative_vertices`` are the balance
    counts described in the module docstring (auxiliary or degenerate
    vertices with an odd number of corner pairs whose type matches the
    crossing sign).
    """

    layers: tuple[LayerReport, ...]
    layer_sum: Fraction
    maslov: int
    basepoint: int
    x_interior: int
    y_interior: int
    positive_vertices: int
    negative_vertices: int
    single_layer_identity: bool | None  # None when hypotheses do not apply


def audit_index(diagram: HeegaardDiagram, x: Generator, y: Generator,
                domain) -> AuditReport:
    """Decompose, classify, and verify the exact layer identities.

    Statistics are taken once per run of identical layers (see
    ``decompose_layers``) and counted once per level of the run; the
    report still holds one ``LayerReport`` per level.  Raises
    ``AuditError`` when an identity fails; a failure signals an
    implementation inconsistency, never bad user input.
    """
    coeffs, vertices = _vertex_table(diagram, x, y, domain)
    mu = maslov_index(diagram, x, y, coeffs)

    reports = []
    quarters = 0
    x_interior = y_interior = 0
    degenerate_present = False
    auxiliary_present = False
    for layer, last in _layer_runs(diagram, coeffs, vertices):
        length = last - layer.level + 1
        chi = layer_euler(diagram, layer)
        convex, concave = _corner_shapes(layer)
        layer_quarters = _index_quarters(diagram, x, y, layer, chi, convex, concave)
        quarters += layer_quarters * length
        aux_signed = 0
        bdeg = ideg = 0
        for c in layer.clusters:
            if c.kind == INTERIOR and c.role == "x":
                x_interior += length
            elif c.kind == INTERIOR and c.role == "y":
                y_interior += length
            elif c.kind == INTERIOR_DEGENERATE:
                ideg += 1
                degenerate_present = True
            elif c.kind == BOUNDARY_DEGENERATE:
                bdeg += 1
                degenerate_present = True
            elif c.kind == AUXILIARY:
                auxiliary_present = True
                aux_signed += c.sign or 0
        index = Fraction(layer_quarters, 4)
        reports.extend(LayerReport(level, chi, convex, concave, bdeg, ideg, aux_signed, index)
                       for level in range(layer.level, last + 1))

    total = Fraction(quarters, 4)
    if total != mu:
        raise AuditError(f"layer index sum {total} differs from Maslov index {mu}")

    single = None
    if len(reports) == 1 and not degenerate_present and not auxiliary_present:
        chi, q = reports[0].chi, reports[0].concave
        single = (chi + q == mu)
        if not single:
            raise AuditError(f"single-layer identity failed: chi {chi} + q {q} != mu {mu}")

    pos_vertices = neg_vertices = 0
    for _, mults, in_x, in_y, v in vertices:
        if in_x ^ in_y:
            continue
        w = _balance_weight(diagram.signs[v], mults)
        if w > 0:
            pos_vertices += 1
        elif w < 0:
            neg_vertices += 1
    if x_interior + pos_vertices != y_interior + neg_vertices:
        raise AuditError(
            f"corner balance failed: x-interior {x_interior} + positive {pos_vertices} "
            f"!= y-interior {y_interior} + negative {neg_vertices}")

    return AuditReport(tuple(reports), total, mu, basepoint_multiplicity(diagram, coeffs),
                       x_interior, y_interior, pos_vertices, neg_vertices, single)
