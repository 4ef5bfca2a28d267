"""Layer decomposition of nonnegative domains and corner accounting.

A nonnegative domain decomposes into nested level surfaces: the l-th
layer consists of one copy of every region with multiplicity at least l.
At a vertex, the included quadrants split into maximal cyclic runs
("clusters"); a cluster of 1, 2, 3 or 4 quadrants is a convex corner, a
point on a boundary edge, a concave corner or an interior point of the
layer.  The vertex's membership in the source and target generators
refines the corners: at a vertex in exactly one of x and y they are x-
or y-corners, at a vertex in both every cluster is degenerate (boundary
degenerate, or interior degenerate when it is the full vertex), and at a
vertex in neither the corners are auxiliary.

A layer changes only where the domain's multiplicities do: the layers
of levels c' + 1, ..., c between two consecutive distinct multiplicities
c' < c hold the same regions, arcs and clusters.  A domain is therefore
classified once per run of levels between distinct multiplicities, so the
work grows with the number of distinct multiplicities, not with the
largest one.  ``audit_index`` builds no clusters and lists no arcs.
What a vertex adds to a layer's report depends only on which of its
quadrants the layer includes and on its membership in x and y, so the
audit sums rows of a 64-row table indexed by membership | quadrant mask:
each row holds the vertex's part of chi in half units (clusters count 2,
the arc ends they touch -1 each, as every arc has two ends), its corner
counts by kind, and its part of the layer index in quarter units.

The levels 1, ..., f up to the domain's floor f = min(D) >= 0 are the
whole surface: every vertex includes all four quadrants (mask 15), so
that run's keys are counted from the generators alone, one count per
membership, with no vertex scan.  Adding k copies of the surface class
raises the floor by k and leaves the rest of the audit as it was.

The audit reads each vertex's four quadrant multiplicities once.  One
pass over the vertices forms each vertex's key (its membership and, for
a vertex in neither generator, the sign of its corner pairs), checks
the corner system m0 - m1 + m2 - m3 = [v in x] - [v in y] there (the
certificate of ``grading._check_connecting``), sums the quadrant
multiplicities at the vertices of x and of y for the Maslov index, and
counts both sides of the third identity below.  Only a vertex with a
quadrant above the floor is masked: at the levels f + 1, ..., c of the
least coefficient c above the floor, a layer holds exactly the
quadrants above f, so the pass counts that run's keys directly, and it
keeps for the later runs only the vertices with a quadrant above c; the
other vertices are absent from every layer above c.  Layer indices are
counted in integer quarter units and become a ``Fraction`` only when
returned, and their sum is compared with four times the Maslov index as
integers.  The index is formed region-linearly,
as ``maslov_index`` forms it: 4 mu = 4 e(D), from the region weights, plus
4 n_x + 4 n_y from the pass.  The layer indices are counted on the layers,
not from those weights, so the first identity below still compares two
independent computations.

Three exact identities are audited for every decomposition:

* the layer sum of e + n_x + n_y equals the same quantity computed
  region-linearly on the whole domain (hence equals the Maslov index);
* for a single layer without degenerate or auxiliary corners,
  chi(F) + (number of concave corners) equals the index;
* n_x(D) - n_y(D) = d_alpha D . d_beta D (Lipshitz, *A cylindrical
  reformulation of Heegaard Floer homology*; Sarkar, *Maslov index
  formulas for Whitney n-gons*).

In the third, d_alpha D is the part of the boundary of D on the alpha
curves: the 1-chain with coefficient J(a) = D(left) - D(right) on each
alpha arc a (``arc_sides``), and d_beta D likewise on the beta arcs.  The
two chains meet only at vertices, so their intersection number is taken
with the averaged convention: each vertex v adds sign(v) times the mean
of J over the two alpha arcs at v times the mean over the two beta arcs.
Derivation: since D goes from x to y, d(d_alpha D) = y - x, so the
jumps on the two alpha arcs at a vertex differ only at vertices of x
and y, and likewise on the beta arcs.  Push a = d_alpha D off the alpha
curves, to one side of them, and slide each end of the push-off a' to
one side of the beta curve through it.  a' misses the alpha curves, so
a'.b = a'.dD for b = d_beta D; and a'.dD = D(y') - D(x'), the change of
D's multiplicity between the ends x' and y' of a'.  The four push-offs
put each end in each quadrant of its vertex once, and cross b once on
each side of each vertex, so their average reads D at the ends as the
point measures n_x and n_y and the crossings as the mean jumps; with
the orientations used here the sign comes out as stated.

Both sides are counted in quarter units from the quadrant multiplicities
m0..m3 of each vertex, in the one vertex pass of the audit.
4 n_x is the sum of m0 + m1 + m2 + m3 over the vertices of x.  With the
rotation conventions of ``diagram``, sign(v) times the sums of the jumps
on the two alpha and on the two beta arcs at v is

    (m0 + m1 - m2 - m3) (m1 + m2 - m0 - m3) = (m1 - m3)^2 - (m0 - m2)^2

at either crossing sign; the audit sums the right-hand form.  Reversing
a curve negates its jumps and the sign of each vertex on it, so the
identity is invariant under reversal.
"""

from __future__ import annotations

import functools
from itertools import compress
from typing import TYPE_CHECKING, NamedTuple

from .grading import (ConsistencyError, Generator, _base_weights, _coeffs, _dot, _fraction,
                      _off_the_corner_system, _whole)
from .diagram import HeegaardDiagram

if TYPE_CHECKING:
    from fractions import Fraction


class AuditError(ConsistencyError):
    """An audited identity failed; this is an implementation bug."""


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

    ``n_x_minus_n_y`` and ``boundary_intersection`` are the two sides of
    n_x(D) - n_y(D) = d_alpha D . d_beta D (see the module docstring).
    """

    layers: tuple[LayerReport, ...]
    layer_sum: Fraction
    maslov: int
    basepoint: int
    n_x_minus_n_y: Fraction
    boundary_intersection: Fraction
    single_layer_identity: bool | None  # None when hypotheses do not apply


@functools.cache
def _corner_table() -> tuple[tuple[int, ...], ...]:
    """What one vertex adds to a layer's report, by membership | mask.

    membership is 16 (2 in_x + in_y), and bit q of mask is set when
    quadrant q is in the layer, that is m_q >= level.  The clusters are
    the cyclic runs of set bits (mask 15 is one run of 4): runs of 1 are
    convex and runs of 3 concave; at a vertex in both x and y the runs
    shorter than 4 are boundary degenerate and a run of 4 interior
    degenerate; at a vertex in neither, the convex and concave runs are
    auxiliary, signed by the vertex's pair sign.  Each row is (h, convex,
    concave, boundary degenerate, interior degenerate, auxiliary, 2 h -
    convex + concave + included) for h = 2 clusters - ends: the vertex's
    part of the layer's chi in half units, its corner counts, and its part
    of 4 (e + n_x + n_y), the layer index in quarter units.  ``included``
    counts the included quadrants once for each of x and y holding the
    vertex, and ``ends`` the layer's arc ends at the vertex.  An arc is in
    the layer when one of its sides is, and near an end its sides are the
    quadrants on either side of that half-edge.  A cluster of k < 4
    consecutive quadrants touches the k + 1 half-edges around it, a full
    vertex all 4, and two clusters none in common, since an excluded
    quadrant separates them.  Summed over the vertices, the ends count
    each arc of the layer twice.  Built on the first audit.
    """
    rows = []
    for index in range(64):
        in_x, in_y = index >> 5 & 1, index >> 4 & 1
        bits = "".join("1" if index >> q & 1 else "0" for q in range(4))
        # Rotated to start after an excluded quadrant, the runs do not wrap.
        cut = bits.find("0") + 1
        runs = [len(run) for run in (bits[cut:] + bits[:cut]).split("0") if run]
        convex, concave, full = runs.count(1), runs.count(3), runs.count(4)
        both, neither = in_x & in_y, not (in_x or in_y)
        half_chi = 2 * len(runs) - sum(min(k + 1, 4) for k in runs)
        rows.append((half_chi, convex, concave, (len(runs) - full) * both, full * both,
                     (convex + concave) * neither,
                     2 * half_chi - convex + concave + bits.count("1") * (in_x + in_y)))
    return tuple(rows)


@functools.lru_cache(maxsize=1024)
def _quarters(n: int) -> Fraction:
    """n / 4 as a ``Fraction``.  Fractions are immutable, so reports share
    them: the audits of one diagram make the same few values again and
    again, and a Fraction costs more to make than to look up."""
    return _fraction()(n, 4)


def audit_index(diagram: HeegaardDiagram, x: Generator, y: Generator,
                domain) -> AuditReport:
    """Decompose, classify, and verify the exact layer identities.

    Statistics are taken once per run of identical layers, by counting
    ``_corner_table`` keys of the vertices present, and counted once per
    level of the run.  The run of levels 1, ..., f up to the floor f =
    min(D) is the whole surface, so its keys are membership | 15, counted
    from the generators.  One pass over the vertices reads each vertex's
    quadrant multiplicities once: it forms the vertex's key, counts both
    sides of n_x - n_y = d_alpha D . d_beta D, checks the corner system at
    the vertex and adds its quadrant multiplicities to 4 (n_x + n_y),
    twice at a vertex of both x and y; with 4 e(D) from the region weights
    that is 4 mu, computed region-linearly and so independently of the
    layer counts.  Only at a vertex with a quadrant above f does the pass
    count the key of the first run above the floor, levels f + 1, ..., c
    for the least coefficient c above f, where quadrant q is in the layer
    exactly when m_q > f.  It keeps for the later runs only the vertices
    whose largest quadrant is above c; each later run keeps those whose
    largest quadrant reaches its last level, and masks them by m_q >= its
    first level.  A run's chi is half the rows' half-unit sum plus the
    regions' chi, and its quarter index the rows' quarter sum plus 4 times
    the regions' chi.  The report
    holds one ``LayerReport`` per level.  Raises ``ValueError`` on a
    negative domain, then ``ConsistencyError`` when the domain is off the
    corner system for (x, y) or its index is not an integer, as
    ``maslov_index`` does, and ``AuditError`` when a layer's half-unit chi
    is odd or an identity fails, an implementation inconsistency, never
    bad user input.
    """
    coeffs = _coeffs(diagram, domain)
    levels = sorted(set(coeffs))  # the sign check reads the floor
    floor = levels.pop(0) if levels else 0
    if floor < 0:
        raise ValueError("layer decomposition needs a nonnegative domain")
    table = _corner_table()
    least = levels[0] if levels else floor  # the last level of the first run above the floor

    # The one read of each vertex.  Its key is its membership (32 for x, 16
    # for y), plus 64 when its pair sign is negative: only a vertex in
    # neither generator has auxiliary corners, and its pair sign is -1
    # exactly when its two jumps m1 - m0 and m3 - m0 have opposite signs.
    # The same read checks the corner system, m0 - m1 + m2 - m3 is 1 at x,
    # -1 at y and 0 elsewhere, and counts in quarter units 4 n_x + 4 n_y for
    # the Maslov index and both sides of n_x - n_y = d_alpha D . d_beta D
    # (module docstring).  A vertex with a quadrant above the floor adds its
    # key and mask to the first run above the floor.
    membership = [0] * diagram.n_vertices
    for v in x.vertices:
        membership[v] = 32
    for v in y.vertices:
        membership[v] |= 16
    above: dict[int, int] = {}
    later = []
    n_x_plus_n_y = n_xy = boundary = 0
    for key, (q0, q1, q2, q3) in zip(membership, diagram.quadrants):
        m0, m1, m2, m3 = coeffs[q0], coeffs[q1], coeffs[q2], coeffs[q3]
        corner = m0 - m1 + m2 - m3
        if key == 32:
            if corner != 1:
                raise _off_the_corner_system()
            total = m0 + m1 + m2 + m3
            n_x_plus_n_y += total
            n_xy += total
        elif key == 16:
            if corner != -1:
                raise _off_the_corner_system()
            total = m0 + m1 + m2 + m3
            n_x_plus_n_y += total
            n_xy -= total
        else:
            if corner:
                raise _off_the_corner_system()
            if key:  # in both x and y, so counted for each
                n_x_plus_n_y += 2 * (m0 + m1 + m2 + m3)
            elif (m1 - m0) * (m3 - m0) < 0:
                key = 64
        a, b = m0 - m2, m1 - m3
        boundary += b * b - a * a
        if m0 > floor or m1 > floor or m2 > floor or m3 > floor:
            mask = (m0 > floor) | (m1 > floor) << 1 | (m2 > floor) << 2 | (m3 > floor) << 3
            above[key | mask] = above.get(key | mask, 0) + 1
            if m0 > least or m1 > least or m2 > least or m3 > least:
                later.append((max(m0, m1, m2, m3), (m0, m1, m2, m3), key))

    mu = _whole(_dot(_base_weights(diagram), coeffs) + n_x_plus_n_y, "Maslov index")

    # The levels 1, ..., floor are the whole surface: every vertex has mask
    # 15, where the pair sign adds nothing, so that run's keys are counted
    # from the generators alone.
    if floor:
        levels.insert(0, floor)
        counts = {m | 15: n for m in (0, 16, 32, 48) if (n := membership.count(m))}
    else:
        counts = above
    reports = []
    quarters = 0
    degenerate_present = False
    auxiliary_present = False
    first = 1
    for last in levels:
        if first > floor + 1:
            later = [t for t in later if t[0] >= last]
            counts = {}
            for _, (m0, m1, m2, m3), key in later:
                key |= (m0 >= first) | (m1 >= first) << 1 | (m2 >= first) << 2 | (m3 >= first) << 3
                counts[key] = counts.get(key, 0) + 1
        elif first > 1:
            counts = above
        half = convex = concave = bdeg = ideg = auxiliary = aux_signed = layer_quarters = 0
        for key, n in counts.items():
            h, p, q, b, i, a, four = table[key & 63]
            half += n * h
            convex += n * p
            concave += n * q
            bdeg += n * b
            ideg += n * i
            auxiliary += n * a
            aux_signed += -n * a if key & 64 else n * a
            layer_quarters += n * four
        if half & 1:  # every arc of the layer has two ends
            raise AuditError(f"level {first}: chi in half units {half} is odd")
        degenerate_present = degenerate_present or bool(bdeg or ideg)
        auxiliary_present = auxiliary_present or bool(auxiliary)
        # The run's regions are those of multiplicity >= last.
        region_chi = sum(compress(diagram.region_chi, map(last.__le__, coeffs)))
        chi = half // 2 + region_chi
        layer_quarters += 4 * region_chi
        quarters += layer_quarters * (last - first + 1)
        index = _quarters(layer_quarters)
        # One report per level, made by tuple.__new__ as namedtuple's _make
        # does: LayerReport's own __new__ would parse its arguments each time.
        for level in range(first, last + 1):
            reports.append(tuple.__new__(LayerReport, (level, chi, convex, concave, bdeg, ideg,
                                                       aux_signed, index)))
        first = last + 1

    if quarters != 4 * mu:
        raise AuditError(f"layer index sum {_quarters(quarters)} differs from Maslov index {mu}")

    single = None
    if len(reports) == 1 and not degenerate_present and not auxiliary_present:
        chi, q = reports[0].chi, reports[0].concave
        single = (chi + q == mu)
        if not single:
            raise AuditError(f"single-layer identity failed: chi {chi} + q {q} != mu {mu}")

    if n_xy != boundary:
        raise AuditError(f"n_x - n_y = {_quarters(n_xy)} differs from "
                         f"d_alpha D . d_beta D = {_quarters(boundary)}")

    side = _quarters(n_xy)  # both sides, equal
    return tuple.__new__(AuditReport, (tuple(reports), _quarters(4 * mu), mu,
                                       coeffs[diagram.basepoint_region], side, side, single))
