"""Test oracles: the Smith normal form, the corner system, the arcs and the intersection signs.

``full_scan_smith`` stores U, S and V as dense lists and applies every
row and column operation to whole rows and columns.
``smith_normal_form``, which keeps the working matrix, U and V sparse,
must return exactly its U, S and V (``dense_transforms``): same pivots,
same operations, same order.  ``column`` and ``mul_vec`` are the dense
matrix reads the tests check answers with.

``corner_matrix`` builds the 2N x R corner matrix M from the traced
face boundaries (``boundary_trace``), so it shares no code with
``grading._check_connecting``, which certifies every domain by one
equation in the four quadrant multiplicities at each vertex.

``arc_table`` lists the arcs from the curve listings alone, the
(index, family, curve, pos, tail, head) of each: the diagram keeps no
record per arc.

``generator_sign`` is the intersection sign of a generator, read off the
parsed listings with no linear algebra: the oracle for the parity of the
grading labels and for the Euler characteristic of each Spin^c class.
"""

from typing import NamedTuple, Sequence

from hfcalc.zlattice import DimensionMismatch, IntMatrix, SmithDecomposition


def column(m: IntMatrix, j: int) -> tuple[int, ...]:
    return tuple(row[j] for row in m.entries)


def mul_vec(m: IntMatrix, vec: Sequence[int]) -> tuple[int, ...]:
    if len(vec) != m.cols:
        raise DimensionMismatch(f"vector of length {len(vec)} against {m.cols} columns")
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in m.entries)


def dense_transforms(dec: SmithDecomposition) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """U, S and V of a sparse ``SmithDecomposition``, written out densely."""
    nrows, ncols = len(dec.u_rows), len(dec.v_columns)
    u = [[row.get(k, 0) for k in range(nrows)] for row in dec.u_rows]
    s = [[0] * ncols for _ in range(nrows)]
    for i, d in enumerate(dec.invariants):
        s[i][i] = d
    v = [[col.get(k, 0) for col in dec.v_columns] for k in range(ncols)]
    return (IntMatrix.from_rows(u, nrows), IntMatrix.from_rows(s, ncols),
            IntMatrix.from_rows(v, ncols))


class ArcRow(NamedTuple):
    index: int
    family: str  # "alpha" or "beta"
    curve: str
    pos: int  # position along the curve listing
    tail: int  # vertex id
    head: int  # vertex id


def arc_table(diagram) -> list[ArcRow]:
    """Every arc of the diagram: alpha curves first, each curve in listing
    order, arc ``pos`` from vertex ``pos`` of the listing to the next one,
    so arc a has the darts 2a (forward) and 2a + 1 (backward)."""
    rows: list[ArcRow] = []
    for family, curves in (("alpha", diagram.alpha), ("beta", diagram.beta)):
        for name, verts in curves:
            for pos, tail in enumerate(verts):
                rows.append(ArcRow(len(rows), family, name, pos, tail,
                                   verts[(pos + 1) % len(verts)]))
    return rows


def generator_sign(diagram, g) -> int:
    """The sign of the permutation i -> beta curve of g's vertex on alpha_i,
    times the crossing signs of g's vertices, from ``diagram.input``."""
    names = [diagram.vertex_names[v] for v in g.vertices]
    alpha_of, beta_of = ({v: j for j, (_, verts) in enumerate(curves) for v in verts}
                         for curves in (diagram.input.alpha, diagram.input.beta))
    perm = [beta_of[v] for v in sorted(names, key=alpha_of.__getitem__)]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    for v in names:
        sign *= diagram.input.signs[v]
    return sign


def boundary_trace(diagram, coeffs):
    """Retrace the domain boundary circle by circle.

    Accumulates the signed arc content of every region's boundary circles
    weighted by the region coefficient, then takes endpoints.  Returns the
    alpha and beta 0-chains (vertex -> coefficient).
    """
    arcs = arc_table(diagram)
    arc_coeff = [0] * len(arcs)
    for region, a in zip(diagram.regions, coeffs):
        if not a:
            continue
        for f in region.faces:
            for dart in diagram.faces[f]:
                arc_coeff[dart // 2] += a if dart % 2 == 0 else -a
    alpha_chain = [0] * diagram.n_vertices
    beta_chain = [0] * diagram.n_vertices
    for arc in arcs:
        chain = alpha_chain if arc.family == "alpha" else beta_chain
        chain[arc.head] += arc_coeff[arc.index]
        chain[arc.tail] -= arc_coeff[arc.index]
    return alpha_chain, beta_chain


def corner_matrix(diagram) -> IntMatrix:
    """M column by column: column j is ``boundary_trace`` of region j alone,
    its alpha 0-chain on rows 0..N-1 and its beta 0-chain on rows N..2N-1."""
    r = diagram.n_regions
    columns = []
    for j in range(r):
        alpha_chain, beta_chain = boundary_trace(diagram, [int(i == j) for i in range(r)])
        columns.append(alpha_chain + beta_chain)
    return IntMatrix.from_rows(zip(*columns), r)


def corner_system(diagram, x, y) -> tuple[IntMatrix, tuple[int, ...]]:
    """M and r(y) - r(x), where r(g) is +1 on the alpha row and -1 on the
    beta row of each vertex of g: a domain from x to y solves M D = r(y) - r(x)."""
    nv = diagram.n_vertices
    rhs = [0] * (2 * nv)
    for sign, g in ((-1, x), (1, y)):
        for v in g.vertices:
            rhs[v] += sign
            rhs[nv + v] -= sign
    return corner_matrix(diagram), tuple(rhs)


def full_scan_smith(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """U, S and V with U M V = S, from dense elimination.

    The pivot search scans the whole submatrix and the divisibility scan
    runs for every pivot.  The pivot is still the first entry of least
    magnitude in row-major order, and an entry that fails the scan is
    never found under a unit pivot, so the answer is exactly
    ``smith_normal_form``'s.
    """
    nrows, ncols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src: int, dst: int, factor: int) -> None:
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src: int, dst: int, factor: int) -> None:
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nrows, ncols):
        # Locate a smallest-magnitude nonzero entry in the submatrix.
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best, pivot = abs(x), (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)

        while True:
            restart = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:  # remainder is a strictly smaller pivot
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, ncols):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            break

        # Divisibility fix: fold a non-multiple into the pivot row and redo.
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    return (IntMatrix.from_rows(u, nrows), IntMatrix.from_rows(a, ncols),
            IntMatrix.from_rows(v, ncols))
