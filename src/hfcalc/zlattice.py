"""Exact integer linear algebra on small dense matrices.

Everything here runs over arbitrary-precision Python ints.  The matrices
that occur in practice are tiny (a corner system is about (2 * vertices) x
(regions), tens by tens), so a classical Smith normal form with explicit
unimodular transforms is entirely adequate and keeps the arithmetic exact.

The three public operations are:

* ``smith_invariants`` -- invariant factors d1 | d2 | ... of a matrix;
* ``solve_integer_system`` -- all integer solutions of M x = b, returned as
  a particular solution plus a basis of the integer kernel lattice;
* ``gcd_over_lattice`` -- the nonnegative generator of the image of an
  integer functional restricted to a lattice.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


class IntMatrix(NamedTuple):
    """Immutable dense integer matrix.

    Entries are stored as a tuple of row tuples.  Zero-row or zero-column
    matrices are allowed (they show up as degenerate corner systems).
    """

    entries: tuple[tuple[int, ...], ...]
    cols: int

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        entries = tuple(tuple(int(x) for x in row) for row in rows)
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch(f"expected {cols} columns, got {width}")
            cols = width
        elif cols is None:
            cols = 0
        return cls(entries, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def mul_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector of length {len(vec)} against {self.cols} columns")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.entries)


class SmithDecomposition(NamedTuple):
    """Factorization U M V = S with U, V unimodular and S diagonal.

    The diagonal of S is nonnegative, satisfies the divisibility chain
    d1 | d2 | ..., and has its zero entries last.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.s.rows, self.s.cols)
        return tuple(self.s[i, i] for i in range(n))


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Compute the Smith normal form of ``m`` with transforms.

    Classical pivoting algorithm: bring the smallest nonzero entry of the
    working submatrix to the pivot position, clear its row and column by
    exact division steps (restarting whenever a nonzero remainder produces
    a smaller pivot), then fix up divisibility by folding any offending
    entry into the pivot row.  Pivot magnitudes strictly decrease on every
    restart, so the loop terminates.  The pivot is the first entry of
    least magnitude in row-major order, so its search stops at the first
    entry of magnitude 1.
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
        # Locate the first smallest-magnitude nonzero entry in the submatrix.
        pivot = None
        best = None
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best, pivot = abs(x), (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
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
        # A unit pivot divides every entry, so it needs no scan.
        offender = None
        if a[t][t] != 1:
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

    # The transforms are built here from ints, so they skip from_rows's checks.
    return SmithDecomposition(
        IntMatrix(tuple(map(tuple, u)), nrows),
        IntMatrix(tuple(map(tuple, a)), ncols),
        IntMatrix(tuple(map(tuple, v)), ncols),
    )


def smith_invariants(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of ``m``: d1 | d2 | ..., zeros last.

    The returned tuple has length min(rows, cols).
    """
    return smith_normal_form(m).diagonal()


class AffineSolutionSet(NamedTuple):
    """Integer solution set of an inhomogeneous system M x = b.

    ``particular`` is None exactly when no integer solution exists.  The
    ``kernel`` tuple is a lattice basis of the integer solutions of the
    homogeneous system, so the full solution set is
    particular + (integer combinations of kernel vectors).  Kernel bases
    are not canonical; consumers must treat them as lattice generators.
    """

    particular: tuple[int, ...] | None
    kernel: tuple[tuple[int, ...], ...]

    @property
    def is_empty(self) -> bool:
        return self.particular is None


def solve_integer_system(m: IntMatrix, b: Sequence[int]) -> AffineSolutionSet:
    """Solve M x = b over the integers.

    Diagonalize U M V = S; then M x = b becomes S y = U b with x = V y.
    Each diagonal entry must divide the transformed right-hand side, and
    rows beyond the rank force it to vanish.  Kernel basis vectors are the
    columns of V matching zero diagonal positions.
    """
    if len(b) != m.rows:
        raise DimensionMismatch(f"rhs of length {len(b)} against {m.rows} rows")
    dec = smith_normal_form(m)
    diag = dec.diagonal()
    c = dec.u.mul_vec([int(x) for x in b])

    kernel = tuple(
        dec.v.column(j) for j in range(m.cols) if j >= len(diag) or diag[j] == 0
    )

    y = [0] * m.cols
    for i in range(m.rows):
        d = diag[i] if i < len(diag) else 0
        if d:
            q, r = divmod(c[i], d)
            if r:
                return AffineSolutionSet(None, kernel)
            y[i] = q
        elif c[i]:
            return AffineSolutionSet(None, kernel)
    particular = dec.v.mul_vec(y)
    return AffineSolutionSet(particular, kernel)


def gcd_over_lattice(kernel: Sequence[Sequence[int]], functional: Sequence[int]) -> int:
    """gcd of { f . k : k in the lattice spanned by ``kernel`` }.

    Returns 0 when the functional vanishes on the lattice (in particular
    for the empty lattice).  Because f is linear, the gcd over the whole
    lattice equals the gcd of its values on any generating set.
    """
    g = 0
    for vec in kernel:
        if len(vec) != len(functional):
            raise DimensionMismatch(
                f"functional of length {len(functional)} against vector of length {len(vec)}"
            )
        g = math.gcd(g, abs(sum(f * x for f, x in zip(functional, vec))))
    return g
