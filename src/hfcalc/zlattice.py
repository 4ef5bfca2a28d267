"""Exact integer linear algebra: a Smith normal form on sparse rows.

Everything here runs over arbitrary-precision Python ints.  The one
matrix that ``grading`` factors is the g x g intersection matrix A of a
diagram, once per diagram; A has no more nonzero entries than the
diagram has vertices.  So the one Smith algorithm, ``_smith``, keeps the
working matrix and U by rows and V by columns, all as ``{index: value}``
dicts, following Dumas, Saunders and Villard, *On efficient sparse
integer matrix Smith normal form computations*; ``_add_multiple`` is its
one row operation.  ``grading`` hands it A's sparse rows;
``smith_normal_form`` hands it the rows of an ``IntMatrix``.
Solving M x = b is built on it once: ``_particular`` divides U b by the
invariant factors and forms V q, and ``_kernel`` reads the kernel basis
off V.  ``grading`` uses both on A, with U kept by columns.  ``_apply``,
a matrix of sparse columns times a sparse vector, is the one sparse
product: ``_particular`` forms U b with it, and ``grading`` certifies
U A V = S with it, column by column.
``solve_integer_system`` uses both on a matrix of the caller's; no
command calls it, and it stays public API.

The public operations are:

* ``smith_normal_form`` -- U M V = S with U, V unimodular and S diagonal;
* ``smith_invariants`` -- invariant factors d1 | d2 | ... of a matrix;
* ``solve_integer_system`` -- all integer solutions of M x = b, returned as
  a particular solution plus a basis of the integer kernel lattice, with
  M factored on every call;
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

    Entries are stored as a tuple of row tuples, read as
    ``m.entries[i][j]``.  Zero-row or zero-column matrices are allowed.
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


def _dense(vec: dict[int, int], n: int) -> tuple[int, ...]:
    return tuple(vec.get(k, 0) for k in range(n))


def _transpose(vectors: Sequence[dict[int, int]], n: int) -> list[dict[int, int]]:
    """Sparse rows as n sparse columns, or sparse columns as n sparse rows."""
    out: list[dict[int, int]] = [{} for _ in range(n)]
    for i, vec in enumerate(vectors):
        for k, x in vec.items():
            out[k][i] = x
    return out


def _apply(columns: Sequence[dict[int, int]], terms: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The matrix of sparse ``{row: value}`` columns times the vector of
    ``(index, value)`` terms, as ``{row: value}``, summed over the nonzero
    terms only.  A row where the sum cancels keeps its 0."""
    out: dict[int, int] = {}
    for k, x in terms:
        if x:
            for i, a in columns[k].items():
                out[i] = out.get(i, 0) + a * x
    return out


class SmithDecomposition(NamedTuple):
    """Factorization U M V = S with U, V unimodular and S diagonal.

    ``u_rows`` holds the rows of U and ``v_columns`` the columns of V,
    each as an ``{index: value}`` dict without zero values, and
    ``invariants`` the diagonal of S, of length min(rows, cols); S has no
    other nonzero entry.  The diagonal is nonnegative, satisfies the
    divisibility chain d1 | d2 | ..., and has its zero entries last.
    """

    u_rows: tuple[dict[int, int], ...]
    invariants: tuple[int, ...]
    v_columns: tuple[dict[int, int], ...]


def _add_multiple(dst: dict[int, int], src: dict[int, int], factor: int) -> None:
    """dst += factor * src on sparse vectors, deleting the zeros it makes."""
    for k, x in src.items():
        y = dst.get(k, 0) + factor * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Compute the Smith normal form of ``m``, with U by rows and V by columns.

    ``smith_invariants`` and ``solve_integer_system`` read their answers
    off it.  It is ``_smith`` on the rows of ``m`` as ``{column: value}``
    dicts; ``grading`` calls ``_smith`` on A's sparse rows directly."""
    return _smith([dict(enumerate(row)) for row in m.entries], m.cols)


def _smith(rows: Sequence[dict[int, int]], ncols: int) -> SmithDecomposition:
    """The Smith normal form of the matrix M of sparse ``{column: value}``
    ``rows`` with ``ncols`` columns, with U by rows and V by columns.

    Classical pivoting algorithm: bring the smallest nonzero entry of the
    working submatrix to the pivot position, clear its row and column by
    exact division steps (restarting whenever a nonzero remainder produces
    a smaller pivot), then fix up divisibility by folding any offending
    entry into the pivot row.  Pivot magnitudes strictly decrease on every
    restart, so the loop terminates.  The pivot is the first entry of
    least magnitude in row-major order, the least (|x|, i, j), so its
    search stops at the first row holding an entry of magnitude 1.

    The working matrix is a copy of ``rows`` without zeros (a caller's rows
    never change), sparse like U and V: each row operation is
    ``_add_multiple`` on one of its rows and the same row of U, and each
    column operation on a column of V (a row operation on V transposed), so
    a column swap of V is O(1).  Rows above the pivot t hold only their
    diagonal entry, so a column swap of the working matrix touches only rows
    t onward, and a column operation, which only starts once column t is
    clear below the pivot, changes a single entry of the pivot row.
    """
    a = [{j: x for j, x in row.items() if x} for row in rows]
    nrows = len(a)
    u = [{i: 1} for i in range(nrows)]
    v = [{j: 1} for j in range(ncols)]

    def swap_cols(i: int, j: int) -> None:
        for row in a[i:]:
            if i in row or j in row:
                x, y = row.pop(i, 0), row.pop(j, 0)
                if x:
                    row[j] = x
                if y:
                    row[i] = y
        v[i], v[j] = v[j], v[i]

    def add_row(src: int, dst: int, factor: int) -> None:
        if factor:
            _add_multiple(a[dst], a[src], factor)
            _add_multiple(u[dst], u[src], factor)

    t = 0
    while t < min(nrows, ncols):
        pivot = (math.inf,)
        for i in range(t, nrows):
            for j, x in a[i].items():
                if (abs(x), i, j) < pivot:
                    pivot = (abs(x), i, j)
            if pivot[0] == 1:
                break
        if pivot[0] == math.inf:
            break
        _, i, j = pivot
        a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
        if j != t:
            swap_cols(t, j)
        if a[t][t] < 0:
            a[t] = {j: -x for j, x in a[t].items()}
            u[t] = {k: -x for k, x in u[t].items()}

        i = t + 1
        while True:
            # Clear column t below the pivot.  The scan resumes where it
            # stopped: the rows it passed hold no entry in column t.
            while i < nrows and t not in a[i]:
                i += 1
            if i < nrows:
                add_row(t, i, -(a[i][t] // a[t][t]))
                if t in a[i]:  # remainder is a strictly smaller pivot
                    a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
                continue
            # Column t is now zero outside the pivot, so adding a multiple
            # of it to column j changes only the pivot row's entry j.
            pivot_row = a[t]
            if len(pivot_row) == 1:
                break
            j = min(k for k in pivot_row if k != t)
            factor, rest = divmod(pivot_row.pop(j), pivot_row[t])
            if factor:
                _add_multiple(v[j], v[t], -factor)
            if rest:  # a strictly smaller pivot
                pivot_row[j] = rest
                swap_cols(t, j)
                i = t + 1

        # Divisibility fix: fold a non-multiple into the pivot row and redo.
        # A unit pivot divides every entry, so it needs no scan.
        p = a[t][t]
        offender = p != 1 and next(
            (i for i in range(t + 1, nrows) if any(x % p for x in a[i].values())), None)
        if offender:  # a row index, never 0
            add_row(offender, t, 1)
            continue
        t += 1

    return SmithDecomposition(tuple(u), tuple(a[i].get(i, 0) for i in range(min(nrows, ncols))),
                              tuple(v))


def smith_invariants(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of ``m``: d1 | d2 | ..., zeros last.

    The returned tuple has length min(rows, cols): the diagonal of
    ``smith_normal_form``.
    """
    return smith_normal_form(m).invariants


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


def _kernel(dec: SmithDecomposition) -> tuple[tuple[int, ...], ...]:
    """A basis of the integer kernel of M: the columns of V at zero invariants."""
    n, diag = len(dec.v_columns), dec.invariants
    return tuple(_dense(col, n) for j, col in enumerate(dec.v_columns)
                 if j >= len(diag) or diag[j] == 0)


def _particular(dec: SmithDecomposition, u_columns: Sequence[dict[int, int]],
                b: Sequence[int]) -> tuple[int, ...] | None:
    """The solution V q of M x = b, where S q = U b; None when there is none.

    ``u_columns`` are the columns of U (``_transpose`` of ``u_rows``), so
    c = U b is summed over the nonzero entries of b only (``_apply``).
    Each invariant d_i must divide c_i, and c must vanish past the rank;
    then q_i = c_i / d_i and x = V q runs over the nonzero entries of V's
    first columns.
    """
    c = _apply(u_columns, enumerate(b))
    diag = dec.invariants
    solution = [0] * len(dec.v_columns)
    for i, ci in c.items():
        if not ci:
            continue
        d = diag[i] if i < len(diag) else 0
        if not d or ci % d:
            return None
        q = ci // d
        for r, v in dec.v_columns[i].items():
            solution[r] += v * q
    return tuple(solution)


def solve_integer_system(m: IntMatrix, b: Sequence[int]) -> AffineSolutionSet:
    """Solve M x = b over the integers.

    Diagonalize U M V = S; then M x = b becomes S q = U b with x = V q.
    Each diagonal entry must divide the transformed right-hand side, and
    rows beyond the rank force it to vanish (``_particular``).  Kernel
    basis vectors are the columns of V matching zero diagonal positions
    (``_kernel``).  M is factored on every call; a caller with many
    right-hand sides factors once and calls the two helpers itself.
    """
    if len(b) != m.rows:
        raise DimensionMismatch(f"rhs of length {len(b)} against {m.rows} rows")
    dec = smith_normal_form(m)
    particular = _particular(dec, _transpose(dec.u_rows, m.rows), [int(x) for x in b])
    return AffineSolutionSet(particular, _kernel(dec))


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
