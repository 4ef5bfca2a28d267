"""Exact linear algebra tests: frozen examples plus randomized properties.

The Smith form implementation is cross-checked against two independent
oracles: the determinantal-divisor characterization (the k-th invariant
factor is the gcd of all k x k minors divided by the previous one) and
sympy's normal forms.  Its transforms are compared, entry for entry, with
those of a dense elimination (``smith_oracle``).
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import hfcalc.grading as grading
from hfcalc.atlas import build_annulus_open_book, build_s1s2, build_torus_diagram, stabilize
from hfcalc.zlattice import (AffineSolutionSet, DimensionMismatch, IntMatrix, _apply, _smith,
                             gcd_over_lattice, smith_invariants, smith_normal_form,
                             solve_integer_system)
from smith_oracle import column, corner_matrix, dense_transforms, full_scan_smith, mul_vec


def identity(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    assert a.cols == b.rows
    cols = [column(b, j) for j in range(b.cols)]
    return IntMatrix.from_rows(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.entries], b.cols)


def bareiss_det(m: IntMatrix) -> int:
    """Fraction-free determinant, used to certify unimodularity."""
    n = m.rows
    assert n == m.cols
    a = [[Fraction(x) for x in row] for row in m.entries]
    det = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if a[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    assert det.denominator == 1
    return int(det)


def determinantal_divisors(m: IntMatrix) -> list[int]:
    """gcd of all k x k minors for k = 1..min(rows, cols); brute force."""
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = IntMatrix.from_rows([[m.entries[i][j] for j in cols] for i in rows], k)
                g = gcd(g, abs(bareiss_det(sub)))
        out.append(g)
    return out


def invariants_from_divisors(m: IntMatrix) -> list[int]:
    divs = determinantal_divisors(m)
    inv = []
    prev = 1
    for d in divs:
        if d == 0 or prev == 0:
            inv.append(0)
        else:
            inv.append(d // prev)
        prev = d
    return inv


small_matrices = st.integers(min_value=0, max_value=4).flatmap(
    lambda r: st.integers(min_value=0, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r, max_size=r,
        ).map(lambda rows: IntMatrix.from_rows(rows, c))
    )
)


def test_smith_invariants_examples():
    assert smith_invariants(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert smith_invariants(IntMatrix.from_rows([[0, 0], [0, 0]])) == (0, 0)
    assert smith_invariants(identity(3)) == (1, 1, 1)


def test_smith_invariants_against_divisor_oracle():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert list(smith_invariants(m)) == invariants_from_divisors(m)


def test_solve_examples():
    sol = solve_integer_system(identity(2), [3, -5])
    assert sol.particular == (3, -5)
    assert sol.kernel == ()

    assert solve_integer_system(IntMatrix.from_rows([[2]]), [1]).is_empty
    # U b must vanish past the rank: x = 1 and x = 2 at once, or 0 = 1.
    assert solve_integer_system(IntMatrix.from_rows([[1], [1]]), [1, 2]).is_empty
    assert solve_integer_system(IntMatrix.from_rows([[0, 0]]), [1]).is_empty
    assert solve_integer_system(IntMatrix.from_rows([[1], [1]]), [2, 2]).particular == (2,)

    sol = solve_integer_system(IntMatrix.from_rows([[1, 1]]), [2])
    assert sol.particular is not None
    assert sum(sol.particular) == 2
    # (1, -1) generates the kernel lattice: membership, not basis equality.
    assert len(sol.kernel) == 1
    k = sol.kernel[0]
    assert k in ((1, -1), (-1, 1))


def test_gcd_over_lattice_examples():
    assert gcd_over_lattice([(1, 0), (0, 1)], (4, 6)) == 2
    assert gcd_over_lattice([], (7,)) == 0
    assert gcd_over_lattice([(2, 2)], (1, -1)) == 0


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        solve_integer_system(identity(2), [1])
    with pytest.raises(DimensionMismatch):
        gcd_over_lattice([(1, 2, 3)], (1, 2))
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch, match="expected 3 columns, got 2"):
        IntMatrix.from_rows([[1, 2], [3, 4]], 3)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_smith_form_properties(m):
    dec = smith_normal_form(m)
    u, _, v = dense_transforms(dec)
    if m.rows:
        assert abs(bareiss_det(u)) == 1
    if m.cols:
        assert abs(bareiss_det(v)) == 1
    diag = dec.invariants
    # ``dense_transforms`` writes S diagonal by construction, so U M V itself
    # is checked: zero off the diagonal, the invariants on it.
    product = matmul(matmul(u, m), v).entries
    assert [product[i][i] for i in range(len(diag))] == list(diag)
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert product[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a and b % a == 0
        if a == 0:
            assert b == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5), st.data())
def test_apply_is_the_dense_product(rows, cols, data):
    """``_apply`` is the dense matrix-vector product on random sparse
    matrices: their columns may keep a 0 as an entry, as A's do where
    crossing signs cancel, and it reads no column at a zero term."""
    sparse = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))
    m = IntMatrix.from_rows(data.draw(st.lists(st.lists(sparse, min_size=cols, max_size=cols),
                                               min_size=rows, max_size=rows)), cols)
    x = data.draw(st.lists(sparse, min_size=cols, max_size=cols))
    columns = [{i: a for i, a in enumerate(column(m, j)) if a or data.draw(st.booleans())}
               for j in range(cols)]
    product = _apply(columns, enumerate(x))
    assert set(product) <= {i for j, xj in enumerate(x) if xj for i in columns[j]}
    assert tuple(product.get(i, 0) for i in range(rows)) == mul_vec(m, x)


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_invariants_match_oracles(m):
    inv = list(smith_invariants(m))
    assert inv == invariants_from_divisors(m)
    if m.rows and m.cols:
        sympy_diag = sympy_snf(Matrix([list(r) for r in m.entries]))
        k = min(m.rows, m.cols)
        oracle = sorted(abs(sympy_diag[i, i]) for i in range(k))
        assert sorted(inv) == oracle


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.data())
def test_solve_with_planted_solution(m, data):
    x0 = [data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(m.cols)]
    b = list(mul_vec(m, x0))
    sol = solve_integer_system(m, b)
    assert not sol.is_empty
    assert mul_vec(m, sol.particular) == tuple(b)
    zero = tuple([0] * m.rows)
    for k in sol.kernel:
        assert mul_vec(m, k) == zero
    # Lattice membership: random combinations still solve the system.
    combo = list(sol.particular)
    for k in sol.kernel:
        t = data.draw(st.integers(min_value=-3, max_value=3))
        combo = [a + t * kk for a, kk in zip(combo, k)]
    assert mul_vec(m, combo) == tuple(b)


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.data())
def test_kernel_is_complete(m, data):
    """Every rational kernel vector that is integral lies in the lattice."""
    sol = solve_integer_system(m, [0] * m.rows)
    assert sol.particular == tuple([0] * m.cols)
    v = [data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(m.cols)]
    if mul_vec(m, v) != tuple([0] * m.rows):
        return
    # v must be an integer combination of the reported kernel basis.
    if not sol.kernel:
        assert all(x == 0 for x in v)
        return
    basis_matrix = IntMatrix.from_rows(
        [[k[i] for k in sol.kernel] for i in range(m.cols)], len(sol.kernel))
    expansion = solve_integer_system(basis_matrix, v)
    assert not expansion.is_empty


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
                min_size=0, max_size=3),
       st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3))
def test_gcd_over_lattice_matches_enumeration(basis, f):
    got = gcd_over_lattice(basis, f)
    values = set()
    for combo in itertools.product((-2, -1, 0, 1, 2), repeat=len(basis)):
        vec = [0, 0, 0]
        for t, k in zip(combo, basis):
            vec = [a + t * b for a, b in zip(vec, k)]
        values.add(abs(sum(a * b for a, b in zip(f, vec))))
    g = 0
    for v in values:
        g = gcd(g, v)
    assert got == g


# ---------------------------------------------------------------------------
# The sparse transforms against the dense full scan
# ---------------------------------------------------------------------------

def assert_matches_full_scan(m: IntMatrix) -> None:
    """U, S and V equal the dense oracle's, and the sparse rows of U and
    columns of V store no zero."""
    dec = smith_normal_form(m)
    u, s, v = full_scan_smith(m)
    assert dense_transforms(dec) == (u, s, v)
    assert len(dec.u_rows) == m.rows and len(dec.v_columns) == m.cols
    assert all(x for row in dec.u_rows for x in row.values())
    assert all(x for col in dec.v_columns for x in col.values())
    assert dec.invariants == tuple(s.entries[i][i] for i in range(min(m.rows, m.cols)))
    assert dec.invariants == smith_invariants(m)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_smith_form_matches_full_scan_small(m):
    assert_matches_full_scan(m)


def test_smith_form_matches_full_scan_random():
    # Sparse matrices with entries in -2..2 have many unit entries, so
    # the early stop and the skipped divisibility scan both trigger often.
    rng = random.Random(5)
    for _ in range(300):
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -2)) for _ in range(c)] for _ in range(r)]
        assert_matches_full_scan(IntMatrix.from_rows(rows, c))
    # Empty shapes, and wider entries that force remainders, restarts and
    # divisibility folds.
    for r, c in [(0, 0), (0, 5), (5, 0)]:
        assert_matches_full_scan(IntMatrix.from_rows([[0] * c for _ in range(r)], c))
    for _ in range(200):
        r, c = rng.randint(0, 14), rng.randint(0, 14)
        values = rng.choice([(0, 0, 0, 0, 1, -1), (0, 0, 3, -4, 6, 9)])
        rows = [[rng.choice(values) for _ in range(c)] for _ in range(r)]
        assert_matches_full_scan(IntMatrix.from_rows(rows, c))


def test_smith_form_matches_full_scan_on_atlas_matrices(monkeypatch):
    """Every intersection matrix factored for atlas diagrams, and the
    corner matrices of those with a class of several members."""
    seen = []

    def recording(rows, ncols):
        seen.append(IntMatrix.from_rows([[row.get(j, 0) for j in range(ncols)] for row in rows],
                                        ncols))
        return _smith(rows, ncols)

    monkeypatch.setattr(grading, "_smith", recording)
    diagrams = [build_torus_diagram(p, q).diagram
                for p in range(1, 8) for q in range(p) if gcd(p, q) == 1]
    diagrams += [build_annulus_open_book(n).diagram for n in range(-5, 6)]
    diagrams.append(build_s1s2().diagram)
    diagrams += [stabilize(d)[0].diagram for d in diagrams[:8]]
    corners = []
    for d in diagrams:
        grading.grading_table(d)
        grading.spinc_partition(d)
        grading.homology_of_Y(d)
        largest = max(grading.spinc_partition(d), key=lambda c: len(c.members))
        if len(largest.members) > 1:
            grading.solve_domain(d, *largest.members[:2])
            corners.append(corner_matrix(d))
    # One intersection matrix for each of the 38 diagrams, and nothing
    # else: solving a domain factors no corner matrix.  The 7 with a class
    # of several members (the open books 0..5 and s1s2) give the corner
    # matrices, factored here directly.
    assert len(diagrams) == 38
    assert [(m.rows, m.cols) for m in seen] == [(d.genus, d.genus) for d in diagrams]
    assert len(corners) == 7
    for m in seen + corners:
        assert_matches_full_scan(m)
