"""Generator enumeration, corner system, measures, classes, gradings."""

import gc
import itertools
import json
import random
import sys
import weakref
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from hfcalc.atlas import build_annulus_open_book, build_s1s2, build_torus_diagram, stabilize
from hfcalc.diagram import (ValidationError, assemble_regions, load_diagram, rename,
                            reverse_curve, serialize)
from hfcalc.grading import (ConsistencyError, Generator, GradingLabel, MixedLabelError,
                            NoConnectingClassError, NoPositiveRepresentative,
                            TwistedElement, basepoint_multiplicity,
                            build_corner_system, divisibility, enumerate_generators,
                            euler_measure, generator_measure, gr0_of_theta,
                            grading_table, homogeneous_lattice, homology_of_Y,
                            label_of, maslov_index, point_measure,
                            positive_representative, relative_grading, shift_label,
                            solve_domain, spinc_class_of, spinc_partition,
                            theta_and_shift, twisted_label)
from hfcalc.zlattice import (DimensionMismatch, IntMatrix, gcd_over_lattice, smith_invariants,
                             solve_integer_system)
from conftest import (D2_TEXT, L31_TEXT, S3_TEXT, TWO_FINGER_TEXT, s1s2_plus_pairs_text,
                      s1s2_sum_text)
from smith_oracle import column, full_scan_smith, mul_vec
from strategies import transformed_diagrams


def boundary_trace(diagram, coeffs):
    """Independent oracle: retrace the domain boundary circle by circle.

    Accumulates the signed arc content of every region's boundary circles
    weighted by the region coefficient, then takes endpoints.  Returns the
    alpha and beta 0-chains (vertex -> coefficient).
    """
    arc_coeff = [0] * diagram.n_arcs
    for region, a in zip(diagram.regions, coeffs):
        if not a:
            continue
        for f in region.faces:
            for dart in diagram.faces[f]:
                arc_coeff[dart // 2] += a if dart % 2 == 0 else -a
    alpha_chain = [0] * diagram.n_vertices
    beta_chain = [0] * diagram.n_vertices
    for arc in diagram.arcs:
        chain = alpha_chain if arc.family == "alpha" else beta_chain
        chain[arc.head] += arc_coeff[arc.index]
        chain[arc.tail] -= arc_coeff[arc.index]
    return alpha_chain, beta_chain


def zero_chain(diagram, gen):
    out = [0] * diagram.n_vertices
    for v in gen.vertices:
        out[v] += 1
    return out


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_enumerate_counts(s3, l31):
    assert len(enumerate_generators(s3)) == 1
    assert len(enumerate_generators(l31)) == 3


def test_enumerate_product_count(s1s2):
    # Stabilized S1 x S2: |a0 ^ b0| = 2, |a1 ^ b1| = 1, cross pairs empty.
    st, _ = stabilize(s1s2)
    assert len(enumerate_generators(st.diagram)) == 2


def test_generator_display_round_trip(l31):
    for g in enumerate_generators(l31):
        assert Generator.from_display(l31, g.display(l31)) == g


def test_from_display_agrees_with_the_enumerated_generators(atlas_suite):
    # Every multiset of genus - 1 to genus + 1 vertices, listed in a random
    # order, resolves exactly when its vertex set is a generator's.  Random
    # curve systems have vertices on distinct alpha curves but one beta curve.
    from test_diagram import random_curve_system

    rng = random.Random(7)
    diagrams = atlas_suite + [stabilize(d)[0].diagram for d in atlas_suite]
    for _ in range(200):
        try:
            diagrams.append(assemble_regions(random_curve_system(rng)))
        except ValidationError:
            pass
    for d in diagrams:
        by_set = {tuple(sorted(g.vertices)): g for g in enumerate_generators(d)}
        for size in (d.genus - 1, d.genus, d.genus + 1):
            for vertices in itertools.combinations_with_replacement(range(d.n_vertices), size):
                names = [d.vertex_names[v] for v in rng.sample(vertices, len(vertices))]
                text = ",".join(names)
                if vertices in by_set:
                    assert Generator.from_display(d, text) == by_set[vertices]
                else:
                    with pytest.raises(KeyError, match="is not a generator"):
                        Generator.from_display(d, text)


def test_from_display_does_not_enumerate(monkeypatch):
    import hfcalc.grading as grading

    calls = []
    enumerate_all = grading.enumerate_generators
    monkeypatch.setattr(grading, "enumerate_generators",
                        lambda d: calls.append(d) or enumerate_all(d))
    d = load_diagram(s1s2_sum_text(20))  # 2^20 generators
    names = [f"{'y' if i % 3 else 'x'}{i}" for i in range(20)]
    g = Generator.from_display(d, ",".join(reversed(names)))
    assert g.vertices == tuple(map(d.vertex_id, names))
    assert calls == []


def enumerate_recursive(diagram):
    """Reference: generator enumeration by recursive backtracking."""
    beta_of = [-1] * diagram.n_vertices
    for j, (_, verts) in enumerate(diagram.beta):
        for v in verts:
            beta_of[v] = j
    out, chosen, used_beta = [], [], set()

    def rec(i):
        if i == diagram.genus:
            out.append(Generator(tuple(chosen)))
            return
        for v in diagram.alpha[i][1]:
            b = beta_of[v]
            if b in used_beta:
                continue
            used_beta.add(b)
            chosen.append(v)
            rec(i + 1)
            chosen.pop()
            used_beta.remove(b)

    rec(0)
    return tuple(out)


def test_enumerate_matches_recursive_atlas(atlas_suite):
    for d in atlas_suite:
        assert enumerate_generators(d) == enumerate_recursive(d)


@settings(max_examples=40, deadline=None)
@given(transformed_diagrams())
def test_enumerate_matches_recursive_transformed(d):
    assert enumerate_generators(d) == enumerate_recursive(d)


@st.composite
def curve_incidences(draw):
    """The curve data enumeration reads, with vertices on arbitrary curve pairs,
    and the empty per-diagram cache it is memoized in.

    Atlas diagrams only meet alpha i with beta i, so used beta curves never
    prune there; here they do.
    """
    genus = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=0, max_value=14))
    curve = st.integers(min_value=0, max_value=genus - 1)
    on_alpha = draw(st.lists(curve, min_size=n, max_size=n))
    on_beta = draw(st.lists(curve, min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    alpha = tuple((f"a{i}", tuple(v for v in order if on_alpha[v] == i)) for i in range(genus))
    beta = tuple((f"b{j}", tuple(v for v in range(n) if on_beta[v] == j))
                 for j in range(genus))
    return SimpleNamespace(genus=genus, n_vertices=n, alpha=alpha, beta=beta,
                           beta_of=tuple(on_beta), _cache={})


@settings(max_examples=300, deadline=None)
@given(curve_incidences())
def test_enumerate_matches_recursive_with_crossings(d):
    assert enumerate_generators(d) == enumerate_recursive(d)


def test_enumerate_beyond_the_recursion_limit():
    d = load_diagram(s1s2_plus_pairs_text(1100))
    assert d.genus == 1101 > sys.getrecursionlimit()
    gens = enumerate_generators(d)
    assert len(gens) == 2
    assert [g.vertices[1:] for g in gens] == [tuple(range(2, 1102))] * 2


# ---------------------------------------------------------------------------
# Corner system and domains
# ---------------------------------------------------------------------------

def test_corner_system_zero_rhs_for_equal_generators(l31):
    g = enumerate_generators(l31)[0]
    _, rhs = build_corner_system(l31, g, g)
    assert all(v == 0 for v in rhs)


@pytest.mark.parametrize("fixture", ["s3", "l31", "s1s2", "two_finger"])
def test_full_surface_class_in_kernel(fixture, request):
    d = request.getfixturevalue(fixture)
    g = enumerate_generators(d)[0]
    m, _ = build_corner_system(d, g, g)
    assert mul_vec(m, [1] * d.n_regions) == tuple([0] * (2 * d.n_vertices))


def test_bigon_solves_corner_system(s1s2):
    x, y = enumerate_generators(s1s2)
    m, rhs = build_corner_system(s1s2, x, y)
    bigon = [0] * s1s2.n_regions
    bigon[next(i for i in range(s1s2.n_regions)
               if s1s2.canonical_region_name(i) == "a0.0+")] = 1
    assert mul_vec(m, bigon) == tuple(rhs)


@pytest.mark.parametrize("fixture", ["s1s2", "two_finger", "d2_diagram"])
def test_boundary_trace_oracle(fixture, request):
    d = request.getfixturevalue(fixture)
    gens = enumerate_generators(d)
    rng = random.Random(11)
    for x in gens:
        for y in gens:
            dom = solve_domain(d, x, y)
            if dom is None:
                continue
            for _ in range(5):
                steps = [rng.randint(-2, 2) for _ in dom.lattice]
                cand = dom.translate(steps)
                a_chain, b_chain = boundary_trace(d, cand.coefficients)
                want = [yy - xx for xx, yy in zip(zero_chain(d, x), zero_chain(d, y))]
                assert a_chain == want
                assert b_chain == [-w for w in want]


def test_solve_distinct_lens_generators(l31):
    gens = enumerate_generators(l31)
    assert solve_domain(l31, gens[0], gens[1]) is None


def test_solve_zero_domain(l31):
    g = enumerate_generators(l31)[0]
    dom = solve_domain(l31, g, g)
    assert dom is not None
    m, rhs = build_corner_system(l31, g, g)
    assert mul_vec(m, dom.coefficients) == tuple(rhs)


def test_positive_representative_cases(s1s2):
    x, y = enumerate_generators(s1s2)
    zero = solve_domain(s1s2, x, x)
    zero_pos = positive_representative(zero.translate([0] * len(zero.lattice)))
    assert all(c >= 0 for c in zero_pos.coefficients)

    dom = solve_domain(s1s2, x, y)
    bigon = positive_representative(dom)
    names = {s1s2.canonical_region_name(i): c for i, c in enumerate(bigon.coefficients)}
    assert names == {"a0.0+": 1, "a0.0-": 0, "a0.1-": 0}

    # bigon minus the full surface comes back as the bigon.
    ones = [c - 1 for c in bigon.coefficients]
    shifted = dom._replace(coefficients=tuple(ones))
    assert positive_representative(shifted).coefficients == bigon.coefficients


def test_positive_representative_radius_failure(s1s2):
    x, y = enumerate_generators(s1s2)
    dom = solve_domain(s1s2, x, y)
    deep = dom._replace(coefficients=tuple(c - 100 for c in dom.coefficients))
    with pytest.raises(NoPositiveRepresentative) as err:
        positive_representative(deep, radius=3)
    assert err.value.radius == 3


def test_positive_representative_rejects_a_negative_radius(s1s2):
    x, _ = enumerate_generators(s1s2)
    zero = solve_domain(s1s2, x, x)
    with pytest.raises(ValueError, match="nonnegative"):
        positive_representative(zero, radius=-1)
    assert positive_representative(zero, radius=0).coefficients == zero.coefficients


def search_oracle(domain, radius):
    """The positive-representative search with its own lattice-combination
    loop, verbatim, as an oracle for the one built on ``Domain.translate``."""
    basis = domain.lattice
    base = domain.coefficients
    if not basis:
        if all(c >= 0 for c in base):
            return domain
        raise NoPositiveRepresentative(radius)
    rank = len(basis)
    for shell in range(radius + 1):
        for combo in itertools.product(range(-shell, shell + 1), repeat=rank):
            if max((abs(c) for c in combo), default=0) != shell:
                continue
            coeffs = list(base)
            for s, vec in zip(combo, basis):
                for i, v in enumerate(vec):
                    coeffs[i] += s * v
            if all(c >= 0 for c in coeffs):
                return domain._replace(coefficients=tuple(coeffs))
    raise NoPositiveRepresentative(radius)


def search_outcome(search, domain, radius):
    try:
        return "found", search(domain, radius).coefficients
    except NoPositiveRepresentative as e:
        return "failed", e.radius


def assert_search_matches_oracle(d, rng, pairs=6):
    """Sampled same-class pairs, each at a random radius 0-4, as solved and
    pushed down by a random multiple of the full surface (which forces
    failures at small radii).  Returns the outcomes seen, as ("rank 1" or
    "rank >= 2", "found" or "failed"): rank 1 takes the closed form."""
    rank = "rank 1" if len(homogeneous_lattice(d)) == 1 else "rank >= 2"
    outcomes = set()
    for cls in spinc_partition(d):
        for _ in range(pairs):
            x, y = rng.choice(cls.members), rng.choice(cls.members)
            dom = solve_domain(d, x, y)
            for depth in (0, rng.randint(1, 6)):
                low = dom._replace(coefficients=tuple(c - depth for c in dom.coefficients))
                radius = rng.randint(0, 4)
                got = search_outcome(positive_representative, low, radius)
                assert got == search_outcome(search_oracle, low, radius)
                outcomes.add((rank, got[0]))
    return outcomes


def test_positive_search_matches_the_oracle(atlas_suite):
    rng = random.Random(5)
    outcomes = set()
    for d in list(atlas_suite) + [load_diagram(s1s2_sum_text(g)) for g in range(1, 5)]:
        outcomes |= assert_search_matches_oracle(d, rng)
    assert outcomes == {(rank, outcome) for rank in ("rank 1", "rank >= 2")
                        for outcome in ("found", "failed")}


@settings(max_examples=40, deadline=None)
@given(transformed_diagrams(), st.randoms(use_true_random=False))
def test_positive_search_matches_the_oracle_transformed(d, rng):
    assert_search_matches_oracle(d, rng, pairs=3)


# ---------------------------------------------------------------------------
# Measures and the index
# ---------------------------------------------------------------------------

def test_euler_measure_square_region():
    d = build_torus_diagram(2, 1).diagram
    square = [1, 0]
    assert euler_measure(d, square) == 0  # disk with four corners


def test_euler_measure_bigon(s1s2):
    bigon = [1 if s1s2.canonical_region_name(i) == "a0.0+" else 0
             for i in range(s1s2.n_regions)]
    assert euler_measure(s1s2, bigon) == Fraction(1, 2)


@pytest.mark.parametrize("fixture", ["s3", "l31", "s1s2", "two_finger"])
def test_euler_measure_full_surface(fixture, request):
    d = request.getfixturevalue(fixture)
    assert euler_measure(d, [1] * d.n_regions) == 2 - 2 * d.genus


def test_point_measures(s3, s1s2):
    assert point_measure(s3, [1], "x0") == 1
    bigon = [1 if s1s2.canonical_region_name(i) == "a0.0+" else 0
             for i in range(s1s2.n_regions)]
    assert point_measure(s1s2, bigon, "x0") == Fraction(1, 4)
    complement = [1 - c for c in bigon]
    assert point_measure(s1s2, complement, "x0") == Fraction(3, 4)


@pytest.mark.parametrize("vertex", ["nope", -1, 99])
def test_point_measure_unknown_vertex(s1s2, vertex):
    with pytest.raises(KeyError, match=f"unknown vertex {vertex!r}"):
        point_measure(s1s2, [0] * s1s2.n_regions, vertex)


def test_maslov_zero_and_bigon(s1s2):
    x, y = enumerate_generators(s1s2)
    zero = solve_domain(s1s2, x, x)
    assert maslov_index(s1s2, x, x, zero) == 0
    bigon = positive_representative(solve_domain(s1s2, x, y))
    assert maslov_index(s1s2, x, y, bigon) == 1
    assert euler_measure(s1s2, bigon) == Fraction(1, 2)
    assert generator_measure(s1s2, bigon, x) == Fraction(1, 4)
    assert generator_measure(s1s2, bigon, y) == Fraction(1, 4)


@pytest.mark.parametrize("fixture", ["s3", "l31", "s1s2", "two_finger"])
def test_maslov_of_full_surface_is_two(fixture, request):
    d = request.getfixturevalue(fixture)
    for g in enumerate_generators(d):
        assert maslov_index(d, g, g, [1] * d.n_regions) == 2


@pytest.mark.parametrize("entry", [
    lambda d, x, y, c: euler_measure(d, c),
    lambda d, x, y, c: point_measure(d, c, x.vertices[0]),
    lambda d, x, y, c: generator_measure(d, c, x),
    lambda d, x, y, c: basepoint_multiplicity(d, c),
    maslov_index,
], ids=["euler_measure", "point_measure", "generator_measure", "basepoint_multiplicity",
        "maslov_index"])
@pytest.mark.parametrize("coeffs", [[], [1, 1], [1, 1, 1, 1]])
def test_domains_of_the_wrong_length_are_rejected(entry, coeffs, s1s2):
    x, y = enumerate_generators(s1s2)
    with pytest.raises(DimensionMismatch, match="3 regions"):
        entry(s1s2, x, y, coeffs)


# ---------------------------------------------------------------------------
# Spin^c classes, divisibility, relative grading
# ---------------------------------------------------------------------------

def test_spinc_partitions(s3, l31, s1s2):
    assert [len(c.members) for c in spinc_partition(s3)] == [1]
    assert [len(c.members) for c in spinc_partition(l31)] == [1, 1, 1]
    assert [len(c.members) for c in spinc_partition(s1s2)] == [2]


def test_divisibilities(s3, s1s2, d2_diagram):
    assert spinc_partition(s3)[0].divisibility == 0
    assert spinc_partition(s1s2)[0].divisibility == 0
    assert spinc_partition(d2_diagram)[0].divisibility == 2


@pytest.mark.parametrize("fixture", ["s3", "l31", "s1s2", "two_finger", "d2_diagram"])
def test_full_surface_contributes_zero(fixture, request):
    d = request.getfixturevalue(fixture)
    anchor = enumerate_generators(d)[0]
    ones = [1] * d.n_regions
    value = (maslov_index(d, anchor, anchor, ones)
             - 2 * basepoint_multiplicity(d, ones))
    assert value == 0


def test_relative_grading_cases(s1s2, l31):
    x, y = enumerate_generators(s1s2)
    assert relative_grading(s1s2, x, x) == 0
    assert relative_grading(s1s2, x, y) == 1  # the bigon, z outside

    # Ambiguity: adding the full surface leaves the value unchanged.
    dom = positive_representative(solve_domain(s1s2, x, y))
    shifted = [c + 1 for c in dom.coefficients]
    val = maslov_index(s1s2, x, y, shifted) - 2 * basepoint_multiplicity(s1s2, shifted)
    assert val == relative_grading(s1s2, x, y)

    gens = enumerate_generators(l31)
    with pytest.raises(NoConnectingClassError):
        relative_grading(l31, gens[0], gens[1])


def test_relative_grading_mod_two(d2_diagram):
    x, y = enumerate_generators(d2_diagram)
    d = spinc_partition(d2_diagram)[0].divisibility
    assert d == 2
    g = relative_grading(d2_diagram, x, y)
    assert g in (0, 1)
    assert (g + relative_grading(d2_diagram, y, x)) % 2 == 0


def test_grading_tables(s3, l31, s1s2):
    table = grading_table(s3)
    assert [(l.spinc, l.offset, l.modulus) for _, l in table] == [(0, 0, 0)]
    table = grading_table(l31)
    assert sorted((l.spinc, l.offset) for _, l in table) == [(0, 0), (1, 0), (2, 0)]
    table = grading_table(s1s2)
    assert sorted(l.offset for _, l in table) == [-1, 0]
    anchors = [l.offset for g, l in table
               if g == spinc_partition(s1s2)[0].anchor]
    assert anchors == [0]


def test_shift_label():
    assert shift_label(GradingLabel(0, 0, 0), 1) == GradingLabel(0, 2, 0, 1)
    assert shift_label(GradingLabel(0, 5, 0), 0) == GradingLabel(0, 5, 0, 0)
    assert shift_label(GradingLabel(0, 2, 3), 2) == GradingLabel(0, 0, 3, 2)


def test_twisted_label(s1s2):
    x, y = enumerate_generators(s1s2)
    assert twisted_label(s1s2, TwistedElement((((1, 0), x),))) == label_of(s1s2, x)
    same = TwistedElement((((1, 0), x), ((0, 3), x)))
    assert twisted_label(s1s2, same) == label_of(s1s2, x)
    mixed = TwistedElement((((0, 0), x), ((0, 0), y)))
    with pytest.raises(MixedLabelError):
        twisted_label(s1s2, mixed)
    with pytest.raises(ValueError):
        TwistedElement(())


def test_theta_and_shift():
    assert theta_and_shift(0, 2, 0) == (-4, -1)
    assert theta_and_shift(0, 0, 0) == (0, 0)
    assert gr0_of_theta(-2) == 0


def test_homology(s3, l31, s1s2):
    assert homology_of_Y(s3) == homology_of_Y(s3).__class__(0, ())
    assert (homology_of_Y(l31).b1, homology_of_Y(l31).torsion) == (0, (3,))
    assert (homology_of_Y(s1s2).b1, homology_of_Y(s1s2).torsion) == (1, ())
    assert homology_of_Y(l31).order == 3
    assert homology_of_Y(s1s2).order == 0


def homology_spanning_forest(diagram):
    """H1 through a spanning forest of the surface's 1-skeleton (the earlier
    implementation, kept verbatim as an independent oracle)."""
    nv = diagram.n_vertices
    parent = list(range(nv))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges: list[tuple[int, int]] = [(a.tail, a.head) for a in diagram.arcs]
    arc_edge = list(range(len(diagram.arcs)))

    def circle_anchor(face: int) -> int:
        d = diagram.faces[face][0]
        arc = diagram.arcs[d // 2]
        return arc.tail if d % 2 == 0 else arc.head

    for r in diagram.regions:
        a0 = circle_anchor(r.faces[0])
        for f in r.faces[1:]:
            edges.append((a0, circle_anchor(f)))
        for _ in range(2 * r.genus):
            edges.append((a0, a0))

    nontree: list[int] = []
    for idx, (u, v) in enumerate(edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            nontree.append(idx)
        else:
            parent[ru] = rv

    col_of = {e: i for i, e in enumerate(nontree)}
    ncols = len(nontree)

    def walk_row(darts) -> list[int]:
        row = [0] * ncols
        for d in darts:
            e = arc_edge[d // 2]
            if e in col_of:
                row[col_of[e]] += 1 if d % 2 == 0 else -1
        return row

    rows = []
    for r in diagram.regions:
        acc = [0] * ncols
        for f in r.faces:
            for i, x in enumerate(walk_row(diagram.faces[f])):
                acc[i] += x
        rows.append(acc)
    for curves in (diagram.alpha, diagram.beta):
        for name, _ in curves:
            darts = [2 * a.index for a in diagram.arcs if a.curve == name]
            rows.append(walk_row(darts))

    inv = smith_invariants(IntMatrix.from_rows(rows, ncols))
    nonzero = [d for d in inv if d]
    b1 = ncols - len(nonzero)
    torsion = tuple(d for d in nonzero if d > 1)
    return b1, torsion


def assert_homology_matches_oracles(d):
    h = homology_of_Y(d)
    assert (h.b1, h.torsion) == homology_spanning_forest(d)
    # sympy's Smith form of alpha_i . beta_j, read from the parsed listings.
    g = d.genus
    alpha_of = {v: i for i, (_, verts) in enumerate(d.input.alpha) for v in verts}
    m = [[0] * g for _ in range(g)]
    for j, (_, verts) in enumerate(d.input.beta):
        for v in verts:
            m[alpha_of[v]][j] += d.input.signs[v]
    snf = sympy_snf(Matrix(m))
    factors = sorted(abs(int(snf[i, i])) for i in range(g))
    assert h.b1 == factors.count(0)
    assert h.torsion == tuple(f for f in factors if f > 1)


def test_homology_matches_oracles_atlas_and_fixtures(atlas_suite):
    texts = [S3_TEXT, L31_TEXT, D2_TEXT, TWO_FINGER_TEXT]
    texts += [s1s2_plus_pairs_text(k) for k in (1, 5, 40)]
    texts += [s1s2_sum_text(g) for g in range(1, 5)]
    for d in list(atlas_suite) + [load_diagram(t) for t in texts]:
        assert_homology_matches_oracles(d)


@settings(max_examples=40, deadline=None)
@given(transformed_diagrams())
def test_homology_matches_oracles_transformed(d):
    assert_homology_matches_oracles(d)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def curve_reversals(d):
    """Every diagram obtained from ``d`` by reversing one curve."""
    return [assemble_regions(reverse_curve(d.input, c)) for c in d.input.curve_names()]


def test_lattice_rank_identity(atlas_suite):
    # ``hfcalc info`` prints 1 + b1 as the lattice rank without factoring M.
    once = [stabilize(d)[0].diagram for d in atlas_suite]
    twice = [stabilize(d)[0].diagram for d in once]
    reversed_ = [r for d in atlas_suite + once for r in curve_reversals(d)]
    for d in atlas_suite + once + twice + reversed_:
        assert len(homogeneous_lattice(d)) == 1 + homology_of_Y(d).b1


@pytest.mark.parametrize("fixture", ["s1s2", "two_finger", "d2_diagram"])
def test_grading_ambiguity_mod_d(fixture, request):
    d = request.getfixturevalue(fixture)
    rng = random.Random(5)
    for cls in spinc_partition(d):
        for x in cls.members:
            for y in cls.members:
                dom = solve_domain(d, x, y)
                base = (maslov_index(d, x, y, dom)
                        - 2 * basepoint_multiplicity(d, dom))
                for _ in range(20):
                    steps = [rng.randint(-4, 4) for _ in dom.lattice]
                    other = dom.translate(steps)
                    val = (maslov_index(d, x, y, other)
                           - 2 * basepoint_multiplicity(d, other))
                    if cls.divisibility:
                        assert (val - base) % cls.divisibility == 0
                    else:
                        assert val == base


@pytest.mark.parametrize("fixture", ["s1s2", "two_finger", "d2_diagram"])
def test_antisymmetry_and_additivity(fixture, request):
    # relative_grading is a difference of potentials, so additivity among
    # its own values would only restate it: the sums are checked against
    # two pairwise gradings of (x, z), of the corner system solved for the
    # pair (M) and of D0.
    import hfcalc.grading as grading

    d = request.getfixturevalue(fixture)
    for cls in spinc_partition(d):
        m = cls.divisibility
        for x in cls.members:
            for y in cls.members:
                s = relative_grading(d, x, y) + relative_grading(d, y, x)
                assert s % m == 0 if m else s == 0
                for z in cls.members:
                    rhs = relative_grading(d, x, y) + relative_grading(d, y, z)
                    corner = solve_integer_system(*build_corner_system(d, x, z)).particular
                    for oracle in (maslov_index(d, x, z, corner) - 2 * corner[d.basepoint_region],
                                   grading._domain_grading(grading._domain_avoiding_z(d, x, z))):
                        assert (oracle - rhs) % m == 0 if m else oracle == rhs


@pytest.mark.parametrize("build", [
    lambda: build_annulus_open_book(6).diagram,
    lambda: build_s1s2().diagram,
    lambda: load_diagram(D2_TEXT),
    lambda: load_diagram(TWO_FINGER_TEXT),
], ids=["openbook6", "s1s2", "d2", "two_finger"])
def test_relative_grading_builds_one_d0_per_generator(build, monkeypatch):
    """Two passes over every same-class pair build D0 once per non-anchor
    generator, from it to its anchor, and never for an anchor."""
    import hfcalc.grading as grading

    d = build()
    real = grading._domain_avoiding_z
    built = []

    def counting(diagram, x, y):
        built.append((x, y))
        return real(diagram, x, y)

    monkeypatch.setattr(grading, "_domain_avoiding_z", counting)
    first = [relative_grading(d, x, y) for cls in spinc_partition(d)
             for x in cls.members for y in cls.members]
    assert built
    second = [relative_grading(d, x, y) for cls in spinc_partition(d)
              for x in cls.members for y in cls.members]
    assert first == second
    anchors = {cls.anchor for cls in spinc_partition(d)}
    sources = [x for x, _ in built]
    assert len(sources) == len(set(sources)) == len(enumerate_generators(d)) - len(anchors)
    assert all(y == spinc_class_of(d, x).anchor != x for x, y in built)


def test_label_differences_realize_relative_grading(rational_atlas, irrational_atlas):
    # The labels come from D0, at every b1; the reference grades the corner
    # solve instead.
    import hfcalc.grading as grading

    for d in rational_atlas + irrational_atlas:
        table = dict(grading_table(d))
        for cls in spinc_partition(d):
            m = cls.divisibility
            for x in cls.members:
                for y in cls.members:
                    diff = table[x].offset - table[y].offset
                    gr = grading._domain_grading(solve_domain(d, x, y))
                    assert (diff - gr) % m == 0 if m else diff == gr


def _grading_fingerprint(d):
    out = []
    for cls in spinc_partition(d):
        members = sorted(g.display(d) for g in cls.members)
        rows = []
        for x in cls.members:
            for y in cls.members:
                rows.append((x.display(d), y.display(d), relative_grading(d, x, y)))
        out.append((len(cls.members), cls.divisibility, sorted(rows)))
    return sorted(out)


@pytest.mark.parametrize("curve", ["a0", "b0"])
def test_orientation_reversal_robustness(curve, s1s2, d2_diagram):
    for d in (s1s2, d2_diagram):
        rev = assemble_regions(reverse_curve(d.input, curve))
        assert _grading_fingerprint(rev) == _grading_fingerprint(d)


def test_rename_robustness(two_finger):
    mapping = {"x0": "p3", "x1": "p2", "x2": "p1", "x3": "p0"}
    renamed = assemble_regions(rename(two_finger.input, vertex_map=mapping,
                                      curve_map={"a0": "c", "b0": "d"}))
    a = sorted((len(c.members), c.divisibility) for c in spinc_partition(two_finger))
    b = sorted((len(c.members), c.divisibility) for c in spinc_partition(renamed))
    assert a == b

    def map_gen(g):
        names = [mapping[two_finger.vertex_names[v]] for v in g.vertices]
        return Generator.from_display(renamed, ",".join(names))

    for cls in spinc_partition(two_finger):
        for x in cls.members:
            for y in cls.members:
                assert relative_grading(two_finger, x, y) == \
                    relative_grading(renamed, map_gen(x), map_gen(y))


# ---------------------------------------------------------------------------
# Oracle: the factored corner system against the pairwise solver
# ---------------------------------------------------------------------------

def pairwise_reference(d):
    """Classes, domains, lattice and table decided pair by pair.

    Every pair gets its own corner system and its own Smith form, and the
    partition is checked for transitivity explicitly: every pair inside a
    class connects, no pair across classes does.
    """
    gens = enumerate_generators(d)

    def solve(x, y):
        m, rhs = build_corner_system(d, x, y)
        return solve_integer_system(m, rhs)

    classes = []
    for g in gens:
        for cls in classes:
            if not solve(cls[0], g).is_empty:
                cls.append(g)
                break
        else:
            classes.append([g])
    for cls in classes:
        for a, b in itertools.combinations(cls, 2):
            assert not solve(a, b).is_empty, "connectivity is not transitive"
    for c1, c2 in itertools.combinations(classes, 2):
        for a in c1:
            for b in c2:
                assert solve(a, b).is_empty, "distinct classes contain a connected pair"

    def value(x, y, coeffs):
        """mu - 2 n_z region by region in Fractions, from the diagram's raw
        data only; maslov_index must agree with the mu part."""
        e = sum((a * (Fraction(r.chi) - Fraction(d.corner_counts[r.index], 4))
                 for r, a in zip(d.regions, coeffs)), Fraction(0))
        n_xy = sum((Fraction(coeffs[k], 4) for g in (x, y) for v in g.vertices
                    for k in d.quadrants[v]), Fraction(0))
        mu = e + n_xy
        assert mu.denominator == 1
        assert maslov_index(d, x, y, coeffs) == mu
        return int(mu) - 2 * coeffs[d.basepoint_region]

    x0 = gens[0] if gens else Generator(())
    lattice = solve(x0, x0).kernel
    domains = {(x, y): solve(x, y).particular for x in gens for y in gens}
    for (x, y), particular in domains.items():
        if particular is not None:
            value(x, y, particular)
    partition, table = [], {}
    for i, cls in enumerate(classes):
        anchor = min(cls, key=lambda g: sorted(d.vertex_names[v] for v in g.vertices))
        div = 0
        for vec in lattice:
            div = gcd(div, abs(value(anchor, anchor, vec)))
        partition.append((i, tuple(cls), anchor, div))
        for g in cls:
            off = value(g, anchor, domains[(g, anchor)])
            table[g] = GradingLabel(i, off % div if div else off, div)
    return partition, domains, lattice, tuple((g, table[g]) for g in gens)


def in_span(basis, vector):
    """Whether ``vector`` is an integer combination of ``basis``."""
    span = IntMatrix.from_rows(zip(*basis), len(basis))
    return not solve_integer_system(span, vector).is_empty


def assert_solves_like_the_corner_system(d, x, y, particular, kernel):
    """``solve_domain(x, y)`` has n_z = 0 and differs from ``particular``, a
    solution of the corner system, by an integer combination of ``kernel``,
    M's kernel basis; when b1 = 0 it is D0(x, y), built pair by pair."""
    import hfcalc.grading as grading

    dom = solve_domain(d, x, y)
    assert (dom.source, dom.target) == (x, y)
    assert dom.coefficients[d.basepoint_region] == 0
    assert in_span(kernel, [a - b for a, b in zip(dom.coefficients, particular)])
    if not homology_of_Y(d).b1:
        assert dom.coefficients == grading._domain_avoiding_z(d, x, y).coefficients


def assert_matches_pairwise(d):
    partition, domains, lattice, table = pairwise_reference(d)
    assert [(c.index, c.members, c.anchor, c.divisibility)
            for c in spinc_partition(d)] == partition
    for (x, y), particular in domains.items():
        if particular is None:
            assert solve_domain(d, x, y) is None
        else:
            assert_solves_like_the_corner_system(d, x, y, particular, lattice)
    for basis, other in ((homogeneous_lattice(d), lattice), (lattice, homogeneous_lattice(d))):
        assert all(in_span(basis, v) for v in other)
    assert grading_table(d) == table


@pytest.mark.parametrize("fixture", ["s3", "l31", "s1s2", "two_finger", "d2_diagram"])
def test_factored_matches_pairwise_fixtures(fixture, request):
    assert_matches_pairwise(request.getfixturevalue(fixture))


def test_factored_matches_pairwise_atlas(atlas_suite):
    for d in atlas_suite:
        assert_matches_pairwise(d)


@settings(max_examples=40, deadline=None)
@given(transformed_diagrams())
def test_factored_matches_pairwise_transformed(d):
    assert_matches_pairwise(d)


def test_factorization_certificate_detects_a_wrong_form(monkeypatch):
    import hfcalc.grading as grading
    from hfcalc.zlattice import smith_normal_form

    def off_by_one(field, j, r):
        """Corrupt entry r of vector j of ``field`` (U's rows or V's columns)
        in the factorization of A, the one matrix grading factors."""
        def factor(m):
            dec = smith_normal_form(m)
            vecs = [dict(vec) for vec in getattr(dec, field)]
            jj, rr = j % len(vecs), r % len(vecs)
            x = vecs[jj].pop(rr, 0) + 1
            if x:
                vecs[jj][rr] = x
            return dec._replace(**{field: tuple(vecs)})
        return factor

    # Entry (0, 0) of V_A, for genus 1 and 3, and U_A's first and last rows
    # for genus 3: U_A A V_A = S_A fails.
    torus = build_torus_diagram(3, 1).diagram
    genus3 = stabilize(stabilize(torus)[0].diagram)[0].diagram
    cases = [(torus, "v_columns", 0, 0), (genus3, "v_columns", 0, 0),
             (genus3, "u_rows", 0, 0), (genus3, "u_rows", -1, -1)]
    for d, field, j, r in cases:
        monkeypatch.setattr(grading, "smith_normal_form", off_by_one(field, j, r))
        with pytest.raises(ConsistencyError, match="U A V"):
            spinc_partition(d)
        monkeypatch.undo()


def dense_corners(d):
    """The per-diagram factorization as computed with dense transforms.

    Returns the nonzero invariant factors of M, the dense V, U r(g) for
    each generator g cut to the rank, and the classes that the keys of
    U r(g) (entries below the rank reduced mod d_i) give.
    """
    import hfcalc.grading as grading

    u, s, v = full_scan_smith(grading._corner_matrix(d))
    factors = tuple(x for x in (s[i, i] for i in range(min(s.rows, s.cols))) if x)
    rank = len(factors)
    nv = d.n_vertices
    u_cols = list(zip(*u.entries))
    vertex_image = [[a - b for a, b in zip(u_cols[v], u_cols[nv + v])] for v in range(nv)]
    images, class_of, index_of_key = {}, {}, {}
    for g in enumerate_generators(d):
        image = ([sum(col) for col in zip(*(vertex_image[v] for v in g.vertices))]
                 or [0] * (2 * nv))
        key = tuple(c % f for c, f in zip(image, factors)) + tuple(image[rank:])
        images[g] = tuple(image[:rank])
        class_of[g] = index_of_key.setdefault(key, len(index_of_key))
    return factors, v, images, class_of


def dense_domain(factors, v, images, x, y):
    """V q with S q = U r(y) - U r(x), by dense exact division and product."""
    q = []
    for a, b, f in zip(images[x], images[y], factors):
        assert (b - a) % f == 0
        q.append((b - a) // f)
    return tuple(sum(entry * step for entry, step in zip(row, q)) for row in v.entries)


def test_corners_match_the_dense_path():
    """Classes, lattice and domains read off A against M factored densely."""
    import hfcalc.grading as grading

    diagrams = [build_torus_diagram(p, q).diagram
                for p in range(1, 12) for q in range(-p, p + 1) if q and gcd(p, q) == 1]
    diagrams += [build_annulus_open_book(n).diagram for n in range(-8, 9)]
    diagrams += [stabilize(d)[0].diagram for d in diagrams[::9]]
    pairs = 0
    for d in diagrams:
        factors, v, images, class_of = dense_corners(d)
        kernel = tuple(column(v, j) for j in range(len(factors), v.cols))
        lattice = homogeneous_lattice(d)
        assert lattice[0] == (1,) * d.n_regions
        for basis, other in ((lattice, kernel), (kernel, lattice)):
            assert all(in_span(basis, vec) for vec in other)
        assert {g: c.index for g, c in grading._class_of(d).items()} == class_of
        for cls in spinc_partition(d):
            for x in cls.members:
                for y in cls.members:
                    want = dense_domain(factors, v, images, x, y)
                    assert_solves_like_the_corner_system(d, x, y, want, kernel)
                    pairs += 1
    assert pairs > sum(len(enumerate_generators(d)) for d in diagrams)


def test_merged_classes_without_a_domain_are_a_consistency_error(monkeypatch, tmp_path,
                                                                  capsys):
    """Negative control: a pair that the classes call connected but that
    has no integer domain is a bug, not an answer of None."""
    import hfcalc.grading as grading
    from hfcalc.cli import main

    d = build_torus_diagram(3, 1).diagram
    x, y = enumerate_generators(d)[:2]
    assert solve_domain(d, x, y) is None
    real = grading._class_of

    def merged(diagram):
        classes = dict(real(diagram))
        a, b = enumerate_generators(diagram)[:2]
        classes[b] = classes[a]
        return classes

    monkeypatch.setattr(grading, "_class_of", merged)
    with pytest.raises(ConsistencyError, match="no integral beta curve multiples"):
        solve_domain(d, x, y)
    path = tmp_path / "t.hd"
    path.write_text(serialize(d))
    assert main(["domain", str(path), x.display(d), y.display(d)]) == 3
    assert "no integral beta curve multiples" in capsys.readouterr().err


def epsilon_classes(d, transpose=False):
    """Class indices from eps on the g x g intersection matrix, densely.

    h(v) is twice the signed alpha crossings before v on its beta curve
    plus the crossing at v; x and y share a class exactly when h(y) - h(x)
    lies in twice the column lattice of A (rows alpha, columns beta).
    ``transpose`` keys by A^T instead, which is wrong: a negative control.
    """
    g = d.genus
    a = [[0] * g for _ in range(g)]
    for v in range(d.n_vertices):
        a[d.alpha_of[v]][d.beta_of[v]] += d.signs[v]
    if transpose:
        a = [list(col) for col in zip(*a)]
    u, s, _ = full_scan_smith(IntMatrix.from_rows(a, g))
    moduli = [2 * x for x in (s[i, i] for i in range(g)) if x]
    h = [None] * d.n_vertices
    for _, verts in d.beta:
        c = [0] * g
        for v in verts:
            c[d.alpha_of[v]] += d.signs[v]
            h[v] = list(c)
            c[d.alpha_of[v]] += d.signs[v]
    class_of, index_of_key = {}, {}
    for gen in enumerate_generators(d):
        total = [sum(col) for col in zip(*(h[v] for v in gen.vertices))]
        image = [sum(x * t for x, t in zip(row, total)) for row in u.entries]
        key = tuple(x % m for x, m in zip(image, moduli)) + tuple(image[len(moduli):])
        class_of[gen] = index_of_key.setdefault(key, len(index_of_key))
    return class_of


def shuffled_copy(d, rng):
    """``d`` with fresh vertex names and shuffled curve names, reloaded.

    Serialization lists curves by name, so the alpha and the beta curves
    are reordered independently and A is permuted on both sides.
    """
    inp = d.input
    names = sorted(inp.signs)
    vertex_map = dict(zip(names, (f"v{t:x}" for t in rng.sample(range(16 ** 4), len(names)))))
    curves = inp.curve_names()
    order = rng.sample(range(len(curves)), len(curves))
    curve_map = {c: f"{c[0]}{k}" for c, k in zip(curves, order)}
    return load_diagram(serialize(assemble_regions(rename(inp, vertex_map, curve_map))))


def test_epsilon_partition_matches_the_corner_keys():
    import hfcalc.grading as grading

    atlas = [build_torus_diagram(p, q).diagram
             for p in range(1, 6) for q in range(p) if gcd(p, q) == 1]
    atlas += [build_annulus_open_book(n).diagram for n in range(-4, 5)]
    atlas.append(build_s1s2().diagram)
    once = [stabilize(d)[0].diagram for d in atlas]
    twice = [stabilize(d)[0].diagram for d in once]
    stabilized = atlas + once + twice
    rng = random.Random(11)
    diagrams = stabilized + [r for d in stabilized for r in curve_reversals(d)]
    diagrams += [shuffled_copy(d, rng) for d in stabilized for _ in range(2)]
    asymmetric = transposed_disagrees = 0
    for d in diagrams:
        *_, class_of = dense_corners(d)
        partition = spinc_partition(d)
        assert {g: c.index for c in partition for g in c.members} == class_of
        assert [c.index for c in partition] == list(range(len(partition)))
        assert all(spinc_class_of(d, g) is c for c in partition for g in c.members)
        assert epsilon_classes(d) == class_of
        a = [[0] * d.genus for _ in range(d.genus)]
        for v in range(d.n_vertices):
            a[d.alpha_of[v]][d.beta_of[v]] += d.signs[v]
        asymmetric += a != [list(col) for col in zip(*a)]
        transposed_disagrees += epsilon_classes(d, transpose=True) != class_of
    assert asymmetric and transposed_disagrees


def test_single_member_classes_factor_once_and_solve_nothing(monkeypatch):
    import hfcalc.grading as grading
    from hfcalc.zlattice import smith_normal_form

    factored, solved = [], []

    def counting_smith(m):
        factored.append((m.rows, m.cols))
        return smith_normal_form(m)

    def counting_solve(solve):
        def wrapped(d, x, y):
            solved.append((x, y))
            return solve(d, x, y)
        return wrapped

    monkeypatch.setattr(grading, "smith_normal_form", counting_smith)
    monkeypatch.setattr(grading, "solve_domain", counting_solve(grading.solve_domain))

    def run(d):
        factored.clear()
        solved.clear()
        grading_table(d)
        spinc_partition(d)
        homology_of_Y(d)
        largest = max(spinc_partition(d), key=lambda c: len(c.members)).members
        relative_grading(d, largest[-1], largest[0])

    single = [build_torus_diagram(p, q).diagram
              for p in range(1, 12) for q in range(-p, p + 1) if q and gcd(p, q) == 1]
    single += [build_annulus_open_book(n).diagram for n in range(-8, 0)]
    single += [stabilize(d)[0].diagram for d in single]
    for d in single:
        run(d)
        assert factored == [(d.genus, d.genus)] and solved == []
    several = [build_annulus_open_book(n).diagram for n in range(1, 9)]
    # b1 = 0: the several-member classes are labelled by D0, built on A's
    # factorization, so M is never factored and no domain is solved.
    for d in several + [stabilize(d)[0].diagram for d in several]:
        run(d)
        assert factored == [(d.genus, d.genus)] and solved == []
        assert max(len(c.members) for c in spinc_partition(d)) > 1
    # b1 > 0: D0 again, and the divisibility integrates ker A, so M is
    # never factored either.
    for d in irrational_diagrams():
        run(d)
        assert factored == [(d.genus, d.genus)] and solved == []
        assert homology_of_Y(d).b1 > 0


# ---------------------------------------------------------------------------
# Oracle: D0, the n_z = 0 domain for b1 = 0, against the corner solve
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rational_atlas(l31):
    """b1 = 0 diagrams: torus(p, q) for p <= 11 and the open books with
    0 < |n| <= 12, each as given, stabilized once and twice, and with each
    curve reversed; and L(3,1)."""
    given = [build_torus_diagram(p, q).diagram
             for p in range(1, 12) for q in range(-p, p) if q and gcd(p, q) == 1]
    given += [build_annulus_open_book(n).diagram for n in range(-12, 13) if n]
    once = [stabilize(d)[0].diagram for d in given]
    twice = [stabilize(d)[0].diagram for d in once]
    diagrams = given + once + twice
    return diagrams + [r for d in diagrams for r in curve_reversals(d)] + [l31]


def assert_domain_avoiding_z_is_the_corner_solve(d):
    """D0(x, y) = V q - n_z(V q) Sigma for M factored densely, since the
    lattice is Z Sigma when b1 = 0; ``solve_domain`` returns it too.  M is
    factored only for a class of several members: D0(x, x) = 0."""
    import hfcalc.grading as grading

    assert homology_of_Y(d).b1 == 0
    corners = None
    for cls in spinc_partition(d):
        for x, y in itertools.product(cls.members, repeat=2):
            want = (0,) * d.n_regions
            if x != y:
                corners = corners or dense_corners(d)
                solved = dense_domain(*corners[:3], x, y)
                want = tuple(c - solved[d.basepoint_region] for c in solved)
            d0 = grading._domain_avoiding_z(d, x, y)
            assert (d0.source, d0.target) == (x, y)
            assert d0.coefficients == want
            assert solve_domain(d, x, y).coefficients == want
            assert relative_grading(d, x, y) == grading._domain_grading(d0)


def test_domain_avoiding_z_is_the_corner_solve_minus_n_z_sigma(rational_atlas):
    several = 0
    for d in rational_atlas:
        assert_domain_avoiding_z_is_the_corner_solve(d)
        several += max(len(c.members) for c in spinc_partition(d)) > 1
    assert (len(rational_atlas), several) == (1606, 180)


@settings(max_examples=40, deadline=None)
@given(transformed_diagrams())
def test_domain_avoiding_z_is_the_corner_solve_transformed(d):
    if not homology_of_Y(d).b1:  # the open book n = 0 has b1 = 1
        assert_domain_avoiding_z_is_the_corner_solve(d)
    else:
        assert_graded_from_a_alone(d)


def test_domain_avoiding_z_on_random_curve_systems():
    """Random curve systems cross alpha_i with any beta_j; atlas ones only with beta_i."""
    from test_diagram import random_curve_system

    rng = random.Random(2024)
    rational = off_diagonal = irrational = 0
    for _ in range(3000):
        try:
            d = assemble_regions(random_curve_system(rng))
        except ValidationError:
            continue
        if not homology_of_Y(d).b1:
            assert_domain_avoiding_z_is_the_corner_solve(d)
            rational += 1
            off_diagonal += any(i != j for i, j in zip(d.alpha_of, d.beta_of))
        else:
            assert_graded_from_a_alone(d)
            irrational += 1
    assert (rational, off_diagonal, irrational) == (762, 431, 27)


# ---------------------------------------------------------------------------
# Oracle: grading from A at b1 > 0, against the corner matrix
# ---------------------------------------------------------------------------

def irrational_diagrams():
    """b1 > 0 diagrams: s1s2, the open book n = 0, two-finger, D2,
    #^g S1 x S2 for g <= 4 and S1 x S2 plus 1, 3 or 10 curve pairs, each as
    given and stabilized once."""
    given = [build_s1s2().diagram, build_annulus_open_book(0).diagram]
    given += [load_diagram(t) for t in (TWO_FINGER_TEXT, D2_TEXT)]
    given += [load_diagram(s1s2_sum_text(g)) for g in range(1, 5)]
    given += [load_diagram(s1s2_plus_pairs_text(k)) for k in (1, 3, 10)]
    return given + [stabilize(d)[0].diagram for d in given]


@pytest.fixture(scope="module")
def irrational_atlas():
    """``irrational_diagrams`` and each of their curve reversals."""
    diagrams = irrational_diagrams()
    return diagrams + [r for d in diagrams for r in curve_reversals(d)]


def assert_graded_from_a_alone(d):
    """The lattice, divisibilities, domains and gradings read off A match M's.

    Sigma plus the periodic domains that ``divisibility`` takes its gcd
    over is ``homogeneous_lattice`` and spans M's kernel, M factored
    densely, each basis solved in the other; every divisibility is the gcd
    over M's kernel; D0 has n_z = 0, solves the corner system and grades
    like M's particular solution mod d; and ``solve_domain`` differs from
    that solution by a vector of M's kernel.
    """
    import hfcalc.grading as grading

    factors, v, images, _ = dense_corners(d)
    kernel = tuple(column(v, j) for j in range(len(factors), v.cols))
    sigma = (1,) * d.n_regions
    seen = []

    def recording(kernel, weights):
        seen.append(tuple(map(tuple, kernel)))
        return gcd_over_lattice(kernel, weights)

    for cls in spinc_partition(d):
        seen.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grading, "gcd_over_lattice", recording)
            assert grading.divisibility(d, cls.anchor) == cls.divisibility
        periodic, = seen
        for p in periodic:
            assert p[d.basepoint_region] == 0
            grading._check_connecting(d, cls.anchor, cls.anchor, p)
        from_a = (sigma,) + periodic
        assert homogeneous_lattice(d) == from_a
        for basis, other in ((from_a, kernel), (kernel, from_a)):
            assert all(in_span(basis, vec) for vec in other)
        weights = grading._quarter_weights(d, cls.anchor.vertices * 2, -2)
        assert cls.divisibility * 4 == gcd_over_lattice(kernel, weights)
        m = cls.divisibility
        for x, y in itertools.product(cls.members, repeat=2):
            d0 = grading._domain_avoiding_z(d, x, y)
            assert d0.coefficients[d.basepoint_region] == 0
            grading._check_connecting(d, x, y, d0.coefficients)
            solved = dense_domain(factors, v, images, x, y)
            gr = maslov_index(d, x, y, solved) - 2 * solved[d.basepoint_region]
            value = maslov_index(d, x, y, d0)
            assert (value - gr) % m == 0 if m else value == gr
            assert relative_grading(d, x, y) == (gr % m if m else gr)
            assert relative_grading(d, x, y) == grading._domain_grading(d0)
            assert_solves_like_the_corner_system(d, x, y, solved, kernel)


def test_graded_from_a_alone_at_positive_b1(irrational_atlas):
    for d in irrational_atlas:
        assert homology_of_Y(d).b1 > 0
        assert_graded_from_a_alone(d)
    assert len(irrational_atlas) == 168


def test_a_wrong_curve_multiple_is_a_consistency_error(monkeypatch, tmp_path, capsys):
    """Negative control: D0 with one more copy of a beta curve fails its certificate."""
    import hfcalc.grading as grading
    from hfcalc.cli import main

    real = grading._particular

    def plus_one(smith, u_columns, b):
        return tuple(n + 1 for n in real(smith, u_columns, b))

    path = tmp_path / "ob.hd"
    path.write_text(serialize(build_annulus_open_book(2).diagram))
    monkeypatch.setattr(grading, "_particular", plus_one)
    with pytest.raises(ConsistencyError, match="corner system"):
        grading_table(build_annulus_open_book(2).diagram)
    d = build_annulus_open_book(2).diagram
    x, y = non_anchor_pair(d)
    with pytest.raises(ConsistencyError, match="corner system"):
        relative_grading(d, x, y)
    assert main(["--json", "grade", str(path)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "ConsistencyError" and "corner system" in error["message"]


# ---------------------------------------------------------------------------
# Cached results live exactly as long as their diagram
# ---------------------------------------------------------------------------

def non_anchor_pair(d):
    """A pair (x, anchor) in the first class with a member besides its anchor."""
    cls = next(c for c in spinc_partition(d) if len(c.members) > 1)
    return next(g for g in cls.members if g != cls.anchor), cls.anchor


@pytest.mark.parametrize("query", [
    grading_table,
    homology_of_Y,
    lambda d: relative_grading(d, *non_anchor_pair(d)),
], ids=["grading_table", "homology_of_Y", "relative_grading"])
def test_cached_results_do_not_retain_the_diagram(query):
    import hfcalc.grading as grading

    d = build_annulus_open_book(3).diagram
    query(d)
    assert query is homology_of_Y or grading._potentials(d)  # the memo is filled
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def test_lookups_reject_foreign_generators(l31):
    stranger = Generator((0, 1))
    with pytest.raises(KeyError, match="not a generator"):
        label_of(l31, stranger)
    with pytest.raises(KeyError, match="not a generator"):
        spinc_class_of(l31, stranger)
    with pytest.raises(KeyError, match="not a generator"):
        solve_domain(l31, stranger, stranger)
    with pytest.raises(KeyError, match="not a generator"):
        Generator.from_display(l31, "x0,x1")
