"""Layer decomposition, corner classification, and audit identities."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from hfcalc.atlas import build_annulus_open_book, build_s1s2, build_torus_diagram, stabilize
from hfcalc.diagram import assemble_regions, load_diagram, reverse_curve
from hfcalc.grading import (ConsistencyError, Generator, enumerate_generators, homogeneous_lattice,
                            maslov_index, positive_representative, solve_domain,
                            spinc_partition)
from hfcalc.layers import AuditError, _corner_table, audit_index
from hfcalc.zlattice import DimensionMismatch
from layer_oracle import (AUXILIARY, BOUNDARY_DEGENERATE, CONCAVE, CONVEX, EDGE_POINT,
                          INTERIOR, INTERIOR_DEGENERATE, _pair_sign, classify_corner,
                          fraction_audit, fraction_layer_euler, fraction_layer_index,
                          per_level_decompose)
from conftest import s1s2_sum_text
from strategies import assembled_curve_systems, transformed_diagrams


def kinds(mults, level, in_x, in_y):
    return [c.kind for c in classify_corner(mults, level, in_x, in_y)]


def shapes(mults, level, in_x, in_y):
    return [c.shape for c in classify_corner(mults, level, in_x, in_y)]


# ---------------------------------------------------------------------------
# classify_corner
# ---------------------------------------------------------------------------

def test_classify_convex_x_corner():
    (c,) = classify_corner((1, 0, 0, 0), 1, True, False)
    assert c.kind == CONVEX and c.shape == CONVEX and c.role == "x"


def test_classify_concave_y_corner():
    (c,) = classify_corner((1, 1, 1, 0), 1, False, True)
    assert c.kind == CONCAVE and c.role == "y"


def test_classify_auxiliary_convex_at_level_two():
    (c,) = classify_corner((2, 1, 1, 1), 2, False, False)
    assert c.kind == AUXILIARY and c.shape == CONVEX
    assert c.sign == 1  # jumps a = -1, b = -1 have equal signs


def test_classify_auxiliary_negative_type():
    out = classify_corner((1, 2, 1, 0), 2, False, False)
    assert [c.kind for c in out] == [AUXILIARY]
    assert out[0].sign == -1  # a = +1, b = -1


def test_classify_edge_and_interior():
    assert kinds((1, 1, 0, 0), 1, False, False) == [EDGE_POINT]
    assert kinds((1, 1, 1, 1), 1, False, False) == [INTERIOR]
    assert kinds((1, 1, 1, 1), 1, True, True) == [INTERIOR_DEGENERATE]
    assert kinds((0, 0, 0, 0), 1, True, False) == []


def test_classify_degenerate_shapes():
    assert kinds((1, 1, 0, 0), 1, True, True) == [BOUNDARY_DEGENERATE]
    assert shapes((1, 0, 0, 0), 1, True, True) == [CONVEX]
    assert kinds((1, 0, 0, 0), 1, True, True) == [BOUNDARY_DEGENERATE]


def test_classify_opposite_pattern_splits():
    out = classify_corner((1, 0, 1, 0), 1, False, False)
    assert len(out) == 2
    assert all(c.shape == CONVEX for c in out)
    assert [c.quadrants for c in out] == [(0,), (2,)]


def test_classify_interior_role():
    (c,) = classify_corner((2, 1, 1, 1), 1, True, False)
    assert c.kind == INTERIOR and c.role == "x"


# ---------------------------------------------------------------------------
# Single layers: the audit's report on connecting domains, the oracle's
# level surfaces elsewhere
# ---------------------------------------------------------------------------

def test_decompose_zero_domain(s1s2):
    x, y = enumerate_generators(s1s2)
    assert audit_index(s1s2, x, x, [0] * s1s2.n_regions).layers == ()


def test_decompose_single_layer(s1s2):
    x, y = enumerate_generators(s1s2)
    assert len(audit_index(s1s2, x, y, [0, 1, 0]).layers) == 1


def test_decompose_rejects_negative(s1s2):
    x, y = enumerate_generators(s1s2)
    with pytest.raises(ValueError):
        audit_index(s1s2, x, y, [-1, 1, 0])


def test_decompose_nesting(s1s2):
    x, y = enumerate_generators(s1s2)
    coeffs = [2, 1, 1]
    layers = per_level_decompose(s1s2, x, y, coeffs)
    assert len(layers) == 2
    assert set(layers[1].regions) <= set(layers[0].regions)
    assert layers[0].regions == (0, 1, 2)
    assert layers[1].regions == (0,)


def test_layer_euler_square():
    # A single parallelogram of the two-region torus diagram: a disk,
    # counted as 4 clusters - 4 arcs + 1.
    d = build_torus_diagram(2, 1).diagram
    x, y = enumerate_generators(d)
    (layer,) = per_level_decompose(d, x, y, [1, 0])
    assert fraction_layer_euler(d, layer) == 1
    assert len(layer.clusters) == 4
    assert len(layer.arcs) == 4


def test_layer_euler_annulus():
    # Two adjacent parallelograms of the three-region torus diagram glue
    # into an annulus.
    d = build_torus_diagram(3, 1).diagram
    gens = enumerate_generators(d)
    coeffs = [1, 1, 0]
    (layer,) = per_level_decompose(d, gens[0], gens[0], coeffs)
    assert fraction_layer_euler(d, layer) == 0


def test_layer_euler_full_torus(s3):
    (g,) = enumerate_generators(s3)
    (layer,) = per_level_decompose(s3, g, g, [1])
    # one interior cluster, two arcs, one region of chi 1
    assert fraction_layer_euler(s3, layer) == 0


def test_layer_index_bigon(s1s2):
    x, y = enumerate_generators(s1s2)
    bigon = [1 if s1s2.canonical_region_name(i) == "a0.0+" else 0
             for i in range(s1s2.n_regions)]
    (layer,) = audit_index(s1s2, x, y, bigon).layers
    assert layer.chi == 1
    assert layer.index == 1 == maslov_index(s1s2, x, y, bigon)


def test_layer_index_rectangle_with_two_x_two_y_corners():
    # Synthetic level set: the square of the two-region torus diagram with
    # the two vertices declared x- and y-corners; each vertex splits into
    # two opposite convex clusters, so chi - p/4 + n_x + n_y = 1.
    d = build_torus_diagram(2, 1).diagram
    x, y = enumerate_generators(d)
    (layer,) = per_level_decompose(d, x, y, [1, 0])
    assert fraction_layer_index(d, x, y, layer) == 1


def test_layer_index_zero_domain_sum(s1s2):
    x, _ = enumerate_generators(s1s2)
    report = audit_index(s1s2, x, x, [0] * s1s2.n_regions)
    assert sum((l.index for l in report.layers), Fraction(0)) == 0


# ---------------------------------------------------------------------------
# audit_index
# ---------------------------------------------------------------------------

def test_audit_bigon(s1s2):
    x, y = enumerate_generators(s1s2)
    bigon = [1 if s1s2.canonical_region_name(i) == "a0.0+" else 0
             for i in range(s1s2.n_regions)]
    report = audit_index(s1s2, x, y, bigon)
    assert report.maslov == 1
    assert report.layer_sum == 1
    assert len(report.layers) == 1
    assert report.layers[0].chi == 1
    assert report.layers[0].concave == 0
    assert report.single_layer_identity is True


def test_audit_zero_domain(s1s2):
    x, _ = enumerate_generators(s1s2)
    report = audit_index(s1s2, x, x, [0] * s1s2.n_regions)
    assert report.layers == ()
    assert report.layer_sum == 0 == report.maslov


def test_audit_bigon_plus_full_surface(s1s2):
    x, y = enumerate_generators(s1s2)
    bigon = [1 if s1s2.canonical_region_name(i) == "a0.0+" else 0
             for i in range(s1s2.n_regions)]
    coeffs = [c + 1 for c in bigon]
    report = audit_index(s1s2, x, y, coeffs)
    assert report.maslov == 3
    assert report.layer_sum == 3
    assert len(report.layers) == 2


def test_each_run_of_identical_layers_is_classified_once(s1s2, monkeypatch):
    # The audit classifies by lookups in ``_corner_table``, at most one per
    # vertex present in a run.  They are counted through a patched module
    # global, so the test does not depend on what ran before it.
    lookups = []

    class CountingTable(tuple):
        def __getitem__(self, index):
            lookups.append(index)
            return tuple.__getitem__(self, index)

    table = _corner_table()
    monkeypatch.setattr("hfcalc.layers._corner_table", lambda: CountingTable(table))
    x, y = enumerate_generators(s1s2)
    bigon = [1 if s1s2.canonical_region_name(i) == "a0.0+" else 0
             for i in range(s1s2.n_regions)]
    coeffs = [c + 50 for c in bigon]
    distinct = len(set(coeffs) - {0})
    assert distinct == 2

    report = audit_index(s1s2, x, y, coeffs)
    assert 0 < len(lookups) <= distinct * s1s2.n_vertices
    assert [r.level for r in report.layers] == list(range(1, 52))
    assert report.maslov == report.layer_sum == 101


def test_corner_table_matches_classify_corner():
    # Every multiplicity pattern in {0, ..., 3}^4 at levels 1-3, in each
    # membership: every column of the row at membership | mask is derived
    # from what ``classify_corner`` returns on the multiplicities
    # themselves, and the auxiliary column times the vertex's pair sign is
    # the auxiliary corners' signed count.  The arc ends are counted
    # half-edge by half-edge: the half-edge in rotation slot q lies between
    # quadrants q - 1 and q, and its arc is in the layer when either of
    # them is.
    table = _corner_table()
    assert len(table) == 64
    assert all(type(row) is tuple and all(type(c) is int for c in row) for row in table)
    for mults in itertools.product(range(4), repeat=4):
        for level in (1, 2, 3):
            mask = sum(1 << q for q in range(4) if mults[q] >= level)
            for in_x, in_y in itertools.product((False, True), repeat=2):
                row = table[16 * (2 * in_x + in_y) | mask]
                out = classify_corner(mults, level, in_x, in_y)
                kinds = [c.kind for c in out]
                shapes = [c.shape for c in out]
                ends = sum(mults[q - 1] >= level or mults[q] >= level for q in range(4))
                convex, concave = shapes.count(CONVEX), shapes.count(CONCAVE)
                included = sum(m >= level for m in mults) * (in_x + in_y)
                half_chi = 2 * len(out) - ends
                expected = (
                    half_chi, convex, concave,
                    kinds.count(BOUNDARY_DEGENERATE), kinds.count(INTERIOR_DEGENERATE),
                    kinds.count(AUXILIARY), 2 * half_chi - convex + concave + included)
                assert row == expected, (mults, level, in_x, in_y)
                assert (row[5] * _pair_sign(mults)
                        == sum(c.sign for c in out if c.kind == AUXILIARY))


def test_layer_arcs_are_half_the_cluster_ends(atlas_suite):
    # An arc is in a layer when one of its sides is, and near each end its
    # sides are the quadrants on either side of that half-edge, so each end
    # of an arc of the layer touches exactly one cluster.  A cluster of k < 4
    # quadrants touches k + 1 ends and a full vertex 4, so a layer has half
    # its clusters' ends as arcs.  On random nonnegative vectors: the atlas,
    # each diagram stabilized (single-vertex curves) and with each curve
    # reversed, and random curve systems.  Membership in x and y changes
    # the clusters' kinds, not their count, so x and y are random vertex
    # sets (some curve systems have no generator).
    diagrams = atlas_suite + [stabilize(d)[0].diagram for d in atlas_suite]
    diagrams += [assemble_regions(reverse_curve(d.input, c))
                 for d in atlas_suite for c in d.input.curve_names()]
    diagrams += assembled_curve_systems(random.Random(2024), 300)
    rng = random.Random(17)
    layers = 0
    for d in diagrams:
        for _ in range(3):
            coeffs = [rng.randint(0, 3) for _ in range(d.n_regions)]
            x, y = (Generator(tuple(v for v in range(d.n_vertices) if rng.random() < 0.5))
                    for _ in "xy")
            for layer in per_level_decompose(d, x, y, coeffs):
                ends = sum(min(len(c.quadrants) + 1, 4) for c in layer.clusters)
                assert ends == 2 * len(layer.arcs), (d.input, coeffs, layer.level)
                layers += 1
    assert layers > 500


def test_audit_interior_degenerate_full_surface(s3):
    (g,) = enumerate_generators(s3)
    report = audit_index(s3, g, g, [1])
    assert report.maslov == 2
    assert report.layers[0].interior_degenerate == 1


def test_audit_exercises_auxiliary_corners(two_finger):
    gens = {g.display(two_finger): g for g in enumerate_generators(two_finger)}
    x, y = gens["x0"], gens["x2"]
    dom = solve_domain(two_finger, x, y)
    rng = random.Random(3)
    seen_aux = False
    for _ in range(200):
        steps = [rng.randint(-3, 3) for _ in dom.lattice]
        cand = dom.translate(steps)
        if any(c < 0 for c in cand.coefficients):
            continue
        audit_index(two_finger, x, y, cand)  # raises AuditError on failure
        seen_aux = seen_aux or any(c.kind == AUXILIARY for layer in per_level_decompose(
            two_finger, x, y, cand.coefficients) for c in layer.clusters)
    assert seen_aux


@pytest.mark.parametrize("fixture", ["s1s2", "d2_diagram", "two_finger"])
def test_audit_identities_over_translates(fixture, request):
    d = request.getfixturevalue(fixture)
    gens = enumerate_generators(d)
    rank = len(homogeneous_lattice(d))
    audited = 0
    for x in gens:
        for y in gens:
            base = solve_domain(d, x, y)
            if base is None:
                continue
            seen = set()
            for combo in itertools.product(range(-3, 4), repeat=rank):
                cand = base.translate(combo)
                c = cand.coefficients
                if any(v < 0 for v in c) or max(c, default=0) > 3 or c in seen:
                    continue
                seen.add(c)
                audit_index(d, x, y, cand)  # raises AuditError on failure
                audited += 1
    assert audited > 10


# Reversing a curve flips the crossing sign of every vertex on it and
# negates that curve's boundary jumps, so n_x - n_y = d_alpha D . d_beta D
# holds on the reversed diagram too.
@pytest.mark.parametrize("curve", ["a0", "b0"])
@pytest.mark.parametrize("n", range(1, 6))
def test_audit_after_reversing_a_curve_of_an_open_book(n, curve):
    d = assemble_regions(reverse_curve(build_annulus_open_book(n).diagram.input, curve))
    gens = enumerate_generators(d)
    for x in gens:
        for y in gens:
            dom = solve_domain(d, x, y)
            if dom is not None:
                audit_index(d, x, y, positive_representative(dom))


def test_audit_on_random_curve_systems():
    # Random curve systems cross alpha_i with any beta_j, in any order and
    # with any signs, unlike the atlas families.  Every input that
    # assembles is audited, at every same-class pair among the first six
    # members of each class, plus 0 and 1 copies of the surface, and each
    # report is the per-level oracle's, reprs included.
    assembled = audited = 0
    for d in assembled_curve_systems(random.Random(2024), 1500):
        assembled += 1
        for cls in spinc_partition(d):
            for x in cls.members[:6]:
                for y in cls.members[:6]:
                    pos = positive_representative(solve_domain(d, x, y), radius=4)
                    for k in (0, 1):
                        coeffs = [c + k for c in pos.coefficients]
                        oracle = fraction_audit(d, x, y, coeffs,
                                                per_level_decompose(d, x, y, coeffs))
                        assert repr(audit_index(d, x, y, coeffs)) == repr(oracle)
                        audited += 1
    assert (assembled, audited) == (412, 1750)


def test_audit_error_paths(s1s2, atlas_suite, two_finger, monkeypatch):
    # The audit's own checks, reached through its inputs with no audit code
    # replaced.  A nonnegative domain off the corner system fails in the
    # audit's vertex pass, before any identity is audited; a negative domain
    # fails before that.  A corner table with a quarter more index per row
    # puts a layer a quarter off per vertex, and a corner pair more breaks the
    # single-layer identity; one vertex's quadrants turned by one slot, at a
    # vertex in neither or both generators, keep the corner system and the
    # layers but negate that vertex's boundary term.
    x, y = enumerate_generators(s1s2)
    pos = list(positive_representative(solve_domain(s1s2, x, y)).coefficients)
    off = pos[:]
    off[0] += 1
    with pytest.raises(ConsistencyError, match="corner system") as err:
        audit_index(s1s2, x, y, off)
    assert type(err.value) is ConsistencyError
    negative = off[:]
    negative[1] = -1
    with pytest.raises(ValueError, match="nonnegative"):
        audit_index(s1s2, x, y, negative)

    # Every vertex of the bigon's one layer (its two corners) counted with
    # a quarter too much index, or with one convex and one concave corner
    # more (columns 6, and 1 and 2, of the corner table).
    table = _corner_table()
    assert audit_index(s1s2, x, y, pos).single_layer_identity is True
    for change, message in [
            ({6: 1}, "layer index sum 3/2 differs from Maslov index 1"),
            ({1: 1, 2: 1}, "single-layer identity failed: chi 1 + q 2 != mu 1")]:
        def perturbed():
            return tuple(tuple(c + change.get(j, 0) for j, c in enumerate(row))
                         if i & 15 else row for i, row in enumerate(table))
        with monkeypatch.context() as m:
            m.setattr("hfcalc.layers._corner_table", perturbed)
            with pytest.raises(AuditError) as err:
                audit_index(s1s2, x, y, pos)
        assert err.value.args == (message,)

    turned = 0
    for d in atlas_suite + [two_finger]:
        for x, y in ((x, y) for cls in spinc_partition(d)
                     for x in cls.members for y in cls.members):
            coeffs = positive_representative(solve_domain(d, x, y)).coefficients
            for v, (q0, q1, q2, q3) in enumerate(d.quadrants):
                m0, m1, m2, m3 = (coeffs[q] for q in (q0, q1, q2, q3))
                if (v in x.vertices) != (v in y.vertices) or \
                        (m0 + m1 - m2 - m3) * (m1 + m2 - m0 - m3) == 0:
                    continue
                quadrants = list(d.quadrants)
                quadrants[v] = (q1, q2, q3, q0)
                with monkeypatch.context() as m:
                    m.setattr(d, "quadrants", quadrants)
                    with pytest.raises(AuditError, match="differs from d_alpha D . d_beta D"):
                        audit_index(d, x, y, coeffs)
                turned += 1
    assert turned >= 10


def test_audit_refuses_an_odd_half_chi(s1s2, monkeypatch):
    # Every arc of a layer has two ends, so a layer's chi in half units sums
    # to an even number.  The bigon of s1s2 plus 2 has two runs, levels 1-2
    # and level 3, with its two vertices under distinct keys in each; one
    # present key's half chi made odd must raise, naming the run's level.
    x, y = enumerate_generators(s1s2)
    coeffs = [c + 2 for c in positive_representative(solve_domain(s1s2, x, y)).coefficients]
    table = _corner_table()
    keys = []

    class RecordingTable(tuple):
        def __getitem__(self, index):
            keys.append(index)
            return tuple.__getitem__(self, index)

    with monkeypatch.context() as m:
        m.setattr("hfcalc.layers._corner_table", lambda: RecordingTable(table))
        audit_index(s1s2, x, y, coeffs)
    assert len(keys) == 4 and len(set(keys)) == 4
    for key, level in zip(keys, (1, 1, 3, 3)):
        odd = tuple((row[0] + 1, *row[1:]) if i == key else row for i, row in enumerate(table))
        with monkeypatch.context() as m:
            m.setattr("hfcalc.layers._corner_table", lambda: odd)
            message = f"^level {level}: chi in half units -?\\d+ is odd$"
            with pytest.raises(AuditError, match=message):
                audit_index(s1s2, x, y, coeffs)


def test_audit_reads_the_vertices_in_one_pass(s1s2, two_finger, atlas_suite, monkeypatch):
    # The audit checks the corner system and forms mu in its own vertex
    # pass: it calls none of the second-pass helpers, on a domain that
    # passes or off the corner system.  The domains are solved first, and
    # the audits' calls counted through wrappers in ``grading`` (and in
    # ``layers``, should it import them).
    import hfcalc.grading as grading
    import hfcalc.layers as layers

    cases = []
    for d in atlas_suite + [two_finger]:
        for cls in spinc_partition(d):
            for x in cls.members:
                for y in cls.members:
                    coeffs = list(positive_representative(solve_domain(d, x, y)).coefficients)
                    off = coeffs[:]
                    off[0] += 1
                    cases += [(d, x, y, coeffs), (d, x, y, off)]
    calls = {}
    for name in ("maslov_index", "_check_connecting", "_quarter_weights"):
        def counting(*args, _name=name, _fn=getattr(grading, name)):
            calls[_name] += 1
            return _fn(*args)
        calls[name] = 0
        for module in (grading, layers):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    raised = 0
    for case in cases:
        try:
            audit_index(*case)
        except ConsistencyError:
            raised += 1
    assert calls == {"maslov_index": 0, "_check_connecting": 0, "_quarter_weights": 0}
    assert (len(cases), raised) == (138, 68)  # S^3's one region + 1 is Sigma
    # The wrappers count: maslov_index reaches the other two through them.
    x, y = enumerate_generators(s1s2)
    grading.maslov_index(s1s2, x, y, [0, 1, 0])
    assert calls == {"maslov_index": 1, "_check_connecting": 1, "_quarter_weights": 1}


def _maslov_or_error(f, *args):
    try:
        return f(*args), None
    except ConsistencyError as e:
        return None, (type(e), e.args)


def test_audit_maslov_is_maslov_index(atlas_suite, two_finger):
    # The audit's mu, formed in its vertex pass, against ``maslov_index``:
    # every same-class pair's positive representative plus k copies of the
    # surface, and each of its one-region +1 and -1 changes that stays
    # nonnegative.  The audit succeeds exactly when ``maslov_index`` does,
    # with the same mu, and otherwise both raise the same ConsistencyError.
    diagrams = atlas_suite + [two_finger]
    diagrams += assembled_curve_systems(random.Random(2024), 200)
    agreed = failed = 0
    for d in diagrams:
        for cls in spinc_partition(d):
            for x in cls.members[:6]:
                for y in cls.members[:6]:
                    pos = positive_representative(solve_domain(d, x, y), radius=4).coefficients
                    for k in (0, 2):
                        base = [c + k for c in pos]
                        cases = [base]
                        for r in range(d.n_regions):
                            for delta in (1, -1):
                                if base[r] + delta >= 0:
                                    cases.append(base[:r] + [base[r] + delta] + base[r + 1:])
                        for coeffs in cases:
                            mu, error = _maslov_or_error(maslov_index, d, x, y, coeffs)
                            report, audit_error = _maslov_or_error(audit_index, d, x, y, coeffs)
                            assert audit_error == error, (d.input, x, y, coeffs)
                            if error is None:
                                assert report.maslov == mu
                                agreed += 1
                            else:
                                failed += 1
    assert (agreed, failed) == (473, 2215)


@pytest.mark.parametrize("entry", [audit_index])
@pytest.mark.parametrize("coeffs", [[], [1, 1], [1, 1, 1, 1]])
def test_domains_of_the_wrong_length_are_rejected(entry, coeffs, s1s2):
    x, y = enumerate_generators(s1s2)
    with pytest.raises(DimensionMismatch, match="3 regions"):
        entry(s1s2, x, y, coeffs)


# ---------------------------------------------------------------------------
# Oracle: the one-pass audit against the per-level Fraction computation
# ---------------------------------------------------------------------------

# (c, k): the positive representative D(x, y), plus c - 1 copies of the
# nonnegative periodic domain D(x, y) + D(y, x), plus k copies of the full
# surface; that is c D(x, y) + (c - 1) D(y, x) + k, still a domain from x to
# y.  With c > 1 a run of identical layers can be longer than one level
# without being full-surface.
SCALED_DOMAINS = [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 16), (3, 0), (3, 16)]


def assert_audit_matches_oracle(d):
    """For every same-class pair and (c, k) in ``SCALED_DOMAINS``: the
    report agrees with the per-level oracle, reprs included (so a Fraction
    stays a Fraction), and where the oracle raises ``AuditError``, the
    audit raises it with the same message.  Returns the (x, y, c, k)
    inputs on which both raised."""
    audited, failed = 0, []
    for cls in spinc_partition(d):
        for x in cls.members:
            for y in cls.members:
                there = positive_representative(solve_domain(d, x, y)).coefficients
                back = positive_representative(solve_domain(d, y, x)).coefficients
                for scale, k in SCALED_DOMAINS:
                    coeffs = tuple(scale * a + (scale - 1) * b + k
                                   for a, b in zip(there, back))
                    audited += 1
                    try:
                        oracle = fraction_audit(d, x, y, coeffs,
                                                per_level_decompose(d, x, y, coeffs))
                    except AuditError as e:
                        with pytest.raises(AuditError) as err:
                            audit_index(d, x, y, coeffs)
                        assert err.value.args == e.args
                        failed.append((x, y, scale, k))
                        continue
                    assert repr(audit_index(d, x, y, coeffs)) == repr(oracle)
    assert audited
    return failed


@pytest.mark.parametrize("fixture", ["s3", "l31", "s1s2", "two_finger", "d2_diagram"])
def test_one_pass_audit_matches_oracle_fixtures(fixture, request):
    assert assert_audit_matches_oracle(request.getfixturevalue(fixture)) == []


def test_one_pass_audit_matches_oracle_atlas(atlas_suite):
    for d in atlas_suite:
        assert assert_audit_matches_oracle(d) == []


@pytest.mark.parametrize("curve", ["a0", "b0"])
@pytest.mark.parametrize("n", range(1, 6))
def test_one_pass_audit_matches_oracle_reversed_open_books(n, curve):
    d = assemble_regions(reverse_curve(build_annulus_open_book(n).diagram.input, curve))
    assert assert_audit_matches_oracle(d) == []


@settings(max_examples=40, deadline=None)
@given(transformed_diagrams())
def test_one_pass_audit_matches_oracle_transformed(d):
    assert assert_audit_matches_oracle(d) == []


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_audit_matches_oracle_on_the_atlas_plus_copies_of_the_surface(atlas_suite, k):
    # Every same-class pair of the atlas suite at its positive representative
    # plus k copies of the surface: with k > 0 every vertex is in the first
    # run, and every vertex above it goes on to the later runs.
    for d in atlas_suite:
        for cls in spinc_partition(d):
            for x in cls.members:
                for y in cls.members:
                    pos = positive_representative(solve_domain(d, x, y))
                    coeffs = [c + k for c in pos.coefficients]
                    oracle = fraction_audit(d, x, y, coeffs, per_level_decompose(d, x, y, coeffs))
                    assert repr(audit_index(d, x, y, coeffs)) == repr(oracle)


def test_audit_matches_oracle_where_vertices_leave_later_runs():
    # b1 > 0: the positive representative, plus a combination of the
    # periodic domains made nonnegative by copies of the surface, with floor
    # 0 and again plus one more copy of the surface.  Many have three or more
    # distinct positive coefficients and a vertex of the first layer that is
    # absent from the top layer.  The audit counts the levels up to the
    # domain's floor, min(D), from the generators and masks only the vertices
    # above it, so each branch is counted: floor 0, a positive floor with
    # vertices above it, and a positive floor with none (a multiple of the
    # surface).
    dropped = 0
    branches = {"floor 0": 0, "floor > 0, vertices above": 0, "floor > 0, none above": 0}
    for d in [build_s1s2().diagram, build_annulus_open_book(0).diagram,
              load_diagram(s1s2_sum_text(2)), load_diagram(s1s2_sum_text(3))]:
        periodic = homogeneous_lattice(d)[1:]
        assert periodic
        for cls in spinc_partition(d):
            for x in cls.members:
                for y in cls.members:
                    pos = positive_representative(solve_domain(d, x, y)).coefficients
                    for steps in itertools.product(range(3), repeat=len(periodic)):
                        p = [sum(s * vec[i] for s, vec in zip(steps, periodic))
                             for i in range(d.n_regions)]
                        for extra in (0, 1):
                            coeffs = [a + extra + b - min(p) for a, b in zip(pos, p)]
                            floor = min(coeffs)
                            above = any(coeffs[q] > floor for qs in d.quadrants for q in qs)
                            branches["floor 0" if floor == 0 else
                                     "floor > 0, vertices above" if above else
                                     "floor > 0, none above"] += 1
                            layers = per_level_decompose(d, x, y, coeffs)
                            if layers:
                                bottom, top = ({c.vertex for c in layer.clusters}
                                               for layer in (layers[0], layers[-1]))
                                dropped += len(set(coeffs) - {0}) >= 3 and bool(bottom - top)
                            oracle = fraction_audit(d, x, y, coeffs, layers)
                            assert repr(audit_index(d, x, y, coeffs)) == repr(oracle)
    assert dropped > 1000
    # 686, 3090 and 16 cases when written.
    minimum = {"floor 0": 600, "floor > 0, vertices above": 3000, "floor > 0, none above": 16}
    assert all(branches[b] >= n for b, n in minimum.items()), branches
