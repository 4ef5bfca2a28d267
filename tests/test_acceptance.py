"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass.  Every comparison is exact (integers and Fractions); there are
no tolerances anywhere.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hfcalc.atlas import (build_annulus_open_book, build_s1s2, build_torus_diagram,
                          stabilize)
from hfcalc.diagram import assemble_regions, load_diagram, rename, reverse_curve
from hfcalc.grading import (NoConnectingClassError, basepoint_multiplicity,
                            enumerate_generators, euler_measure, generator_measure,
                            gr0_of_theta, grading_table, homogeneous_lattice,
                            homology_of_Y, maslov_index, relative_grading,
                            solve_domain, spinc_partition, theta_and_shift)
from hfcalc.layers import audit_index

from conftest import D2_TEXT, TWO_FINGER_TEXT
from layer_oracle import (CONCAVE, fraction_layer_euler, fraction_layer_index,
                          per_level_decompose)


def check(criterion, description):
    print(f"criterion {criterion:2d} PASS  {description}")


def atlas_family():
    out = [build_torus_diagram(p, 1).diagram for p in (1, 2, 3, 4)]
    out.append(build_s1s2().diagram)
    out.extend(build_annulus_open_book(n).diagram for n in (0, 1, 2, 3))
    return out


def positive_translates(diagram, max_mult, span, limit=None):
    """Deterministic enumeration of nonnegative lattice translates."""
    gens = enumerate_generators(diagram)
    rank = len(homogeneous_lattice(diagram))
    for x in gens:
        for y in gens:
            base = solve_domain(diagram, x, y)
            if base is None:
                continue
            seen = set()
            for combo in itertools.product(range(-span, span + 1), repeat=rank):
                cand = base.translate(combo)
                c = cand.coefficients
                if any(v < 0 for v in c) or max(c, default=0) > max_mult or c in seen:
                    continue
                seen.add(c)
                yield x, y, cand


def test_criterion_1_s3():
    d = build_torus_diagram(1, 0).diagram
    gens = enumerate_generators(d)
    assert len(gens) == 1
    classes = spinc_partition(d)
    assert len(classes) == 1 and classes[0].divisibility == 0
    table = grading_table(d)
    assert [(l.spinc, l.offset, l.modulus) for _, l in table] == [(0, 0, 0)]
    check(1, "S^3: 1 generator, 1 class, d = 0, table {(class 0, offset 0)}")


def test_criterion_2_lens_family():
    for p in range(2, 8):
        d = build_torus_diagram(p, 1).diagram
        assert len(enumerate_generators(d)) == p
        classes = spinc_partition(d)
        assert len(classes) == p
        assert all(len(c.members) == 1 for c in classes)
        h = homology_of_Y(d)
        assert h.b1 == 0 and h.torsion == (p,)
    check(2, "lens family p=2..7: p generators, p singleton classes, H1 = Z/p")


def test_criterion_3_bigon_index():
    d = build_s1s2().diagram
    x, y = enumerate_generators(d)
    dom = solve_domain(d, x, y)
    from hfcalc.grading import positive_representative
    bigon = positive_representative(dom)
    assert euler_measure(d, bigon) == Fraction(1, 2)
    assert generator_measure(d, bigon, x) == Fraction(1, 4)
    assert generator_measure(d, bigon, y) == Fraction(1, 4)
    assert maslov_index(d, x, y, bigon) == 1
    assert {relative_grading(d, x, y), relative_grading(d, y, x)} == {1, -1}
    check(3, "S^1xS^2 bigon: e = 1/2, n_x = n_y = 1/4, mu = 1, gr = +-1")


def test_criterion_4_layer_identity_suite():
    suite = atlas_family() + [load_diagram(TWO_FINGER_TEXT), load_diagram(D2_TEXT)]
    audited = 0
    single_layer_checked = 0
    for d in suite:
        for x, y, dom in positive_translates(d, max_mult=3, span=3):
            direct = (euler_measure(d, dom) + generator_measure(d, dom, x)
                      + generator_measure(d, dom, y))
            layers = per_level_decompose(d, x, y, dom.coefficients)
            layered = sum((fraction_layer_index(d, x, y, l) for l in layers), Fraction(0))
            assert layered == direct
            report = audit_index(d, x, y, dom)  # raises AuditError if an identity fails
            assert report.n_x_minus_n_y == (generator_measure(d, dom, x)
                                            - generator_measure(d, dom, y))
            if report.single_layer_identity is not None:
                assert report.single_layer_identity is True
                chi = fraction_layer_euler(d, layers[0])
                q = sum(1 for c in layers[0].clusters if c.shape == CONCAVE)
                assert chi + q == report.maslov
                single_layer_checked += 1
            audited += 1
    assert audited >= 100
    assert single_layer_checked >= 10
    check(4, f"layer identities on {audited} positive domains "
             f"({single_layer_checked} single-layer cases), exact")


def test_criterion_5_grading_well_definedness():
    rng = random.Random(2024)
    suite = atlas_family() + [load_diagram(D2_TEXT), load_diagram(TWO_FINGER_TEXT)]
    pairs = 0
    for d in suite:
        for cls in spinc_partition(d):
            for x in cls.members:
                for y in cls.members:
                    dom = solve_domain(d, x, y)
                    rank = len(dom.lattice)
                    for _ in range(6):
                        a = dom.translate([rng.randint(-4, 4) for _ in range(rank)])
                        b = dom.translate([rng.randint(-4, 4) for _ in range(rank)])
                        va = maslov_index(d, x, y, a) - 2 * basepoint_multiplicity(d, a)
                        vb = maslov_index(d, x, y, b) - 2 * basepoint_multiplicity(d, b)
                        if cls.divisibility:
                            assert (va - vb) % cls.divisibility == 0
                        else:
                            assert va == vb
                        pairs += 1
    assert pairs >= 100
    check(5, f"mu - 2 n_z agrees mod d over {pairs} random domain pairs")


def test_criterion_6_stabilization_invariance():
    for d in atlas_family():
        st, corr = stabilize(d)
        d2 = st.diagram
        assert sorted((len(c.members), c.divisibility) for c in spinc_partition(d)) == \
            sorted((len(c.members), c.divisibility) for c in spinc_partition(d2))
        for x in enumerate_generators(d):
            for y in enumerate_generators(d):
                try:
                    old = relative_grading(d, x, y)
                except NoConnectingClassError:
                    old = None
                try:
                    new = relative_grading(d2, corr[x], corr[y])
                except NoConnectingClassError:
                    new = None
                assert old == new
    check(6, "stabilization preserves class sizes, divisibilities, gradings")


def test_criterion_7_lattice_rank():
    for d in atlas_family():
        assert len(homogeneous_lattice(d)) == 1 + homology_of_Y(d).b1
    check(7, "homogeneous lattice rank = 1 + b1(Y) on every atlas diagram")


def test_criterion_8_shift_arithmetic():
    theta, shift = theta_and_shift(0, 2, 0)
    assert (theta, shift) == (-4, -1)
    assert gr0_of_theta(-2) == 0  # theta of the 4-ball: 0 - 2*1 - 0
    check(8, "shift(0,2,0) = -1 and gr0(theta = -2) = 0")


def test_criterion_9_open_book_family():
    for n in range(0, 6):
        md = build_annulus_open_book(n)
        d = md.diagram
        h = homology_of_Y(d)
        if n == 0:
            assert (h.b1, h.torsion) == (1, ())
        else:
            assert h.b1 == 0 and h.order == n
        assert md.contact_generator in enumerate_generators(d)
    check(9, "open book n=0..5 validates; |H1| = |n| (Z for n = 0); marked "
             "generator valid")


def test_criterion_10_robustness():
    fingerprints = {}

    def fingerprint(d):
        rows = []
        for cls in spinc_partition(d):
            pair_rows = sorted(
                relative_grading(d, x, y)
                for x in cls.members for y in cls.members)
            rows.append((len(cls.members), cls.divisibility, tuple(pair_rows)))
        return sorted(rows)

    suite = [build_s1s2().diagram, build_torus_diagram(3, 1).diagram,
             load_diagram(D2_TEXT), load_diagram(TWO_FINGER_TEXT)]
    for d in suite:
        base = fingerprint(d)
        for curve in d.input.curve_names():
            rev = assemble_regions(reverse_curve(d.input, curve))
            assert fingerprint(rev) == base
        vmap = {n: f"v{i}" for i, n in enumerate(sorted(d.vertex_names, reverse=True))}
        cmap = {n: f"c{i}" for i, n in enumerate(d.input.curve_names())}
        renamed = assemble_regions(rename(d.input, vertex_map=vmap, curve_map=cmap))
        assert fingerprint(renamed) == base
    check(10, "orientation reversal and renaming leave partitions, d, gradings fixed")
