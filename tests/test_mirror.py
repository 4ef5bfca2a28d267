"""The -Y oracle: swapping the alpha and beta curves (and so negating every
crossing sign) presents -Y, on which each relative grading is negated.

A domain from x to y on Y is, region by region, a domain from y to x on the
mirror, with the same Maslov index and basepoint multiplicity; H1, the
generators, the Spin^c partition with its divisibilities and the region
names do not change, and each generator's intersection sign changes by
(-1)^g."""

import math
import random

from hypothesis import given, settings

from hfcalc.atlas import build_annulus_open_book, build_torus_diagram, stabilize
from hfcalc.diagram import assemble_regions, load_diagram, serialize
from hfcalc.grading import (basepoint_multiplicity, enumerate_generators, homology_of_Y,
                            maslov_index, relative_grading, solve_domain, spinc_partition)

from conftest import D2_TEXT, L31_TEXT, S3_TEXT, TWO_FINGER_TEXT, s1s2_sum_text
from smith_oracle import corner_system, generator_sign, mul_vec
from strategies import assembled_curve_systems, curve_systems, mirror


def names_of(d, g):
    return frozenset(d.vertex_names[v] for v in g.vertices)


def by_names(d):
    """Each generator of ``d`` keyed by the set of its vertex names."""
    return {names_of(d, g): g for g in enumerate_generators(d)}


def partition_by_names(d):
    """Each Spin^c class as its members' vertex-name sets, with its divisibility."""
    return {frozenset(names_of(d, g) for g in cls.members): cls.divisibility
            for cls in spinc_partition(d)}


def regions_by_name(d):
    return {d.canonical_region_name(i): i for i in range(d.n_regions)}


def assert_mirror_negates(d):
    """The checks of the module docstring on ``d``; returns the number of
    same-class pairs (x, y) with x != y that it compared."""
    m = assemble_regions(mirror(d.input))
    assert homology_of_Y(m) == homology_of_Y(d)
    gens, mirrored = by_names(d), by_names(m)
    assert gens.keys() == mirrored.keys()
    assert partition_by_names(m) == partition_by_names(d)
    regions, mirror_regions = regions_by_name(d), regions_by_name(m)
    assert regions.keys() == mirror_regions.keys()
    to_mirror = [mirror_regions[name] for name in regions]  # in region order
    for key, g in gens.items():
        assert generator_sign(m, mirrored[key]) == (-1) ** d.genus * generator_sign(d, g)
    pairs = 0
    for cls in spinc_partition(d):
        modulus = cls.divisibility
        keys = [names_of(d, g) for g in cls.members]
        for kx in keys:
            for ky in keys:
                x, y = gens[kx], gens[ky]
                mx, my = mirrored[kx], mirrored[ky]
                total = relative_grading(d, x, y) + relative_grading(m, mx, my)
                assert total % modulus == 0 if modulus else total == 0, (d.input, kx, ky)
                dom = solve_domain(d, x, y)
                coeffs = [0] * m.n_regions
                for i, c in zip(to_mirror, dom.coefficients):
                    coeffs[i] = c
                matrix, rhs = corner_system(m, my, mx)
                assert mul_vec(matrix, coeffs) == rhs, (d.input, kx, ky)
                assert maslov_index(m, my, mx, coeffs) == maslov_index(d, x, y, dom)
                assert basepoint_multiplicity(m, coeffs) == basepoint_multiplicity(d, dom)
                pairs += kx != ky
    assert serialize(assemble_regions(mirror(m.input))) == serialize(d)
    return pairs


def mirror_suite():
    """torus(p, q) for p <= 7, the open books -4..5, the fixture texts and
    #^2, #^3 S1 x S2; then the first eight of those stabilized, and the
    assembling draws of 200 seeded random curve systems."""
    suite = [build_torus_diagram(p, q).diagram for p in range(1, 8) for q in range(p)
             if math.gcd(p, q) == 1]
    suite += [build_annulus_open_book(n).diagram for n in range(-4, 6)]
    suite += [load_diagram(t) for t in (S3_TEXT, L31_TEXT, D2_TEXT, TWO_FINGER_TEXT,
                                        s1s2_sum_text(2), s1s2_sum_text(3))]
    suite += [stabilize(d)[0].diagram for d in suite[:8]]
    return suite + list(assembled_curve_systems(random.Random(2024), 200))


def test_the_mirror_negates_every_relative_grading():
    suite = mirror_suite()
    assert len(suite) == 90  # 48 of the 200 draws assemble
    pairs = [assert_mirror_negates(d) for d in suite]
    # Not vacuous: diagrams at b1 > 0, and pairs of distinct generators in
    # one class (166 of them, in 18 diagrams).
    assert sum(homology_of_Y(d).b1 > 0 for d in suite) >= 5
    assert sum(pairs) >= 150 and sum(p > 0 for p in pairs) >= 15


@settings(max_examples=50, deadline=None)
@given(curve_systems())
def test_the_mirror_negates_the_gradings_of_drawn_curve_systems(d):
    assert_mirror_negates(d)
