"""Builder outputs: validation, counts, invariance under stabilization."""

import pytest

from hfcalc.atlas import (build_annulus_open_book, build_s1s2, build_torus_diagram,
                          stabilize)
from hfcalc.diagram import load_diagram, serialize
from hfcalc.grading import (NoConnectingClassError, enumerate_generators,
                            homology_of_Y, relative_grading, spinc_partition)


def class_shape(d):
    return sorted((len(c.members), c.divisibility) for c in spinc_partition(d))


def pairwise_gradings(d, gens):
    out = {}
    for x in gens:
        for y in gens:
            try:
                out[(x, y)] = relative_grading(d, x, y)
            except NoConnectingClassError:
                out[(x, y)] = None
    return out


def test_torus_trivial_case():
    md = build_torus_diagram(1, 0)
    assert len(enumerate_generators(md.diagram)) == 1
    assert homology_of_Y(md.diagram).order == 1


@pytest.mark.parametrize("p", range(2, 8))
def test_torus_family(p):
    md = build_torus_diagram(p, 1)
    d = md.diagram
    assert len(enumerate_generators(d)) == p
    assert [len(c.members) for c in spinc_partition(d)] == [1] * p
    h = homology_of_Y(d)
    assert (h.b1, h.order) == (0, p)


def test_torus_q_values():
    assert homology_of_Y(build_torus_diagram(2, 1).diagram).torsion == (2,)
    assert homology_of_Y(build_torus_diagram(5, 2).diagram).order == 5
    assert homology_of_Y(build_torus_diagram(5, -2).diagram).order == 5


def test_torus_rejects_bad_input():
    with pytest.raises(ValueError):
        build_torus_diagram(4, 2)
    with pytest.raises(ValueError):
        build_torus_diagram(0, 1)


def test_torus_emits_spec_file():
    text = serialize(build_torus_diagram(3, 1).diagram)
    assert "alpha a0: x0+ x1+ x2+" in text
    assert "beta  b0: x0 x2 x1" in text


def test_s1s2_structure():
    d = build_s1s2().diagram
    gens = enumerate_generators(d)
    assert len(gens) == 2
    assert class_shape(d) == [(2, 0)]
    assert homology_of_Y(d).b1 == 1
    x, y = gens
    assert {relative_grading(d, x, y), relative_grading(d, y, x)} == {1, -1}
    # basepoint in the two-circle region, away from the bigon
    bp = d.regions[d.basepoint_region]
    assert len(bp.faces) == 2


def test_builders_reproducible():
    assert serialize(build_s1s2().diagram) == serialize(build_s1s2().diagram)
    a = serialize(build_annulus_open_book(3).diagram)
    b = serialize(build_annulus_open_book(3).diagram)
    assert a == b


def test_s1s2_is_the_untwisted_open_book_without_its_contact_generator():
    s1s2 = build_s1s2()
    assert serialize(s1s2.diagram) == serialize(build_annulus_open_book(0).diagram)
    assert s1s2.provenance == "s1s2()"
    assert s1s2.contact_generator is None


# #^2 S1 x S2 whose two regions of several circles share the label r0.
SHARED_REGION_LABEL_TEXT = """heegaard v1
genus: 2
alpha a0: x0+ y0-
alpha a1: x1+ y1-
beta  b0: x0 y0
beta  b1: x1 y1
basepoint: a0 y0 left-after
region r0: genus=0 circles=a0.0- a0.1+
region r0: genus=0 circles=a1.0- a1.1+ a0.0+
"""

# S1 x S2 whose annulus is labelled a0.0+, the circle id of the basepoint's disk.
CIRCLE_ID_LABEL_TEXT = """heegaard v1
genus: 1
alpha a0: x0+ x1-
beta  b0: x0 x1
basepoint: a0 x0 left-after
region a0.0+: genus=0 circles=a0.0- a0.1+
"""


@pytest.mark.parametrize("builder", [
    lambda: build_torus_diagram(1, 0).diagram,
    lambda: build_torus_diagram(3, 1).diagram,
    lambda: build_s1s2().diagram,
    lambda: build_annulus_open_book(0).diagram,
    lambda: build_annulus_open_book(2).diagram,
    # stabilize finds the basepoint region's directive by its index among
    # the directives that list circles, not by its label.
    lambda: load_diagram(SHARED_REGION_LABEL_TEXT),
    lambda: load_diagram(CIRCLE_ID_LABEL_TEXT),
])
def test_stabilize_preserves_gradings(builder):
    d = builder()
    st, corr = stabilize(d)
    d2 = st.diagram
    assert d2.genus == d.genus + 1
    assert homology_of_Y(d2) == homology_of_Y(d)
    gens = enumerate_generators(d)
    gens2 = enumerate_generators(d2)
    assert len(gens2) == len(gens)
    assert sorted(corr.values(), key=lambda g: g.vertices) == \
        sorted(gens2, key=lambda g: g.vertices)
    assert class_shape(d) == class_shape(d2)
    old = pairwise_gradings(d, gens)
    for (x, y), val in old.items():
        try:
            new = relative_grading(d2, corr[x], corr[y])
        except NoConnectingClassError:
            new = None
        assert new == val


def test_stabilize_keeps_basepoint_region():
    d = build_s1s2().diagram
    st, _ = stabilize(d)
    assert st.diagram.input.basepoint == d.input.basepoint
    # The merged region gained the new square circle.
    bp = st.diagram.regions[st.diagram.basepoint_region]
    assert len(bp.faces) == 3


def test_stabilize_twice():
    d = build_torus_diagram(3, 1).diagram
    st1, c1 = stabilize(d)
    st2, c2 = stabilize(st1.diagram)
    assert st2.diagram.genus == 3
    assert len(enumerate_generators(st2.diagram)) == 3
    assert class_shape(st2.diagram) == class_shape(d)


def test_stabilized_output_round_trips():
    st, _ = stabilize(build_s1s2().diagram)
    text = serialize(st.diagram)
    again = load_diagram(text)
    assert serialize(again) == text


@pytest.mark.parametrize("n", range(0, 6))
def test_open_book_family(n):
    md = build_annulus_open_book(n)
    d = md.diagram
    h = homology_of_Y(d)
    if n == 0:
        assert (h.b1, h.torsion) == (1, ())
    else:
        assert h.b1 == 0 and h.order == n
    assert md.contact_generator in enumerate_generators(d)
    marked = md.contact_generator.vertices
    assert len(marked) == d.genus == 1


@pytest.mark.parametrize("n", [-1, -2, -3])
def test_open_book_negative_twists(n):
    md = build_annulus_open_book(n)
    h = homology_of_Y(md.diagram)
    assert h.b1 == 0 and h.order == -n


def test_open_book_one_is_sphere():
    d = build_annulus_open_book(1).diagram
    h = homology_of_Y(d)
    assert (h.b1, h.order) == (0, 1)
    # three generators, all in one class (two cancel against the marked one)
    assert len(enumerate_generators(d)) == 3
    assert [len(c.members) for c in spinc_partition(d)] == [3]
