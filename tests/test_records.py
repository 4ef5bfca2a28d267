"""Record types: repr, hashing, immutability and the equality they keep."""

from fractions import Fraction

import pytest

from hfcalc.atlas import MarkedDiagram
from hfcalc.diagram import CurveSystemInput, Region, RegionDirective
from hfcalc.grading import (Domain, Generator, GradingLabel, Homology, SpincClass,
                            enumerate_generators, solve_domain)
from hfcalc.layers import AuditReport, LayerReport
from hfcalc.zlattice import AffineSolutionSet, IntMatrix, SmithDecomposition

G0, G1 = Generator((0,)), Generator((1,))
LAYER = LayerReport(1, 1, 1, 0, 0, 0, 0, Fraction(3, 4))

# One instance of every record type with the repr it must keep.
RECORDS = [
    (RegionDirective("r0", 0, ("a0.0-",), 3),
     "RegionDirective(label='r0', genus=0, circles=('a0.0-',), line=3)"),
    (CurveSystemInput(1, (("a0", ("x0",)),), (("b0", ("x0",)),), {"x0": 1},
                      ("a0", "x0", "left-after"), ()),
     "CurveSystemInput(genus=1, alpha=(('a0', ('x0',)),), beta=(('b0', ('x0',)),), "
     "signs={'x0': 1}, basepoint=('a0', 'x0', 'left-after'), directives=())"),
    (Region(0, "r0", 0, (0, 1)), "Region(index=0, label='r0', genus=0, faces=(0, 1))"),
    (IntMatrix(((1, 2), (3, 4)), 2), "IntMatrix(entries=((1, 2), (3, 4)), cols=2)"),
    (SmithDecomposition(({0: 1},), (2,), ({0: -1},)),
     "SmithDecomposition(u_rows=({0: 1},), invariants=(2,), v_columns=({0: -1},))"),
    (AffineSolutionSet((1, 0), ((0, 1),)),
     "AffineSolutionSet(particular=(1, 0), kernel=((0, 1),))"),
    (Generator((0, 2)), "Generator(vertices=(0, 2))"),
    (Domain(None, G0, G1, (1, 0, 0)),
     "Domain(diagram=None, source=Generator(vertices=(0,)), "
     "target=Generator(vertices=(1,)), coefficients=(1, 0, 0))"),
    (SpincClass(0, (G0,), G0, 2),
     "SpincClass(index=0, members=(Generator(vertices=(0,)),), "
     "anchor=Generator(vertices=(0,)), divisibility=2)"),
    (GradingLabel(0, 1, 2), "GradingLabel(spinc=0, offset=1, modulus=2)"),
    (Homology(1, (2, 3)), "Homology(b1=1, torsion=(2, 3))"),
    (MarkedDiagram(None, G0, "s1s2()"),
     "MarkedDiagram(diagram=None, contact_generator=Generator(vertices=(0,)), "
     "provenance='s1s2()')"),
    (LAYER, "LayerReport(level=1, chi=1, convex=1, concave=0, boundary_degenerate=0, "
            "interior_degenerate=0, auxiliary_signed=0, index=Fraction(3, 4))"),
    (AuditReport((LAYER,), Fraction(3, 4), 1, 0, Fraction(1, 4), Fraction(1, 4), None),
     "AuditReport(layers=(LayerReport(level=1, chi=1, convex=1, concave=0, "
     "boundary_degenerate=0, interior_degenerate=0, auxiliary_signed=0, "
     "index=Fraction(3, 4)),), layer_sum=Fraction(3, 4), maslov=1, basepoint=0, "
     "n_x_minus_n_y=Fraction(1, 4), boundary_intersection=Fraction(1, 4), "
     "single_layer_identity=None)"),
]
IDS = [type(r).__name__ for r, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_is_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=IDS)
def test_hash_is_the_hash_of_the_fields(record):
    fields = tuple(getattr(record, name) for name in record._fields)
    if isinstance(record, Domain):
        assert hash(record) == object.__hash__(record)
        return
    try:
        expected = hash(fields)
    except TypeError:  # a dict field: neither the record nor its fields hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=IDS)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_records_compare_as_tuples():
    assert Generator((0, 2)) == ((0, 2),)
    assert hash(Generator((0, 2))) == hash(((0, 2),))
    assert sorted([G1, G0]) == [G0, G1]


def test_domains_compare_by_identity(s1s2):
    x, y = enumerate_generators(s1s2)
    a, b = solve_domain(s1s2, x, y), solve_domain(s1s2, x, y)
    assert a.coefficients == b.coefficients
    assert a != b
    assert not a == b
    assert a == a
    assert len({a, b}) == 2

