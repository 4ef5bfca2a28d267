"""Parsing, face tracing, assembly, and serialization tests."""

import hashlib
import random
import re
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfcalc.atlas import build_annulus_open_book, build_s1s2, build_torus_diagram, stabilize
from hfcalc.diagram import (ALPHA, BETA, DiagramError, ParseError, Region, RegionDirective,
                            ValidationError, _Graph, assemble_regions, load_diagram,
                            parse_diagram, rename, reverse_curve, serialize, trace_faces)
from hfcalc.grading import homology_of_Y, spinc_partition

from conftest import (D2_TEXT, L31_TEXT, S3_TEXT, TWO_FINGER_TEXT, s1s2_plus_pairs_text,
                      s1s2_sum_text)
from smith_oracle import arc_table
from strategies import (MALFORMED_CIRCLE_IDS, curve_systems, lists_each_vertex_once,
                        mutated_inputs, random_curve_system)


def test_parse_s3_counts():
    inp = parse_diagram(S3_TEXT)
    assert inp.genus == 1
    assert len(inp.alpha) == len(inp.beta) == 1
    assert inp.alpha[0] == ("a0", ("x0",))
    assert inp.signs == {"x0": 1}


def test_parse_l31_matches_atlas_file():
    inp = parse_diagram(L31_TEXT)
    assert len(inp.alpha) == len(inp.beta) == 1
    assert inp.alpha[0][1] == ("x0", "x1", "x2")
    assert inp.beta[0][1] == ("x0", "x2", "x1")
    assert all(s == 1 for s in inp.signs.values())


NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter has no limit on integer string conversion")


@pytest.mark.parametrize("text,fragment", [
    ("genus: 1\n", "header"),
    ("heegaard v1\nalpha a0: x0+\nbeta b0: x0\nbasepoint: a0 x0 left-after\n", "genus"),
    ("heegaard v1\ngenus: 1\nalpha a0: x0+ x0+\nbeta b0: x0\nbasepoint: a0 x0 left-after\n",
     "listed twice"),
    ("heegaard v1\ngenus: 1\nalpha a0: x0\nbeta b0: x0\nbasepoint: a0 x0 left-after\n",
     "crossing sign"),
    ("heegaard v1\ngenus: 1\nalpha a0: x0+\nbeta b0: x0+\nbasepoint: a0 x0 left-after\n",
     "must not carry"),
    ("heegaard v1\ngenus: 2\nalpha a0: x0+\nbeta b0: x0\nbasepoint: a0 x0 left-after\n",
     "requires"),
    ("heegaard v1\ngenus: 1\nalpha a0: x0+\nbeta b0: x1\nbasepoint: a0 x0 left-after\n",
     "differ"),
    ("heegaard v1\ngenus: 1\nalpha a0: x0+\nbeta b0: x0\n", "basepoint"),
    ("heegaard v1\ngenus: 1\nalpha a0: x0+\nbeta b0: x0\nbasepoint: a0 x0 above\n",
     "side"),
    ("heegaard v1\ngenus: 1\nalpha a0: x0+\nbeta b0: x0\nbasepoint: a9 x0 left-after\n",
     "does not exist"),
    ("heegaard v1\ngenus: 1\nalpha a0: x0+\nbeta b0: x0\nbasepoint: a0 x0 left-after\nwat\n",
     "unrecognized"),
    ("heegaard v1\ngenus: 1\nalpha a0:\nbeta b0: x0\nbasepoint: a0 x0 left-after\n",
     "no vertices"),
    ("heegaard v1\ngenus: 0\nbasepoint: a0 x0 left-after\n", "at least 1"),
    ("", "empty input; expected header 'heegaard v1'"),
    ("# nothing but a comment\n\n", "empty input"),
    ("heegaard v1\ngenus: 1\ngenus: 1\n", "line 3: duplicate genus line"),
    (S3_TEXT.replace("beta  b0", "beta  a0"), "line 4: duplicate curve name 'a0'"),
    ("heegaard v1\ngenus: 1\nalpha a0: x0+\nbeta b0: x0 x0\n",
     "line 4: vertex 'x0' listed twice on beta curves"),
    (S3_TEXT + "basepoint: a0 x0 left-after\n", "line 6: duplicate basepoint line"),
    (S3_TEXT.replace(" left-after", ""),
     "line 5: basepoint line must read 'basepoint: CURVE VERTEX SIDE'"),
    (S3_TEXT + "region r: genus=0 circles=auto a0.0+\n",
     "line 6: 'circles=auto' takes no further ids"),
    (S3_TEXT + "region r: genus=0 circles=\n", "line 6: empty circle id"),
    # No basepoint line could name a curve whose name holds whitespace, and
    # serialize could not write it, so the parser refuses it on its line.
    pytest.param(S3_TEXT.replace("alpha a0", "alpha a 0"),
                 "line 3: alpha curve name 'a 0' holds whitespace", id="alpha-name-space"),
    pytest.param(S3_TEXT.replace("beta  b0", "beta  b 0"),
                 "line 4: beta curve name 'b 0' holds whitespace", id="beta-name-space"),
    pytest.param(S3_TEXT.replace("alpha a0", "alpha a\t0"),
                 "line 3: alpha curve name 'a\\t0' holds whitespace", id="alpha-name-tab"),
    # str.isdigit accepts superscripts, which int() rejects with ValueError.
    pytest.param("heegaard v1\ngenus: \u00b2\n",
                 "line 2: genus must be a nonnegative integer, got '\u00b2'",
                 id="genus-superscript"),
    pytest.param("heegaard v1\ngenus: 1\u00b2\n", "line 2: genus must be a nonnegative integer",
                 id="genus-trailing-superscript"),
    pytest.param(S3_TEXT + "region r: genus=\u00b9 circles=auto\n",
                 "line 6: region genus must be a nonnegative integer, got '\u00b9'",
                 id="region-genus-superscript"),
    pytest.param("heegaard v1\ngenus: " + "9" * 5000 + "\n",
                 "line 2: genus has a number past Python's", marks=NEEDS_DIGIT_LIMIT,
                 id="genus-past-the-digit-limit"),
    pytest.param("heegaard v1\ngenus: 1\nregion r: genus=" + "9" * 5000 + " circles=auto\n",
                 "line 3: region genus has a number past Python's", marks=NEEDS_DIGIT_LIMIT,
                 id="region-genus-past-the-digit-limit"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_diagram(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    text = "heegaard v1\ngenus: 1\nalpha a0: x0+ x0+\nbeta b0: x0\nbasepoint: a0 x0 left-after\n"
    with pytest.raises(ParseError) as err:
        parse_diagram(text)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_decimal_digits_of_any_script_are_numbers():
    # ARABIC-INDIC DIGITs THREE and ZERO: decimal digits, which int() reads.
    text = s1s2_sum_text(3).replace("genus: 3", "genus: \u0663").replace("genus=0", "genus=\u0660")
    inp = parse_diagram(text)
    assert inp.genus == 3 and inp.directives[0].genus == 0


def test_trace_s3_single_square():
    circles = trace_faces(parse_diagram(S3_TEXT))
    assert len(circles) == 1
    assert len(circles[0]) == 4


def test_trace_l21_two_circles():
    text = ("heegaard v1\ngenus: 1\nalpha a0: x0+ x1+\nbeta  b0: x0 x1\n"
            "basepoint: a0 x0 right-after\n")
    assert len(trace_faces(parse_diagram(text))) == 2


@pytest.mark.parametrize("text", [S3_TEXT, L31_TEXT, D2_TEXT, TWO_FINGER_TEXT])
def test_trace_partitions_arc_sides(text):
    inp = parse_diagram(text)
    circles = trace_faces(inp)
    sides = [pair for c in circles for pair in c]
    n_arcs = sum(len(v) for _, v in inp.alpha) + sum(len(v) for _, v in inp.beta)
    assert len(sides) == 2 * n_arcs
    assert len(set(sides)) == len(sides)


def test_assemble_s3_one_disk():
    d = load_diagram(S3_TEXT)
    assert d.n_regions == 1
    assert d.regions[0].genus == 0
    assert d.corner_counts == (4,)


def test_assemble_s1s2_euler(s1s2):
    # 2 - 4 + (1 + 1 + 0) = 0 = 2 - 2*1 with the two-circle region merged.
    assert s1s2.n_vertices == 2 and s1s2.n_arcs == 4
    chis = sorted(r.chi for r in s1s2.regions)
    assert chis == [0, 1, 1]
    assert sum(1 for r in s1s2.regions if len(r.faces) == 2) == 1


def test_assemble_euler_mismatch():
    inp = parse_diagram(S3_TEXT)
    bad = (RegionDirective("r0", 1, ("a0.0+",)),)
    with pytest.raises(ValidationError) as err:
        assemble_regions(inp._replace(directives=bad))
    assert "Euler" in str(err.value)


def test_assemble_circle_claimed_twice():
    inp = parse_diagram(S3_TEXT)
    bad = (RegionDirective("r0", 0, ("a0.0+",)), RegionDirective("r1", 0, ("a0.0+",)))
    with pytest.raises(ValidationError) as err:
        assemble_regions(inp._replace(directives=bad))
    assert "claimed" in str(err.value)


def test_assemble_unknown_circle():
    inp = parse_diagram(S3_TEXT)
    with pytest.raises(ValidationError) as err:
        assemble_regions(inp._replace(directives=(RegionDirective("r0", 0, ("zz.9+",)),)))
    assert "unknown circle" in str(err.value)


@pytest.mark.parametrize("change, message", [
    ({"basepoint": ("a0", "nope", "left-after")},
     "basepoint locator (a0, nope) resolves to nothing"),
    ({"signs": {"x0": 1, "x1": 1}}, "vertex 'x2' has no crossing sign"),
    ({"beta": (("b0", ("x0", "x9", "x1")),)}, "beta vertex 'x9' is on no alpha curve"),
    ({"beta": (("b0", ("x0", "x1")),)}, "vertex 'x2' of alpha curve 'a0' is on no beta curve"),
    ({"beta": (("b0", ("x0", "x2", "x1", "x0")),)},
     "vertex 'x0' listed twice on beta curves, again on 'b0'"),
    ({"alpha": (("a0", ("x0", "x1", "x2", "x1")),)},
     "vertex 'x1' listed twice on alpha curves, again on 'a0'"),
    ({"alpha": (("a0", ("x0", "x1", "x2")), ("a1", ())), "beta": (("b0", ("x0", "x2", "x1")),
                                                                 ("b1", ()))},
     "curve 'a1' lists no vertices; every curve must cross the other family at least once"),
    ({"directives": (RegionDirective("r", 1, None),)},
     "'circles=auto' regions must have genus 0"),
], ids=["basepoint-vertex", "unsigned-vertex", "unknown-beta-vertex", "beta-misses-vertex",
        "beta-repeats-vertex", "alpha-repeats-vertex", "empty-curve", "auto-region-genus"])
def test_malformed_programmatic_inputs_are_validation_errors(change, message):
    """Inputs the parser refuses, built directly: each names a vertex that
    assembly cannot look up, or that a curve family lists twice or not at
    all, or a curve that lists no vertex, and fails with a ValidationError
    naming it, not with a KeyError or traced garbage.  So does a
    ``circles=auto`` region of genus 1, which the parser reads."""
    inp = parse_diagram(L31_TEXT)._replace(**change)
    with pytest.raises(ValidationError) as err:
        assemble_regions(inp)
    assert str(err.value) == message
    if not {"basepoint", "directives"} & change.keys():  # tracing reads neither
        with pytest.raises(ValidationError) as err:
            trace_faces(inp)
        assert str(err.value) == message


def test_load_builds_the_face_graph_once(monkeypatch):
    import hfcalc.diagram as diagram_mod

    built = []

    trace = diagram_mod._Graph.__init__

    def counting_trace(self, inp):
        built.append(inp)
        trace(self, inp)

    monkeypatch.setattr(diagram_mod._Graph, "__init__", counting_trace)
    load_diagram(L31_TEXT)
    assert len(built) == 1


def test_assemble_rejects_dependent_family():
    # Merging the two circles on one side of the curves would disconnect
    # the surface when cutting along a family; the validator must say so.
    inp = parse_diagram(D2_TEXT.replace("region rA: genus=0 circles=a0.0+ a0.1-",
                                        "region rA: genus=0 circles=a0.0+ a0.0-"))
    with pytest.raises(ValidationError) as err:
        assemble_regions(inp)
    assert "disconnects" in str(err.value)


def test_assemble_rejects_disconnected_surface():
    # Euler-consistent, but the S1 x S2 part (with a genus-1 annulus) and
    # the two one-vertex pairs (one region) share no arc.
    text = s1s2_plus_pairs_text(2).replace(
        "region r0: genus=0 circles=a0.0- a0.1+ a1.0+ a2.0+",
        "region r0: genus=1 circles=a0.0- a0.1+\nregion r1: genus=0 circles=a1.0+ a2.0+")
    with pytest.raises(ValidationError) as err:
        load_diagram(text)
    assert str(err.value) == "diagram is disconnected (graph plus regions)"


def assembly_verdict_by_vertices(inp):
    """The ValidationError message of the earlier ``assemble_regions``, or None.

    Verbatim from it: region grouping, the Euler check, connectivity by a
    union-find over vertices (arcs plus one bridge per extra circle of a
    region), and a region union-find per cut family.
    """
    graph = _Graph(inp)
    arcs = arc_table(graph)
    directives = inp.directives

    def origin(dart):
        arc = arcs[dart // 2]
        return arc.tail if dart % 2 == 0 else arc.head

    face_index = {}
    for f, cyc in enumerate(graph.faces):
        for d in cyc:
            face_index[graph.dart_names[d]] = f
    claimed = {}
    regions = []
    auto_seen = False
    for d in directives:
        if d.genus < 0:
            return f"region {d.label!r}: genus must be nonnegative"
        if d.circles is None:
            if auto_seen:
                return "more than one 'circles=auto' region directive"
            if d.genus != 0:
                return "'circles=auto' regions must have genus 0"
            auto_seen = True
            continue
        fids = []
        for cid in d.circles:
            if cid not in face_index:
                return (f"region {d.label!r} references unknown circle {cid!r}; "
                        f"known circles: {' '.join(graph.face_names)}")
            f = face_index[cid]
            if f in claimed:
                return f"circle {cid!r} claimed by both {claimed[f]!r} and {d.label!r}"
            claimed[f] = d.label
            fids.append(f)
        regions.append(Region(len(regions), d.label, d.genus, tuple(sorted(fids))))

    for f, name in sorted(enumerate(graph.face_names), key=lambda p: p[1]):
        if f not in claimed:
            regions.append(Region(len(regions), name, 0, (f,)))

    region_of_face = [-1] * len(graph.faces)
    for r in regions:
        for f in r.faces:
            region_of_face[f] = r.index

    nv = len(graph.vertex_names)
    ne = len(arcs)
    chi = nv - ne + sum(r.chi for r in regions)
    if chi != 2 - 2 * inp.genus:
        return (f"Euler characteristic mismatch: V - E + sum chi(region) = "
                f"{nv} - {ne} + {sum(r.chi for r in regions)} = {chi}, "
                f"but genus {inp.genus} requires {2 - 2 * inp.genus}")

    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for arc in arcs:
        union(arc.tail, arc.head)
    for r in regions:
        anchor = origin(graph.faces[r.faces[0]][0])
        for f in r.faces[1:]:
            union(anchor, origin(graph.faces[f][0]))
    if len({find(v) for v in range(nv)}) != 1:
        return "diagram is disconnected (graph plus regions)"

    for family, fam_name in ((BETA, ALPHA), (ALPHA, BETA)):
        rparent = list(range(len(regions)))

        def rfind(x):
            while rparent[x] != x:
                rparent[x] = rparent[rparent[x]]
                x = rparent[x]
            return x

        for arc in arcs:
            if arc.family == family:
                l = region_of_face[graph.face_of_dart[2 * arc.index]]
                r_ = region_of_face[graph.face_of_dart[2 * arc.index + 1]]
                rparent[rfind(l)] = rfind(r_)
        if len({rfind(i) for i in range(len(regions))}) != 1:
            return (f"cutting along the {fam_name} curves disconnects the surface; "
                    f"the {fam_name} family is not independent")
    return None


def test_assembly_checks_match_the_vertex_union_find():
    rng = random.Random(2024)
    outcomes = Counter()
    for _ in range(1500):
        inp = random_curve_system(rng)
        try:
            assemble_regions(inp)
            got = None
        except ValidationError as e:
            got = str(e)
        assert got == assembly_verdict_by_vertices(inp)
        outcomes[got.split(";")[0].split(":")[0] if got else "assembled"] += 1
    # Each connectivity verdict occurs, so the comparison is not vacuous.
    assert outcomes["assembled"] > 100
    assert outcomes["diagram is disconnected (graph plus regions)"]
    assert outcomes["cutting along the alpha curves disconnects the surface"]
    assert outcomes["cutting along the beta curves disconnects the surface"]


# Every table that assembly builds, in the form a caller reads it.
ASSEMBLY_TABLES = ("vertex_names", "signs", "alpha", "beta", "alpha_of", "beta_of",
                   "dart_names", "rotations", "face_of_dart", "faces", "face_names", "regions",
                   "region_of_face", "basepoint_region", "corner_counts", "region_chi",
                   "quadrants", "arc_sides")

# sha256 over the inputs of ``assembly_inputs``: the repr of every table in
# ASSEMBLY_TABLES plus, per Spin^c class, its members' vertex tuples, its
# anchor and its divisibility, for each input that assembles, and the
# ValidationError text for each input that does not.  The repr tells a list
# from a tuple, so the digest pins the container types as well as circle and
# region order.  Recorded on the code that still kept a record per arc,
# with that table left out of ASSEMBLY_TABLES, so every other table is
# pinned byte for byte across its removal.
ASSEMBLY_DIGEST = "d730f97ec2d17393accb02c28481c9c751deeedd93bd0a7e3f3aefa9245bff5b"


def assembly_inputs(atlas_suite):
    """The atlas suite, each diagram also stabilized once and with each curve
    reversed, then 1500 random curve systems."""
    for d in atlas_suite:
        yield d.input
        yield stabilize(d)[0].diagram.input
        for curve in d.input.curve_names():
            yield reverse_curve(d.input, curve)
    rng = random.Random(2024)
    for _ in range(1500):
        yield random_curve_system(rng)


def test_assembly_digest(atlas_suite):
    digest = hashlib.sha256()
    outcomes = Counter()
    for inp in assembly_inputs(atlas_suite):
        try:
            d = assemble_regions(inp)
        except ValidationError as e:
            digest.update(f"error: {e}\n".encode())
            outcomes["rejected"] += 1
            continue
        tables = tuple(getattr(d, name) for name in ASSEMBLY_TABLES)
        classes = tuple((tuple(g.vertices for g in cls.members), cls.anchor.vertices,
                         cls.divisibility) for cls in spinc_partition(d))
        digest.update(repr((tables, classes)).encode() + b"\n")
        outcomes["assembled"] += 1
    assert outcomes["assembled"] > 300 and outcomes["rejected"] > 300
    assert digest.hexdigest() == ASSEMBLY_DIGEST


def test_quadrants_s3(s3):
    quads = s3.quadrants[s3.vertex_id("x0")]
    assert len(quads) == 4
    assert set(quads) == {0}


def test_quadrants_l31(l31):
    # Three regions cannot own four distinct quadrants: each vertex sees
    # three distinct regions, one of them twice in opposite positions.
    for v in l31.vertex_names:
        regions = l31.quadrants[l31.vertex_id(v)]
        assert len(set(regions)) == 3
        assert regions[0] == regions[2] or regions[1] == regions[3]


def test_quadrants_l52_distinct():
    # With winding 2 the two jumps no longer cancel on opposite quadrants,
    # so each vertex sees four distinct regions.
    from hfcalc.atlas import build_torus_diagram
    d = build_torus_diagram(5, 2).diagram
    for v in d.vertex_names:
        regions = d.quadrants[d.vertex_id(v)]
        assert len(set(regions)) == 4


def test_quadrants_unknown_vertex(s3):
    with pytest.raises(KeyError, match="unknown vertex 'nope'"):
        s3.quadrants[s3.vertex_id("nope")]


def dotted_diagrams():
    """torus(12, 5) with its curves named ``a.1`` and ``b.1``, stabilized once,
    and with each curve reversed.  The names hold a dot, and at 12 vertices
    a curve's arc ``10`` sorts before its arc ``2``, so a circle's first dart
    by name is not its first by index."""
    inp = rename(build_torus_diagram(12, 5).diagram.input,
                 curve_map={"a0": "a.1", "b0": "b.1"})
    d = assemble_regions(inp)
    return [d, stabilize(d)[0].diagram] + [assemble_regions(reverse_curve(inp, curve))
                                           for curve in inp.curve_names()]


def test_lookup_tables_match_the_face_lookups(atlas_suite):
    for d in atlas_suite + dotted_diagrams():
        def region_of_dart(dart):
            return d.region_of_face[d.face_of_dart[dart]]

        assert d.quadrants == tuple(
            tuple(region_of_dart(dart) for dart in rot) for rot in d.rotations)
        assert d.arc_sides == tuple((region_of_dart(2 * a), region_of_dart(2 * a + 1))
                                    for a in range(d.n_arcs))
        assert d.region_chi == tuple(r.chi for r in d.regions)
        for f, face in enumerate(d.faces):
            assert d.face_names[f] == min(d.dart_names[dart] for dart in face)
            assert d.dart_names[face[0]] == d.face_names[f]
            assert all(d.face_of_dart[dart] == f for dart in face)
        for r in d.regions:
            assert d.corner_counts[r.index] == sum(len(d.faces[f]) for f in r.faces)


def test_arcs_are_numbered_along_the_listings(atlas_suite):
    """Arc a of the curve listings, alpha curves first, has the darts 2a and
    2a + 1, named after it, and leaves its tail in the rotation slot of its
    family (beta: slot 1 at a positive vertex, slot 3 at a negative one).
    The vertices are numbered along the alpha listings, so alpha arc v
    leaves vertex v."""
    diagrams = atlas_suite + [stabilize(d)[0].diagram for d in atlas_suite]
    for d in diagrams + dotted_diagrams():
        arcs = arc_table(d)
        assert len(arcs) == d.n_arcs
        for arc in arcs:
            name = f"{arc.curve}.{arc.pos}"
            assert d.dart_names[2 * arc.index:2 * arc.index + 2] == (name + "+", name + "-")
            slot = 0 if arc.family == ALPHA else (1 if d.signs[arc.tail] > 0 else 3)
            assert d.rotations[arc.tail][slot] == 2 * arc.index
        assert all(d.rotations[v][0] == 2 * v for v in range(d.n_vertices))


def test_dotted_names_round_trip():
    """Serializing and reloading keeps H1 and the Spin^c classes (as sets of
    vertex names, with their divisibility) on curve names with a dot."""
    def classes(d):
        return {(frozenset(frozenset(d.vertex_names[v] for v in g.vertices)
                           for g in cls.members), cls.divisibility)
                for cls in spinc_partition(d)}

    dotted = dotted_diagrams()
    for d in dotted:
        text = serialize(d)
        again = load_diagram(text)
        assert serialize(again) == text
        assert homology_of_Y(again) == homology_of_Y(d) == (0, (12,))
        assert classes(again) == classes(d)
    assert "region r0: genus=0 circles=a.1.0- a1.0+\n" in serialize(dotted[1])


@pytest.mark.parametrize("text", [S3_TEXT, L31_TEXT, D2_TEXT, TWO_FINGER_TEXT])
def test_serialize_round_trip(text):
    d1 = load_diagram(text)
    canonical = serialize(d1)
    d2 = load_diagram(canonical)
    assert serialize(d2) == canonical
    assert set(d2.vertex_names) == set(d1.vertex_names)
    assert d2.genus == d1.genus
    assert sorted(r.chi for r in d2.regions) == sorted(r.chi for r in d1.regions)
    # ``circles=auto`` leaves every unclaimed circle its own disk, as the
    # file without that line does.
    assert serialize(load_diagram(text + "region r: genus=0 circles=auto\n")) == canonical


@pytest.mark.parametrize("text", [S3_TEXT, L31_TEXT, D2_TEXT, TWO_FINGER_TEXT])
def test_structural_invariants(text):
    d = load_diagram(text)
    assert d.n_arcs == 2 * d.n_vertices
    assert sum(d.corner_counts) == 4 * d.n_vertices
    chi = d.n_vertices - d.n_arcs + sum(r.chi for r in d.regions)
    assert chi == 2 - 2 * d.genus


def test_reverse_twice_is_identity():
    d = load_diagram(TWO_FINGER_TEXT)
    inp = d.input
    double = reverse_curve(reverse_curve(inp, "b0"), "b0")
    assert serialize(assemble_regions(double)) == serialize(d)


def test_reverse_curve_leaves_an_unresolved_basepoint_to_assembly():
    """A basepoint locator whose vertex is off its curve, the reversed one
    or another, passes through ``reverse_curve``; assembly then refuses it
    as it refuses the input itself."""
    inp = build_torus_diagram(3, 1).diagram.input
    for bp_curve in ("a0", "b0"):
        bad = inp._replace(basepoint=(bp_curve, "nope", inp.basepoint[2]))
        message = re.escape(f"basepoint locator ({bp_curve}, nope) resolves to nothing")
        for candidate in (bad, reverse_curve(bad, "a0")):
            with pytest.raises(ValidationError, match=message):
                assemble_regions(candidate)


def test_reverse_curve_refuses_an_unknown_curve():
    with pytest.raises(KeyError, match="unknown curve 'c0'"):
        reverse_curve(parse_diagram(L31_TEXT), "c0")


@pytest.mark.parametrize("curve", ["a0", "b0"])
def test_reverse_curve_revalidates(curve):
    d = load_diagram(D2_TEXT)
    rev = assemble_regions(reverse_curve(d.input, curve))
    assert rev.genus == d.genus
    assert sorted(r.chi for r in rev.regions) == sorted(r.chi for r in d.regions)


def test_rename_roundtrip(l31):
    renamed = rename(l31.input, vertex_map={"x0": "v0", "x1": "v1", "x2": "v2"},
                     curve_map={"a0": "alpha0", "b0": "beta0"})
    d = assemble_regions(renamed)
    assert set(d.vertex_names) == {"v0", "v1", "v2"}
    assert d.n_regions == l31.n_regions


def test_rename_keeps_curve_and_vertex_names_apart():
    # A vertex may share its name with a curve; the parser allows it.
    text = L31_TEXT.replace("x0", "a0")
    d = load_diagram(text)
    assert rename(d.input) == d.input
    renamed = rename(d.input, vertex_map={"x1": "b0"}, curve_map={"b0": "x1"})
    assert assemble_regions(renamed).n_regions == d.n_regions


def test_rename_collision():
    d = load_diagram(L31_TEXT)
    with pytest.raises(ValueError, match="rename maps collide"):
        rename(d.input, vertex_map={"x0": "x1"})
    with pytest.raises(ValueError, match="rename maps collide"):
        rename(d.input, curve_map={"a0": "b0"})
    with pytest.raises(ValueError, match="rename maps collide"):
        rename(d.input, vertex_map={"x0": "y", "x1": "y"})
    # A swap renames both names and leaves them distinct.
    swapped = rename(d.input, vertex_map={"x0": "x1", "x1": "x0"})
    assert assemble_regions(swapped).n_regions == d.n_regions
    # Curve and vertex names live in separate namespaces.
    assert rename(d.input, vertex_map={"x0": "a0"}).signs.keys() == {"a0", "x1", "x2"}


# New names that the text format cannot carry.  Unchecked, each one
# assembles, and written out unchecked it would be text that ``load_diagram``
# refuses, the first with "line 4: beta vertex 'x0+' must not carry a sign".
UNWRITABLE_RENAMES = [
    ({"x0": "x0+"}, None), ({"x0": "a b"}, None), ({"x0": "x#1"}, None), ({"x0": ""}, None),
    (None, {"a0": "a:0"}), (None, {"a0": "a 0"}), (None, {"b0": "#b"})]


@pytest.mark.parametrize("vertex_map, curve_map", UNWRITABLE_RENAMES + [
    ({"x1": "x1-"}, None), ({"x1": 7}, None), (None, {"b0": "b\tc"}), (None, {"b0": None})])
def test_rename_refuses_names_the_text_format_cannot_carry(vertex_map, curve_map):
    inp = build_torus_diagram(3, 1).diagram.input
    ((old, new),) = (vertex_map or curve_map).items()
    kind = "vertex" if vertex_map else "curve"
    with pytest.raises(ValidationError, match=re.escape(f"{kind}_map renames {old!r} to {new!r}")):
        rename(inp, vertex_map, curve_map)


RENAME_BASES = [m.diagram for m in (
    build_torus_diagram(3, 1), build_s1s2(), build_annulus_open_book(2))]
RENAME_BASES += [stabilize(RENAME_BASES[0])[0].diagram, load_diagram(s1s2_plus_pairs_text(2))]


def draw_names(d, data):
    """Maps renaming every vertex and curve of ``d`` to names drawn with
    signs, ``:``, ``.`` and non-ASCII inside them, one of them perhaps
    replaced by a name with whitespace, ``#``, a trailing sign, ``:`` or no
    name at all: (vertex map, curve map, whether one was replaced), or None
    when two new names collide."""
    vertices, curves = sorted(d.input.signs), d.input.curve_names()
    vertex_names = st.text("ab0.:+-\u00e9", max_size=3).map(lambda s: s + "v")
    curve_names = st.text("ab0.+-\u00e9", min_size=1, max_size=4)
    new = data.draw(st.lists(vertex_names, min_size=len(vertices), max_size=len(vertices),
                             unique=True))
    new += data.draw(st.lists(curve_names, min_size=len(curves), max_size=len(curves),
                              unique=True))
    spoil = data.draw(st.none() | st.integers(min_value=0, max_value=len(new) - 1))
    if spoil is not None:
        new[spoil] = data.draw(st.text("ab0+-:#. \t\u2028", max_size=3) | st.integers())
    vmap, cmap = dict(zip(vertices, new)), dict(zip(curves, new[len(vertices):]))
    if len(set(vmap.values())) < len(vmap) or len(set(cmap.values())) < len(cmap):
        return None
    return vmap, cmap, spoil is not None


def renamed_directly(inp, vertex_map, curve_map):
    """``rename`` without its check of the new names: the input that a
    caller building a ``CurveSystemInput`` directly may hold."""
    with mock.patch("hfcalc.diagram._unwritable", return_value=False):
        return rename(inp, vertex_map, curve_map)


def assert_reloads_with_the_same_names(inp, text):
    back = load_diagram(text).input
    assert back.signs == inp.signs
    assert back.basepoint == inp.basepoint
    for family in ("alpha", "beta"):
        assert ({name: set(verts) for name, verts in getattr(back, family)}
                == {name: set(verts) for name, verts in getattr(inp, family)})


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RENAME_BASES), st.data())
def test_rename_refuses_or_round_trips(d, data):
    """A rename to the names of ``draw_names`` either raises
    ``ValidationError`` or serializes to text that reloads with the new
    names; when no name was spoiled it never raises."""
    drawn = draw_names(d, data)
    if drawn is None:
        return  # a collision, which raises ValueError
    vmap, cmap, spoiled = drawn
    try:
        inp = rename(d.input, vmap, cmap)
    except ValidationError:
        assert spoiled
        return
    assert_reloads_with_the_same_names(inp, serialize(assemble_regions(inp)))


@pytest.mark.parametrize("vertex_map, curve_map",
                         UNWRITABLE_RENAMES + [({"x0": "x0#"}, None)])
def test_serialize_refuses_names_the_text_format_cannot_carry(vertex_map, curve_map):
    # Built directly, torus(3, 1) with its alpha curve (and so its basepoint
    # curve) named "a 0" assembles; written out, it would fail to reload at
    # line 5, the basepoint line, and with a vertex named "x0#" at line 3.
    d = assemble_regions(renamed_directly(build_torus_diagram(3, 1).diagram.input,
                                          vertex_map, curve_map))
    ((_, new),) = (vertex_map or curve_map).items()
    kind = "vertex" if vertex_map else "curve"
    with pytest.raises(ValidationError,
                       match=re.escape(f"the text format cannot carry the {kind} name {new!r}")):
        serialize(d)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RENAME_BASES), st.data())
def test_serialize_refuses_or_round_trips(d, data):
    """An input built directly with the names of ``draw_names`` that
    assembles either makes ``serialize`` raise ``ValidationError`` or
    serializes to text that reloads with its names; when no name was
    spoiled it never raises."""
    drawn = draw_names(d, data)
    if drawn is None:
        return
    vmap, cmap, spoiled = drawn
    inp = renamed_directly(d.input, vmap, cmap)
    try:
        assembled = assemble_regions(inp)
    except DiagramError:
        return
    try:
        text = serialize(assembled)
    except ValidationError:
        assert spoiled
        return
    assert_reloads_with_the_same_names(inp, text)


ATLAS_TEXTS = [serialize(m.diagram) for m in (
    build_torus_diagram(1, 0), build_torus_diagram(3, 1), build_torus_diagram(5, 2),
    build_s1s2(), build_annulus_open_book(-2), build_annulus_open_book(2),
    stabilize(build_torus_diagram(3, 1).diagram)[0])]

# Characters the format gives meaning to, digits that str.isdigit accepts
# but int() does not, another script's decimal digit, and line breaks that
# str.splitlines honours.
NUMBER_CHARS = ["0", "7", "²", "¹", "٣"]
MUTATION_CHARS = list(" \n:=+-#.,axbw") + NUMBER_CHARS + ["\x85", "\u2028"]


@st.composite
def mutated_atlas_texts(draw):
    """An atlas text with characters inserted and deleted.

    "extend-number" inserts a digit-like character right after a digit, so
    that number fields (genus, region genus) meet odd digits often.
    """
    text = draw(st.sampled_from(ATLAS_TEXTS))
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["insert", "extend-number", "delete"]))
        if kind == "extend-number":
            ends = [i + 1 for i, c in enumerate(text) if c.isdigit()] or [0]
            at = draw(st.sampled_from(ends))
            text = text[:at] + draw(st.sampled_from(NUMBER_CHARS)) + text[at:]
            continue
        at = draw(st.integers(min_value=0, max_value=len(text)))
        if kind == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(st.sampled_from(MUTATION_CHARS)) + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(mutated_atlas_texts())
def test_mutated_atlas_texts_fail_only_with_diagram_errors(text):
    try:
        load_diagram(text)
    except DiagramError:
        pass


MUTATION_BASES = [m.diagram.input for m in (
    build_torus_diagram(2, 1), build_torus_diagram(3, 1), build_torus_diagram(5, 1),
    build_annulus_open_book(-2), build_annulus_open_book(1), build_annulus_open_book(3))]
MUTATION_BASES += [parse_diagram(s1s2_sum_text(2)), parse_diagram(s1s2_plus_pairs_text(2))]


@settings(max_examples=200, deadline=None)
@given(mutated_inputs(st.sampled_from(MUTATION_BASES)))
def test_circle_id_rewrites_refuse_malformed_ids(inp):
    """``rename`` and ``reverse_curve`` rewrite each circle id of the region
    directives; the first malformed one, in directive order, raises a
    ``DiagramError`` that names it, from either function."""
    bad = [cid for d in inp.directives for cid in d.circles or () if cid in MALFORMED_CIRCLE_IDS]
    curve = inp.curve_names()[0]
    if not bad:
        rename(inp, curve_map={curve: curve + "r"})
        return
    for rewrite in (lambda: rename(inp, curve_map={curve: curve + "r"}),
                    lambda: reverse_curve(inp, curve)):
        with pytest.raises(DiagramError, match=re.escape(f"malformed circle id {bad[0]!r}")):
            rewrite()


@pytest.mark.parametrize("cid", MALFORMED_CIRCLE_IDS)
def test_malformed_circle_id_names_its_line(cid):
    """A parsed region directive with a malformed circle id: the error
    names the id and the directive's line, and is a ``ValidationError``."""
    text = serialize(build_torus_diagram(1, 0).diagram) + f"region r0: genus=0 circles={cid}\n"
    inp = parse_diagram(text)
    line = text.splitlines().index(f"region r0: genus=0 circles={cid}") + 1
    message = f"^line {line}: .*" + re.escape(f"malformed circle id {cid!r}")
    for rewrite in (lambda: rename(inp, vertex_map={"x0": "y0"}), lambda: reverse_curve(inp, "a0")):
        with pytest.raises(ValidationError, match=message):
            rewrite()


@settings(max_examples=200, deadline=None)
@given(mutated_inputs(st.sampled_from(MUTATION_BASES)), st.data())
def test_reverse_curve_on_mutated_inputs_raises_only_diagram_errors(inp, data):
    """``reverse_curve`` on a structurally mutated input returns or raises
    a ``DiagramError``; reversing twice gives the input back when its
    listings name each vertex once."""
    curve = data.draw(st.sampled_from(inp.curve_names()))
    try:
        once = reverse_curve(inp, curve)
    except DiagramError:
        return
    if lists_each_vertex_once(inp):
        assert reverse_curve(once, curve) == inp


def _classes_by_name(d):
    return {frozenset(frozenset(d.vertex_names[v] for v in g.vertices) for g in cls.members)
            for cls in spinc_partition(d)}


@settings(max_examples=300, deadline=None)
@given(mutated_inputs(st.one_of(st.sampled_from(MUTATION_BASES),
                                curve_systems().map(lambda d: d.input))))
def test_mutated_inputs_assemble_to_what_reloads_or_fail_with_diagram_errors(inp):
    """A structurally mutated input either fails assembly with a
    ``DiagramError`` or assembles to a diagram whose serialized text
    reloads with the same genus, vertex names, region count, H1 and Spin^c
    classes.  An input whose listings drop or repeat a vertex is refused
    by the face tracing itself, with a ``ValidationError``."""
    if not lists_each_vertex_once(inp):
        with pytest.raises(ValidationError):
            trace_faces(inp)
    try:
        d = assemble_regions(inp)
    except DiagramError:
        return
    assert lists_each_vertex_once(inp)
    reloaded = load_diagram(serialize(d))
    assert reloaded.genus == d.genus
    assert sorted(reloaded.vertex_names) == sorted(d.vertex_names)
    assert reloaded.n_regions == d.n_regions
    assert homology_of_Y(reloaded) == homology_of_Y(d)
    assert _classes_by_name(reloaded) == _classes_by_name(d)
