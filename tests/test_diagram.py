"""Parsing, face tracing, assembly, and serialization tests."""

import hashlib
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfcalc.atlas import build_annulus_open_book, build_s1s2, build_torus_diagram, stabilize
from hfcalc.diagram import (ALPHA, BETA, DiagramError, ParseError, Region, RegionDirective,
                            ValidationError, _Graph, assemble_regions, load_diagram,
                            parse_diagram, quadrants_at, rename, reverse_curve, serialize,
                            trace_faces)
from hfcalc.grading import spinc_partition

from conftest import (D2_TEXT, L31_TEXT, S3_TEXT, TWO_FINGER_TEXT, s1s2_plus_pairs_text,
                      s1s2_sum_text)


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
    directives = inp.directives

    def origin(dart):
        arc = graph.arcs[dart // 2]
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
    ne = len(graph.arcs)
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

    for arc in graph.arcs:
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

        for arc in graph.arcs:
            if arc.family == family:
                l = region_of_face[graph.face_of_dart[2 * arc.index]]
                r_ = region_of_face[graph.face_of_dart[2 * arc.index + 1]]
                rparent[rfind(l)] = rfind(r_)
        if len({rfind(i) for i in range(len(regions))}) != 1:
            return (f"cutting along the {fam_name} curves disconnects the surface; "
                    f"the {fam_name} family is not independent")
    return None


def random_curve_system(rng):
    """A random genus 1-3 curve system plus random region directives.

    Half of the time the directives merge circles so that the Euler count
    can hold, so many inputs get as far as the connectivity checks.
    """
    g = rng.randint(1, 3)
    names = [f"v{i}" for i in range(rng.randint(g, g + 5))]

    def curves():
        order = rng.sample(names, len(names))
        cuts = [0] + sorted(rng.sample(range(1, len(names)), g - 1)) + [len(names)]
        return [order[a:b] for a, b in zip(cuts, cuts[1:])]

    alpha, beta = curves(), curves()
    lines = ["heegaard v1", f"genus: {g}"]
    lines += [f"alpha a{i}: " + " ".join(v + rng.choice("+-") for v in vs)
              for i, vs in enumerate(alpha)]
    lines += [f"beta b{i}: " + " ".join(vs) for i, vs in enumerate(beta)]
    c = rng.randrange(g)
    lines.append(f"basepoint: a{c} {rng.choice(alpha[c])} "
                 f"{rng.choice(['left-after', 'right-after'])}")
    circles = [[a + d for a, d in circle] for circle in trace_faces(parse_diagram(
        "\n".join(lines) + "\n"))]
    rng.shuffle(circles)
    excess = len(circles) - len(names) - (2 - 2 * g)  # Euler excess with disks only
    k = 0
    while circles and rng.random() < 0.8:
        take = rng.randint(1, min(4, len(circles)))
        if rng.random() < 0.5 and excess > 0:
            take = min(len(circles), excess // 2 + 1)
        genus = rng.choice((0, 0, 0, 1))
        excess -= 2 * (take - 1) + 2 * genus
        group, circles = circles[:take], circles[take:]
        lines.append(f"region r{k}: genus={genus} circles="
                     + " ".join(rng.choice(circle) for circle in group))
        k += 1
    return parse_diagram("\n".join(lines) + "\n")


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
ASSEMBLY_TABLES = ("vertex_names", "signs", "alpha", "beta", "alpha_of", "beta_of", "arcs",
                   "dart_names", "rotations", "face_of_dart", "faces", "face_names", "regions",
                   "region_of_face", "basepoint_region", "corner_counts", "region_chi",
                   "quadrants", "arc_sides")

# sha256 over the inputs of ``assembly_inputs``: the repr of every table in
# ASSEMBLY_TABLES plus, per Spin^c class, its members' vertex tuples, its
# anchor and its divisibility, for each input that assembles, and the
# ValidationError text for each input that does not.  The repr tells a list
# from a tuple, so the digest pins the container types as well as circle and
# region order.
ASSEMBLY_DIGEST = "9fb790b9c1ac858332b7758e177ba1e9f3ca45d950581519da56233cdcc6d0d5"


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
    quads = quadrants_at(s3, "x0")
    assert len(quads) == 4
    assert [q.position for q in quads] == [0, 1, 2, 3]
    assert {q.region for q in quads} == {0}


def test_quadrants_l31(l31):
    # Three regions cannot own four distinct quadrants: each vertex sees
    # three distinct regions, one of them twice in opposite positions.
    for v in l31.vertex_names:
        regions = [q.region for q in quadrants_at(l31, v)]
        assert len(set(regions)) == 3
        assert regions[0] == regions[2] or regions[1] == regions[3]


def test_quadrants_l52_distinct():
    # With winding 2 the two jumps no longer cancel on opposite quadrants,
    # so each vertex sees four distinct regions.
    from hfcalc.atlas import build_torus_diagram
    d = build_torus_diagram(5, 2).diagram
    for v in d.vertex_names:
        regions = [q.region for q in quadrants_at(d, v)]
        assert len(set(regions)) == 4


def test_quadrants_unknown_vertex(s3):
    with pytest.raises(KeyError):
        quadrants_at(s3, "nope")


def test_lookup_tables_match_the_face_lookups(atlas_suite):
    for d in atlas_suite:
        def region_of_dart(dart):
            return d.region_of_face[d.face_of_dart[dart]]

        assert d.quadrants == tuple(
            tuple(region_of_dart(dart) for dart in rot) for rot in d.rotations)
        for v in range(d.n_vertices):
            assert d.quadrants[v] == tuple(d.quadrant_region(v, i) for i in range(4))
        assert d.arc_sides == tuple((region_of_dart(2 * a), region_of_dart(2 * a + 1))
                                    for a in range(d.n_arcs))
        assert d.region_chi == tuple(r.chi for r in d.regions)


@pytest.mark.parametrize("text", [S3_TEXT, L31_TEXT, D2_TEXT, TWO_FINGER_TEXT])
def test_serialize_round_trip(text):
    d1 = load_diagram(text)
    canonical = serialize(d1)
    d2 = load_diagram(canonical)
    assert serialize(d2) == canonical
    assert set(d2.vertex_names) == set(d1.vertex_names)
    assert d2.genus == d1.genus
    assert sorted(r.chi for r in d2.regions) == sorted(r.chi for r in d1.regions)


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
    with pytest.raises(ValueError):
        rename(d.input, vertex_map={"x0": "x1"})


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
