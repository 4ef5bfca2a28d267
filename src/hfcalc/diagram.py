"""Combinatorial Heegaard diagrams: parsing, face tracing, assembly.

A diagram is described by oriented curve listings with crossing signs.
The sign at a vertex fixes the counterclockwise rotation order of the
four half-edges meeting there:

* positive vertex: alpha-out, beta-out, alpha-in, beta-in;
* negative vertex: alpha-out, beta-in, alpha-in, beta-out.

One bit per vertex therefore turns the two curve families into a rotation
system on a 4-valent graph.  Faces are traced from the rotation system,
and region directives may group several traced circles into a single
region carrying a genus; that is how non-cellular embeddings (needed for
instance by the standard S1 x S2 diagram, whose complement contains an
annulus) are encoded.  Assembly validates the closed-surface Euler
identity, connectivity, and the independence proxy (cutting along either
curve family must not disconnect the surface).  The independence check
is the precondition ``grading.homology_of_Y`` relies on: with it, H1 of
the 3-manifold is read off the alpha . beta intersection matrix.  The
assembled ``HeegaardDiagram`` is one object: the traced graph, its
regions, and the answers cached for it.  It is read-only apart from that
cache and safe to share between threads.

Assembly builds each lookup table once: the vertex numbering with the
sign and the alpha and beta curve of each vertex, the arcs with their
dart names, each vertex's rotation, the traced faces with the face of
each dart, the regions with the region of each face, each region's corner
count and Euler characteristic, the regions at each vertex's four
quadrants, the regions on each side of each arc, and the basepoint
region.  The index from every dart name to its face is built only when a
region directive lists circles.

Dart conventions used throughout: every arc gets a forward dart ``2 * arc``
(along the curve orientation) and a backward dart ``2 * arc + 1``; traced
faces run counterclockwise, so the face containing a dart lies on the
dart's left; quadrant ``i`` at a vertex is the sector between rotation
slots ``i`` and ``i + 1`` and is owned by the face containing the dart in
slot ``i``.
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping, NamedTuple

LEFT_AFTER = "left-after"
RIGHT_AFTER = "right-after"
SIDES = (LEFT_AFTER, RIGHT_AFTER)

ALPHA = "alpha"
BETA = "beta"


class DiagramError(Exception):
    """Base class for diagram input problems."""


class ParseError(DiagramError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ValidationError(DiagramError):
    """A structurally well-formed input that does not describe a surface."""


class RegionDirective(NamedTuple):
    """Grouping of traced circles into one region with a genus.

    ``circles`` is a tuple of canonical circle ids, or None for the
    ``auto`` marker (every unclaimed circle becomes its own disk).
    """

    label: str
    genus: int
    circles: tuple[str, ...] | None
    line: int | None = None


class CurveSystemInput(NamedTuple):
    """Parsed, name-interned curve data before surface assembly."""

    genus: int
    alpha: tuple[tuple[str, tuple[str, ...]], ...]
    beta: tuple[tuple[str, tuple[str, ...]], ...]
    signs: Mapping[str, int]  # vertex name -> +1 / -1
    basepoint: tuple[str, str, str]  # curve, vertex, side
    directives: tuple[RegionDirective, ...] = ()

    def curve_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.alpha) + tuple(n for n, _ in self.beta)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _parse_alpha_token(tok: str, line: int) -> tuple[str, int]:
    if len(tok) < 2 or tok[-1] not in "+-":
        raise ParseError(f"alpha vertex {tok!r} needs a crossing sign (+ or -)", line)
    return tok[:-1], (1 if tok[-1] == "+" else -1)


def _parse_count(text: str, what: str, line: int) -> int:
    # isdecimal, not isdigit: int() rejects superscripts such as '²'.
    if not text.isdecimal():
        raise ParseError(f"{what} must be a nonnegative integer, got {text!r}", line)
    try:
        return int(text)
    except ValueError:  # past the interpreter's limit on integer-from-string conversion
        raise ParseError(f"{what} has a number past Python's {sys.get_int_max_str_digits()}"
                         f"-digit limit for converting strings to integers", line) from None


def parse_diagram(text: str) -> CurveSystemInput:
    """Parse the line-oriented diagram format into a ``CurveSystemInput``.

    The format (UTF-8, ``#`` comments)::

        heegaard v1
        genus: 1
        alpha a0: x0+ x1+ x2+
        beta  b0: x0 x2 x1
        basepoint: a0 x0 left-after
        region r0: genus=0 circles=auto

    Signs appear only on alpha listings.  Vertex names must occur exactly
    once across the alpha curves and exactly once across the beta curves,
    with identical name sets.  Raises ``ParseError`` with the offending
    line number on malformed input.
    """
    genus: int | None = None
    alpha: list[tuple[str, tuple[str, ...]]] = []
    beta: list[tuple[str, tuple[str, ...]]] = []
    signs: dict[str, int] = {}
    basepoint: tuple[str, str, str] | None = None
    directives: list[RegionDirective] = []
    seen_curves: set[str] = set()
    seen_alpha: dict[str, int] = {}
    seen_beta: dict[str, int] = {}
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if not header_seen:
            if line.strip() != "heegaard v1":
                raise ParseError("expected header 'heegaard v1'", lineno)
            header_seen = True
            continue
        stripped = line.strip()
        keyword = stripped.split(None, 1)[0]

        if keyword == "genus:":
            if genus is not None:
                raise ParseError("duplicate genus line", lineno)
            genus = _parse_count(stripped[len("genus:"):].strip(), "genus", lineno)
        elif keyword in (ALPHA, BETA):
            body = stripped[len(keyword):].strip()
            if ":" not in body:
                raise ParseError(f"malformed {keyword} line (missing ':')", lineno)
            name, seq = body.split(":", 1)
            name = name.strip()
            if not name:
                raise ParseError(f"{keyword} curve needs a name", lineno)
            if name in seen_curves:
                raise ParseError(f"duplicate curve name {name!r}", lineno)
            seen_curves.add(name)
            toks = seq.split()
            if not toks:
                raise ParseError(f"curve {name!r} lists no vertices; every curve "
                                 "must cross the other family at least once", lineno)
            verts: list[str] = []
            for tok in toks:
                if keyword == ALPHA:
                    vname, sign = _parse_alpha_token(tok, lineno)
                    if vname in seen_alpha:
                        raise ParseError(f"vertex {vname!r} listed twice on alpha curves", lineno)
                    seen_alpha[vname] = lineno
                    signs[vname] = sign
                else:
                    if tok[-1] in "+-":
                        raise ParseError(f"beta vertex {tok!r} must not carry a sign", lineno)
                    vname = tok
                    if vname in seen_beta:
                        raise ParseError(f"vertex {vname!r} listed twice on beta curves", lineno)
                    seen_beta[vname] = lineno
                verts.append(vname)
            (alpha if keyword == ALPHA else beta).append((name, tuple(verts)))
        elif keyword == "basepoint:":
            if basepoint is not None:
                raise ParseError("duplicate basepoint line", lineno)
            toks = stripped[len("basepoint:"):].split()
            if len(toks) != 3:
                raise ParseError("basepoint line must read 'basepoint: CURVE VERTEX SIDE'", lineno)
            if toks[2] not in SIDES:
                raise ParseError(f"basepoint side must be one of {SIDES}", lineno)
            basepoint = (toks[0], toks[1], toks[2])
        elif keyword == "region":
            body = stripped[len("region"):].strip()
            if ":" not in body:
                raise ParseError("malformed region line (missing ':')", lineno)
            label, rest = body.split(":", 1)
            label = label.strip()
            toks = rest.split()
            if len(toks) < 2 or not toks[0].startswith("genus=") or not toks[1].startswith("circles="):
                raise ParseError("region line must read 'region LABEL: genus=N circles=...'", lineno)
            region_genus = _parse_count(toks[0][len("genus="):], "region genus", lineno)
            first = toks[1][len("circles="):]
            if first == "auto":
                if len(toks) > 2:
                    raise ParseError("'circles=auto' takes no further ids", lineno)
                circles: tuple[str, ...] | None = None
            else:
                ids = [first] + toks[2:]
                if not all(ids):
                    raise ParseError("empty circle id", lineno)
                circles = tuple(ids)
            directives.append(RegionDirective(label, region_genus, circles, lineno))
        else:
            raise ParseError(f"unrecognized line {stripped!r}", lineno)

    if not header_seen:
        raise ParseError("empty input; expected header 'heegaard v1'")
    if genus is None:
        raise ParseError("missing 'genus:' line")
    if genus < 1:
        raise ParseError("genus must be at least 1 (the encoding needs at least one curve)")
    if basepoint is None:
        raise ParseError("missing 'basepoint:' line")
    if len(alpha) != genus or len(beta) != genus:
        raise ParseError(
            f"genus {genus} requires {genus} alpha and {genus} beta curves, "
            f"got {len(alpha)} and {len(beta)}")
    if set(seen_alpha) != set(seen_beta):
        missing = set(seen_alpha) ^ set(seen_beta)
        raise ParseError(
            "vertex sets of the two families differ: " + " ".join(sorted(missing)))

    bp_curve, bp_vertex, _ = basepoint
    for name, verts in alpha + beta:
        if name == bp_curve:
            if bp_vertex not in verts:
                raise ParseError(f"basepoint vertex {bp_vertex!r} is not on curve {bp_curve!r}")
            break
    else:
        raise ParseError(f"basepoint curve {bp_curve!r} does not exist")

    return CurveSystemInput(genus, tuple(alpha), tuple(beta), signs,
                            basepoint, tuple(directives))


# ---------------------------------------------------------------------------
# Graph structure and face tracing
# ---------------------------------------------------------------------------

class Arc(NamedTuple):
    """Oriented edge between consecutive vertices along one curve."""

    index: int
    family: str  # ALPHA or BETA
    curve: str
    pos: int  # position along the curve listing
    tail: int  # vertex id
    head: int  # vertex id

    @property
    def name(self) -> str:
        return f"{self.curve}.{self.pos}"


class _Graph:
    """Vertices, arcs, rotations, and traced faces of a curve system.

    ``dart_names[d]`` is the circle id of dart ``d``: the arc's name
    followed by ``+`` for the forward dart and ``-`` for the backward one.
    ``alpha_of[v]`` and ``beta_of[v]`` are the indices of the alpha and
    the beta curve through vertex ``v``.
    """

    def __init__(self, inp: CurveSystemInput):
        self.input = inp
        self.genus = inp.genus
        # Vertices are numbered in alpha listing order.
        names = [v for _, verts in inp.alpha for v in verts]
        nv = len(names)
        self.vertex_names = tuple(names)
        self.vertex_index = index = {n: i for i, n in enumerate(names)}
        self.signs = signs = tuple(map(inp.signs.__getitem__, names))
        self.alpha = tuple((name, tuple(map(index.__getitem__, verts)))
                           for name, verts in inp.alpha)
        self.beta = tuple((name, tuple(map(index.__getitem__, verts)))
                          for name, verts in inp.beta)

        # One walk along every curve builds the arcs, their dart names, the
        # curve through each vertex and the darts leaving and entering it.
        alpha_of, beta_of = [-1] * nv, [-1] * nv
        arcs: list[Arc] = []
        dart_names: list[str] = []
        a_out, a_in, b_out, b_in = [-1] * nv, [-1] * nv, [-1] * nv, [-1] * nv
        for family, curves, curve_of, out, inn in ((ALPHA, self.alpha, alpha_of, a_out, a_in),
                                                   (BETA, self.beta, beta_of, b_out, b_in)):
            for j, (name, verts) in enumerate(curves):
                for pos, (tail, head) in enumerate(zip(verts, verts[1:] + verts[:1])):
                    arc = len(arcs)
                    arcs.append(Arc(arc, family, name, pos, tail, head))
                    arc_name = f"{name}.{pos}"
                    dart_names += (arc_name + "+", arc_name + "-")
                    curve_of[tail] = j
                    out[tail] = 2 * arc
                    inn[head] = 2 * arc + 1
        self.alpha_of = tuple(alpha_of)
        self.beta_of = tuple(beta_of)
        self.arcs = tuple(arcs)
        self.dart_names = tuple(dart_names)

        # Faces on the left: the next dart of a face is sigma^-1 (the previous
        # dart counterclockwise at the origin) of the reversal, so rotation
        # (r0, r1, r2, r3) sends r1 ^ 1 to r0, r2 ^ 1 to r1, and so on.
        rotations = []
        after = [-1] * len(dart_names)
        for v in range(nv):
            if signs[v] > 0:
                rot = r0, r1, r2, r3 = a_out[v], b_out[v], a_in[v], b_in[v]
            else:
                rot = r0, r1, r2, r3 = a_out[v], b_in[v], a_in[v], b_out[v]
            rotations.append(rot)
            after[r0 ^ 1], after[r1 ^ 1], after[r2 ^ 1], after[r3 ^ 1] = r3, r0, r1, r2
        self.rotations = tuple(rotations)

        # Each face starts at its lexicographically smallest dart name.
        face_of_dart = [-1] * len(dart_names)
        faces: list[tuple[int, ...]] = []
        face_names: list[str] = []
        for start in range(len(face_of_dart)):
            if face_of_dart[start] >= 0:
                continue
            f = len(faces)
            cycle = []
            d = start
            while face_of_dart[d] < 0:
                face_of_dart[d] = f
                cycle.append(d)
                d = after[d]
            first = min(cycle, key=dart_names.__getitem__)
            k = cycle.index(first)
            faces.append(tuple(cycle[k:] + cycle[:k]))
            face_names.append(dart_names[first])
        self.face_of_dart = tuple(face_of_dart)
        self.faces = tuple(faces)
        self.face_names = tuple(face_names)


def trace_faces(inp: CurveSystemInput) -> tuple[tuple[tuple[str, str], ...], ...]:
    """Trace the rotation-system faces of a parsed curve system.

    Each circle is returned as a cyclic tuple of ``(arc_name, direction)``
    pairs with direction ``'+'`` (along the curve orientation) or ``'-'``,
    rotated to start at its lexicographically smallest dart and sorted by
    that starting dart.  Every directed arc side occurs in exactly one
    circle, so the total length of all circles is twice the arc count.
    """
    g = _Graph(inp)
    circles = (tuple((g.dart_names[d][:-1], g.dart_names[d][-1]) for d in cyc)
               for cyc in g.faces)
    return tuple(sorted(circles, key=lambda c: c[0]))


# ---------------------------------------------------------------------------
# Regions and assembled diagrams
# ---------------------------------------------------------------------------

class Region(NamedTuple):
    """A complement region: one or more traced circles plus a genus.

    A genus of 1 or more never survives assembly: the region would lie in
    the complement of the alpha curves, which the Euler and independence
    checks force to be planar.
    """

    index: int
    label: str
    genus: int
    faces: tuple[int, ...]  # face indices

    @property
    def chi(self) -> int:
        return 2 - 2 * self.genus - len(self.faces)


class Quadrant(NamedTuple):
    vertex: str
    position: int  # 0..3 between rotation slots position and position + 1
    region: int


def _connected(n: int, edges) -> bool:
    """Whether the edges, pairs of node ids in range(n), join all n nodes.

    A union-find that counts its merges: the nodes are joined exactly when
    n - 1 edges merged two trees.
    """
    parent = list(range(n))
    merges = 0
    for a, b in edges:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            merges += 1
    return merges == n - 1


class HeegaardDiagram(_Graph):
    """The traced graph of a curve system plus its regions, validated.

    Built in one step from a ``CurveSystemInput`` (``assemble_regions``
    and ``load_diagram`` do just that): the graph is traced, the circles
    are grouped into regions by the input's directives, and the closed
    surface is validated.  The diagram is read-only after that, except
    for ``_cache``, where ``grading`` memoizes the answers it computes
    from the diagram; they live exactly as long as the diagram does.

    Region fields: ``regions``; ``region_of_face``; ``basepoint_region``;
    ``corner_counts`` and ``region_chi`` per region; ``quadrants``, the
    regions of each vertex's four quadrants in rotation order; and
    ``arc_sides``, the (left, right) regions of each arc relative to its
    forward direction.
    """

    def __init__(self, inp: CurveSystemInput):
        super().__init__(inp)
        faces, face_names = self.faces, self.face_names
        region_of_face = [-1] * len(faces)
        regions: list[Region] = []
        region_chi: list[int] = []
        corner_counts: list[int] = []
        # Circles may be referenced through any of their darts; the canonical
        # id (the minimal dart) is what serialization emits.  Only directives
        # that list circles read this index of every dart name.
        face_index: dict[str, int] | None = None
        claimed: dict[int, str] = {}
        auto_seen = False
        for d in inp.directives:
            if d.genus < 0:
                raise ValidationError(f"region {d.label!r}: genus must be nonnegative")
            if d.circles is None:
                if auto_seen:
                    raise ValidationError("more than one 'circles=auto' region directive")
                if d.genus != 0:
                    raise ValidationError("'circles=auto' regions must have genus 0")
                auto_seen = True
                continue
            if face_index is None:
                face_index = dict(zip(self.dart_names, self.face_of_dart))
            fids = []
            for cid in d.circles:
                f = face_index.get(cid)
                if f is None:
                    raise ValidationError(
                        f"region {d.label!r} references unknown circle {cid!r}; "
                        f"known circles: {' '.join(face_names)}")
                if f in claimed:
                    raise ValidationError(
                        f"circle {cid!r} claimed by both {claimed[f]!r} and {d.label!r}")
                claimed[f] = d.label
                fids.append(f)
                region_of_face[f] = len(regions)
            fids.sort()
            regions.append(Region(len(regions), d.label, d.genus, tuple(fids)))
            region_chi.append(regions[-1].chi)
            corner_counts.append(sum(len(faces[f]) for f in fids))
        for f in sorted(range(len(faces)), key=face_names.__getitem__):
            if f not in claimed:
                region_of_face[f] = len(regions)
                regions.append(Region(len(regions), face_names[f], 0, (f,)))
                region_chi.append(1)  # a disk
                corner_counts.append(len(faces[f]))

        nv = len(self.vertex_names)
        ne = len(self.arcs)
        assert ne == 2 * nv  # one alpha and one beta arc slot per vertex
        chi_regions = sum(region_chi)
        chi = nv - ne + chi_regions
        if chi != 2 - 2 * inp.genus:
            raise ValidationError(
                f"Euler characteristic mismatch: V - E + sum chi(region) = "
                f"{nv} - {ne} + {chi_regions} = {chi}, "
                f"but genus {inp.genus} requires {2 - 2 * inp.genus}")

        # Every quadrant at a vertex borders the arcs there, so the graph plus
        # the regions is connected exactly when the regions are, across arcs.
        # Cutting along either family must keep them connected across the other
        # family's arcs (alpha arcs first); all arcs are tried for the message.
        region_of_dart = [region_of_face[f] for f in self.face_of_dart]
        arc_sides = tuple(zip(region_of_dart[0::2], region_of_dart[1::2]))
        for sides, fam_name in ((arc_sides[nv:], ALPHA), (arc_sides[:nv], BETA)):
            if not _connected(len(regions), sides):
                if not _connected(len(regions), arc_sides):
                    raise ValidationError("diagram is disconnected (graph plus regions)")
                raise ValidationError(
                    f"cutting along the {fam_name} curves disconnects the surface; "
                    f"the {fam_name} family is not independent")

        # The first arc leaving the basepoint vertex along the basepoint curve;
        # the arcs of each curve are consecutive, in listing order.
        bp_curve, bp_vertex, side = inp.basepoint
        bp_arc = None
        first = 0
        for name, verts in self.alpha + self.beta:
            if name == bp_curve:
                tail = self.vertex_index[bp_vertex]
                if tail in verts:
                    bp_arc = first + verts.index(tail)
                    break
            first += len(verts)
        if bp_arc is None:
            raise ValidationError(
                f"basepoint locator ({bp_curve}, {bp_vertex}) resolves to nothing")

        self.regions = tuple(regions)
        self.region_of_face = tuple(region_of_face)
        self.basepoint_region = region_of_dart[2 * bp_arc if side == LEFT_AFTER
                                               else 2 * bp_arc + 1]
        self.corner_counts = tuple(corner_counts)
        self.region_chi = tuple(region_chi)
        self.quadrants = tuple((region_of_dart[r0], region_of_dart[r1],
                                region_of_dart[r2], region_of_dart[r3])
                               for r0, r1, r2, r3 in self.rotations)
        self.arc_sides = arc_sides
        self._cache: dict = {}

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_names)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def vertex_id(self, name: str) -> int:
        try:
            return self.vertex_index[name]
        except KeyError:
            raise KeyError(f"unknown vertex {name!r}") from None

    def quadrant_region(self, vertex: int, position: int) -> int:
        """Region owning the sector between rotation slots position, position+1."""
        return self.quadrants[vertex][position]

    def canonical_region_name(self, index: int) -> str:
        """Lexicographically minimal circle id among the region's circles."""
        return min(self.face_names[f] for f in self.regions[index].faces)


def quadrants_at(diagram: HeegaardDiagram, vertex: str) -> tuple[Quadrant, ...]:
    """The four quadrants at a vertex, in rotation order.

    The owning regions need not be distinct.  Raises ``KeyError`` for an
    unknown vertex name.
    """
    v = diagram.vertex_id(vertex)
    return tuple(Quadrant(vertex, i, diagram.quadrant_region(v, i)) for i in range(4))


def assemble_regions(inp: CurveSystemInput) -> HeegaardDiagram:
    """Trace the curve system, group its circles into regions, and validate.

    The input's region directives group the traced circles; unclaimed
    circles each become their own disk region.  Raises
    ``ValidationError`` on an Euler mismatch, a doubly claimed circle, an
    unknown circle id, a disconnected surface, or a curve family whose
    removal disconnects the surface.
    """
    return HeegaardDiagram(inp)


def load_diagram(text: str) -> HeegaardDiagram:
    """Parse, trace, and assemble in one step."""
    return assemble_regions(parse_diagram(text))


# ---------------------------------------------------------------------------
# Canonical serialization and input transformations
# ---------------------------------------------------------------------------

def serialize(diagram: HeegaardDiagram) -> str:
    """Canonical text form: curves sorted by name, each cycle rotated to
    start at its lexicographically minimal vertex, region directives only
    for non-disk regions.

    Re-parsing the output yields the same diagram (vertex and curve names
    preserved; arc positions and region labels are derived data and may
    shift consistently).
    """
    inp = diagram.input
    offsets: dict[str, int] = {}
    lines = ["heegaard v1", f"genus: {inp.genus}"]

    def emit(family: str, curves) -> None:
        for name, verts in sorted(curves, key=lambda c: c[0]):
            k = min(range(len(verts)), key=lambda i: verts[i])
            offsets[name] = k
            rotated = verts[k:] + verts[:k]
            if family == ALPHA:
                toks = [v + ("+" if inp.signs[v] > 0 else "-") for v in rotated]
            else:
                toks = list(rotated)
            label = "alpha" if family == ALPHA else "beta "
            lines.append(f"{label} {name}: {' '.join(toks)}")

    emit(ALPHA, inp.alpha)
    emit(BETA, inp.beta)
    lines.append("basepoint: " + " ".join(inp.basepoint))

    curve_len = {name: len(verts) for name, verts in inp.alpha + inp.beta}

    def new_dart_name(dart: int) -> str:
        arc = diagram.arcs[dart // 2]
        pos = (arc.pos - offsets[arc.curve]) % curve_len[arc.curve]
        return f"{arc.curve}.{pos}" + ("+" if dart % 2 == 0 else "-")

    special = [r for r in diagram.regions if r.genus > 0 or len(r.faces) > 1]
    entries = []
    for r in special:
        ids = sorted(min(new_dart_name(d) for d in diagram.faces[f]) for f in r.faces)
        entries.append((ids[0], r.genus, ids))
    for k, (_, genus, ids) in enumerate(sorted(entries)):
        lines.append(f"region r{k}: genus={genus} circles={' '.join(ids)}")
    return "\n".join(lines) + "\n"


def _map_circle_ids(directives: tuple[RegionDirective, ...],
                    dart: Callable[[str, str, str], tuple]) -> tuple[RegionDirective, ...]:
    """The directives with each circle id ``CURVE.POS`` + direction rewritten
    as the (curve, position, direction) that ``dart`` maps its parts to."""
    def rewrite(cid: str) -> str:
        curve, pos = cid[:-1].rsplit(".", 1)
        return "{}.{}{}".format(*dart(curve, pos, cid[-1]))

    return tuple(d if d.circles is None else d._replace(circles=tuple(map(rewrite, d.circles)))
                 for d in directives)


def reverse_curve(inp: CurveSystemInput, curve: str) -> CurveSystemInput:
    """Reverse the listed orientation of one curve.

    Reversing a curve's orientation flips the handedness of every crossing
    on it, so the signs of its vertices are flipped along with the listing
    order; the described surface and all grading quantities are unchanged.
    Arc names on the reversed curve change (arc ``curve.p`` becomes
    ``curve.(n-2-p mod n)`` with direction flipped), so region directives
    and the basepoint locator are mapped through that dart bijection; the
    basepoint stays in the same region.
    """
    names = dict(inp.alpha + inp.beta)
    if curve not in names:
        raise KeyError(f"unknown curve {curve!r}")
    flipped = set(names[curve])
    n = len(names[curve])

    def map_dart(arc_curve: str, pos: int, direction: str) -> tuple[str, int, str]:
        if arc_curve != curve:
            return arc_curve, pos, direction
        return arc_curve, (n - 2 - pos) % n, ("-" if direction == "+" else "+")

    def flip_listing(curves):
        return tuple((nm, tuple(reversed(v)) if nm == curve else v) for nm, v in curves)

    signs = {v: (-s if v in flipped else s) for v, s in inp.signs.items()}
    directives = _map_circle_ids(inp.directives,
                                 lambda c, pos, direction: map_dart(c, int(pos), direction))

    # Relocate the basepoint: resolve the old locator to a dart, map it,
    # and express the mapped dart as a locator in the new listings.
    bp_curve, bp_vertex, side = inp.basepoint
    old_pos = names[bp_curve].index(bp_vertex)
    direction = "+" if side == LEFT_AFTER else "-"
    c2, p2, d2 = map_dart(bp_curve, old_pos, direction)
    new_listing = tuple(reversed(names[c2])) if c2 == curve else names[c2]
    new_bp = (c2, new_listing[p2], LEFT_AFTER if d2 == "+" else RIGHT_AFTER)

    return inp._replace(alpha=flip_listing(inp.alpha), beta=flip_listing(inp.beta),
                        signs=signs, basepoint=new_bp, directives=directives)


def rename(inp: CurveSystemInput,
           vertex_map: Mapping[str, str] | None = None,
           curve_map: Mapping[str, str] | None = None) -> CurveSystemInput:
    """Rename vertices and/or curves; the diagram is unchanged otherwise.

    Maps may be partial; both must be injective on the names they touch.
    Region directives are rewritten (circle ids mention curve names).
    """
    vmap = dict(vertex_map or {})
    cmap = dict(curve_map or {})

    def v(name: str) -> str:
        return vmap.get(name, name)

    def c(name: str) -> str:
        return cmap.get(name, name)

    def do(curves):
        return tuple((c(n), tuple(v(x) for x in verts)) for n, verts in curves)

    directives = _map_circle_ids(inp.directives, lambda curve, pos, d: (c(curve), pos, d))
    bp = (c(inp.basepoint[0]), v(inp.basepoint[1]), inp.basepoint[2])
    # Curve and vertex names live in separate namespaces.
    for new_names in ([c(n) for n, _ in inp.alpha + inp.beta], [v(x) for x in inp.signs]):
        if len(set(new_names)) != len(new_names):
            raise ValueError("rename maps collide")
    return inp._replace(alpha=do(inp.alpha), beta=do(inp.beta),
                        signs={v(k): s for k, s in inp.signs.items()},
                        basepoint=bp, directives=directives)
