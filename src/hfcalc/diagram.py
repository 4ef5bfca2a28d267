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
sign and the alpha and beta curve of each vertex, the dart names, each
vertex's rotation, the traced faces with the face of each dart, the
regions with the region of each face, each region's corner count and
Euler characteristic, the regions at each vertex's four quadrants, the
regions on each side of each arc, and the basepoint region.  No record
is built per arc.  The index from every dart name to its face is built
only when a region directive lists circles.

Dart conventions used throughout: every arc gets a forward dart ``2 * arc``
(along the curve orientation) and a backward dart ``2 * arc + 1``; the
vertices are numbered along the alpha listings, so alpha arc ``v`` leaves
vertex ``v``, and the beta arcs follow from arc ``nv`` on; traced
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
    seen_beta: set[str] = set()  # ``signs`` holds the vertices seen on alpha curves
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
            if _unwritable([name], ()):
                raise ParseError(f"{keyword} curve name {name!r} holds whitespace", lineno)
            if name in seen_curves:
                raise ParseError(f"duplicate curve name {name!r}", lineno)
            seen_curves.add(name)
            toks = seq.split()
            if not toks:
                raise ParseError(f"curve {name!r} lists no vertices; every curve "
                                 "must cross the other family at least once", lineno)
            if keyword == ALPHA:
                verts: list[str] = []
                for tok in toks:
                    sign = tok[-1]
                    if len(tok) < 2 or sign not in "+-":
                        raise ParseError(f"alpha vertex {tok!r} needs a crossing sign (+ or -)",
                                         lineno)
                    vname = tok[:-1]
                    if vname in signs:
                        raise ParseError(f"vertex {vname!r} listed twice on alpha curves", lineno)
                    signs[vname] = 1 if sign == "+" else -1
                    verts.append(vname)
                alpha.append((name, tuple(verts)))
            else:
                for tok in toks:
                    if tok[-1] in "+-":
                        raise ParseError(f"beta vertex {tok!r} must not carry a sign", lineno)
                    if tok in seen_beta:
                        raise ParseError(f"vertex {tok!r} listed twice on beta curves", lineno)
                    seen_beta.add(tok)
                beta.append((name, tuple(toks)))
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
    if signs.keys() != seen_beta:
        missing = signs.keys() ^ seen_beta
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

def _raise_listed_twice(curves, family: str):
    """Raise for the first vertex listed a second time on the ``family``
    curves, which list more entries than they have vertices."""
    seen = set()
    for name, verts in curves:
        for v in verts:
            if v in seen:
                raise ValidationError(f"vertex {v!r} listed twice on {family} curves, "
                                      f"again on {name!r}")
            seen.add(v)


class _Graph:
    """Vertices, rotations, and traced faces of a curve system.

    The arcs are numbered along the curves, alpha curves first, each curve
    in listing order: arc ``pos`` of a curve runs from its vertex ``pos``
    to the next one.  The vertices are numbered along the alpha listings
    too, so alpha arc ``v`` leaves vertex ``v``, and the beta arcs follow
    from arc ``nv`` on.  ``dart_names[d]`` is the circle id of dart ``d``:
    the arc's curve and position as ``curve.pos``, followed by ``+`` for
    the forward dart and ``-`` for the backward one.
    ``alpha_of[v]`` and ``beta_of[v]`` are the indices of the alpha and
    the beta curve through vertex ``v``.
    """

    def __init__(self, inp: CurveSystemInput):
        self.input = inp
        self.genus = inp.genus
        for name, verts in inp.alpha + inp.beta:
            if not verts:
                raise ValidationError(f"curve {name!r} lists no vertices; every curve "
                                      "must cross the other family at least once")
        # Vertices are numbered in alpha listing order.
        names = [v for _, verts in inp.alpha for v in verts]
        nv = len(names)
        self.vertex_names = tuple(names)
        self.vertex_index = index = dict(zip(names, range(nv)))
        if len(index) != nv:
            _raise_listed_twice(inp.alpha, "alpha")
        try:
            self.signs = signs = tuple(map(inp.signs.__getitem__, names))
        except KeyError as e:
            raise ValidationError(f"vertex {e.args[0]!r} has no crossing sign") from None

        # Alpha arc v leaves vertex v, so its forward dart is 2v, and the alpha
        # dart entering v is 2v - 1, or 2 * end - 1 (the backward dart of the
        # curve's last arc) at the curve's first vertex.
        alpha, alpha_of, a_in, dart_names = [], [], [], []
        start = 0
        for j, (name, verts) in enumerate(inp.alpha):
            n = len(verts)
            end = start + n
            alpha.append((name, tuple(range(start, end))))
            alpha_of += [j] * n
            a_in.append(2 * end - 1)
            a_in += range(2 * start + 1, 2 * end - 1, 2)
            for pos in range(n):
                arc_name = f"{name}.{pos}"
                dart_names += (arc_name + "+", arc_name + "-")
            start = end
        self.alpha = tuple(alpha)
        try:
            self.beta = tuple((name, tuple(map(index.__getitem__, verts)))
                              for name, verts in inp.beta)
        except KeyError as e:
            raise ValidationError(f"beta vertex {e.args[0]!r} is on no alpha curve") from None

        # The beta arcs follow from arc nv on; one walk along each beta curve
        # names its darts and sets the beta curve and darts at each vertex.  As
        # on alpha, the dart entering a vertex is the backward dart of the arc
        # before, or of the curve's last arc at its first vertex.
        beta_of, b_out, b_in = [-1] * nv, [-1] * nv, [-1] * nv
        for j, (name, verts) in enumerate(self.beta):
            dart = len(dart_names)
            for pos, tail in enumerate(verts):
                arc_name = f"{name}.{pos}"
                dart_names += (arc_name + "+", arc_name + "-")
                beta_of[tail] = j
                b_out[tail] = dart
                b_in[tail] = dart - 1
                dart += 2
            b_in[verts[0]] = dart - 1
        # Each alpha vertex is listed once on alpha; once on beta too exactly
        # when none is missing there and the beta listings have nv entries.
        if -1 in b_out:
            v = b_out.index(-1)
            raise ValidationError(f"vertex {names[v]!r} of alpha curve "
                                  f"{inp.alpha[alpha_of[v]][0]!r} is on no beta curve")
        if len(dart_names) != 4 * nv:
            _raise_listed_twice(inp.beta, "beta")
        self.alpha_of = tuple(alpha_of)
        self.beta_of = tuple(beta_of)
        self.dart_names = tuple(dart_names)

        # Faces on the left: the next dart of a face is sigma^-1 (the previous
        # dart counterclockwise at the origin) of the reversal, so rotation
        # (r0, r1, r2, r3) sends r1 ^ 1 to r0, r2 ^ 1 to r1, and so on.
        rotations = []
        after = [-1] * len(dart_names)
        for v, sign, bo, ai, bi in zip(range(nv), signs, b_out, a_in, b_in):
            rot = r0, r1, r2, r3 = (2 * v, bo, ai, bi) if sign > 0 else (2 * v, bi, ai, bo)
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
            if first != start:
                k = cycle.index(first)
                cycle = cycle[k:] + cycle[:k]
            faces.append(tuple(cycle))
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
        # Each unclaimed circle is a disk: chi 1, one corner per dart.  Its
        # record is made by tuple.__new__ as namedtuple's _make does: Region's
        # own __new__ would parse its arguments each time.
        for f in sorted(range(len(faces)), key=face_names.__getitem__):
            if f not in claimed:
                r = len(regions)
                region_of_face[f] = r
                regions.append(tuple.__new__(Region, (r, face_names[f], 0, (f,))))
                corner_counts.append(len(faces[f]))
        region_chi += [1] * (len(regions) - len(region_chi))

        nv = len(self.vertex_names)
        ne = 2 * nv
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
        region_of_dart = list(map(region_of_face.__getitem__, self.face_of_dart))
        arc_sides = tuple(zip(region_of_dart[0::2], region_of_dart[1::2]))
        for sides, fam_name in ((arc_sides[nv:], ALPHA), (arc_sides[:nv], BETA)):
            if not _connected(len(regions), sides):
                if not _connected(len(regions), arc_sides):
                    raise ValidationError("diagram is disconnected (graph plus regions)")
                raise ValidationError(
                    f"cutting along the {fam_name} curves disconnects the surface; "
                    f"the {fam_name} family is not independent")

        # The basepoint lies beside the dart leaving its vertex along its curve:
        # rotation slot 0 on alpha, and slot 1 or 3 (by the sign) on beta.
        bp_curve, bp_vertex, side = inp.basepoint
        v = self.vertex_index.get(bp_vertex)
        if v is not None and self.alpha[self.alpha_of[v]][0] == bp_curve:
            bp_dart = self.rotations[v][0]
        elif v is not None and self.beta[self.beta_of[v]][0] == bp_curve:
            bp_dart = self.rotations[v][1 if self.signs[v] > 0 else 3]
        else:
            raise ValidationError(
                f"basepoint locator ({bp_curve}, {bp_vertex}) resolves to nothing")

        self.regions = tuple(regions)
        self.region_of_face = tuple(region_of_face)
        self.basepoint_region = region_of_dart[bp_dart if side == LEFT_AFTER else bp_dart ^ 1]
        self.corner_counts = tuple(corner_counts)
        self.region_chi = tuple(region_chi)
        self.quadrants = tuple([(region_of_dart[r0], region_of_dart[r1],
                                 region_of_dart[r2], region_of_dart[r3])
                                for r0, r1, r2, r3 in self.rotations])
        self.arc_sides = arc_sides
        self._cache: dict = {}

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_names)

    @property
    def n_arcs(self) -> int:
        return 2 * len(self.vertex_names)  # one alpha and one beta arc leave each vertex

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def vertex_id(self, name: str) -> int:
        try:
            return self.vertex_index[name]
        except KeyError:
            raise KeyError(f"unknown vertex {name!r}") from None

    def canonical_region_name(self, index: int) -> str:
        """Lexicographically minimal circle id among the region's circles."""
        return min(self.face_names[f] for f in self.regions[index].faces)


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
    shift consistently).  A name that the text format cannot carry, which
    a ``CurveSystemInput`` built directly may hold, raises
    ``ValidationError`` naming it (see ``rename``).
    """
    inp = diagram.input
    for (kind, refused), names in zip(_REFUSED, (list(inp.signs), list(inp.curve_names()))):
        if _unwritable(names, refused):
            name = next(n for n in names if _unwritable([n], refused))
            raise ValidationError(f"the text format cannot carry the {kind} name {name!r}")
    offsets: dict[str, int] = {}
    lines = ["heegaard v1", f"genus: {inp.genus}"]

    def emit(family: str, curves) -> None:
        for name, verts in sorted(curves, key=lambda c: c[0]):
            k = verts.index(min(verts))
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
        curve, pos, direction = _circle_id_parts(diagram.dart_names[dart])
        return f"{curve}.{(pos - offsets[curve]) % curve_len[curve]}{direction}"

    special = [r for r in diagram.regions if r.genus > 0 or len(r.faces) > 1]
    entries = []
    for r in special:
        ids = sorted(min(new_dart_name(d) for d in diagram.faces[f]) for f in r.faces)
        entries.append((ids[0], r.genus, ids))
    for k, (_, genus, ids) in enumerate(sorted(entries)):
        lines.append(f"region r{k}: genus={genus} circles={' '.join(ids)}")
    return "\n".join(lines) + "\n"


def _circle_id_parts(cid: str) -> tuple[str, int, str] | None:
    """(curve, position, direction) of a circle id ``CURVE.POS+`` or ``CURVE.POS-``, POS
    as the dart names write it (decimal, no leading zero); None for any other string."""
    curve, _, pos = cid[:-1].rpartition(".")
    if curve and pos.isdecimal() and str(int(pos)) == pos and cid[-1] in "+-":
        return curve, int(pos), cid[-1]
    return None


def _map_circle_ids(directives: tuple[RegionDirective, ...],
                    arc: Callable[[str, int], tuple]) -> tuple[RegionDirective, ...]:
    """The directives with each circle id moved along its arc: ``arc`` sends
    its (curve, position) to a new (curve, position, reverses), and an arc
    that reverses swaps the id's direction.  An id that ``_circle_id_parts``
    does not read raises ``ValidationError`` naming it and its line."""
    def rewrite(d: RegionDirective, cid: str) -> str:
        parts = _circle_id_parts(cid)
        if parts is None:
            where = f"line {d.line}: " if d.line is not None else ""
            raise ValidationError(f"{where}region {d.label!r}: malformed circle id {cid!r}; "
                                  "expected CURVE.POS+ or CURVE.POS-")
        curve, pos, reverses = arc(parts[0], parts[1])
        direction = ("-" if parts[2] == "+" else "+") if reverses else parts[2]
        return f"{curve}.{pos}{direction}"

    return tuple(d if d.circles is None
                 else d._replace(circles=tuple([rewrite(d, cid) for cid in d.circles]))
                 for d in directives)


def reverse_curve(inp: CurveSystemInput, curve: str) -> CurveSystemInput:
    """Reverse the listed orientation of one curve.

    Reversing a curve's orientation flips the handedness of every crossing
    on it, so the signs of its vertices are flipped along with the listing
    order; the described surface and all grading quantities are unchanged.
    Arc ``curve.p`` becomes ``curve.(n-2-p mod n)`` with direction flipped,
    and region directives follow it (an id past the last arc is kept).  The
    basepoint lies beside the arc from its vertex to the next, which now
    leaves the next vertex with its sides swapped: the locator moves there
    and changes side.  Other locators are kept for assembly to resolve.
    """
    names = dict(inp.alpha + inp.beta)
    if curve not in names:
        raise KeyError(f"unknown curve {curve!r}")
    verts = names[curve]
    flipped, n = set(verts), len(verts)

    def flip_listing(curves):
        return tuple((nm, tuple(reversed(v)) if nm == curve else v) for nm, v in curves)

    signs = {v: (-s if v in flipped else s) for v, s in inp.signs.items()}
    directives = _map_circle_ids(inp.directives, lambda c, pos: (
        (c, (n - 2 - pos) % n, True) if c == curve and pos < n else (c, pos, False)))
    bp_curve, bp_vertex, side = inp.basepoint
    if bp_curve == curve and bp_vertex in flipped:
        bp_vertex = verts[(verts.index(bp_vertex) + 1) % n]
        side = RIGHT_AFTER if side == LEFT_AFTER else LEFT_AFTER
    return inp._replace(alpha=flip_listing(inp.alpha), beta=flip_listing(inp.beta),
                        signs=signs, basepoint=(bp_curve, bp_vertex, side),
                        directives=directives)


# What each kind of name may not hold, as ``_unwritable`` reads it: a vertex
# name may not end in a crossing sign, and a curve name may not hold ``:``.
_REFUSED = (("vertex", ("+ ", "- ")), ("curve", (":",)))


def _unwritable(names: list, refused: tuple[str, ...]) -> bool:
    """Whether the text format cannot carry one of ``names``: one that is not
    a non-empty ``str``, or holds whitespace or ``#``, or, with a space after
    each name, one of ``refused``.  The names are checked joined, in C-level
    ``str`` calls; ``split`` cuts at exactly the whitespace the parser does."""
    try:
        text = " ".join(names) + " "
    except TypeError:
        return True
    return text.split() != names or "#" in text or any(map(text.__contains__, refused))


def rename(inp: CurveSystemInput,
           vertex_map: Mapping[str, str] | None = None,
           curve_map: Mapping[str, str] | None = None) -> CurveSystemInput:
    """Rename vertices and/or curves; the diagram is unchanged otherwise.

    Maps may be partial; both must be injective on the names they touch.
    Region directives are rewritten (circle ids mention curve names).  A
    new name that the text format cannot carry raises ``ValidationError``:
    one that is not a non-empty ``str``, or holds whitespace or ``#``, a
    vertex name ending in a sign or a curve name holding ``:``.
    """
    vmap = dict(vertex_map or {})
    cmap = dict(curve_map or {})
    for (kind, refused), names in zip(_REFUSED, (vmap, cmap)):
        if _unwritable(list(names.values()), refused):
            old, new = next(item for item in names.items() if _unwritable([item[1]], refused))
            raise ValidationError(f"{kind}_map renames {old!r} to {new!r}, which the "
                                  f"text format cannot carry as a {kind} name")
    # Each name maps to itself unless the map lists it: map(v, names, names).
    v, c = vmap.get, cmap.get

    def do(curves):
        return tuple((c(n, n), tuple(map(v, verts, verts))) for n, verts in curves)

    directives = _map_circle_ids(inp.directives, lambda curve, pos: (c(curve, curve), pos, False))
    bp_curve, bp_vertex, side = inp.basepoint
    bp = (c(bp_curve, bp_curve), v(bp_vertex, bp_vertex), side)
    # Curve and vertex names live in separate namespaces; the maps collide
    # exactly when the renamed signs or curve names have fewer distinct keys.
    signs = dict(zip(map(v, inp.signs, inp.signs), inp.signs.values()))
    curve_names = inp.curve_names()
    if (len(signs) != len(inp.signs)
            or len(set(map(c, curve_names, curve_names))) != len(curve_names)):
        raise ValueError("rename maps collide")
    return inp._replace(alpha=do(inp.alpha), beta=do(inp.beta), signs=signs,
                        basepoint=bp, directives=directives)
