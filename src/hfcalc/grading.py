"""Generators, connecting domains, Spin^c classes, and gradings.

A generator picks one intersection point on each alpha and each beta
curve.  Two generators are connected exactly when the corner system --
the integer linear system asking for a 2-chain of regions whose boundary
runs along the alpha curves from the first generator to the second and
back along the beta curves -- has an integer solution; solvability
partitions the generators into Spin^c classes.

By Ozsvath--Szabo, x and y are connected exactly when eps(x, y), the
loop along the alpha curves from x to y and back along the beta curves,
vanishes in H1(Y) = Z^g / (columns of A), A_ij = alpha_i . beta_j, in
coordinates indexed by alpha (``homology_of_Y`` says why).  Pushed off
their curves, the alpha pieces cross no alpha curve, and averaging the
push-offs to either side weighs each endpoint of a beta piece by one
half (``spinc_partition``).  So the classes and H1 share one
factorization of A, and so does every grading value at every b1: D0
(``_domain_avoiding_z``) and the periodic domains behind the divisibility
are integrated across the beta arcs.  Each generator g has a potential
P(g), the grading of D0(g, a) for the anchor a of its class, and
gr(x, y) = P(x) - P(y): gradings add when domains are juxtaposed, and a
periodic class changes P by a multiple of d.  The connecting domain of
``solve_domain`` is D0(x, a) - D0(y, a), and the periodic lattice is
Sigma plus those periodic domains, so A is the one matrix factored per
diagram; its transforms stay sparse (U by rows and by columns, V by
columns), and the factorization is certified.  The corner matrix M is
never factored: it only certifies domains, through its sparse image.
The generators, the factorization, the partition, the periodic domains,
the potentials, the D0 vectors of ``solve_domain``, the grading table
and H1 are cached on the diagram itself, so each is computed once per
diagram and lives as long as the diagram does.

All index quantities are computed exactly:

* Euler measure  e(D) = sum a_k (chi(D_k) - corners(D_k)/4);
* point measure  n_w(D) = (1/4) sum of the multiplicities of the four
  quadrants at w;
* Maslov index   mu(A) = e(D) + n_x(D) + n_y(D), an integer for every
  solution of the corner system;
* relative grading  gr(x, y) = mu(A) - 2 n_z(D(A)), well defined modulo
  the class divisibility d, which is the gcd of mu(P) - 2 n_z(P) over the
  lattice of periodic (homogeneous) classes P.

Four times each is one integer dot product w . D with a weight per region
(``_quarter_weights``), so the index arithmetic is integer; a value that
is not a multiple of 4 is an internal inconsistency and raises.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import wraps
from typing import NamedTuple, Sequence

from .diagram import ALPHA, HeegaardDiagram
from .zlattice import (DimensionMismatch, IntMatrix, SmithDecomposition, _kernel, _particular,
                       _transpose, gcd_over_lattice, smith_normal_form)


class GradingError(Exception):
    pass


class NoConnectingClassError(GradingError):
    """The two generators lie in different Spin^c classes."""


class NoPositiveRepresentative(GradingError):
    """No nonnegative lattice translate found within the search radius."""

    def __init__(self, radius: int):
        self.radius = radius
        super().__init__(f"no nonnegative representative within radius {radius}")


class ConsistencyError(GradingError):
    """An exact identity failed; indicates a bug, not a user error."""


class MixedLabelError(GradingError):
    """A twisted element mixes generators of different grading labels."""


# ---------------------------------------------------------------------------
# Per-diagram state
# ---------------------------------------------------------------------------

def _per_diagram(fn):
    """Memoize ``fn(diagram)`` in the diagram's own cache.

    The cache is a dict on the diagram, so a cached value lives exactly as
    long as its diagram does.
    """
    @wraps(fn)
    def cached(diagram: HeegaardDiagram):
        try:
            return diagram._cache[fn]
        except KeyError:
            value = diagram._cache[fn] = fn(diagram)
            return value

    return cached


def _not_a_generator(g) -> KeyError:
    return KeyError(f"{g} is not a generator of this diagram")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

class Generator(NamedTuple):
    """A tuple of intersection points, one per alpha curve (by index).

    The selected vertices occupy pairwise distinct beta curves, so the
    beta indices form a permutation of the alpha indices.
    """

    vertices: tuple[int, ...]

    def display(self, diagram: HeegaardDiagram) -> str:
        return ",".join(diagram.vertex_names[v] for v in self.vertices)

    @classmethod
    def from_display(cls, diagram: HeegaardDiagram, text: str) -> "Generator":
        """The generator of comma-separated vertex names, in any order.

        The names are checked directly, with nothing enumerated: one vertex
        on each alpha curve, on pairwise distinct beta curves.
        """
        vertices = [diagram.vertex_id(t.strip()) for t in text.split(",") if t.strip()]
        on_alpha = {diagram.alpha_of[v]: v for v in vertices}
        genus = diagram.genus
        if not (len(vertices) == len(on_alpha) == genus
                and len({diagram.beta_of[v] for v in vertices}) == genus):
            raise _not_a_generator(repr(text))
        return cls(tuple(on_alpha[i] for i in range(genus)))


@_per_diagram
def enumerate_generators(diagram: HeegaardDiagram) -> tuple[Generator, ...]:
    """All generators, in a deterministic order.

    Backtracks over alpha curves in diagram order, choosing vertices in
    listing order and skipping beta curves already used.  The empty result
    is allowed (a diagram may have no generators in some class setups).
    The backtracking keeps its own stack, so the genus is not bounded by
    the interpreter's recursion limit.  Runs once per diagram.
    """
    beta_of = diagram.beta_of
    out: list[Generator] = []
    chosen: list[int] = []  # the vertex picked on each alpha curve but the last open one
    used_beta: set[int] = set()
    pending = [iter(diagram.alpha[0][1])]  # the untried vertices of each open alpha curve
    while pending:
        for v in pending[-1]:
            if beta_of[v] not in used_beta:
                break
        else:
            pending.pop()
            if chosen:
                used_beta.remove(beta_of[chosen.pop()])
            continue
        if len(pending) == diagram.genus:
            out.append(Generator(tuple(chosen) + (v,)))
        else:
            chosen.append(v)
            used_beta.add(beta_of[v])
            pending.append(iter(diagram.alpha[len(pending)][1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Corner system and domains
# ---------------------------------------------------------------------------

@_per_diagram
def _corner_terms(diagram: HeegaardDiagram) -> tuple[tuple[int, int, int], ...]:
    """The corner matrix, sparsely: (row, plus, minus) per arc endpoint.

    Each term adds +1 in column ``plus`` and -1 in column ``minus`` of
    the row; the boundary of an arc is head - tail applied to
    (left-region multiplicity) - (right-region multiplicity).
    """
    nv = diagram.n_vertices
    terms = []
    for arc, (left, right) in zip(diagram.arcs, diagram.arc_sides):
        base = 0 if arc.family == ALPHA else nv
        terms.append((base + arc.head, left, right))
        terms.append((base + arc.tail, right, left))
    return tuple(terms)


def _corner_matrix(diagram: HeegaardDiagram) -> IntMatrix:
    rows = [[0] * diagram.n_regions for _ in range(2 * diagram.n_vertices)]
    for row, plus, minus in _corner_terms(diagram):
        rows[row][plus] += 1
        rows[row][minus] -= 1
    # Built from ints, so it skips from_rows's checks.
    return IntMatrix(tuple(map(tuple, rows)), diagram.n_regions)


def _corner_image(diagram: HeegaardDiagram, coeffs: Sequence[int]) -> tuple[int, ...]:
    """M applied to region coefficients, using the sparsity of M."""
    image = [0] * (2 * diagram.n_vertices)
    for row, plus, minus in _corner_terms(diagram):
        image[row] += coeffs[plus] - coeffs[minus]
    return tuple(image)


def _corner_rhs(diagram: HeegaardDiagram, x: Generator, y: Generator) -> tuple[int, ...]:
    """r(y) - r(x), where r(g) is +1 on the alpha row and -1 on the beta
    row of each vertex of g."""
    nv = diagram.n_vertices
    rhs = [0] * (2 * nv)
    for v in x.vertices:
        rhs[v] -= 1
        rhs[nv + v] += 1
    for v in y.vertices:
        rhs[v] += 1
        rhs[nv + v] -= 1
    return tuple(rhs)


def build_corner_system(diagram: HeegaardDiagram, x: Generator, y: Generator
                        ) -> tuple[IntMatrix, tuple[int, ...]]:
    """Linear system for region multiplicities of a class connecting x to y.

    Unknowns are the region coefficients.  For each vertex there is one
    alpha row and one beta row: the boundary of (boundary of D restricted
    to the alpha curves) must be y - x as a 0-chain, and x - y on the
    beta side.  The coefficient of the boundary on an oriented arc is
    (left-region multiplicity) - (right-region multiplicity).  The matrix
    depends only on the diagram; x and y enter the right-hand side only.
    """
    return _corner_matrix(diagram), _corner_rhs(diagram, x, y)


@_per_diagram
def homogeneous_lattice(diagram: HeegaardDiagram) -> tuple[tuple[int, ...], ...]:
    """Basis of the lattice of periodic classes (kernel of the corner system).

    The kernel does not depend on the generator pair.  The basis is Sigma
    (the class of the full surface, all ones) first, then
    ``_periodic_domains``.  It spans: a periodic P minus n_z(P) Sigma has
    n_z = 0, and its boundary on the beta arcs is a cycle, so whole beta
    curves n; integrating across the beta arcs from D(z) = 0 rebuilds it,
    which is consistent only when A n = 0 (``_domain_avoiding_z`` with base
    chain 0), and integration is linear in n.  It is a basis: Sigma is the
    one vector with n_z != 0, and a nonzero n jumps across some beta arc.
    """
    return ((1,) * diagram.n_regions,) + _periodic_domains(diagram)


class Domain(NamedTuple):
    """Integer 2-chain of regions connecting ``source`` to ``target``.

    Two domains are equal only when they are the same object.
    """

    diagram: HeegaardDiagram
    source: Generator
    target: Generator
    coefficients: tuple[int, ...]

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def lattice(self) -> tuple[tuple[int, ...], ...]:
        return homogeneous_lattice(self.diagram)

    def translate(self, steps: Sequence[int]) -> "Domain":
        """Add an integer combination of the homogeneous lattice basis."""
        basis = self.lattice
        if len(steps) != len(basis):
            raise ValueError(f"expected {len(basis)} lattice steps")
        coeffs = list(self.coefficients)
        for s, vec in zip(steps, basis):
            if s:
                for i, v in enumerate(vec):
                    coeffs[i] += s * v
        return Domain(self.diagram, self.source, self.target, tuple(coeffs))


def solve_domain(diagram: HeegaardDiagram, x: Generator, y: Generator) -> Domain | None:
    """A connecting domain from x to y, or None when none exists.

    None means the generators lie in different Spin^c classes; it is a
    valid mathematical answer, not an error.  Otherwise the domain is
    D0(x, a) - D0(y, a) for the anchor a of their class: D0(x, a) connects
    x to a and -D0(y, a) connects a to y, so it has n_z = 0, and when
    b1 = 0 it is D0(x, y), the one domain with n_z = 0.  Each D0(g, a) is
    built once per diagram, and the difference is checked against the
    corner system before it is returned.  A pair in one class without a
    D0 raises ``ConsistencyError``.  The returned domain carries access to
    the homogeneous lattice through ``Domain.lattice``.
    """
    cls = spinc_class_of(diagram, x)
    if cls.index != spinc_class_of(diagram, y).index:
        return None
    memo = _anchor_domains(diagram)
    for g in (x, y):
        if g not in memo:
            memo[g] = ((0,) * diagram.n_regions if g == cls.anchor
                       else _domain_avoiding_z(diagram, g, cls.anchor).coefficients)
    coeffs = tuple(a - b for a, b in zip(memo[x], memo[y]))
    _check_connecting(diagram, x, y, coeffs)
    return Domain(diagram, x, y, coeffs)


@_per_diagram
def _anchor_domains(diagram: HeegaardDiagram) -> dict[Generator, tuple[int, ...]]:
    """D0(g, a) for each generator g that ``solve_domain`` has read so far."""
    return {}


@_per_diagram
def _beta_walk(diagram: HeegaardDiagram):
    """Breadth-first from the basepoint region across the beta arcs (they reach
    every region: assembly checks it), as (region, parent, arc, j, sign) with
    D(region) = D(parent) + sign (value on this arc of beta_j); and beta-out per vertex."""
    adjacent: list[list[tuple[int, int, int]]] = [[] for _ in range(diagram.n_regions)]
    for arc in range(diagram.n_vertices, diagram.n_arcs):
        left, right = diagram.arc_sides[arc]
        adjacent[right].append((left, arc, 1))
        adjacent[left].append((right, arc, -1))
    reached, queue, order = {diagram.basepoint_region}, [diagram.basepoint_region], []
    for parent in queue:
        for region, arc, sign in adjacent[parent]:
            if region not in reached:
                reached.add(region)
                queue.append(region)
                order.append((region, parent, arc,
                              diagram.beta_of[diagram.arcs[arc].tail], sign))
    return order, [rot[1 if s > 0 else 3] // 2
                   for rot, s in zip(diagram.rotations, diagram.signs)]


def _integrate_beta(diagram: HeegaardDiagram, base: Sequence[int],
                    multiples: Sequence[int]) -> list[int]:
    """Region coefficients with D(z) = 0 that jump by base[arc] + multiples[j]
    across each arc of beta_j (left minus right), along ``_beta_walk``."""
    coeffs = [0] * diagram.n_regions
    for region, parent, arc, j, sign in _beta_walk(diagram)[0]:
        coeffs[region] = coeffs[parent] + sign * (base[arc] + multiples[j])
    return coeffs


def _domain_avoiding_z(diagram: HeegaardDiagram, x: Generator, y: Generator) -> Domain:
    """D0(x, y), a connecting domain with n_z = 0, for x, y in one class.

    Its boundary on the beta arcs is a base chain b plus n_j beta_j, where
    b is 1 on the beta_j arcs from y_j forward to x_j, so that db = x - y,
    the beta half of the corner system.  Integrating across beta arcs
    from D(z) = 0 is consistent exactly when every loop that crosses no
    alpha curve sees no total jump.  The surface cut along the alpha
    curves is planar, so those loops are generated by push-offs of the
    alpha curves.  A push-off of alpha_i on its left crosses only the beta
    arc left of alpha at each vertex v of alpha_i (rotation slot 1:
    beta-out at a positive vertex, beta-in at a negative one), from that
    arc's left to its right at a positive vertex and from right to left
    at a negative one, so it jumps by -sign(v) (b + n_beta(v)) there.
    Zero total is A n = r_alpha, with r_alpha,i = -sum over v in alpha_i
    of sign(v) b[beta-left(v)].  The push-off on the right differs from it
    by the sum of db over the vertices of alpha_i, which is 0, since x and
    y each have one vertex there.  The alpha half of the corner system
    follows from dd = 0.  n is ``_particular`` on U_A A V_A = S_A: unique
    when b1 = 0, and any particular solution when b1 > 0, so D0 is then one
    of many, all grading alike mod d.  A non-integral n, or a failed corner
    certificate, raises ``ConsistencyError``.
    """
    beta_out = _beta_walk(diagram)[1]
    x_on_beta = {diagram.beta_of[v]: v for v in x.vertices}
    base = [0] * diagram.n_arcs
    for v in y.vertices:
        end = x_on_beta[diagram.beta_of[v]]
        while v != end:
            base[beta_out[v]] = 1
            v = diagram.arcs[beta_out[v]].head
    r = [0] * diagram.genus
    for rot, i, sign in zip(diagram.rotations, diagram.alpha_of, diagram.signs):
        r[i] -= sign * base[rot[1] // 2]
    multiples = _particular(*_intersection_form(diagram), r)
    if multiples is None:
        raise ConsistencyError("D0 has no integral beta curve multiples for (x, y) in one class")
    coeffs = _integrate_beta(diagram, base, multiples)
    _check_connecting(diagram, x, y, coeffs)
    return Domain(diagram, x, y, tuple(coeffs))


def positive_representative(domain: Domain, radius: int = 8) -> Domain:
    """A lattice translate with all coefficients nonnegative.

    Searches integer combinations of the lattice basis with coordinates
    bounded by ``radius``, by increasing max-norm shells and then
    lexicographically, so the result is deterministic and small.  Since
    the all-ones vector lies in the lattice, a large enough radius always
    succeeds; failure raises ``NoPositiveRepresentative`` with the radius.
    A negative radius raises ``ValueError``.

    At rank 1 (b1 = 0) the basis is Sigma alone, so the search's first hit
    is D + t Sigma with t = max(0, -min D), taken in closed form: it lies
    in shell t, and no smaller shell has one.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    rank = len(domain.lattice)
    if rank == 1:
        t = max(0, -min(domain.coefficients))
        if t > radius:
            raise NoPositiveRepresentative(radius)
        return domain.translate((t,))
    for shell in range(radius + 1):
        for combo in itertools.product(range(-shell, shell + 1), repeat=rank):
            if max(map(abs, combo), default=0) == shell:
                candidate = domain.translate(combo)
                if all(c >= 0 for c in candidate.coefficients):
                    return candidate
    raise NoPositiveRepresentative(radius)


def _coeffs(diagram: HeegaardDiagram, domain) -> Sequence[int]:
    """The region coefficients of a domain, checked to have one per region."""
    coeffs = domain.coefficients if isinstance(domain, Domain) else domain
    if len(coeffs) != diagram.n_regions:
        raise DimensionMismatch(
            f"vector of length {len(coeffs)} against {diagram.n_regions} regions")
    return coeffs


# ---------------------------------------------------------------------------
# Measures and the index
# ---------------------------------------------------------------------------

@_per_diagram
def _base_weights(diagram: HeegaardDiagram) -> tuple[int, ...]:
    """4 e(D_k) per region: 4 chi(D_k) - corners(D_k)."""
    return tuple(4 * chi - c for chi, c in zip(diagram.region_chi, diagram.corner_counts))


def _quarter_weights(diagram: HeegaardDiagram, vertices: Sequence[int],
                     basepoint: int) -> list[int]:
    """Region weights w with w . D = 4 (e + n_vertices + basepoint n_z)(D).

    w_k = 4 chi(D_k) - corners(D_k), plus 1 per quadrant of D_k at each of
    ``vertices`` (with repetition), plus 4 ``basepoint`` if D_k holds z.
    """
    w = list(_base_weights(diagram))
    quadrants = diagram.quadrants
    for v in vertices:
        for r in quadrants[v]:
            w[r] += 1
    w[diagram.basepoint_region] += 4 * basepoint
    return w


def _dot(weights: Sequence[int], coeffs: Sequence[int]) -> int:
    return sum(w * a for w, a in zip(weights, coeffs) if a)


def _whole(quarters: int, what: str) -> int:
    """An index given in quarter units, as an integer (checked)."""
    value, rest = divmod(quarters, 4)
    if rest:
        raise ConsistencyError(f"non-integral {what} {Fraction(quarters, 4)}")
    return value


def euler_measure(diagram: HeegaardDiagram, domain) -> Fraction:
    """e(D) = sum a_k (chi(region k) - corners(region k)/4).

    Every corner of an elementary region is convex, so the concave term
    vanishes region by region.
    """
    return Fraction(_dot(_base_weights(diagram), _coeffs(diagram, domain)), 4)


def point_measure(diagram: HeegaardDiagram, domain, vertex: str | int) -> Fraction:
    """n_w(D): one quarter of the total multiplicity of the four quadrants at w.

    Raises ``KeyError`` for an unknown vertex name or an index outside
    ``range(diagram.n_vertices)``.
    """
    if not isinstance(vertex, int):
        vertex = diagram.vertex_id(vertex)
    elif not 0 <= vertex < diagram.n_vertices:
        raise KeyError(f"unknown vertex {vertex!r}")
    coeffs = _coeffs(diagram, domain)
    return Fraction(sum(coeffs[r] for r in diagram.quadrants[vertex]), 4)


def generator_measure(diagram: HeegaardDiagram, domain, gen: Generator) -> Fraction:
    """n_x(D): sum of the point measures at the generator's vertices."""
    return sum((point_measure(diagram, domain, v) for v in gen.vertices), Fraction(0))


def basepoint_multiplicity(diagram: HeegaardDiagram, domain) -> int:
    """n_z(D): the coefficient of the basepoint region."""
    return _coeffs(diagram, domain)[diagram.basepoint_region]


def _check_connecting(diagram: HeegaardDiagram, x: Generator, y: Generator, coeffs) -> None:
    """Certificate: the coefficients solve the corner system for (x, y)."""
    if _corner_image(diagram, coeffs) != _corner_rhs(diagram, x, y):
        raise ConsistencyError("domain does not satisfy the corner system for (x, y)")


def maslov_index(diagram: HeegaardDiagram, x: Generator, y: Generator, domain) -> int:
    """mu(A) = e(D) + n_x(D) + n_y(D); exact, and an integer for every
    domain satisfying the corner system (checked)."""
    coeffs = _coeffs(diagram, domain)
    _check_connecting(diagram, x, y, coeffs)
    weights = _quarter_weights(diagram, x.vertices + y.vertices, 0)
    return _whole(_dot(weights, coeffs), "Maslov index")


# ---------------------------------------------------------------------------
# Spin^c classes, divisibility, relative grading
# ---------------------------------------------------------------------------

class SpincClass(NamedTuple):
    """Equivalence class of generators under connecting domains."""

    index: int
    members: tuple[Generator, ...]
    anchor: Generator
    divisibility: int


@_per_diagram
def _periodic_domains(diagram: HeegaardDiagram) -> tuple[tuple[int, ...], ...]:
    """D0 with base chain 0 and beta multiples n, for each n in the basis
    of ker A: periodic domains with n_z = 0, none when b1 = 0."""
    zero = [0] * diagram.n_arcs
    return tuple(tuple(_integrate_beta(diagram, zero, n))
                 for n in _kernel(_intersection_form(diagram)[0]))


def divisibility(diagram: HeegaardDiagram, anchor: Generator) -> int:
    """gcd of mu(P) - 2 n_z(P) over the periodic lattice, evaluated at the
    anchor with x = y; 0 encodes an integer-valued relative grading.

    Four times it is the gcd of the quarter weights over a lattice basis.
    Sigma contributes mu = 2 and n_z = 1, hence 0; the rest is
    ``_periodic_domains`` (so none, and d = 0, when b1 = 0).
    """
    periodic = _periodic_domains(diagram)
    if not periodic:
        return 0
    weights = _quarter_weights(diagram, anchor.vertices * 2, -2)
    return _whole(gcd_over_lattice(periodic, weights), "grading value gcd")


def _anchor_key(diagram: HeegaardDiagram, g: Generator) -> tuple[str, ...]:
    return tuple(sorted(diagram.vertex_names[v] for v in g.vertices))


@_per_diagram
def spinc_partition(diagram: HeegaardDiagram) -> tuple[SpincClass, ...]:
    """Partition the generators into Spin^c classes.

    x and y share a class exactly when eps(x, y) = 0 in H1(Y) = Z^g /
    (columns of A), in alpha coordinates (``homology_of_Y``).  Walk each
    beta curve in listing order with a running vector c indexed by alpha;
    at vertex v, add sign(v) e_alpha(v) to c, record h(v) = c, then add it
    again.  So h(v) is twice the crossings before v plus the one at v: the
    endpoint of a beta arc counts half, the push-off average of the eps
    loop, and 2 eps(x, y) = h(y) - h(x) up to whole beta curves, with h(g)
    summed over g.  So the class test is h(y) - h(x) in 2 (columns of A):
    keys U_A h(g), entries i < rank reduced mod 2 d_i, are equal.  U_A h(v)
    is kept per vertex as its (row, value) items, and the key of g is their
    sum over the vertices of g in a dense list of length g, one entry per
    alpha curve.  Classes are numbered by first appearance in generator
    order, and members keep that order.  Each class gets a deterministic
    anchor (lexicographically minimal sorted vertex names; a class of one
    member is its own) and its divisibility.
    """
    smith, u_columns = _intersection_form(diagram)
    moduli = [2 * d for d in smith.invariants if d]
    alpha_of, signs = diagram.alpha_of, diagram.signs
    # c is kept as U_A c, so h is never formed.
    uh: list[tuple[tuple[int, int], ...]] = [()] * diagram.n_vertices
    for _, verts in diagram.beta:
        uc: dict[int, int] = {}
        for v in verts:
            column, sign = u_columns[alpha_of[v]].items(), signs[v]
            for r, a in column:
                uc[r] = uc.get(r, 0) + sign * a
            uh[v] = tuple(uc.items())
            for r, a in column:
                uc[r] += sign * a
    members: dict[tuple[int, ...], list[Generator]] = {}
    for g in enumerate_generators(diagram):
        image = [0] * diagram.genus
        for v in g.vertices:
            for r, x in uh[v]:
                image[r] += x
        for r, m in enumerate(moduli):
            image[r] %= m
        members.setdefault(tuple(image), []).append(g)
    classes = []
    for i, cls in enumerate(members.values()):
        anchor = cls[0] if len(cls) == 1 else min(cls, key=lambda g: _anchor_key(diagram, g))
        classes.append(SpincClass(i, tuple(cls), anchor, divisibility(diagram, anchor)))
    return tuple(classes)


@_per_diagram
def _class_of(diagram: HeegaardDiagram) -> dict[Generator, SpincClass]:
    return {g: cls for cls in spinc_partition(diagram) for g in cls.members}


def spinc_class_of(diagram: HeegaardDiagram, g: Generator) -> SpincClass:
    try:
        return _class_of(diagram)[g]
    except KeyError:
        raise _not_a_generator(g) from None


def relative_grading(diagram: HeegaardDiagram, x: Generator, y: Generator) -> int:
    """gr(x, y) = mu(A) - 2 n_z(A) for any connecting A, reduced mod d.

    Independent of the choice of A: two choices differ by a periodic
    class, whose grading value is a multiple of d by construction.  So it
    is P(x) - P(y) for the potentials of ``_potential``, read once per
    generator: D0(x, a) followed by D0(a, y) connects x to y, mu and n_z
    add under juxtaposition, and D0(a, y) grades -P(y) up to the periodic
    class D0(a, y) + D0(y, a).  Raises ``NoConnectingClassError`` when the
    classes differ.
    """
    cls = spinc_class_of(diagram, x)
    if cls.index != spinc_class_of(diagram, y).index:
        raise NoConnectingClassError(
            f"{x.display(diagram)} and {y.display(diagram)} lie in different Spin^c classes")
    value = _potential(diagram, x, cls.anchor) - _potential(diagram, y, cls.anchor)
    return value % cls.divisibility if cls.divisibility else value


@_per_diagram
def _potentials(diagram: HeegaardDiagram) -> dict[Generator, int]:
    """P(g) for each generator ``_potential`` has read so far."""
    return {}


def _potential(diagram: HeegaardDiagram, g: Generator, anchor: Generator) -> int:
    """P(g), the grading of D0(g, anchor) for the anchor of g's class; 0 at it.

    Built, and its D0 certified, the first time g is read, then kept in
    the diagram's cache: at most one int per generator.
    """
    if g == anchor:
        return 0
    memo = _potentials(diagram)
    value = memo.get(g)
    if value is None:
        value = memo[g] = _domain_grading(_domain_avoiding_z(diagram, g, anchor))
    return value


def _domain_grading(domain: Domain) -> int:
    """``relative_grading`` of a domain's endpoints, read off the solved domain."""
    diagram, x, y = domain.diagram, domain.source, domain.target
    weights = _quarter_weights(diagram, x.vertices + y.vertices, -2)
    value = _whole(_dot(weights, domain.coefficients), "grading value")
    d = spinc_class_of(diagram, x).divisibility
    return value % d if d else value


# ---------------------------------------------------------------------------
# Grading labels
# ---------------------------------------------------------------------------

class GradingLabel(NamedTuple):
    """Affine grading coordinate: offset relative to the class anchor.

    ``modulus`` 0 means integer-valued; otherwise the offset is a residue
    in [0, modulus).  ``level`` records the accumulated [x, i] shifts.
    """

    spinc: int
    offset: int
    modulus: int
    level: int = 0


@_per_diagram
def grading_table(diagram: HeegaardDiagram) -> tuple[tuple[Generator, GradingLabel], ...]:
    """Label every generator: (class id, grading offset relative to anchor).

    The offset of g is its potential P(g), the grading of D0(g, anchor),
    0 at the anchor with no domain built; ``relative_grading`` reads the
    same potentials, so label differences within a class realize it.
    """
    class_of = _class_of(diagram)
    rows = []
    for g in enumerate_generators(diagram):
        cls = class_of[g]
        rows.append((g, GradingLabel(cls.index, _potential(diagram, g, cls.anchor),
                                     cls.divisibility)))
    return tuple(rows)


@_per_diagram
def _labels(diagram: HeegaardDiagram) -> dict[Generator, GradingLabel]:
    return dict(grading_table(diagram))


def label_of(diagram: HeegaardDiagram, g: Generator) -> GradingLabel:
    try:
        return _labels(diagram)[g]
    except KeyError:
        raise _not_a_generator(g) from None


def shift_label(label: GradingLabel, i: int) -> GradingLabel:
    """The [x, i] action: the grading moves by 2 i (mod d when d > 0)."""
    off = label.offset + 2 * i
    if label.modulus:
        off %= label.modulus
    return label._replace(offset=off, level=label.level + i)


class _TwistedElement(NamedTuple):
    summands: tuple[tuple[tuple[int, ...], Generator], ...]


class TwistedElement(_TwistedElement):
    """Formal sum of group-ring multiples of generators.

    Each summand pairs an exponent vector over a fixed H^1 basis with a
    generator; the exponent is ignored by the grading.
    """

    __slots__ = ()

    def __new__(cls, summands):
        if not summands:
            raise ValueError("twisted element must have at least one summand")
        return super().__new__(cls, summands)


def twisted_label(diagram: HeegaardDiagram, element: TwistedElement) -> GradingLabel:
    """Grading of a twisted element: the common label of its generators.

    The twisting exponents are ignored.  Raises ``MixedLabelError`` when
    the summands are not homogeneous.
    """
    labels = {label_of(diagram, g) for _, g in element.summands}
    if len(labels) != 1:
        raise MixedLabelError(f"summands carry {len(labels)} distinct labels")
    return labels.pop()


# ---------------------------------------------------------------------------
# Q-grading shift arithmetic
# ---------------------------------------------------------------------------

def theta_and_shift(c1_squared, chi: int, sigma: int) -> tuple[Fraction, Fraction]:
    """theta = c1^2 - 2 chi - 3 sigma and the grading shift theta / 4.

    ``c1_squared`` is the self-pairing of (the Poincare dual of) the first
    Chern class of the almost-complex 4-manifold; chi and sigma are its
    Euler characteristic and signature.
    """
    theta = Fraction(c1_squared) - 2 * chi - 3 * sigma
    return theta, theta / 4


def gr0_of_theta(theta) -> Fraction:
    """Absolute Q-grading coordinate (2 + theta) / 4 of a torsion class."""
    return (2 + Fraction(theta)) / 4


# ---------------------------------------------------------------------------
# First homology of the underlying 3-manifold
# ---------------------------------------------------------------------------

class Homology(NamedTuple):
    b1: int
    torsion: tuple[int, ...]

    @property
    def order(self) -> int:
        """|H1|, or 0 when infinite."""
        if self.b1:
            return 0
        out = 1
        for t in self.torsion:
            out *= t
        return out


def _check_factorization(a_rows: Sequence[Sequence[tuple[int, int]]],
                         smith: SmithDecomposition) -> None:
    """Certificate: U_A (A V_A) is the Smith form S_A (A is square).

    A comes as rows of (column, value) terms.  Each row of A V_A, and then
    of U_A (A V_A) - S_A, is summed in one dense accumulator and read back
    only at the columns it touched, so the check costs the nonzero terms,
    not g^2.  A row of U_A (A V_A) - S_A passes when it is zero at those
    columns, which leaves the accumulator zero for the next row.
    """
    v_rows = _transpose(smith.v_columns, len(smith.v_columns))
    acc = [0] * len(smith.v_columns)
    av: list[list[tuple[int, int]]] = []
    for row in a_rows:
        touched: list[int] = []
        for k, a in row:
            touched += v_rows[k]
            for j, x in v_rows[k].items():
                acc[j] += a * x
        av.append([])
        for j in touched:
            if acc[j]:
                av[-1].append((j, acc[j]))
                acc[j] = 0
    for i, u_row in enumerate(smith.u_rows):
        acc[i] -= smith.invariants[i]
        for k, a in u_row.items():
            for j, x in av[k]:
                acc[j] += a * x
        zero = not acc[i]
        for k in u_row:
            for j, _ in av[k]:
                zero = zero and not acc[j]
        if not zero:
            raise ConsistencyError(f"U A V differs from the Smith form S in row {i}")


@_per_diagram
def _intersection_form(diagram: HeegaardDiagram) -> tuple[SmithDecomposition, list]:
    """A_ij = alpha_i . beta_j (a sum of crossing signs) as U_A A V_A = S_A,
    with the columns of U_A."""
    g = diagram.genus
    rows = [[0] * g for _ in range(g)]
    terms: list[list[tuple[int, int]]] = [[] for _ in range(g)]
    for i, j, sign in zip(diagram.alpha_of, diagram.beta_of, diagram.signs):
        rows[i][j] += sign
        terms[i].append((j, sign))
    smith = smith_normal_form(IntMatrix(tuple(map(tuple, rows)), g))
    _check_factorization(terms, smith)
    return smith, _transpose(smith.u_rows, g)


@_per_diagram
def homology_of_Y(diagram: HeegaardDiagram) -> Homology:
    """H1 of the 3-manifold: the cokernel of the g x g intersection matrix A.

    Every diagram comes from ``assemble_regions``, which checked that
    cutting along the alpha curves leaves the surface connected; with
    Euler characteristic 2 - 2g and 2g boundary circles the cut surface is
    then planar (so, too, no region of genus 1 or more assembles).  So the
    alpha classes extend to a symplectic basis of H1(surface), the
    quotient by them is Z^g by pairing with the alpha curves, and each
    beta curve maps to its column of A: H1(Y) = Z^g / (columns of A).  So
    eps is read in alpha coordinates modulo A's columns, not A^T's.  S_A,
    which ``spinc_partition`` reads too, gives b1 (g minus the nonzero
    invariant factors) and the torsion (the factors above 1).
    """
    nonzero = [d for d in _intersection_form(diagram)[0].invariants if d]
    return Homology(diagram.genus - len(nonzero), tuple(d for d in nonzero if d > 1))
