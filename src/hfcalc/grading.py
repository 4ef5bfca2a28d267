"""Generators, connecting domains, Spin^c classes, and gradings.

A generator picks one intersection point on each alpha and each beta
curve.  By Ozsvath--Szabo, two generators x and y lie in one Spin^c
class exactly when eps(x, y), the loop along the alpha curves from x to
y and back along the beta curves, vanishes in H1(Y) = Z^g / (columns of
A), A_ij = alpha_i . beta_j, in coordinates indexed by alpha
(``homology_of_Y`` says why); then, and only then, a 2-chain of regions
connects them, whose boundary runs along the alpha curves from x to y
and back along the beta curves (the corner system, one equation in the
four quadrant multiplicities at each vertex).  Pushed off
their curves, the alpha pieces cross no alpha curve, and averaging the
push-offs to either side weighs each endpoint of a beta piece by one
half (``spinc_partition``).  So the classes and H1 share one
factorization of A, and so does every grading value at every b1: D0
(``_domain_avoiding_z``) and the periodic domains behind the divisibility
are integrated across the beta arcs.  Each generator g has a potential
P(g), the grading of D0(g, a) for the anchor a of its class, and
gr(x, y) = P(x) - P(y): gradings add when domains are juxtaposed, and a
periodic class changes P by a multiple of d.  The connecting domain of
``solve_domain`` is D0(x, a) - D0(y, a), certified by linearity: each D0
is certified when it is built, and the corner system is linear, so the
difference solves it for (x, y).  The periodic lattice is
Sigma plus those periodic domains, so A is the one matrix factored per
diagram; its transforms stay sparse (U by rows and by columns, V by
columns), and the factorization is certified column by column against
A's own columns.  The corner system is never factored or built as a
matrix: it only certifies domains, vertex by vertex
(``_check_connecting``, and the audit's one vertex pass in ``layers``).
The generators, the factorization, the partition, the periodic lattice,
a (D0, potential) record per queried generator, the grading table and H1
are cached on the diagram itself, so each is computed once per diagram
and lives as long as the diagram does.

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
from functools import cache, wraps
from operator import mul, sub
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .diagram import HeegaardDiagram
from .zlattice import (DimensionMismatch, SmithDecomposition, _apply, _kernel, _particular,
                       _smith, _transpose, gcd_over_lattice)

if TYPE_CHECKING:
    from fractions import Fraction


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


# ---------------------------------------------------------------------------
# Per-diagram state
# ---------------------------------------------------------------------------

_MISSING = object()


def _per_diagram(fn):
    """Memoize ``fn(diagram)`` in the diagram's own cache.

    The cache is a dict on the diagram, so a cached value lives exactly as
    long as its diagram does.  A miss is a sentinel, not an exception, and
    a falsy value such as ``()`` is cached like any other.
    """
    @wraps(fn)
    def cached(diagram: HeegaardDiagram):
        value = diagram._cache.get(fn, _MISSING)
        if value is _MISSING:
            value = diagram._cache[fn] = fn(diagram)
        return value

    return cached


@cache
def _fraction() -> type[Fraction]:
    """``fractions.Fraction``, imported on first use: a process that makes
    no Fraction (``hfcalc grade``, for one) never loads ``fractions``."""
    from fractions import Fraction
    return Fraction


def _not_a_generator(g) -> KeyError:
    return KeyError(f"{g} is not a generator of this diagram")


def _off_the_corner_system() -> ConsistencyError:
    return ConsistencyError("domain does not satisfy the corner system for (x, y)")


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
def homogeneous_lattice(diagram: HeegaardDiagram) -> tuple[tuple[int, ...], ...]:
    """Basis of the lattice of periodic classes (kernel of the corner system).

    The kernel does not depend on the generator pair.  The basis is Sigma
    (the class of the full surface, all ones) first, then, for each n in
    the basis of ker A, D0 with base chain 0 and beta multiples n: the
    periodic domains with n_z = 0, none when b1 = 0.  It spans: a periodic
    P minus n_z(P) Sigma has n_z = 0, and its boundary on the beta arcs is
    a cycle, so whole beta curves n; integrating across the beta arcs from
    D(z) = 0 rebuilds it, which is consistent only when A n = 0
    (``_domain_avoiding_z`` with base chain 0), and integration is linear
    in n.  It is a basis: Sigma is the one vector with n_z != 0, and a
    nonzero n jumps across some beta arc.  This memo is the one copy of the
    periodic lattice; ``divisibility`` reads it past Sigma.
    """
    zero = [0] * diagram.n_arcs
    return ((1,) * diagram.n_regions,) + tuple(
        tuple(_integrate_beta(diagram, zero, n)) for n in _kernel(_intersection_form(diagram)[0]))


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
        coeffs = _combine(self.coefficients, basis, steps)
        return Domain(self.diagram, self.source, self.target, tuple(coeffs))


def _combine(coeffs: Sequence[int], basis: Sequence[Sequence[int]],
             steps: Sequence[int]) -> Sequence[int]:
    """coeffs plus sum of steps[i] basis[i]: the one combination step."""
    for s, vec in zip(steps, basis):
        if s:
            coeffs = [c + s * v for c, v in zip(coeffs, vec)]
    return coeffs


def solve_domain(diagram: HeegaardDiagram, x: Generator, y: Generator) -> Domain | None:
    """A connecting domain from x to y, or None when none exists.

    None means the generators lie in different Spin^c classes; it is a
    valid mathematical answer, not an error.  Otherwise the domain is
    D0(x, a) - D0(y, a) for the anchor a of their class: D0(x, a) connects
    x to a and -D0(y, a) connects a to y, so it has n_z = 0, and when
    b1 = 0 it is D0(x, y), the one domain with n_z = 0.  Each D0(g, a) is
    built, and certified, once per diagram (``_pair_records``), and the
    difference needs no certificate of its own: the corner system
    M D = r(y) - r(x) is linear, M D0(x, a) = r(a) - r(x) and M D0(y, a) =
    r(a) - r(y), so M (D0(x, a) - D0(y, a)) = r(y) - r(x), the system for
    (x, y).  A pair in one class without a D0 raises ``ConsistencyError``.
    The returned domain carries access to the homogeneous lattice through
    ``Domain.lattice``.
    """
    cls, other = _classes_of_pair(diagram, x, y)
    if cls.index != other.index:
        return None
    dx, dy = _record(diagram, x, cls)[0], _record(diagram, y, cls)[0]
    # Made by tuple.__new__, as namedtuple's _make does: Domain's own
    # __new__ would parse its arguments each time.
    return tuple.__new__(Domain, (diagram, x, y, tuple(map(sub, dx, dy))))


def _classes_of_pair(diagram: HeegaardDiagram, x: Generator,
                     y: Generator) -> tuple[SpincClass, SpincClass]:
    """The classes of x and y, from one read of ``_class_of``."""
    class_of = _class_of(diagram)
    try:
        return class_of[x], class_of[y]
    except KeyError as e:
        raise _not_a_generator(e.args[0]) from None


@_per_diagram
def _pair_records(diagram: HeegaardDiagram) -> dict[Generator, tuple[tuple[int, ...], int]]:
    """(D0(g, a), P(g)) for each generator g that a one-generator or pair
    query has read so far (``_record``), a the anchor of g's class; the one
    per-generator memo, which ``grading_table`` reads and does not fill."""
    return {}


def _record(diagram: HeegaardDiagram, g: Generator, cls: SpincClass) -> tuple[tuple[int, ...], int]:
    """g's record in ``_pair_records``, ``cls`` its class; built when first read."""
    memo = _pair_records(diagram)
    return memo.get(g) or memo.setdefault(g, _anchor_record(diagram, g, cls))


def _anchor_record(diagram: HeegaardDiagram, g: Generator,
                   cls: SpincClass) -> tuple[tuple[int, ...], int]:
    """D0(g, a) for the anchor a of g's class ``cls``, certified when it is
    built, and the potential P(g), the grading mu - 2 n_z of D0 reduced mod
    the class divisibility; the zero vector and 0 at a."""
    if g == cls.anchor:
        return (0,) * diagram.n_regions, 0
    coeffs = _domain_avoiding_z(diagram, g, cls.anchor).coefficients
    weights = _quarter_weights(diagram, g.vertices + cls.anchor.vertices, -2)
    value = _whole(_dot(weights, coeffs), "grading value")
    return coeffs, value % cls.divisibility if cls.divisibility else value


@_per_diagram
def _beta_walk(diagram: HeegaardDiagram):
    """Breadth-first from the basepoint region across the beta arcs (they reach
    every region: assembly checks it), as (region, parent, arc, j, sign) with
    D(region) = D(parent) + sign (value on this arc of beta_j); and, per vertex,
    the beta arc leaving it and the next vertex along its beta curve."""
    nv = diagram.n_vertices
    arc_sides = diagram.arc_sides
    adjacent: list[list[tuple[int, int, int, int]]] = [[] for _ in range(diagram.n_regions)]
    beta_out, beta_next = [0] * nv, [0] * nv
    arc = nv  # the beta arcs follow the alpha arcs, each curve in listing order
    for j, (_, verts) in enumerate(diagram.beta):
        for tail, head in zip(verts, verts[1:] + verts[:1]):
            beta_out[tail], beta_next[tail] = arc, head
            left, right = arc_sides[arc]
            adjacent[right].append((left, arc, j, 1))
            adjacent[left].append((right, arc, j, -1))
            arc += 1
    reached, queue, order = {diagram.basepoint_region}, [diagram.basepoint_region], []
    for parent in queue:
        for region, arc, j, sign in adjacent[parent]:
            if region not in reached:
                reached.add(region)
                queue.append(region)
                order.append((region, parent, arc, j, sign))
    return order, beta_out, beta_next


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
    _, beta_out, beta_next = _beta_walk(diagram)
    x_on_beta = {diagram.beta_of[v]: v for v in x.vertices}
    base = [0] * diagram.n_arcs
    for v in y.vertices:
        end = x_on_beta[diagram.beta_of[v]]
        while v != end:
            base[beta_out[v]] = 1
            v = beta_next[v]
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
    basis, coeffs = domain.lattice, domain.coefficients
    rank = len(basis)
    if rank == 1:
        t = max(0, -min(coeffs))
        if t > radius:
            raise NoPositiveRepresentative(radius)
        return _with_coefficients(domain, tuple([c + t for c in coeffs]) if t else tuple(coeffs))
    # Only the hit becomes a Domain; a rejected candidate is a list.
    for shell in range(radius + 1):
        for combo in itertools.product(range(-shell, shell + 1), repeat=rank):
            if max(map(abs, combo), default=0) == shell:
                candidate = _combine(coeffs, basis, combo)
                if min(candidate) >= 0:
                    return _with_coefficients(domain, tuple(candidate))
    raise NoPositiveRepresentative(radius)


def _with_coefficients(domain: Domain, coeffs: tuple[int, ...]) -> Domain:
    """The domain with the same ends and ``coeffs``, made by tuple.__new__
    (``_replace`` is a Python-level ``_make``)."""
    return tuple.__new__(Domain, (domain.diagram, domain.source, domain.target, coeffs))


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
    return sum(map(mul, weights, coeffs))


def _whole(quarters: int, what: str) -> int:
    """An index given in quarter units, as an integer (checked)."""
    value, rest = divmod(quarters, 4)
    if rest:
        raise ConsistencyError(f"non-integral {what} {_fraction()(quarters, 4)}")
    return value


def euler_measure(diagram: HeegaardDiagram, domain) -> Fraction:
    """e(D) = sum a_k (chi(region k) - corners(region k)/4).

    Every corner of an elementary region is convex, so the concave term
    vanishes region by region.
    """
    return _fraction()(_dot(_base_weights(diagram), _coeffs(diagram, domain)), 4)


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
    return _fraction()(sum(coeffs[r] for r in diagram.quadrants[vertex]), 4)


def generator_measure(diagram: HeegaardDiagram, domain, gen: Generator) -> Fraction:
    """n_x(D): sum of the point measures at the generator's vertices, one
    quarter of the multiplicities of all their quadrants.

    Raises ``KeyError`` for a vertex outside ``range(diagram.n_vertices)``.
    """
    coeffs, quadrants = _coeffs(diagram, domain), diagram.quadrants
    quarters = 0
    for v in gen.vertices:
        if not 0 <= v < diagram.n_vertices:
            raise KeyError(f"unknown vertex {v!r}")
        quarters += sum(coeffs[r] for r in quadrants[v])
    return _fraction()(quarters, 4)


def basepoint_multiplicity(diagram: HeegaardDiagram, domain) -> int:
    """n_z(D): the coefficient of the basepoint region."""
    return _coeffs(diagram, domain)[diagram.basepoint_region]


def _check_connecting(diagram: HeegaardDiagram, x: Generator, y: Generator, coeffs) -> None:
    """Certificate: the coefficients solve the corner system for (x, y).

    The corner system is M D = r(y) - r(x).  M has an alpha and a beta row
    per vertex: the boundary, head minus tail, of the 1-chain with the jump
    D(left) - D(right) on each alpha (beta) arc.  r(g) is +1 on the alpha
    row and -1 on the beta row of each vertex of g.  Both rows of a vertex
    v read only its quadrant multiplicities m0..m3: by the rotation
    convention of ``diagram``, the jump is m0 - m3 on the alpha arc leaving
    v and m1 - m2 on the alpha arc entering it, so the alpha row is
    -(m0 - m1 + m2 - m3).  The beta arcs leave and enter in slots 1 and 3,
    in either order by the sign of v, and the beta row is +(m0 - m1 + m2 -
    m3) at either sign.  So the two rows of v are the one equation
    m0 - m1 + m2 - m3 = [v in x] - [v in y], checked here at every vertex.
    """
    expected = [0] * diagram.n_vertices
    for v in x.vertices:
        expected[v] += 1
    for v in y.vertices:
        expected[v] -= 1
    if [coeffs[q0] - coeffs[q1] + coeffs[q2] - coeffs[q3]
            for q0, q1, q2, q3 in diagram.quadrants] != expected:
        raise _off_the_corner_system()


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


def divisibility(diagram: HeegaardDiagram, anchor: Generator) -> int:
    """gcd of mu(P) - 2 n_z(P) over the periodic lattice, evaluated at the
    anchor with x = y; 0 encodes an integer-valued relative grading.

    Four times it is the gcd of the quarter weights over a lattice basis.
    Sigma contributes mu = 2 and n_z = 1, hence 0; the rest is
    ``homogeneous_lattice`` past Sigma (so none, and d = 0, when b1 = 0).
    """
    periodic = homogeneous_lattice(diagram)[1:]
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
    periodic = len(homogeneous_lattice(diagram)) > 1  # Sigma alone when b1 = 0: every d is 0
    classes = []
    for i, cls in enumerate(members.values()):
        anchor = cls[0] if len(cls) == 1 else min(cls, key=lambda g: _anchor_key(diagram, g))
        classes.append(SpincClass(i, tuple(cls), anchor,
                                  divisibility(diagram, anchor) if periodic else 0))
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
    is P(x) - P(y) for the potentials that ``solve_domain``'s records
    (``_record``) keep beside their D0, built once per generator:
    D0(x, a) followed by D0(a, y) connects x to y, mu and n_z add under
    juxtaposition, and D0(a, y) grades -P(y) up to the periodic class
    D0(a, y) + D0(y, a).  Raises ``NoConnectingClassError`` when the
    classes differ.
    """
    cls, other = _classes_of_pair(diagram, x, y)
    if cls.index != other.index:
        raise NoConnectingClassError(
            f"{x.display(diagram)} and {y.display(diagram)} lie in different Spin^c classes")
    value = _record(diagram, x, cls)[1] - _record(diagram, y, cls)[1]
    return value % cls.divisibility if cls.divisibility else value


# ---------------------------------------------------------------------------
# Grading labels
# ---------------------------------------------------------------------------

class GradingLabel(NamedTuple):
    """Affine grading coordinate: offset relative to the class anchor.

    ``modulus`` 0 means integer-valued; otherwise the offset is a residue
    in [0, modulus).
    """

    spinc: int
    offset: int
    modulus: int


@_per_diagram
def grading_table(diagram: HeegaardDiagram) -> tuple[tuple[Generator, GradingLabel], ...]:
    """Label every generator: (class id, grading offset relative to anchor).

    The offset of g is its potential P(g), the grading of D0(g, anchor),
    0 at the anchor with no domain built; ``relative_grading`` reads the
    same potentials, so label differences within a class realize it.
    P(g) is read from g's record when a query has built one; otherwise D0
    is built for P and dropped, so the table keeps no D0 per generator.
    The labels are made class by class; the rows are in generator order.
    """
    records, labels = _pair_records(diagram), {}
    for cls in spinc_partition(diagram):
        for g in cls.members:
            offset = 0 if g == cls.anchor else (
                records.get(g) or _anchor_record(diagram, g, cls))[1]
            labels[g] = GradingLabel(cls.index, offset, cls.divisibility)
    return tuple((g, labels[g]) for g in enumerate_generators(diagram))


def label_of(diagram: HeegaardDiagram, g: Generator) -> GradingLabel:
    """The row of ``grading_table`` for g, read from g's record (``_record``):
    it builds at most one D0, and none at an anchor.  To label every
    generator, use ``grading_table``, which keeps no D0."""
    cls = spinc_class_of(diagram, g)
    return GradingLabel(cls.index, _record(diagram, g, cls)[1], cls.divisibility)


# ---------------------------------------------------------------------------
# Q-grading shift arithmetic
# ---------------------------------------------------------------------------

def theta_and_shift(c1_squared, chi: int, sigma: int) -> tuple[Fraction, Fraction]:
    """theta = c1^2 - 2 chi - 3 sigma and the grading shift theta / 4.

    ``c1_squared`` is the self-pairing of (the Poincare dual of) the first
    Chern class of the almost-complex 4-manifold; chi and sigma are its
    Euler characteristic and signature.
    """
    theta = _fraction()(c1_squared) - 2 * chi - 3 * sigma
    return theta, theta / 4


def gr0_of_theta(theta) -> Fraction:
    """Absolute Q-grading coordinate (2 + theta) / 4 of a torsion class."""
    return (2 + _fraction()(theta)) / 4


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


def _check_factorization(a_columns: Sequence[dict[int, int]], smith: SmithDecomposition,
                         u_columns: Sequence[dict[int, int]]) -> None:
    """Certificate: U_A A V_A is the Smith form S_A (A is square).

    Column j of U_A A V_A is U_A (A v_j) for column v_j of V_A, two sparse
    products (``_apply``) over the nonzero terms, so the check costs the
    nonzero terms, not g^2; minus d_j at j, it must be zero.
    """
    for j, v in enumerate(smith.v_columns):
        uav = _apply(u_columns, _apply(a_columns, v.items()).items())
        uav[j] = uav.get(j, 0) - smith.invariants[j]
        if any(uav.values()):
            raise ConsistencyError(f"U A V differs from the Smith form S in column {j}")


@_per_diagram
def _intersection_form(diagram: HeegaardDiagram) -> tuple[SmithDecomposition, list]:
    """A_ij = alpha_i . beta_j (a sum of crossing signs) as U_A A V_A = S_A,
    with the columns of U_A.  A is summed once, as sparse columns; their
    transpose, A's rows, is factored (``_smith`` drops the zero sums), and
    the factorization is certified against the columns
    (``_check_factorization``); ``homogeneous_lattice`` reads ker A off V_A."""
    g = diagram.genus
    columns: list[dict[int, int]] = [{} for _ in range(g)]
    for i, j, sign in zip(diagram.alpha_of, diagram.beta_of, diagram.signs):
        columns[j][i] = columns[j].get(i, 0) + sign
    smith = _smith(_transpose(columns, g), g)
    u_columns = _transpose(smith.u_rows, g)
    _check_factorization(columns, smith, u_columns)
    return smith, u_columns


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
