"""Inputs shared by the test modules: hypothesis strategies and seeded random curve systems."""

from collections import Counter
from math import gcd

from hypothesis import strategies as st

from hfcalc.atlas import build_annulus_open_book, build_torus_diagram, stabilize
from hfcalc.diagram import (SIDES, RegionDirective, ValidationError, assemble_regions,
                            load_diagram, parse_diagram, rename, serialize, trace_faces)


@st.composite
def transformed_diagrams(draw):
    """torus(p, q) or an annulus open book, then stabilize/rename steps.

    Renaming goes through serialization and reloading, so it also changes
    where each cycle starts and hence the generator order.
    """
    if draw(st.booleans()):
        p = draw(st.integers(min_value=1, max_value=7))
        q = draw(st.sampled_from([q for q in range(1, p) if gcd(p, q) == 1] or [0]))
        d = build_torus_diagram(p, q).diagram
    else:
        d = build_annulus_open_book(draw(st.integers(min_value=-6, max_value=6))).diagram
    for step in draw(st.lists(st.sampled_from(["stabilize", "rename"]), max_size=3)):
        if step == "stabilize":
            d = stabilize(d)[0].diagram
        else:
            names = sorted(d.input.signs)
            fresh = draw(st.permutations([f"v{i}" for i in range(len(names))]))
            curves = {c: f"{c[0]}r{i}" for i, c in enumerate(d.input.curve_names())}
            renamed = assemble_regions(rename(d.input, dict(zip(names, fresh)), curves))
            d = load_diagram(serialize(renamed))
    return d


def mirror(inp):
    """The curve system of -Y: alpha and beta swapped, every crossing sign negated."""
    return inp._replace(alpha=inp.beta, beta=inp.alpha,
                        signs={v: -s for v, s in inp.signs.items()})


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


def _assembled_or_none(rng):
    try:
        return assemble_regions(random_curve_system(rng))
    except ValidationError:
        return None


def assembled_curve_systems(rng, draws):
    """The diagrams that assemble among ``draws`` draws of ``random_curve_system``."""
    for _ in range(draws):
        d = _assembled_or_none(rng)
        if d is not None:
            yield d


def curve_systems():
    """``random_curve_system`` driven by hypothesis, kept when it assembles.

    ``st.randoms(use_true_random=False)`` makes every draw of the generator
    a choice that hypothesis records, so a failing diagram shrinks with its
    draws: the genus and the vertex count toward their least values.
    """
    return (st.randoms(use_true_random=False).map(_assembled_or_none)
            .filter(lambda d: d is not None))


MUTATIONS = ("drop", "repeat", "move", "shuffle", "flip", "basepoint", "directive")

# Circle ids that do not read CURVE.POS+ or CURVE.POS- with POS in decimal
# digits and no leading zero, as dart names write it.
MALFORMED_CIRCLE_IDS = ("foo", "a0.x+", "a0.01+")


def _listed(draw, curves, past_the_end=0):
    """A drawn (curve index, position) in the listings ``curves``; with
    ``past_the_end`` the position may also be the listing's length."""
    j = draw(st.integers(min_value=0, max_value=len(curves) - 1))
    last = max(len(curves[j][1]) - 1 + past_the_end, 0)
    return j, draw(st.integers(min_value=0, max_value=last))


def _with_listing(curves, j, verts):
    return curves[:j] + ((curves[j][0], tuple(verts)),) + curves[j + 1:]


@st.composite
def mutated_inputs(draw, bases):
    """An assembled input from ``bases`` (a strategy of ``CurveSystemInput``s)
    after one to three structural mutations.

    A vertex is dropped from one listing, repeated in a listing of its
    family, or moved within its family; a listing is shuffled; a crossing
    sign is flipped; the basepoint locator is redrawn from the input's
    names; or a region directive gets an unknown, another or a malformed
    (``MALFORMED_CIRCLE_IDS``) circle id, a new genus, or ``auto`` (one is
    added when the input has none).
    """
    inp = draw(bases)
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        if kind in ("drop", "repeat", "move", "shuffle"):
            family = draw(st.sampled_from(("alpha", "beta")))
            curves = getattr(inp, family)
            j, pos = _listed(draw, curves)
            verts = list(curves[j][1])
            if not verts:
                continue
            if kind == "shuffle":
                curves = _with_listing(curves, j, draw(st.permutations(verts)))
            else:
                v = verts[pos] if kind == "repeat" else verts.pop(pos)
                curves = _with_listing(curves, j, verts)
                if kind != "drop":
                    k, at = _listed(draw, curves, past_the_end=1)
                    curves = _with_listing(curves, k, curves[k][1][:at] + (v,) + curves[k][1][at:])
            inp = inp._replace(**{family: curves})
        elif kind == "flip":
            v = draw(st.sampled_from(sorted(inp.signs)))
            inp = inp._replace(signs={**inp.signs, v: -inp.signs[v]})
        elif kind == "basepoint":
            inp = inp._replace(basepoint=(draw(st.sampled_from(inp.curve_names())),
                                          draw(st.sampled_from(sorted(inp.signs))),
                                          draw(st.sampled_from(SIDES))))
        else:
            directives = list(inp.directives) or [RegionDirective("r0", 0, ())]
            i = draw(st.integers(min_value=0, max_value=len(directives) - 1))
            d = directives[i]
            cid = draw(st.sampled_from(inp.curve_names())) + "." + str(
                draw(st.integers(min_value=0, max_value=4))) + draw(st.sampled_from("+-"))
            cid = draw(st.sampled_from((cid,) + MALFORMED_CIRCLE_IDS))
            directives[i] = draw(st.sampled_from([
                d._replace(circles=(d.circles or ()) + (cid,)),
                d._replace(circles=(cid,) + (d.circles or ())[1:]),
                d._replace(genus=draw(st.integers(min_value=-1, max_value=2))),
                d._replace(circles=None)]))
            inp = inp._replace(directives=tuple(directives))
    return inp


def lists_each_vertex_once(inp) -> bool:
    """Whether the alpha listings name each of their vertices once and the
    beta listings name exactly those vertices, each once."""
    on_alpha = Counter(v for _, verts in inp.alpha for v in verts)
    on_beta = Counter(v for _, verts in inp.beta for v in verts)
    return set(on_alpha.values()) <= {1} and on_beta == on_alpha
