"""Hypothesis strategies shared by the test modules."""

from math import gcd

from hypothesis import strategies as st

from hfcalc.atlas import build_annulus_open_book, build_torus_diagram, stabilize
from hfcalc.diagram import assemble_regions, load_diagram, rename, serialize


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
