"""Shared fixtures: the benchmark diagrams used across the test modules."""

import pytest

from hfcalc.atlas import build_annulus_open_book, build_s1s2, build_torus_diagram
from hfcalc.diagram import load_diagram

S3_TEXT = """heegaard v1
genus: 1
alpha a0: x0+
beta  b0: x0
basepoint: a0 x0 left-after
"""

L31_TEXT = """heegaard v1
genus: 1
alpha a0: x0+ x1+ x2+
beta  b0: x0 x2 x1
basepoint: a0 x0 right-after
"""

# Same curves as the S1 x S2 diagram but with the other valid circle
# pairing: one class of two generators with divisibility 2 (a Spin^c
# structure with nontorsion first Chern class).
D2_TEXT = """heegaard v1
genus: 1
alpha a0: x0+ x1-
beta  b0: x0 x1
basepoint: a0 x1 left-after
region rA: genus=0 circles=a0.0+ a0.1-
"""

# An S1 x S2 diagram with two finger pairs: one class of four generators,
# rich in auxiliary corners.
TWO_FINGER_TEXT = """heegaard v1
genus: 1
alpha a0: x0+ x1- x2+ x3-
beta  b0: x0 x1 x2 x3
basepoint: a0 x3 left-after
region rA: genus=0 circles=a0.0- a0.1+
"""


def s1s2_plus_pairs_text(pairs: int) -> str:
    """S1 x S2 plus ``pairs`` one-vertex curve pairs: genus pairs + 1, two generators.

    Every pair a{i}: w{i}+ / b{i}: w{i} bounds one traced circle, and all of
    those circles join the two S1 x S2 circles in a single planar region.
    """
    lines = ["heegaard v1", f"genus: {pairs + 1}", "alpha a0: x0+ x1-"]
    lines += [f"alpha a{i}: w{i}+" for i in range(1, pairs + 1)]
    lines += ["beta  b0: x0 x1"] + [f"beta  b{i}: w{i}" for i in range(1, pairs + 1)]
    circles = ["a0.0-", "a0.1+"] + [f"a{i}.0+" for i in range(1, pairs + 1)]
    lines += ["basepoint: a0 x1 left-after", f"region r0: genus=0 circles={' '.join(circles)}"]
    return "\n".join(lines) + "\n"


def s1s2_sum_text(copies: int) -> str:
    """#^copies S1 x S2: genus ``copies``, b1 = copies, 2^copies generators.

    Copy i is the two-vertex S1 x S2 diagram on a{i} / b{i}; the boundary
    circles of all ``copies`` annuli are merged in one planar region.
    """
    lines = ["heegaard v1", f"genus: {copies}"]
    lines += [f"alpha a{i}: x{i}+ y{i}-" for i in range(copies)]
    lines += [f"beta  b{i}: x{i} y{i}" for i in range(copies)]
    circles = [c for i in range(copies) for c in (f"a{i}.0-", f"a{i}.1+")]
    lines += ["basepoint: a0 y0 left-after", f"region r0: genus=0 circles={' '.join(circles)}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def s3():
    return load_diagram(S3_TEXT)


@pytest.fixture(scope="session")
def l31():
    return load_diagram(L31_TEXT)


@pytest.fixture(scope="session")
def s1s2():
    return build_s1s2().diagram


@pytest.fixture(scope="session")
def d2_diagram():
    return load_diagram(D2_TEXT)


@pytest.fixture(scope="session")
def two_finger():
    return load_diagram(TWO_FINGER_TEXT)


@pytest.fixture(scope="session")
def atlas_suite():
    """The builder outputs exercised by the invariance and rank tests."""
    diagrams = [build_torus_diagram(p, 1).diagram for p in range(1, 6)]
    diagrams.append(build_s1s2().diagram)
    diagrams.extend(build_annulus_open_book(n).diagram for n in range(0, 4))
    return diagrams
