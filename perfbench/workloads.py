"""The benchmark's three workloads: inputs from a seed, one timed op, answer checks.

Every workload is a closed loop with one client.  Its inputs come in rounds
of fixed composition (only names, orders and seeded parameters change with
the seed and the round), so a run of whole rounds measures the same mix on
every seed.  A workload provides:

* ``setup(rep)`` -- the per-session preparation that ``setup_s`` times;
* ``round_ops(r)`` -- the inputs of round r, built outside the timed region;
* ``execute(op)`` -- the timed operation;
* ``check(op, result)`` -- raises ``WrongAnswer`` unless the answer is right;
* ``min_rounds``, ``setups`` (how many set-ups ``setup_s`` is the median of)
  and ``rss_of_children`` (whether memory is read from the child processes).

The library workloads call hfcalc through the package namespace ``hf`` so
that the spans of ``spans.installed`` see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

import hfcalc as hf

class WrongAnswer(Exception):
    """An operation returned an answer that fails its check."""


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _expect(what: str, got, want) -> None:
    if got != want:
        raise WrongAnswer(f"{what}: got {got!r}, want {want!r}")


def _renamed_text(diagram, rng: random.Random, tag: str) -> str:
    """Serialized diagram with every vertex and curve renamed.

    Curve names carry ``tag``, which the caller keeps unique, so no two
    texts of a run are equal; vertex names are random, which also changes
    where serialization starts each cycle and hence the generator order.
    """
    inp = diagram.input
    tokens = rng.sample(range(16 ** 6), len(inp.signs))
    vertex_map = {v: f"v{t:x}" for v, t in zip(sorted(inp.signs), tokens)}
    curve_map = {c: f"{c[0]}{tag}_{i}" for i, c in enumerate(inp.curve_names())}
    return hf.serialize(hf.assemble_regions(hf.rename(inp, vertex_map, curve_map)))


# ---------------------------------------------------------------------------
# grade-fresh: load + grading_table + homology_of_Y on never-seen diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradeOp:
    family: str          # "torus" or "openbook"
    size: int            # p of torus(p, q), n of openbook(n)
    text: str


class GradeFresh:
    """What ``hfcalc grade`` computes, without the JSON, on fresh diagrams.

    One round holds every lens space torus(p, q) with 6 <= p <= 16 and every
    annulus open book with 4 <= |n| <= 12, each stabilized 0, 1 and 2 times,
    with a seeded q coprime to p, seeded names and a seeded order.  The three
    stabilization levels space the op costs closely, so the median and the
    tail do not jump between widely spaced sizes from seed to seed.
    Each op loads a text no earlier op has seen, so neither the identity-keyed
    caches of ``grading`` nor any content-keyed cache can serve it.
    """

    name = "grade-fresh"
    min_rounds = 2
    setups = 9
    rss_of_children = False
    SHAPES = [(family, size, stab) for stab in range(3)
              for family, size in ([("torus", p) for p in range(6, 17)]
                                   + [("openbook", n) for n in range(-12, 13) if abs(n) >= 4])]

    def __init__(self, seed: int):
        self.seed = seed
        self._rounds: dict[int, list[GradeOp]] = {}

    def setup(self, rep: int) -> None:
        """Generate the inputs of the first ``min_rounds`` rounds."""
        self._rounds = {r: self._make_round(r) for r in range(self.min_rounds)}

    def round_ops(self, r: int) -> list[GradeOp]:
        if r not in self._rounds:
            self._rounds[r] = self._make_round(r)
        return self._rounds.pop(r)

    def _make_round(self, r: int) -> list[GradeOp]:
        rng = _rng(self.seed, self.name, r)
        ops = []
        for i, (family, size, stab) in enumerate(self.SHAPES):
            if family == "torus":
                q = rng.choice([q for q in range(1, size) if gcd(q, size) == 1])
                diagram = hf.build_torus_diagram(size, q).diagram
            else:
                diagram = hf.build_annulus_open_book(size).diagram
            for _ in range(stab):
                diagram = hf.stabilize(diagram)[0].diagram
            ops.append(GradeOp(family, size, _renamed_text(diagram, rng, f"{r}x{i}")))
        rng.shuffle(ops)
        return ops

    def execute(self, op: GradeOp):
        diagram = hf.load_diagram(op.text)
        return diagram, hf.grading_table(diagram), hf.homology_of_Y(diagram)

    def check(self, op: GradeOp, result) -> None:
        """Closed forms that do not depend on the code under test.

        torus(p, q): p generators, p classes, H1 = Z/p.  openbook(n): |n| + 2
        generators for n >= 0 and |n| for n < 0, |n| classes, H1 = Z/|n|.
        Stabilizing and renaming change none of these.  Each class's anchor
        (its member with the least sorted vertex names) has offset 0, and
        every offset lies in [0, modulus) when the modulus is nonzero.
        """
        diagram, table, homology = result
        n = op.size
        if op.family == "torus":
            gens = classes = order = n
        else:
            gens = abs(n) + 2 if n >= 0 else abs(n)
            classes = order = abs(n)
        _expect("generators", len(table), gens)
        _expect("classes", len({label.spinc for _, label in table}), classes)
        _expect("b1", homology.b1, 0)
        _expect("|H1|", homology.order, order)
        anchors = {}
        for g, label in table:
            key = sorted(diagram.vertex_names[v] for v in g.vertices)
            if label.spinc not in anchors or key < anchors[label.spinc][0]:
                anchors[label.spinc] = (key, label)
            if label.modulus and not 0 <= label.offset < label.modulus:
                raise WrongAnswer(f"offset {label.offset} outside [0, {label.modulus})")
        for key, label in anchors.values():
            _expect(f"anchor {','.join(key)} offset", label.offset, 0)


# ---------------------------------------------------------------------------
# audit-repeat: many queries against a few loaded diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditRef:
    """The k = 0 answer for one (diagram, x, y), computed once, untimed."""

    maslov: int
    basepoint: int
    layers: int
    modulus: int


@dataclass(frozen=True)
class AuditOp:
    diagram: object
    x: object
    y: object
    k: int
    ref: AuditRef


class AuditRepeat:
    """The long-lived session: one loaded diagram answers many queries.

    Set-up loads open books with 1 <= n <= 16, n = 18 and n = 20, plus
    ``build_s1s2()`` and open book 0 (lattice rank 2, so the shell search of
    ``positive_representative`` runs), and warms one ``relative_grading``
    per diagram, which pays for the Spin^c partition.  A round holds one
    query per diagram and k in 0..16, each with a seeded pair drawn from all
    same-class pairs of the diagram (x = y included); k adds
    k copies of the full-surface class to the positive representative, so
    it scales the number of layers audited.
    """

    name = "audit-repeat"
    min_rounds = 3
    setups = 3
    rss_of_children = False
    OPEN_BOOKS = tuple(range(0, 17)) + (18, 20)
    MAX_K = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.diagrams = []
        self._pool = None

    def _texts(self) -> list[str]:
        marked = [hf.build_s1s2()] + [hf.build_annulus_open_book(n) for n in self.OPEN_BOOKS]
        return [hf.serialize(m.diagram) for m in marked]

    def setup(self, rep: int) -> None:
        self.diagrams = [hf.load_diagram(text) for text in self._texts()]
        for d in self.diagrams:
            g = hf.enumerate_generators(d)[0]
            hf.relative_grading(d, g, g)
        self._pool = None

    def _query_pool(self):
        """Every same-class pair of each diagram with its k = 0 answer."""
        pool = []
        for d in self.diagrams:
            refs = []
            for modulus, x, y in [(cls.divisibility, x, y) for cls in hf.spinc_partition(d)
                                  for x in cls.members for y in cls.members]:
                pos = hf.positive_representative(hf.solve_domain(d, x, y))
                report = hf.audit_index(d, x, y, pos)
                refs.append((x, y, AuditRef(report.maslov, report.basepoint,
                                            len(report.layers), modulus)))
            pool.append((d, refs))
        return pool

    def round_ops(self, r: int) -> list[AuditOp]:
        if self._pool is None:
            self._pool = self._query_pool()
        rng = _rng(self.seed, self.name, r)
        ops = []
        for d, refs in self._pool:
            for k in range(self.MAX_K + 1):
                x, y, ref = rng.choice(refs)
                ops.append(AuditOp(d, x, y, k, ref))
        rng.shuffle(ops)
        return ops

    def execute(self, op: AuditOp):
        d, x, y = op.diagram, op.x, op.y
        domain = hf.solve_domain(d, x, y)
        grading = hf.relative_grading(d, x, y)
        pos = hf.positive_representative(domain)
        report = hf.audit_index(d, x, y, tuple(c + op.k for c in pos.coefficients))
        return grading, report

    def check(self, op: AuditOp, result) -> None:
        """Adding k copies of the surface class adds 2k to mu and k to n_z.

        mu(Sigma) = 2 and n_z(Sigma) = 1, so the Maslov index and the
        basepoint multiplicity are the k = 0 values plus 2k and plus k, the
        layer count grows by exactly k, the layer sum equals mu, and the
        relative grading is mu - 2 n_z reduced by the class modulus.
        """
        grading, report = result
        ref, k = op.ref, op.k
        _expect("maslov", report.maslov, ref.maslov + 2 * k)
        _expect("basepoint", report.basepoint, ref.basepoint + k)
        _expect("layer_sum", report.layer_sum, report.maslov)
        _expect("layers", len(report.layers), ref.layers + k)
        value = report.maslov - 2 * report.basepoint
        _expect("relative_grading", grading, value % ref.modulus if ref.modulus else value)


# ---------------------------------------------------------------------------
# cli-small: one `python -m hfcalc.cli --json ...` process per op
# ---------------------------------------------------------------------------

def child_env(src: Path, pycache: Path) -> dict:
    """Environment for CLI children: only the repo's src on the path.

    ``PYTHONDONTWRITEBYTECODE`` (and every other ``PYTHON*`` variable of the
    parent) is dropped and bytecode goes to a private ``PYTHONPYCACHEPREFIX``
    that set-up fills, so each child reads cached bytecode instead of
    recompiling hfcalc.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(pycache))
    return env


def run_child(argv: list[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + argv, env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=60, check=False)


def warm_bytecode(env: dict, cwd: Path) -> None:
    """Compile hfcalc and the stdlib modules it needs into the private cache."""
    for argv in (["-c", "import hfcalc.cli"],
                 ["-m", "hfcalc.cli", "--json", "shift", "--c1sq", "0", "--chi", "2",
                  "--sigma", "0"]):
        proc = run_child(argv, env, cwd)
        if proc.returncode:
            raise RuntimeError(f"bytecode warm-up {argv} failed: {proc.stderr.strip()}")


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    expected: dict


def _subset_mismatch(expected, actual, path="$"):
    """First path where ``actual`` disagrees with ``expected``, or None."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return path
        for key, value in expected.items():
            if key not in actual:
                return f"{path}.{key}"
            bad = _subset_mismatch(value, actual[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    return None if expected == actual else path


class CliSmall:
    """The per-file cost users pay from scripts, with negligible grading work.

    Set-up writes four small atlas files (at most 6 generators): a lens space
    torus(p, q) with 3 <= p <= 6, s1s2, an open book with 0 <= n <= 4 and one
    with -6 <= n <= -3, parameters seeded.  It compiles bytecode into a
    private cache and computes every expected answer with the library.  A
    round runs validate, info, generators, spinc, grade, domain --positive,
    audit and stabilize -o on each file, plus one atlas and one shift op per
    file, in a seeded order.
    """

    name = "cli-small"
    min_rounds = 4
    setups = 9
    rss_of_children = True
    FILE_COMMANDS = ("validate", "info", "generators", "spinc", "grade", "domain",
                     "audit", "stabilize")

    def __init__(self, seed: int, work: Path, src: Path, in_process: bool = False):
        self.seed = seed
        self.work = work
        self.src = src
        self.in_process = in_process
        self.json_bytes = 0
        self.ops: list[CliOp] = []
        self.env = None

    def setup(self, rep: int) -> None:
        rep_dir = self.work / f"setup{rep}"
        rep_dir.mkdir(parents=True)
        self.env = child_env(self.src, rep_dir / "pycache")
        warm_bytecode(self.env, rep_dir)
        rng = _rng(self.seed, self.name, "files")
        p = rng.randint(3, 6)
        q = rng.choice([q for q in range(1, p) if gcd(q, p) == 1])
        builders = [(["torus", str(p), str(q)], hf.build_torus_diagram(p, q)),
                    (["s1s2"], hf.build_s1s2())]
        for n in (rng.randint(0, 4), rng.randint(-6, -3)):
            builders.append((["openbook-annulus", str(n)], hf.build_annulus_open_book(n)))
        ops = []
        for i, (atlas_args, marked) in enumerate(builders):
            path = rep_dir / f"d{i}.hd"
            path.write_text(hf.serialize(marked.diagram), encoding="utf-8")
            diagram = hf.load_diagram(path.read_text(encoding="utf-8"))
            out = str(rep_dir / f"out{i}.hd")
            for command in self.FILE_COMMANDS:
                ops.append(self._file_op(command, str(path), diagram, out, rng))
            ops.append(CliOp(("atlas", *atlas_args, "-o", out), {
                "diagram": _digest(marked.diagram),
                "payload": {"provenance": marked.provenance, "contact_generator": (
                    marked.contact_generator.display(marked.diagram)
                    if marked.contact_generator else None)}}))
            c1sq = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
            chi, sigma = rng.randint(-4, 4), rng.randint(-4, 4)
            theta, shift = hf.theta_and_shift(c1sq, chi, sigma)
            ops.append(CliOp(
                ("shift", f"--c1sq={c1sq}", f"--chi={chi}", f"--sigma={sigma}"),
                {"diagram": None, "payload": {"theta": str(theta), "shift": str(shift),
                                              "gr0_of_theta": str(hf.gr0_of_theta(theta))}}))
        self.ops = ops

    def _file_op(self, command, path, d, out, rng) -> CliOp:
        expected = {"diagram": _digest(d)}
        argv = [command, path]
        if command == "validate":
            payload = {"valid": True}
        elif command == "info":
            payload = {"lattice_rank": len(hf.homogeneous_lattice(d)),
                       "basepoint_region": d.canonical_region_name(d.basepoint_region)}
        elif command == "generators":
            gens = [g.display(d) for g in hf.enumerate_generators(d)]
            payload = {"count": len(gens), "generators": gens}
        elif command == "spinc":
            payload = {"classes": [{"index": c.index,
                                    "members": [g.display(d) for g in c.members],
                                    "anchor": c.anchor.display(d),
                                    "divisibility": c.divisibility}
                                   for c in hf.spinc_partition(d)]}
        elif command == "grade":
            payload = {"table": [{"generator": g.display(d), "class": lab.spinc,
                                  "offset": lab.offset, "modulus": lab.modulus}
                                 for g, lab in hf.grading_table(d)]}
        elif command == "stabilize":
            st, corr = hf.stabilize(d)
            argv += ["-o", out]
            payload = {"genus": st.diagram.genus,
                       "correspondence": {g.display(d): h.display(st.diagram)
                                          for g, h in corr.items()}}
        else:  # domain --positive / audit on a seeded same-class pair
            largest = max(hf.spinc_partition(d), key=lambda c: len(c.members))
            x, y = rng.choice([(x, y) for x in largest.members for y in largest.members
                               if x != y or len(largest.members) == 1])
            argv += [x.display(d), y.display(d)]
            dom = hf.solve_domain(d, x, y)
            pos = hf.positive_representative(dom)
            if command == "domain":
                argv.append("--positive")
                payload = {"connecting": True,
                           "maslov": hf.maslov_index(d, x, y, dom),
                           "relative_grading": hf.relative_grading(d, x, y),
                           "positive": {"maslov": hf.maslov_index(d, x, y, pos),
                                        "n_z": hf.basepoint_multiplicity(d, pos)}}
            else:
                report = hf.audit_index(d, x, y, pos)
                payload = {"connecting": True, "maslov": report.maslov,
                           "basepoint_multiplicity": report.basepoint,
                           "layer_sum": str(report.layer_sum)}
        expected["payload"] = payload
        return CliOp(tuple(argv), expected)

    def round_ops(self, r: int) -> list[CliOp]:
        ops = list(self.ops)
        _rng(self.seed, self.name, r).shuffle(ops)
        return ops

    def execute(self, op: CliOp):
        argv = ["--json", *op.argv]
        if self.in_process:
            out = io.StringIO()
            import hfcalc.cli
            with contextlib.redirect_stdout(out):
                code = hfcalc.cli.main(argv)
            stdout = out.getvalue()
        else:
            proc = run_child(["-m", "hfcalc.cli"] + argv, self.env, self.work)
            code, stdout = proc.returncode, proc.stdout
        self.json_bytes += len(stdout.encode())
        return code, stdout

    def check(self, op: CliOp, result) -> None:
        """Exit code 0, status ok, and the payload the library computed."""
        code, stdout = result
        _expect("exit code", code, 0)
        try:
            report = json.loads(stdout)
        except ValueError:
            raise WrongAnswer(f"stdout is not one JSON document: {stdout[:200]!r}") from None
        _expect("status", report.get("status"), "ok")
        bad = _subset_mismatch(op.expected, report)
        if bad:
            raise WrongAnswer(f"{' '.join(op.argv)}: output differs from the library at {bad}")


def _digest(d) -> dict:
    h = hf.homology_of_Y(d)
    return {"genus": d.genus, "vertices": d.n_vertices, "arcs": d.n_arcs,
            "regions": d.n_regions, "homology": {"b1": h.b1, "torsion": list(h.torsion)}}


def peak_rss_mb(children: bool) -> float:
    """Peak resident set size of this process, or of its largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
