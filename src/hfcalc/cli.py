"""Command-line front end.

Subcommands::

    hfcalc validate FILE
    hfcalc info FILE
    hfcalc generators FILE
    hfcalc spinc FILE
    hfcalc grade FILE
    hfcalc domain FILE X Y [--positive]
    hfcalc audit FILE X Y
    hfcalc stabilize FILE -o OUT
    hfcalc atlas torus P Q -o OUT
    hfcalc atlas s1s2 -o OUT
    hfcalc atlas openbook-annulus N -o OUT
    hfcalc shift --c1sq R --chi N --sigma N
    hfcalc selftest

Global flags: ``--json`` (emit one JSON document on stdout), ``--radius``
(positive-representative search bound), ``--seed`` (selftest RNG).  They
belong to the top-level parser, so they go before the command:
``hfcalc --json --radius 3 audit FILE X Y``.  A run parses in two stages:
the top-level parser reads these flags and the command name, and hands
every argument after the command to that command's own parser, which
names itself in its usage errors (``hfcalc audit: error: ...``).  So the
flags after the command are usage errors.

Generators are named on the command line by comma-joined vertex names
(order-insensitive; output order follows the alpha-curve index).  Exit
codes: 0 on success (including the "no connecting class" answer, which
is a valid result, not a failure), 1 on file or diagram errors (a file
that cannot be read or is not UTF-8 included), 2 on
usage errors (a bad ``atlas torus`` pair, ``--c1sq`` value or a negative
``--radius`` included, each for any command),
3 on an internal inconsistency (a ``ConsistencyError`` or ``AuditError``:
an exact identity failed, which is a bug in hfcalc, not in the input).
Identical inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import atlas as atlas_mod
from .diagram import (DiagramError, HeegaardDiagram, ParseError, assemble_regions,
                      load_diagram, reverse_curve, serialize)
from .grading import (ConsistencyError, Generator, NoConnectingClassError,
                      NoPositiveRepresentative, _domain_avoiding_z, _fraction,
                      basepoint_multiplicity, enumerate_generators, euler_measure,
                      generator_measure, gr0_of_theta, grading_table, homology_of_Y,
                      maslov_index, positive_representative, relative_grading,
                      solve_domain, spinc_class_of, spinc_partition, theta_and_shift)
from .layers import AuditReport, audit_index


class _UsageError(Exception):
    """A command-line argument out of range or malformed (exit code 2)."""


def _digest(diagram: HeegaardDiagram) -> dict:
    h = homology_of_Y(diagram)
    return {
        "genus": diagram.genus,
        "vertices": diagram.n_vertices,
        "arcs": diagram.n_arcs,
        "regions": diagram.n_regions,
        "homology": {"b1": h.b1, "torsion": list(h.torsion)},
    }


def _load(path: str) -> HeegaardDiagram:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:  # the bad byte's line, numbered as parse_diagram does
        line = len((data[:e.start].decode("utf-8") + "_").splitlines())
        raise ParseError(f"not UTF-8: cannot decode byte 0x{data[e.start]:02x}", line) from None
    return load_diagram(text)


def _write(diagram: HeegaardDiagram, path: str) -> None:
    text = serialize(diagram)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _coeff_map(diagram: HeegaardDiagram, coeffs) -> dict:
    return {diagram.canonical_region_name(i): c for i, c in enumerate(coeffs)}


# ---------------------------------------------------------------------------
# Subcommand payloads
# ---------------------------------------------------------------------------

def _cmd_validate(diagram, args):
    return {"valid": True}, []


def _cmd_info(diagram, args):
    regions = []
    for r in diagram.regions:
        regions.append({
            "name": diagram.canonical_region_name(r.index),
            "label": r.label,
            "genus": r.genus,
            "circles": [diagram.face_names[f] for f in r.faces],
            "corners": diagram.corner_counts[r.index],
            "chi": r.chi,
        })
    payload = {
        "regions": regions,
        "basepoint_region": diagram.canonical_region_name(diagram.basepoint_region),
        "circles": list(diagram.face_names),
        # The periodic domains are H2(Y) plus the surface class.
        "lattice_rank": 1 + homology_of_Y(diagram).b1,
    }
    lines = [f"basepoint region: {payload['basepoint_region']}",
             f"periodic lattice rank: {payload['lattice_rank']}"]
    for r in regions:
        lines.append(f"region {r['name']} (label {r['label']}): genus {r['genus']}, "
                     f"{len(r['circles'])} circles, {r['corners']} corners, chi {r['chi']}")
    return payload, lines


def _cmd_generators(diagram, args):
    gens = [g.display(diagram) for g in enumerate_generators(diagram)]
    return {"count": len(gens), "generators": gens}, [f"{len(gens)} generators"] + gens


def _class_payload(diagram):
    out = []
    for cls in spinc_partition(diagram):
        out.append({
            "index": cls.index,
            "members": [g.display(diagram) for g in cls.members],
            "anchor": cls.anchor.display(diagram),
            "divisibility": cls.divisibility,
        })
    return out


def _cmd_spinc(diagram, args):
    classes = _class_payload(diagram)
    lines = [f"{len(classes)} Spin^c classes"]
    for c in classes:
        lines.append(f"class {c['index']}: d={c['divisibility']} anchor={c['anchor']} "
                     f"members={','.join(c['members'])}")
    return {"classes": classes}, lines


def _cmd_grade(diagram, args):
    classes = _class_payload(diagram)
    table = []
    lines = [f"{len(classes)} Spin^c classes"]
    for g, label in grading_table(diagram):
        table.append({
            "generator": g.display(diagram),
            "class": label.spinc,
            "offset": label.offset,
            "modulus": label.modulus,
        })
        mod = f" mod {label.modulus}" if label.modulus else ""
        lines.append(f"{g.display(diagram)}: class {label.spinc} offset {label.offset}{mod}")
    return {"classes": classes, "table": table}, lines


def _domain_measurements(diagram, x, y, dom):
    return {
        "coefficients": _coeff_map(diagram, dom.coefficients),
        "euler_measure": str(euler_measure(diagram, dom)),
        "n_x": str(generator_measure(diagram, dom, x)),
        "n_y": str(generator_measure(diagram, dom, y)),
        "n_z": basepoint_multiplicity(diagram, dom),
        "maslov": maslov_index(diagram, x, y, dom),
    }


def _resolve_pair(diagram, args):
    """The generators named by ``args.x`` and ``args.y``, and their domain or None."""
    try:
        x = Generator.from_display(diagram, args.x)
        y = Generator.from_display(diagram, args.y)
    except KeyError as e:
        raise DiagramError(str(e)) from None
    return x, y, solve_domain(diagram, x, y)


def _no_connecting_class():
    return ({"connecting": False, "note": "no connecting class: the generators "
                                          "lie in different Spin^c classes"},
            ["no connecting class (distinct Spin^c classes)"])


def _cmd_domain(diagram, args):
    x, y, dom = _resolve_pair(diagram, args)
    if dom is None:
        return _no_connecting_class()
    payload = {"connecting": True, "lattice_rank": len(dom.lattice)}
    payload.update(_domain_measurements(diagram, x, y, dom))
    # gr(x, y) is mu - 2 n_z of this domain, mod the class divisibility m.
    m = spinc_class_of(diagram, x).divisibility
    grading = payload["maslov"] - 2 * payload["n_z"]
    payload["relative_grading"] = grading % m if m else grading
    lines = [f"coefficients: {payload['coefficients']}",
             f"e = {payload['euler_measure']}, n_x = {payload['n_x']}, "
             f"n_y = {payload['n_y']}, n_z = {payload['n_z']}",
             f"maslov index = {payload['maslov']}",
             f"relative grading = {payload['relative_grading']}"]
    if args.positive:
        pos = positive_representative(dom, args.radius)
        payload["positive"] = _domain_measurements(diagram, x, y, pos)
        payload["positive"]["radius"] = args.radius
        lines.append(f"positive representative: {payload['positive']['coefficients']}")
    return payload, lines


def _audit_payload(report: AuditReport) -> dict:
    return {
        "maslov": report.maslov,
        "layer_sum": str(report.layer_sum),
        "basepoint_multiplicity": report.basepoint,
        "n_x_minus_n_y": str(report.n_x_minus_n_y),
        "boundary_intersection": str(report.boundary_intersection),
        "single_layer_identity": report.single_layer_identity,
        "layers": [{
            "level": l.level,
            "chi": l.chi,
            "convex": l.convex,
            "concave": l.concave,
            "boundary_degenerate": l.boundary_degenerate,
            "interior_degenerate": l.interior_degenerate,
            "auxiliary_signed": l.auxiliary_signed,
            "index": str(l.index),
        } for l in report.layers],
        "identities": {"layer_sum_equals_maslov": True,
                       "n_x_minus_n_y_equals_boundary_intersection": True},
    }


def _cmd_audit(diagram, args):
    x, y, dom = _resolve_pair(diagram, args)
    if dom is None:
        return _no_connecting_class()
    pos = positive_representative(dom, args.radius)
    report = audit_index(diagram, x, y, pos)
    payload = {"connecting": True,
               "domain": _coeff_map(diagram, pos.coefficients)}
    payload.update(_audit_payload(report))
    lines = [f"domain: {payload['domain']}",
             f"maslov = {report.maslov}, layer sum = {report.layer_sum}"]
    for l in report.layers:
        lines.append(f"layer {l.level}: chi={l.chi} convex={l.convex} concave={l.concave} "
                     f"bdeg={l.boundary_degenerate} ideg={l.interior_degenerate} "
                     f"aux={l.auxiliary_signed:+d} index={l.index}")
    lines.append(f"boundary: n_x - n_y = {report.n_x_minus_n_y} "
                 f"= d_alpha D . d_beta D = {report.boundary_intersection}")
    return payload, lines


def _cmd_stabilize(diagram, args):
    marked, corr = atlas_mod.stabilize(diagram)
    _write(marked.diagram, args.output)
    payload = {
        "output": args.output,
        "genus": marked.diagram.genus,
        "correspondence": {g.display(diagram): ng.display(marked.diagram)
                           for g, ng in corr.items()},
    }
    return payload, [f"wrote genus-{marked.diagram.genus} diagram to {args.output}"]


def _cmd_atlas(args, report):
    if args.builder == "torus":
        try:
            marked = atlas_mod.build_torus_diagram(args.p, args.q)
        except ValueError as e:
            raise _UsageError(f"atlas torus: {e}") from None
    elif args.builder == "s1s2":
        marked = atlas_mod.build_s1s2()
    else:
        marked = atlas_mod.build_annulus_open_book(args.n)
    _write(marked.diagram, args.output)
    report["diagram"] = _digest(marked.diagram)
    payload = {
        "output": args.output,
        "provenance": marked.provenance,
        "contact_generator": (marked.contact_generator.display(marked.diagram)
                              if marked.contact_generator else None),
    }
    lines = [f"wrote {marked.provenance} to {args.output}"]
    if payload["contact_generator"]:
        lines.append(f"contact generator: {payload['contact_generator']}")
    return payload, lines


def _cmd_shift(args, report):
    # Fraction would expand exponent notation: "1e99999999" is an integer of
    # a hundred million digits, built before any check can see its size.
    if "e" in args.c1sq.lower():
        raise _UsageError(f"--c1sq takes an integer or a rational like 3/4, "
                          f"not exponent notation: {args.c1sq!r}")
    try:
        theta, shift = theta_and_shift(_fraction()(args.c1sq), args.chi, args.sigma)
    except (ValueError, ZeroDivisionError) as exc:
        # Fraction parses the literal first, then converts its digits, so a
        # well-formed number past the interpreter's limit on integer-from-string
        # conversion fails here with that conversion's own message.
        if "integer string conversion" in str(exc):
            raise _UsageError(f"--c1sq has a number past Python's "
                              f"{sys.get_int_max_str_digits()}-digit limit for "
                              f"converting strings to integers") from None
        raise _UsageError(f"--c1sq is not a rational number: {args.c1sq!r}") from None
    try:
        payload = {"theta": str(theta), "shift": str(shift),
                   "gr0_of_theta": str(gr0_of_theta(theta))}
    except ValueError:  # beyond Python's limit on integer-to-string conversion
        raise _UsageError("shift: the result has too many digits to print") from None
    lines = [f"theta = {payload['theta']}",
             f"shift = {payload['shift']}",
             f"gr0(theta) = {payload['gr0_of_theta']}"]
    return payload, lines


# ---------------------------------------------------------------------------
# Randomized self-test
# ---------------------------------------------------------------------------

def _same_class_pairs(suite):
    """Each (name, diagram, class, x, y) with x and y in one Spin^c class, in suite order."""
    for name, d in suite:
        for cls in spinc_partition(d):
            for x in cls.members:
                for y in cls.members:
                    yield name, d, cls, x, y


def _grading_or_none(d, x, y):
    try:
        return relative_grading(d, x, y)
    except NoConnectingClassError:
        return None


def _graded(d, dom):
    """mu - 2 n_z of a domain, through the public measures."""
    return (maslov_index(d, dom.source, dom.target, dom)
            - 2 * basepoint_multiplicity(d, dom))


def _case(name, d, *gens):
    return {"diagram": name, "generators": [g.display(d) for g in gens]}


def _selftest(args, report):
    """Run each check's cases in order; a check stops at its first failing
    case, which it names, and counts the cases that passed before it."""
    rng = random.Random(args.seed)
    suite = [(m.provenance, m.diagram) for m in (atlas_mod.build_torus_diagram(3, 1),
                                                 atlas_mod.build_torus_diagram(4, 1),
                                                 atlas_mod.build_s1s2(),
                                                 atlas_mod.build_annulus_open_book(0),
                                                 atlas_mod.build_annulus_open_book(2))]

    # Each check yields (case, passed) per case.
    def grading_ambiguity():
        for name, d, cls, x, y in _same_class_pairs(suite):
            dom = solve_domain(d, x, y)
            base_val = _graded(d, dom)
            for _ in range(8):
                other = dom.translate([rng.randint(-3, 3) for _ in dom.lattice])
                diff = _graded(d, other) - base_val
                yield (_case(name, d, x, y),
                       diff % cls.divisibility == 0 if cls.divisibility else diff == 0)

    def additivity():
        # relative_grading is a difference of potentials, so the sums are
        # checked against the gradings of solve_domain and of D0 for (x, z).
        for name, d, cls, x, y in _same_class_pairs(suite):
            for z in cls.members:
                rhs = relative_grading(d, x, y) + relative_grading(d, y, z)
                m = cls.divisibility
                yield _case(name, d, x, y, z), all(
                    (lhs - rhs) % m == 0 if m else lhs == rhs
                    for lhs in (_graded(d, solve_domain(d, x, z)),
                                _graded(d, _domain_avoiding_z(d, x, z))))

    def layer_identities():
        # audit_index raises AuditError itself when an identity fails.
        for name, d in suite:
            gens = enumerate_generators(d)
            for x in gens:
                for y in gens:
                    dom = solve_domain(d, x, y)
                    if dom is None:
                        continue
                    for _ in range(6):
                        steps = [rng.randint(-3, 3) for _ in dom.lattice]
                        cand = dom.translate(steps)
                        if any(c < 0 for c in cand.coefficients):
                            continue
                        audit_index(d, x, y, cand)
                        yield _case(name, d, x, y), True

    def stabilization():
        for name, d in suite[:3]:
            st, corr = atlas_mod.stabilize(d)
            for x in enumerate_generators(d):
                for y in enumerate_generators(d):
                    yield _case(name, d, x, y), (_grading_or_none(d, x, y)
                                                 == _grading_or_none(st.diagram, corr[x], corr[y]))

    def reversal():
        for name, d in suite[:3]:
            for curve in d.input.curve_names():
                rev = assemble_regions(reverse_curve(d.input, curve))
                a = sorted((len(c.members), c.divisibility) for c in spinc_partition(d))
                b = sorted((len(c.members), c.divisibility) for c in spinc_partition(rev))
                yield {"diagram": name, "curve": curve}, a == b

    checks, lines = [], []
    for name, fn in [("grading-ambiguity", grading_ambiguity),
                     ("grading-additivity", additivity),
                     ("layer-identities", layer_identities),
                     ("stabilization-invariance", stabilization),
                     ("orientation-reversal", reversal)]:
        check = {"name": name, "cases": 0, "passed": True}
        for case, ok in fn():
            if not ok:
                check.update(passed=False, failure=case)
                break
            check["cases"] += 1
        checks.append(check)
        if check["passed"]:
            lines.append(f"{name}: pass ({check['cases']} cases)")
        else:
            where = (f"curve {case['curve']}" if "curve" in case
                     else "generators " + " -> ".join(case["generators"]))
            lines.append(f"{name}: FAIL after {check['cases']} passed cases, "
                         f"at {case['diagram']} {where}")
    all_passed = all(c["passed"] for c in checks)
    lines.append("all passed" if all_passed else "FAILURES PRESENT")
    if not all_passed:
        report.update(status="error", exit_status=1, error={"message": "selftest failures"})
    return {"seed": args.seed, "checks": checks, "all_passed": all_passed}, lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command ``name``'s own arguments, built once per process
    on first use; it parses what the top-level parser left after the command."""
    p = argparse.ArgumentParser(prog=f"hfcalc {name}")
    if name in ("domain", "audit"):
        for arg in ("file", "x", "y"):
            p.add_argument(arg)
        if name == "domain":
            p.add_argument("--positive", action="store_true",
                           help="also compute a nonnegative representative")
    elif name == "atlas":
        asub = p.add_subparsers(dest="builder", required=True)
        t = asub.add_parser("torus")
        t.add_argument("p", type=int)
        t.add_argument("q", type=int)
        t.add_argument("-o", "--output", required=True)
        s = asub.add_parser("s1s2")
        s.add_argument("-o", "--output", required=True)
        o = asub.add_parser("openbook-annulus")
        o.add_argument("n", type=int)
        o.add_argument("-o", "--output", required=True)
    elif name == "shift":
        p.add_argument("--c1sq", required=True,
                       help="self-pairing of PD c1 (integer or rational like 3/4)")
        p.add_argument("--chi", type=int, required=True)
        p.add_argument("--sigma", type=int, required=True)
    elif name != "selftest":
        p.add_argument("file")
        if name == "stabilize":
            p.add_argument("-o", "--output", required=True)
    return p


def _on_file(command):
    """Run ``command(diagram, args)`` on ``args.file``, recording the diagram's digest."""
    def handler(args, report):
        diagram = _load(args.file)
        report["diagram"] = _digest(diagram)
        return command(diagram, args)
    return handler


# handler(args, report) -> (payload, text lines); it may also fill in the report.
_COMMANDS = {
    "validate": _on_file(_cmd_validate),
    "info": _on_file(_cmd_info),
    "generators": _on_file(_cmd_generators),
    "spinc": _on_file(_cmd_spinc),
    "grade": _on_file(_cmd_grade),
    "domain": _on_file(_cmd_domain),
    "audit": _on_file(_cmd_audit),
    "stabilize": _on_file(_cmd_stabilize),
    "atlas": _cmd_atlas,
    "shift": _cmd_shift,
    "selftest": _selftest,
}

# The top-level options and the command; everything after the command is
# left, unparsed, to that command's own parser.
_PARSER = argparse.ArgumentParser(prog="hfcalc",
                                  description="Exact calculator for gradings of "
                                              "Heegaard-diagram generators")
_PARSER.add_argument("--json", action="store_true", help="emit a single JSON document")
_PARSER.add_argument("--radius", type=int, default=8,
                     help="search radius for positive representatives (default 8)")
_PARSER.add_argument("--seed", type=int, default=0, help="selftest RNG seed")
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("arguments", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)


def _parse_args(argv) -> argparse.Namespace:
    """Parse the top-level options and the command, then hand the arguments
    after the command to that command's parser, into the same namespace."""
    args = _PARSER.parse_args(argv)
    return _command_parser(args.command).parse_args(vars(args).pop("arguments"), namespace=args)


def _emit(args, report: dict, lines: list[str]) -> int:
    """Write the output; return the exit status, or 1 with nothing on stderr
    when the reader closed stdout (then devnull, so the exit flush passes)."""
    try:
        if args.json:
            print(json.dumps(report, sort_keys=True, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return report["exit_status"]


def _fail(args, report: dict, code: int, error: dict, text: str) -> int:
    """End with an error: the JSON document under --json, else ``text`` on stderr."""
    report.update(status="error", exit_status=code, error=error)
    if args.json:
        return _emit(args, report, [])
    print(text, file=sys.stderr)
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    report = {"command": list(argv), "diagram": None, "payload": None,
              "status": "ok", "exit_status": 0}
    try:
        if args.radius < 0:
            raise _UsageError(f"--radius must be nonnegative, got {args.radius}")
        report["payload"], lines = _COMMANDS[args.command](args, report)
    except _UsageError as e:
        return _fail(args, report, 2, {"message": str(e)}, f"hfcalc: error: {e}")
    except NoPositiveRepresentative as e:
        return _fail(args, report, 1, {"message": str(e), "radius": e.radius}, f"error: {e}")
    except ConsistencyError as e:
        return _fail(args, report, 3, {"message": str(e), "kind": type(e).__name__},
                     f"internal error ({type(e).__name__}): {e}")
    except (DiagramError, OSError) as e:
        return _fail(args, report, 1, {"message": str(e), "line": getattr(e, "line", None)},
                     f"error: {e}")
    return _emit(args, report, lines)


if __name__ == "__main__":
    sys.exit(main())
