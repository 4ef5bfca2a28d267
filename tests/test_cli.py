"""CLI surface: subcommands, exit codes, structured output."""

import argparse
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hfcalc
from hfcalc.cli import main
from hfcalc.diagram import assemble_regions, load_diagram, reverse_curve, serialize
from hfcalc.grading import Domain, enumerate_generators, spinc_partition

from conftest import L31_TEXT, S3_TEXT, s1s2_plus_pairs_text

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def l31_file(tmp_path):
    p = tmp_path / "l31.hd"
    p.write_text(L31_TEXT)
    return str(p)


@pytest.fixture()
def s1s2_file(tmp_path, capsys):
    p = tmp_path / "s1s2.hd"
    assert main(["atlas", "s1s2", "-o", str(p)]) == 0
    capsys.readouterr()
    return str(p)


def run_json(capsys, argv):
    code = main(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_shift_arithmetic(capsys):
    code, rep, _ = run_json(capsys, ["shift", "--c1sq", "0", "--chi", "2", "--sigma", "0"])
    assert code == 0
    assert rep["payload"]["theta"] == "-4"
    assert rep["payload"]["shift"] == "-1"


def test_shift_normalization(capsys):
    # theta = -2 for the 4-ball: c1^2 = 0, chi = 1, sigma = 0.
    code, rep, _ = run_json(capsys, ["shift", "--c1sq", "0", "--chi", "1", "--sigma", "0"])
    assert code == 0
    assert rep["payload"]["theta"] == "-2"
    assert rep["payload"]["gr0_of_theta"] == "0"


def test_validate_and_info(capsys, l31_file):
    assert main(["validate", l31_file]) == 0
    code, rep, _ = run_json(capsys, ["info", l31_file])
    assert code == 0
    assert rep["diagram"]["vertices"] == 3
    assert rep["diagram"]["homology"] == {"b1": 0, "torsion": [3]}
    assert rep["payload"]["lattice_rank"] == 1


def test_grade_l31(capsys, l31_file):
    code, rep, _ = run_json(capsys, ["grade", l31_file])
    assert code == 0
    table = rep["payload"]["table"]
    assert len(table) == 3
    assert sorted(r["class"] for r in table) == [0, 1, 2]
    assert all(r["offset"] == 0 for r in table)
    assert len(rep["payload"]["classes"]) == 3


def test_generators_and_spinc(capsys, l31_file):
    code, rep, _ = run_json(capsys, ["generators", l31_file])
    assert code == 0
    assert rep["payload"]["generators"] == ["x0", "x1", "x2"]
    code, rep, _ = run_json(capsys, ["spinc", l31_file])
    assert [c["divisibility"] for c in rep["payload"]["classes"]] == [0, 0, 0]


def test_domain_no_connecting_class_is_success(capsys, l31_file):
    code, rep, _ = run_json(capsys, ["domain", l31_file, "x0", "x1"])
    assert code == 0
    assert rep["status"] == "ok"
    assert rep["payload"]["connecting"] is False


def test_domain_bigon(capsys, s1s2_file):
    code, rep, _ = run_json(capsys, ["domain", s1s2_file, "x0", "x1", "--positive"])
    assert code == 0
    p = rep["payload"]
    assert p["connecting"] is True
    assert p["relative_grading"] == 1
    assert p["positive"]["maslov"] == 1
    assert p["positive"]["euler_measure"] == "1/2"
    assert p["positive"]["n_x"] == "1/4"
    assert p["positive"]["n_z"] == 0


def test_domain_solves_its_pair_once(capsys, monkeypatch, s1s2_file):
    import hfcalc.cli as cli_mod
    import hfcalc.grading as grading_mod

    calls = []

    def counting(solve):
        def wrapped(*args):
            calls.append(args[1:])
            return solve(*args)
        return wrapped

    monkeypatch.setattr(cli_mod, "solve_domain", counting(grading_mod.solve_domain))
    monkeypatch.setattr(grading_mod, "solve_domain", counting(grading_mod.solve_domain))
    code, rep, _ = run_json(capsys, ["domain", s1s2_file, "x0", "x1", "--positive"])
    assert code == 0
    assert rep["payload"]["relative_grading"] == 1
    assert len(calls) == 1


def test_audit_command(capsys, s1s2_file):
    code, rep, _ = run_json(capsys, ["audit", s1s2_file, "x0", "x1"])
    assert code == 0
    p = rep["payload"]
    assert p["maslov"] == 1
    assert p["layer_sum"] == "1"
    assert p["n_x_minus_n_y"] == p["boundary_intersection"]
    assert p["identities"] == {"layer_sum_equals_maslov": True,
                               "n_x_minus_n_y_equals_boundary_intersection": True}


def test_atlas_and_stabilize_round_trip(capsys, tmp_path):
    out = tmp_path / "t.hd"
    assert main(["atlas", "torus", "3", "1", "-o", str(out)]) == 0
    capsys.readouterr()
    stab = tmp_path / "t_stab.hd"
    code, rep, _ = run_json(capsys, ["stabilize", str(out), "-o", str(stab)])
    assert code == 0
    assert rep["payload"]["genus"] == 2
    assert rep["payload"]["correspondence"]["x0"] == "x0,w"
    assert main(["validate", str(stab)]) == 0


def test_openbook_atlas(capsys, tmp_path):
    out = tmp_path / "ob.hd"
    code, rep, _ = run_json(capsys, ["atlas", "openbook-annulus", "2", "-o", str(out)])
    assert code == 0
    assert rep["payload"]["contact_generator"] == "x0"
    assert rep["diagram"]["homology"] == {"b1": 0, "torsion": [2]}


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.hd"
    bad.write_text("heegaard v1\ngenus: 1\nalpha a0: x0\nbeta b0: x0\nbasepoint: a0 x0 left-after\n")
    code = main(["validate", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 3" in err


def test_parse_error_json_payload(tmp_path, capsys):
    bad = tmp_path / "bad.hd"
    bad.write_text("nonsense\n")
    code, rep, _ = run_json(capsys, ["validate", str(bad)])
    assert code == 1
    assert rep["status"] == "error"
    assert rep["error"]["line"] == 1


# Files that once escaped as tracebacks: bytes that are not UTF-8, and
# superscript digits that str.isdigit accepts but int() rejects.
HOSTILE_FILES = {
    "not-utf8": (b"heegaard v1\n\xff\n", 2, "not UTF-8: cannot decode byte 0xff"),
    "not-utf8-after-crlf": (b"heegaard v1\r\ngenus: 1\r\n# caf\xe9\n", 3,
                            "not UTF-8: cannot decode byte 0xe9"),
    "genus-superscript": ("heegaard v1\ngenus: \u00b2\n".encode(), 2,
                          "genus must be a nonnegative integer, got '\u00b2'"),
    "region-genus-superscript": ((S3_TEXT + "region r: genus=\u00b9 circles=auto\n").encode(), 6,
                                 "region genus must be a nonnegative integer, got '\u00b9'"),
}
if getattr(sys, "get_int_max_str_digits", lambda: 0)():
    HOSTILE_FILES["genus-past-the-digit-limit"] = (
        b"heegaard v1\ngenus: " + b"9" * 5000 + b"\n", 2,
        f"genus has a number past Python's {sys.get_int_max_str_digits()}-digit limit "
        f"for converting strings to integers")


@pytest.mark.parametrize("case", sorted(HOSTILE_FILES))
def test_hostile_files_are_parse_errors(case, capsys, tmp_path):
    data, line, message = HOSTILE_FILES[case]
    path = tmp_path / "hostile.hd"
    path.write_bytes(data)
    assert main(["info", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: line {line}: {message}\n")
    code, rep, _ = run_json(capsys, ["info", str(path)])
    assert code == 1
    assert rep["status"] == "error" and rep["exit_status"] == 1
    assert rep["error"] == {"line": line, "message": f"line {line}: {message}"}


def test_missing_file_exit_code(capsys):
    assert main(["validate", "/nonexistent/zzz.hd"]) == 1


@pytest.mark.parametrize("argv", [
    ["atlas", "torus", "0", "1"],
    ["atlas", "torus", "2", "2"],
    ["shift", "--c1sq", "abc", "--chi", "1", "--sigma", "0"],
    ["shift", "--c1sq", "1/0", "--chi", "1", "--sigma", "0"],
    ["shift", "--c1sq", "1e5000", "--chi", "1", "--sigma", "0"],
    ["shift", "--c1sq", "1e99999999", "--chi", "1", "--sigma", "0"],
    ["shift", "--c1sq", "0", "--chi", "1", "--sigma", "9" * 4300],
    ["shift", "--c1sq", "1" * 5000, "--chi", "1", "--sigma", "0"],
    # A negative radius fails before any file is read, so none is needed.
    ["--radius", "-1", "audit", "missing.hd", "x0", "x0"],
    ["--radius", "-3", "domain", "missing.hd", "x0", "x1", "--positive"],
    ["--radius", "-1", "grade", "missing.hd"],
    ["--radius", "-1", "atlas", "s1s2"],
    ["--radius", "-1", "shift", "--c1sq", "1", "--chi", "1", "--sigma", "0"],
], ids=["torus-p0", "torus-not-coprime", "c1sq-not-a-number", "c1sq-zero-denominator",
        "c1sq-exponent", "c1sq-huge-exponent", "sigma-too-many-digits", "c1sq-too-many-digits",
        "radius-audit", "radius-domain", "radius-grade", "radius-atlas", "radius-shift"])
def test_bad_argument_values_are_usage_errors(argv, capsys, tmp_path):
    out = tmp_path / "F.hd"
    if "atlas" in argv:
        argv = argv + ["-o", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hfcalc: error: ") and captured.err.count("\n") == 1
    assert main(["--json"] + argv) == 2
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["status"] == "error" and rep["exit_status"] == 2
    assert not out.exists()


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter has no limit on integer string conversion")
def test_c1sq_past_the_digit_limit_names_the_limit(capsys):
    limit = sys.get_int_max_str_digits()
    message = (f"hfcalc: error: --c1sq has a number past Python's {limit}-digit limit "
               f"for converting strings to integers\n")
    for c1sq in ["1" * (limit + 700), "1/" + "2" * (limit + 1)]:
        assert main(["shift", "--c1sq", c1sq, "--chi", "1", "--sigma", "0"]) == 2
        assert capsys.readouterr().err == message
    # A malformed literal is not a number, however long its digit runs.
    bad = "1" * (limit + 700) + "x"
    assert main(["shift", "--c1sq", bad, "--chi", "1", "--sigma", "0"]) == 2
    assert capsys.readouterr().err == f"hfcalc: error: --c1sq is not a rational number: {bad!r}\n"
    assert main(["shift", "--c1sq", "1" * limit, "--chi", "1", "--sigma", "0"]) == 0


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_top_level_options_go_before_the_command(capsys, s1s2_file):
    # --json, --radius and --seed belong to the top-level parser, so after
    # the command the run is a usage error that names the option.
    with pytest.raises(SystemExit) as exc:
        main(["--json", "audit", "--radius", "3", s1s2_file, "x0", "x1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hfcalc ")
    assert "hfcalc audit: error: unrecognized arguments: --radius" in captured.err


def test_json_round_trip_fixed_point(capsys, l31_file):
    code, rep, raw = run_json(capsys, ["grade", l31_file])
    assert json.dumps(rep, sort_keys=True, indent=2) + "\n" == raw


def test_determinism(capsys, l31_file):
    _, _, first = run_json(capsys, ["grade", l31_file])
    _, _, second = run_json(capsys, ["grade", l31_file])
    assert first == second


def test_text_mode_contains_numbers(capsys, l31_file):
    assert main(["grade", l31_file]) == 0
    text = capsys.readouterr().out
    assert "class 0 offset 0" in text
    assert "3 Spin^c classes" in text


def test_selftest(capsys):
    assert main(["--seed", "1", "selftest"]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out


def test_selftest_failure_names_its_case_and_counts_the_passes(capsys, monkeypatch):
    """A grading that is off by one on b1 > 0 diagrams only: additivity
    passes the 7 triples of torus(3,1) and torus(4,1) (one generator per
    class), then fails on the first triple of S1 x S2."""
    import hfcalc.cli as cli
    from hfcalc.grading import homology_of_Y, relative_grading

    def off_by_one(d, x, y):
        return relative_grading(d, x, y) + (homology_of_Y(d).b1 > 0)

    monkeypatch.setattr(cli, "relative_grading", off_by_one)
    code, rep, _ = run_json(capsys, ["--seed", "1", "selftest"])
    assert code == 1 and rep["status"] == "error"
    additivity, = (c for c in rep["payload"]["checks"] if c["name"] == "grading-additivity")
    assert additivity == {"name": "grading-additivity", "cases": 7, "passed": False,
                          "failure": {"diagram": "s1s2()", "generators": ["x0", "x0", "x0"]}}
    assert all(c["passed"] and c["cases"] > 0
               for c in rep["payload"]["checks"] if c is not additivity)
    assert main(["--seed", "1", "selftest"]) == 1
    assert ("grading-additivity: FAIL after 7 passed cases, at s1s2() generators "
            "x0 -> x0 -> x0") in capsys.readouterr().out.splitlines()


def test_each_command_factors_one_g_by_g_matrix(capsys, monkeypatch, tmp_path):
    """Every file command factors A once and nothing else, M included."""
    import hfcalc.grading as grading

    shapes = []

    def recording(rows, ncols):
        shapes.append((len(rows), ncols))
        return real(rows, ncols)

    real = grading._smith
    monkeypatch.setattr(grading, "_smith", recording)
    builders = [["torus", "3", "1"], ["s1s2"], ["openbook-annulus", "0"],
                ["openbook-annulus", "2"], ["openbook-annulus", "-3"]]
    runs = 0
    for k, builder in enumerate(builders):
        path = str(tmp_path / f"d{k}.hd")
        assert main(["atlas"] + builder + ["-o", path]) == 0
        d = load_diagram(Path(path).read_text(encoding="utf-8"))
        largest = max(spinc_partition(d), key=lambda c: len(c.members)).members
        x, y = largest[-1].display(d), largest[0].display(d)
        for argv in (["validate", path], ["info", path], ["generators", path],
                     ["spinc", path], ["grade", path], ["domain", path, x, y, "--positive"],
                     ["audit", path, x, y]):
            shapes.clear()
            assert main(["--json"] + argv) == 0, argv
            assert shapes == [(d.genus, d.genus)], argv
            runs += 1
    capsys.readouterr()
    assert runs == 35


def zero_domain(d, x, y):
    """A stand-in for ``grading._domain_avoiding_z`` that fails the corner
    certificate for every pair of distinct generators."""
    return Domain(d, x, y, (0,) * d.n_regions)


def test_consistency_error_exit_code_3(capsys, monkeypatch, s1s2_file):
    # Break the domain that the certificate checks: a D0 of zeros connects
    # no two distinct generators, so the real certificate rejects it, and
    # the internal inconsistency must surface as exit code 3.
    import hfcalc.grading as grading
    monkeypatch.setattr(grading, "_domain_avoiding_z", zero_domain)
    code, rep, _ = run_json(capsys, ["domain", s1s2_file, "x0", "x1"])
    assert code == 3
    assert rep["status"] == "error"
    assert rep["exit_status"] == 3
    assert rep["error"]["kind"] == "ConsistencyError"
    assert "corner system" in rep["error"]["message"]

    assert main(["domain", s1s2_file, "x0", "x1"]) == 3
    assert "internal error (ConsistencyError)" in capsys.readouterr().err


def test_audit_error_exit_code_3(capsys, monkeypatch, s1s2_file):
    import hfcalc.cli as cli
    from hfcalc.layers import AuditError

    def broken(*args):
        raise AuditError("layer sum differs from the Maslov index")

    monkeypatch.setattr(cli, "audit_index", broken)
    code, rep, _ = run_json(capsys, ["audit", s1s2_file, "x0", "x1"])
    assert code == 3
    assert rep["error"] == {"kind": "AuditError",
                            "message": "layer sum differs from the Maslov index"}


def readme_commands():
    """Every ``hfcalc ...`` line of README's shell blocks, as an argv list."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("hfcalc ")]


def test_readme_commands_succeed(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 13
    for argv in commands:
        assert main(argv) == 0, argv


# sha256 of the --json stdout and exit code of every case of
# ``golden_cases``; any byte of output that changes changes it.
GOLDEN_JSON_DIGEST = "9620e551eaa8e3baaba50bf874845b2e01bcbf05e1c8169f8f0e475bf32406fd"


def golden_cases(capsys):
    """Run the golden cases in the current directory; yield (argv, stdout, code).

    Diagrams: torus(p, q) for 0 <= q < p <= 5, annulus open books with
    |n| <= 3, S1 x S2, the stabilization of torus(3, 1), and every curve
    reversal of these.  Commands: validate, info, generators, spinc and
    grade on each, and ``domain --positive`` and ``audit`` on every
    ordered pair of its generators.  Files are named relatively, so the
    output does not depend on the directory.
    """
    def run(argv):
        code = main(["--json"] + argv)
        return argv, capsys.readouterr().out, code

    builders = [["torus", str(p), str(q)] for p in range(1, 6) for q in range(p)
                if math.gcd(p, q) == 1]
    builders += [["openbook-annulus", str(n)] for n in range(-3, 4)] + [["s1s2"]]
    files = []
    for k, builder in enumerate(builders):
        files.append(f"d{k}.hd")
        yield run(["atlas"] + builder + ["-o", files[-1]])
    yield run(["stabilize", "d2.hd", "-o", "st.hd"])  # d2.hd is torus(3, 1)
    files.append("st.hd")
    for path in list(files):
        inp = load_diagram(Path(path).read_text(encoding="utf-8")).input
        for curve in inp.curve_names():
            files.append(f"{path[:-3]}-{curve}.hd")
            Path(files[-1]).write_text(serialize(assemble_regions(reverse_curve(inp, curve))),
                                       encoding="utf-8")
    for path in files:
        for command in ("validate", "info", "generators", "spinc", "grade"):
            argv, out, code = run([command, path])
            yield argv, out, code
            if command == "generators":
                gens = json.loads(out)["payload"]["generators"]
        for x in gens:
            for y in gens:
                yield run(["domain", path, x, y, "--positive"])
                yield run(["audit", path, x, y])


def test_golden_json_digest(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for argv, out, code in golden_cases(capsys):
        digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    assert digest.hexdigest() == GOLDEN_JSON_DIGEST


# sha256 of the argv, exit code, stdout and stderr of every case of
# ``text_and_error_cases``, then of every diagram file the cases write;
# argparse's own rejections contribute only their exit code, since its
# wording changes between Python versions.
TEXT_AND_ERROR_DIGEST = "b7fad86e0dfca59483759233928dfc0f292c16a76204d6de3c7869519cf781b0"

VALIDATION_ERROR_TEXT = S3_TEXT + "region r0: genus=1 circles=a0.0+\n"


def text_and_error_cases(capsys, monkeypatch):
    """Run the text-mode and error-path cases; yield (argv, code, stdout, stderr).

    Text mode: every subcommand on the s1s2, openbook(2) and torus(3, 1)
    atlas files, ``domain --positive`` and ``audit`` on every ordered pair
    of generators.  Errors, in text and ``--json`` mode: a missing file, a
    directory, a parse error, a validation error, an unknown generator,
    hfcalc's own usage errors, an internal inconsistency (exit 3), a
    positive search that finds nothing, and a failed selftest.  stdout
    and stderr are None for argparse's rejections.
    """
    import hfcalc.cli as cli
    import hfcalc.grading as grading

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return argv, code, captured.out, captured.err

    files = {"s1s2.hd": ["s1s2"], "ob2.hd": ["openbook-annulus", "2"],
             "t31.hd": ["torus", "3", "1"]}
    for path, builder in files.items():
        yield run(["atlas"] + builder + ["-o", path])
    for path in files:
        for command in ("validate", "info", "generators", "spinc", "grade"):
            yield run([command, path])
        diagram = load_diagram(Path(path).read_text(encoding="utf-8"))
        gens = [g.display(diagram) for g in enumerate_generators(diagram)]
        for x in gens:
            for y in gens:
                yield run(["domain", path, x, y, "--positive"])
                yield run(["audit", path, x, y])
        yield run(["stabilize", path, "-o", f"st-{path}"])
    yield run(["shift", "--c1sq", "3/4", "--chi", "2", "--sigma", "-1"])
    yield run(["--seed", "1", "selftest"])

    Path("parse.hd").write_text("heegaard v1\ngenus: 1\nalpha a0: x0\n", encoding="utf-8")
    Path("invalid.hd").write_text(VALIDATION_ERROR_TEXT, encoding="utf-8")
    Path("folder.hd").mkdir()
    errors = [["validate", "missing.hd"], ["info", "folder.hd"], ["grade", "parse.hd"],
              ["spinc", "invalid.hd"], ["domain", "s1s2.hd", "x0", "zz"],
              ["--radius", "-1", "audit", "s1s2.hd", "x0", "x1"],
              ["atlas", "torus", "4", "2", "-o", "t42.hd"],
              ["shift", "--c1sq", "1e5", "--chi", "1", "--sigma", "0"],
              ["--radius", "0", "audit", "s1s2.hd", "x1", "x0"]]
    for argv in errors:
        yield run(argv)
        yield run(["--json"] + argv)
    with monkeypatch.context() as m:
        m.setattr(grading, "_domain_avoiding_z", zero_domain)
        yield run(["domain", "s1s2.hd", "x0", "x1"])
        yield run(["--json", "domain", "s1s2.hd", "x0", "x1"])
    with monkeypatch.context() as m:
        m.setattr(cli, "relative_grading", lambda d, x, y: 1)
        yield run(["--seed", "1", "selftest"])
        yield run(["--json", "--seed", "1", "selftest"])

    for argv in (["frobnicate"], ["validate"], ["--radius", "x", "info", "s1s2.hd"],
                 ["atlas", "torus", "a", "1", "-o", "t.hd"], ["stabilize", "s1s2.hd"],
                 ["--json", "domain", "s1s2.hd", "x0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        capsys.readouterr()
        yield argv, exc.value.code, None, None


def test_text_and_error_digest(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for argv, code, out, err in text_and_error_cases(capsys, monkeypatch):
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\n{err}\n".encode())
    for path in sorted(Path(".").glob("*.hd")):
        if path.is_file():
            digest.update(f"{path}\n".encode() + path.read_bytes())
    assert digest.hexdigest() == TEXT_AND_ERROR_DIGEST


def reference_parser():
    """The all-subparsers parser that hfcalc built before its parse had two
    stages: every command's arguments on one subparser of the top level."""
    ap = argparse.ArgumentParser(prog="hfcalc",
                                 description="Exact calculator for gradings of "
                                             "Heegaard-diagram generators")
    ap.add_argument("--json", action="store_true", help="emit a single JSON document")
    ap.add_argument("--radius", type=int, default=8,
                    help="search radius for positive representatives (default 8)")
    ap.add_argument("--seed", type=int, default=0, help="selftest RNG seed")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("validate", "info", "generators", "spinc", "grade", "domain", "audit",
                 "stabilize", "atlas", "shift", "selftest"):
        p = sub.add_parser(name)
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
    return ap


def parse_outcome(parse, argv, capsys):
    """The namespace ``parse`` makes of ``argv``, or its exit code and stdout."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, capsys.readouterr().out


def test_one_subparser_parses_as_the_full_parser(capsys, monkeypatch, tmp_path):
    """A run builds the top-level parser and its command's parser only; every
    argv parses as the all-subparsers reference parses it, or fails with its
    exit code, and each command's help is the reference's."""
    import hfcalc.cli as cli

    monkeypatch.chdir(tmp_path)
    commands = list(cli._COMMANDS)
    argvs = [["--json"] + argv for argv, _, _ in golden_cases(capsys)]
    argvs += [argv for argv, _, _, _ in text_and_error_cases(capsys, monkeypatch)]
    argvs += [["atlas", "torus", "-h"], ["atlas", "-h"]] + [[c, "-h"] for c in commands]
    argvs += [["frobnicate", "grade", "f"], ["--radius=-1", "audit", "f", "x", "y"],
              ["--j", "shift", "--c1sq", "1", "--chi", "2", "--sigma", "0"],
              ["--seed", "1", "selftest"], ["--se", "2", "selftest"],
              ["--radius", "3", "audit", "s.hd", "x0", "x1"],
              ["--json", "--radius", "3", "audit", "s.hd", "x0", "x1"],
              ["--radius", "-1", "info", "s.hd"], ["--s", "grade", "grade", "f"],
              ["--radius", "grade", "grade", "f"], ["--rad", "3", "validate", "f"],
              ["grade", "f", "extra"], ["grade", "--json", "f"], ["grade", "--", "f"],
              ["domain", "f", "x", "y", "--pos"], ["audit", "f", "x", "y", "--radius", "3"],
              ["atlas", "torus", "3", "1"], ["shift", "--c1sq", "-1", "--chi", "1",
                                             "--sigma", "0"], [], ["--json"]]
    reference = reference_parser()
    built, command_parser = [], cli._command_parser
    monkeypatch.setattr(cli, "_command_parser",
                        lambda name: built.append(name) or command_parser(name))
    for argv in argvs:
        built.clear()
        outcome = parse_outcome(cli._parse_args, argv, capsys)
        expected = parse_outcome(reference.parse_args, argv, capsys)
        if isinstance(expected, dict) or argv[-1:] == ["-h"]:
            assert outcome == expected, argv
        else:  # a rejection: the same exit code, in argparse's wording
            assert isinstance(outcome, tuple) and outcome[0] == expected[0], argv
        if isinstance(expected, dict):
            assert built == [expected["command"]], argv
    # "--" before the command ends the top-level options; the run is that of
    # the argv without it.
    for argv in (["--", "grade", "f"], ["--json", "--", "validate", "f"],
                 ["--radius", "3", "--", "domain", "f", "x", "y", "--positive"]):
        dashless = [a for a in argv if a != "--"]
        assert vars(cli._parse_args(argv)) == vars(reference.parse_args(dashless)), argv
    # The top-level help differs from the reference's only by the " ..."
    # that stood for the subparsers' arguments.
    expected = parse_outcome(reference.parse_args, ["-h"], capsys)
    assert parse_outcome(cli._parse_args, ["-h"], capsys) == \
        (0, re.sub(r"\s+\.\.\.\n", "\n", expected[1], count=1))


def test_generators_beyond_the_recursion_limit(capsys, tmp_path):
    path = tmp_path / "g1101.hd"
    path.write_text(s1s2_plus_pairs_text(1100))
    code, rep, _ = run_json(capsys, ["generators", str(path)])
    assert code == 0
    assert rep["diagram"]["genus"] == 1101
    assert rep["payload"]["count"] == 2


# ---------------------------------------------------------------------------
# Import path: hfcalc.cli starts and audits without dataclasses
# ---------------------------------------------------------------------------

def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_dataclasses(tmp_path):
    proc = run_python(["-c", "import sys; before = set(sys.modules); import hfcalc.cli; "
                             "print(sorted(set(sys.modules) - before))"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(eval(proc.stdout))
    assert "hfcalc.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"})


def test_audit_loads_no_dataclasses(tmp_path, s1s2_file):
    script = ("import contextlib, io, sys\n"
              "from hfcalc.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = main(['--json', 'audit', {s1s2_file!r}, 'x0', 'x1'])\n"
              "print(code, 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n")
    proc = run_python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "False"]


def test_most_commands_never_load_fractions(tmp_path):
    """Only domain, audit, shift and selftest make a Fraction."""
    runs = [["atlas", "openbook-annulus", "2", "-o", "ob.hd"], ["validate", "ob.hd"],
            ["info", "ob.hd"], ["generators", "ob.hd"], ["spinc", "ob.hd"],
            ["grade", "ob.hd"], ["stabilize", "ob.hd", "-o", "st.hd"]]
    script = ("import contextlib, io, sys\n"
              "import hfcalc.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [hfcalc.cli.main(['--json', *argv]) for argv in {runs!r}]\n"
              "print(codes, sorted({'fractions', 'decimal'} & set(sys.modules)))\n")
    proc = run_python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{[0] * len(runs)} []"


def test_audit_in_a_child_process(tmp_path):
    out = tmp_path / "s1s2.hd"
    assert run_python(["-m", "hfcalc.cli", "atlas", "s1s2", "-o", str(out)],
                      tmp_path).returncode == 0
    proc = run_python(["-m", "hfcalc.cli", "--json", "audit", str(out), "x0", "x1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["status"] == "ok"
    assert rep["payload"]["identities"] == {
        "layer_sum_equals_maslov": True, "n_x_minus_n_y_equals_boundary_intersection": True}
    assert rep["payload"]["layer_sum"] == str(rep["payload"]["maslov"])


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_a_closed_stdout_exits_1_with_nothing_on_stderr(tmp_path, flags):
    """A reader that stops after 10 bytes, like ``| head -c 10``."""
    import fcntl

    path = tmp_path / "t.hd"
    assert run_python(["-m", "hfcalc.cli", "atlas", "torus", "640", "1", "-o", str(path)],
                      tmp_path).returncode == 0
    read_end, write_end = os.pipe()
    # A one-page pipe holds less than either output (16 kB of text, 160 kB
    # of JSON), so the child is still writing when the pipe closes.
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "hfcalc.cli", *flags, "grade", str(path)],
                            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                            stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as out:
        assert len(out.read(10)) == 10
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


PACKAGE_NAMES = [
    "CurveSystemInput", "DiagramError", "HeegaardDiagram", "ParseError",
    "RegionDirective", "ValidationError", "assemble_regions", "load_diagram",
    "parse_diagram", "rename", "reverse_curve", "serialize", "trace_faces",
    "AffineSolutionSet", "IntMatrix", "gcd_over_lattice", "smith_invariants",
    "smith_normal_form", "solve_integer_system",
    "ConsistencyError", "Domain", "Generator", "GradingLabel", "Homology",
    "NoConnectingClassError", "NoPositiveRepresentative", "SpincClass",
    "basepoint_multiplicity", "divisibility",
    "enumerate_generators", "euler_measure", "generator_measure", "gr0_of_theta",
    "grading_table", "homogeneous_lattice", "homology_of_Y", "label_of", "maslov_index",
    "point_measure", "positive_representative", "relative_grading",
    "solve_domain", "spinc_class_of", "spinc_partition", "theta_and_shift",
    "AuditError", "AuditReport", "audit_index",
    "MarkedDiagram", "build_annulus_open_book", "build_s1s2", "build_torus_diagram",
    "stabilize", "__version__",
]


def test_package_exports():
    for name in PACKAGE_NAMES:
        namespace = {}
        exec(f"from hfcalc import {name}", namespace)
        assert namespace[name] is getattr(hfcalc, name)
    # Nothing else is exported: the submodules aside, hfcalc binds no other
    # public name.
    exported = {name for name, value in vars(hfcalc).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == set(PACKAGE_NAMES) - {"__version__"}


def test_star_import_binds_every_export(tmp_path):
    names = PACKAGE_NAMES[:-1]  # all but __version__
    proc = run_python(["-c", f"from hfcalc import *; "
                             f"print([n for n in {names!r} if n not in globals()])"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_package_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        hfcalc.no_such_name
