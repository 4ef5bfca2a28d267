"""Run a fixed, seeded list of hfcalc command lines and digest what they print.

    python tools/sweep.py                  # one digest line per command
    python tools/sweep.py --against DIR    # also run DIR/src/hfcalc; list the cases that differ

Every case is one ``hfcalc.cli.main(argv)`` call, in this process, with its
exit code (argparse's ``SystemExit`` included), stdout and stderr captured.
The cases, in text and ``--json`` mode:

- ``validate``, ``info``, ``generators``, ``spinc`` and ``grade`` on
  torus(p, q) for p <= 5, the annulus open books -3..3 and S1 x S2, each as
  built, stabilized once and with each curve reversed; on the diagrams that
  assemble among 1,000 draws of ``strategies.random_curve_system`` seeded
  2024 (genus 1-3, many with an intersection matrix that is not diagonal,
  so the Smith form's pivot order shows in ``domain`` and ``audit`` at
  b1 > 0), and on the mirror of each; and on #^2 and #^3 S1 x S2
  (``conftest.s1s2_sum_text``);
- ``domain --positive`` and ``audit`` on up to 13 seeded generator pairs of
  each of those diagrams, at the default radius and at ``--radius 1``;
- ``selftest`` at seeds 1-3 and a few ``shift`` values;
- command lines that argparse rejects, or reads in a way worth pinning
  (help, ``--`` before the command, a top-level option after it).

Each digest line reads ``COMMAND: N cases, sha256 HEX``, the hash taken over
each case's argv, exit code, stdout and stderr in order.  With ``--against``
the same cases run on the second tree in a child process, in the same
directory, and every case whose exit code, stdout or stderr differs is
listed with its argv, both exit codes and the streams that differ; the exit
status is then 1 if any case differs.  The diagram files are written once,
by this checkout, so both trees read the same bytes.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILE_COMMANDS = ("validate", "info", "generators", "spinc", "grade")
PAIRS_PER_DIAGRAM = 13
USAGE = [
    # argparse's rejections among hfcalc's own test cases
    ["frobnicate"], ["validate"], ["--radius", "x", "info", "s1s2.hd"],
    ["atlas", "torus", "a", "1", "-o", "t.hd"], ["stabilize", "s1s2.hd"],
    ["--json", "domain", "s1s2.hd", "x0"],
    # how the command line is read
    [], ["--json"], ["-h"], ["grade", "-h"], ["atlas", "torus", "-h"],
    ["--", "validate", "s1s2.hd"], ["--json", "audit", "--radius", "3", "s1s2.hd", "x0", "x1"],
    ["grade", "s1s2.hd", "extra"], ["--rad", "3", "--json", "audit", "s1s2.hd", "x0", "x1"],
]
SHIFTS = [("0", "2", "0"), ("3/4", "2", "-1"), ("-5", "1", "3"), ("1e5", "1", "0"),
          ("abc", "1", "0")]


def write_diagrams() -> list[str]:
    """Write the diagram files into the current directory; return their names."""
    from hfcalc.atlas import (build_annulus_open_book, build_s1s2, build_torus_diagram,
                              stabilize)
    from hfcalc.diagram import assemble_regions, load_diagram, reverse_curve, serialize
    from conftest import s1s2_sum_text
    from strategies import assembled_curve_systems, mirror

    built = {f"torus-{p}-{q}": build_torus_diagram(p, q) for p in range(1, 6)
             for q in range(p) if math.gcd(p, q) == 1}
    built.update((f"ob{n}", build_annulus_open_book(n)) for n in range(-3, 4))
    built["s1s2"] = build_s1s2()
    files = {}
    for name, marked in built.items():
        d = marked.diagram
        files[name] = d
        files[f"{name}-st"] = stabilize(d)[0].diagram
        for curve in d.input.curve_names():
            files[f"{name}-rev-{curve}"] = assemble_regions(reverse_curve(d.input, curve))
    for k, d in enumerate(assembled_curve_systems(random.Random(2024), 1000)):
        files[f"draw{k}"] = d
        files[f"draw{k}-mirror"] = assemble_regions(mirror(d.input))
    files.update((f"s1s2x{g}", load_diagram(s1s2_sum_text(g))) for g in (2, 3))
    for name, d in files.items():
        Path(f"{name}.hd").write_text(serialize(d), encoding="utf-8")
    return [f"{name}.hd" for name in files]


def build_cases(paths: list[str]) -> list[tuple[str, list[str]]]:
    """The (command, argv) cases on the diagram files ``paths``, in order."""
    from hfcalc.diagram import load_diagram
    from hfcalc.grading import enumerate_generators

    rng = random.Random(36)
    cases = []
    for path in paths:
        cases += [(command, [command, path]) for command in FILE_COMMANDS]
        d = load_diagram(Path(path).read_text(encoding="utf-8"))
        gens = [g.display(d) for g in enumerate_generators(d)]
        pairs = [(x, y) for x in gens for y in gens]
        for x, y in rng.sample(pairs, min(PAIRS_PER_DIAGRAM, len(pairs))):
            for radius in ([], ["--radius", "1"]):
                cases.append(("domain", radius + ["domain", path, x, y, "--positive"]))
                cases.append(("audit", radius + ["audit", path, x, y]))
    cases += [("selftest", ["--seed", str(seed), "selftest"]) for seed in (1, 2, 3)]
    cases += [("shift", ["shift", "--c1sq", c1sq, "--chi", chi, "--sigma", sigma])
              for c1sq, chi, sigma in SHIFTS]
    both_modes = [case for command, argv in cases
                  for case in ((command, argv), (command, ["--json"] + argv))]
    return both_modes + [("usage", argv) for argv in USAGE]


def run_cases(argvs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of ``hfcalc.cli.main`` on each argv."""
    from hfcalc.cli import main

    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        results.append([code, out.getvalue(), err.getvalue()])
    return results


def run_against(tree: Path, argvs: list[list[str]]) -> list[list]:
    """``run_cases`` on ``tree/src`` in a child process in this directory."""
    src = (tree / "src").resolve()
    if not (src / "hfcalc" / "cli.py").is_file():
        sys.exit(f"sweep: no hfcalc package under {src}")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"],
                          input=json.dumps(argvs), capture_output=True, text=True, env=env)
    if proc.returncode:
        sys.exit(f"sweep: the run on {src} failed:\n{proc.stderr}")
    reply = json.loads(proc.stdout)
    if Path(reply["package"]).resolve() != src / "hfcalc":
        sys.exit(f"sweep: the child imported hfcalc from {reply['package']}, not {src}")
    return reply["results"]


def digest_lines(cases, results) -> list[str]:
    digests = {}
    for (command, argv), result in zip(cases, results):
        count, digest = digests.get(command, (0, hashlib.sha256()))
        digest.update(json.dumps([argv] + result).encode() + b"\n")
        digests[command] = (count + 1, digest)
    return [f"{command}: {count} cases, sha256 {digest.hexdigest()}"
            for command, (count, digest) in digests.items()]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="DIR", type=Path,
                    help="a second tree: run the same cases on DIR/src/hfcalc and list "
                         "the cases that differ")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:  # argvs on stdin, results on stdout, hfcalc from PYTHONPATH
        import hfcalc
        results = run_cases(json.load(sys.stdin))
        json.dump({"package": os.path.dirname(hfcalc.__file__), "results": results},
                  sys.stdout)
        return 0
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal
    against = args.against.resolve() if args.against else None
    with tempfile.TemporaryDirectory(prefix="hfcalc-sweep-") as work:
        os.chdir(work)
        try:
            cases = build_cases(write_diagrams())
            argvs = [argv for _, argv in cases]
            results = run_cases(argvs)
            other = run_against(against, argvs) if against else None
        finally:
            os.chdir(ROOT)
    for line in digest_lines(cases, results):
        print(line)
    if other is None:
        return 0
    differing = 0
    for argv, (code, *streams), (other_code, *other_streams) in zip(argvs, results, other):
        changed = [name for name, a, b in zip(("stdout", "stderr"), streams, other_streams)
                   if a != b]
        if changed or code != other_code:
            differing += 1
            print(f"differs: {shlex.join(['hfcalc'] + argv)}: exit {code} here, {other_code} "
                  f"against; {', '.join(changed) or 'exit code only'}")
    print(f"{differing} of {len(argvs)} cases differ against {against}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
