"""hfcalc benchmark: three seeded closed-loop workloads and a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grade-fresh --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``grade-fresh``,
``audit-repeat``, ``cli-small``.  The run sets up, then runs whole rounds
of operations until ``--seconds`` have passed and at least the workload's
minimum number of rounds is done, checking every answer.  It prints one
JSON line of run details and, last, the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates an untraced and a traced pass over each round and the
metrics are the per-layer ones of ``round_metrics`` and ``setup_metrics``.

The program under test is imported from ``src/`` of the same checkout; the
run writes only below ``.perfbench-work/`` there and removes it on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "hfcalc" / "__init__.py").is_file():
    sys.exit(f"error: no hfcalc sources under {SRC}; run from the root of a full checkout")
# The program under test is this checkout's sources, never an installed copy.
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
FLOOR_SAMPLES = 5


def nearest_rank(sorted_values, pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least 10 of n samples beyond it."""
    return max([p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= 10], default=50)


def make_workload(name: str, seed: int, work: Path, in_process: bool):
    if name == "grade-fresh":
        return workloads.GradeFresh(seed)
    if name == "audit-repeat":
        return workloads.AuditRepeat(seed)
    return workloads.CliSmall(seed, work, SRC, in_process=in_process)


class Tally:
    """Time and outcome of each op, failures, and the machine's speed around the ops.

    ``ref_ms`` holds a reference-kernel sample (``speed.sample_ms``) taken
    before each op, outside its timing; ``close`` adds one after the last.
    """

    def __init__(self):
        self.times: list[tuple[float, bool]] = []   # (wall s, verified) per attempted op
        self.ref_ms: list[float] = []
        self.failures: list[str] = []

    def run_round(self, wl, ops, between_ops=None) -> float:
        """Run one round, return its time in ops (the timed region only).

        ``between_ops``, if given, is called after each op, outside the timing.
        """
        spent = 0.0
        for op in ops:
            self.ref_ms.append(speed.sample_ms())
            ok = False
            t0 = time.perf_counter()
            try:
                result = wl.execute(op)
            except Exception:  # the loop must go on; the failure is counted and shown
                dt = time.perf_counter() - t0
                self._fail(traceback.format_exc())
            else:
                dt = time.perf_counter() - t0
                try:
                    wl.check(op, result)
                except workloads.WrongAnswer as exc:
                    self._fail(f"wrong answer: {exc}")
                except Exception:  # a result the check cannot read is a wrong answer too
                    self._fail(traceback.format_exc())
                else:
                    ok = True
            spent += dt
            self.times.append((dt, ok))
            if between_ops:
                between_ops()
        return spent

    def close(self) -> None:
        self.ref_ms.append(speed.sample_ms())

    def scaled(self) -> list[tuple[float, bool]]:
        """``times`` at reference speed, each by the kernel samples around its op."""
        return [(dt * speed.REF_MS / speed.local_ref_ms(self.ref_ms, i), ok)
                for i, (dt, ok) in enumerate(self.times)]

    def _fail(self, text: str) -> None:
        if not self.failures:
            print(text, file=sys.stderr)
        self.failures.append(text.strip().splitlines()[-1])

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def latencies(self) -> list[float]:
        return [dt for dt, ok in self.times if ok]


def timed_setup(wl, rep: int) -> tuple[float, float]:
    """Set up ``wl``; return the time at reference speed and the wall time, in s."""
    wall, ref_ms = speed.timed(lambda: wl.setup(rep))
    return wall * speed.REF_MS / ref_ms, wall


def measure_floors(work: Path) -> dict:
    """Median wall time of a bare interpreter and of ``import hfcalc.cli``."""
    env = workloads.child_env(SRC, work / "floor-pycache")
    workloads.warm_bytecode(env, work)
    out = {}
    for key, argv in (("interp_floor_ms", ["-c", "pass"]),
                      ("import_ms", ["-c", "import hfcalc.cli"])):
        samples = []
        for _ in range(FLOOR_SAMPLES):
            t0 = time.perf_counter()
            workloads.run_child(argv, env, work).check_returncode()
            samples.append((time.perf_counter() - t0) * 1000)
        out[key] = statistics.median(samples)
    return out


def spare_setup(wl, work: Path, rep: int) -> tuple[float, float]:
    """Time one more set-up of ``wl``'s workload and seed, on a fresh instance.

    It runs in a child process, so neither its memory nor the diagrams it
    leaves in hfcalc's process-global caches reach this process.  Workloads
    whose memory reading is of their children (cli-small) set up in-process
    instead, where their set-up's own memory is not read.  Returns what
    ``timed_setup`` does.
    """
    if wl.rss_of_children:
        return timed_setup(make_workload(wl.name, wl.seed, work / f"spare{rep}", False), rep)
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
                           "--seed", str(wl.seed), "--seconds", "0", "--setup-once"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode:
        raise RuntimeError(f"spare set-up failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["setup_s"], result["wall_s"]


def run_plain(wl, seconds: float, work: Path, info: dict) -> tuple[Tally, dict]:
    """Measure the end-to-end metrics.

    ``setup_s`` is the median of ``wl.setups`` set-ups: the run's own at the
    start and spare ones (``spare_setup``) spaced evenly over the measured
    time, the last at its end.  On a shared machine the speed can shift by
    up to half for seconds at a time, so set-ups in a row, each a fraction of
    a second, could all land in one state; spread over the run they sample
    it as the ops do.  Spare set-ups run between ops and their time is not
    counted as measured time.

    Every timing is at reference speed (``speed``); the run details give the
    same figures in wall time.
    """
    setup_times = [timed_setup(wl, 0)]
    due = [seconds * j / (wl.setups - 1) for j in range(1, wl.setups - 1)]
    spare_wall = 0.0

    def measured() -> float:
        return time.perf_counter() - start - spare_wall

    def between_ops() -> None:
        nonlocal spare_wall
        if due and measured() >= due[0]:
            due.pop(0)
            t0 = time.perf_counter()
            setup_times.append(spare_setup(wl, work, len(setup_times)))
            spare_wall += time.perf_counter() - t0

    tally = Tally()
    round_s = []
    rss = None
    start = time.perf_counter()
    while len(round_s) < wl.min_rounds or measured() < seconds:
        ops = wl.round_ops(len(round_s))
        round_s.append(tally.run_round(wl, ops, between_ops))
        if len(round_s) == wl.min_rounds:
            rss = workloads.peak_rss_mb(children=wl.rss_of_children)
    timed_s = measured()
    tally.close()
    while len(setup_times) < wl.setups:
        setup_times.append(spare_setup(wl, work, len(setup_times)))
    pct = tail_percentile(wl.min_rounds * len(ops))
    verified = tally.attempted - tally.failed

    def timings(times, setups) -> dict:
        # Percentiles are over verified ops; if none verified, the run is
        # reported incorrect and the mean op time stands in.
        op_s = sum(dt for dt, _ in times)
        lat = sorted(dt for dt, ok in times if ok) or [op_s / len(times)]
        return {"setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (verified / op_s, "1/s"),
                "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
                "op_tail_ms": (nearest_rank(lat, pct) * 1000, "ms")}

    metrics = timings(tally.scaled(), [scaled for scaled, _ in setup_times])
    metrics.update(verified_frac=(verified / tally.attempted, "ratio"), peak_rss_mb=(rss, "MB"))
    wall = timings(tally.times, [w for _, w in setup_times])
    lat = tally.latencies
    info.update(wall={name: value for name, (value, _) in wall.items()},
                ref_ms={"median": statistics.median(tally.ref_ms), "min": min(tally.ref_ms),
                        "max": max(tally.ref_ms), "samples": len(tally.ref_ms)},
                setup_s_each=setup_times, rounds=len(round_s), round_ops=len(ops),
                round_s=round_s, timed_s=timed_s,
                latency_samples=len(lat), tail_percentile=pct,
                tail_samples_beyond=len(lat) - math.ceil(pct / 100 * len(lat)),
                peak_rss_at=f"after set-up and {wl.min_rounds} rounds"
                            + (", largest child" if wl.rss_of_children else ""))
    if isinstance(wl, workloads.CliSmall):
        info["child_env"] = ("every PYTHON* variable of the parent unset, "
                             "PYTHONDONTWRITEBYTECODE among them; PYTHONPATH=<checkout>/src, "
                             "PYTHONPYCACHEPREFIX=<private dir compiled during set-up>")
        info["cli_floor_ms"] = measure_floors(work)
    return tally, metrics


def _span_getter(stats: dict):
    return lambda name: stats.get(name) or spans.SpanStats()


def round_metrics(w: dict) -> dict:
    """Per-layer metrics of one traced round: totals over its ``ops`` ops."""
    span = _span_getter(w["stats"])
    snf, solve, audit = span("zlattice.snf"), span("zlattice.solve"), span("layers.audit")
    return {
        "zlattice.snf_calls": (snf.calls, "count"),
        "zlattice.snf_ms": (snf.total_s * 1e3, "ms"),
        "zlattice.snf_cells": (snf.cells, "count"),
        "zlattice.snf_per_op": (snf.calls / w["ops"], "1/op"),
        "zlattice.solve_calls": (solve.calls, "count"),
        "zlattice.solve_empty_frac": (solve.empty / max(1, solve.calls), "ratio"),
        "grading.partition_self_ms": (span("grading.partition").self_s * 1e3, "ms"),
        "grading.table_self_ms": (span("grading.table").self_s * 1e3, "ms"),
        "grading.solve_domain_calls": (span("grading.solve_domain").calls, "count"),
        "grading.solve_domain_self_ms": (span("grading.solve_domain").self_s * 1e3, "ms"),
        "grading.relative_grading_self_ms": (span("grading.relative_grading").self_s * 1e3, "ms"),
        "grading.enumerate_ms": (span("grading.enumerate").total_s * 1e3, "ms"),
        "grading.homology_self_ms": (span("grading.homology").self_s * 1e3, "ms"),
        "grading.positive_ms": (span("grading.positive").total_s * 1e3, "ms"),
        "layers.audit_calls": (audit.calls, "count"),
        "layers.audit_ms": (audit.total_s * 1e3, "ms"),
        "layers.layers_per_audit": (audit.layers / max(1, audit.calls), "count"),
        "diagram.load_calls": (span("diagram.load").calls, "count"),
        "diagram.load_ms": (span("diagram.load").total_s * 1e3, "ms"),
        "diagram.serialize_ms": (span("diagram.serialize").total_s * 1e3, "ms"),
        "cli.main_self_ms": (span("cli.main").self_s * 1e3, "ms"),
        "cli.json_bytes": (w["json_bytes"], "bytes"),
        "trace.round_ops": (w["ops"], "count"),
        "trace.round_ms": (w["traced_s"] * 1e3, "ms"),
        "trace.unattributed_ms": ((w["traced_s"] - w["top_level_s"]) * 1e3, "ms"),
    }


def setup_metrics(stats: dict, setup_s: float) -> dict:
    """Per-layer metrics of one traced set-up."""
    span = _span_getter(stats)
    return {
        "atlas.build_ms": (span("atlas.build").total_s * 1e3, "ms"),
        "atlas.stabilize_ms": (span("atlas.stabilize").total_s * 1e3, "ms"),
        "diagram.setup_load_ms": (span("diagram.load").total_s * 1e3, "ms"),
        "zlattice.setup_snf_calls": (span("zlattice.snf").calls, "count"),
        "zlattice.setup_snf_ms": (span("zlattice.snf").total_s * 1e3, "ms"),
        "grading.setup_partition_self_ms": (span("grading.partition").self_s * 1e3, "ms"),
        "trace.setup_ms": (setup_s * 1e3, "ms"),
    }


def run_traced(wl, seconds: float, work: Path, info: dict) -> tuple[Tally, dict]:
    """Untraced then traced pass over each round, until ``seconds`` have passed.

    Layer metrics are totals over one traced round (``trace.round_ops``
    ops) or over the set-up, which is traced too.  Counts come from the first
    traced round and repeat exactly for a seed; times are medians over the
    traced rounds, in wall time; ``trace.ref_ms``, the median reference-kernel
    time (``speed``), gives the speed they were taken at.
    ``trace.overhead_frac`` compares the median traced and untraced round
    times at reference speed.
    """
    import hfcalc.cli  # noqa: F401  (loaded so that its span is installed, not reported absent)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        _, setup_s = timed_setup(wl, 0)
    setup_stats = tracer.stats
    tally = Tally()
    windows = []
    start = time.perf_counter()
    while not windows or time.perf_counter() - start < seconds:
        ops = wl.round_ops(len(windows))
        first_op = tally.attempted
        tally.run_round(wl, ops)
        tracer.window()
        bytes_before = getattr(wl, "json_bytes", 0)
        with spans.installed(tracer) as absent:
            traced_s = tally.run_round(wl, ops)
        windows.append({"stats": tracer.stats, "ops": len(ops), "traced_s": traced_s,
                        "top_level_s": tracer.top_level_s, "first_op": first_op,
                        "json_bytes": getattr(wl, "json_bytes", 0) - bytes_before})
    tally.close()
    scaled = [dt for dt, _ in tally.scaled()]

    per_round = [round_metrics(w) for w in windows]
    metrics = {}
    for name, (value, unit) in per_round[0].items():
        if unit == "ms":
            value = statistics.median(m[name][0] for m in per_round)
        metrics[name] = (value, unit)
    metrics.update(setup_metrics(setup_stats, setup_s))
    floors = measure_floors(work)
    metrics["cli.interp_floor_ms"] = (floors["interp_floor_ms"], "ms")
    metrics["cli.import_ms"] = (floors["import_ms"], "ms")
    metrics["trace.ref_ms"] = (statistics.median(tally.ref_ms), "ms")

    def scaled_round(w, traced: bool) -> float:
        i = w["first_op"] + traced * w["ops"]
        return sum(scaled[i:i + w["ops"]])

    untraced = statistics.median(scaled_round(w, False) for w in windows)
    metrics["trace.overhead_frac"] = (
        statistics.median(scaled_round(w, True) for w in windows) / untraced - 1, "ratio")
    # top-level span time at reference speed, by its traced round's scale
    top_level = statistics.median(w["top_level_s"] * scaled_round(w, True) / w["traced_s"]
                                  for w in windows)

    first = windows[0]
    shares = {name: s.self_s / first["traced_s"] for name, s in sorted(first["stats"].items())}
    shares["unattributed"] = (first["traced_s"] - first["top_level_s"]) / first["traced_s"]
    info.update(rounds=len(windows), round_ops=first["ops"], absent=absent,
                self_share_of_first_traced_round=shares,
                top_level_spans_over_untraced_round=top_level / untraced)
    return tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("grade-fresh", "audit-repeat", "cli-small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-once", action="store_true",
                    help="time one set-up, print {\"setup_s\": ..., \"wall_s\": ...} and exit "
                         "(spare set-ups)")
    args = ap.parse_args(argv)

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "loop": "closed, one client",
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    try:
        wl = make_workload(args.workload, args.seed, work, in_process=bool(args.trace))
        if args.setup_once:
            scaled, wall = timed_setup(wl, 0)
            print(json.dumps({"setup_s": scaled, "wall_s": wall}))
            return 0
        run = run_traced if args.trace else run_plain
        tally, metrics = run(wl, args.seconds, work, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    info["failures"] = tally.failures[:5]
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
