"""Tests of the benchmark itself: answer checks, the tail rule, scaling, spans, set-up failure.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import hfcalc as hf
import run
import spans
import workloads


def _small_audit(seed=1):
    wl = workloads.AuditRepeat(seed)
    wl.OPEN_BOOKS = (0, 2, 3)
    return wl


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(145) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(999) == 95
    assert run.tail_percentile(1020) == 99
    assert run.nearest_rank(list(range(1, 201)), 95) == 190


class _TinyWorkload:
    """Ten-millisecond ops that log, with the set-ups, the order they ran in."""

    name, seed, min_rounds, setups, rss_of_children = "tiny", 0, 1, 4, True

    def __init__(self, events):
        self.events = events

    def setup(self, rep):
        self.events.append("setup")

    def round_ops(self, r):
        return [r] * 5

    def execute(self, op):
        time.sleep(0.01)
        self.events.append("op")
        return op

    def check(self, op, result):
        pass


def test_setups_are_spread_over_the_run(monkeypatch, tmp_path):
    events = []
    monkeypatch.setattr(run, "make_workload", lambda *args: _TinyWorkload(events))
    info = {}
    tally, metrics = run.run_plain(_TinyWorkload(events), 0.3, tmp_path, info)
    assert len(info["setup_s_each"]) == 4
    assert metrics["setup_s"][0] > 0
    runs = "".join("s" if e == "setup" else "o" for e in events).split("s")
    # one set-up first, two between ops, one after the last op
    assert len(runs) == 5 and runs[0] == runs[-1] == "" and all(runs[1:4])


def test_setup_once_prints_one_setup_time():
    proc = subprocess.run([sys.executable, run.__file__, "--workload", "grade-fresh",
                           "--seed", "1", "--seconds", "0", "--setup-once"],
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result) == ["setup_s", "wall_s"] and min(result.values()) > 0


def test_times_are_scaled_by_the_kernel_around_each_op():
    tally = run.Tally()
    # the machine halves its speed between ops 7 and 8; ops and kernel slow alike
    tally.times = [(0.010, True)] * 8 + [(0.020, True)] * 7 + [(0.5, False)]
    tally.ref_ms = [1.0] * 8 + [2.0] * 9
    scaled = [round(dt, 9) for dt, _ in tally.scaled()]
    assert scaled[:7] + scaled[8:15] == [0.010] * 14 and scaled[15] == 0.25
    # one interrupted kernel run does not set an op's scale
    tally.ref_ms = [1.0] * 4 + [9.0] + [1.0] * 12
    assert [dt for dt, _ in tally.scaled()][:8] == [0.010] * 8
    assert len(tally.latencies) == 15 and tally.attempted == 16


def test_grade_fresh_counts_a_wrong_answer(monkeypatch):
    wl = workloads.GradeFresh(1)
    ops = [op for op in wl.round_ops(0) if abs(op.size) <= 7]
    assert len({op.text for op in ops}) == len(ops)
    tally = run.Tally()
    tally.run_round(wl, ops)
    assert tally.failed == 0 and len(tally.latencies) == len(ops)

    real = hf.grading_table
    monkeypatch.setattr(workloads.hf, "grading_table", lambda d: real(d)[:-1])
    tally.run_round(wl, ops)
    assert tally.failed == len(ops)
    assert tally.attempted == 2 * len(ops)


def test_audit_repeat_counts_a_wrong_answer(monkeypatch):
    wl = _small_audit()
    wl.setup(0)
    ops = wl.round_ops(0)
    assert len(ops) == 4 * (wl.MAX_K + 1)
    tally = run.Tally()
    tally.run_round(wl, ops)
    assert tally.failed == 0

    real = hf.audit_index

    def shifted(d, x, y, domain):
        report = real(d, x, y, domain)
        return dataclasses.replace(report, maslov=report.maslov + 2)

    monkeypatch.setattr(workloads.hf, "audit_index", shifted)
    tally.run_round(wl, ops[:5])
    assert tally.failed == 5


def test_cli_small_checks_status_and_payload(tmp_path):
    wl = workloads.CliSmall(1, tmp_path, run.SRC, in_process=True)
    wl.setup(0)
    ops = wl.round_ops(0)
    assert len(ops) == 40
    tally = run.Tally()
    tally.run_round(wl, ops)
    assert tally.failed == 0, tally.failures

    gens = next(op for op in ops if op.argv[0] == "generators")
    wrong = dict(gens.expected, payload={"count": gens.expected["payload"]["count"] + 1})
    missing = workloads.CliOp(("validate", str(tmp_path / "absent.hd")), {})
    tally.run_round(wl, [workloads.CliOp(gens.argv, wrong), missing])
    assert tally.failed == 2


def test_spans_measure_self_time_and_restore_bindings(monkeypatch):
    tracer = spans.Tracer()
    original = hf.zlattice.smith_normal_form
    with spans.installed(tracer) as absent:
        assert hf.zlattice.smith_normal_form is not original
        hf.smith_invariants(hf.IntMatrix.from_rows([[2, 4], [6, 8], [1, 1]]))
        hf.solve_integer_system(hf.IntMatrix.from_rows([[2]]), [1])
    assert absent == []
    assert hf.zlattice.smith_normal_form is original
    snf, solve = tracer.stats["zlattice.snf"], tracer.stats["zlattice.solve"]
    assert (snf.calls, snf.cells) == (2, 7)
    assert (solve.calls, solve.empty) == (1, 1)
    # smith_invariants is not a span, so its factorization is top level;
    # the one inside solve_integer_system is solve's child.
    assert abs(tracer.top_level_s - snf.total_s - solve.self_s) < 1e-9

    monkeypatch.delattr(hf.grading, "spinc_partition")
    with spans.installed(spans.Tracer()) as absent:
        pass
    assert absent == ["hfcalc.grading.spinc_partition"]


def test_traced_counts_repeat_exactly(tmp_path):
    results = []
    for i in range(2):
        work = tmp_path / str(i)
        work.mkdir()
        tally, metrics = run.run_traced(_small_audit(), 0, work, {})
        assert tally.failed == 0
        results.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert results[0] == results[1]
    assert results[0]["layers.audit_calls"] == 4 * (workloads.AuditRepeat.MAX_K + 1)


def test_bare_directory_exits_without_result(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    if (here.parent / "BENCHMARK.json").exists():
        shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{here.name}/run.py", "--workload", "grade-fresh",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            assert "metrics" not in json.loads(line)
        except ValueError:
            pass
