"""Tests of the benchmark itself: seeded generation, the answer checks
and the tracer.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import copy
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import exact  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _setup(workload, tmp_path, keys):
    setup = run.Setup(workload, run.DEFAULT_SEED, tmp_path)
    setup.jobs = [job for job in setup.jobs if job.key in keys]
    assert [job.key for job in setup.jobs] == list(keys)
    return setup


def _failed(setup, pinned):
    ledger = run.Ledger(pinned)
    ledger.check_pass(setup.jobs, run.run_pass(setup)[1])
    return ledger


def test_generation_is_seeded_and_owned_by_the_benchmark():
    for workload in workloads.WORKLOADS:
        first = workloads.make_instances(workload, 7)
        assert first == workloads.make_instances(workload, 7)
        assert first != workloads.make_instances(workload, 8)
    assert "linfiso" not in workloads.__dict__


def test_planted_instances_are_isometric():
    for seed in range(3):
        f = workloads._planted_matrix(random.Random(seed), 7, 3)
        assert all(x.denominator == 1 for row in f for x in row)
        assert min(b for _, b in exact.per_set_bounds(f)) == 1


def test_crosscheck_cells_follow_the_distribution():
    count = workloads.CROSSCHECK_COUNT
    cells = workloads._crosscheck_cells(count)
    assert sum(cells.values()) == count
    sizes = range(2, workloads.CROSSCHECK_MAX_N + 1)
    for (n, m), copies in cells.items():
        codims = min(workloads.CROSSCHECK_MAX_M, n - 1)
        assert n in sizes and 1 <= m <= codims
        assert abs(copies - count / (len(sizes) * codims)) < 1


def test_hyperplane_closed_form():
    from fractions import Fraction as F

    assert exact.hyperplane_constant([F(1), F(1), F(2)]) == 1
    # three equal weights: 1 + (3 * (1/3) / (1/3))^-1 = 4/3
    assert exact.hyperplane_constant([F(1), F(1), F(1)]) == F(4, 3)


def test_pinned_answers_pass(tmp_path):
    setup = _setup("projconst_ladder", tmp_path, ["n5m2q0.projconst"])
    assert _failed(setup, setup.pinned).failed == 0


def test_altered_lambda_is_caught(tmp_path):
    setup = _setup("projconst_ladder", tmp_path, ["n5m2q0.projconst"])
    pinned = copy.deepcopy(setup.pinned)
    answer = pinned["answers"]["n5m2q0.projconst"]
    answer["lambda"] = str(2 * run.check.Fraction(answer["lambda"]))
    ledger = _failed(setup, pinned)
    assert ledger.failed == 1 and not ledger.correct


def test_planted_recorded_as_not_isometric_is_caught(tmp_path):
    key = "n13m3p.decide"
    setup = _setup("scan_wide", tmp_path, [key])
    pinned = copy.deepcopy(setup.pinned)
    pinned["answers"][key].update(verdict="not isometric", code=1, witness_set=None)
    ledger = _failed(setup, pinned)
    assert ledger.failed == 1 and not ledger.correct


def test_wrong_answer_is_caught_without_references(tmp_path):
    setup = _setup("crosscheck_small", tmp_path, ["n4m1c0.crosscheck"])
    job = setup.jobs[0]
    raw = [(name, passed, detail.replace("upper=", "upper=9")) for name, passed, detail
           in setup.linfiso.crosscheck.check_instance(
               setup.linfiso.instances.load_instance(setup.paths[job.instance.key]))]
    ledger = run.Ledger(None)
    ledger.check_pass(setup.jobs, [(raw, None)])
    assert ledger.failed == 1


def test_traced_pass_reports_every_layer_and_restores_the_package(tmp_path):
    setup = _setup("crosscheck_small", tmp_path, ["n5m3c0.crosscheck"])
    kernels = setup.linfiso._kernels
    original = kernels.pivot
    tracer = Tracer()
    tracer.install()
    try:
        latencies, _ = run.run_pass(setup, tracer)
    finally:
        tracer.uninstall()
    assert kernels.pivot is original and setup.linfiso.lp._kernels.pivot is original
    figures = tracer.metrics(sum(latencies))
    assert set(figures) == set(METRICS) - {"trace.overhead_frac"}
    assert tracer.absent == []
    assert figures["lp.pivots"] == figures["kernels.pivot_calls"] > 0
    assert figures["cli.self_s"] == 0  # no CLI job in this workload
    assert 0 < figures["decide.scan_fraction"] <= 1


def test_missing_entry_point_is_reported_absent(tmp_path, monkeypatch):
    setup = _setup("crosscheck_small", tmp_path, ["n3m1c0.crosscheck"])
    monkeypatch.delattr(setup.linfiso.projection, "verify_norm_gap")
    tracer = Tracer()
    tracer.install()
    try:
        latencies, results = run.run_pass(setup, tracer)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["linfiso.projection.verify_norm_gap"]
    assert "crosscheck.norm_gap_s" not in tracer.metrics(sum(latencies))


def test_meter_reads_times_at_reference_speed(monkeypatch):
    # A machine at half the reference speed: every probe takes twice as long.
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_S)
    handler = signal.getsignal(signal.SIGALRM)
    result, raw, scaled = speed.Meter().timed(lambda: time.sleep(0.1) or "done")
    assert result == "done"
    assert 0 < raw < 0.1 + 0.05  # the probes run inside the call are left out
    assert scaled == pytest.approx(raw / 2)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "scan_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
