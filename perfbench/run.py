"""linfiso benchmark: end-to-end and per-layer figures for three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload projconst_ladder --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: one caller, each job starts when
the previous one returns.  CLI jobs call linfiso.cli.main(argv) in
process with stdout captured; library jobs call the public functions.
A pass runs the workload's fixed job list once; passes repeat while the
next one should end inside --seconds, and at least two run, so that
every run checks that two passes give the same answers.  Answer checks
run between passes and are not timed.

Times are read at one machine speed (speed.py): a fixed probe runs
before, during and after every job and every set-up, and each time is
scaled by the probe's reference time over the probes' mean time.  A
job's latency is the median of its scaled times over the untraced
passes; setup_s is the median scaled set-up time.  The raw, unscaled
figures are printed too, above the result line.

--trace 0 reports the end-to-end metrics (wall_norm_s,
latency_p50_norm_ms, peak_rss_mb, setup_s).  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of
tracing.py, measured on the traced passes; their times are not scaled.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

The program is imported from ./src, never from an installed copy; with
no ./src/linfiso the run exits 2 without a result."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import check
import speed
import workloads
from tracing import METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3  # set-ups before the first pass; each pass adds one


class Setup:
    """Everything a run needs before its first timed job."""

    def __init__(self, workload, seed, work_dir, load_refs=True):
        for name in [n for n in sys.modules if n == "linfiso" or n.startswith("linfiso.")]:
            del sys.modules[name]
        import linfiso
        import linfiso.cli  # noqa: F401  (the CLI module is not imported by the package)

        self.linfiso = linfiso
        self.jobs = workloads.make_jobs(workload, workloads.make_instances(workload, seed))
        self.paths = {}
        work_dir.mkdir(parents=True, exist_ok=True)
        for job in self.jobs:
            inst = job.instance
            if inst.key not in self.paths:
                path = work_dir / f"{inst.key}.txt"
                path.write_text(inst.text(), encoding="utf-8")
                self.paths[inst.key] = str(path)
        self.pinned = None
        if load_refs and seed == DEFAULT_SEED:
            self.pinned = json.loads(REFS.read_text(encoding="utf-8"))["workloads"][workload]


class Ledger:
    """Answer checks across the passes of one run."""

    def __init__(self, pinned):
        self.pinned = pinned
        self.memo = defaultdict(dict)  # instance key -> independent facts
        self.first = {}  # job key -> (output, problems) of the first pass
        self.digests = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.answers = {}

    def check_pass(self, jobs, results):
        earlier = defaultdict(dict)
        answers = []
        pinned = None if self.pinned is None else self.pinned["answers"]
        for job, (raw, error) in zip(jobs, results):
            self.attempted += 1
            answer = None
            if error is not None:
                found = [f"raised {error!r}"]
            else:
                try:
                    answer, output, detail = check.answer_of(job, raw)
                    earlier[job.instance.key][job.kind] = (answer, detail)
                    if job.key in self.first:
                        first_output, found = self.first[job.key]
                        if output != first_output:
                            found = ["output differs from the first pass"] + check.problems(
                                job, answer, detail, self.memo[job.instance.key],
                                earlier[job.instance.key], pinned)
                    else:
                        found = check.problems(job, answer, detail, self.memo[job.instance.key],
                                               earlier[job.instance.key], pinned)
                        self.first[job.key] = (output, found)
                except Exception as exc:  # a malformed answer is a failed job, not a crash
                    found = [f"answer could not be checked: {exc!r}"]
            answers.append([job.key, answer])
            self.answers[job.key] = answer
            if found:
                self.failed += 1
                self.failures.append(f"{job.key}: {'; '.join(found)}")
        self.digests.append(digest(answers))

    @property
    def correct(self):
        same = len(set(self.digests)) == 1
        pinned_ok = self.pinned is None or self.digests[0] == self.pinned["digest"]
        return self.failed == 0 and same and pinned_ok


def digest(answers):
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


def run_job(setup, job):
    """The job's (raw result, None), or (None, the exception it raised)."""
    try:
        return workloads.run_job(setup.linfiso, job, setup.paths[job.instance.key]), None
    except Exception as exc:  # a job that raises counts as failed
        return None, exc


def run_pass(setup, tracer=None, scaled=None, meter=None):
    """Runs every job once; returns the raw latencies and the results.
    With a scaled list, appends each job's time at reference speed."""
    meter = meter or speed.Meter()
    latencies, results = [], []
    for job in setup.jobs:
        if tracer is not None:
            tracer.instance = job.instance.key
        # Traced passes time their spans, so no probe runs inside a job.
        result, seconds, at_reference = meter.timed(lambda: run_job(setup, job),
                                                    sample=tracer is None)
        latencies.append(seconds)
        results.append(result)
        if scaled is not None:
            scaled.append(at_reference)
    return latencies, results


def timed_setup(new_setup, setup_times, meter):
    """A fresh set-up; appends its (raw, scaled) time to setup_times."""
    setup, seconds, at_reference = meter.timed(new_setup)
    setup_times.append((seconds, at_reference))
    return setup


def measure(new_setup, seconds, trace):
    """Passes while the next should end within `seconds`, and at least
    two; with trace, every second pass is traced.  Each pass starts from
    a fresh set-up, so the set-up times are spread over the run.  Returns
    the (raw, scaled) set-up times, the last set-up, the ledger, the
    per-pass raw and scaled job latencies of untraced (False) and traced
    (True) passes, the per-layer figures of each traced pass, LP pivots
    per instance and the absent entry points."""
    setup_times = []
    meter = speed.Meter()
    for _ in range(SETUP_REPEATS):
        setup = timed_setup(new_setup, setup_times, meter)
    ledger = Ledger(setup.pinned)
    tracer = Tracer() if trace else None
    latencies = {False: [], True: []}
    scaled = {False: [], True: []}
    layers, pivots = [], {}
    start = last = time.perf_counter()
    while True:
        now = time.perf_counter()
        passes = len(latencies[False]) + len(latencies[True])
        if passes >= 2 and (now - start) + (now - last) > seconds:
            break  # the next pass would likely end after the time budget
        last = now
        setup = timed_setup(new_setup, setup_times, meter)
        pass_scaled = []
        traced = bool(trace) and len(latencies[False]) > len(latencies[True])
        if traced:
            tracer.reset()
            tracer.install()
            try:
                lat, results = run_pass(setup, tracer, pass_scaled, meter)
            finally:
                tracer.uninstall()
            layers.append(tracer.metrics(sum(lat)))
            pivots = {k: v["pivots"] for k, v in tracer.per_instance.items()}
        else:
            lat, results = run_pass(setup, scaled=pass_scaled, meter=meter)
        latencies[traced].append(lat)
        scaled[traced].append(pass_scaled)
        ledger.check_pass(setup.jobs, results)
    return (setup_times, setup, ledger, latencies, scaled, layers, pivots,
            tracer.absent if trace else [])


def per_job(passes):
    """Each job's latency: its median over the passes."""
    return [statistics.median(runs) for runs in zip(*passes)]


def context(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "linfiso").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "commit": commit, "source_sha256": source.hexdigest()[:16],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "linfiso" / "__init__.py").is_file():
        print(f"error: no linfiso sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = Setup(args.workload, args.seed, work_dir)
        if not Path(setup.linfiso.__file__).resolve().is_relative_to(SRC):
            print(f"error: linfiso imported from {setup.linfiso.__file__}", file=sys.stderr)
            return 2
        setup_times, setup, ledger, latencies, scaled, layers, pivots, absent = measure(
            lambda: Setup(args.workload, args.seed, work_dir), args.seconds, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    print("context:", json.dumps(context(args)))
    print(f"passes: {len(latencies[False])} untraced, {len(latencies[True])} traced;"
          f" {len(setup.jobs)} jobs each")
    for failure in ledger.failures[:20]:
        print("FAIL", failure)
    pinned = "not pinned for this seed" if setup.pinned is None else (
        "matches pinned" if ledger.digests[0] == setup.pinned["digest"] else "DIFFERS FROM PINNED")
    print(f"answer digest: {ledger.digests[0][:16]} ({pinned});"
          f" passes agree: {len(set(ledger.digests)) == 1}")
    if args.workload == "projconst_ladder":
        for job in setup.jobs:
            answer = ledger.answers.get(job.key) or {}
            extra = f" lp.pivots={pivots.get(job.instance.key)}" if args.trace else ""
            print(f"instance {job.instance.key}: lambda={answer.get('lambda')}{extra}")
    print(f"failed_frac = {ledger.failed / ledger.attempted:.6g} ratio"
          f" ({ledger.failed} of {ledger.attempted} jobs)")

    jobs = per_job(scaled[False])
    raw = per_job(latencies[False])
    if args.trace:
        metrics = {"trace.overhead_frac": sum(per_job(scaled[True])) / sum(jobs) - 1}
        for name in METRICS:
            values = [layer[name] for layer in layers if name in layer]
            if values:
                metrics[name] = statistics.median(values)
        if absent:
            print("absent entry points:", ", ".join(absent))
        for name in METRICS:
            if name not in metrics:
                print(f"{name}: absent")
        out = {name: {"value": metrics[name], "unit": unit}
               for name, (unit, _) in METRICS.items() if name in metrics}
    else:
        p90 = statistics.quantiles(jobs, n=10)[-1]
        beyond = sum(1 for x in jobs if x > p90)
        if beyond >= 10:
            print(f"latency_p90_norm_ms = {p90 * 1000:.6g} ms ({len(jobs)} jobs, {beyond} beyond it)")
        else:
            print(f"latency_p90_norm_ms: not reported, {beyond} of {len(jobs)} jobs beyond it")
        print(f"raw, unscaled: wall_s = {sum(raw):.6g} s, latency_p50_ms ="
              f" {statistics.median(raw) * 1000:.6g} ms, setup_s ="
              f" {statistics.median(t for t, _ in setup_times):.6g} s")
        out = {
            "wall_norm_s": {"value": sum(jobs), "unit": "s"},
            "latency_p50_norm_ms": {"value": statistics.median(jobs) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(t for _, t in setup_times), "unit": "s"},
        }
    for name, metric in out.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
