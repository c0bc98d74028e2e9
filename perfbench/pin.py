"""Write refs.json: the reference answers for the default seed.

    python3 perfbench/pin.py

Run once per workload at the commit whose answers become the reference.
Every answer must first pass the independent checks in check.py."""

import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    refs = {"seed": run.DEFAULT_SEED, "workloads": {}}
    work_dir = run.ROOT / ".perfbench_work" / "pin"
    try:
        for workload in workloads.WORKLOADS:
            setup = run.Setup(workload, run.DEFAULT_SEED, work_dir, load_refs=False)
            ledger = run.Ledger(None)
            ledger.check_pass(setup.jobs, run.run_pass(setup)[1])
            if ledger.failed:
                print("\n".join(ledger.failures), file=sys.stderr)
                return 1
            refs["workloads"][workload] = {
                "digest": ledger.digests[0],
                "answers": {job.key: ledger.answers[job.key] for job in setup.jobs},
            }
            print(f"{workload}: {len(setup.jobs)} answers, digest {ledger.digests[0][:16]}")
    finally:
        run.shutil.rmtree(work_dir.parent, ignore_errors=True)
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
