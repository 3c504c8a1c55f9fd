"""One execution of one workload, in a fresh interpreter.

Run by ``run.py``, never by hand: ``python3 perfbench/child.py --job JOB.json
--result RESULT.json [--trace-dir DIR --run-id ID] [--setup-only]``.

Set-up ends when the program is imported, right before its first call; the
timed phase runs from there until the workload's last call returns.  Both
instants are ``time.monotonic_ns`` readings, which the parent compares with
its own launch time.  The child writes them to RESULT.json and exits with the
program's exit code.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import ridom  # noqa: E402
import ridom.cli  # noqa: E402


def run_job(job: dict) -> tuple[int, str]:
    """Run the workload; return its exit code and any report it leaves to write."""
    if job["action"] == "cli":
        rc = 0
        for argv in job["argv"]:
            rc = max(rc, ridom.cli.run(argv))
        return rc, ""
    if job["action"] == "noniso":
        classes = ridom.graphs.enumerate_nonisomorphic(job["n"])
        cache: dict = {}
        records = [ridom.nordhaus.ng_record(g, cache) for g in classes]
        return 0, "".join(rec.to_line() + "\n" for rec in records)
    raise ValueError(f"unknown action {job['action']!r}")


def peak_rss_kb() -> int:
    """Peak RSS of this process and of the workers it has reaped, in KiB.

    The kernel's ``ru_maxrss`` for an exec'd process also keeps the high-water
    mark of the address space it replaced, which here is the benchmark
    parent's; ``VmHWM`` covers this program's own address space only.
    Workers are forks without exec, so their ``ru_maxrss`` is their own.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--job", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    with open(args.job, encoding="ascii") as fh:
        job = json.load(fh)
    tracer = None
    if args.trace_dir:
        import spans
        tracer = spans.install(args.run_id, args.trace_dir)

    ready = time.monotonic_ns()
    rc, report = 0, ""
    if not args.setup_only:
        rc, report = run_job(job)
    done = time.monotonic_ns()

    if tracer is not None:
        tracer.flush()
    if report:
        with open(job["out"], "w", encoding="ascii") as fh:
            fh.write(report)
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump({"ready_ns": ready, "done_ns": done, "rc": rc, "peak_rss_kb": peak_rss_kb()}, fh)
    if job.get("fault") == "exit" and not args.setup_only:
        return 3
    return rc


if __name__ == "__main__":
    sys.exit(main())
