"""ridom's benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload ng-enum6 --seed 1 --seconds 35 --trace 0

Every execution of the workload is a fresh child process (``child.py``), so
``lru_cache``s, the ``GammaCache`` and peak RSS never carry over from one
execution to the next.  The parent launches one child at a time, closed loop,
until the next child would end after ``--seconds`` (at least two children),
checks every child's output, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  The parent, every child
and their pool workers share one CPU (see ``pin_to_one_cpu``).

With ``--trace 0`` the metrics are the end-to-end ones, with tracing off.
With ``--trace 1`` the parent alternates an untraced and a traced child and
prints the per-layer metrics derived from the traced children's spans (see
``spans.py``), plus the tracing overhead.  Span files stay under
``.perfbench_out/trace/<workload>/`` in the checkout.

Exit codes: 0 with a result line (``correct`` may still be false), 2 when the
program's sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Optional

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

END_TO_END_UNITS = {
    "graphs_per_s": "graphs/s",
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
}

PER_LAYER_UNITS = {
    "solver.gamma_bnb.calls": "count",
    "solver.gamma_bnb.nodes": "count",
    "solver.gamma_bnb.nodes_max": "count",
    "solver.gamma_bnb.s": "s",
    "solver.gamma_bnb.self_s": "s",
    "solver.gamma_bnb.call_max_s": "s",
    "graphs.components.calls": "count",
    "graphs.components.s": "s",
    "graphs.complement.calls": "count",
    "graphs.complement.s": "s",
    "graphs.canonical_form.calls": "count",
    "graphs.canonical_form.s": "s",
    "graphs.enumerate_nonisomorphic.s": "s",
    "graphs.noniso_yield": "ratio",
    "graphs.enumerate_labeled_graphs.s": "s",
    "graphs.encode_graph6.calls": "count",
    "graphs.encode_graph6.s": "s",
    "graphs.parse_graph6.calls": "count",
    "graphs.parse_graph6.s": "s",
    "nordhaus.ng_record.calls": "count",
    "nordhaus.ng_record.worker_calls": "count",
    "nordhaus.ng_record.self_s": "s",
    "nordhaus.cache_hit_ratio": "ratio",
    "cli.run.s": "s",
    "cli.report_bytes": "bytes",
    "cli.pool.workers": "count",
    "cli.pool.busy_frac": "ratio",
    "cli.pool.parent_s": "s",
    "trace_overhead_frac": "ratio",
}

MIN_CHILDREN = 2         # untraced children per untraced run
MIN_PAIRS = 1            # untraced/traced pairs per traced run
SETUP_PROBES = 5         # extra children that only import the program
HARD_LIMIT_S = 165.0     # the whole run, oracle included, ends before 180 s


class ChildRun:
    """Measurements of one child process, taken by the parent."""

    def __init__(self, launch_ns: int, end_ns: int, rc: int, rusage, result: Optional[dict]):
        self.wall_s = (end_ns - launch_ns) / 1e9
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        # Linux reports kilobytes; see child.peak_rss_kb for why the child measures
        self.rss_mb = (result["peak_rss_kb"] if result else rusage.ru_maxrss) / 1024
        self.rc = rc
        self.setup_s = (result["ready_ns"] - launch_ns) / 1e9 if result else None
        self.timed_s = (result["done_ns"] - result["ready_ns"]) / 1e9 if result else self.wall_s
        self.failed = 0
        self.layers: dict[str, float] = {}


def launch(job_path: str, work: str, timeout: float, extra: list[str]) -> ChildRun:
    """Run one child and wait for it, collecting its and its workers' rusage."""
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.unlink(result_path)
    cmd = [sys.executable, CHILD, "--job", job_path, "--result", result_path, *extra]
    box: dict = {}
    launch_ns = time.monotonic_ns()
    # its own process group, so that a kill also reaches its pool workers
    proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT, start_new_session=True)

    reaped = threading.Event()

    def waiter() -> None:
        # wait4 reports the child's rusage including the workers it reaped
        _, status, rusage = os.wait4(proc.pid, 0)
        box.update(end_ns=time.monotonic_ns(), status=status, rusage=rusage)
        reaped.set()

    threading.Thread(target=waiter).start()
    try:
        reaped.wait(max(1.0, timeout))
    finally:
        if not reaped.is_set():
            print("error: stopping the child", file=sys.stderr)
            os.killpg(proc.pid, signal.SIGKILL)
            reaped.wait()
    proc.returncode = os.waitstatus_to_exitcode(box["status"])
    try:
        with open(result_path, encoding="ascii") as fh:
            result = json.load(fh)
    except (OSError, ValueError):  # the child crashed before writing it
        result = None
    return ChildRun(launch_ns, box["end_ns"], proc.returncode, box["rusage"], result)


def _terminate(*_) -> None:
    # unwind on the first SIGTERM: ``launch`` kills the running child and
    # ``main`` removes its scratch files; further SIGTERMs must not interrupt that
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(143)


def pin_to_one_cpu() -> None:
    """Confine this process, and so every process it starts, to one CPU.

    On a host of few shared CPUs, ``ng-enum6``'s two pool workers running at
    once make its times depend on whether the host grants both CPUs together;
    across runs that spread its times by up to a third.  Confined, the workers
    take turns on one CPU, like the single-process workloads: the times keep
    every cost of the pool (fork, chunk encoding and parsing, the complements
    each chunk solves again) but no parallel speed-up.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test hooks: a reference directory to check against, and a fault
    # the child injects (``exit``: exit nonzero after running the workload)
    parser.add_argument("--reference-dir", help=argparse.SUPPRESS)
    parser.add_argument("--fault", choices=("exit",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    pin_to_one_cpu()

    if not os.path.exists(os.path.join(ROOT, "src", "ridom", "__init__.py")):
        print(f"error: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS + workloads.SELFTEST_WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    started = time.monotonic()
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        ref_dir = args.reference_dir or workloads.REFERENCE_DIR
        job = workloads.prepare(args.workload, args.seed, work, ref_dir)
        job.spec["fault"] = args.fault
        job_path = os.path.join(work, "job.json")
        with open(job_path, "w", encoding="ascii") as fh:
            json.dump(job.spec, fh)
        trace_root = os.path.join(OUT_DIR, "trace", args.workload)
        if args.trace:
            shutil.rmtree(trace_root, ignore_errors=True)
            os.makedirs(trace_root)

        def remaining() -> float:
            return HARD_LIMIT_S - (time.monotonic() - started)

        setups = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            probe = launch(job_path, work, remaining(), ["--setup-only"])
            if probe.setup_s is not None:
                setups.append(probe.setup_s)

        def run_child(traced: bool) -> ChildRun:
            extra = []
            trace_dir = None
            if traced:
                run_id = f"{args.workload}-s{args.seed}-{len(traced_runs)}"
                trace_dir = os.path.join(trace_root, run_id)
                os.makedirs(trace_dir)
                extra = ["--trace-dir", trace_dir, "--run-id", run_id]
            child = launch(job_path, work, remaining(), extra)
            child.failed = job.failures(child.rc)
            if traced:
                child.layers = traced_layers(job, child, trace_dir)
                traced_runs.append(child)
            else:
                plain_runs.append(child)
            return child

        measure_start = time.monotonic()
        plain_runs: list[ChildRun] = []
        traced_runs: list[ChildRun] = []
        while True:
            batch = [run_child(False)]
            if args.trace:
                batch.append(run_child(True))
            done = len(plain_runs)
            elapsed = time.monotonic() - measure_start
            next_cost = sum(c.wall_s for c in batch)
            if done >= (MIN_PAIRS if args.trace else MIN_CHILDREN) and elapsed + next_cost > args.seconds:
                break
            if remaining() < 2 * next_cost:
                break
        children = plain_runs + traced_runs

        attempted = job.attempted * len(children)
        failed = sum(min(c.failed, job.attempted) for c in children)
        reconciled = True
        if args.trace:
            reconciled = reconcile(job, traced_runs)
            if not reconciled:
                failed = attempted
            metrics = {name: median([c.layers[name] for c in traced_runs])
                       for name in PER_LAYER_UNITS if name != "trace_overhead_frac"}
            metrics["trace_overhead_frac"] = (
                median([c.wall_s for c in traced_runs]) / median([c.wall_s for c in plain_runs]) - 1)
            units = PER_LAYER_UNITS
        else:
            setups.extend(c.setup_s for c in plain_runs if c.setup_s is not None)
            metrics = {
                "graphs_per_s": median([job.attempted / c.timed_s for c in plain_runs]),
                "wall_s": median([c.wall_s for c in plain_runs]),
                "setup_s": median(setups),
                "cpu_s": median([c.cpu_s for c in plain_runs]),
                "peak_rss_mb": median([c.rss_mb for c in plain_runs]),
                "passed_frac": 1 - failed / attempted,
            }
            units = END_TO_END_UNITS
        print(f"{args.workload} seed={args.seed}: {len(plain_runs)} untraced and "
              f"{len(traced_runs)} traced children, {len(setups)} set-up samples, "
              f"{failed}/{attempted} inputs failed", file=sys.stderr)
        print(json.dumps({
            "correct": failed == 0 and reconciled,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_layers(job, child: ChildRun, trace_dir: str) -> dict[str, float]:
    """Per-layer metrics of one traced child, from its span files."""
    found = spans.read_spans(trace_dir)
    root_pids = {s.key[0] for s in found if s.parent == (0, 0)}
    if len(root_pids) != 1:
        print(f"error: expected spans from one traced child, found roots {root_pids}",
              file=sys.stderr)
        child.failed = job.attempted
        return {name: 0.0 for name in PER_LAYER_UNITS}
    layers = spans.layer_metrics(found, root_pids.pop())
    layers["cli.report_bytes"] = sum(os.path.getsize(p) for p in job.cli_outputs if os.path.exists(p))
    return layers


def reconcile(job, traced_runs: list[ChildRun]) -> bool:
    """Span counts must match the workload's known totals in every traced child,
    and the solver's node counts must repeat exactly."""
    ok = True
    for child in traced_runs:
        for name, expected in job.trace_totals.items():
            if child.layers.get(name) != expected:
                print(f"error: trace reconciliation: {name} = {child.layers.get(name)}, "
                      f"expected {expected}", file=sys.stderr)
                ok = False
    nodes = {c.layers.get("solver.gamma_bnb.nodes") for c in traced_runs}
    if len(nodes) > 1:
        print(f"error: trace reconciliation: gamma_bnb nodes differ between runs: {nodes}",
              file=sys.stderr)
        ok = False
    return ok


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
