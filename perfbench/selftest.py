"""Self-test of the benchmark on tiny configurations (a few seconds).

    python3 perfbench/selftest.py

``tiny-ng`` is ``ridom ng --enumerate 4 --workers 2``; ``tiny-solve`` is two
small solves, P5 at k=2 and C6 at k=3.  The test checks that

* one command prints every metric of ``BENCHMARK.json`` with its unit, for
  both the untraced and the traced run, and the traced run reconciles;
* a deliberately wrong reference report makes ``passed_frac`` drop below 1;
* a child that exits nonzero counts every one of its inputs as failed.

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import lzma
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def corrupt_reference(src_dir: str, dst_dir: str, name: str) -> None:
    """Copy the references and change the value field of the first record of ``name``."""
    shutil.copytree(src_dir, dst_dir)
    path = os.path.join(dst_dir, name + ".txt.xz")
    with lzma.open(path, "rt", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    fields = lines[0].split("\t")
    fields[3] = str(int(fields[3]) + 1)
    lines[0] = "\t".join(fields)
    with lzma.open(path, "wt", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(label: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            failures.append(label)

    for workload in ("tiny-ng", "tiny-solve"):
        for trace in (0, 1):
            res = bench(workload, trace)
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            check(f"{workload} --trace {trace}: every metric printed with its unit", got == want[trace])
            check(f"{workload} --trace {trace}: correct, nothing failed",
                  res["correct"] and res["failed"] == 0 and res["attempted"] > 0)

    scratch = os.path.join(ROOT, ".perfbench_out", "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        for workload in ("tiny-ng", "tiny-solve"):
            bad_dir = os.path.join(scratch, workload)
            corrupt_reference(os.path.join(HERE, "reference"), bad_dir, workload)
            res = bench(workload, 0, "--reference-dir", bad_dir)
            check(f"{workload}: a wrong reference line fails its graph",
                  not res["correct"] and 0 < res["failed"] < res["attempted"]
                  and res["metrics"]["passed_frac"]["value"] < 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for workload in ("tiny-ng", "tiny-solve"):
        res = bench(workload, 0, "--fault", "exit")
        check(f"{workload}: a child exiting nonzero fails all its inputs",
              not res["correct"] and res["failed"] == res["attempted"]
              and res["metrics"]["passed_frac"]["value"] == 0)

    print("self-test passed" if not failures else f"self-test FAILED: {len(failures)} checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
