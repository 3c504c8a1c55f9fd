"""Regenerate the frozen reference reports under ``perfbench/reference/``.

    python3 perfbench/freeze.py

Run it only on a commit whose reports are known good: the benchmark fails
every record that differs from these files.  The references in the
repository were made on the commit that introduced the benchmark, with the
program unchanged, and every solve value in them agrees with the ILP oracle.
"""

from __future__ import annotations

import lzma
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from ridom import cli, graphs, nordhaus  # noqa: E402
from ridom.graphs import cycle_graph, encode_graph6, path_graph  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def cli_report(argv: list[str], tmp: str) -> str:
    out = os.path.join(tmp, "out.tsv")
    rc = cli.run([*argv, "--out", out])
    if rc != 0:
        raise SystemExit(f"ridom {' '.join(argv)} exited {rc}")
    with open(out, encoding="ascii") as fh:
        return fh.read()


def solve_report(instances: dict, tmp: str) -> str:
    text = ""
    for k, gs in sorted(instances.items()):
        src = os.path.join(tmp, "in.g6")
        with open(src, "w", encoding="ascii") as fh:
            fh.write("".join(encode_graph6(g) + "\n" for g in gs))
        report = cli_report(["solve", "--k", str(k), "--input", src], tmp)
        for g, line in zip(gs, report.splitlines()):
            value = int(line.split("\t")[3])
            if oracle.available() and oracle.ilp_optimum(g.n, g.adj, k) != value:
                raise SystemExit(f"ILP oracle disagrees with the report line {line!r}")
        text += report
    return text


def write(name: str, text: str) -> None:
    path = os.path.join(workloads.REFERENCE_DIR, name + ".txt.xz")
    with lzma.open(path, "wt", encoding="ascii", preset=9) as fh:
        fh.write(text)
    print(f"{path}: {text.count(chr(10))} lines")


def main() -> int:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write("tiny-ng", cli_report(["ng", "--enumerate", "4", "--workers", "2"], tmp))
        write("tiny-solve", solve_report({2: [path_graph(5)], 3: [cycle_graph(6)]}, tmp))
        write("ng-enum6", cli_report(["ng", "--enumerate", "6", "--workers", "2"], tmp))
        cache: dict = {}
        write("noniso-7", "".join(nordhaus.ng_record(g, cache).to_line() + "\n"
                                  for g in graphs.enumerate_nonisomorphic(7)))
        for seed in workloads.FROZEN_SOLVE_SEEDS:
            write(f"solve-hard-{seed}", solve_report(workloads.solve_hard_instances(seed), tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
