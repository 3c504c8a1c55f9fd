"""The benchmark's workloads: their inputs, the job a child runs, and the checks.

``prepare`` builds one workload's job in the parent process, outside every
timed phase: it writes the input files, loads the frozen reference report
and, for the solve workloads, computes each optimum with the ILP oracle.
The child (``child.py``) only runs the job; the parent checks the files it
leaves with ``Job.failures``.
"""

from __future__ import annotations

import json
import lzma
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from ridom.graphs import Graph, cycle_graph, double_star, encode_graph6, path_graph
from ridom.reduction import build_reduction
from ridom.solver import Labeling, validate, weight

import oracle

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Seeds of solve-hard whose reports (lex-min witnesses included) are frozen
# under reference/; every other seed is checked by the ILP oracle and
# ``validate`` only.
FROZEN_SOLVE_SEEDS = range(10)

# solve-hard at k=2: G(n, p) instances drawn from the workload seed.  Their
# share of the workload's time is kept small (about a quarter) and spread over
# many instances of the shapes whose solve time varies least between seeds,
# so the workload costs nearly the same on every seed.  G(n, p) with n >= 24
# is left out: its solve time varies up to 20x between seeds (G(28, 0.1)).
GNP_SPEC = ((20, 0.1, 4), (20, 0.3, 2), (20, 0.6, 8), (22, 0.6, 1))
# Fixed instances.  C25 and C30 at k=3 are excluded: C25 alone takes 209 s
# with the seed's gamma_bnb, and C30 at k=3 far longer.
CYCLES_K3 = (16, 17, 18)


@dataclass
class Job:
    """One workload execution: what the child runs and how its output is judged."""

    spec: dict                   # JSON handed to the child
    attempted: int               # input graphs per execution
    cli_outputs: list[str]       # report files the CLI writes
    failures: Callable[[int], int]  # child exit code -> failed input graphs
    trace_totals: dict[str, int]  # span counts the traced run must reproduce


def read_reference(ref_dir: str, name: str) -> list[str]:
    with lzma.open(os.path.join(ref_dir, name + ".txt.xz"), "rt", encoding="ascii") as fh:
        return fh.read().splitlines()


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().splitlines()
    except (OSError, UnicodeDecodeError):
        return []


def block_failures(got: list[str], n: int, summary: Optional[str],
                   ref: Optional[list[str]], check: Optional[Callable[[int, str], bool]]) -> int:
    """Failed records among ``n`` record lines followed by one summary line.

    A record fails when it is missing, differs from the reference line or
    fails ``check``.  A wrong or missing summary fails every record.
    """
    if got[n:] != ([] if summary is None else [summary]):
        return n
    failed = 0
    for i in range(n):
        line = got[i] if i < len(got) else None
        ok = (line is not None
              and (ref is None or line == ref[i])
              and (check is None or check(i, line)))
        failed += not ok
    return failed


# ---------------------------------------------------------------------------
# complement-sum stream through the CLI


def _ng(ref_name: str, n: int, work: str, ref_dir: str) -> Job:
    out = os.path.join(work, "ng.tsv")
    ref = read_reference(ref_dir, ref_name)
    records = len(ref) - 1

    def failures(rc: int) -> int:
        if rc != 0:
            return records
        return block_failures(_read_lines(out), records, ref[-1], ref, None)

    argv = ["ng", "--enumerate", str(n), "--workers", "2", "--out", out]
    return Job({"action": "cli", "argv": [argv]}, records, [out], failures,
               {"nordhaus.ng_record.worker_calls": records})


# ---------------------------------------------------------------------------
# exact solves through the CLI, one invocation per k


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def _reduction_target(rng: random.Random) -> Graph:
    # random bipartite source on parts {0..4} and {5..9}; target has 20 vertices
    edges = [(x, y) for x in range(5) for y in range(5, 10) if rng.random() < 0.5]
    source = Graph.from_edges(10, edges)
    return build_reduction(source, (0b11111, 0b11111 << 5), 2).target


def solve_hard_instances(seed: int) -> dict[int, list[Graph]]:
    rng = random.Random(seed)
    k2 = [_gnp(n, p, rng) for n, p, count in GNP_SPEC for _ in range(count)]
    k2 += [cycle_graph(30), double_star(9, 8), _reduction_target(rng)]
    return {2: k2, 3: [cycle_graph(n) for n in CYCLES_K3]}


def _solve(ref_name: Optional[str], instances: dict[int, list[Graph]], work: str,
           ref_dir: str) -> Job:
    if not oracle.available():
        print("notice: scipy is not installed; solve values are checked by "
              "validate and the frozen reports only", file=sys.stderr)
    ref = read_reference(ref_dir, ref_name) if ref_name else None
    blocks = []
    argv = []
    for k, graphs in sorted(instances.items()):
        src = os.path.join(work, f"solve-k{k}.g6")
        out = os.path.join(work, f"solve-k{k}.tsv")
        with open(src, "w", encoding="ascii") as fh:
            fh.write("".join(encode_graph6(g) + "\n" for g in graphs))
        optima = [oracle.ilp_optimum(g.n, g.adj, k) for g in graphs]
        argv.append(["solve", "--k", str(k), "--input", src, "--out", out])
        blocks.append((k, graphs, optima, out))
    attempted = sum(len(graphs) for _, graphs, _, _ in blocks)

    def failures(rc: int) -> int:
        if rc != 0:
            return attempted
        failed = 0
        offset = 0
        for k, graphs, optima, out in blocks:
            n = len(graphs)

            def check(i: int, line: str, k=k, graphs=graphs, optima=optima) -> bool:
                fields = line.split("\t")
                if len(fields) != 5:
                    return False
                g = graphs[i]
                if fields[:3] != [encode_graph6(g), str(g.n), str(k)]:
                    return False
                try:
                    value = int(fields[3])
                    witness = Labeling.from_text(k, fields[4])
                except ValueError:
                    return False
                if optima[i] is not None and value != optima[i]:
                    return False
                return (len(witness.labels) == g.n and weight(witness) == value
                        and not validate(g, witness))

            summary = json.dumps({"command": "solve", "k": k, "records": n}, sort_keys=True)
            block_ref = ref[offset:offset + n] if ref is not None else None
            failed += block_failures(_read_lines(out), n, summary, block_ref, check)
            offset += n + 1
        return failed

    return Job({"action": "cli", "argv": argv}, attempted,
               [out for _, _, _, out in blocks], failures,
               {"solver.gamma_bnb.calls": attempted})


# ---------------------------------------------------------------------------
# isomorph-free enumeration, then one shared-cache record per class


def _noniso(n: int, expected_canonical_calls: int, work: str, ref_dir: str) -> Job:
    out = os.path.join(work, "noniso.tsv")
    name = f"noniso-{n}"
    ref = read_reference(ref_dir, name)

    def failures(rc: int) -> int:
        if rc != 0:
            return len(ref)
        return block_failures(_read_lines(out), len(ref), None, ref, None)

    return Job({"action": "noniso", "n": n, "out": out}, len(ref), [], failures,
               {"graphs.canonical_form.calls": expected_canonical_calls})


def prepare(name: str, seed: int, work: str, ref_dir: str = REFERENCE_DIR) -> Job:
    """Build the job of workload ``name`` for ``seed`` inside directory ``work``."""
    if name == "ng-enum6":
        return _ng("ng-enum6", 6, work, ref_dir)
    if name == "solve-hard":
        ref_name = f"solve-hard-{seed}" if seed in FROZEN_SOLVE_SEEDS else None
        return _solve(ref_name, solve_hard_instances(seed), work, ref_dir)
    if name == "noniso-7":
        # 11,291 = sum over m < 7 of (classes on m vertices) * 2^m: the seed
        # algorithm extends every class by every new-vertex neighbourhood
        return _noniso(7, 11291, work, ref_dir)
    # tiny configurations for the self-test
    if name == "tiny-ng":
        return _ng("tiny-ng", 4, work, ref_dir)
    if name == "tiny-solve":
        return _solve("tiny-solve", {2: [path_graph(5)], 3: [cycle_graph(6)]}, work, ref_dir)
    raise KeyError(name)


WORKLOADS = ("ng-enum6", "solve-hard", "noniso-7")
SELFTEST_WORKLOADS = ("tiny-ng", "tiny-solve")

