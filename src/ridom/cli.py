"""Command line front end: deterministic TSV reports over graph streams.

Input graphs come from ``--input PATH`` or stdin (graph6 lines, optionally
``>>graph6<<``-headed and read one at a time, or a single edge-list file:
``n m`` header then ``u v`` lines), from ``--enumerate N`` (every labeled
graph) or from ``--noniso N`` (one graph per isomorphism class).  Every
subcommand writes one record line per graph followed by a JSON summary line,
and identical inputs produce byte-identical reports regardless of worker
count.  Record lines wait in a temporary file, so memory does not grow with
their count, and reach stdout or ``--out`` only once the whole stream has
succeeded.  Exit codes: 0 success, 1 bound violation or oracle mismatch, 2
usage or input error, 130 when interrupted (the message ``interrupted`` on
stderr, no traceback) and 141 when the reader of stdout has gone away
(nothing more is written; 141 is what a shell reports for a process that
SIGPIPE ends).

Each subcommand is declared once, on its subparser: a row function, which
turns one input graph into its record, the tallies its summary sums, the
options its summary echoes and an optional last step over the spooled
records.  The parsed arguments are the run's configuration, which rows and
pool workers receive as they are.  All subcommands run on one pipeline: the
source yields tasks of ``NG_CHUNK`` graphs, which ``--workers N`` runs on a
pool of N processes, at most one per CPU, with at most twice as many tasks in
flight as the pool has processes (``--workers 1`` runs them inline, one at a
time).  A task parses its graph6 lines in turn with their rows, names the
input line of the first that fails, and returns its records as one block of
report lines with their count and tally sums, which the parent spools whole.
Under ``--enumerate N`` a task is a range of edge masks whose graphs its
worker builds, and ``ng`` first builds a table of one value per edge mask,
solving one graph and its complement per complementary pair of isomorphism
classes (:func:`~ridom.nordhaus.enumeration_values`).  A task carries its
slices of the table and of its mirror, so no row solves: 156 solver calls for
the 32,768 graphs on 6 vertices and 1,044 for the 2,097,152 on 7.  The report
and the solver's work are the same on every run and for any worker count.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import sys
import tempfile
from argparse import ArgumentParser, ArgumentTypeError, Namespace
from collections import deque
from contextlib import nullcontext
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import fields
from typing import IO, Callable, Iterator, Optional, Sequence

from .families import classify_graph
from .graphs import (
    CANONICAL_MAX_VERTICES,
    GRAPH6_HEADER,
    LABELED_ENUM_MAX_VERTICES,
    Graph,
    canonical_form,  # not called here; perfbench/spans.py traces this name
    complement,
    encode_graph6,
    enumerate_labeled_graphs,
    enumerate_nonisomorphic,
    labeled_masks,
    looks_like_edge_list,
    parse_edge_list,
    parse_graph6,
)
from .nordhaus import (
    ALL_STATUSES,
    STATUS_AT_UPPER,
    STATUS_VIOLATION,
    enumeration_values,
    extremal_ids,
    ng_record,
)
from .reduction import bipartition, build_reduction, serialize_instance, verify_reduction
from .solver import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    SolverBudget,
    _check_labeling_budget,
    gamma_bnb,
    gamma_brute,
    prism_check,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141

# graphs per task: the lines or graphs a task carries, or the masks it builds
NG_CHUNK = 512


def _input_error(lineno: int, err: Exception) -> ValueError:
    """``err`` as the failure of 1-based input line ``lineno``."""
    return ValueError(f"input line {lineno}: {err}")


def _at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer of at least ``minimum``, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ArgumentTypeError(f"must be at least {minimum}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def _build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="ridom",
        description="exact k-rainbow independent domination toolkit for small graphs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    count = _at_least(0)
    # each budget option by the SolverBudget field it sets: its flag and help
    budget_options = {
        "max_labelings": ("--budget-labelings", "cap on (k+1)^n for enumerative solvers"),
        "max_subsets": ("--budget-subsets", "cap on 2^n for subset enumeration"),
        "max_nodes": ("--budget-nodes", "cap on branch-and-bound nodes per graph"),
    }

    def command(name: str, about: str, row: Callable, names: tuple[str, ...] = (),
                finish: Optional[Callable] = None, table: Optional[Callable] = None,
                head: tuple[str, ...] = (), min_k: Optional[int] = None,
                budgets: tuple[str, ...] = ()) -> ArgumentParser:
        """A subparser with the common options and the budget options its
        solvers read (``budgets``), and its row, tallies, summary head and
        ``--enumerate`` value table."""
        sp = sub.add_parser(name, help=about)
        if min_k is not None:
            sp.add_argument("--k", type=_at_least(min_k), default=2,
                            help="number of colors (default 2)")
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--input", dest="input_path", metavar="PATH",
                            help="graph6 lines or an edge-list file (default: stdin)")
        source.add_argument("--enumerate", dest="enumerate_n", type=count, metavar="N",
                            help="use the built-in labeled enumeration on N vertices")
        source.add_argument("--noniso", dest="noniso_n", type=count, metavar="N",
                            help="one graph per isomorphism class on N vertices")
        sp.add_argument("--out", dest="out_path", metavar="PATH",
                        help="report destination (default: stdout)")
        sp.add_argument("--workers", type=_at_least(1), default=1,
                        help="worker processes (capped at the CPU count)")
        for dest, (flag, about) in budget_options.items():
            if dest in budgets:
                sp.add_argument(flag, dest=dest, type=count,
                                default=getattr(DEFAULT_BUDGET, dest), help=about)
        sp.set_defaults(row=row, names=names, finish=finish, table=table, head=head, min_n=0)
        return sp

    command("solve", "labeling value and witness per graph", _solve_row, head=("k",), min_k=1,
            budgets=("max_nodes",))
    command("classify", "structural family classification", _classify_row,
            names=("matches_n_minus_1", "trivially_small"))
    ng = command("ng", "complement-sum bound verification", _ng_row, names=ALL_STATUSES,
                 finish=_ng_finish, table=enumeration_values, head=("min_n", "seed"),
                 budgets=("max_labelings", "max_nodes"))
    ng.add_argument("--min-n", dest="min_n", type=count, default=0,
                    help="skip graphs below this order")
    ng.add_argument("--dedup", action="store_true",
                    help="report extremal graphs up to isomorphism")
    ng.add_argument("--oracle-check", dest="oracle_check", type=count, default=0,
                    help="re-solve this many sampled records with the brute solver")
    ng.add_argument("--seed", type=int, default=0, help="seed for the --oracle-check sample")
    command("reduce", "build and verify leaf-attachment reductions", _reduce_row,
            names=("mismatches",), head=("k",), min_k=2, budgets=("max_subsets", "max_nodes"))
    command("prism", "cross-check against layered-product domination", _prism_row,
            names=("mismatches",), head=("k",), min_k=1, budgets=("max_subsets", "max_nodes"))
    codec = command("codec", "re-encode graphs as graph6", _codec_row,
                    names=("mismatches",), head=("roundtrip",))
    codec.add_argument("--roundtrip", action="store_true",
                       help="require output lines to equal the graph6 input lines")
    return parser


_Item = tuple[int, Optional[str], Optional[Graph], Optional[tuple[int, int]]]


def _iter_inputs(cfg: Namespace) -> Iterator[list[_Item] | tuple]:
    """Yield the source's tasks of ``NG_CHUNK`` graphs: lists of items, or under
    ``--enumerate N`` mask ranges ``(lo, hi, a, b)``, ``a`` and ``b`` None or
    the slices ``lo:hi`` of ``cfg.table`` and of its mirror (each mask's
    complement's value).  A generated source below ``--min-n`` yields nothing
    and builds nothing, but an order past its source's cap still refuses."""
    if cfg.enumerate_n is not None or cfg.noniso_n is not None:
        labeled = cfg.noniso_n is None
        n = cfg.enumerate_n if labeled else cfg.noniso_n
        if n < cfg.min_n and n <= (LABELED_ENUM_MAX_VERTICES if labeled else CANONICAL_MAX_VERTICES):
            return
        if labeled:
            table = bytes(cfg.table(n, cfg.budget)) if cfg.table is not None else None
            mirror = table and table[::-1]
            for lo in range(0, len(labeled_masks(n)), NG_CHUNK):
                hi = lo + NG_CHUNK
                yield lo, hi, table and table[lo:hi], mirror and mirror[lo:hi]
            return
        items = ((i, None, g, None) for i, g in enumerate(enumerate_nonisomorphic(n), start=1))
    else:
        items = _read_lines(cfg)
    while batch := list(itertools.islice(items, NG_CHUNK)):
        yield batch


def _read_lines(cfg: Namespace) -> Iterator[_Item]:
    """The (line number, graph6 line or None, graph or None, None) items of
    ``--input`` or stdin: one per graph6 line, which its task parses, or one
    edge-list graph, read whole when the first non-blank line is ``n m``."""
    # decoded as stdin is: a stray byte reaches the parser, which names its line
    source = (nullcontext(sys.stdin) if cfg.input_path is None
              else open(cfg.input_path, encoding="utf-8", errors="surrogateescape"))
    with source as fh:
        first = True
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            if first and looks_like_edge_list(stripped):
                try:
                    yield lineno, None, parse_edge_list(raw + fh.read()), None
                except ValueError as err:
                    raise _input_error(lineno, err) from err
                return
            first = False
            if stripped != GRAPH6_HEADER:
                yield lineno, stripped, None, None


def _write_report(cfg: Namespace, spool: IO[str], summary: dict) -> None:
    """Copy the spooled record lines, then the JSON summary line, to the report:
    called once the stream has succeeded, so a failed run leaves no report."""
    spool.seek(0)
    sink = (nullcontext(sys.stdout) if cfg.out_path is None
            else open(cfg.out_path, "w", encoding="ascii"))
    with sink as fh:
        shutil.copyfileobj(spool, fh, 1 << 14)  # fixed chunks bound the copy's memory
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
        # flushed here, so a vanished reader surfaces as an exit code
        # rather than as an error at interpreter shutdown
        fh.flush()


# ---------------------------------------------------------------------------
# the row pipeline


class _InlinePool:
    """Runs each task when it is submitted: the pool of ``--workers 1``."""

    def submit(self, fn, *args) -> Future:
        fut: Future = Future()
        fut.set_result(fn(*args))
        return fut


def _task(items: list[_Item] | tuple, cfg: Namespace) -> tuple[str, int, list[int]]:
    """One task: the rows of ``items`` of order ``--min-n`` or more, as one block
    of their report lines, their number and each tally's sum.  A mask range
    expands here into an item per mask m, on line m + 1.  Graph6 lines are
    parsed here, in turn with the rows, and a line whose parse or row fails
    is named here, so the first failing line fails the run."""
    if not isinstance(items, list):
        lo, hi, a, b = items
        graphs = enumerate_labeled_graphs(cfg.enumerate_n, lo, hi)
        items = zip(itertools.count(lo + 1), itertools.repeat(None), graphs,
                    itertools.repeat(None) if a is None else zip(a, b))
    rows = []
    for lineno, text, g, known in items:
        try:
            if g is None:
                g = parse_graph6(text)
            if g.n >= cfg.min_n:
                rows.append(cfg.row(g, text, known, cfg))
        except (ValueError, BudgetExceededError) as err:
            raise _input_error(lineno, err) from err
    block = "".join(line + "\n" for line, _ in rows)
    return block, len(rows), [sum(col) for col in zip(*(tallies for _, tallies in rows))]


def _stream(cfg: Namespace, pool: ProcessPoolExecutor | _InlinePool, window: int) -> Iterator:
    """The source's ``_task`` results in order, one block per task, with at most
    ``window`` tasks in flight: a full window waits for its oldest."""
    pending: deque[Future] = deque()
    for task in _iter_inputs(cfg):
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(_task, task, cfg))
    while pending:
        yield pending.popleft().result()


def _rows(cfg: Namespace) -> Iterator:
    """Each task's ``_task`` result, in input order, on ``cfg.workers`` processes."""
    if cfg.workers == 1:
        yield from _stream(cfg, _InlinePool(), window=1)
        return
    # the first submit forks every worker, so the pool stops at the CPU count,
    # and the window follows the pool
    workers = min(cfg.workers, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            yield from _stream(cfg, pool, window=2 * workers)
        except BaseException:
            # a failed run waits for none of the tasks still in flight
            for proc in pool._processes.values():
                proc.terminate()
            raise


def _tally(cfg: Namespace) -> int:
    """Report the rows of ``cfg.row``, a task's block at a time, under one summary line.

    The summary holds the command, the options named in ``cfg.head``, the
    record count and the sum of each tally named in ``cfg.names``.
    ``cfg.finish``, when set, completes the summary once the stream has
    succeeded, and may read the spooled record lines back.  The run fails
    (exit 1) on any mismatch, violation or oracle mismatch the summary counts.
    """
    summary = {
        "command": cfg.subcommand,
        **{name: getattr(cfg, name) for name in cfg.head},
        "records": 0,
        **dict.fromkeys(cfg.names, 0),
    }
    with tempfile.TemporaryFile("w+", encoding="ascii") as spool:
        for block, count, sums in _rows(cfg):
            spool.write(block)
            summary["records"] += count
            for name, total in zip(cfg.names, sums):
                summary[name] += total
        if cfg.finish is not None:
            cfg.finish(cfg, summary, spool)
        _write_report(cfg, spool, summary)
    failed = any(summary.get(name) for name in ("mismatches", "violations", "oracle_mismatches"))
    return EXIT_VIOLATION if failed else EXIT_OK


# ---------------------------------------------------------------------------
# subcommands: a row function each, and the summary of its rows
#
# A row takes (graph, graph6 line or None, known values or None, parsed
# arguments) and returns the graph's record: a (report line, tallies) pair,
# which ``_task`` joins into its block.  The known values, the graph's and
# its complement's, come only from ``ng``'s ``--enumerate`` table.  A row
# refuses a graph with a ``ValueError``, which ``_task`` tags with the
# graph's input line.  Rows run in pool workers, so they are module-level
# functions, and they call the solvers and the codec through this module's
# globals.  ``_build_parser`` declares each subcommand with its row.


def _tsv(*fields: object) -> str:
    return "\t".join(map(str, fields))


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _solve_row(g: Graph, text: Optional[str], known: Optional[tuple[int, int]], cfg: Namespace):
    res = gamma_bnb(g, cfg.k, cfg.budget)
    return _tsv(encode_graph6(g), g.n, cfg.k, res.value, res.witness.to_text()), ()


def _classify_row(g: Graph, text: Optional[str], known: Optional[tuple[int, int]], cfg: Namespace):
    gc = classify_graph(g)
    line = _tsv(encode_graph6(g), g.n, gc.family.value, _flag(gc.trivially_small),
                _flag(gc.matches_n_minus_1), "-" if gc.predicted is None else gc.predicted)
    return line, (gc.matches_n_minus_1, gc.trivially_small)


def _ng_row(g: Graph, text: Optional[str], known: Optional[tuple[int, int]], cfg: Namespace):
    rec = ng_record(g, None if known is None else {g: known}, cfg.budget)
    if cfg.dedup and rec.status == STATUS_AT_UPPER and g.n > CANONICAL_MAX_VERTICES:
        # refused here, at its line, rather than after the whole stream
        raise ValueError(f"--dedup needs n <= {CANONICAL_MAX_VERTICES}, got {g.n}")
    if cfg.oracle_check:
        # any record may be sampled for the brute re-solve, so each must fit
        _check_labeling_budget(g.n, 2, cfg.budget)
    return rec.to_line(), tuple(rec.status == status for status in ALL_STATUSES)


def _ng_finish(cfg: Namespace, summary: dict, spool: IO[str]) -> None:
    """Fold the per-status tallies into ``counts``, then read the spooled
    records back for ``--dedup`` and ``--oracle-check``."""
    counts = {status: summary.pop(status) for status in ALL_STATUSES}
    summary["counts"] = {status: c for status, c in sorted(counts.items()) if c}
    summary["violations"] = counts[STATUS_VIOLATION]
    summary["extremal_count"] = counts[STATUS_AT_UPPER]
    if cfg.dedup:
        spool.seek(0)
        at_upper = (line.split("\t", 1)[0] for line in spool
                    if line.endswith(f"\t{STATUS_AT_UPPER}\n"))
        summary["extremal"] = extremal_ids(at_upper)
    count = summary["records"]
    if cfg.oracle_check > 0 and count:
        rng = random.Random(cfg.seed)
        picks = set(rng.sample(range(count), min(cfg.oracle_check, count)))
        mismatches = 0
        spool.seek(0)
        for idx, line in enumerate(spool):
            if idx in picks:
                graph6, _, gamma, gamma_comp, *_ = line.split("\t")
                g = parse_graph6(graph6)
                brute = gamma_brute(g, 2, cfg.budget).value
                brute_comp = gamma_brute(complement(g), 2, cfg.budget).value
                mismatches += (brute, brute_comp) != (int(gamma), int(gamma_comp))
        summary["oracle_checked"] = len(picks)
        summary["oracle_mismatches"] = mismatches


def _reduce_row(g: Graph, text: Optional[str], known: Optional[tuple[int, int]], cfg: Namespace):
    parts = bipartition(g)
    if parts is None:
        raise ValueError("graph is not bipartite")
    inst = build_reduction(g, parts, cfg.k)
    check = verify_reduction(inst, cfg.budget)
    line = _tsv(serialize_instance(inst), check.gamma_dom, check.gamma_rik_target,
                check.expected, _flag(check.equal))
    return line, (not check.equal,)


def _prism_row(g: Graph, text: Optional[str], known: Optional[tuple[int, int]], cfg: Namespace):
    check = prism_check(g, cfg.k, cfg.budget)
    line = _tsv(encode_graph6(g), g.n, cfg.k, check.gamma.value, check.ids.value,
                _flag(check.equal), _flag(check.lifted_valid))
    return line, (not (check.equal and check.lifted_valid),)


def _codec_row(g: Graph, text: Optional[str], known: Optional[tuple[int, int]], cfg: Namespace):
    out = encode_graph6(g)
    if cfg.roundtrip and text is None:
        raise ValueError("--roundtrip needs graph6 input lines")
    return out, (cfg.roundtrip and out != text.removeprefix(GRAPH6_HEADER),)


def run(argv: Sequence[str]) -> int:
    """Parse arguments, run the subcommand, and map failures onto exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code if code == 0 else EXIT_USAGE
    # the budget fields this subcommand declares; the rest keep their defaults
    args.budget = SolverBudget(**{f.name: getattr(args, f.name)
                                  for f in fields(SolverBudget) if hasattr(args, f.name)})
    try:
        return _tally(args)
    except BrokenPipeError:
        # send the unflushed rest to devnull so shutdown does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (BudgetExceededError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run(sys.argv[1:])
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = EXIT_INTERRUPTED
    sys.exit(code)


if __name__ == "__main__":
    main()
