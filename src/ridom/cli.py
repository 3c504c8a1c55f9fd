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

Each subcommand is a row function, which turns one input graph into its
record, plus a summary of the records.  All of them run on one pipeline:
``--workers N`` streams the input graphs through a process pool in tasks of
``NG_CHUNK`` graphs, with at most ``2 * N`` tasks in flight (``--workers 1``
runs the same tasks inline, one at a time).  The pool never has more
processes than the machine has CPUs; the window stays ``2 * N`` whatever
the pool's size.  Each task hands its rows a value cache, which only
``ng``'s rows read and fill.  The parent remembers the values that returned
caches hold for their graphs and complements, up to ``NG_KNOWN_MAX`` of
them, first in first out, and seeds each new task's cache with those its
graphs and their complements need.  In ``--enumerate`` order the
complement of edge mask m is mask 2^E - 1 - m, so the second half of an
enumeration is answered from the first.  Which values seed a task depends
only on its position in the stream, so the report and the solver's work are
the same on every run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import sys
import tempfile
from collections import OrderedDict, deque
from contextlib import nullcontext
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Optional, Sequence

from .families import Family, GraphClass, classify_graph
from .graphs import (
    Graph,
    UnsupportedSizeError,
    canonical_form,  # not called here; perfbench/spans.py traces this name
    complement,
    encode_graph6,
    enumerate_labeled_graphs,
    enumerate_nonisomorphic,
    looks_like_edge_list,
    parse_edge_list,
    parse_graph6,
)
from .nordhaus import (
    GammaCache,
    GammaKey,
    NGRecord,
    cache_keys,
    extremal_ids,
    ng_record,
    report_from_records,
)
from .reduction import bipartition, build_reduction, serialize_instance, verify_reduction
from .solver import (
    BudgetExceededError,
    SolverBudget,
    gamma_bnb,
    gamma_brute,
    prism_check,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141

# the pipeline hands the pool this many graphs per task, and the parent
# keeps at most this many known values to seed later tasks with
NG_CHUNK = 512
NG_KNOWN_MAX = 1 << 16


class InputError(ValueError):
    """Malformed input, tagged with the 1-based line it came from."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"input line {line}: {reason}")
        self.line = line
        self.reason = reason

    def __reduce__(self):
        # rebuilt from both arguments when a pool worker sends it back
        return InputError, (self.line, self.reason)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    k: int = 2
    max_labelings: int = SolverBudget().max_labelings
    max_subsets: int = SolverBudget().max_subsets
    max_nodes: int = SolverBudget().max_nodes
    workers: int = 1
    input_path: Optional[str] = None
    enumerate_n: Optional[int] = None
    noniso_n: Optional[int] = None
    out_path: Optional[str] = None
    dedup: bool = False
    seed: int = 0
    min_n: int = 0
    oracle_check: int = 0
    roundtrip: bool = False

    @property
    def budget(self) -> SolverBudget:
        return SolverBudget(self.max_labelings, self.max_subsets, self.max_nodes)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridom",
        description="exact k-rainbow independent domination toolkit for small graphs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp: argparse.ArgumentParser, with_k: bool) -> None:
        if with_k:
            sp.add_argument("--k", type=int, default=2, help="number of colors (default 2)")
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--input", dest="input_path", metavar="PATH",
                            help="graph6 lines or an edge-list file (default: stdin)")
        source.add_argument("--enumerate", dest="enumerate_n", type=int, metavar="N",
                            help="use the built-in labeled enumeration on N vertices")
        source.add_argument("--noniso", dest="noniso_n", type=int, metavar="N",
                            help="one graph per isomorphism class on N vertices")
        sp.add_argument("--out", dest="out_path", metavar="PATH",
                        help="report destination (default: stdout)")
        sp.add_argument("--workers", type=int, default=1,
                        help="worker processes (capped at the CPU count)")
        sp.add_argument("--budget-labelings", dest="max_labelings", type=int,
                        default=SolverBudget().max_labelings,
                        help="cap on (k+1)^n for enumerative solvers")
        sp.add_argument("--budget-subsets", dest="max_subsets", type=int,
                        default=SolverBudget().max_subsets,
                        help="cap on 2^n for subset enumeration")
        sp.add_argument("--budget-nodes", dest="max_nodes", type=int,
                        default=SolverBudget().max_nodes,
                        help="cap on branch-and-bound nodes per graph")

    common(sub.add_parser("solve", help="labeling value and witness per graph"), True)
    common(sub.add_parser("classify", help="structural family classification"), False)
    ng = sub.add_parser("ng", help="complement-sum bound verification")
    common(ng, False)
    ng.add_argument("--min-n", dest="min_n", type=int, default=0,
                    help="skip graphs below this order")
    ng.add_argument("--dedup", action="store_true",
                    help="report extremal graphs up to isomorphism")
    ng.add_argument("--oracle-check", dest="oracle_check", type=int, default=0,
                    help="re-solve this many sampled records with the brute solver")
    ng.add_argument("--seed", type=int, default=0, help="seed for the --oracle-check sample")
    common(sub.add_parser("reduce", help="build and verify leaf-attachment reductions"), True)
    common(sub.add_parser("prism", help="cross-check against layered-product domination"), True)
    codec = sub.add_parser("codec", help="re-encode graphs as graph6")
    common(codec, False)
    codec.add_argument("--roundtrip", action="store_true",
                       help="require output lines to equal the graph6 input lines")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{
        field: getattr(args, field)
        for field in RunConfig.__dataclass_fields__
        if hasattr(args, field)
    })


def _iter_inputs(cfg: RunConfig) -> Iterator[tuple[int, Optional[str], Graph]]:
    """Yield (line number, graph6 text or None, graph) from the configured source.

    Input is read a line at a time, unless its first non-blank line is an
    ``n m`` header: then it is one edge-list graph, read whole."""
    if cfg.enumerate_n is not None or cfg.noniso_n is not None:
        graphs = (enumerate_labeled_graphs(cfg.enumerate_n) if cfg.noniso_n is None
                  else enumerate_nonisomorphic(cfg.noniso_n))
        for i, g in enumerate(graphs, start=1):
            yield i, None, g
        return
    source = nullcontext(sys.stdin) if cfg.input_path is None else open(cfg.input_path, encoding="ascii")
    with source as fh:
        first = True
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            if first and looks_like_edge_list(stripped):
                try:
                    yield 1, None, parse_edge_list(raw + fh.read())
                except ValueError as err:
                    raise InputError(1, str(err)) from err
                return
            first = False
            if stripped == ">>graph6<<":
                continue
            try:
                yield lineno, stripped, parse_graph6(stripped)
            except ValueError as err:
                raise InputError(lineno, str(err)) from err


def _write_report(cfg: RunConfig, spool: IO[str], summary: dict) -> None:
    """Copy the spooled record lines, then the JSON summary line, to the report:
    called once the stream has succeeded, so a failed run leaves no report."""
    spool.seek(0)
    tail = json.dumps(summary, sort_keys=True) + "\n"
    if cfg.out_path is None:
        shutil.copyfileobj(spool, sys.stdout)
        # flushed here, so a vanished reader surfaces as an exit code
        # rather than as an error at interpreter shutdown
        sys.stdout.write(tail)
        sys.stdout.flush()
    else:
        with open(cfg.out_path, "w", encoding="ascii") as fh:
            shutil.copyfileobj(spool, fh)
            fh.write(tail)


# ---------------------------------------------------------------------------
# the row pipeline


class _InlinePool:
    """Runs each task when it is submitted: the pool of ``--workers 1``."""

    def submit(self, fn, *args) -> Future:
        fut: Future = Future()
        fut.set_result(fn(*args))
        return fut


def _task(row: Callable, items: list, cache: GammaCache, cfg: RunConfig) -> tuple[list, GammaCache]:
    """One task: the rows of ``items``, and the value cache they leave behind."""
    return [row(lineno, text, g, cache, cfg) for lineno, text, g in items], cache


def _stream(
    cfg: RunConfig, row: Callable, pool: ProcessPoolExecutor | _InlinePool, window: int
) -> Iterator:
    """Rows of the input stream in order, computed ``NG_CHUNK`` graphs a task.

    At most ``window`` tasks are in flight, and a full window waits for its
    oldest task, so the values that seed a task depend only on its position,
    never on timing.  ``known`` holds the last ``NG_KNOWN_MAX`` values that
    returned caches hold (first in, first out); a task's cache holds values
    of its own graphs and their complements only, and starts with those of
    them that ``known`` has.  Rows that never fill a cache leave ``known``
    empty, and then no task computes its cache keys.
    """
    items = (item for item in _iter_inputs(cfg) if item[2].n >= cfg.min_n)
    known: OrderedDict[GammaKey, int] = OrderedDict()
    pending: deque[Future] = deque()

    def oldest() -> list:
        rows, cache = pending.popleft().result()
        known.update(cache)
        while len(known) > NG_KNOWN_MAX:
            known.popitem(last=False)
        return rows

    while batch := list(itertools.islice(items, NG_CHUNK)):
        if len(pending) == window:
            yield from oldest()
        keys = (key for _, _, g in batch for key in cache_keys(g)) if known else ()
        seeds = {key: known[key] for key in keys if key in known}
        pending.append(pool.submit(_task, row, batch, seeds, cfg))
    while pending:
        yield from oldest()


def _rows(cfg: RunConfig, row: Callable) -> Iterator:
    """The rows of every input graph, in input order, on ``cfg.workers`` processes."""
    if cfg.workers == 1:
        yield from _stream(cfg, row, _InlinePool(), window=1)
        return
    # the first submit forks every worker, so the pool stops at the CPU count;
    # the window stays 2N, so the seeds and the solver's work do not depend on it
    with ProcessPoolExecutor(max_workers=min(cfg.workers, os.cpu_count() or 1)) as pool:
        try:
            yield from _stream(cfg, row, pool, window=2 * cfg.workers)
        except BaseException:
            # a failed run waits for none of the tasks still in flight
            for proc in pool._processes.values():
                proc.terminate()
            raise


def _tally(cfg: RunConfig, row: Callable, names: tuple[str, ...], **head) -> int:
    """Report (line, tallies) rows under ``head``, the record count and each tally's sum."""
    summary = {**head, "records": 0, **dict.fromkeys(names, 0)}
    with tempfile.TemporaryFile("w+", encoding="ascii") as spool:
        for line, tallies in _rows(cfg, row):
            spool.write(line + "\n")
            summary["records"] += 1
            for name, tally in zip(names, tallies):
                summary[name] += tally
        _write_report(cfg, spool, summary)
    return EXIT_VIOLATION if summary.get("mismatches") else EXIT_OK


# ---------------------------------------------------------------------------
# subcommands: a row function each, and the summary of its rows
#
# A row takes (line number, graph6 line or None, graph, value cache, config)
# and returns the graph's record: a (report line, tallies) pair for
# ``_tally``, an ``NGRecord`` for ``ng``.  Rows run in pool workers, so they
# are module-level functions, and they call the solvers and the codec
# through this module's globals.


def _tsv(*fields: object) -> str:
    return "\t".join(map(str, fields))


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _solve_row(lineno: int, text: Optional[str], g: Graph, cache: GammaCache, cfg: RunConfig):
    res = gamma_bnb(g, cfg.k, cfg.budget)
    return _tsv(encode_graph6(g), g.n, cfg.k, res.value, res.witness.to_text()), ()


def _cmd_solve(cfg: RunConfig) -> int:
    if cfg.k < 1:
        raise InputError(0, "--k must be at least 1")
    return _tally(cfg, _solve_row, (), command="solve", k=cfg.k)


def _classify_row(lineno: int, text: Optional[str], g: Graph, cache: GammaCache, cfg: RunConfig):
    # below 3 vertices every component is tiny: no family, value n
    gc = classify_graph(g) if g.n >= 3 else GraphClass(None, True, False, g.n)
    family = gc.special[1].family if gc.special is not None else Family.NONE
    line = _tsv(encode_graph6(g), g.n, family.value, _flag(gc.trivially_small),
                _flag(gc.matches_n_minus_1), "-" if gc.predicted is None else gc.predicted)
    return line, (gc.matches_n_minus_1, gc.trivially_small)


def _cmd_classify(cfg: RunConfig) -> int:
    return _tally(cfg, _classify_row, ("matches_n_minus_1", "trivially_small"), command="classify")


def _ng_row(lineno: int, text: Optional[str], g: Graph, cache: GammaCache, cfg: RunConfig):
    return ng_record(g, cache, cfg.budget)


def _cmd_ng(cfg: RunConfig) -> int:
    with tempfile.TemporaryFile("w+", encoding="ascii") as spool:
        def spooled() -> Iterator[NGRecord]:
            for rec in _rows(cfg, _ng_row):
                spool.write(rec.to_line() + "\n")
                yield rec
        ngreport = report_from_records(spooled())
        count = ngreport.total
        summary: dict = {
            "command": "ng",
            "records": count,
            "counts": dict(sorted(ngreport.counts.items())),
            "violations": len(ngreport.violations),
            "extremal_count": len(ngreport.extremal),
            "min_n": cfg.min_n,
            "seed": cfg.seed,
        }
        if cfg.dedup:
            try:
                summary["extremal"] = extremal_ids(ngreport.extremal)
            except UnsupportedSizeError as exc:
                # the helper's "dedup needs ..." message, under the option's name
                raise InputError(0, f"--{exc}") from None
        mismatches = 0
        if cfg.oracle_check > 0 and count:
            rng = random.Random(cfg.seed)
            picks = set(rng.sample(range(count), min(cfg.oracle_check, count)))
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
        _write_report(cfg, spool, summary)
    return EXIT_VIOLATION if ngreport.violations or mismatches else EXIT_OK


def _reduce_row(lineno: int, text: Optional[str], g: Graph, cache: GammaCache, cfg: RunConfig):
    parts = bipartition(g)
    if parts is None:
        raise InputError(lineno, "graph is not bipartite")
    inst = build_reduction(g, parts, cfg.k)
    check = verify_reduction(inst, cfg.budget)
    line = _tsv(serialize_instance(inst), check.gamma_dom, check.gamma_rik_target,
                check.expected, _flag(check.equal))
    return line, (not check.equal,)


def _cmd_reduce(cfg: RunConfig) -> int:
    if cfg.k < 2:
        raise InputError(0, "--k must be at least 2 for the reduction")
    return _tally(cfg, _reduce_row, ("mismatches",), command="reduce", k=cfg.k)


def _prism_row(lineno: int, text: Optional[str], g: Graph, cache: GammaCache, cfg: RunConfig):
    check = prism_check(g, cfg.k, cfg.budget)
    line = _tsv(encode_graph6(g), g.n, cfg.k, check.gamma.value, check.ids.value,
                _flag(check.equal), _flag(check.lifted_valid))
    return line, (not (check.equal and check.lifted_valid),)


def _cmd_prism(cfg: RunConfig) -> int:
    if cfg.k < 1:
        raise InputError(0, "--k must be at least 1")
    return _tally(cfg, _prism_row, ("mismatches",), command="prism", k=cfg.k)


def _codec_row(lineno: int, text: Optional[str], g: Graph, cache: GammaCache, cfg: RunConfig):
    out = encode_graph6(g)
    if cfg.roundtrip and text is None:
        raise InputError(lineno, "--roundtrip needs graph6 input lines")
    return out, (cfg.roundtrip and out != text.removeprefix(">>graph6<<"),)


def _cmd_codec(cfg: RunConfig) -> int:
    return _tally(cfg, _codec_row, ("mismatches",), command="codec", roundtrip=cfg.roundtrip)


_HANDLERS = {
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "ng": _cmd_ng,
    "reduce": _cmd_reduce,
    "prism": _cmd_prism,
    "codec": _cmd_codec,
}


def run(argv: Sequence[str]) -> int:
    """Parse arguments, dispatch, and map failures onto exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code if code == 0 else EXIT_USAGE
    cfg = _config_from_args(args)
    if cfg.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[cfg.subcommand](cfg)
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
