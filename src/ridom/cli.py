"""Command line front end: deterministic TSV reports over graph streams.

Input graphs arrive as graph6 lines (optionally ``>>graph6<<``-headed), as a
single edge-list file (``n m`` header then ``u v`` lines), or from the
built-in labeled enumerator.  Every subcommand writes one record line per
graph followed by a JSON summary line, and identical inputs produce
byte-identical reports regardless of worker count.  Exit codes: 0 success,
1 bound violation or oracle mismatch, 2 usage or input error, 130 when
interrupted (the message ``interrupted`` on stderr, no traceback) and 141
when the reader of stdout has gone away (nothing more is written; 141 is
what a shell reports for a process that SIGPIPE ends).

``ng --workers N`` streams the input graphs through a process pool in tasks
of ``NG_CHUNK`` graphs, with at most ``2 * N`` tasks in flight
(``--workers 1`` runs the same tasks inline, one at a time).  The parent remembers the two
values of each returned record, up to ``NG_KNOWN_MAX`` of them, first in
first out, and seeds each new task's cache with those its graphs and their
complements need.  In ``--enumerate`` order the complement of edge mask m
is mask 2^E - 1 - m, so the second half of an enumeration is answered from
the first.  Which values seed a task depends only on its position in the
stream, so the report and the solver's work are the same on every run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from collections import OrderedDict, deque
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .families import Family, classify_graph, is_trivial_components, predict_gamma_ri2
from .graphs import (
    Graph,
    Graph6ParseError,
    UnsupportedSizeError,
    canonical_form,  # not called here; perfbench/spans.py traces this name
    encode_graph6,
    enumerate_labeled_graphs,
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

# ``ng`` hands the pool this many graphs per task, and the parent keeps at
# most this many known values to seed later tasks with
NG_CHUNK = 512
NG_KNOWN_MAX = 1 << 16


class InputError(Exception):
    """Malformed input, tagged with the 1-based line it came from."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"input line {line}: {reason}")
        self.line = line
        self.reason = reason


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
        sp.add_argument("--input", dest="input_path", metavar="PATH",
                        help="graph6 lines or an edge-list file (default: stdin)")
        sp.add_argument("--enumerate", dest="enumerate_n", type=int, metavar="N",
                        help="use the built-in labeled enumeration on N vertices")
        sp.add_argument("--out", dest="out_path", metavar="PATH",
                        help="report destination (default: stdout)")
        sp.add_argument("--workers", type=int, default=1, help="worker processes")
        sp.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
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


def _read_text(cfg: RunConfig) -> tuple[str, str]:
    if cfg.input_path is not None:
        with open(cfg.input_path, "r", encoding="ascii") as fh:
            return fh.read(), cfg.input_path
    return sys.stdin.read(), "<stdin>"


def _graph6_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped text) for every graph6 line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and stripped != ">>graph6<<":
            yield lineno, stripped


def _parse_line(lineno: int, text: str) -> Graph:
    try:
        return parse_graph6(text)
    except (Graph6ParseError, UnsupportedSizeError, ValueError) as err:
        raise InputError(lineno, str(err)) from err


def _iter_inputs(cfg: RunConfig) -> Iterator[tuple[int, Graph]]:
    """Yield (line number, graph) pairs from the configured source."""
    if cfg.enumerate_n is not None and cfg.input_path is not None:
        raise InputError(0, "--input and --enumerate are mutually exclusive")
    if cfg.enumerate_n is not None:
        for i, g in enumerate(enumerate_labeled_graphs(cfg.enumerate_n)):
            yield i + 1, g
        return
    text, _ = _read_text(cfg)
    lines = text.splitlines()
    first = next((ln for ln in lines if ln.strip() and not ln.strip().startswith(">>graph6<<")), "")
    if looks_like_edge_list(first):
        try:
            yield 1, parse_edge_list(text)
        except ValueError as err:
            raise InputError(1, str(err)) from err
        return
    for lineno, stripped in _graph6_lines(text):
        yield lineno, _parse_line(lineno, stripped)


class _Report:
    """Accumulates record lines plus a JSON summary and writes them at once."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.lines: list[str] = []

    def add(self, line: str) -> None:
        self.lines.append(line)

    def write(self, summary: dict) -> None:
        body = "".join(line + "\n" for line in self.lines)
        body += json.dumps(summary, sort_keys=True) + "\n"
        if self.cfg.out_path is None:
            # flushed here, so a vanished reader surfaces as an exit code
            # rather than as an error at interpreter shutdown
            sys.stdout.write(body)
            sys.stdout.flush()
        else:
            with open(self.cfg.out_path, "w", encoding="ascii") as fh:
                fh.write(body)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_solve(cfg: RunConfig) -> int:
    if cfg.k < 1:
        raise InputError(0, "--k must be at least 1")
    report = _Report(cfg)
    count = 0
    for _, g in _iter_inputs(cfg):
        res = gamma_bnb(g, cfg.k, cfg.budget)
        report.add("\t".join((
            encode_graph6(g), str(g.n), str(cfg.k), str(res.value), res.witness.to_text(),
        )))
        count += 1
    report.write({"command": "solve", "k": cfg.k, "records": count})
    return EXIT_OK


def _cmd_classify(cfg: RunConfig) -> int:
    report = _Report(cfg)
    count = matches = trivial_count = 0
    for _, g in _iter_inputs(cfg):
        trivial = is_trivial_components(g)
        family = Family.NONE
        is_match = False
        if g.n >= 3:
            gc = classify_graph(g)
            is_match = gc.matches_n_minus_1
            if gc.special is not None:
                family = gc.special[1].family
        predicted = predict_gamma_ri2(g)
        report.add("\t".join((
            encode_graph6(g), str(g.n), family.value,
            "true" if trivial else "false",
            "true" if is_match else "false",
            "-" if predicted is None else str(predicted),
        )))
        count += 1
        matches += is_match
        trivial_count += trivial
    report.write({
        "command": "classify", "records": count,
        "matches_n_minus_1": matches, "trivially_small": trivial_count,
    })
    return EXIT_OK


def _ng_chunk(graphs: Sequence[Graph], seeds: GammaCache, budget: SolverBudget) -> list[NGRecord]:
    """One task: the records of ``graphs``, starting from the known ``seeds``."""
    return [ng_record(g, seeds, budget) for g in graphs]


class _InlinePool:
    """Runs each task when it is submitted: the pool of ``--workers 1``."""

    def submit(self, fn, *args) -> Future:
        fut: Future = Future()
        fut.set_result(fn(*args))
        return fut


def _ng_stream(
    cfg: RunConfig, pool: ProcessPoolExecutor | _InlinePool, window: int
) -> Iterator[NGRecord]:
    """Records of the input stream in order, computed ``NG_CHUNK`` graphs a task.

    At most ``window`` tasks are in flight, and a full window waits for its
    oldest task, so the values that seed a task depend only on its position,
    never on timing.  ``known`` holds the last ``NG_KNOWN_MAX`` values
    returned (first in, first out); each task gets those its graphs and
    their complements need.
    """
    graphs = (g for _, g in _iter_inputs(cfg) if g.n >= cfg.min_n)
    known: OrderedDict[GammaKey, int] = OrderedDict()
    pending: deque[tuple[Future, list[tuple[GammaKey, GammaKey]]]] = deque()

    def oldest() -> list[NGRecord]:
        fut, keys = pending.popleft()
        recs = fut.result()
        for (key, ckey), rec in zip(keys, recs):
            known[key] = rec.gamma
            known[ckey] = rec.gamma_comp
        while len(known) > NG_KNOWN_MAX:
            known.popitem(last=False)
        return recs

    while batch := list(itertools.islice(graphs, NG_CHUNK)):
        if len(pending) == window:
            yield from oldest()
        keys = [cache_keys(g) for g in batch]
        seeds = {key: known[key] for pair in keys for key in pair if key in known}
        pending.append((pool.submit(_ng_chunk, batch, seeds, cfg.budget), keys))
    while pending:
        yield from oldest()


def _ng_records(cfg: RunConfig) -> list[NGRecord]:
    if cfg.workers == 1:
        return list(_ng_stream(cfg, _InlinePool(), window=1))
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return list(_ng_stream(cfg, pool, window=2 * cfg.workers))


def _cmd_ng(cfg: RunConfig) -> int:
    records = _ng_records(cfg)
    ngreport = report_from_records(records)
    report = _Report(cfg)
    for rec in records:
        report.add(rec.to_line())
    summary: dict = {
        "command": "ng",
        "records": len(records),
        "counts": dict(sorted(ngreport.counts.items())),
        "violations": len(ngreport.violations),
        "extremal_count": len(ngreport.extremal),
        "min_n": cfg.min_n,
        "seed": cfg.seed,
    }
    if cfg.dedup:
        try:
            summary["extremal"] = extremal_ids(records)
        except UnsupportedSizeError as exc:
            # the helper's "dedup needs ..." message, under the option's name
            raise InputError(0, f"--{exc}") from None
    mismatches = 0
    if cfg.oracle_check > 0 and records:
        rng = random.Random(cfg.seed)
        picks = rng.sample(range(len(records)), min(cfg.oracle_check, len(records)))
        for idx in sorted(picks):
            rec = records[idx]
            brute = gamma_brute(parse_graph6(rec.graph6), 2, cfg.budget)
            if brute.value != rec.gamma:
                mismatches += 1
        summary["oracle_checked"] = len(picks)
        summary["oracle_mismatches"] = mismatches
    report.write(summary)
    return EXIT_VIOLATION if ngreport.violations or mismatches else EXIT_OK


def _cmd_reduce(cfg: RunConfig) -> int:
    if cfg.k < 2:
        raise InputError(0, "--k must be at least 2 for the reduction")
    report = _Report(cfg)
    count = mismatches = 0
    for lineno, g in _iter_inputs(cfg):
        parts = bipartition(g)
        if parts is None:
            raise InputError(lineno, "graph is not bipartite")
        inst = build_reduction(g, parts, cfg.k)
        check = verify_reduction(inst)
        report.add("\t".join((
            serialize_instance(inst),
            str(check.gamma_dom), str(check.gamma_rik_target),
            str(check.expected), "true" if check.equal else "false",
        )))
        count += 1
        mismatches += not check.equal
    report.write({
        "command": "reduce", "k": cfg.k, "records": count, "mismatches": mismatches,
    })
    return EXIT_VIOLATION if mismatches else EXIT_OK


def _cmd_prism(cfg: RunConfig) -> int:
    if cfg.k < 1:
        raise InputError(0, "--k must be at least 1")
    report = _Report(cfg)
    count = mismatches = 0
    for _, g in _iter_inputs(cfg):
        check = prism_check(g, cfg.k, cfg.budget)
        ok = check.equal and check.lifted_valid
        report.add("\t".join((
            encode_graph6(g), str(g.n), str(cfg.k),
            str(check.gamma.value), str(check.ids.value),
            "true" if check.equal else "false",
            "true" if check.lifted_valid else "false",
        )))
        count += 1
        mismatches += not ok
    report.write({
        "command": "prism", "k": cfg.k, "records": count, "mismatches": mismatches,
    })
    return EXIT_VIOLATION if mismatches else EXIT_OK


def _cmd_codec(cfg: RunConfig) -> int:
    report = _Report(cfg)
    count = mismatches = 0
    if cfg.roundtrip:
        if cfg.enumerate_n is not None:
            raise InputError(0, "--roundtrip needs graph6 input lines")
        text, _ = _read_text(cfg)
        for lineno, stripped in _graph6_lines(text):
            out = encode_graph6(_parse_line(lineno, stripped))
            bare = stripped.removeprefix(">>graph6<<")
            report.add(out)
            count += 1
            mismatches += out != bare
    else:
        for _, g in _iter_inputs(cfg):
            report.add(encode_graph6(g))
            count += 1
    report.write({
        "command": "codec", "records": count,
        "roundtrip": cfg.roundtrip, "mismatches": mismatches,
    })
    return EXIT_VIOLATION if mismatches else EXIT_OK


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
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # send the unflushed rest to devnull so shutdown does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (Graph6ParseError, UnsupportedSizeError, BudgetExceededError, ValueError, OSError) as err:
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
