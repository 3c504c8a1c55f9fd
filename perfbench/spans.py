"""Span tracing for the traced run, from outside the program.

``install`` replaces each public entry point of ``ridom`` under the name its
caller looks it up by, with a wrapper that records one span per call:
``cli`` and ``nordhaus`` import ``gamma_bnb`` by name, ``solver`` imports
``components`` by name, and ``enumerate_nonisomorphic`` finds
``canonical_form`` and itself through the ``graphs`` module globals.  The
process pool behind ``--workers`` is replaced by a subclass that records the
pool's lifetime as a ``cli.pool`` span.

Spans stay in memory and are written when the run ends, one TSV file per
process (``spans-<pid>.tsv``) with the columns of ``COLUMNS``.  Pool workers
are forked, so they inherit the wrappers; they end through ``os._exit``, so
each worker registers a multiprocessing finalizer that writes its spans
before it exits.  All timestamps are ``time.monotonic_ns`` (CLOCK_MONOTONIC,
shared by every process on the machine).
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from multiprocessing import util
from typing import Callable, Iterable

COLUMNS = ("run", "pid", "id", "parent_pid", "parent_id", "name", "start_ns", "end_ns", "extra")

# (module, attribute looked up by the caller, span name, what ``extra`` holds)
PATCHES = (
    ("ridom.cli", "run", "cli.run", None),
    ("ridom.cli", "parse_graph6", "graphs.parse_graph6", None),
    ("ridom.cli", "encode_graph6", "graphs.encode_graph6", None),
    ("ridom.cli", "enumerate_labeled_graphs", "graphs.enumerate_labeled_graphs", "generator"),
    ("ridom.cli", "canonical_form", "graphs.canonical_form", None),
    ("ridom.cli", "gamma_bnb", "solver.gamma_bnb", "nodes"),
    ("ridom.cli", "ng_record", "nordhaus.ng_record", None),
    ("ridom.nordhaus", "gamma_bnb", "solver.gamma_bnb", "nodes"),
    ("ridom.nordhaus", "complement", "graphs.complement", None),
    ("ridom.nordhaus", "encode_graph6", "graphs.encode_graph6", None),
    ("ridom.nordhaus", "canonical_form", "graphs.canonical_form", None),
    ("ridom.nordhaus", "ng_record", "nordhaus.ng_record", None),
    ("ridom.solver", "components", "graphs.components", None),
    ("ridom.graphs", "canonical_form", "graphs.canonical_form", None),
    ("ridom.graphs", "enumerate_nonisomorphic", "graphs.enumerate_nonisomorphic", "len"),
)


class Tracer:
    """In-memory span recorder for one process and the workers it forks."""

    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.rows: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.next_id = 0
        util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # the inherited stack stays: a worker's first spans point at the
        # parent-process span that was open when the pool forked it
        self.pid = os.getpid()
        self.rows = []
        util.Finalize(None, self.flush, exitpriority=100)

    def open(self) -> tuple[int, tuple, int]:
        self.next_id += 1
        parent = self.stack[-1] if self.stack else (0, 0)
        self.stack.append((self.pid, self.next_id))
        return self.next_id, parent, time.monotonic_ns()

    def close(self, name: str, token: tuple[int, tuple, int], extra: object = "") -> None:
        end = time.monotonic_ns()
        sid, parent, start = token
        self.stack.pop()
        self.rows.append((sid, parent[0], parent[1], name, start, end, extra))

    def wrap(self, name: str, fn: Callable, extra: str | None) -> Callable:
        if extra == "generator":
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    token = self.open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(name, token)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            token = self.open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if extra == "nodes" and result is not None:
                    self.close(name, token, result.nodes_explored)
                elif extra == "len" and result is not None:
                    self.close(name, token, len(result))
                else:
                    self.close(name, token)
        return wrapper

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.tsv")
        lines = ["\t".join(COLUMNS)]
        prefix = f"{self.run_id}\t{self.pid}\t"
        lines.extend(prefix + "\t".join(map(str, row)) for row in self.rows)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        self.rows = []


def install(run_id: str, out_dir: str) -> Tracer:
    """Patch every entry point in ``PATCHES`` and the CLI's process pool."""
    tracer = Tracer(run_id, out_dir)
    originals: dict[tuple[str, str], Callable] = {}
    for module, attr, _, _ in PATCHES:
        originals[module, attr] = getattr(importlib.import_module(module), attr)
    for module, attr, name, extra in PATCHES:
        setattr(importlib.import_module(module), attr,
                tracer.wrap(name, originals[module, attr], extra))

    cli = importlib.import_module("ridom.cli")
    base = cli.ProcessPoolExecutor

    class TracedPool(base):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._trace_token = tracer.open()

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if self._trace_token is not None:
                tracer.close("cli.pool", self._trace_token, self._max_workers)
                self._trace_token = None

    cli.ProcessPoolExecutor = TracedPool
    return tracer


# ---------------------------------------------------------------------------
# reading span files and deriving the per-layer metrics


class Span:
    __slots__ = ("key", "parent", "name", "start", "end", "extra", "children")

    def __init__(self, row: list[str]):
        self.key = (int(row[1]), int(row[2]))
        self.parent = (int(row[3]), int(row[4]))
        self.name = row[5]
        self.start = int(row[6])
        self.end = int(row[7])
        self.extra = int(row[8]) if row[8] else None
        self.children: list[Span] = []

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def read_spans(out_dir: str) -> list[Span]:
    """Every span written under ``out_dir``, children linked to parents."""
    spans = []
    for fname in sorted(os.listdir(out_dir)):
        if fname.startswith("spans-") and fname.endswith(".tsv"):
            with open(os.path.join(out_dir, fname), encoding="ascii") as fh:
                next(fh)
                spans.extend(Span(line.rstrip("\n").split("\t")) for line in fh)
    by_key = {s.key: s for s in spans}
    for s in spans:
        if s.parent in by_key:
            by_key[s.parent].children.append(s)
    return spans


def _ancestor_names(span: Span, by_key: dict) -> Iterable[str]:
    key = span.parent
    while key in by_key:
        up = by_key[key]
        yield up.name
        key = up.parent


def layer_metrics(spans: list[Span], root_pid: int) -> dict[str, float]:
    """Per-layer metrics of one traced child whose own pid is ``root_pid``.

    ``X.s`` sums the spans of ``X`` not nested inside another span of ``X``
    (``enumerate_nonisomorphic`` recurses through itself); ``X.self_s``
    subtracts the time of each span's direct children.
    """
    by_key = {s.key: s for s in spans}
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def top(name: str) -> list[Span]:
        return [s for s in named[name] if name not in _ancestor_names(s, by_key)]

    def total_s(name: str) -> float:
        return sum(s.seconds for s in top(name))

    def self_s(name: str) -> float:
        return sum(s.seconds - sum(c.seconds for c in s.children) for s in top(name))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    bnb = named["solver.gamma_bnb"]
    records = named["nordhaus.ng_record"]
    bnb_in_records = sum(1 for s in bnb
                         if s.parent in by_key and by_key[s.parent].name == "nordhaus.ng_record")
    nonisos = top("graphs.enumerate_nonisomorphic")
    pools = named["cli.pool"]
    pool_wall = sum(s.seconds for s in pools)
    workers = max((s.extra or 0 for s in pools), default=0)
    worker_busy = sum(s.seconds for s in spans if s.key[0] != root_pid and s.parent[0] != s.key[0])
    return {
        "solver.gamma_bnb.calls": len(bnb),
        "solver.gamma_bnb.nodes": sum(s.extra or 0 for s in bnb),
        "solver.gamma_bnb.nodes_max": max((s.extra or 0 for s in bnb), default=0),
        "solver.gamma_bnb.s": total_s("solver.gamma_bnb"),
        "solver.gamma_bnb.self_s": self_s("solver.gamma_bnb"),
        "solver.gamma_bnb.call_max_s": max((s.seconds for s in bnb), default=0.0),
        "graphs.components.calls": len(named["graphs.components"]),
        "graphs.components.s": total_s("graphs.components"),
        "graphs.complement.calls": len(named["graphs.complement"]),
        "graphs.complement.s": total_s("graphs.complement"),
        "graphs.canonical_form.calls": len(named["graphs.canonical_form"]),
        "graphs.canonical_form.s": total_s("graphs.canonical_form"),
        "graphs.enumerate_nonisomorphic.s": total_s("graphs.enumerate_nonisomorphic"),
        "graphs.noniso_yield": ratio(sum(s.extra or 0 for s in nonisos),
                                     len(named["graphs.canonical_form"])),
        "graphs.enumerate_labeled_graphs.s": total_s("graphs.enumerate_labeled_graphs"),
        "graphs.encode_graph6.calls": len(named["graphs.encode_graph6"]),
        "graphs.encode_graph6.s": total_s("graphs.encode_graph6"),
        "graphs.parse_graph6.calls": len(named["graphs.parse_graph6"]),
        "graphs.parse_graph6.s": total_s("graphs.parse_graph6"),
        "nordhaus.ng_record.calls": len(records),
        "nordhaus.ng_record.worker_calls": sum(1 for s in records if s.key[0] != root_pid),
        "nordhaus.ng_record.self_s": self_s("nordhaus.ng_record"),
        "nordhaus.cache_hit_ratio": ratio(len(records) * 2 - bnb_in_records, len(records) * 2),
        "cli.run.s": total_s("cli.run"),
        "cli.pool.workers": workers,
        "cli.pool.busy_frac": ratio(worker_busy, workers * pool_wall),
        "cli.pool.parent_s": total_s("cli.run") - pool_wall if pools else 0.0,
    }
