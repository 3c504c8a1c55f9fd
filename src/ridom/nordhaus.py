"""Verification of the complement-sum window for 2-rainbow independent domination.

For a graph of order ``n >= 3`` that is not the 5-cycle, the value on the
graph plus the value on its complement lies in ``[5, n + 2]``; the 5-cycle is
self-complementary and alone attains ``n + 3``.  At ``n = 2`` only the upper
bound applies, and 0- or 1-vertex graphs are unconstrained.  This module
computes one graph's exact sum with the branch-and-bound solver, classifies
the record against the applicable bounds, and collapses graph6 ids up to
isomorphism.  ``ridom ng`` runs it over a graph stream, so a scan either
certifies the window or surfaces concrete counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .families import is_five_cycle
from .graphs import (
    MAX_VERTICES,
    Graph,
    canonical_form,
    complement,
    encode_graph6,
    parse_graph6,
)
from .solver import SolverBudget, gamma_bnb

STATUS_BELOW_RANGE = "below_range"
STATUS_IN_RANGE = "in_range"
STATUS_AT_UPPER = "at_upper"
STATUS_EXCEPTIONAL_C5 = "exceptional_c5"
STATUS_VIOLATION = "violation"

ALL_STATUSES = (
    STATUS_BELOW_RANGE,
    STATUS_IN_RANGE,
    STATUS_AT_UPPER,
    STATUS_EXCEPTIONAL_C5,
    STATUS_VIOLATION,
)


@dataclass(frozen=True)
class NGRecord:
    graph6: str
    n: int
    gamma: int
    gamma_comp: int
    sum: int
    status: str

    def to_line(self) -> str:
        return "\t".join(
            (self.graph6, str(self.n), str(self.gamma), str(self.gamma_comp), str(self.sum), self.status)
        )


def _status(n: int, c5: bool, total: int) -> str:
    if c5:
        return STATUS_EXCEPTIONAL_C5 if total == n + 3 else STATUS_VIOLATION
    if n <= 1:
        # no bound applies to the empty graph or a single vertex
        return STATUS_IN_RANGE
    if total > n + 2:
        return STATUS_VIOLATION
    if n >= 3 and total < 5:
        return STATUS_VIOLATION
    if total == n + 2:
        return STATUS_AT_UPPER
    if total < 5:
        # reachable only where the lower bound does not apply (n = 2)
        return STATUS_BELOW_RANGE
    return STATUS_IN_RANGE


# a key packs the rows n bits apiece (row v at bit n * v) above 7 bits of n
GammaKey = int
GammaCache = dict[GammaKey, int]
# by n, the key bits that complementing flips: every row bit but the diagonal
_OFFDIAG = tuple(
    ((1 << n * n) - 1 ^ sum(1 << (n + 1) * v for v in range(n))) << 7
    for n in range(MAX_VERTICES + 1)
)


def cache_keys(g: Graph) -> tuple[GammaKey, GammaKey]:
    """The ``GammaCache`` keys of ``g`` and of its complement."""
    packed = 0
    for row in reversed(g.adj):
        packed = packed << g.n | row
    key = packed << 7 | g.n
    return key, key ^ _OFFDIAG[g.n]


def ng_record(
    g: Graph, cache: Optional[GammaCache] = None, budget: Optional[SolverBudget] = None
) -> NGRecord:
    """Exact sum record for one graph, with its bound classification.

    ``cache`` maps the keys of :func:`cache_keys` to known values and gains
    the values solved here; the complement is built only when its value is
    not in it.  Both solves run under ``budget`` (default: ``DEFAULT_BUDGET``)
    and ask for the value only, so they skip the lex-min witness phase.
    """
    cache = {} if cache is None else cache
    key, ckey = cache_keys(g)
    gamma = cache.get(key)
    if gamma is None:
        gamma = cache[key] = gamma_bnb(g, 2, budget, lexmin=False).value
    gamma_comp = cache.get(ckey)
    if gamma_comp is None:
        gamma_comp = cache[ckey] = gamma_bnb(complement(g), 2, budget, lexmin=False).value
    total = gamma + gamma_comp
    return NGRecord(
        graph6=encode_graph6(g),
        n=g.n,
        gamma=gamma,
        gamma_comp=gamma_comp,
        sum=total,
        status=_status(g.n, is_five_cycle(g), total),
    )


def extremal_ids(ids: Iterable[str]) -> list[str]:
    """The graph6 ``ids`` (at-upper records, say) up to isomorphism.

    Isomorphic repeats collapse onto their first id via the canonical form,
    which caps the graphs at 8 vertices (``UnsupportedSizeError``).  Only one
    id per class is held, so ``ids`` may be a stream of any length.
    """
    first: dict[bytes, str] = {}
    for graph6 in ids:
        first.setdefault(canonical_form(parse_graph6(graph6)), graph6)
    return list(first.values())
