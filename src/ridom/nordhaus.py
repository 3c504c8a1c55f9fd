"""Verification of the complement-sum window for 2-rainbow independent domination.

For a graph of order ``n >= 3`` that is not the 5-cycle, the value on the
graph plus the value on its complement lies in ``[5, n + 2]``; the 5-cycle is
self-complementary and alone attains ``n + 3``.  At ``n = 2`` the window is
``{4}``, and 0- or 1-vertex graphs are unconstrained.

The lower end 5 is reached only at ``n = 3``: for ``n >= 4`` the sum is at
least 6.  A graph on two or more vertices has value at least 2, since a
vertex labeled 0 needs neighbors of both colors.  So take value 2 on G, by
symmetry.  With ``n >= 3`` some vertex is 0, so the two nonzero vertices u
and v carry colors 1 and 2, and every other vertex is adjacent to both.  In
the complement neither u nor v has a neighbor outside ``{u, v}``, so
neither can be 0.  The other ``n - 2 >= 2`` vertices are a union of
components of the complement, which need weight 2 or more.  Hence the
complement's value is at least 4.  This is a proved floor, not a status:
``ridom ng`` still classifies a record against the window above.  This module
computes one graph's exact sum with the branch-and-bound solver, classifies
the record against the applicable bounds, tabulates the value of every graph
of a labeled enumeration with one solve per isomorphism class, and collapses
graph6 ids up to isomorphism.  ``ridom ng`` runs it over a graph stream, so
a scan either certifies the window or surfaces concrete counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .families import is_five_cycle
from .graphs import (
    Graph,
    canonical_form,
    complement,
    encode_graph6,
    labeled_graph,
    labeled_masks,
    labeled_pairs,
    parse_graph6,
)
from .solver import DEFAULT_BUDGET, SolverBudget, gamma_bnb

STATUS_IN_RANGE = "in_range"
STATUS_AT_UPPER = "at_upper"
STATUS_EXCEPTIONAL_C5 = "exceptional_c5"
STATUS_VIOLATION = "violation"

ALL_STATUSES = (
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
    if not min(5, n + 2) <= total <= n + 2:
        return STATUS_VIOLATION
    return STATUS_AT_UPPER if total == n + 2 else STATUS_IN_RANGE


# maps a graph to its value and its complement's
GammaCache = dict[Graph, tuple[int, int]]


def ng_record(
    g: Graph, cache: Optional[GammaCache] = None, budget: SolverBudget = DEFAULT_BUDGET
) -> NGRecord:
    """Exact sum record for one graph, with its bound classification.

    ``cache`` maps a graph to its value and its complement's, and gains the
    pair solved here on a miss; the complement is built only then.  Both
    solves run under ``budget`` and ask for the value only, so they skip
    the lex-min witness phase.
    """
    cache = {} if cache is None else cache
    pair = cache.get(g)
    if pair is None:
        pair = cache[g] = (gamma_bnb(g, 2, budget, lexmin=False).value,
                           gamma_bnb(complement(g), 2, budget, lexmin=False).value)
    gamma, gamma_comp = pair
    total = gamma + gamma_comp
    return NGRecord(
        graph6=encode_graph6(g),
        n=g.n,
        gamma=gamma,
        gamma_comp=gamma_comp,
        sum=total,
        status=_status(g.n, is_five_cycle(g), total),
    )


# a table entry that no orbit has reached yet: every value is at most
# n <= 7, and 0 will not do, since the empty graph K0 has value 0
_UNSET = 255


def enumeration_values(n: int, budget: SolverBudget = DEFAULT_BUDGET) -> bytearray:
    """The value of every labeled graph on ``n`` vertices, indexed by edge
    mask (the mask of :func:`labeled_graph`).  The complement of mask ``m``
    is ``full ^ m``, so its value is the mirror entry ``gamma[-1 - m]``.

    Relabeling keeps the value, so the masks are scanned in increasing order
    and each mask ``m`` that no orbit has reached yet is solved, with its
    complement, under ``budget``: 156 solves for the 32,768 graphs on 6
    vertices.  m's value fills its orbit, found by a search over two
    generators of the symmetric group, the transposition (0 1) and the
    n-cycle.  Each acts on a mask as a permutation of its edge bits, applied
    through one lookup table per 8-bit chunk of the mask.  Complementing
    commutes with relabeling, so the complement's value fills the
    complements of the orbit, unless the orbit holds them already (a
    self-complementary class).
    """
    masks = labeled_masks(n)
    gamma = bytearray([_UNSET]) * len(masks)
    full = masks[-1]
    bit_of = {pair: b for b, pair in enumerate(labeled_pairs(n))}
    generators = []
    for perm in ((1, 0, *range(2, n)), (*range(1, n), 0)) if n >= 2 else ():
        images = [1 << bit_of[min(perm[i], perm[j]), max(perm[i], perm[j])] for i, j in bit_of]
        tables = []
        for lo in range(0, len(images), 8):
            table = [0]
            for image in images[lo:lo + 8]:
                table += [x | image for x in table]
            tables.append((lo, table))
        generators.append(tables)
    for m in masks:
        if gamma[m] != _UNSET:
            continue
        g = labeled_graph(n, m)
        a = gamma[m] = gamma_bnb(g, 2, budget, lexmin=False).value
        b = gamma_bnb(complement(g), 2, budget, lexmin=False).value
        orbit = [m]
        for x in orbit:
            for tables in generators:
                y = 0
                for lo, table in tables:
                    y |= table[x >> lo & 255]
                if gamma[y] == _UNSET:
                    gamma[y] = a
                    orbit.append(y)
        if gamma[full ^ m] == _UNSET:
            for x in orbit:
                gamma[full ^ x] = b
    return gamma


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
