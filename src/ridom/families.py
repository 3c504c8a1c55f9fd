"""Structural recognition of the extremal families for the 2-rainbow case.

A connected graph on at least 3 vertices has 2-rainbow independent domination
number ``n - 1`` exactly when it is a star, a star with one extra edge
between two leaves, a double star whose second center carries a single leaf,
or the 5-cycle.  The checks here are purely structural (degree multisets of
a connected graph), never solver-backed, so they can serve as an independent
cross-check of the solvers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, components, is_connected


class Family(enum.Enum):
    STAR = "star"
    STAR_PLUS_EDGE = "star+"
    DOUBLE_STAR_31 = "dstar31"
    C5 = "c5"
    NONE = "none"


def is_five_cycle(g: Graph) -> bool:
    """Structural 5-cycle test: 5 vertices, 2-regular (hence one cycle)."""
    return g.n == 5 and all(d == 2 for d in g.degrees())


def classify_connected(g: Graph) -> Family:
    """Decide family membership of a connected graph on >= 3 vertices.

    The 2-leaf star (the 3-path) counts as a star; the 4-vertex double star
    is the 4-path.  Raises on disconnected or undersized input.
    """
    if g.n < 3:
        raise ValueError(f"family classification needs n >= 3, got n = {g.n}")
    if not is_connected(g):
        raise ValueError("family classification needs a connected graph")
    return _family(g)


def _family(g: Graph) -> Family:
    """:func:`classify_connected` without its input checks: ``g`` must be
    connected, on at least 3 vertices.

    The degrees decide each family; no adjacency needs probing.  With a
    hub, a leaf's only neighbour is the hub, so the two vertices of degree 2
    have each other as their second neighbour: a star plus an edge.  When
    all but two vertices are leaves, a path between those two has no inner
    vertex, since an inner vertex has degree at least 2; the graph is
    connected, so the two are adjacent: a double star.
    """
    n = g.n
    deg = g.degrees()

    hubs = [v for v in range(n) if deg[v] == n - 1]
    if hubs:
        rest = sorted(deg[v] for v in range(n) if v != hubs[0])
        if rest == [1] * (n - 1):
            return Family.STAR
        if rest == [1] * (n - 3) + [2, 2]:
            return Family.STAR_PLUS_EDGE

    internal = sorted(d for d in deg if d >= 2)
    if n >= 4 and internal == sorted((2, n - 2)):
        return Family.DOUBLE_STAR_31

    return Family.C5 if is_five_cycle(g) else Family.NONE


@dataclass(frozen=True)
class GraphClass:
    """Classification of a possibly disconnected graph.

    ``family`` is the family of the graph's only component of order >= 3;
    it is ``Family.NONE`` when that component is in no family, or when the
    graph has zero or several such components.  ``trivially_small`` says
    every component has at most 2 vertices (the empty graph vacuously);
    exactly these graphs have 2-rainbow value equal to their order.
    """

    n: int
    family: Family
    trivially_small: bool

    @property
    def matches_n_minus_1(self) -> bool:
        """The structural condition for value ``n - 1``: exactly one
        component of order >= 3, in a family, with every other component a
        single vertex or a single edge."""
        return self.family is not Family.NONE

    @property
    def predicted(self) -> Optional[int]:
        """The structure-only 2-rainbow value: ``n`` when every component has
        at most 2 vertices, ``n - 1`` on a match, None otherwise."""
        if self.trivially_small:
            return self.n
        return self.n - 1 if self.matches_n_minus_1 else None


def classify_graph(g: Graph) -> GraphClass:
    """Classify ``g`` of any order; below 3 vertices every component is tiny."""
    big = [part for part, _ in components(g) if part.n >= 3]
    return GraphClass(g.n, _family(big[0]) if len(big) == 1 else Family.NONE, not big)


def predict_gamma_ri2(g: Graph) -> Optional[int]:
    """Structure-only prediction of the 2-rainbow value, where one exists.

    Returns ``n`` for all-tiny-component graphs, ``n - 1`` when the graph
    matches the extremal shape, and None otherwise.
    """
    return classify_graph(g).predicted
