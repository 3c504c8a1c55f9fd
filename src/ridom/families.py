"""Structural recognition of the extremal families for the 2-rainbow case.

A connected graph on at least 3 vertices has 2-rainbow independent domination
number ``n - 1`` exactly when it is a star, a star with one extra edge
between two leaves, a double star whose second center carries a single leaf,
or the 5-cycle.  The checks here are purely structural (degree multisets plus
constant-size adjacency probes), never solver-backed, so they can serve as an
independent cross-check of the solvers.
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


@dataclass(frozen=True)
class FamilyTag:
    """Recognized family plus the structurally distinguished vertices.

    ``centers`` holds the star center, the two bridge endpoints of a double
    star (higher-degree center first), or nothing for the 5-cycle.
    """

    family: Family
    centers: tuple[int, ...] = ()


_NO_FAMILY = FamilyTag(Family.NONE)


def is_five_cycle(g: Graph) -> bool:
    """Structural 5-cycle test: 5 vertices, 2-regular (hence one cycle)."""
    return g.n == 5 and all(d == 2 for d in g.degrees())


def classify_connected(g: Graph) -> FamilyTag:
    """Decide family membership of a connected graph on >= 3 vertices.

    The 2-leaf star (the 3-path) counts as a star; the 4-vertex double star
    is the 4-path.  Raises on disconnected or undersized input.
    """
    if g.n < 3:
        raise ValueError(f"family classification needs n >= 3, got n = {g.n}")
    if not is_connected(g):
        raise ValueError("family classification needs a connected graph")
    n = g.n
    deg = g.degrees()

    hubs = [v for v in range(n) if deg[v] == n - 1]
    if hubs:
        center = hubs[0]
        rest = sorted(deg[v] for v in range(n) if v != center)
        if rest == [1] * (n - 1):
            return FamilyTag(Family.STAR, (center,))
        if rest == [1] * (n - 3) + [2, 2]:
            two_a, two_b = (v for v in range(n) if v != center and deg[v] == 2)
            if g.has_edge(two_a, two_b):
                return FamilyTag(Family.STAR_PLUS_EDGE, (center,))

    if n >= 4:
        internal = [v for v in range(n) if deg[v] >= 2]
        if (
            len(internal) == 2
            and sorted(deg[v] for v in internal) == sorted((2, n - 2))
            and g.has_edge(*internal)
        ):
            big, small = sorted(internal, key=lambda v: (-deg[v], v))
            return FamilyTag(Family.DOUBLE_STAR_31, (big, small))

    if is_five_cycle(g):
        return FamilyTag(Family.C5)

    return _NO_FAMILY


def is_trivial_components(g: Graph) -> bool:
    """True when every connected component has at most 2 vertices.

    Exactly these graphs have 2-rainbow value equal to their order, and the
    empty graph qualifies vacuously.
    """
    return all(size <= 2 for size in components(g).sizes())


@dataclass(frozen=True)
class GraphClass:
    """Classification of a possibly disconnected graph.

    ``matches_n_minus_1`` is the structural condition for value ``n - 1``:
    exactly one component of order >= 3, carrying a family tag, with every
    other component a single vertex or a single edge.  ``predicted`` is the
    structure-only 2-rainbow value: ``n`` when every component has at most
    2 vertices, ``n - 1`` on a match, None otherwise.
    """

    special: Optional[tuple[int, FamilyTag]]
    trivially_small: bool
    matches_n_minus_1: bool
    predicted: Optional[int]


def classify_graph(g: Graph) -> GraphClass:
    if g.n < 3:
        raise ValueError(f"graph classification needs n >= 3, got n = {g.n}")
    parts = components(g).parts
    trivial = all(part.n <= 2 for part, _ in parts)
    big = [(idx, part) for idx, (part, _) in enumerate(parts) if part.n >= 3]
    special: Optional[tuple[int, FamilyTag]] = None
    if len(big) == 1:
        idx, part = big[0]
        tag = classify_connected(part)
        if tag.family is not Family.NONE:
            special = (idx, tag)
    return GraphClass(
        special=special,
        trivially_small=trivial,
        matches_n_minus_1=special is not None,
        predicted=g.n if trivial else g.n - 1 if special is not None else None,
    )


def predict_gamma_ri2(g: Graph) -> Optional[int]:
    """Structure-only prediction of the 2-rainbow value, where one exists.

    Returns ``n`` for all-tiny-component graphs, ``n - 1`` when the graph
    matches the extremal shape, and None otherwise.
    """
    # below 3 vertices every component is tiny
    return g.n if g.n < 3 else classify_graph(g).predicted
