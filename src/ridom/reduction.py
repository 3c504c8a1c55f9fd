"""Executable reduction from bipartite domination to k-rainbow labeling.

Attaching ``k - 1`` pendant leaves to every vertex of a bipartite graph
produces a target whose k-rainbow independent domination number is exactly
``(k - 1) * (number of source vertices)`` plus the domination number of the
source.  Leaves can never take label 0 (a zero vertex needs k >= 2 colored
neighbors but a leaf has one neighbor), which pins the leaf contribution and
makes the zero/nonzero pattern of the core mirror a dominating set.  Both
directions of that correspondence are implemented and checkable on concrete
instances, so the hardness transfer is a runnable computation rather than an
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .graphs import Graph, MAX_VERTICES, UnsupportedSizeError, bits, encode_graph6, parse_graph6
from .solver import Labeling, SolverBudget, domination_number, gamma_bnb, validate


def bipartition(g: Graph) -> Optional[tuple[int, int]]:
    """Two-color ``g`` by BFS, or None if some component is odd-cyclic.

    Deterministic: the smallest vertex of each component lands in the first
    part.  Returns the parts as bit masks.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in bits(g.adj[v]):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    x = 0
    y = 0
    for v, c in enumerate(color):
        if c == 0:
            x |= 1 << v
        else:
            y |= 1 << v
    return x, y


@dataclass(frozen=True)
class ReductionInstance:
    """A source bipartite graph, its parts and ``k``, which fix the target.

    Construction checks that ``k >= 2``, that the part masks are a genuine
    bipartition of ``source`` and that the target fits the 64-vertex cap.
    ``core_map[v]`` is the target index of source vertex ``v`` and
    ``leaf_map[v]`` the ascending indices of its ``k - 1`` pendant leaves.
    """

    source: Graph
    x_mask: int
    y_mask: int
    k: int

    def __post_init__(self) -> None:
        g, x, y = self.source, self.x_mask, self.y_mask
        if self.k < 2:
            raise ValueError("the reduction needs k >= 2; leaves do not pin labels at k = 1")
        if x & y or (x | y) != g.full_mask:
            raise ValueError("parts do not partition the vertex set")
        for v in range(g.n):
            side = x if x >> v & 1 else y
            if g.adj[v] & side:
                raise ValueError(f"vertex {v} has a neighbor inside its own part")
        if g.n * self.k > MAX_VERTICES:
            raise UnsupportedSizeError(f"target has {g.n * self.k} vertices, cap is {MAX_VERTICES}")

    @cached_property
    def core_map(self) -> tuple[int, ...]:
        return tuple(range(self.source.n))

    @cached_property
    def leaf_map(self) -> tuple[tuple[int, ...], ...]:
        n, spare = self.source.n, self.k - 1
        return tuple(tuple(range(n + v * spare, n + (v + 1) * spare)) for v in range(n))

    @cached_property
    def target(self) -> Graph:
        edges = list(self.source.edges())
        for v, leaves in enumerate(self.leaf_map):
            edges.extend((v, leaf) for leaf in leaves)
        return Graph.from_edges(self.source.n * self.k, edges)


def build_reduction(g: Graph, parts: tuple[int, int], k: int) -> ReductionInstance:
    """Attach ``k - 1`` leaves to every source vertex of the bipartition ``parts``."""
    return ReductionInstance(g, *parts, k)


def lift_dominating_set(inst: ReductionInstance, dom_mask: int) -> Labeling:
    """Turn a dominating set of the source into a feasible target labeling.

    Dominators in the first part take color 1, in the second color 2; their
    leaves receive the remaining colors in ascending order.  A non-dominator
    stays 0 and its leaves carry every color except the one its dominating
    neighbor provides, preferring a part-1 dominator when both parts offer
    one.  The weight is ``(k - 1) * source.n + |dominating set|``.
    """
    g = inst.source
    if dom_mask & ~g.full_mask:
        raise ValueError("dominating set has bits outside the source graph")
    for v in range(g.n):
        if not (dom_mask >> v & 1) and not g.adj[v] & dom_mask:
            raise ValueError(f"set does not dominate source vertex {v}")
    k = inst.k
    labels = [0] * inst.target.n
    d1 = dom_mask & inst.x_mask
    for v in range(g.n):
        if dom_mask >> v & 1:
            own = 1 if inst.x_mask >> v & 1 else 2
            labels[inst.core_map[v]] = own
        else:
            # color supplied by a dominating neighbor; part 1 wins ties
            own = 1 if g.adj[v] & d1 else 2
        spare = [c for c in range(1, k + 1) if c != own]
        for leaf, color in zip(inst.leaf_map[v], spare):
            labels[leaf] = color
    return Labeling(k, tuple(labels))


def project_ridf(inst: ReductionInstance, f: Labeling) -> int:
    """Dominating set induced by a feasible target labeling.

    The nonzero core vertices dominate the source: a zero core vertex sees
    all ``k`` colors but its ``k - 1`` leaves supply at most ``k - 1`` of
    them, so some core neighbor is nonzero.  The set size is the labeling
    weight minus ``(k - 1) * source.n``.
    """
    if validate(inst.target, f):
        raise ValueError("labeling is not feasible on the target")
    mask = 0
    for v in range(inst.source.n):
        if f.labels[inst.core_map[v]]:
            mask |= 1 << v
    return mask


@dataclass(frozen=True)
class ReductionReport:
    gamma_dom: int
    gamma_rik_target: int
    expected: int
    equal: bool


def verify_reduction(inst: ReductionInstance, budget: Optional[SolverBudget] = None) -> ReductionReport:
    """Check the value identity on one instance with the exact solvers, under ``budget``.

    The target is solved for its value only, without the lex-min witness phase.
    """
    gamma_dom = domination_number(inst.source, budget).value
    gamma_target = gamma_bnb(inst.target, inst.k, budget, lexmin=False).value
    expected = (inst.k - 1) * inst.source.n + gamma_dom
    return ReductionReport(gamma_dom, gamma_target, expected, gamma_target == expected)


# ---------------------------------------------------------------------------
# stable line-oriented serialization


def serialize_instance(inst: ReductionInstance) -> str:
    """One tab-separated line: source, part masks (hex), k, target, maps."""
    return "\t".join(
        (
            encode_graph6(inst.source),
            format(inst.x_mask, "x"),
            format(inst.y_mask, "x"),
            str(inst.k),
            encode_graph6(inst.target),
            ",".join(str(v) for v in inst.core_map),
            ";".join(",".join(str(l) for l in leaves) for leaves in inst.leaf_map),
        )
    )


def parse_instance(line: str) -> ReductionInstance:
    """The instance of a :func:`serialize_instance` line.

    The source, parts and ``k`` rebuild it, and the line must be exactly that
    instance's serialization: a target or map that disagrees is a ``ValueError``.
    """
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 7:
        raise ValueError(f"expected 7 tab-separated fields, got {len(fields)}")
    src_g6, x_hex, y_hex, k_text = fields[:4]
    inst = ReductionInstance(parse_graph6(src_g6), int(x_hex, 16), int(y_hex, 16), int(k_text))
    if serialize_instance(inst).split("\t") != fields:
        raise ValueError("line differs from the reduction of its source, parts and k")
    return inst
