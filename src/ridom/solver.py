"""Exact solvers for rainbow independent domination and related invariants.

A ``k``-labeling gives every vertex a value in ``0..k``.  It is feasible when
each nonzero class is an independent set and every vertex labeled 0 has, for
each color ``1..k``, at least one neighbor carrying that color.  The minimum
number of nonzero vertices over feasible labelings is the k-rainbow
independent domination number of the graph; at ``k = 1`` this is the ordinary
independent domination number.

Two independent routes compute it: ``gamma_brute`` enumerates labelings from
the definition, and ``gamma_bnb`` searches, per component, for a minimum
independent dominating set of the prism G □ K_k, whose size is the same
number (Kraner Šumenjak, Rall and Tepeh 2018), branching on dominators in
the manner of Gaspers and Liedloff's minimum independent dominating set
algorithm (DMTCS 2012).  They must always agree; the test suite enforces
this exhaustively on small graphs, and beyond brute force's reach checks
``gamma_bnb`` against an ILP and the earlier vertex-order search.  All
solvers are pure and deterministic.  By default they return the
lexicographically smallest optimal labeling (vertex index order, label order
0 < 1 < ... < k); ``gamma_bnb(..., lexmin=False)`` skips that refinement and
returns the same value with an optimal witness that need not be lex-min.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Graph, bits, components, induced_subgraph, prism_closed_rows, prism_product

VIOLATION_DEPENDENT = "color-class-not-independent"
VIOLATION_UNCOVERED = "zero-vertex-misses-color"


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured search budget."""


@dataclass(frozen=True)
class SolverBudget:
    """Caps on enumeration sizes; defaults fit interactive use.

    ``max_labelings`` bounds ``(k+1)**n`` for labeling enumeration (default
    3**12, i.e. n = 12 at k = 2); ``gamma_brute`` reads it, and so does
    ``ridom ng``'s row under ``--oracle-check``, which refuses a graph that
    ``gamma_brute`` could not re-solve.  ``max_subsets`` bounds ``2**n`` for
    vertex-subset enumeration (default n = 24).  ``max_nodes`` bounds the
    search nodes of one ``gamma_bnb`` call (default 10**8 nodes).
    """

    max_labelings: int = 3**12
    max_subsets: int = 1 << 24
    max_nodes: int = 10**8


DEFAULT_BUDGET = SolverBudget()


def _check_labels(k: int, labels: Iterable[Optional[int]], partial: bool = False) -> None:
    """Refuse k < 1, any label outside ``0..k`` and, unless ``partial``, a ``None`` label."""
    if k < 1:
        raise ValueError("k must be at least 1")
    for v, lab in enumerate(labels):
        if lab is None and not partial:
            raise ValueError(f"vertex {v} has no label")
        if lab is not None and not 0 <= lab <= k:
            raise ValueError(f"label {lab} at vertex {v} outside 0..{k}")


@dataclass(frozen=True)
class Labeling:
    """A total assignment of labels ``0..k``, one per vertex."""

    k: int
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_labels(self.k, self.labels)

    def to_text(self) -> str:
        return " ".join(str(lab) for lab in self.labels)

    @classmethod
    def from_text(cls, k: int, text: str) -> "Labeling":
        return cls(k, tuple(int(tok) for tok in text.split()))


@dataclass(frozen=True)
class PartialLabeling:
    """Labels for a subset of vertices; ``None`` marks the unassigned ones."""

    k: int
    assigned: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        _check_labels(self.k, self.assigned, partial=True)

    def unassigned(self) -> tuple[int, ...]:
        return tuple(v for v, lab in enumerate(self.assigned) if lab is None)


@dataclass(frozen=True)
class Violation:
    """One re-checkable defect of a labeling against the feasibility rule."""

    kind: str
    vertices: tuple[int, ...]
    color: int


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: Labeling
    nodes_explored: int


@dataclass(frozen=True)
class SetResult:
    """Outcome of a vertex-subset search; the witness is a vertex bit mask."""

    value: int
    witness: int


def weight(f: Labeling) -> int:
    """Number of vertices with a nonzero label."""
    return sum(1 for lab in f.labels if lab)


def _class_masks(labels: Sequence[int], k: int) -> list[int]:
    masks = [0] * (k + 1)
    for v, lab in enumerate(labels):
        if lab:
            masks[lab] |= 1 << v
    return masks


def validate(g: Graph, f: Labeling) -> list[Violation]:
    """All violations of ``f`` on ``g``; empty means feasible."""
    if len(f.labels) != g.n:
        raise ValueError(f"labeling covers {len(f.labels)} vertices, graph has {g.n}")
    masks = _class_masks(f.labels, f.k)
    out: list[Violation] = []
    for color in range(1, f.k + 1):
        m = masks[color]
        for v in bits(m):
            for u in bits(g.adj[v] & m):
                if u > v:
                    out.append(Violation(VIOLATION_DEPENDENT, (v, u), color))
    for v, lab in enumerate(f.labels):
        if lab == 0:
            for color in range(1, f.k + 1):
                if not g.adj[v] & masks[color]:
                    out.append(Violation(VIOLATION_UNCOVERED, (v,), color))
    return out


def _feasible(adj: Sequence[int], labels: Sequence[int], k: int) -> bool:
    # Same rule as validate(), minus the bookkeeping; used by the enumerative
    # solvers where object construction would dominate.
    masks = _class_masks(labels, k)
    for v, lab in enumerate(labels):
        row = adj[v]
        if lab:
            if row & masks[lab]:
                return False
        else:
            for color in range(1, k + 1):
                if not row & masks[color]:
                    return False
    return True


def _check_labeling_budget(n: int, k: int, budget: SolverBudget) -> None:
    space = (k + 1) ** n
    if space > budget.max_labelings:
        raise BudgetExceededError(
            f"(k+1)^n = {space} labelings exceed the budget of "
            f"{budget.max_labelings}; use gamma_bnb for graphs this large"
        )


def gamma_brute(g: Graph, k: int, budget: SolverBudget = DEFAULT_BUDGET) -> SolveResult:
    """Reference solver: scan every labeling in lexicographic order, keeping
    the first of each strictly smaller weight."""
    _check_labeling_budget(g.n, k, budget)
    best_w = g.n + 1
    best: tuple[int, ...] = ()
    for cand in itertools.product(range(k + 1), repeat=g.n):
        w = sum(1 for lab in cand if lab)
        if w < best_w and _feasible(g.adj, cand, k):
            best_w = w
            best = cand
    return SolveResult(best_w, Labeling(k, best), (k + 1) ** g.n)


def extend_greedy(g: Graph, partial: PartialLabeling, order: Iterable[int]) -> Labeling:
    """Complete a feasible partial labeling one vertex at a time.

    Each vertex of ``order`` (which must list exactly the unassigned vertices)
    gets the smallest color whose class it is not adjacent to, or 0 when every
    color class already meets its neighborhood.  The result is feasible and
    keeps the original zero class zero, so its weight is at most
    ``g.n - |zero class of partial|``.  ``validate`` checks the assigned part
    on the subgraph it induces; its first violation, in ``g``'s numbering,
    raises ``ValueError``.
    """
    if len(partial.assigned) != g.n:
        raise ValueError(f"partial covers {len(partial.assigned)} vertices, graph has {g.n}")
    order = tuple(order)
    if sorted(order) != sorted(partial.unassigned()):
        raise ValueError("order must list exactly the unassigned vertices")
    k = partial.k
    labels = list(partial.assigned)
    sub, vmap = induced_subgraph(g, sum(1 << v for v, lab in enumerate(labels) if lab is not None))
    for bad in validate(sub, Labeling(k, tuple(labels[v] for v in vmap))):
        where = ", ".join(str(vmap[u]) for u in bad.vertices)
        raise ValueError(f"partial labeling: {bad.kind} at vertices {where}, color {bad.color}")
    masks = _class_masks(labels, k)
    for x in order:
        for color in range(1, k + 1):
            if not g.adj[x] & masks[color]:
                labels[x] = color
                masks[color] |= 1 << x
                break
        else:
            labels[x] = 0
    return Labeling(k, tuple(labels))


# ---------------------------------------------------------------------------
# branch and bound


def _bnb_component(
    adj: Sequence[int], n: int, k: int, max_nodes: int, spent: int, lexmin: bool
) -> tuple[int, list[int], int]:
    """Exact optimum on one connected component, plus an optimal witness.

    The search runs on the prism G □ K_k without building it, through
    γ_rik(G) = i(G □ K_k): pair ``(v, c)``, vertex v carrying color c + 1,
    is bit ``v*k + c`` of an int, and a labeling of weight w is an
    independent dominating set of w pairs.  A node holds the chosen pairs,
    the pairs they dominate and the free pairs, those neither dominated nor
    excluded.  It takes the undominated pair with the fewest branches (see
    the symmetry rule) and branches on which of its free dominators joins
    the set, the one dominating most undominated pairs first; each later
    branch excludes the earlier choices.

    - Bound.  Each undominated pair needs one of its free dominators, and a
      vertex of degree < k can never be 0, so its layer ``{(v, c)}`` needs
      a pair of its own while v is not in the set.  Those layers in vertex
      order, then the dominator sets smallest first, are packed greedily
      into one pairwise disjoint family; a node is pruned when its size plus
      the packing reaches the best weight known (first-fit's at first).
    - Color symmetry.  With colors ``0..m-1`` in use, permuting the unused
      colors maps the node to itself as long as every exclusion is a union
      of orbits: single pairs of used colors, and per vertex v the set
      ``{(v, c) : c >= m}``.  An undominated ``(v, c)`` with c > m has the
      same dominators, up to that permutation, as ``(v, m)``, so only pairs
      of color <= m are picked and branched on, ``(v, m)`` standing for its
      orbit; the later branches then exclude the whole orbit, the pairs
      ``(v, c)`` with c >= m.  Any solution in such a branch holding one of
      them turns by swapping colors c and m into one of equal weight
      holding ``(v, m)`` and avoiding the same exclusions, which the
      ``(v, m)`` branch covered.  Choosing ``(v, m)`` only splits orbits,
      so exclusions stay unions of orbits below it.
    - Witness.  The lex-min optimum uses its colors in first-use order
      (swapping c and c + 1 where c + 1 comes first gives a lex-smaller
      optimum), so the best solution found is kept relabeled that way.
      Vertices are then fixed in index order.  At v, one step places each
      label in turn on the fixed prefix, up to the kept solution's, which is
      at most ``m + 1``.  A label below it gets a decision search for weight
      <= value, and the first that succeeds replaces the kept solution and
      fixes v; the kept label itself is placed without a search.  Labels
      that cannot work are skipped unsearched: 0 at a vertex of degree < k,
      and a color that a neighbor in the prefix carries.  A label below
      ``m + 1`` opens no new color, so the prefix stays in first-use order.
      With ``lexmin=False`` this phase is skipped: the witness is the first
      phase's best solution, optimal but not necessarily lex-min, and the
      node count is the first phase's alone.

    Raises :class:`BudgetExceededError` once this search's nodes plus the
    ``spent`` ones (on the graph's earlier components) exceed ``max_nodes``.
    """
    limit = max_nodes - spent
    full = (1 << n * k) - 1
    layer = (1 << k) - 1
    # upto[m]: the pairs of color <= m (``full // layer`` holds color 0's)
    upto = [full // layer * ((2 << min(m, k - 1)) - 1) for m in range(k + 1)]
    # closed[v*k + c]: the pairs that (v, c) dominates, itself included
    closed = prism_closed_rows(adj, k)
    forced = [layer << v * k for v in range(n) if adj[v].bit_count() < k]
    nodes = 0
    # the search prunes at weight ``best`` and records each set it completes;
    # ``first`` makes it stop at the first one (the decision searches)
    best = 0
    best_set = 0
    first = False

    def search(chosen: int, dom: int, free: int, size: int, m: int) -> bool:
        nonlocal nodes, best, best_set
        nodes += 1
        if nodes > limit:
            raise BudgetExceededError(
                f"branch and bound exceeded the budget of {max_nodes} nodes"
            )
        undom = full & ~dom
        if not undom:
            best, best_set = size, chosen
            return first
        if size + 1 >= best:  # one more pair at least: the cheapest bound
            return False
        bound = size
        packed = 0
        for own in forced:
            if own & undom:
                s = own & free
                if not s:
                    return False
                if not s & packed:
                    packed |= s
                    bound += 1
        low = upto[m]
        pick = 0
        fewest = n * k + 1
        sets = []
        rest = undom
        while rest:
            bit = rest & -rest
            rest ^= bit
            s = closed[bit.bit_length() - 1] & free
            if not s:
                return False
            sets.append(s)
            if bit & low:
                count = (s & low).bit_count()
                if count < fewest:
                    fewest, pick = count, s & low
        sets.sort(key=int.bit_count)
        for s in sets:
            if not s & packed:
                packed |= s
                bound += 1
        if bound >= best:
            return False
        branches = []
        while pick:
            bit = pick & -pick
            pick ^= bit
            p = bit.bit_length() - 1
            branches.append((-(closed[p] & undom).bit_count(), p))
        branches.sort()
        for _, p in branches:
            c = p % k
            if search(chosen | 1 << p, dom | closed[p], free & ~closed[p], size + 1, m + (c == m)):
                return True
            free &= ~(layer >> c << p if c == m else 1 << p)
        return False

    def labels_of(chosen: int) -> list[int]:
        # colors renamed 1, 2, ... in order of first use along the vertices
        out = []
        rename: dict[int, int] = {}
        for v in range(n):
            own = chosen >> v * k & layer
            out.append(rename.setdefault(own.bit_length(), len(rename) + 1) if own else 0)
        return out

    # the incumbent: first-fit colors in index order, already in first-use order
    classes = [0] * k
    for v in range(n):
        for c in range(k):
            if not adj[v] & classes[c]:
                classes[c] |= 1 << v
                best += 1
                best_set |= 1 << v * k + c
                break
    search(0, 0, full, 0, 0)
    value = best
    witness = labels_of(best_set)
    if not lexmin:
        return value, witness, nodes
    first = True
    state = (0, 0, full, 0, 0)
    for v in range(n):
        chosen, dom, free, size, m = state
        # a vertex of degree < k is never 0
        for lab in range(adj[v].bit_count() < k, witness[v] + 1):
            if lab:
                p = v * k + lab - 1
                if not free >> p & 1:
                    continue  # a neighbor in the prefix has this color
                state = (chosen | 1 << p, dom | closed[p], free & ~closed[p], size + 1, max(m, lab))
            else:
                state = (chosen, dom, free & ~(layer << v * k), size, m)
            if lab == witness[v]:
                break
            best = value + 1
            if search(*state):
                witness = labels_of(best_set)
                break
    return value, witness, nodes


def gamma_bnb(
    g: Graph, k: int, budget: SolverBudget = DEFAULT_BUDGET, *, lexmin: bool = True
) -> SolveResult:
    """Branch-and-bound solver; decomposes into connected components.

    Feasibility is component-local and the weight is additive, so each
    component is solved on its own and the per-component lex-min witnesses
    compose into the global lex-min optimal labeling.  The components share
    ``budget.max_nodes``.  Callers that read only the value pass
    ``lexmin=False``: each component then stops after its first phase, and
    the witness is optimal and feasible but need not be lex-min.

    A component of n vertices is searched with min(k, n) colors.  For
    k >= n no vertex can be 0, which needs k colored neighbors, so the value
    is n and the lex-min optimum is first-fit coloring in index order, which
    uses at most n colors: the same labeling at k and at n.
    """
    _check_labels(k, ())
    labels = [0] * g.n
    total = 0
    nodes = 0
    for part, vmap in components(g):
        colors = min(k, part.n)
        val, wit, explored = _bnb_component(part.adj, part.n, colors, budget.max_nodes, nodes, lexmin)
        total += val
        nodes += explored
        for local, orig in zip(wit, vmap):
            labels[orig] = local
    return SolveResult(total, Labeling(k, tuple(labels)), nodes)


# ---------------------------------------------------------------------------
# classical set invariants by subset enumeration


def _smallest_dominating(g: Graph, budget: SolverBudget, independent: bool) -> SetResult:
    """Smallest dominating set, independent when asked, by increasing-size subset scan."""
    if 1 << g.n > budget.max_subsets:
        raise BudgetExceededError(f"2^{g.n} subsets exceed the budget of {budget.max_subsets}")
    closed = prism_closed_rows(g.adj, 1)
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = 0
            cover = 0
            for v in combo:
                if independent and g.adj[v] & mask:
                    break
                mask |= 1 << v
                cover |= closed[v]
            else:
                if cover == g.full_mask:
                    return SetResult(size, mask)
    raise AssertionError("a maximal independent set always dominates")


def independent_domination(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> SetResult:
    """Smallest independent dominating set, by increasing-size subset scan."""
    return _smallest_dominating(g, budget, independent=True)


def domination_number(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> SetResult:
    """Smallest dominating set, by increasing-size subset scan."""
    return _smallest_dominating(g, budget, independent=False)


def is_independent_dominating(g: Graph, mask: int) -> bool:
    """Whether the vertex mask ``mask`` is an independent dominating set of
    ``g``: the feasibility rule of :func:`validate` at ``k = 1``."""
    if mask >> g.n:
        raise ValueError("vertex mask has bits outside the graph")
    return not validate(g, Labeling(1, tuple(mask >> v & 1 for v in range(g.n))))


@dataclass(frozen=True)
class PrismReport:
    """Side-by-side check of the labeling invariant against the layered product."""

    gamma: SolveResult
    ids: SetResult
    equal: bool
    lifted_valid: bool


def prism_check(g: Graph, k: int, budget: SolverBudget = DEFAULT_BUDGET) -> PrismReport:
    """Compare the k-rainbow value with the product graph's independent domination.

    Also lifts the labeling witness into the product (vertex ``v`` labeled
    ``i`` becomes ``(v, i)``) and validates that the lift is an independent
    dominating set of the same size.
    """
    prism = prism_product(g, k)
    gamma = gamma_bnb(g, k, budget)
    ids = independent_domination(prism, budget)
    lifted = 0
    for v, lab in enumerate(gamma.witness.labels):
        if lab:
            lifted |= 1 << (v * k + lab - 1)
    lifted_valid = is_independent_dominating(prism, lifted)
    return PrismReport(gamma, ids, gamma.value == ids.value, lifted_valid)
