"""Exact solvers for rainbow independent domination and related invariants.

A ``k``-labeling gives every vertex a value in ``0..k``.  It is feasible when
each nonzero class is an independent set and every vertex labeled 0 has, for
each color ``1..k``, at least one neighbor carrying that color.  The minimum
number of nonzero vertices over feasible labelings is the k-rainbow
independent domination number of the graph; at ``k = 1`` this is the ordinary
independent domination number.

Two independent routes compute it: ``gamma_brute`` enumerates labelings from
the definition, ``gamma_bnb`` is a per-component branch and bound.  They must
always agree; the test suite enforces this exhaustively on small graphs.  All
solvers are pure and deterministic, returning the lexicographically smallest
optimal labeling (vertex index order, label order 0 < 1 < ... < k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Graph, bits, components, prism_product

VIOLATION_DEPENDENT = "color-class-not-independent"
VIOLATION_UNCOVERED = "zero-vertex-misses-color"


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured search budget."""


@dataclass(frozen=True)
class SolverBudget:
    """Caps on enumeration sizes; defaults fit interactive use.

    ``max_labelings`` bounds ``(k+1)**n`` for labeling enumeration (default
    3**12, i.e. n = 12 at k = 2).  ``max_subsets`` bounds ``2**n`` for
    vertex-subset enumeration (default n = 24).  ``max_nodes`` bounds the
    search nodes of one ``gamma_bnb`` call (default 10**8, a few minutes).
    """

    max_labelings: int = 3**12
    max_subsets: int = 1 << 24
    max_nodes: int = 10**8


DEFAULT_BUDGET = SolverBudget()


@dataclass(frozen=True)
class Labeling:
    """A total assignment of labels ``0..k``, one per vertex."""

    k: int
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        for v, lab in enumerate(self.labels):
            if not 0 <= lab <= self.k:
                raise ValueError(f"label {lab} at vertex {v} outside 0..{self.k}")

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
        if self.k < 1:
            raise ValueError("k must be at least 1")
        for v, lab in enumerate(self.assigned):
            if lab is not None and not 0 <= lab <= self.k:
                raise ValueError(f"label {lab} at vertex {v} outside 0..{self.k}")

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
    method: str


@dataclass(frozen=True)
class SetResult:
    """Outcome of a vertex-subset search; the witness is a vertex bit mask."""

    value: int
    witness: int
    nodes_explored: int
    method: str


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


def _check_labeling_budget(n: int, k: int, budget: SolverBudget) -> int:
    space = (k + 1) ** n
    if space > budget.max_labelings:
        raise BudgetExceededError(
            f"(k+1)^n = {space} labelings exceed the budget of "
            f"{budget.max_labelings}; use gamma_bnb for graphs this large"
        )
    return space


def gamma_brute(g: Graph, k: int, budget: SolverBudget | None = None) -> SolveResult:
    """Reference solver: scan every labeling in lexicographic order."""
    budget = budget or DEFAULT_BUDGET
    space = _check_labeling_budget(g.n, k, budget)
    if g.n == 0:
        return SolveResult(0, Labeling(k, ()), 1, "brute")
    adj = g.adj
    best_w = g.n + 1
    best: Optional[tuple[int, ...]] = None
    for cand in itertools.product(range(k + 1), repeat=g.n):
        w = sum(1 for lab in cand if lab)
        if w >= best_w:
            continue
        if _feasible(adj, cand, k):
            best_w = w
            best = cand
    assert best is not None  # the all-nonzero greedy always yields something
    return SolveResult(best_w, Labeling(k, best), space, "brute")


def extend_greedy(g: Graph, partial: PartialLabeling, order: Sequence[int]) -> Labeling:
    """Complete a feasible partial labeling one vertex at a time.

    Each vertex of ``order`` (which must list exactly the unassigned vertices)
    gets the smallest color whose class it is not adjacent to, or 0 when every
    color class already meets its neighborhood.  The result is feasible and
    keeps the original zero class zero, so its weight is at most
    ``g.n - |zero class of partial|``.
    """
    if len(partial.assigned) != g.n:
        raise ValueError(f"partial covers {len(partial.assigned)} vertices, graph has {g.n}")
    if sorted(order) != sorted(partial.unassigned()):
        raise ValueError("order must list exactly the unassigned vertices")
    k = partial.k
    labels = list(partial.assigned)
    masks = [0] * (k + 1)
    assigned_mask = 0
    for v, lab in enumerate(labels):
        if lab is not None:
            assigned_mask |= 1 << v
            if lab:
                masks[lab] |= 1 << v
    # the assigned part must already be feasible on its induced subgraph
    for v, lab in enumerate(labels):
        if lab is None:
            continue
        if lab:
            if g.adj[v] & masks[lab]:
                raise ValueError(f"partial labeling has adjacent {lab}-vertices at {v}")
        else:
            for color in range(1, k + 1):
                if not g.adj[v] & masks[color] & assigned_mask:
                    raise ValueError(
                        f"partial labeling leaves zero-vertex {v} without color {color}"
                    )
    for x in order:
        for color in range(1, k + 1):
            if not g.adj[x] & masks[color]:
                labels[x] = color
                masks[color] |= 1 << x
                break
        else:
            labels[x] = 0
    return Labeling(k, tuple(labels))


def solve_constrained(
    g: Graph,
    k: int,
    fixed: PartialLabeling,
    budget: SolverBudget | None = None,
) -> Optional[SolveResult]:
    """Minimum-weight feasible labeling agreeing with ``fixed``, if any.

    Unlike :func:`extend_greedy` this places no feasibility demand on the
    fixed part by itself; a fixed zero vertex may collect its colors from the
    free vertices.  Enumerates the free labels exhaustively, so budget-bound.
    """
    budget = budget or DEFAULT_BUDGET
    if fixed.k != k:
        raise ValueError(f"fixed labels carry k={fixed.k}, solver asked for k={k}")
    if len(fixed.assigned) != g.n:
        raise ValueError(f"fixed covers {len(fixed.assigned)} vertices, graph has {g.n}")
    free = fixed.unassigned()
    _check_labeling_budget(len(free), k, budget)
    adj = g.adj
    base = list(fixed.assigned)
    best_w = g.n + 1
    best: Optional[tuple[int, ...]] = None
    explored = 0
    for choice in itertools.product(range(k + 1), repeat=len(free)):
        explored += 1
        for v, lab in zip(free, choice):
            base[v] = lab
        w = sum(1 for lab in base if lab)
        if w >= best_w:
            continue
        if _feasible(adj, base, k):  # type: ignore[arg-type]
            best_w = w
            best = tuple(base)  # type: ignore[arg-type]
    if best is None:
        return None
    return SolveResult(best_w, Labeling(k, best), explored, "brute")


# ---------------------------------------------------------------------------
# branch and bound


def _greedy_weight(adj: Sequence[int], n: int, k: int) -> int:
    masks = [0] * (k + 1)
    w = 0
    for v in range(n):
        for color in range(1, k + 1):
            if not adj[v] & masks[color]:
                masks[color] |= 1 << v
                w += 1
                break
    return w


def _bnb_component(
    adj: Sequence[int], n: int, k: int, max_nodes: int, spent: int
) -> tuple[int, list[int], int]:
    """Exact optimum on one connected component, plus its lex-min witness.

    Phase 1 finds the optimal value branching on vertices by descending
    degree with label 0 tried first.  Phase 2 re-runs the search in vertex
    index order against the now-known optimum and returns the first
    completion, which is the lexicographically smallest optimal labeling.
    Both phases prune:

    - on zero vertices whose unassigned neighbors can no longer supply all
      missing colors;
    - on weight: a vertex of degree < k can never be 0, so the nonzero count
      plus the number of such vertices still unassigned bounds every
      completion from below;
    - on demand: ``demand`` counts the colors still missing at vertices not
      labeled nonzero (n·k at the root, 0 at a feasible leaf).  A vertex w
      turning nonzero removes at most deg(w) + k of it, its own missing
      colors plus one per neighbor newly seeing its color, so at least
      ``need[demand]`` more vertices become nonzero, where ``need`` sums the
      largest deg + k values until they reach the demand.  The weight
      bound adds the larger of this and the forced count;
    - on color symmetry: a vertex takes 0, a color already used, or the next
      unused color ``max_used + 1``, so each relabeling of the color classes
      is searched once.  The lex-min optimum survives, because it uses its
      colors in first-use order: swapping c and c + 1 in a labeling where
      c + 1 appears first gives a lex-smaller optimum.

    Raises :class:`BudgetExceededError` once this search's nodes plus the
    ``spent`` ones (on the graph's earlier components) exceed ``max_nodes``.
    """
    all_colors = ((1 << k) - 1) << 1
    limit = max_nodes - spent
    nbrs = [tuple(bits(row)) for row in adj]
    nodes = 0
    # need[d]: fewest vertices whose deg + k values sum to at least d
    gains = sorted((row.bit_count() + k for row in adj), reverse=True)
    need = [0] * (n * k + 1)
    taken = supply = 0
    for d in range(1, n * k + 1):
        while supply < d:
            supply += gains[taken]
            taken += 1
        need[d] = taken

    def search(order: Sequence[int], cap: int, stop_at_cap: bool) -> tuple[int, Optional[list[int]]]:
        nonlocal nodes
        label: list[Optional[int]] = [None] * n
        masks = [0] * (k + 1)
        seen = [0] * n          # colors present among assigned neighbors
        free_nbrs = [row.bit_count() for row in adj]
        best_val = cap
        best_labels: Optional[list[int]] = None
        nonzero = 0
        max_used = 0
        demand = n * k
        # forced_after[pos]: vertices of degree < k among order[pos:]
        forced_after = [0] * (n + 1)
        for pos in range(n - 1, -1, -1):
            forced_after[pos] = forced_after[pos + 1] + (adj[order[pos]].bit_count() < k)

        def place(pos: int) -> bool:
            nonlocal nodes, best_val, best_labels, nonzero, max_used, demand
            if nodes > limit:
                raise BudgetExceededError(
                    f"branch and bound exceeded the budget of {max_nodes} nodes"
                )
            forced = forced_after[pos]
            needed = need[demand]
            bound = nonzero + (forced if forced > needed else needed)
            if bound >= best_val + (1 if stop_at_cap else 0):
                return False
            if pos == n:
                if stop_at_cap:
                    best_labels = [lab for lab in label]  # type: ignore[misc]
                    return True
                best_val = nonzero
                return False
            v = order[pos]
            row = adj[v]
            prev_max = max_used
            for color in range(min(prev_max + 1, k) + 1):
                nodes += 1
                if color == 0:
                    missing = all_colors & ~seen[v]
                    if missing.bit_count() > free_nbrs[v]:
                        continue
                else:
                    if row & masks[color]:
                        continue
                # zero neighbors must still be able to collect their colors
                ok = True
                cbit = 1 << color if color else 0
                for u in nbrs[v]:
                    free_nbrs[u] -= 1
                    if label[u] == 0:
                        miss = all_colors & ~(seen[u] | cbit)
                        if miss.bit_count() > free_nbrs[u]:
                            ok = False
                if ok:
                    label[v] = color
                    if color:
                        masks[color] |= 1 << v
                        nonzero += 1
                        max_used = max(prev_max, color)
                        # v's own missing colors, plus one per neighbor not
                        # labeled nonzero that newly sees the color
                        drop = k - seen[v].bit_count()
                        for u in nbrs[v]:
                            if not (seen[u] & cbit or label[u]):
                                drop += 1
                            seen[u] |= cbit
                        demand -= drop
                    done = place(pos + 1)
                    max_used = prev_max
                    if color:
                        demand += drop
                        masks[color] &= ~(1 << v)
                        nonzero -= 1
                        # clear the color bit, then restore it for neighbors
                        # that still meet the class through another vertex
                        for u in nbrs[v]:
                            seen[u] &= ~cbit
                            if adj[u] & masks[color]:
                                seen[u] |= cbit
                    label[v] = None
                    if done:
                        for u in nbrs[v]:
                            free_nbrs[u] += 1
                        return True
                for u in nbrs[v]:
                    free_nbrs[u] += 1
            return False

        place(0)
        return best_val, best_labels

    order1 = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    incumbent = _greedy_weight(adj, n, k)
    value, _ = search(order1, incumbent, stop_at_cap=False)
    _, witness = search(range(n), value, stop_at_cap=True)
    assert witness is not None
    return value, witness, nodes


def gamma_bnb(g: Graph, k: int, budget: SolverBudget | None = None) -> SolveResult:
    """Branch-and-bound solver; decomposes into connected components.

    Feasibility is component-local and the weight is additive, so each
    component is solved on its own and the per-component lex-min witnesses
    compose into the global lex-min optimal labeling.  The components share
    ``budget.max_nodes``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    budget = budget or DEFAULT_BUDGET
    labels = [0] * g.n
    total = 0
    nodes = 0
    for part, vmap in components(g).parts:
        val, wit, explored = _bnb_component(part.adj, part.n, k, budget.max_nodes, nodes)
        total += val
        nodes += explored
        for local, orig in zip(wit, vmap):
            labels[orig] = local
    return SolveResult(total, Labeling(k, tuple(labels)), nodes, "bnb")


# ---------------------------------------------------------------------------
# classical set invariants by subset enumeration


def _check_subset_budget(n: int, budget: SolverBudget) -> None:
    if 1 << n > budget.max_subsets:
        raise BudgetExceededError(
            f"2^{n} subsets exceed the budget of {budget.max_subsets}"
        )


def _closed_neighborhoods(g: Graph) -> list[int]:
    return [row | 1 << v for v, row in enumerate(g.adj)]


def independent_domination(g: Graph, budget: SolverBudget | None = None) -> SetResult:
    """Smallest independent dominating set, by increasing-size subset scan."""
    budget = budget or DEFAULT_BUDGET
    _check_subset_budget(g.n, budget)
    closed = _closed_neighborhoods(g)
    full = g.full_mask
    examined = 0
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            examined += 1
            mask = 0
            cover = 0
            independent = True
            for v in combo:
                if g.adj[v] & mask:
                    independent = False
                    break
                mask |= 1 << v
                cover |= closed[v]
            if independent and cover == full:
                return SetResult(size, mask, examined, "enum")
    raise AssertionError("a maximal independent set always dominates")


def domination_number(g: Graph, budget: SolverBudget | None = None) -> SetResult:
    """Smallest dominating set, by increasing-size subset scan."""
    budget = budget or DEFAULT_BUDGET
    _check_subset_budget(g.n, budget)
    closed = _closed_neighborhoods(g)
    full = g.full_mask
    examined = 0
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            examined += 1
            cover = 0
            for v in combo:
                cover |= closed[v]
            if cover == full:
                mask = 0
                for v in combo:
                    mask |= 1 << v
                return SetResult(size, mask, examined, "enum")
    raise AssertionError("the full vertex set always dominates")


def is_independent_dominating(g: Graph, mask: int) -> bool:
    cover = 0
    for v in bits(mask):
        if g.adj[v] & mask:
            return False
        cover |= g.adj[v] | 1 << v
    return cover == g.full_mask


@dataclass(frozen=True)
class PrismReport:
    """Side-by-side check of the labeling invariant against the layered product."""

    gamma: SolveResult
    ids: SetResult
    equal: bool
    lifted_mask: int
    lifted_valid: bool


def prism_check(g: Graph, k: int, budget: SolverBudget | None = None) -> PrismReport:
    """Compare the k-rainbow value with the product graph's independent domination.

    Also lifts the labeling witness into the product (vertex ``v`` labeled
    ``i`` becomes ``(v, i)``) and validates that the lift is an independent
    dominating set of the same size.
    """
    budget = budget or DEFAULT_BUDGET
    gamma = gamma_bnb(g, k, budget)
    prism = prism_product(g, k)
    ids = independent_domination(prism, budget)
    lifted = 0
    for v, lab in enumerate(gamma.witness.labels):
        if lab:
            lifted |= 1 << (v * k + lab - 1)
    lifted_valid = is_independent_dominating(prism, lifted)
    return PrismReport(gamma, ids, gamma.value == ids.value, lifted, lifted_valid)
