"""Reference oracles and hypothesis strategies shared by the test modules.

Everything here is written independently of the package internals (plain
itertools over vertex sets, no bitmask tricks) so that agreement between
the two is meaningful evidence rather than a tautology.  The one exception
is ``bnb_vertex_order``, the package's earlier branch and bound, which
shares no code with the search that replaced it and reaches the orders
(n = 13-28) where enumeration cannot check witnesses.  The integer-program
oracle is not written here: ``ilp_gamma_rik`` calls the benchmark's
``perfbench/oracle.py``, which shares no code with the package either.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from hypothesis import strategies as st

import oracle
from ridom.graphs import (
    Graph,
    bits,
    components,
    cycle_graph,
    double_star,
    encode_graph6,
    induced_subgraph,
    relabel,
    star_graph,
    star_plus_edge,
)
from ridom.solver import Labeling, PartialLabeling, extend_greedy, gamma_bnb, validate


# ---------------------------------------------------------------------------
# graph6 reference encoder (straight from the format description)
# ---------------------------------------------------------------------------

def ref_encode_graph6(g: Graph) -> str:
    """Encode a graph in graph6, the slow obvious way."""
    if g.n > 62:
        raise ValueError("reference encoder only handles short-form sizes")
    out = [chr(g.n + 63)]
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    for pos in range(0, len(bits), 6):
        group = bits[pos:pos + 6]
        val = 0
        for b in group:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# canonical form by exhausting the symmetric group
# ---------------------------------------------------------------------------

def brute_canonical(g: Graph) -> bytes:
    """Minimum over every vertex relabelling of the packed edge bits.

    Bit order is column-major over the upper triangle with the first bit
    most significant, matching the library's documented layout.
    """
    if g.n <= 1:
        return bytes([g.n])
    total_bits = g.n * (g.n - 1) // 2
    best = None
    for perm in itertools.permutations(range(g.n)):
        # perm maps new position -> original vertex
        acc = 0
        for j in range(1, g.n):
            for i in range(j):
                acc = acc << 1 | (1 if g.has_edge(perm[i], perm[j]) else 0)
        if best is None or acc < best:
            best = acc
    return bytes([g.n]) + best.to_bytes((total_bits + 7) // 8, "big")


# ---------------------------------------------------------------------------
# domination oracles over explicit vertex subsets
# ---------------------------------------------------------------------------

def _dominates(g: Graph, chosen: set[int]) -> bool:
    for v in range(g.n):
        if v in chosen:
            continue
        if not any(u in chosen for u in range(g.n) if g.has_edge(u, v)):
            return False
    return True


def _independent(g: Graph, chosen: set[int]) -> bool:
    return not any(g.has_edge(u, v) for u, v in itertools.combinations(sorted(chosen), 2))


def ref_domination_number(g: Graph) -> int:
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if _dominates(g, set(combo)):
                return size
    raise AssertionError("V itself always dominates")


def ref_independent_domination_number(g: Graph) -> int:
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            chosen = set(combo)
            if _independent(g, chosen) and _dominates(g, chosen):
                return size
    raise AssertionError("a maximal independent set always exists")


def ref_gamma_rik(g: Graph, k: int) -> int:
    """k-rainbow independent domination number by plain enumeration.

    Tries every labelling f : V -> {0..k}, keeps the feasible ones, and
    returns the smallest count of nonzero labels.
    """
    best = g.n + 1
    for labels in itertools.product(range(k + 1), repeat=g.n):
        weight = sum(1 for x in labels if x)
        if weight >= best:
            continue
        ok = True
        for u, v in g.edges():
            if labels[u] and labels[u] == labels[v]:
                ok = False
                break
        if ok:
            for v in range(g.n):
                if labels[v]:
                    continue
                seen = {labels[u] for u in range(g.n) if g.has_edge(u, v) and labels[u]}
                if len(seen) < k:
                    ok = False
                    break
        if ok:
            best = weight
    return best


def has_feasible_labeling(g: Graph, k: int, fixed: dict[int, int]) -> bool:
    """Whether some feasible k-labeling of ``g`` gives each vertex of
    ``fixed`` its label there, by trying every labeling of the other vertices.

    A fixed 0 may collect its colors from the free vertices, so the fixed
    part need not be feasible on its own."""
    free = [v for v in range(g.n) if v not in fixed]
    for choice in itertools.product(range(k + 1), repeat=len(free)):
        labels = {**fixed, **dict(zip(free, choice))}
        if not validate(g, Labeling(k, tuple(labels[v] for v in range(g.n)))):
            return True
    return False


def ilp_gamma_rik(g: Graph, k: int) -> int:
    """k-rainbow independent domination number as a 0/1 program.

    The benchmark's integer-programming oracle, ``perfbench/oracle.py``, so
    one encoding serves both.  Needs scipy (HiGHS); callers skip when it is
    absent.
    """
    return oracle.ilp_optimum(g.n, g.adj, k)


# ---------------------------------------------------------------------------
# the vertex-order branch and bound
# ---------------------------------------------------------------------------

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


def _vertex_order_component(adj: Sequence[int], n: int, k: int) -> tuple[int, list[int], int]:
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
    """
    all_colors = ((1 << k) - 1) << 1
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


def bnb_vertex_order(g: Graph, k: int) -> tuple[int, tuple[int, ...], int]:
    """Value, lex-min optimal labels and search nodes by the vertex-order search.

    This is the package's earlier ``gamma_bnb`` search, kept as an oracle: it
    branches on the label of one vertex at a time and shares no code with the
    dominator branching that replaced it.  It solves each component on its
    own, like ``gamma_bnb``, and has no node budget.
    """
    labels = [0] * g.n
    total = nodes = 0
    for part, vmap in components(g):
        value, witness, explored = _vertex_order_component(part.adj, part.n, k)
        total += value
        nodes += explored
        for local, orig in zip(witness, vmap):
            labels[orig] = local
    return total, tuple(labels), nodes


# ---------------------------------------------------------------------------
# extremal family instances
# ---------------------------------------------------------------------------

def extremal_family_members(n: int):
    """All connected graphs on ``n`` vertices whose 2-rainbow value is n - 1.

    Yields (label, graph) pairs: the star, the star with one leaf-leaf edge,
    the double star with a single leaf on the second center, and the 5-cycle
    when n = 5.
    """
    if n < 3:
        return
    yield "star", star_graph(n - 1)
    yield "star-plus-edge", star_plus_edge(n - 1)
    if n >= 4:
        yield "double-star-1", double_star(n - 3, 1)
    if n == 5:
        yield "five-cycle", cycle_graph(5)


# ---------------------------------------------------------------------------
# randomized input builders
# ---------------------------------------------------------------------------

def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    return Graph.from_edges(
        n, [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]
    )


def assert_one_value_under_relabeling(rng, g: Graph, k: int) -> None:
    """Solve ``g`` for its value under the identity and 3 random vertex
    orders, and assert one value and a valid witness each time.

    The branching order follows the vertex labels, so a wrong prune usually
    moves the value under relabeling: a check with no oracle and no size
    limit."""
    values = set()
    for perm in [range(g.n)] + [rng.sample(range(g.n), g.n) for _ in range(3)]:
        h = relabel(g, perm)
        res = gamma_bnb(h, k, lexmin=False)
        assert validate(h, res.witness) == [], (encode_graph6(h), k)
        values.add(res.value)
    assert len(values) == 1, (encode_graph6(g), k, values)


def random_valid_partial(rng, g: Graph, k: int) -> PartialLabeling:
    """A partial labeling feasible on the subgraph induced by its support.

    Built by greedily labeling a random induced subgraph in a random order,
    then re-checked with the validator so a defect in the greedy rule cannot
    silently produce bogus test inputs.
    """
    mask = 0
    for v in range(g.n):
        if rng.random() < 0.6:
            mask |= 1 << v
    sub, vmap = induced_subgraph(g, mask)
    order = list(range(sub.n))
    rng.shuffle(order)
    filled = extend_greedy(sub, PartialLabeling(k, (None,) * sub.n), order)
    assert validate(sub, filled) == []
    assigned: list[int | None] = [None] * g.n
    for i, v in enumerate(vmap):
        assigned[v] = filled.labels[i]
    return PartialLabeling(k, tuple(assigned))


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 7) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                 else st.just([]))
    return Graph.from_edges(n, picks)


@st.composite
def permutations_of(draw, n: int):
    perm = list(range(n))
    # Fisher-Yates driven by drawn indices keeps shrinking sane
    for i in range(n - 1, 0, -1):
        j = draw(st.integers(min_value=0, max_value=i))
        perm[i], perm[j] = perm[j], perm[i]
    return perm
