"""Reference oracles and hypothesis strategies shared by the test modules.

Everything here is written independently of the package internals (plain
itertools over vertex sets, no bitmask tricks) so that agreement between
the two is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from ridom.graphs import (
    Graph,
    cycle_graph,
    double_star,
    induced_subgraph,
    star_graph,
    star_plus_edge,
)
from ridom.solver import PartialLabeling, extend_greedy, validate


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


def ilp_gamma_rik(g: Graph, k: int) -> int:
    """k-rainbow independent domination number as a 0/1 program.

    Variable ``x[v, c]`` says vertex ``v`` carries color ``c`` in ``1..k``.
    Each vertex carries at most one color, each color class is independent,
    and a vertex without a color sees every color among its neighbors.  The
    objective counts colored vertices.  Needs scipy (HiGHS); callers skip
    when it is absent.
    """
    import numpy as np
    from scipy.optimize import LinearConstraint, milp

    if g.n == 0:
        return 0
    var = {(v, c): i for i, (v, c) in
           enumerate(itertools.product(range(g.n), range(1, k + 1)))}
    rows = []  # (variables summed, lower bound, upper bound)
    for v in range(g.n):
        rows.append(([var[v, c] for c in range(1, k + 1)], 0, 1))
    for u, v in g.edges():
        for c in range(1, k + 1):
            rows.append(([var[u, c], var[v, c]], 0, 1))
    for v, c in itertools.product(range(g.n), range(1, k + 1)):
        own = [var[v, c2] for c2 in range(1, k + 1)]
        seen = [var[u, c] for u in range(g.n) if g.has_edge(u, v)]
        rows.append((own + seen, 1, np.inf))
    a = np.zeros((len(rows), len(var)))
    for r, (cols, _, _) in enumerate(rows):
        for col in cols:
            a[r, col] += 1
    lo = [row[1] for row in rows]
    hi = [row[2] for row in rows]
    res = milp(np.ones(len(var)), constraints=LinearConstraint(a, lo, hi),
               integrality=np.ones(len(var)), bounds=(0, 1))
    assert res.status == 0, res.message
    return int(round(res.fun))


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
