"""Bit-packed simple graphs with a graph6 codec and small-graph enumeration.

Vertices are integers ``0..n-1`` and the adjacency structure is one int bit
row per vertex, so neighborhood algebra is plain integer arithmetic.  Graphs
are immutable and safe to share across worker processes.  Everything here is
capped at 64 vertices; the codec and the canonical form have tighter caps and
reject larger inputs loudly instead of degrading.  ``Graph(n, adj)``,
``from_edges``, ``disjoint_union`` and the graph6 parser check rows where
they enter; the builders deriving them from a valid graph or mask do not.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64
GRAPH6_MAX_VERTICES = 62
CANONICAL_MAX_VERTICES = 8
LABELED_ENUM_MAX_VERTICES = 7

GRAPH6_HEADER = ">>graph6<<"


class UnsupportedSizeError(ValueError):
    """An operation was asked to exceed its documented vertex-count cap."""


class Graph6ParseError(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position in the line."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on ``n`` vertices as a tuple of bit rows.

    ``adj[v]`` has bit ``u`` set iff ``uv`` is an edge.  Rows must be symmetric
    and loop-free; ``Graph(n, adj)`` validates this, internal builders trust it.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise UnsupportedSizeError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.adj)}")
        full = (1 << self.n) - 1
        adj = self.adj
        # row v is in range before its probes, so each adj[u] below exists
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                row ^= low

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in bits(self.adj[v] >> (v + 1) << (v + 1)):
                yield (v, u)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)


def _built(n: int, adj: tuple[int, ...]) -> Graph:
    """``Graph(n, adj)`` unchecked, for rows the caller built valid."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return _built(g.n, tuple(~row & full & ~(1 << v) for v, row in enumerate(g.adj)))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply the vertex renaming ``perm`` where ``perm[old] = new``."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    rows = [0] * g.n
    for old, row in enumerate(g.adj):
        for u in bits(row):
            rows[perm[old]] |= 1 << perm[u]
    return _built(g.n, tuple(rows))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


def induced_subgraph(g: Graph, vertex_mask: int) -> tuple[Graph, tuple[int, ...]]:
    """Restrict ``g`` to the vertices of ``vertex_mask``.

    Returns the subgraph plus the map from new indices to original ones
    (ascending, so relative vertex order is preserved).
    """
    if vertex_mask & ~g.full_mask:
        raise ValueError("vertex mask has bits outside the graph")
    vmap = tuple(bits(vertex_mask))
    pos = {v: i for i, v in enumerate(vmap)}
    rows = []
    for v in vmap:
        row = 0
        for u in bits(g.adj[v] & vertex_mask):
            row |= 1 << pos[u]
        rows.append(row)
    return _built(len(vmap), tuple(rows)), vmap


def bfs_layers(g: Graph, seed: int) -> Iterator[int]:
    """Yield the breadth-first layers of the vertex mask ``seed`` as vertex
    masks: ``seed`` itself, then the vertices at distance 1, 2, ... from it."""
    seen = layer = seed
    while layer:
        yield layer
        grow = 0
        for v in bits(layer):
            grow |= g.adj[v]
        layer = grow & ~seen
        seen |= layer


def components(g: Graph) -> tuple[tuple[Graph, tuple[int, ...]], ...]:
    """Split ``g`` into connected components, ordered by smallest vertex.

    Each component is a (subgraph, original-index map) pair.
    """
    remaining = g.full_mask
    parts = []
    while remaining:
        # the layers are disjoint, so their sum is the component
        comp = sum(bfs_layers(g, remaining & -remaining))
        if comp == g.full_mask:
            # connected: the graph is its own single part, already validated
            return ((g, tuple(range(g.n))),)
        parts.append(induced_subgraph(g, comp))
        remaining &= ~comp
    return tuple(parts)


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def prism_closed_rows(adj: Sequence[int], k: int) -> list[int]:
    """The closed neighborhoods in :func:`prism_product` of the graph with rows
    ``adj``, with no vertex cap: entry ``v*k + c`` is vertex ``(v, c + 1)``'s."""
    layer = (1 << k) - 1
    closed = []
    for v, row in enumerate(adj):
        nbrs = 0
        while row:
            low = row & -row
            nbrs |= 1 << (low.bit_length() - 1) * k
            row ^= low
        closed += [layer << v * k | nbrs << c for c in range(k)]
    return closed


def prism_product(g: Graph, k: int) -> Graph:
    """Product of ``g`` with a complete graph on ``k`` layer indices.

    Vertex ``(v, i)`` for ``v`` in ``g`` and ``i`` in ``1..k`` maps to index
    ``v*k + (i-1)``; two vertices are adjacent iff they share the vertex and
    differ in layer, or share the layer across an edge of ``g``.  With
    ``k = 1`` this is ``g`` itself.
    """
    if k < 1:
        raise ValueError("layer count k must be at least 1")
    if g.n * k > MAX_VERTICES:
        raise UnsupportedSizeError(f"product has {g.n * k} vertices, cap is {MAX_VERTICES}")
    rows = prism_closed_rows(g.adj, k)
    return _built(g.n * k, tuple(row & ~(1 << p) for p, row in enumerate(rows)))


# ---------------------------------------------------------------------------
# named constructions


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and ``leaves`` pendant vertices."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def star_plus_edge(leaves: int) -> Graph:
    """Star on ``leaves >= 2`` pendants with one extra edge between leaves 1 and 2."""
    if leaves < 2:
        raise ValueError("need at least two leaves to join")
    return Graph.from_edges(leaves + 1, [*star_graph(leaves).edges(), (1, 2)])


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centers carrying ``a`` and ``b`` leaves (``a >= b >= 0``).

    Vertex layout: center 0 with leaves ``1..a``, center ``a+1`` with leaves
    ``a+2..a+b+1``.
    """
    if not a >= b >= 0:
        raise ValueError("leaf counts must satisfy a >= b >= 0")
    n = a + b + 2
    edges = [(0, a + 1)]
    edges += [(0, i) for i in range(1, a + 1)]
    edges += [(a + 1, i) for i in range(a + 2, n)]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# graph6 codec (short form only) and the edge-list text format


@lru_cache(maxsize=None)
def _triangle_pairs(n: int) -> tuple[tuple[int, int], ...]:
    # graph6 bit order: column-major upper triangle
    return tuple((i, j) for j in range(1, n) for i in range(j))


def _graph_of_pairs(n: int, pairs: Sequence[tuple[int, int]], mask: int) -> Graph:
    """The graph on ``n`` vertices with edge ``pairs[b]`` for each set bit ``b`` of ``mask``."""
    rows = [0] * n
    while mask:
        low = mask & -mask
        i, j = pairs[low.bit_length() - 1]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        mask ^= low
    return _built(n, tuple(rows))


def _byte_name(ch: str) -> str:
    """The first input byte of ``ch`` in hex; an undecodable byte arrives as
    its surrogate escape, U+DC80..U+DCFF."""
    code = ord(ch)
    byte = code - 0xDC00 if 0xDC80 <= code <= 0xDCFF else ch.encode("utf-8", "surrogatepass")[0]
    return f"0x{byte:02x}"


def parse_graph6(line: str) -> Graph:
    """Decode one short-form graph6 line (optionally ``>>graph6<<``-prefixed).

    Raises :class:`Graph6ParseError` naming the offending byte offset for
    every malformed case, including nonzero padding and trailing bytes.
    """
    text = line.rstrip("\r\n")
    base = 0
    if text.startswith(GRAPH6_HEADER):
        base = len(GRAPH6_HEADER)
        text = text[base:]
    if not text:
        raise Graph6ParseError("empty graph6 line", base)
    head = ord(text[0])
    if head == 126:
        raise Graph6ParseError("long-form vertex counts (n > 62) are unsupported", base)
    if not 63 <= head <= 125:
        raise Graph6ParseError(f"invalid size byte {_byte_name(text[0])}", base)
    # the alphabet first: every character before the first bad one is then
    # a single ASCII byte, so offsets count bytes
    bitstream = 0
    for i, ch in enumerate(text[1:]):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise Graph6ParseError(f"byte {_byte_name(ch)} outside graph6 alphabet", base + 1 + i)
        bitstream = bitstream << 6 | val
    n = head - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(text) - 1 < need:
        raise Graph6ParseError(
            f"truncated bit section: need {need} bytes, got {len(text) - 1}",
            base + len(text),
        )
    if len(text) - 1 > need:
        raise Graph6ParseError("trailing bytes after bit section", base + 1 + need)
    pad = 6 * need - nbits
    if pad and bitstream & ((1 << pad) - 1):
        raise Graph6ParseError("nonzero padding bits", base + need)
    # the last bit of the section is bit 0 of the stream, so the pairs go last first
    return _graph_of_pairs(n, _triangle_pairs(n)[::-1], bitstream >> pad)


def encode_graph6(g: Graph) -> str:
    """Encode in short-form graph6; rejects graphs above 62 vertices."""
    if g.n > GRAPH6_MAX_VERTICES:
        raise UnsupportedSizeError(f"graph6 short form caps at {GRAPH6_MAX_VERTICES} vertices")
    n = g.n
    nbits = n * (n - 1) // 2
    stream = 0
    for i, j in _triangle_pairs(n):
        stream = stream << 1 | (g.adj[i] >> j & 1)
    pad = (6 - nbits % 6) % 6
    stream <<= pad
    chars = [chr(63 + n)]
    for shift in range(nbits + pad - 6, -1, -6):
        chars.append(chr(63 + (stream >> shift & 63)))
    return "".join(chars)


_EDGE_HEADER_RE = re.compile(r"\s*\d+\s+\d+\s*$")


def looks_like_edge_list(first_line: str) -> bool:
    return bool(_EDGE_HEADER_RE.match(first_line))


def parse_edge_list(text: str) -> Graph:
    """Decode the plain text format: a ``n m`` header then ``m`` ``u v`` lines."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    if not looks_like_edge_list(lines[0]):
        raise ValueError(f"bad edge-list header {lines[0]!r}, expected 'n m'")
    n, m = map(int, lines[0].split())
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1} edge lines")
    edges = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2 or not all(tok.isdecimal() for tok in toks):
            raise ValueError(f"bad edge line {ln!r}, expected 'u v'")
        edges.append((int(toks[0]), int(toks[1])))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# enumeration and exact canonical forms


@lru_cache(maxsize=None)
def labeled_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pair of each edge bit of :func:`labeled_graph`'s mask:
    bit ``b`` is the ``b``-th pair in lexicographic order (01, 02, ..., 12, ...)."""
    if not 0 <= n <= MAX_VERTICES:
        raise UnsupportedSizeError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    return tuple(itertools.combinations(range(n), 2))


def labeled_graph(n: int, mask: int) -> Graph:
    """The graph on ``n`` vertices with edge mask ``mask`` (see :func:`labeled_pairs`)."""
    return _graph_of_pairs(n, labeled_pairs(n), mask)


def labeled_masks(n: int) -> range:
    """The 2^(n choose 2) edge masks of the labeled graphs on ``n`` vertices,
    in counter order; refuses ``n`` above ``LABELED_ENUM_MAX_VERTICES``."""
    if not 0 <= n <= LABELED_ENUM_MAX_VERTICES:
        raise UnsupportedSizeError(
            f"labeled enumeration caps at {LABELED_ENUM_MAX_VERTICES} vertices"
        )
    return range(1 << n * (n - 1) // 2)


def enumerate_labeled_graphs(n: int, lo: int = 0, hi: int | None = None) -> Iterator[Graph]:
    """The labeled graphs on ``n`` vertices of edge masks ``lo..hi-1``, in counter order."""
    for mask in labeled_masks(n)[lo:hi]:
        yield labeled_graph(n, mask)


def _twin_classes(g: Graph) -> list[int]:
    # Vertices with identical rows (non-adjacent twins) or identical closed
    # neighborhoods (adjacent twins) are swappable by an automorphism, so the
    # ordering search only needs one representative per class.  No vertex has
    # twins of both kinds, and no row equals another vertex's closed row, so
    # one dict keyed by both finds every class in a single pass.
    first: dict[int, int] = {}
    ids = []
    for v, row in enumerate(g.adj):
        closed = row | 1 << v
        cid = first.get(row, first.get(closed, v))
        first.setdefault(row, cid)
        first.setdefault(closed, cid)
        ids.append(cid)
    return ids


# the vertices of each mask that canonical_form meets, their count, and that many low 1s
_VERTICES = [tuple(bits(mask)) for mask in range(1 << CANONICAL_MAX_VERTICES)]
_SIZE = [len(vertices) for vertices in _VERTICES]
_FILL = [(1 << size) - 1 for size in _SIZE]


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant key: the minimal upper-triangle bit string.

    The value is the lexicographic minimum, over all vertex orderings, of the
    column-major upper-triangle adjacency bits, packed into bytes behind a
    leading vertex-count byte, so two graphs compare equal exactly when they
    are isomorphic.  Column d has d bits, so strings compare column by column
    and every prefix of a minimal ordering is minimal for its length.

    Phase 1: a column is 0, the least of its length, exactly when its vertex
    has no edge to an earlier vertex, so a minimal ordering opens with a
    maximum independent set: alpha - 1 zero columns whatever its inner order.
    Independent sets grow level by level, as a dict from mask to common
    non-neighbours, until none grows; the survivors are the maximum ones.

    Phase 2: a state holds the placed vertices as ordered blocks, the parts
    of the phase 1 set followed by single vertices.  A part is independent
    and uniform towards every vertex placed after it, so all orderings
    consistent with the blocks give the same string so far.  An unplaced
    ``u``'s least column over them puts its non-neighbours first in each
    block.  A level keeps every (state, ``u``) pair at its least column and
    appends that column to the key; the new state splits each block into
    ``u``'s non-neighbours, then its neighbours, and appends the block
    {``u``}, so a minimal ordering stays consistent with a kept state.

    Both phases extend by one vertex per twin class: swapping two unplaced
    twins is an automorphism fixing every placed vertex.  At 8 vertices
    phase 1 keeps at most 26 sets (``G?ABE_``) and phase 2 at most 84 states
    (``GTnBIk``), but the search is worst case exponential, hence the hard
    cap of 8 vertices.
    """
    if g.n > CANONICAL_MAX_VERTICES:
        raise UnsupportedSizeError(
            f"canonical form caps at {CANONICAL_MAX_VERTICES} vertices"
        )
    n = g.n
    adj = g.adj
    twin = [1 << c for c in _twin_classes(g)]
    sets = {0: g.full_mask}  # independent set -> its common non-neighbours
    while True:
        grown = {}
        for placed, free in sets.items():
            tried = 0
            for v in _VERTICES[free]:
                if not tried & twin[v]:
                    tried |= twin[v]
                    grown[placed | 1 << v] = free & ~(adj[v] | 1 << v)
        if not grown:
            break
        sets = grown
    states = [([placed], g.full_mask ^ placed) for placed in sets]
    key = 0
    for depth in range(_SIZE[next(iter(sets))], n):
        least = 1 << depth  # above every column of depth bits
        kept = []
        for blocks, free in states:
            tried = 0
            for u in _VERTICES[free]:
                if tried & twin[u]:
                    continue
                tried |= twin[u]
                row = adj[u]
                col = 0
                for block in blocks:
                    col = col << _SIZE[block] | _FILL[block & row]
                if col <= least:
                    if col < least:
                        least, kept = col, []
                    kept.append((blocks, free, row, u))
        key = key << depth | least
        if depth == n - 1:
            break
        states = []
        for blocks, free, row, u in kept:
            split = []
            for block in blocks:
                inside = block & row
                if inside and inside != block:
                    split += (block ^ inside, inside)
                else:
                    split.append(block)
            split.append(1 << u)
            states.append((split, free ^ 1 << u))
    return bytes([n]) + key.to_bytes((n * (n - 1) // 2 + 7) // 8, "big")


def _with_new_vertex(g: Graph, nbr_mask: int) -> Graph:
    rows = [row | ((nbr_mask >> v & 1) << g.n) for v, row in enumerate(g.adj)]
    rows.append(nbr_mask)
    return _built(g.n + 1, tuple(rows))


@lru_cache(maxsize=None)
def enumerate_nonisomorphic(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class on exactly ``n`` vertices.

    Built self-containedly by extending the (n-1)-vertex classes with every
    possible new-vertex neighborhood and deduplicating on canonical form, so
    no external enumerator output is required.  Deterministic order (sorted
    by canonical key).  Capped with canonical_form at 8 vertices.
    """
    if not 0 <= n <= CANONICAL_MAX_VERTICES:
        raise UnsupportedSizeError(
            f"non-isomorphic enumeration caps at {CANONICAL_MAX_VERTICES} vertices"
        )
    if n == 0:
        return (Graph.empty(0),)
    reps: dict[bytes, Graph] = {}
    for g in enumerate_nonisomorphic(n - 1):
        for mask in range(1 << (n - 1)):
            h = _with_new_vertex(g, mask)
            reps.setdefault(canonical_form(h), h)
    return tuple(reps[key] for key in sorted(reps))
