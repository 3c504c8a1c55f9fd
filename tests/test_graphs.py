"""Tests for the graph core: codec, transforms, canonical form, enumeration."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gtools import brute_canonical, graphs, permutations_of, random_graph, ref_encode_graph6
import ridom.graphs
from ridom.graphs import (
    Graph,
    Graph6ParseError,
    UnsupportedSizeError,
    bits,
    canonical_form,
    complement,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    double_star,
    encode_graph6,
    enumerate_labeled_graphs,
    enumerate_nonisomorphic,
    induced_subgraph,
    is_connected,
    labeled_graph,
    looks_like_edge_list,
    parse_edge_list,
    parse_graph6,
    path_graph,
    prism_product,
    relabel,
    star_graph,
    star_plus_edge,
)


# ---------------------------------------------------------------------------
# construction & invariants
# ---------------------------------------------------------------------------

def test_from_edges_builds_symmetric_adjacency():
    g = Graph.from_edges(3, [(0, 1), (2, 1)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert g.edge_count == 2
    assert g.degrees() == (1, 2, 1)


def test_constructor_rejects_garbage():
    with pytest.raises(ValueError, match=r"^self-loop at vertex 0$"):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError, match=r"^edge \(5, 5\) outside vertex range 0\.\.2$"):
        Graph.from_edges(3, [(5, 5)])  # a loop out of range names the range
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])  # out of range
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric adjacency rows
    with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
        Graph(2, (0b10, 0b11))  # a loop in otherwise symmetric rows
    with pytest.raises(ValueError, match=r"^row 0 has bits outside 0\.\.1$"):
        Graph(2, (0b100, 0))
    with pytest.raises(ValueError):
        Graph.from_edges(100, [])  # above the vertex cap


def assert_checked(h: Graph) -> None:
    """``h``, built without checks, is what ``Graph`` makes of its rows."""
    assert type(h.adj) is tuple and all(type(row) is int for row in h.adj)
    checked = Graph(h.n, h.adj)
    assert checked == h and hash(checked) == hash(h)


@given(graphs(max_n=7), st.data())
def test_trusted_builders_make_graphs_the_constructor_accepts(g, data):
    assert_checked(complement(g))
    sub, _ = induced_subgraph(g, data.draw(st.integers(0, g.full_mask)))
    assert_checked(sub)
    assert_checked(relabel(g, data.draw(permutations_of(g.n))))
    for k in (1, 2, 3):
        assert_checked(prism_product(g, k))
    for mask in range(1 << g.n):
        assert_checked(ridom.graphs._with_new_vertex(g, mask))


def test_decoders_make_graphs_the_constructor_accepts():
    for n in range(6):
        for mask in range(1 << n * (n - 1) // 2):
            g = labeled_graph(n, mask)
            assert_checked(g)
            assert_checked(parse_graph6(encode_graph6(g)))


@pytest.mark.parametrize("n", [-1, 65])
def test_labeled_graph_refuses_orders_past_the_vertex_cap(n):
    with pytest.raises(UnsupportedSizeError, match=rf"^vertex count {n} outside 0\.\.64$"):
        labeled_graph(n, 0)


def test_graphs_are_hashable_values():
    a = Graph.from_edges(2, [(0, 1)])
    b = Graph.from_edges(2, [(1, 0)])
    assert a == b
    assert len({a, b}) == 1


def test_bits_iterates_set_positions():
    assert list(bits(0)) == []
    assert list(bits(0b101001)) == [0, 3, 5]


def test_edges_iterates_each_pair_once():
    g = cycle_graph(4)
    assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


@given(graphs(max_n=7))
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degrees()) == 2 * g.edge_count


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

def test_codec_frozen_tiny_values():
    assert encode_graph6(Graph.empty(0)) == "?"
    assert encode_graph6(Graph.empty(1)) == "@"
    assert encode_graph6(Graph.empty(2)) == "A?"
    assert encode_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"


def test_parse_accepts_format_header():
    assert parse_graph6(">>graph6<<A_") == Graph.from_edges(2, [(0, 1)])


def test_parse_known_five_cycle_string():
    g = parse_graph6("DqK")
    assert canonical_form(g) == canonical_form(cycle_graph(5))


def test_encoder_matches_reference_on_all_small_graphs():
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            assert encode_graph6(g) == ref_encode_graph6(g)


def test_roundtrip_all_labeled_up_to_five():
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            assert parse_graph6(encode_graph6(g)) == g


@given(graphs(max_n=7))
def test_roundtrip_property(g):
    assert parse_graph6(encode_graph6(g)) == g


@pytest.mark.parametrize(
    "line,offset,fragment",
    [
        ("", 0, "empty"),
        ("~??", 0, "long-form"),
        (chr(30), 0, "size byte"),
        ("B", 1, "truncated"),
        ("A__", 2, "trailing"),
        ("A ", 1, "alphabet"),
        ("A@", 1, "padding"),
        (">>graph6<<A__", 12, "trailing"),
        # bytes decoded as input files are: é is C3 A9, and 0xff does not decode
        ("D\u00e9?!", 1, "byte 0xc3 outside graph6 alphabet"),
        ("B\udcff", 1, "byte 0xff outside graph6 alphabet"),
        ("\udcffB", 0, "invalid size byte 0xff"),
    ],
)
def test_parse_errors_name_the_byte(line, offset, fragment):
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6(line)
    assert exc.value.offset == offset
    assert fragment in str(exc.value)


def test_encode_rejects_oversized():
    with pytest.raises(UnsupportedSizeError):
        encode_graph6(Graph.empty(63))


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------

def test_edge_list_happy_path():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
    assert g == path_graph(4)


def test_edge_list_detection():
    assert looks_like_edge_list("4 3")
    assert looks_like_edge_list("  10 0 ")
    assert not looks_like_edge_list("DqK")
    assert not looks_like_edge_list("4 3 1")


@pytest.mark.parametrize(
    "text",
    ["", "4\n", "x y\n", "2 1\n", "2 1\n0 1\n0 1 2\n", "2 0\n0 1\n"],
)
def test_edge_list_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


@pytest.mark.parametrize("text, message", [
    ("2 1\n0 \u00b9\n", "bad edge line '0 \u00b9', expected 'u v'"),
    ("\u00b2 0\n", "bad edge-list header '\u00b2 0', expected 'n m'"),
], ids=["edge-line", "header"])
def test_edge_list_names_superscript_digits(text, message):
    # a superscript passes str.isdigit but not int(), so it must fail the
    # token check rather than the conversion
    with pytest.raises(ValueError) as excinfo:
        parse_edge_list(text)
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@given(graphs(max_n=7))
def test_complement_is_an_involution(g):
    assert complement(complement(g)) == g


def test_complement_of_five_cycle_is_a_five_cycle():
    c5 = cycle_graph(5)
    assert canonical_form(complement(c5)) == canonical_form(c5)


def test_relabel_roundtrip():
    g = path_graph(4)
    perm = [2, 0, 3, 1]
    h = relabel(g, perm)
    inverse = [perm.index(i) for i in range(4)]
    assert relabel(h, inverse) == g
    assert sorted(h.degrees()) == sorted(g.degrees())


@given(graphs(min_n=1, max_n=7).flatmap(
    lambda g: permutations_of(g.n).map(lambda p: (g, p))))
def test_relabel_preserves_edge_count(gp):
    g, perm = gp
    assert relabel(g, perm).edge_count == g.edge_count


def test_disjoint_union_shifts_the_second_graph():
    g = disjoint_union(path_graph(3), complete_graph(2))
    assert g.n == 5
    assert g.has_edge(3, 4)
    assert not any(g.has_edge(u, v) for u in range(3) for v in (3, 4))


def test_disjoint_union_refuses_past_the_vertex_cap():
    with pytest.raises(UnsupportedSizeError, match=r"vertex count 65 outside 0\.\.64"):
        disjoint_union(Graph.empty(40), Graph.empty(25))


def test_induced_subgraph_of_cycle_prefix():
    sub, vmap = induced_subgraph(cycle_graph(5), 0b00111)
    assert vmap == (0, 1, 2)
    assert sub == path_graph(3)
    with pytest.raises(ValueError):
        induced_subgraph(cycle_graph(5), 1 << 5)


def test_components_split_and_order():
    g = disjoint_union(path_graph(3), complete_graph(2))
    parts = components(g)
    assert [part.n for part, _ in parts] == [3, 2]
    part_maps = [vmap for _, vmap in parts]
    assert part_maps == [(0, 1, 2), (3, 4)]
    assert all(is_connected(part) for part, _ in parts)


def test_single_component_for_connected_graph():
    assert components(cycle_graph(4)) == ((cycle_graph(4), (0, 1, 2, 3)),)
    assert components(Graph.empty(0)) == ()


def test_components_equal_induced_parts_on_all_small_graphs():
    # a connected graph is returned as its own part; the decomposition must
    # equal the induced subgraphs of the vertex classes, in smallest-vertex
    # order, and is_connected must say whether there is at most one class
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            classes = []
            for v in range(n):
                touching = [c for c in classes if any(g.has_edge(u, v) for u in c)]
                merged = {v}.union(*touching)
                classes = [c for c in classes if c not in touching] + [merged]
            masks = sorted((sum(1 << v for v in c) for c in classes), key=lambda m: m & -m)
            expected = tuple(induced_subgraph(g, m) for m in masks)
            assert components(g) == expected, encode_graph6(g)
            assert is_connected(g) == (len(classes) <= 1), encode_graph6(g)


def test_is_connected_basics():
    assert is_connected(Graph.empty(0))
    assert is_connected(Graph.empty(1))
    assert not is_connected(Graph.empty(2))
    assert is_connected(star_graph(4))


# ---------------------------------------------------------------------------
# layered product with a complete graph
# ---------------------------------------------------------------------------

def test_prism_of_square_is_the_cube():
    cube = prism_product(cycle_graph(4), 2)
    assert cube.n == 8
    assert cube.edge_count == 12
    assert set(cube.degrees()) == {3}


def test_prism_with_one_layer_is_identity():
    g = path_graph(4)
    assert prism_product(g, 1) == g


def test_prism_layer_adjacency():
    g = prism_product(complete_graph(1), 3)
    # one vertex blown up into a triangle of layer copies
    assert g == complete_graph(3)


def test_prism_matches_its_definition_up_to_four_vertices():
    # (v, i) and (u, j) are adjacent iff v = u and i != j, or i = j and uv
    # is an edge
    for n in range(5):
        for g in enumerate_labeled_graphs(n):
            for k in range(1, 4):
                prism = prism_product(g, k)
                for (v, i), (u, j) in itertools.product(itertools.product(range(n), range(k)),
                                                        repeat=2):
                    expected = (v == u and i != j) or (i == j and g.has_edge(u, v))
                    assert prism.has_edge(v * k + i, u * k + j) == expected, (g, k)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_agrees_with_permutation_minimum():
    for n in range(5):
        for g in enumerate_labeled_graphs(n):
            assert canonical_form(g) == brute_canonical(g)


def test_canonical_agrees_with_permutation_minimum_n5():
    for g in enumerate_labeled_graphs(5):
        assert canonical_form(g) == brute_canonical(g)


def test_canonical_agrees_with_permutation_minimum_n6_classes():
    rng = random.Random(6)
    classes = enumerate_nonisomorphic(6)
    assert len(classes) == 156
    for g in classes:
        perm = rng.sample(range(6), 6)
        assert canonical_form(relabel(g, perm)) == brute_canonical(g), encode_graph6(g)


TIE_HEAVY = {
    "C7": cycle_graph(7),
    "C8": cycle_graph(8),
    "cube": prism_product(cycle_graph(4), 2),
    "K4,4": Graph.from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)]),
    "Wagner": Graph.from_edges(8, [(i, (i + s) % 8) for i in range(8) for s in (1, 4)]),
    "complement of C8": complement(cycle_graph(8)),
    "2C4": disjoint_union(cycle_graph(4), cycle_graph(4)),
    # the widest levels of the former level-by-level search over every
    # 8-vertex class: 240 partial orderings tied for the least string
    "GiC_??": parse_graph6("GiC_??"),
    "G?AAF?": parse_graph6("G?AAF?"),
    # the widest levels of the current search: 26 maximum independent sets
    # in phase 1, and 84 (state, vertex) pairs tied for the least column in
    # phase 2
    "G?ABE_": parse_graph6("G?ABE_"),
    "GTnBIk": parse_graph6("GTnBIk"),
}


@pytest.mark.parametrize("name", list(TIE_HEAVY))
def test_canonical_agrees_with_permutation_minimum_on_tie_heavy_graphs(name):
    # vertex-transitive and twin-rich graphs keep many independent sets, or
    # many partial orderings, tied for the least string at once
    g = TIE_HEAVY[name]
    perm = random.Random(name).sample(range(g.n), g.n)
    assert canonical_form(relabel(g, perm)) == brute_canonical(g)


@pytest.mark.parametrize("p", [0.15, 0.5, 0.85])
def test_canonical_agrees_with_permutation_minimum_on_random_7_vertex_graphs(p):
    # sparse graphs have large independent sets, so a long first phase of
    # the search; dense ones a long second phase
    for seed in range(10):
        rng = random.Random(seed)
        g = random_graph(rng, 7, p)
        perm = rng.sample(range(7), 7)
        assert canonical_form(relabel(g, perm)) == brute_canonical(g), encode_graph6(g)


def canonical_digest(n: int) -> str:
    return hashlib.sha256(b"".join(canonical_form(g) for g in enumerate_nonisomorphic(n))).hexdigest()


def test_canonical_keys_of_every_7_vertex_class_are_frozen():
    # the keys themselves, in enumeration order: a change of the canonical
    # search that keeps the classes but moves a key fails here
    assert canonical_digest(7) == "f13b5d9342945face76d4008b29c7aa211b48bfd9e8501739d5f230a12e1a199"


@pytest.mark.stretch
def test_canonical_keys_of_every_8_vertex_class_are_frozen():
    assert canonical_digest(8) == "5c492e6c82ac0d0f121104418034e6d94949c955bfe574a48f4535821051b474"


@given(graphs(min_n=1, max_n=7).flatmap(
    lambda g: permutations_of(g.n).map(lambda p: (g, p))))
@settings(max_examples=150)
def test_canonical_is_isomorphism_invariant(gp):
    g, perm = gp
    assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_canonical_separates_nonisomorphic_pairs():
    assert canonical_form(path_graph(4)) != canonical_form(star_graph(3))
    assert canonical_form(cycle_graph(5)) != canonical_form(path_graph(5))


def test_canonical_size_cap():
    with pytest.raises(UnsupportedSizeError):
        canonical_form(Graph.empty(9))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_labeled_enumeration_counts_and_extremes():
    seen = list(enumerate_labeled_graphs(4))
    assert len(seen) == 2 ** 6
    assert seen[0] == Graph.empty(4)
    assert seen[-1] == complete_graph(4)


@pytest.mark.parametrize("n", [-1, 8])
def test_labeled_enumeration_refuses_orders_outside_its_range(n):
    with pytest.raises(UnsupportedSizeError, match="labeled enumeration caps at 7 vertices"):
        next(enumerate_labeled_graphs(n))


def test_nonisomorphic_counts_match_the_literature():
    assert [len(enumerate_nonisomorphic(n)) for n in range(8)] == [
        1, 1, 2, 4, 11, 34, 156, 1044,
    ]


def test_connected_nonisomorphic_counts():
    assert [sum(map(is_connected, enumerate_nonisomorphic(n))) for n in range(1, 8)] == [
        1, 1, 2, 6, 21, 112, 853,
    ]


@pytest.mark.parametrize("n", [-1, 9])
def test_nonisomorphic_enumeration_refuses_orders_outside_its_range(n):
    with pytest.raises(UnsupportedSizeError, match="caps at 8 vertices"):
        enumerate_nonisomorphic(n)


def test_nonisomorphic_7_makes_11291_canonical_form_calls(monkeypatch):
    # perfbench/workloads.py checks this total on a traced noniso-7 run: the
    # sum over m < 7 of (classes on m vertices) * 2^m.  A change of the
    # generation scheme (orderly generation, canonical augmentation) changes
    # it and must update this test together with the benchmark.
    calls = 0
    original = ridom.graphs.canonical_form

    def counting(g: Graph) -> bytes:
        nonlocal calls
        calls += 1
        return original(g)

    monkeypatch.setattr(ridom.graphs, "canonical_form", counting)
    enumerate_nonisomorphic.cache_clear()
    # the run memoises every class list up to n=7 again, so later tests
    # still find them cached
    assert len(enumerate_nonisomorphic(7)) == 1044
    assert calls == 11291


def test_nonisomorphic_stream_has_distinct_canonical_forms():
    forms = [canonical_form(g) for g in enumerate_nonisomorphic(5)]
    assert len(set(forms)) == len(forms)


# ---------------------------------------------------------------------------
# named builders
# ---------------------------------------------------------------------------

def test_builder_shapes():
    assert path_graph(1) == Graph.empty(1)
    assert cycle_graph(3) == complete_graph(3)
    assert star_graph(3).degrees() == (3, 1, 1, 1)
    assert sorted(star_plus_edge(3).degrees()) == [1, 2, 2, 3]
    assert star_plus_edge(2) == complete_graph(3)


def test_double_star_layout():
    g = double_star(3, 1)
    assert g.n == 6
    assert g.degree(0) == 4        # big center: 3 leaves + bridge
    assert g.degree(4) == 2        # small center: 1 leaf + bridge
    assert g.has_edge(0, 4)
    assert sorted(g.degrees()) == [1, 1, 1, 1, 2, 4]
