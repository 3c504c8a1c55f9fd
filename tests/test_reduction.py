"""Tests for the domination-to-labeling reduction and its verification."""

import random

import pytest

from gtools import assert_one_value_under_relabeling
from ridom import reduction
from ridom.graphs import (
    Graph,
    UnsupportedSizeError,
    bits,
    canonical_form,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_labeled_graphs,
    enumerate_nonisomorphic,
    is_connected,
    encode_graph6,
    path_graph,
    star_graph,
)
from ridom.reduction import (
    ReductionInstance,
    bipartition,
    build_reduction,
    lift_dominating_set,
    parse_instance,
    project_ridf,
    serialize_instance,
    verify_reduction,
)
from ridom.solver import Labeling, gamma_bnb, validate, weight


def dominates(g: Graph, mask: int) -> bool:
    return all(
        mask >> v & 1 or g.adj[v] & mask for v in range(g.n)
    )


def build(g: Graph, k: int) -> ReductionInstance:
    parts = bipartition(g)
    assert parts is not None
    return build_reduction(g, parts, k)


# ---------------------------------------------------------------------------
# bipartition
# ---------------------------------------------------------------------------

def test_bipartition_of_even_cycle():
    assert bipartition(cycle_graph(4)) == (0b0101, 0b1010)


def test_bipartition_alternates_along_a_path():
    assert bipartition(path_graph(4)) == (0b0101, 0b1010)


def test_odd_cycles_have_no_bipartition():
    assert bipartition(complete_graph(3)) is None
    assert bipartition(cycle_graph(5)) is None
    assert bipartition(disjoint_union(path_graph(2), cycle_graph(3))) is None


def test_bipartition_starts_each_component_in_the_first_part():
    g = disjoint_union(path_graph(3), path_graph(2))
    x, y = bipartition(g)
    assert x == 0b01101  # vertices 0, 2, 3
    assert y == 0b10010


def test_bipartition_agrees_with_brute_force_up_to_five_vertices():
    # two proper 2-colorings differ on whole components, so the first vertex
    # where they differ is the least of such a component: the wanted coloring
    # is the one whose first part reads greatest in vertex order
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            proper = [x for x in range(1 << n)
                      if not any(g.adj[v] & (x if x >> v & 1 else g.full_mask ^ x)
                                 for v in range(n))]
            x = max(proper, key=lambda x: [x >> v & 1 for v in range(n)], default=None)
            assert bipartition(g) == (None if x is None else (x, g.full_mask ^ x)), g


def test_bipartition_parts_are_genuinely_independent():
    for g in enumerate_nonisomorphic(5):
        parts = bipartition(g)
        if parts is None:
            continue
        x, y = parts
        assert x | y == g.full_mask and not x & y
        for v in bits(x):
            assert not g.adj[v] & x
        for v in bits(y):
            assert not g.adj[v] & y


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_single_edge_with_two_colors_builds_a_path():
    inst = build(complete_graph(2), 2)
    assert inst.target.n == 4
    assert canonical_form(inst.target) == canonical_form(path_graph(4))
    assert inst.core_map == (0, 1)
    assert inst.leaf_map == ((2,), (3,))


def test_square_target_counts():
    inst = build(cycle_graph(4), 2)
    assert inst.target.n == 8
    assert inst.target.edge_count == 8  # 4 cycle edges + 4 pendants


def test_three_color_path_target():
    inst = build(path_graph(3), 3)
    assert inst.target.n == 9
    for v in range(3):
        assert len(inst.leaf_map[v]) == 2
        for leaf in inst.leaf_map[v]:
            assert inst.target.degree(leaf) == 1
            assert inst.target.has_edge(v, leaf)


def test_source_edges_survive_in_the_target():
    g = path_graph(5)
    inst = build(g, 2)
    for u, v in g.edges():
        assert inst.target.has_edge(inst.core_map[u], inst.core_map[v])


def test_target_is_always_bipartite():
    for n in range(1, 6):
        for g in enumerate_nonisomorphic(n):
            parts = bipartition(g)
            if parts is None:
                continue
            inst = build_reduction(g, parts, 2)
            assert bipartition(inst.target) is not None


def test_build_rejects_k1():
    with pytest.raises(ValueError):
        build_reduction(complete_graph(2), (1, 2), 1)
    with pytest.raises(ValueError):
        ReductionInstance(complete_graph(2), 1, 2, 1)


def test_build_rejects_bogus_partitions():
    g = path_graph(3)
    for parts in (
        (0b011, 0b110),  # overlap
        (0b001, 0b010),  # vertex 2 unassigned
        (0b011, 0b100),  # edge 0-1 inside a part
    ):
        with pytest.raises(ValueError):
            build_reduction(g, parts, 2)
        with pytest.raises(ValueError):
            ReductionInstance(g, *parts, 2)


def test_build_rejects_oversized_targets():
    g = Graph.empty(22)
    with pytest.raises(UnsupportedSizeError):
        build_reduction(g, (g.full_mask, 0), 3)


# ---------------------------------------------------------------------------
# value correspondence
# ---------------------------------------------------------------------------

def test_verify_single_edge():
    report = verify_reduction(build(complete_graph(2), 2))
    assert report.gamma_dom == 1
    assert report.gamma_rik_target == 3
    assert report.expected == 3
    assert report.equal


def test_verify_square():
    report = verify_reduction(build(cycle_graph(4), 2))
    assert report.gamma_dom == 2
    assert report.expected == 6
    assert report.equal


def test_verify_path_three_colors():
    report = verify_reduction(build(path_graph(3), 3))
    assert report.gamma_dom == 1
    assert report.expected == 7
    assert report.equal


def test_verify_solves_the_target_for_its_value_only(monkeypatch):
    calls = []

    def spy(g, k, budget=None, **kw):
        calls.append((g.adj, k, kw))
        return gamma_bnb(g, k, budget, **kw)

    monkeypatch.setattr(reduction, "gamma_bnb", spy)
    inst = build(path_graph(3), 3)
    report = verify_reduction(inst)
    assert calls == [(inst.target.adj, 3, {"lexmin": False})]
    assert report.gamma_rik_target == gamma_bnb(inst.target, 3).value == 7


def test_correspondence_on_small_bipartite_sources():
    for n in range(1, 5):
        for g in filter(is_connected, enumerate_nonisomorphic(n)):
            parts = bipartition(g)
            if parts is None:
                continue
            assert verify_reduction(build_reduction(g, parts, 2)).equal, \
                encode_graph6(g)


def test_target_values_agree_under_relabeling():
    # targets past brute force's reach, checked without an oracle.  k=3
    # stops at 7 source vertices: targets of 8-10 took 10^5-10^6 nodes a
    # solve (ROADMAP item 7), as the 7-vertex F?N`? does under some labelings
    rng = random.Random(0)
    for k, top in ((2, 12), (3, 7)):
        for n in range(2, top + 1):
            for _ in range(4):
                x = (1 << rng.randint(1, n - 1)) - 1
                y = ((1 << n) - 1) ^ x
                p = rng.uniform(0.2, 0.7)
                source = Graph.from_edges(n, [(u, v) for u in bits(x) for v in bits(y)
                                              if rng.random() < p])
                assert_one_value_under_relabeling(rng, build_reduction(source, (x, y), k).target, k)


# ---------------------------------------------------------------------------
# lifting and projecting witnesses
# ---------------------------------------------------------------------------

def test_lift_single_dominator_of_an_edge():
    inst = build(complete_graph(2), 2)
    lifted = lift_dominating_set(inst, 0b01)
    assert lifted.labels == (1, 0, 2, 2)
    assert weight(lifted) == 3
    assert validate(inst.target, lifted) == []


def test_lift_color_class_of_the_square():
    inst = build(cycle_graph(4), 2)
    lifted = lift_dominating_set(inst, inst.x_mask)
    assert weight(lifted) == 6
    assert validate(inst.target, lifted) == []


def test_lift_everything():
    inst = build(path_graph(4), 2)
    lifted = lift_dominating_set(inst, inst.source.full_mask)
    assert weight(lifted) == inst.source.n * inst.k
    assert validate(inst.target, lifted) == []


def test_lift_rejects_non_dominating_sets():
    inst = build(path_graph(4), 2)
    with pytest.raises(ValueError):
        lift_dominating_set(inst, 0b0001)  # vertex 3 undominated
    with pytest.raises(ValueError):
        lift_dominating_set(inst, 1 << 5)  # outside the source


def test_project_solver_witness():
    inst = build(complete_graph(2), 2)
    best = gamma_bnb(inst.target, 2)
    dom = project_ridf(inst, best.witness)
    assert bin(dom).count("1") == best.value - (inst.k - 1) * inst.source.n == 1
    assert dominates(inst.source, dom)


def test_project_rejects_infeasible_labelings():
    inst = build(complete_graph(2), 2)
    with pytest.raises(ValueError):
        project_ridf(inst, Labeling(2, (0, 0, 0, 0)))


def test_round_trip_returns_the_original_set():
    import itertools
    g = path_graph(4)
    inst = build(g, 2)
    for size in range(1, 5):
        for combo in itertools.combinations(range(4), size):
            mask = sum(1 << v for v in combo)
            if not dominates(g, mask):
                continue
            assert project_ridf(inst, lift_dominating_set(inst, mask)) == mask


def test_round_trip_three_colors():
    inst = build(path_graph(3), 3)
    for mask in (0b010, 0b101, 0b111):
        lifted = lift_dominating_set(inst, mask)
        assert validate(inst.target, lifted) == []
        assert project_ridf(inst, lifted) == mask


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialize_parse_round_trip():
    for g, k in ((complete_graph(2), 2), (cycle_graph(4), 2), (path_graph(3), 3)):
        inst = build(g, k)
        line = serialize_instance(inst)
        assert parse_instance(line) == inst


def test_serialized_line_shape():
    inst = build(complete_graph(2), 2)
    fields = serialize_instance(inst).split("\t")
    assert len(fields) == 7
    assert fields[0] == encode_graph6(inst.source)
    assert fields[1] == "1" and fields[2] == "2"  # part masks in hex
    assert fields[3] == "2"


@pytest.mark.parametrize("edits", [
    {3: "5"},  # k
    {1: "f", 2: "0"},  # parts: every vertex in the first
    {5: "3,2,1,0"},  # core map
    {6: "4;5;7;6"},  # leaf map
    {4: encode_graph6(path_graph(8))},  # target
])
def test_parse_rejects_inconsistent_lines(edits):
    fields = serialize_instance(build(cycle_graph(4), 2)).split("\t")
    assert all(fields[i] != text for i, text in edits.items())
    for i, text in edits.items():
        fields[i] = text
    with pytest.raises(ValueError):
        parse_instance("\t".join(fields))


def test_parse_rejects_wrong_field_count():
    with pytest.raises(ValueError):
        parse_instance("only\tfour\tfields\there")
