"""Tests for the labeling solvers, greedy extension, and set invariants."""

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings

from gtools import (
    assert_one_value_under_relabeling,
    bnb_vertex_order,
    graphs,
    has_feasible_labeling,
    ilp_gamma_rik,
    random_graph,
    random_valid_partial,
    ref_domination_number,
    ref_gamma_rik,
    ref_independent_domination_number,
)
from ridom import solver
from ridom.graphs import (
    Graph,
    UnsupportedSizeError,
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_star,
    encode_graph6,
    enumerate_labeled_graphs,
    enumerate_nonisomorphic,
    induced_subgraph,
    is_connected,
    parse_graph6,
    path_graph,
    star_graph,
)
from ridom.reduction import bipartition, build_reduction
from ridom.solver import (
    VIOLATION_DEPENDENT,
    VIOLATION_UNCOVERED,
    BudgetExceededError,
    Labeling,
    PartialLabeling,
    SolverBudget,
    domination_number,
    extend_greedy,
    gamma_bnb,
    gamma_brute,
    independent_domination,
    is_independent_dominating,
    prism_check,
    validate,
    weight,
)


# ---------------------------------------------------------------------------
# labelings and the validator
# ---------------------------------------------------------------------------

def test_labeling_rejects_out_of_range():
    with pytest.raises(ValueError):
        Labeling(2, (0, 3))
    with pytest.raises(ValueError):
        Labeling(0, ())


def test_labeling_refuses_an_unassigned_vertex():
    # validate would call such a labeling feasible, of weight 0
    with pytest.raises(ValueError, match="vertex 1 has no label"):
        Labeling(2, (0, None, None))
    assert PartialLabeling(2, (0, None, None)).unassigned() == (1, 2)


def test_labeling_text_roundtrip():
    f = Labeling(2, (1, 0, 2, 0))
    assert f.to_text() == "1 0 2 0"
    assert Labeling.from_text(2, f.to_text()) == f


def test_weight_counts_nonzero_labels():
    assert weight(Labeling(2, (0, 0, 0))) == 0
    assert weight(Labeling(2, (1, 0, 2, 0))) == 2
    assert weight(Labeling(3, (1, 2, 3, 1))) == 4


def test_validate_accepts_square_with_opposite_colors():
    c4 = cycle_graph(4)
    assert validate(c4, Labeling(2, (1, 0, 2, 0))) == []


def test_validate_flags_uncovered_zero_vertices():
    k2 = complete_graph(2)
    out = validate(k2, Labeling(1, (0, 0)))
    assert len(out) == 2
    assert {v.kind for v in out} == {VIOLATION_UNCOVERED}
    assert sorted(v.vertices[0] for v in out) == [0, 1]


def test_validate_flags_dependent_color_class():
    k2 = complete_graph(2)
    out = validate(k2, Labeling(2, (1, 1)))
    assert [v.kind for v in out] == [VIOLATION_DEPENDENT]
    assert out[0].vertices in {(0, 1), (1, 0)}
    assert out[0].color == 1


def test_validate_rejects_length_mismatch():
    with pytest.raises(ValueError):
        validate(path_graph(3), Labeling(2, (0, 1)))


@given(graphs(max_n=6))
@settings(max_examples=60)
def test_violations_are_recheckable(g):
    rng = random.Random(g.edge_count * 31 + g.n)
    labels = tuple(rng.randint(0, 2) for _ in range(g.n))
    for v in validate(g, Labeling(2, labels)):
        if v.kind == VIOLATION_DEPENDENT:
            a, b = v.vertices
            assert g.has_edge(a, b)
            assert labels[a] == labels[b] == v.color
        else:
            (z,) = v.vertices
            assert labels[z] == 0
            assert not any(
                g.has_edge(z, u) and labels[u] == v.color for u in range(g.n)
            )


# ---------------------------------------------------------------------------
# exact solvers: frozen values
# ---------------------------------------------------------------------------

FROZEN_TWO_COLOR_VALUES = [
    (cycle_graph(4), 2),
    (cycle_graph(5), 4),
    (star_graph(4), 4),
    (path_graph(4), 3),
    (complete_graph(2), 2),
    (disjoint_union(complete_graph(2), Graph.empty(1)), 3),
]


@pytest.mark.parametrize("g,expect", FROZEN_TWO_COLOR_VALUES,
                         ids=["c4", "c5", "s4", "p4", "k2", "k2+k1"])
def test_two_color_values_brute(g, expect):
    res = gamma_brute(g, 2)
    assert res.value == expect
    assert validate(g, res.witness) == []
    assert weight(res.witness) == expect


@pytest.mark.parametrize("g,expect", FROZEN_TWO_COLOR_VALUES,
                         ids=["c4", "c5", "s4", "p4", "k2", "k2+k1"])
def test_two_color_values_bnb(g, expect):
    res = gamma_bnb(g, 2)
    assert res.value == expect
    assert validate(g, res.witness) == []


def test_empty_graph_solves_to_zero():
    for solver in (gamma_brute, gamma_bnb):
        res = solver(Graph.empty(0), 2)
        assert res.value == 0
        assert res.witness.labels == ()


def test_isolated_vertices_must_be_labeled():
    # a 0 on an isolated vertex can never see any color
    res = gamma_bnb(Graph.empty(3), 2)
    assert res.value == 3


def test_brute_witness_is_lexicographically_smallest():
    for g in enumerate_nonisomorphic(4):
        res = gamma_brute(g, 2)
        candidates = [
            lab
            for lab in itertools.product(range(3), repeat=g.n)
            if sum(1 for x in lab if x) == res.value
            and validate(g, Labeling(2, lab)) == []
        ]
        assert res.witness.labels == min(candidates)


def test_bnb_matches_brute_values_and_witnesses_small():
    for n in range(7):
        for g in enumerate_nonisomorphic(n):
            for k in (1, 2, 3):
                a = gamma_brute(g, k)
                b = gamma_bnb(g, k)
                assert a.value == b.value, encode_graph6(g)
                assert a.witness == b.witness, encode_graph6(g)


def test_bnb_past_the_max_degree_matches_brute():
    # a component of n vertices is searched with min(k, n) colors; the value
    # and the lex-min witness stay those of the caller's k
    pairs = 0
    for n in range(6):
        for g in enumerate_nonisomorphic(n):
            for k in range(1, max(g.degrees(), default=0) + 4):
                a = gamma_brute(g, k)
                b = gamma_bnb(g, k)
                assert (a.value, a.witness) == (b.value, b.witness), (encode_graph6(g), k)
                pairs += 1
    assert pairs == 285


def test_bnb_answers_a_huge_k_in_one_node():
    # k = 10**6 colors on C5 are searched as 5, so no row has k-sized masks
    tracemalloc.start()
    started = time.perf_counter()
    res = gamma_bnb(cycle_graph(5), 10**6)
    elapsed = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (res.value, res.witness, res.nodes_explored) == (5, Labeling(10**6, (1, 2, 1, 2, 3)), 1)
    assert elapsed < 1 and peak < 1 << 20


def test_bnb_matches_brute_on_seeded_random_graphs():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
        k = rng.randint(1, 3)
        if (k + 1) ** n > 3**12:
            continue
        a = gamma_brute(g, k)
        b = gamma_bnb(g, k)
        assert a.value == b.value, encode_graph6(g)
        assert a.witness == b.witness, encode_graph6(g)


def beyond_brute_reach_instances():
    """Seeded G(n, p) with n = 13..22 at k = 1..3, as (graph, k) pairs.

    Mid-density graphs at k=3 above n=18 are left out because the earlier
    vertex-order search is slow on them.
    """
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(13, 22)
        k = rng.randint(1, 3)
        p = rng.choice([0.1, 0.3, 0.5, 0.8])
        if k == 3 and n > 18 and p in (0.3, 0.5):
            continue
        yield random_graph(rng, n, p), k


def test_bnb_matches_vertex_order_search_beyond_brute_reach():
    # the earlier vertex-order search checks lex-min witnesses at orders
    # where enumerating labelings cannot
    checked = 0
    for g, k in beyond_brute_reach_instances():
        value, labels, _ = bnb_vertex_order(g, k)
        res = gamma_bnb(g, k)
        assert (res.value, res.witness.labels) == (value, labels), (encode_graph6(g), k)
        checked += 1
    assert checked >= 50


def assert_value_only_agrees(g, k):
    """``lexmin=False`` keeps the value, with a feasible optimal witness, in
    no more nodes; returns the two node counts (value-only, default)."""
    full = gamma_bnb(g, k)
    fast = gamma_bnb(g, k, lexmin=False)
    assert fast.value == full.value, (encode_graph6(g), k)
    assert validate(g, fast.witness) == [], (encode_graph6(g), k)
    assert weight(fast.witness) == fast.value, (encode_graph6(g), k)
    assert fast.nodes_explored <= full.nodes_explored, (encode_graph6(g), k)
    return fast.nodes_explored, full.nodes_explored


def test_value_only_bnb_agrees_on_all_small_classes():
    saved = {k: [0, 0] for k in (1, 2, 3)}
    for n in range(8):
        for g in enumerate_nonisomorphic(n):
            for k in (1, 2, 3):
                fast, full = assert_value_only_agrees(g, k)
                if n == 6:
                    saved[k][0] += fast
                    saved[k][1] += full
    # the exact totals over the 156 classes at n = 6, first phase and both
    # phases, so a change to either phase that alters the search shows here
    assert saved == {1: [670, 1_280], 2: [1_256, 2_306], 3: [1_592, 2_884]}


def test_value_only_bnb_agrees_beyond_brute_reach():
    for g, k in beyond_brute_reach_instances():
        assert_value_only_agrees(g, k)


def test_value_only_bnb_witness_need_not_be_lexmin():
    # on the triangle at k=2 the first phase's optimum colors vertices 0
    # and 1; only the witness phase moves the zero to vertex 0
    g = complete_graph(3)
    fast = gamma_bnb(g, 2, lexmin=False)
    assert gamma_bnb(g, 2).witness.labels == (0, 1, 2)
    assert fast.value == 2 and fast.witness.labels != (0, 1, 2)


@pytest.mark.parametrize("n", [25, 30])
def test_bnb_bounds_cycles_by_forced_nonzero_vertices(n):
    # at k=3 every vertex of C_n has degree 2 < k, so none can be 0; the
    # bound proves the all-nonzero value at once instead of exhausting
    # the colorings (C25 alone used to take minutes)
    res = gamma_bnb(cycle_graph(n), 3)
    assert res.value == n
    assert res.witness.to_text() == " ".join(["1 2"] * (n // 2) + ["3"] * (n % 2))
    assert validate(cycle_graph(n), res.witness) == []
    assert res.nodes_explored <= 1_000


def test_bnb_counting_bound_prunes_cycles_at_k2():
    # at k=2 nothing is forced nonzero; the packing bound (disjoint sets of
    # free dominators each need a pair of their own) keeps C25 and C30 under
    # a hundred nodes, where the vertex-order search without its demand
    # bound took 393,214 on C30
    for n, value, witness in [(25, 14, "0 1 0 2 " * 5 + "0 1 2 1 2"),
                              (30, 16, "0 1 0 2 " * 7 + "1 2")]:
        g = cycle_graph(n)
        res = gamma_bnb(g, 2)
        assert res.value == value
        assert res.witness.to_text() == witness
        assert validate(g, res.witness) == []
        assert res.nodes_explored <= 2_000


def test_bnb_node_budget_refuses_and_default_solves():
    g = cycle_graph(14)
    with pytest.raises(BudgetExceededError, match="10 nodes"):
        gamma_bnb(g, 2, SolverBudget(max_nodes=10))
    res = gamma_bnb(g, 2)
    assert res.value == 8 and validate(g, res.witness) == []
    # the components of one graph share the budget
    pair = disjoint_union(g, g)
    assert gamma_bnb(pair, 2, SolverBudget(max_nodes=res.nodes_explored * 2)).value == 16
    with pytest.raises(BudgetExceededError, match=f"{res.nodes_explored} nodes"):
        gamma_bnb(pair, 2, SolverBudget(max_nodes=res.nodes_explored))


def test_bnb_matches_ilp_beyond_brute_reach():
    pytest.importorskip("scipy")
    rng = random.Random(31)
    for n, p, k in [(20, 0.3, 2), (22, 0.1, 3), (24, 0.5, 2), (24, 0.1, 3),
                    (26, 0.1, 2), (28, 0.1, 3), (28, 0.5, 2)]:
        g = random_graph(rng, n, p)
        res = gamma_bnb(g, k)
        assert res.value == ilp_gamma_rik(g, k), encode_graph6(g)
        assert validate(g, res.witness) == [], encode_graph6(g)
    # mid-density graphs, which took the vertex-order search seconds each
    for g, k, value in [(random_graph(random.Random(0), 32, 0.3), 2, 9),
                        (random_graph(random.Random(1), 32, 0.3), 2, 8),
                        (random_graph(random.Random(2), 32, 0.3), 2, 10),
                        (random_graph(random.Random(0), 26, 0.2), 3, 15)]:
        res = gamma_bnb(g, k)
        assert res.value == ilp_gamma_rik(g, k) == value, encode_graph6(g)
        assert validate(g, res.witness) == [], encode_graph6(g)
    # cycles at k=2 have no vertex forced nonzero, so only packing prunes
    for n in (25, 30):
        g = cycle_graph(n)
        res = gamma_bnb(g, 2)
        assert res.value == ilp_gamma_rik(g, 2), n
        assert validate(g, res.witness) == [], n


def test_bnb_node_counts_on_mid_density_graphs():
    # node counts instead of seconds, which vary too much between runs; the
    # vertex-order search needed 3.2-4.1 million and 2.7 million nodes here
    for s in range(3):
        assert gamma_bnb(random_graph(random.Random(s), 32, 0.3), 2).nodes_explored <= 20_000, s
    assert gamma_bnb(random_graph(random.Random(0), 26, 0.2), 3).nodes_explored <= 50_000


def test_bnb_node_counts_of_both_phases():
    # exact counts at lexmin=False and True, so a change to either phase
    # that alters the search shows here; the leaves of the double star and of
    # the two reduction targets have degree < k, so their layers are forced
    p6, src = path_graph(6), parse_graph6("GD?]??")
    for g, k, counts in [(cycle_graph(30), 2, (33, 75)),
                         (double_star(9, 8), 2, (34, 154)),
                         (build_reduction(p6, bipartition(p6), 3).target, 3, (248, 323)),
                         (build_reduction(src, bipartition(src), 3).target, 3, (11_709, 11_841))]:
        assert tuple(gamma_bnb(g, k, lexmin=lexmin).nodes_explored
                     for lexmin in (False, True)) == counts, (encode_graph6(g), k)


def test_bnb_values_agree_under_relabeling():
    # k=3 stops at n=26: at n=30-34 one solve takes 0.3-1.7 s
    rng = random.Random(1)
    for k, count, top in ((2, 10, 40), (3, 6, 26)):
        for _ in range(count):
            assert_one_value_under_relabeling(
                rng, random_graph(rng, rng.randint(22, top), rng.uniform(0.1, 0.3)), k)


def test_one_color_value_is_independent_domination():
    for n in range(1, 6):
        for g in enumerate_nonisomorphic(n):
            assert gamma_bnb(g, 1).value == independent_domination(g).value


@given(graphs(max_n=5))
@settings(max_examples=40)
def test_solver_agrees_with_reference_enumeration(g):
    assert gamma_bnb(g, 2).value == ref_gamma_rik(g, 2)


def test_brute_budget_refusal_names_the_alternative():
    with pytest.raises(BudgetExceededError) as exc:
        gamma_brute(Graph.empty(13), 2)
    assert "gamma_bnb" in str(exc.value)
    # the budget bounds (k+1)^n inclusively: exactly 3^6 admits n=6
    assert gamma_brute(Graph.empty(6), 2, SolverBudget(max_labelings=3**6)).value == 6
    with pytest.raises(BudgetExceededError):
        gamma_brute(Graph.empty(6), 2, SolverBudget(max_labelings=3**6 - 1))


def test_values_never_exceed_vertex_count():
    for g in enumerate_nonisomorphic(5):
        for k in (1, 2, 3):
            assert gamma_bnb(g, k).value <= g.n


# ---------------------------------------------------------------------------
# greedy extension
# ---------------------------------------------------------------------------

def test_extension_hand_trace_on_path():
    p3 = path_graph(3)
    partial = PartialLabeling(2, (None, 1, None))
    out = extend_greedy(p3, partial, (0, 2))
    assert out.labels == (2, 1, 2)
    assert validate(p3, out) == []


def test_extension_of_full_assignment_is_identity():
    c4 = cycle_graph(4)
    partial = PartialLabeling(2, (1, 0, 2, 0))
    assert extend_greedy(c4, partial, ()).labels == (1, 0, 2, 0)


def test_extension_rejects_wrong_order_set():
    with pytest.raises(ValueError):
        extend_greedy(path_graph(3), PartialLabeling(2, (None, 1, None)), (0,))
    with pytest.raises(ValueError):
        extend_greedy(path_graph(3), PartialLabeling(2, (None, 1, None)), (0, 1))


def test_extension_labels_a_one_shot_order_as_its_tuple():
    p3 = path_graph(3)
    partial = PartialLabeling(2, (None, 1, None))
    assert extend_greedy(p3, partial, iter((0, 2))) == extend_greedy(p3, partial, (0, 2))


def test_extension_rejects_infeasible_partial():
    k2 = complete_graph(2)
    with pytest.raises(ValueError, match=VIOLATION_DEPENDENT):
        extend_greedy(k2, PartialLabeling(2, (1, 1)), ())
    with pytest.raises(ValueError, match=VIOLATION_UNCOVERED):
        extend_greedy(path_graph(3), PartialLabeling(2, (0, None, None)), (1, 2))
    # the violation names the vertices of the graph, not of the assigned part
    with pytest.raises(ValueError, match=f"{VIOLATION_DEPENDENT} at vertices 1, 2, color 1"):
        extend_greedy(path_graph(4), PartialLabeling(2, (None, 1, 1, None)), (0, 3))


def test_extension_order_changes_the_labels_not_validity():
    c5 = cycle_graph(5)
    empty = PartialLabeling(2, (None,) * 5)
    a = extend_greedy(c5, empty, (0, 1, 2, 3, 4))
    b = extend_greedy(c5, empty, (4, 3, 2, 1, 0))
    assert validate(c5, a) == [] and validate(c5, b) == []
    assert a.labels != b.labels


def test_extension_seeded_triples_stay_valid_and_bounded():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 8))
        k = rng.randint(1, 3)
        partial = random_valid_partial(rng, g, k)
        order = list(partial.unassigned())
        rng.shuffle(order)
        out = extend_greedy(g, partial, order)
        assert validate(g, out) == []
        zeros_fixed = sum(1 for lab in partial.assigned if lab == 0)
        assert weight(out) <= g.n - zeros_fixed


# ---------------------------------------------------------------------------
# a lemma on critical vertices
# ---------------------------------------------------------------------------

def test_anchored_zero_exists_after_deleting_a_critical_vertex():
    # whenever removing u leaves a connected graph whose 2-color value is one
    # below its order, the whole graph admits a labeling with u -> 1 and some
    # other vertex -> 0
    hits = 0
    for n in range(4, 8):
        for g in enumerate_nonisomorphic(n):
            for u in range(g.n):
                h, _ = induced_subgraph(g, g.full_mask & ~(1 << u))
                if not is_connected(h) or gamma_bnb(h, 2).value != h.n - 1:
                    continue
                hits += 1
                found = any(has_feasible_labeling(g, 2, {u: 1, v: 0})
                            for v in range(g.n) if v != u)
                assert found, f"{encode_graph6(g)} anchored at {u}"
    assert hits == 278


# ---------------------------------------------------------------------------
# subset invariants
# ---------------------------------------------------------------------------

def test_independent_domination_known_values():
    assert independent_domination(complete_graph(5)).value == 1
    assert independent_domination(star_graph(4)).value == 1
    assert independent_domination(cycle_graph(5)).value == 2
    assert independent_domination(Graph.empty(0)).value == 0


def test_domination_known_values():
    assert domination_number(complete_graph(2)).value == 1
    assert domination_number(cycle_graph(5)).value == 2
    assert domination_number(path_graph(4)).value == 2


def test_independent_dominating_matches_its_definition():
    # independent, and the closed neighbourhoods of its vertices cover the graph
    for n in range(5):
        for g in enumerate_labeled_graphs(n):
            closed = [{v} | {u for u in range(n) if g.has_edge(u, v)} for v in range(n)]
            for mask in range(1 << n):
                chosen = [v for v in range(n) if mask >> v & 1]
                independent = not any(g.has_edge(u, v) for u, v in itertools.combinations(chosen, 2))
                covered = set().union(*(closed[v] for v in chosen)) == set(range(n))
                assert is_independent_dominating(g, mask) == (independent and covered)
    with pytest.raises(ValueError, match="vertex mask has bits outside the graph"):
        is_independent_dominating(path_graph(3), 0b1001)


def test_set_witnesses_check_out():
    for g in enumerate_nonisomorphic(5):
        res = independent_domination(g)
        assert is_independent_dominating(g, res.witness)
        assert bin(res.witness).count("1") == res.value


@given(graphs(max_n=6))
@settings(max_examples=50)
def test_subset_searches_match_reference(g):
    assert independent_domination(g).value == ref_independent_domination_number(g)
    assert domination_number(g).value == ref_domination_number(g)


def test_domination_never_exceeds_independent_domination():
    for g in enumerate_nonisomorphic(6):
        assert domination_number(g).value <= independent_domination(g).value


def test_subset_budget_refusal():
    with pytest.raises(BudgetExceededError):
        independent_domination(Graph.empty(25))
    with pytest.raises(BudgetExceededError):
        domination_number(Graph.empty(25), SolverBudget(max_subsets=1 << 10))


# ---------------------------------------------------------------------------
# layered-product equivalence
# ---------------------------------------------------------------------------

def test_prism_square_two_layers():
    report = prism_check(cycle_graph(4), 2)
    assert report.gamma.value == 2
    assert report.ids.value == 2
    assert report.equal
    assert report.lifted_valid


def test_prism_single_layer_reduces_to_independent_domination():
    for g in filter(is_connected, enumerate_nonisomorphic(5)):
        report = prism_check(g, 1)
        assert report.equal and report.lifted_valid


def test_prism_refuses_the_product_cap_before_solving(monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "gamma_bnb", lambda *args, **kw: calls.append(args))
    with pytest.raises(UnsupportedSizeError, match="product has 65 vertices, cap is 64"):
        prism_check(cycle_graph(5), 13)
    assert calls == []


def test_prism_three_layers_spot_checks():
    for g in (path_graph(3), cycle_graph(4), complete_graph(3)):
        report = prism_check(g, 3)
        assert report.equal and report.lifted_valid
