"""Tests for the complement-sum window verifier."""

import io
import json
import random
import sys

import pytest
from hypothesis import given, settings

from gtools import graphs
from ridom import nordhaus
from ridom.cli import run
from ridom.graphs import (
    LABELED_ENUM_MAX_VERTICES,
    Graph,
    UnsupportedSizeError,
    canonical_form,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_star,
    encode_graph6,
    enumerate_labeled_graphs,
    enumerate_nonisomorphic,
    labeled_graph,
    parse_graph6,
    path_graph,
    relabel,
    star_graph,
    star_plus_edge,
)
from ridom.nordhaus import (
    STATUS_AT_UPPER,
    STATUS_EXCEPTIONAL_C5,
    STATUS_IN_RANGE,
    STATUS_VIOLATION,
    enumeration_values,
    is_five_cycle,
    ng_record,
)
from ridom.solver import gamma_bnb


# ---------------------------------------------------------------------------
# single records
# ---------------------------------------------------------------------------

def test_record_solves_for_values_only(monkeypatch):
    # both solves skip the lex-min witness phase, whose result a record drops
    calls = []

    def spy(g, k, budget=None, **kw):
        calls.append((g.adj, kw))
        return gamma_bnb(g, k, budget, **kw)

    monkeypatch.setattr(nordhaus, "gamma_bnb", spy)
    g = star_graph(3)
    rec = ng_record(g)
    assert calls == [(g.adj, {"lexmin": False}), (complement(g).adj, {"lexmin": False})]
    assert (rec.gamma, rec.gamma_comp) == (gamma_bnb(g, 2).value, gamma_bnb(complement(g), 2).value)


def test_five_cycle_record_is_the_lone_exception():
    rec = ng_record(cycle_graph(5))
    assert (rec.gamma, rec.gamma_comp, rec.sum) == (4, 4, 8)
    assert rec.status == STATUS_EXCEPTIONAL_C5


def test_triangle_record_sits_at_the_ceiling():
    rec = ng_record(complete_graph(3))
    assert (rec.gamma, rec.gamma_comp, rec.sum) == (2, 3, 5)
    assert rec.status == STATUS_AT_UPPER


def test_star_record_sits_at_the_ceiling():
    rec = ng_record(star_graph(3))
    assert (rec.gamma, rec.gamma_comp, rec.sum) == (3, 3, 6)
    assert rec.status == STATUS_AT_UPPER


def test_record_line_is_tab_separated():
    rec = ng_record(complete_graph(3))
    assert rec.to_line() == "Bw\t3\t2\t3\t5\tat_upper"


def test_single_vertex_is_unconstrained():
    assert ng_record(Graph.empty(1)).status == STATUS_IN_RANGE
    assert ng_record(Graph.empty(0)).status == STATUS_IN_RANGE


def test_two_vertex_graphs_hit_their_ceiling():
    # K2 and its complement both sum to 4 = n + 2
    for g in enumerate_labeled_graphs(2):
        assert ng_record(g).status == STATUS_AT_UPPER


@pytest.mark.parametrize("total, status", [
    (3, STATUS_VIOLATION), (4, STATUS_AT_UPPER), (5, STATUS_VIOLATION),
])
def test_the_window_at_two_vertices_is_four(total, status):
    assert nordhaus._status(2, False, total) == status


# ---------------------------------------------------------------------------
# the 5-cycle detector
# ---------------------------------------------------------------------------

def test_five_cycle_detection():
    assert is_five_cycle(cycle_graph(5))
    assert is_five_cycle(relabel(cycle_graph(5), [3, 0, 2, 4, 1]))
    assert not is_five_cycle(path_graph(5))
    assert not is_five_cycle(disjoint_union(cycle_graph(5), Graph.empty(1)))
    assert not is_five_cycle(cycle_graph(4))


def test_cache_maps_a_graph_to_its_value_and_its_complements(monkeypatch):
    solved = []
    monkeypatch.setattr(nordhaus, "gamma_bnb", lambda g, *rest, **kw: solved.append(g) or gamma_bnb(g, *rest, **kw))
    # a seeded pair answers the record without a solve, even a wrong pair
    g = complete_graph(3)
    rec = ng_record(g, {g: (7, 9)})
    assert (rec.gamma, rec.gamma_comp, solved) == (7, 9, [])
    # a miss solves the graph, then its complement, and stores both under it
    cache = {}
    rec = ng_record(g, cache)
    assert solved == [g, complement(g)]
    assert cache == {g: (2, 3)} and (rec.gamma, rec.gamma_comp) == (2, 3)
    # an entry for K0 does not answer K1, though neither has an edge
    solved.clear()
    rec = ng_record(Graph.empty(1), {Graph.empty(0): (0, 0)})
    assert (rec.gamma, rec.gamma_comp) == (1, 1) and len(solved) == 2


# ---------------------------------------------------------------------------
# the value table of a labeled enumeration
# ---------------------------------------------------------------------------

def test_table_matches_records_for_every_mask_up_to_five_vertices(gamma2_cache):
    # every entry is reached, and the mirror entry holds the complement's value
    for n in range(6):
        gamma = enumeration_values(n)
        assert len(gamma) == 1 << n * (n - 1) // 2
        for mask, g in enumerate(enumerate_labeled_graphs(n)):
            rec = ng_record(g, gamma2_cache)
            assert (gamma[mask], gamma[-1 - mask]) == (rec.gamma, rec.gamma_comp), (n, mask)


def test_table_matches_records_on_sampled_six_vertex_masks(gamma2_cache):
    gamma = enumeration_values(6)
    for mask in random.Random(6).sample(range(1 << 15), 2000):
        rec = ng_record(labeled_graph(6, mask), gamma2_cache)
        assert (gamma[mask], gamma[-1 - mask]) == (rec.gamma, rec.gamma_comp), mask


def test_table_of_seven_vertices_reaches_the_third_mask_chunk(monkeypatch, gamma2_cache):
    # the 21 edge bits at n = 7 span three 8-bit chunks of the orbit search,
    # the only order whose masks reach bits 16-20
    solved, solve = [], nordhaus.gamma_bnb
    monkeypatch.setattr(nordhaus, "gamma_bnb", lambda g, *rest, **kw: solved.append(g) or solve(g, *rest, **kw))
    gamma = enumeration_values(7)
    assert len(solved) == 1044
    for mask in random.Random(7).sample(range(1 << 21), 2000):
        rec = ng_record(labeled_graph(7, mask), gamma2_cache)
        assert (gamma[mask], gamma[-1 - mask]) == (rec.gamma, rec.gamma_comp), mask


def test_table_of_the_smallest_orders():
    # the empty graph has value 0, so no entry's value says "not reached yet"
    assert enumeration_values(0) == bytearray([0])
    assert enumeration_values(1) == bytearray([1])
    # the two labeled graphs on 2 vertices are each other's complements
    assert enumeration_values(2) == bytearray([2, 2])


def test_table_refuses_orders_beyond_the_labeled_cap():
    with pytest.raises(UnsupportedSizeError, match="labeled enumeration caps at 7 vertices"):
        enumeration_values(LABELED_ENUM_MAX_VERTICES + 1)


def test_table_solves_a_graph_and_its_complement_per_pair_of_classes(monkeypatch):
    # one solve pair per complementary pair of classes: a solve per class
    # (A000088) and a second one per self-complementary class (A000171)
    classes = (1, 1, 2, 4, 11, 34, 156)
    self_complementary = (1, 1, 0, 0, 1, 2, 0)
    solved, solve = [], nordhaus.gamma_bnb
    monkeypatch.setattr(nordhaus, "gamma_bnb", lambda g, *rest, **kw: solved.append(g) or solve(g, *rest, **kw))
    for n in range(7):
        solved.clear()
        enumeration_values(n)
        assert len(solved) == classes[n] + self_complementary[n], n
        if n <= 5:
            assert len({canonical_form(g) for g in solved}) == classes[n], n


# ---------------------------------------------------------------------------
# stream verification, through ``ridom ng``
# ---------------------------------------------------------------------------

def run_ng(monkeypatch, capsys, *args, graphs=()):
    """``ridom ng`` with ``graphs`` on stdin: exit code, record fields, summary."""
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(encode_graph6(g) + "\n" for g in graphs)))
    code = run(["ng", *args])
    *lines, summary = capsys.readouterr().out.splitlines()
    return code, [line.split("\t") for line in lines], json.loads(summary)


def test_all_four_vertex_graphs_respect_the_window(monkeypatch, capsys):
    code, _, summary = run_ng(monkeypatch, capsys, "--enumerate", "4")
    assert code == 0
    assert summary["records"] == 64
    assert summary["violations"] == 0
    assert STATUS_VIOLATION not in summary["counts"]


def test_five_vertex_stream_finds_twelve_five_cycles(monkeypatch, capsys):
    code, _, summary = run_ng(monkeypatch, capsys, "--enumerate", "5")
    assert code == 0
    assert summary["records"] == 1024
    assert summary["violations"] == 0
    assert summary["counts"][STATUS_EXCEPTIONAL_C5] == 12


def test_empty_stream_gives_empty_report(monkeypatch, capsys):
    code, records, summary = run_ng(monkeypatch, capsys, "--dedup")
    assert code == 0
    assert records == []
    assert summary["records"] == 0
    assert summary["counts"] == {}
    assert (summary["violations"], summary["extremal_count"], summary["extremal"]) == (0, 0, [])


def test_min_n_skips_rather_than_records(monkeypatch, capsys):
    stream = [Graph.empty(1), complete_graph(3), complete_graph(2)]
    _, records, summary = run_ng(monkeypatch, capsys, "--min-n", "3", graphs=stream)
    assert [rec[0] for rec in records] == [encode_graph6(complete_graph(3))]
    assert summary["records"] == 1
    assert summary["counts"] == {STATUS_AT_UPPER: 1}


def test_below_range_is_never_seen_on_small_graphs(monkeypatch, capsys):
    for n in range(7):
        _, _, summary = run_ng(monkeypatch, capsys, "--noniso", str(n))
        assert "below_range" not in summary["counts"]


@given(graphs(max_n=6))
@settings(max_examples=40)
def test_sum_is_complement_symmetric(g):
    assert ng_record(g).sum == ng_record(complement(g)).sum


# ---------------------------------------------------------------------------
# extremal harvesting, through ``ridom ng --dedup``
# ---------------------------------------------------------------------------

def test_connected_four_vertex_extremal_harvest(monkeypatch, capsys):
    _, _, summary = run_ng(monkeypatch, capsys, "--noniso", "4", "--dedup")
    harvested = {canonical_form(parse_graph6(g6)) for g6 in summary["extremal"]}
    # the star, the star plus one edge, and the 4-path all attain n + 2
    for want in (star_graph(3), star_plus_edge(3), path_graph(4)):
        assert canonical_form(want) in harvested, encode_graph6(want)


def test_balanced_double_star_is_not_extremal(monkeypatch, capsys):
    g = double_star(2, 2)
    rec = ng_record(g)
    assert rec.sum == g.n + 1
    _, _, summary = run_ng(monkeypatch, capsys, "--dedup", graphs=[g])
    assert (summary["extremal_count"], summary["extremal"]) == (0, [])


def test_triangle_is_extremal(monkeypatch, capsys):
    _, _, summary = run_ng(monkeypatch, capsys, "--dedup", graphs=[complete_graph(3)])
    assert summary["extremal"] == [encode_graph6(complete_graph(3))]


def test_dedup_collapses_isomorphic_repeats(monkeypatch, capsys):
    a = star_graph(3)
    b = relabel(a, [1, 0, 2, 3])
    _, records, summary = run_ng(monkeypatch, capsys, "--dedup", graphs=[a, b])
    assert summary["extremal"] == [encode_graph6(a)]
    assert summary["extremal_count"] == 2
    assert [(rec[0], rec[5]) for rec in records] == [
        (encode_graph6(a), STATUS_AT_UPPER), (encode_graph6(b), STATUS_AT_UPPER),
    ]


def test_dedup_size_cap(monkeypatch, capsys):
    big_star = star_graph(8)  # 9 vertices, sum lands on the ceiling
    _, records, summary = run_ng(monkeypatch, capsys, graphs=[big_star])
    assert [(rec[0], rec[5]) for rec in records] == [(encode_graph6(big_star), STATUS_AT_UPPER)]
    assert summary["extremal_count"] == 1
    monkeypatch.setattr(sys, "stdin", io.StringIO(encode_graph6(big_star) + "\n"))
    assert run(["ng", "--dedup"]) == 2
    assert capsys.readouterr() == ("", "error: input line 1: --dedup needs n <= 8, got 9\n")


# ---------------------------------------------------------------------------
# complement-side consequences
# ---------------------------------------------------------------------------

def test_value_four_forces_small_complement_value():
    # apart from the 5-cycle, a graph of value exactly 4 has a complement
    # of value at most n - 2
    for n in range(4, 7):
        for g in enumerate_nonisomorphic(n):
            if is_five_cycle(g) or gamma_bnb(g, 2).value != 4:
                continue
            assert gamma_bnb(complement(g), 2).value <= n - 2, encode_graph6(g)


def test_tiny_component_graphs_have_complement_value_two():
    samples = [
        complete_graph(2),
        Graph.empty(2),
        disjoint_union(complete_graph(2), Graph.empty(1)),
        disjoint_union(complete_graph(2), complete_graph(2)),
        Graph.empty(4),
    ]
    for g in samples:
        assert gamma_bnb(complement(g), 2).value == 2, encode_graph6(g)
