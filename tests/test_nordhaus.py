"""Tests for the complement-sum window verifier."""

import io
import json
import sys

from hypothesis import given, settings

from gtools import graphs
from ridom import nordhaus
from ridom.cli import run
from ridom.graphs import (
    Graph,
    canonical_form,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_star,
    encode_graph6,
    enumerate_labeled_graphs,
    enumerate_nonisomorphic,
    parse_graph6,
    path_graph,
    relabel,
    star_graph,
    star_plus_edge,
)
from ridom.nordhaus import (
    STATUS_AT_UPPER,
    STATUS_BELOW_RANGE,
    STATUS_EXCEPTIONAL_C5,
    STATUS_IN_RANGE,
    STATUS_VIOLATION,
    cache_keys,
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


# ---------------------------------------------------------------------------
# the 5-cycle detector
# ---------------------------------------------------------------------------

def test_five_cycle_detection():
    assert is_five_cycle(cycle_graph(5))
    assert is_five_cycle(relabel(cycle_graph(5), [3, 0, 2, 4, 1]))
    assert not is_five_cycle(path_graph(5))
    assert not is_five_cycle(disjoint_union(cycle_graph(5), Graph.empty(1)))
    assert not is_five_cycle(cycle_graph(4))


def test_cache_keys_are_distinct_and_mirror_the_complement():
    # n = 0 and n = 1 included: their graphs have no rows or no edge bits,
    # so only the vertex count below the rows tells their keys apart
    seen = set()
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            key, ckey = cache_keys(g)
            assert ckey == cache_keys(complement(g))[0]
            assert key not in seen
            seen.add(key)
    assert len(seen) == 1 + 1 + 2 + 8 + 64 + 1024


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
        assert STATUS_BELOW_RANGE not in summary["counts"]


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
