"""Tests for the complement-sum window verifier."""

import pytest
from hypothesis import given, settings

from gtools import graphs
from ridom import nordhaus
from ridom.graphs import (
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
    NGRecord,
    cache_keys,
    collect_extremal,
    is_five_cycle,
    ng_record,
    report_from_records,
    verify_stream,
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
# stream verification
# ---------------------------------------------------------------------------

def test_all_four_vertex_graphs_respect_the_window():
    report = verify_stream(enumerate_labeled_graphs(4))
    assert report.total == 64
    assert report.ok
    assert report.counts.get(STATUS_VIOLATION, 0) == 0


def test_five_vertex_stream_finds_twelve_five_cycles():
    report = verify_stream(enumerate_labeled_graphs(5))
    assert report.total == 1024
    assert report.ok
    assert report.counts[STATUS_EXCEPTIONAL_C5] == 12


def test_empty_stream_gives_empty_report():
    report = verify_stream(iter(()))
    assert report.total == 0
    assert report.ok
    assert report.counts == {}
    assert report.extremal == ()


def test_min_n_skips_rather_than_records():
    stream = [Graph.empty(1), complete_graph(3), complete_graph(2)]
    report = verify_stream(stream, min_n=3)
    assert report.total == 1
    assert report.counts == {STATUS_AT_UPPER: 1}


def test_below_range_is_never_seen_on_small_graphs():
    for n in range(7):
        report = verify_stream(enumerate_nonisomorphic(n))
        assert report.counts.get(STATUS_BELOW_RANGE, 0) == 0


@given(graphs(max_n=6))
@settings(max_examples=40)
def test_sum_is_complement_symmetric(g):
    assert ng_record(g).sum == ng_record(complement(g)).sum


def test_report_from_records_wires_violations_and_extremal():
    fake = [
        NGRecord("Bw", 3, 2, 3, 5, STATUS_AT_UPPER),
        NGRecord("B?", 3, 3, 2, 5, STATUS_AT_UPPER),
        NGRecord("Dbk", 5, 4, 4, 8, STATUS_VIOLATION),
    ]
    report = report_from_records(fake)
    assert not report.ok
    assert report.extremal == ("Bw", "B?")
    assert report.violations[0].graph6 == "Dbk"


# ---------------------------------------------------------------------------
# extremal harvesting
# ---------------------------------------------------------------------------

def test_connected_four_vertex_extremal_harvest():
    collected = collect_extremal(enumerate_nonisomorphic(4, connected=True))
    harvested = {canonical_form(parse_graph6(g6)) for g6 in collected}
    # the star, the star plus one edge, and the 4-path all attain n + 2
    for want in (star_graph(3), star_plus_edge(3), path_graph(4)):
        assert canonical_form(want) in harvested, encode_graph6(want)


def test_balanced_double_star_is_not_extremal():
    g = double_star(2, 2)
    rec = ng_record(g)
    assert rec.sum == g.n + 1
    assert collect_extremal([g]) == []


def test_triangle_is_extremal():
    assert collect_extremal([complete_graph(3)]) == [encode_graph6(complete_graph(3))]


def test_dedup_collapses_isomorphic_repeats():
    a = star_graph(3)
    b = relabel(a, [1, 0, 2, 3])
    assert collect_extremal([a, b]) == [encode_graph6(a)]
    assert collect_extremal([a, b], dedup=False) == [
        encode_graph6(a), encode_graph6(b),
    ]


def test_dedup_size_cap():
    big_star = star_graph(8)  # 9 vertices, sum lands on the ceiling
    with pytest.raises(UnsupportedSizeError):
        collect_extremal([big_star])
    assert collect_extremal([big_star], dedup=False) == [encode_graph6(big_star)]


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
