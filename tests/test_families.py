"""Tests for the structural recognizers of the value-(n-1) families."""

import random

import pytest

from gtools import extremal_family_members
from ridom.families import (
    Family,
    GraphClass,
    classify_connected,
    classify_graph,
)
from ridom.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_star,
    encode_graph6,
    enumerate_labeled_graphs,
    enumerate_nonisomorphic,
    is_connected,
    path_graph,
    relabel,
    star_graph,
    star_plus_edge,
)
from ridom.solver import gamma_bnb


# ---------------------------------------------------------------------------
# connected classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "g,family",
    [
        (star_graph(4), Family.STAR),
        (path_graph(3), Family.STAR),          # the 2-leaf star
        (complete_graph(3), Family.STAR_PLUS_EDGE),
        (star_plus_edge(3), Family.STAR_PLUS_EDGE),
        (path_graph(4), Family.DOUBLE_STAR_31),
        (double_star(2, 1), Family.DOUBLE_STAR_31),
        (cycle_graph(5), Family.C5),
        (cycle_graph(4), Family.NONE),
        (complete_graph(4), Family.NONE),
        (double_star(2, 2), Family.NONE),
        (path_graph(5), Family.NONE),
    ],
    ids=["s4", "p3", "k3", "s3plus", "p4", "broom", "c5", "c4", "k4",
         "balanced-double-star", "p5"],
)
def test_family_membership(g, family):
    assert classify_connected(g) is family


def test_classify_connected_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_connected(complete_graph(2))
    with pytest.raises(ValueError):
        classify_connected(disjoint_union(complete_graph(2), Graph.empty(1)))


def test_classification_is_label_independent():
    rng = random.Random(5)
    samples = [star_graph(4), star_plus_edge(4), double_star(3, 1),
               cycle_graph(5), path_graph(5)]
    for g in samples:
        want = classify_connected(g)
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert classify_connected(relabel(g, perm)) is want


# ---------------------------------------------------------------------------
# tiny components and whole-graph classification
# ---------------------------------------------------------------------------

def test_trivial_components_examples():
    assert classify_graph(Graph.empty(3)).trivially_small
    assert classify_graph(disjoint_union(complete_graph(2), Graph.empty(1))).trivially_small
    assert not classify_graph(complete_graph(3)).trivially_small
    assert classify_graph(Graph.empty(0)).trivially_small


def test_classify_graph_examples():
    g = disjoint_union(disjoint_union(star_graph(3), complete_graph(2)),
                       Graph.empty(1))
    cls = classify_graph(g)
    assert cls.matches_n_minus_1
    assert not cls.trivially_small
    assert cls.family is Family.STAR

    cls = classify_graph(disjoint_union(complete_graph(2), complete_graph(2)))
    assert cls.trivially_small and not cls.matches_n_minus_1 and cls.family is Family.NONE

    cls = classify_graph(disjoint_union(cycle_graph(5), Graph.empty(1)))
    assert cls.matches_n_minus_1
    assert cls.family is Family.C5


def test_two_large_components_never_match():
    g = disjoint_union(star_graph(3), star_graph(3))
    assert not classify_graph(g).matches_n_minus_1


def test_classify_graph_answers_tiny_input():
    # below 3 vertices every component is tiny: no family, value n
    for n in range(3):
        for g in enumerate_labeled_graphs(n):
            cls = classify_graph(g)
            assert cls == GraphClass(n, Family.NONE, True), g
            assert cls.predicted == n and not cls.matches_n_minus_1, g


# ---------------------------------------------------------------------------
# predictions vs. the solver
# ---------------------------------------------------------------------------

def test_prediction_examples():
    assert classify_graph(disjoint_union(complete_graph(2), complete_graph(2))).predicted == 4
    assert classify_graph(cycle_graph(5)).predicted == 4
    assert classify_graph(cycle_graph(4)).predicted is None
    assert classify_graph(Graph.empty(0)).predicted == 0


def test_connected_equivalence_small():
    # family hit exactly when the solver lands one below the order
    for n in range(3, 7):
        for g in filter(is_connected, enumerate_nonisomorphic(n)):
            hit = classify_connected(g) is not Family.NONE
            assert hit == (gamma_bnb(g, 2).value == n - 1), encode_graph6(g)


def test_whole_graph_equivalence_small():
    for n in range(3, 7):
        for g in enumerate_nonisomorphic(n):
            value = gamma_bnb(g, 2).value
            cls = classify_graph(g)
            assert cls.matches_n_minus_1 == (value == n - 1), encode_graph6(g)
            assert cls.trivially_small == (value == n), encode_graph6(g)
            predicted = cls.predicted
            if predicted is not None:
                assert predicted == value, encode_graph6(g)


def test_family_complements_have_small_values():
    # spot checks of the bound used by the complement analysis; the wider
    # sweep lives in the acceptance module
    for n in (4, 6, 8):
        for label, g in extremal_family_members(n):
            assert gamma_bnb(complement(g), 2).value <= 3, (label, n)


def test_family_members_are_recognized_at_every_size():
    for n in range(3, 9):
        for label, g in extremal_family_members(n):
            assert g.n == n, label
            assert classify_connected(g) is not Family.NONE, (label, n)
