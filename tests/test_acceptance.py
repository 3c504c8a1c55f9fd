"""Acceptance gate: the eleven exhaustive checks, each with its time budget.

Every test prints one ``[acceptance] criterion N: PASS/FAIL in Xs`` line so a
teed run reads as a checklist.  The checks are deliberately oracle-heavy:
structural classifiers are compared against exact solvers, the two exact
solvers against each other, and every closed-form value against enumeration.
"""

import random
import time
from functools import lru_cache

import pytest

from gtools import extremal_family_members, random_graph, random_valid_partial
from ridom.families import Family, classify_connected, classify_graph
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
    star_graph,
)
from ridom.nordhaus import (
    STATUS_EXCEPTIONAL_C5,
    STATUS_VIOLATION,
    is_five_cycle,
    ng_record,
)
from ridom.reduction import (
    bipartition,
    build_reduction,
    lift_dominating_set,
    project_ridf,
    verify_reduction,
)
from ridom.solver import (
    SolverBudget,
    domination_number,
    extend_greedy,
    gamma_bnb,
    gamma_brute,
    independent_domination,
    prism_check,
    validate,
    weight,
)


def finish(num: int, started: float, budget: float, problems: list, detail: str):
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < budget
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} "
          f"in {elapsed:.2f}s ({detail})")
    assert not problems, f"criterion {num}: {problems[:5]}"
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


@lru_cache(maxsize=None)
def gamma2(g: Graph) -> int:
    """The 2-rainbow value of ``g``, solved once per graph over the whole run."""
    return gamma_bnb(g, 2).value


def test_criterion_01_frozen_two_color_values():
    started = time.perf_counter()
    problems = []
    cases = [
        ("C4", cycle_graph(4), 2),
        ("C5", cycle_graph(5), 4),
        ("S4", star_graph(4), 4),
        ("P4", path_graph(4), 3),
        ("K2+K1", disjoint_union(complete_graph(2), Graph.empty(1)), 3),
    ]
    for name, g, expect in cases:
        for solver in (gamma_brute, gamma_bnb):
            got = solver(g, 2).value
            if got != expect:
                problems.append(f"{name}: {solver.__name__} gave {got}, want {expect}")
    finish(1, started, 1.0, problems, f"{len(cases)} named values, both solvers")


def test_criterion_02_one_color_equals_independent_domination():
    started = time.perf_counter()
    problems = []
    checked = 0
    for n in range(7):
        for g in enumerate_nonisomorphic(n):
            if gamma_bnb(g, 1).value != independent_domination(g).value:
                problems.append(encode_graph6(g))
            checked += 1
    finish(2, started, 30.0, problems,
           f"{checked} graphs up to 6 vertices, up to isomorphism")


def test_criterion_03_value_n_minus_1_families_are_complete():
    started = time.perf_counter()
    problems = []
    checked = 0
    for n in range(3, 8):
        stream = [g for g in enumerate_nonisomorphic(n) if is_connected(g)]
        if n == 7 and len(stream) != 853:
            problems.append(f"expected 853 connected graphs at n=7, got {len(stream)}")
        for g in stream:
            hit = classify_connected(g) is not Family.NONE
            if hit != (gamma2(g) == n - 1):
                problems.append(encode_graph6(g))
            checked += 1
    finish(3, started, 60.0, problems, f"{checked} connected graphs, 3 <= n <= 7")


@pytest.mark.stretch
def test_criterion_03_stretch_families_at_eight_vertices():
    started = time.perf_counter()
    problems = []
    stream = [g for g in enumerate_nonisomorphic(8) if is_connected(g)]
    if len(stream) != 11117:
        problems.append(f"expected 11117 connected graphs at n=8, got {len(stream)}")
    for g in stream:
        hit = classify_connected(g) is not Family.NONE
        if hit != (gamma2(g) == 7):
            problems.append(encode_graph6(g))
    finish(3, started, 600.0, problems, f"stretch tier, {len(stream)} graphs at n=8")


def test_criterion_04_value_n_exactly_for_tiny_components():
    started = time.perf_counter()
    problems = []
    checked = 0
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            trivial = classify_graph(g).trivially_small
            if trivial != (gamma2(g) == n):
                problems.append(f"equivalence: {encode_graph6(g)}")
            if trivial and n >= 2 and gamma2(complement(g)) != 2:
                problems.append(f"complement clause: {encode_graph6(g)}")
            checked += 1
    finish(4, started, 60.0, problems, f"{checked} labeled graphs, n <= 6")


def test_criterion_05_complement_sum_window(gamma2_cache):
    started = time.perf_counter()
    problems = []
    checked = five_cycles = 0

    def scan(stream):
        nonlocal checked, five_cycles
        for g in stream:
            rec = ng_record(g, gamma2_cache)
            checked += 1
            if rec.status == STATUS_VIOLATION:
                problems.append(rec.to_line())
            if is_five_cycle(g):
                five_cycles += 1
                if rec.sum != 8 or rec.status != STATUS_EXCEPTIONAL_C5:
                    problems.append(f"five-cycle sum {rec.sum}: {rec.graph6}")

    for n in range(7):
        scan(enumerate_labeled_graphs(n))
    scan(enumerate_nonisomorphic(7))
    if five_cycles != 12 + 0:
        problems.append(f"expected the 12 labeled five-cycles, saw {five_cycles}")
    finish(5, started, 300.0, problems,
           f"{checked} graphs: labeled n <= 6 plus n = 7 up to isomorphism")


def test_criterion_06_small_value_forces_small_complement():
    started = time.perf_counter()
    problems = []
    checked = 0
    for n in range(4, 8):
        for g in enumerate_nonisomorphic(n):
            if is_five_cycle(g) or gamma2(g) != 4:
                continue
            checked += 1
            if gamma2(complement(g)) > n - 2:
                problems.append(encode_graph6(g))
    family_checked = 0
    for n in range(3, 9):
        for label, g in extremal_family_members(n):
            if label == "five-cycle":
                # self-complementary, value 4: outside the ceiling statement
                continue
            family_checked += 1
            if gamma_bnb(complement(g), 2).value > 3:
                problems.append(f"{label} on {n} vertices")
    finish(6, started, 120.0, problems,
           f"{checked} value-4 graphs n <= 7; {family_checked} family complements n <= 8")


def test_criterion_07_reduction_value_identity():
    started = time.perf_counter()
    problems = []

    def check(g, k):
        parts = bipartition(g)
        assert parts is not None
        inst = build_reduction(g, parts, k)
        report = verify_reduction(inst)
        if not report.equal:
            problems.append(f"{encode_graph6(g)} k={k}: target {report.gamma_rik_target}, "
                            f"expected {report.expected}")
        dom = domination_number(g).witness
        lifted = lift_dominating_set(inst, dom)
        if validate(inst.target, lifted):
            problems.append(f"{encode_graph6(g)} k={k}: lift invalid")
        if project_ridf(inst, lifted) != dom:
            problems.append(f"{encode_graph6(g)} k={k}: round trip lost the set")
        best = gamma_bnb(inst.target, k)
        projected = project_ridf(inst, best.witness)
        size = bin(projected).count("1")
        if size != best.value - (k - 1) * g.n:
            problems.append(f"{encode_graph6(g)} k={k}: projected size {size}")

    two_color = 0
    for n in range(1, 6):
        for g in filter(is_connected, enumerate_nonisomorphic(n)):
            if bipartition(g) is None:
                continue
            check(g, 2)
            two_color += 1
    for g in (complete_graph(2), path_graph(3), path_graph(4), cycle_graph(4)):
        check(g, 3)
    finish(7, started, 180.0, problems,
           f"{two_color} connected bipartite sources at k=2, 4 named at k=3")


def test_criterion_08_prism_equivalence():
    started = time.perf_counter()
    problems = []
    checked = 0
    for n in range(6):
        for g in enumerate_nonisomorphic(n):
            for k in (1, 2, 3):
                report = prism_check(g, k)
                if not (report.equal and report.lifted_valid):
                    problems.append(f"{encode_graph6(g)} k={k}")
                checked += 1
    finish(8, started, 120.0, problems,
           f"{checked} (graph, k) pairs, n <= 5, k in 1..3")


def test_criterion_09_solver_oracle_equivalence():
    started = time.perf_counter()
    problems = []
    checked = 0
    for n in range(7):
        for g in enumerate_nonisomorphic(n):
            for k in (1, 2, 3):
                if gamma_bnb(g, k).value != gamma_brute(g, k).value:
                    problems.append(f"{encode_graph6(g)} k={k}")
                checked += 1
    rng = random.Random(20240)
    randoms = 0
    while randoms < 200:
        k = rng.randint(1, 3)
        # the brute side caps at (k+1)^n <= 3^12 labelings, so k = 3 draws
        # stay at 9 vertices while smaller k go to the full 10
        n = rng.randint(1, 9 if k == 3 else 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
        if gamma_bnb(g, k).value != gamma_brute(g, k).value:
            problems.append(f"random #{randoms} ({encode_graph6(g)}, k={k})")
        randoms += 1
    finish(9, started, 120.0, problems,
           f"{checked} exhaustive pairs n <= 6 plus {randoms} seeded random graphs")


def test_criterion_10_greedy_extension_bound():
    started = time.perf_counter()
    problems = []
    rng = random.Random(1105)
    for case in range(500):
        g = random_graph(rng, rng.randint(0, 8), rng.choice([0.25, 0.5, 0.75]))
        k = rng.randint(1, 3)
        partial = random_valid_partial(rng, g, k)
        order = list(partial.unassigned())
        rng.shuffle(order)
        out = extend_greedy(g, partial, order)
        if validate(g, out):
            problems.append(f"case {case}: invalid extension")
        zeros = sum(1 for lab in partial.assigned if lab == 0)
        if weight(out) > g.n - zeros:
            problems.append(f"case {case}: weight {weight(out)} > {g.n - zeros}")
    finish(10, started, 30.0, problems, "500 seeded (graph, partial, order) triples")


def test_criterion_11_double_star_sums():
    started = time.perf_counter()
    problems = []
    checked = 0
    for a in range(2, 6):
        for b in range(2, a + 1):
            g = double_star(a, b)
            total = gamma2(g) + gamma2(complement(g))
            if total != g.n + 1:
                problems.append(f"S({a},{b}): sum {total}, want {g.n + 1}")
            checked += 1
    finish(11, started, 10.0, problems, f"{checked} double stars, 2 <= m <= n <= 5")
