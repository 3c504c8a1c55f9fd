"""End-to-end tests of the command line front end."""

import dataclasses
import gc
import importlib
import importlib.util
import io
import json
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Executor
from pathlib import Path

import pytest

from ridom import cli, families, graphs, nordhaus
from ridom.cli import run
from ridom.graphs import (
    Graph,
    canonical_form,
    complete_graph,
    cycle_graph,
    encode_graph6,
    enumerate_labeled_graphs,
    enumerate_nonisomorphic,
    parse_graph6,
    path_graph,
    star_graph,
)
from ridom.nordhaus import NGRecord, ng_record
from ridom.reduction import bipartition

# the 41 bipartite labeled graphs on 4 vertices and a few larger ones
BIPARTITE_LINES = [
    encode_graph6(g) for g in enumerate_labeled_graphs(4) if bipartition(g) is not None
] + [encode_graph6(g) for g in (cycle_graph(6), path_graph(7), star_graph(5))]


# a triangle with a pendant vertex at two of its corners
BULL = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])


def last_json(text: str) -> dict:
    return json.loads(text.rstrip("\n").splitlines()[-1])


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    return str(path)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_five_cycle_line(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", ["DqK"])
    assert run(["solve", "--k", "2", "--input", src]) == 0
    out = capsys.readouterr().out
    record = out.splitlines()[0].split("\t")
    assert record[0] == "DqK"
    assert record[1] == "5" and record[2] == "2"
    assert record[3] == "4"
    assert len(record[4].split()) == 5
    assert last_json(out) == {"command": "solve", "k": 2, "records": 1}


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("A_\nDqK\n"))
    assert run(["solve"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 3  # two records + summary
    assert last_json(out)["records"] == 2


def test_solve_accepts_edge_lists(tmp_path, capsys):
    src = (tmp_path / "p4.txt")
    src.write_text("4 3\n0 1\n1 2\n2 3\n", encoding="ascii")
    assert run(["solve", "--input", str(src)]) == 0
    record = capsys.readouterr().out.splitlines()[0].split("\t")
    assert record[3] == "3"


def test_solve_node_budget_refuses(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", [encode_graph6(cycle_graph(14))])
    assert run(["solve", "--k", "2", "--input", src, "--budget-nodes", "10"]) == 2
    assert "10 nodes" in capsys.readouterr().err
    assert run(["solve", "--k", "2", "--input", src]) == 0
    assert capsys.readouterr().out.split("\t")[3] == "8"


def test_solve_rejects_bad_k(tmp_path):
    src = write_lines(tmp_path / "in.g6", ["A_"])
    assert run(["solve", "--k", "0", "--input", src]) == 2


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_record_shape(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", ["DqK", "A_"])
    assert run(["classify", "--input", src]) == 0
    out = capsys.readouterr().out
    five_cycle, edge = (line.split("\t") for line in out.splitlines()[:2])
    assert five_cycle == ["DqK", "5", "c5", "false", "true", "4"]
    assert edge == ["A_", "2", "none", "true", "false", "2"]
    assert last_json(out)["matches_n_minus_1"] == 1


def test_classify_unrecognized_graph_has_no_prediction(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", [encode_graph6(cycle_graph(4))])
    assert run(["classify", "--input", src]) == 0
    record = capsys.readouterr().out.splitlines()[0].split("\t")
    assert record[2] == "none" and record[5] == "-"


def test_classify_decomposes_each_graph_once(tmp_path, monkeypatch, capsys):
    # one decomposition per graph, those below 3 vertices included, and no
    # second pass through the connectivity test that ``graphs`` makes with it
    calls = []
    decompose = graphs.components
    monkeypatch.setattr(families, "components", lambda g: calls.append(g) or decompose(g))
    monkeypatch.setattr(graphs, "components", lambda g: calls.append(g) or decompose(g))
    lines = [encode_graph6(g) for n in range(5) for g in enumerate_labeled_graphs(n)]
    assert run(["classify", "--input", write_lines(tmp_path / "in.g6", lines)]) == 0
    assert len(calls) == 1 + 1 + 2 + 8 + 64
    assert last_json(capsys.readouterr().out)["records"] == 1 + 1 + 2 + 8 + 64


# ---------------------------------------------------------------------------
# ng
# ---------------------------------------------------------------------------

def test_ng_enumerate_five_vertices(tmp_path):
    out_path = tmp_path / "report.tsv"
    assert run(["ng", "--enumerate", "5", "--out", str(out_path)]) == 0
    text = out_path.read_text(encoding="ascii")
    summary = last_json(text)
    assert summary["records"] == 1024
    assert summary["violations"] == 0
    assert summary["counts"]["exceptional_c5"] == 12
    # one record line per graph, tab-separated, status last
    first = text.splitlines()[0].split("\t")
    assert len(first) == 6


def test_ng_reports_are_worker_independent(tmp_path):
    one = tmp_path / "one.tsv"
    two = tmp_path / "two.tsv"
    assert run(["ng", "--enumerate", "4", "--out", str(one)]) == 0
    assert run(["ng", "--enumerate", "4", "--workers", "2", "--out", str(two)]) == 0
    assert one.read_text(encoding="ascii") == two.read_text(encoding="ascii")


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("chunk", [7, 512])
def test_ng_seeded_chunks_keep_reports_worker_independent(tmp_path, monkeypatch, chunk, workers):
    # with 7 graphs a task, 147 tasks carry their graphs' table values
    monkeypatch.setattr(cli, "NG_CHUNK", chunk)
    expected = "".join(ng_record(g).to_line() + "\n" for g in enumerate_labeled_graphs(5))
    out = tmp_path / "r.tsv"
    assert run(["ng", "--enumerate", "5", "--workers", str(workers), "--out", str(out)]) == 0
    text = out.read_text(encoding="ascii")
    assert text.startswith(expected) and text.count("\n") == 1025


def test_enumerate_tasks_carry_mask_ranges_not_graphs(tmp_path, monkeypatch):
    # each worker builds its tasks' graphs, so a task of 512 masks carries
    # their two table slices, not 512 pickled graphs (about 19 KB at n = 5)
    held, sizes = [], []

    class GraphSpy(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, Graph):
                held.append(obj)
            return None

    class RecordingPool(cli.ProcessPoolExecutor):
        def submit(self, fn, *args):
            GraphSpy(io.BytesIO()).dump(args)
            task, _cfg = args
            sizes.append(len(pickle.dumps(task)))
            return super().submit(fn, *args)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.tsv"
        assert run(["ng", "--enumerate", "5", "--workers", workers, "--out", str(out)]) == 0
        reports.append(out.read_text(encoding="ascii"))
    assert reports[0] == reports[1]
    assert cli.NG_CHUNK == 512 and len(sizes) == 2
    assert held == [] and max(sizes) < 2048


def test_task_results_are_one_block_not_a_row_list(monkeypatch):
    # a task of 512 records comes back as its joined lines, their count and
    # one sum per status, so the parent unpickles three objects per task
    futures = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def submit(self, fn, *args):
            futures.append(super().submit(fn, *args))
            return futures[-1]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert run(["ng", "--enumerate", "5", "--workers", "2", "--out", os.devnull]) == 0
    assert cli.NG_CHUNK == 512 and len(futures) == 2
    for fut in futures:
        result = fut.result()
        block, count, sums = result
        assert type(block) is str and type(count) is int and type(sums) is list
        assert count == 512 == block.count("\n") and block.endswith("\n")
        assert len(sums) == len(nordhaus.ALL_STATUSES) and sum(sums) == count
        assert len(pickle.dumps(result)) < len(block) + 200


# orders 3, 4, 2 and 5 in runs, so that under --min-n 4 the first two tasks
# of 7 lines, and every task of one line of order 2 or 3, has no record
MIXED_ORDER_LINES = [encode_graph6(g) for g in enumerate_nonisomorphic(3)] * 4 + [
    encode_graph6(g) for n in (4, 2, 5) for g in enumerate_nonisomorphic(n)]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1, 7])
def test_empty_and_partial_blocks_keep_reports_and_tallies(tmp_path, monkeypatch, chunk, workers):
    src = write_lines(tmp_path / "in.g6", MIXED_ORDER_LINES)
    commands = (["ng", "--min-n", "4"], ["classify"])

    def reports(chunk: int, workers: int) -> list[str]:
        monkeypatch.setattr(cli, "NG_CHUNK", chunk)
        texts = []
        for args in commands:
            out = tmp_path / "r.tsv"
            assert run(args + ["--input", src, "--workers", str(workers), "--out", str(out)]) == 0
            texts.append(out.read_text(encoding="ascii"))
        return texts

    expected = reports(512, 1)
    assert last_json(expected[0])["records"] == 11 + 34
    assert last_json(expected[1])["records"] == len(MIXED_ORDER_LINES)
    results = []
    if workers == 1:
        # inline tasks only: a pool pickles ``_task`` by name
        task = cli._task
        monkeypatch.setattr(cli, "_task", lambda *args: results.append(task(*args)) or results[-1])
    assert reports(chunk, workers) == expected
    # under ng --min-n 4: each of the 18 lines below order 4, or two tasks of 7
    assert workers > 1 or results.count(("", 0, [])) == (18 if chunk == 1 else 2)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("chunk", [3, cli.NG_CHUNK])
def test_enumerate_failure_names_its_mask_line(monkeypatch, capsys, chunk, workers):
    # mask 7 is the triangle, item 8; at 3 masks a task it is the second
    # mask of the third range, so a wrong offset in the expansion shows
    monkeypatch.setattr(cli, "NG_CHUNK", chunk)
    assert run(["reduce", "--enumerate", "3", "--workers", workers]) == 2
    assert capsys.readouterr() == ("", "error: input line 8: graph is not bipartite\n")


@pytest.mark.parametrize("chunk", [7, cli.NG_CHUNK])
def test_ng_enumerate_solves_once_per_isomorphism_class(tmp_path, monkeypatch, chunk):
    # a graph and its complement per complementary pair of the 34 classes on
    # 5 vertices: C5 and the bull are their own complements' classes
    monkeypatch.setattr(cli, "NG_CHUNK", chunk)
    calls = []
    solve = nordhaus.gamma_bnb
    monkeypatch.setattr(nordhaus, "gamma_bnb", lambda g, *rest, **kw: calls.append(g) or solve(g, *rest, **kw))
    assert run(["ng", "--enumerate", "5", "--out", str(tmp_path / "r.tsv")]) == 0
    assert len(calls) == 36
    forms = [canonical_form(g) for g in calls]
    assert len(set(forms)) == 34 == len(enumerate_nonisomorphic(5))
    firsts = forms[::2]
    assert len(set(firsts)) == 18
    self_complementary = [f for f, c in zip(firsts, forms[1::2]) if f == c]
    assert sorted(self_complementary) == sorted(canonical_form(g) for g in (cycle_graph(5), BULL))


@pytest.mark.parametrize("subcommand", ["ng", "codec"])
def test_enumerate_refuses_orders_above_the_labeled_cap(capsys, subcommand):
    assert run([subcommand, "--enumerate", "8"]) == 2
    assert capsys.readouterr() == ("", "error: labeled enumeration caps at 7 vertices\n")


def test_ng_enumerate_agrees_with_one_record_per_class(tmp_path):
    # every labeled graph carries the values that ``--noniso`` solves on its
    # class's representative, a different labeling in most classes
    labeled, classes = tmp_path / "labeled.tsv", tmp_path / "classes.tsv"
    assert run(["ng", "--enumerate", "5", "--out", str(labeled)]) == 0
    assert run(["ng", "--noniso", "5", "--out", str(classes)]) == 0

    def records(path):
        lines = path.read_text(encoding="ascii").splitlines()[:-1]
        return [(canonical_form(parse_graph6(line.split("\t", 1)[0])), line.split("\t")[1:])
                for line in lines]

    by_class = dict(records(classes))
    assert len(by_class) == 34
    labeled_records = records(labeled)
    assert len(labeled_records) == 1024
    for form, fields in labeled_records:
        assert fields == by_class[form]


def test_ng_min_n_skips_small_graphs(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", ["@", "A_", "Bw"])
    assert run(["ng", "--input", src, "--min-n", "3"]) == 0
    out = capsys.readouterr().out
    assert last_json(out)["records"] == 1


@pytest.mark.parametrize("source", ["--enumerate", "--noniso"])
def test_ng_builds_nothing_for_a_source_below_min_n(monkeypatch, capsys, source):
    # no graph, class list or value table: every row would be skipped
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((graphs, "labeled_graph"), (cli, "enumerate_nonisomorphic"),
                         (cli, "enumeration_values")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    assert run(["ng", source, "5", "--min-n", "6"]) == 0
    assert calls == []
    assert capsys.readouterr() == (json.dumps({
        "command": "ng", "counts": {}, "extremal_count": 0, "min_n": 6, "records": 0,
        "seed": 0, "violations": 0}) + "\n", "")


@pytest.mark.parametrize("source, error", [
    ("--enumerate", "labeled enumeration caps at 7 vertices"),
    ("--noniso", "non-isomorphic enumeration caps at 8 vertices"),
])
def test_ng_refuses_an_order_past_its_cap_whatever_min_n(capsys, source, error):
    assert run(["ng", source, "9", "--min-n", "10"]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_ng_dedup_lists_extremal_up_to_isomorphism(tmp_path, capsys):
    lines = ["Bw", "Bw", encode_graph6(star_graph(3))]
    src = write_lines(tmp_path / "in.g6", lines)
    assert run(["ng", "--input", src, "--dedup"]) == 0
    summary = last_json(capsys.readouterr().out)
    assert summary["extremal"] == ["Bw", encode_graph6(star_graph(3))]
    assert summary["extremal_count"] == 3


def test_ng_dedup_refuses_graphs_above_the_canonical_cap(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", [encode_graph6(star_graph(8))])
    assert run(["ng", "--input", src]) == 0
    assert last_json(capsys.readouterr().out)["extremal_count"] == 1
    assert run(["ng", "--input", src, "--dedup"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input line 1: --dedup needs n <= 8, got 9\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_ng_dedup_refuses_at_the_offending_line(tmp_path, monkeypatch, capsys, workers):
    # a 9-vertex graph at the ceiling first, then every labeled 5-vertex graph
    lines = [encode_graph6(star_graph(8))]
    lines += [encode_graph6(g) for g in enumerate_labeled_graphs(5)]
    src = write_lines(tmp_path / "in.g6", lines)
    solved, solve = [], nordhaus.gamma_bnb
    monkeypatch.setattr(nordhaus, "gamma_bnb", lambda g, *rest, **kw: solved.append(g.n) or solve(g, *rest, **kw))
    assert run(["ng", "--input", src, "--dedup", "--workers", workers]) == 2
    assert capsys.readouterr() == ("", "error: input line 1: --dedup needs n <= 8, got 9\n")
    if workers == "1":
        # the star and its complement, and no later line
        assert solved == [9, 9]


def test_ng_oracle_check_agrees(tmp_path, capsys):
    assert run(["ng", "--enumerate", "4", "--oracle-check", "10", "--seed", "7"]) == 0
    summary = last_json(capsys.readouterr().out)
    assert summary["oracle_checked"] == 10
    assert summary["oracle_mismatches"] == 0
    assert summary["seed"] == 7


@pytest.mark.parametrize("field", ["gamma", "gamma_comp"])
def test_ng_oracle_check_catches_either_wrong_value(tmp_path, capsys, monkeypatch, field):
    # one record carries a wrong value on one side; sum and status stay
    # as they were, so only the oracle can make the run fail
    bad = encode_graph6(star_graph(3))
    real = cli.ng_record

    def corrupt(g, *rest):
        rec = real(g, *rest)
        if rec.graph6 == bad:
            rec = dataclasses.replace(rec, **{field: getattr(rec, field) + 1})
        return rec

    monkeypatch.setattr(cli, "ng_record", corrupt)
    src = write_lines(tmp_path / "in.g6", ["Bw", bad, "DqK"])
    assert run(["ng", "--input", src, "--oracle-check", "3"]) == 1
    summary = last_json(capsys.readouterr().out)
    assert summary["violations"] == 0
    assert summary["oracle_checked"] == 3
    assert summary["oracle_mismatches"] == 1


def test_ng_violation_fails_the_run(tmp_path, capsys, monkeypatch):
    # records that no solver would give: two at the ceiling, one violation
    fake = {rec.graph6: rec for rec in (
        NGRecord("Bw", 3, 2, 3, 5, "at_upper"),
        NGRecord("B?", 3, 3, 2, 5, "at_upper"),
        NGRecord("DqK", 5, 4, 5, 9, "violation"),
    )}
    monkeypatch.setattr(cli, "ng_record", lambda g, *rest: fake[encode_graph6(g)])
    src = write_lines(tmp_path / "in.g6", list(fake))
    assert run(["ng", "--input", src, "--workers", "1", "--dedup"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[:3] == [rec.to_line() for rec in fake.values()]
    summary = last_json(out)
    assert '"violations": 1' in out
    assert summary["counts"] == {"at_upper": 2, "violation": 1}
    assert summary["extremal_count"] == 2
    assert summary["extremal"] == ["Bw", "B?"]


def test_ng_budget_refusal(tmp_path):
    src = write_lines(tmp_path / "in.g6", ["Bw"])
    assert run(["ng", "--input", src, "--oracle-check", "1",
                "--budget-labelings", "1"]) == 2


@pytest.mark.parametrize("workers", ["1", "2"])
def test_ng_oracle_check_refuses_at_the_line_whatever_the_seed(tmp_path, capsys, workers):
    # any record may be sampled for the brute re-solve, so a graph past the
    # labeling budget fails at its line, not only when the sample picks it
    lines = [encode_graph6(cycle_graph(13))] + [encode_graph6(g) for g in enumerate_nonisomorphic(4)]
    src = write_lines(tmp_path / "in.g6", lines)
    for seed in ("0", "1", "2", "3"):
        assert run(["ng", "--input", src, "--oracle-check", "3", "--seed", seed,
                    "--workers", workers]) == 2
        assert capsys.readouterr() == ("", "error: input line 1: (k+1)^n = 1594323 labelings "
                                           "exceed the budget of 531441; use gamma_bnb for "
                                           "graphs this large\n")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_ng_node_budget_refuses(capsys, workers):
    args = ["ng", "--enumerate", "4", "--workers", workers]
    assert run(args + ["--budget-nodes", "1"]) == 2
    assert "budget of 1 nodes" in capsys.readouterr().err
    assert run(args) == 0


# ---------------------------------------------------------------------------
# reduce / prism
# ---------------------------------------------------------------------------

def test_reduce_square(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", [encode_graph6(cycle_graph(4))])
    assert run(["reduce", "--k", "2", "--input", src]) == 0
    out = capsys.readouterr().out
    record = out.splitlines()[0].split("\t")
    assert record[-1] == "true"
    assert record[-2] == "6"  # expected value (k-1)*n + domination number
    assert last_json(out) == {"command": "reduce", "k": 2, "records": 1,
                              "mismatches": 0}


def test_reduce_rejects_non_bipartite_input(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", ["Bw"])
    assert run(["reduce", "--input", src]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_reduce_names_the_non_bipartite_line_under_every_worker_count(monkeypatch, capsys, workers):
    # the error is raised in a pool worker under --workers 2 and must reach
    # the parent intact
    monkeypatch.setattr(sys, "stdin", io.StringIO("A_\nBw\n"))
    assert run(["reduce", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input line 2: graph is not bipartite\n"


@pytest.mark.parametrize("workers", ["1", "2", "3"])
@pytest.mark.parametrize("lines", [["Bw", "bad!"], ["Bw"] + ["A_"] * 1200 + ["bad!"]],
                         ids=["next-line", "later-task"])
def test_first_failing_line_is_named_under_every_worker_count(monkeypatch, capsys, workers, lines):
    # line 1 fails its row; a later line that does not parse must not overtake it
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(line + "\n" for line in lines)))
    assert run(["reduce", "--workers", workers]) == 2
    assert capsys.readouterr() == ("", "error: input line 1: graph is not bipartite\n")


# a row that refuses its graph, with a ValueError or a budget refusal, is
# named by its input line like a line that does not parse
ROW_FAILURES = {
    "prism-cap": (["prism", "--k", "3"], ["A_", encode_graph6(complete_graph(22))],
                  "input line 2: product has 66 vertices, cap is 64"),
    "reduce-cap": (["reduce", "--k", "4"], ["A_", encode_graph6(Graph.empty(17))],
                   "input line 2: target has 68 vertices, cap is 64"),
    "codec-cap": (["codec"], ["63 0"], "input line 1: graph6 short form caps at 62 vertices"),
    "solve-budget": (["solve", "--budget-nodes", "10"], ["A_", encode_graph6(cycle_graph(14))],
                     "input line 2: branch and bound exceeded the budget of 10 nodes"),
}


@pytest.mark.parametrize("workers", ["1", "2", "3"])
@pytest.mark.parametrize("args, lines, error", list(ROW_FAILURES.values()), ids=list(ROW_FAILURES))
def test_row_failures_name_their_line_under_every_worker_count(monkeypatch, capsys, workers,
                                                                args, lines, error):
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(line + "\n" for line in lines)))
    assert run(args + ["--workers", workers]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_failed_pool_run_waits_for_no_task_in_flight(monkeypatch, capsys):
    # line 1 fails at once, while each later task would take a minute
    monkeypatch.setattr(cli, "NG_CHUNK", 1)
    monkeypatch.setattr(cli, "verify_reduction", lambda inst, budget: time.sleep(60))
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\nA_\nA_\nA_\n"))
    start = time.monotonic()
    assert run(["reduce", "--workers", "2"]) == 2
    assert time.monotonic() - start < 30
    assert capsys.readouterr().err == "error: input line 1: graph is not bipartite\n"


def test_reduce_honours_the_budget(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", ["Cr"])
    args = ["reduce", "--k", "2", "--input", src]
    assert run(args + ["--budget-nodes", "1"]) == 2
    assert "budget of 1 nodes" in capsys.readouterr().err
    assert run(args + ["--budget-subsets", "1"]) == 2
    assert run(args) == 0


def test_reduce_rejects_k1(tmp_path):
    src = write_lines(tmp_path / "in.g6", ["A_"])
    assert run(["reduce", "--k", "1", "--input", src]) == 2


def test_prism_happy_path(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", [encode_graph6(cycle_graph(4)), "A_"])
    assert run(["prism", "--k", "2", "--input", src]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines()[:2]:
        fields = line.split("\t")
        assert fields[-2:] == ["true", "true"]
    assert last_json(out)["mismatches"] == 0


def test_prism_refuses_a_huge_k_at_the_product_cap(tmp_path, capsys):
    # the product's cap is checked before any solve, so this exits at once
    # instead of searching C5 or building k-sized rows
    src = write_lines(tmp_path / "in.g6", ["DqK"])
    started = time.perf_counter()
    assert run(["prism", "--k", "100000", "--input", src]) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr() == ("", "error: input line 1: product has 500000 vertices, cap is 64\n")


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def test_codec_roundtrip_identity(tmp_path, capsys):
    lines = ["DqK", "A_", ">>graph6<<Bw"]
    src = write_lines(tmp_path / "in.g6", lines)
    assert run(["codec", "--roundtrip", "--input", src]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:3] == ["DqK", "A_", "Bw"]
    assert last_json(out)["mismatches"] == 0


def test_codec_skips_bare_header_lines(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", [">>graph6<<", "Bw", ">>graph6<<A_"])
    assert run(["codec", "--roundtrip", "--input", src]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == ["Bw", "A_"]
    assert last_json(out) == {"command": "codec", "mismatches": 0, "records": 2, "roundtrip": True}
    # the header keeps its line number, so a bad byte after it names line 2
    src = write_lines(tmp_path / "bad.g6", [">>graph6<<", "B!"])
    assert run(["codec", "--roundtrip", "--input", src]) == 2
    assert capsys.readouterr() == ("", "error: input line 2: byte 1: byte 0x21 outside graph6 alphabet\n")


def test_codec_converts_edge_lists(tmp_path, capsys):
    # the first non-blank line is the header, so the blank one is skipped
    src = tmp_path / "c4.txt"
    src.write_text("\n4 4\n0 1\n1 2\n2 3\n3 0\n", encoding="ascii")
    assert run(["codec", "--input", str(src)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == encode_graph6(cycle_graph(4))


@pytest.mark.parametrize("blanks, edge, error", [
    (0, "1 5", "edge (1, 5) outside vertex range 0..2"),
    (2, "1 5", "edge (1, 5) outside vertex range 0..2"),
    (0, "1 1", "self-loop at vertex 1"),
    (0, "5 5", "edge (5, 5) outside vertex range 0..2"),
], ids=["0", "2", "loop", "loop-out-of-range"])
def test_edge_list_parse_error_names_the_header_line(monkeypatch, capsys, blanks, edge, error):
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n" * blanks + f"3 2\n0 1\n{edge}\n"))
    assert run(["classify"]) == 2
    assert capsys.readouterr() == ("", f"error: input line {blanks + 1}: {error}\n")


@pytest.mark.parametrize("blanks", [0, 2])
def test_edge_list_row_error_names_the_header_line(monkeypatch, capsys, blanks):
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n" * blanks + "3 3\n0 1\n1 2\n0 2\n"))
    assert run(["reduce"]) == 2
    assert capsys.readouterr() == ("", f"error: input line {blanks + 1}: graph is not bipartite\n")


def test_edge_list_superscript_is_a_bad_edge_line(monkeypatch, capsys):
    # str.isdigit accepts a superscript, which int() refuses
    monkeypatch.setattr(sys, "stdin", io.StringIO("2 1\n0 \u00b9\n"))
    assert run(["classify"]) == 2
    assert capsys.readouterr() == (
        "", "error: input line 1: bad edge line '0 \u00b9', expected 'u v'\n")


def test_codec_roundtrip_needs_graph6(tmp_path, capsys):
    for source in ("--enumerate", "--noniso"):
        assert run(["codec", "--roundtrip", source, "3"]) == 2
        assert capsys.readouterr() == ("", "error: input line 1: --roundtrip needs graph6 input lines\n")


def test_codec_roundtrip_refuses_edge_lists(tmp_path, capsys):
    src = tmp_path / "c4.txt"
    src.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n", encoding="ascii")
    assert run(["codec", "--roundtrip", "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--roundtrip needs graph6 input lines" in captured.err


# ---------------------------------------------------------------------------
# errors and plumbing
# ---------------------------------------------------------------------------

def test_malformed_line_is_named(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", ["A_", "A"])
    assert run(["solve", "--input", src]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "truncated" in err


@pytest.mark.parametrize("first, second", [
    ("--input", "--enumerate"), ("--input", "--noniso"), ("--enumerate", "--noniso"),
])
def test_input_and_enumerate_are_exclusive(tmp_path, capsys, first, second):
    src = write_lines(tmp_path / "in.g6", ["A_"])
    value = {"--input": src, "--enumerate": "3", "--noniso": "3"}
    assert run(["solve", first, value[first], second, value[second]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {second}: not allowed with argument {first}" in captured.err


def test_missing_input_file():
    assert run(["solve", "--input", "/nonexistent/nowhere.g6"]) == 2


def test_usage_errors():
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["solve", "--no-such-flag"]) == 2
    assert run(["solve", "--workers", "0"]) == 2
    # --seed belongs to ng alone; --enumerate keeps stdin out of the way
    assert run(["solve", "--enumerate", "1", "--seed", "1"]) == 2


class UnreadableStdin(io.TextIOBase):
    def readline(self, *args):
        raise AssertionError("stdin was read")

    read = readline


@pytest.mark.parametrize("args,error", [
    (["solve", "--k", "0"], "argument --k: must be at least 1"),
    (["prism", "--k", "0"], "argument --k: must be at least 1"),
    (["reduce", "--k", "1"], "argument --k: must be at least 2"),
    (["classify", "--workers", "0"], "argument --workers: must be at least 1"),
    (["ng", "--oracle-check", "-4"], "argument --oracle-check: must be at least 0"),
    (["codec", "--enumerate", "-1"], "argument --enumerate: must be at least 0"),
    (["solve", "--k", "x"], "argument --k: invalid int value: 'x'"),
    (["solve", "--budget-nodes", "-1"], "argument --budget-nodes: must be at least 0"),
    (["ng", "--budget-labelings", "-1"], "argument --budget-labelings: must be at least 0"),
    (["ng", "--min-n", "-1"], "argument --min-n: must be at least 0"),
])
def test_out_of_range_options_are_usage_errors(monkeypatch, capsys, args, error):
    # the parser refuses them, so no input is read and no line is blamed
    monkeypatch.setattr(sys, "stdin", UnreadableStdin())
    assert run(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"ridom {args[0]}: error: {error}\n"), err
    assert "input line" not in err


@pytest.mark.parametrize("args", [
    ["classify", "--budget-nodes", "5"], ["codec", "--budget-subsets", "1"],
    ["solve", "--budget-labelings", "1"],
])
def test_budgets_a_subcommand_does_not_read_are_refused(monkeypatch, capsys, args):
    monkeypatch.setattr(sys, "stdin", UnreadableStdin())
    assert run(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {args[1]}" in err


# every option's destination and default, as the parser gives them
OPTIONS = {
    "subcommand": None, "input_path": None, "enumerate_n": None, "noniso_n": None,
    "out_path": None, "workers": 1,
}
SUBCOMMAND_OPTIONS = {
    "solve": {"k": 2, "max_nodes": 10**8},
    "classify": {},
    "ng": {"min_n": 0, "dedup": False, "oracle_check": 0, "seed": 0,
           "max_labelings": 3**12, "max_nodes": 10**8},
    "reduce": {"k": 2, "max_subsets": 1 << 24, "max_nodes": 10**8},
    "prism": {"k": 2, "max_subsets": 1 << 24, "max_nodes": 10**8},
    "codec": {"roundtrip": False},
}


@pytest.mark.parametrize("sub", list(SUBCOMMAND_OPTIONS))
def test_option_surface_is_pinned(sub):
    parsed = vars(cli._build_parser().parse_args([sub]))
    expected = {**OPTIONS, "subcommand": sub, **SUBCOMMAND_OPTIONS[sub]}
    # what each subparser's set_defaults adds besides its options: the row,
    # its tallies, the finish step, the --enumerate value table, the summary
    # head and min_n for the subcommands without --min-n
    added = {"row", "names", "finish", "table", "head"} | ({"min_n"} - expected.keys())
    assert {name: parsed[name] for name in parsed.keys() - added} == expected
    assert callable(parsed["row"])
    assert set(parsed["head"]) <= expected.keys()


@pytest.mark.parametrize("args", [
    ["solve", "--k", "3"], ["classify"], ["reduce", "--k", "2"], ["prism", "--k", "2"],
    ["codec"], ["codec", "--roundtrip"], ["ng", "--noniso", "6"],
])
def test_reports_are_worker_independent_for_every_subcommand(tmp_path, monkeypatch, args):
    # tasks of 7 graphs, so several are in flight at once
    monkeypatch.setattr(cli, "NG_CHUNK", 7)
    records = 156
    if "--noniso" not in args:
        args = args + ["--input", write_lines(tmp_path / "in.g6", BIPARTITE_LINES)]
        records = len(BIPARTITE_LINES)
    reports = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}.tsv"
        assert run(args + ["--workers", str(workers), "--out", str(out)]) == 0
        reports.append(out.read_text(encoding="ascii"))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].count("\n") == records + 1


@pytest.mark.parametrize("cpus", [1, None])
def test_pool_stops_at_the_cpu_count(tmp_path, monkeypatch, cpus):
    started = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

        def shutdown(self, *args, **kwargs):
            started.append(len(self._processes))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    reports = []
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}.tsv"
        assert run(["ng", "--enumerate", "4", "--workers", workers, "--out", str(out)]) == 0
        reports.append(out.read_text(encoding="ascii"))
    # one pool of one process for --workers 3; --workers 1 runs inline
    assert started == [1, 1]
    assert reports[0] == reports[1]


def test_window_follows_the_capped_pool(tmp_path, monkeypatch):
    # on one CPU, --workers 3 runs one process, so it keeps two tasks in
    # flight, not six
    in_flight = []

    class RecordingDeque(cli.deque):
        def append(self, fut):
            super().append(fut)
            in_flight.append(len(self))

    monkeypatch.setattr(cli, "deque", RecordingDeque)
    monkeypatch.setattr(cli, "NG_CHUNK", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    reports, peaks = [], []
    for workers in ("1", "3"):
        in_flight.clear()
        out = tmp_path / f"w{workers}.tsv"
        assert run(["ng", "--enumerate", "4", "--workers", workers, "--out", str(out)]) == 0
        reports.append(out.read_text(encoding="ascii"))
        peaks.append(max(in_flight))
    assert peaks == [1, 2]
    assert reports[0] == reports[1]


def test_traced_benchmark_names_still_resolve(tmp_path, monkeypatch):
    # perfbench/spans.py replaces these names to trace a run, and fails on
    # one that is gone; the CLI must also still look them up where it runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _, _ in spans.PATCHES:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert issubclass(cli.ProcessPoolExecutor, Executor)

    calls = []
    for name in ("gamma_bnb", "ng_record", "encode_graph6"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    src = write_lines(tmp_path / "in.g6", ["DqK", "A_"])
    assert run(["solve", "--input", src, "--out", str(tmp_path / "s.tsv")]) == 0
    assert run(["ng", "--input", src, "--out", str(tmp_path / "n.tsv")]) == 0
    assert calls == ["gamma_bnb", "encode_graph6"] * 2 + ["ng_record"] * 2


def test_help_exits_cleanly(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "exact k-rainbow independent domination toolkit for small graphs" in out
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("    ")}
    assert {"solve", "classify", "ng", "reduce", "prism", "codec"} <= listed


def test_out_file_matches_stdout(tmp_path, capsys):
    src = write_lines(tmp_path / "in.g6", ["DqK"])
    assert run(["solve", "--input", src]) == 0
    stdout_text = capsys.readouterr().out
    out_path = tmp_path / "report.tsv"
    assert run(["solve", "--input", src, "--out", str(out_path)]) == 0
    assert out_path.read_text(encoding="ascii") == stdout_text


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_run_writes_no_report(tmp_path, monkeypatch, capsys, workers):
    # line 1's record is spooled before line 2 fails; none of it comes out
    monkeypatch.setattr(cli, "NG_CHUNK", 1)
    out_path = tmp_path / "report.tsv"
    out_path.write_bytes(b"an earlier report\n")
    for out in (["--out", str(out_path)], []):
        monkeypatch.setattr(sys, "stdin", io.StringIO("A_\nBw\n"))
        assert run(["reduce", "--workers", workers, *out]) == 2
        assert capsys.readouterr() == ("", "error: input line 2: graph is not bipartite\n")
    assert out_path.read_bytes() == b"an earlier report\n"


def traced_peak(args: list[str]) -> int:
    """Python's peak allocation during ``run(args)``.  The run goes once
    untraced first, and earlier garbage is collected, so neither one-time
    allocations nor finalizers land inside the peak."""
    assert run(args) == 0
    gc.collect()
    tracemalloc.start()
    try:
        assert run(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_memory_does_not_grow_with_the_record_count(tmp_path):
    # --enumerate 6 has 32 times the records of --enumerate 5
    def peak(n: int) -> int:
        return traced_peak(["codec", "--enumerate", str(n), "--out", str(tmp_path / "report.tsv")])

    assert peak(6) < 2 * peak(5)


def test_input_memory_does_not_grow_with_the_line_count(tmp_path):
    # the 32,768 graph6 lines of n=6 against the 1,024 of n=5
    def peak(n: int) -> int:
        src = write_lines(tmp_path / f"in{n}.g6", map(encode_graph6, enumerate_labeled_graphs(n)))
        return traced_peak(["codec", "--input", src, "--out", str(tmp_path / "report.tsv")])

    assert peak(6) < 2 * peak(5)


def test_ng_memory_does_not_grow_with_the_line_count(tmp_path):
    # every line is at the ceiling, so a summary that kept their ids would grow
    def peak(lines: int) -> int:
        src = write_lines(tmp_path / f"in{lines}.g6", ["Bw"] * lines)
        return traced_peak(["ng", "--input", src, "--out", str(tmp_path / "report.tsv")])

    assert peak(20_000) < 2 * peak(1_000)


def test_non_ascii_input_names_its_line_and_byte(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    command = [sys.executable, "-m", "ridom.cli", "codec"]
    src = tmp_path / "in.g6"
    for data, error in [
        (b"A_\nB\xc3\xa9\n", b"input line 2: byte 1: byte 0xc3 outside graph6 alphabet"),
        (b"A_\nD\xc3\xa9?!\n", b"input line 2: byte 1: byte 0xc3 outside graph6 alphabet"),
        (b"B\xff\n", b"input line 1: byte 1: byte 0xff outside graph6 alphabet"),
        (b"\xffB\n", b"input line 1: byte 0: invalid size byte 0xff"),
    ]:
        src.write_bytes(data)
        from_file = subprocess.run([*command, "--input", str(src)], capture_output=True, env=env)
        from_stdin = subprocess.run(command, input=data, capture_output=True, env=env)
        for proc in (from_file, from_stdin):
            assert proc.returncode == 2
            assert proc.stdout == b""
            assert proc.stderr == b"error: " + error + b"\n", (data, proc.stderr)


def test_vanished_reader_exits_141_and_shutdown_stays_quiet(monkeypatch):
    # a pipe whose read end is already closed, so the report's write fails
    # with EPIPE every time, with no race against a reader process
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = os.fdopen(write_end, "w")
    monkeypatch.setattr(sys, "stdout", out)
    try:
        assert run(["codec", "--enumerate", "4"]) == cli.EXIT_BROKEN_PIPE == 141
    finally:
        monkeypatch.undo()
        # the descriptor now points at devnull, so the buffered rest of the
        # report flushes without a second BrokenPipeError
        out.close()


def test_interrupt_exits_130_without_traceback(monkeypatch, capsys):
    def interrupted(argv):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run", interrupted)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == cli.EXIT_INTERRUPTED == 130
    assert capsys.readouterr().err == "interrupted\n"
