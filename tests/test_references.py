"""The benchmark's frozen reference reports, rebuilt in process.

``perfbench/run.py`` fails a workload whose outputs differ from its report
under ``perfbench/reference/`` by a single byte.  These tests rebuild three
of those reports the way the workloads do, so that report drift fails the
test suite first.  They only read the references.
"""

import pytest

from ridom.cli import run
from ridom.graphs import encode_graph6, enumerate_nonisomorphic
from ridom.nordhaus import ng_record
from workloads import FROZEN_SOLVE_SEEDS, REFERENCE_DIR, read_reference, solve_hard_instances


@pytest.mark.parametrize("workers", ["1", "2"])
def test_ng_enum6_report_matches_its_reference(tmp_path, workers):
    # the workload runs on two workers; one worker runs the same tasks inline
    out = tmp_path / "ng.tsv"
    assert run(["ng", "--enumerate", "6", "--workers", workers, "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii").splitlines() == read_reference(REFERENCE_DIR, "ng-enum6")


def test_noniso7_records_match_their_reference():
    # one cache shared by every class, as the workload shares it
    cache: dict = {}
    lines = [ng_record(g, cache).to_line() for g in enumerate_nonisomorphic(7)]
    assert lines == read_reference(REFERENCE_DIR, "noniso-7")


@pytest.mark.parametrize("seed", FROZEN_SOLVE_SEEDS)
def test_solve_hard_reports_match_their_reference(tmp_path, seed):
    # every frozen seed, as the benchmark compares them all
    lines = []
    for k, graphs in sorted(solve_hard_instances(seed).items()):
        src, out = tmp_path / f"solve-k{k}.g6", tmp_path / f"solve-k{k}.tsv"
        src.write_text("".join(encode_graph6(g) + "\n" for g in graphs), encoding="ascii")
        assert run(["solve", "--k", str(k), "--input", str(src), "--out", str(out)]) == 0
        lines += out.read_text(encoding="ascii").splitlines()
    assert lines == read_reference(REFERENCE_DIR, f"solve-hard-{seed}")
