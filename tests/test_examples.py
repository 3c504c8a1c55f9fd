"""The README's experiments and library example, run as a user runs them."""

import ast
import io
import json
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

import pytest

from ridom.cli import run

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def ng_noniso(n: int, out: Path) -> tuple[list[list[str]], dict]:
    """``ridom ng --noniso n``: its records split into fields, and its summary."""
    assert run(["ng", "--noniso", str(n), "--out", str(out)]) == 0
    *records, summary = out.read_text(encoding="ascii").splitlines()
    return [line.split("\t") for line in records], json.loads(summary)


def test_ng_scan_tabulates_the_window_up_to_six_vertices(tmp_path):
    # n, graphs, at n+2, c5, violations: one ng summary per order
    rows = []
    for n in range(2, 7):
        _, summary = ng_noniso(n, tmp_path / "ng.tsv")
        counts = summary["counts"]
        rows.append((n, summary["records"], counts.get("at_upper", 0),
                     counts.get("exceptional_c5", 0), summary["violations"]))
    assert rows == [
        (2, 2, 2, 0, 0),
        (3, 4, 4, 0, 0),
        (4, 11, 11, 0, 0),
        (5, 34, 18, 1, 0),
        (6, 156, 36, 0, 0),
    ]


def test_harvest_extremal_lists_the_ceiling_graphs(tmp_path):
    # ridom ng --noniso $n | awk -F'\t' '$6=="at_upper"{print $1}' | ridom classify
    ceiling = []
    for n in range(2, 7):
        records, _ = ng_noniso(n, tmp_path / "ng.tsv")
        ceiling += [fields[0] for fields in records if fields[5] == "at_upper"]
    src = tmp_path / "ceiling.g6"
    src.write_text("".join(line + "\n" for line in ceiling), encoding="ascii")
    out = tmp_path / "classify.tsv"
    assert run(["classify", "--input", str(src), "--out", str(out)]) == 0
    *records, summary = out.read_text(encoding="ascii").splitlines()
    assert len(ceiling) == json.loads(summary)["records"] == 71
    families = Counter(line.split("\t")[2] for line in records)
    assert families == {"c5": 1, "dstar31": 5, "none": 51, "star": 7, "star+": 7}


CAP_ERROR = ("", "error: non-isomorphic enumeration caps at 8 vertices\n")


# Both experiments start with ``ridom ng --noniso $n``, so n = 9 is refused
# there. The ids keep each experiment's earlier ``--max-n`` refusal text.
@pytest.mark.parametrize("out_name", [
    pytest.param(None, id="ng_scan---max-n must be between 1 and 8"),
    pytest.param("ng.tsv", id="harvest_extremal-need 1 <= min-n <= max-n <= 8"),
])
def test_scripts_refuse_orders_above_the_canonical_cap(capsys, tmp_path, out_name):
    argv = ["ng", "--noniso", "9"]
    if out_name:
        argv += ["--out", str(tmp_path / out_name)]
    assert run(argv) == 2
    assert capsys.readouterr() == CAP_ERROR
    # a refused harvest leaves no record file for the classify stage
    assert list(tmp_path.iterdir()) == []


def test_noniso_refuses_negative_orders(capsys):
    # the parser refuses a negative count before any graph is made
    assert run(["ng", "--noniso", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("ridom ng: error: argument --noniso: must be at least 0\n")


def test_readme_library_example_states_true_values():
    block = README.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert namespace["res"].value == 4
    assert values == [[], 4, "exceptional_c5"]


def readme_output(command: str) -> list[str]:
    """The lines the README's command-line block shows after ``$ command``."""
    block = README.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return block.split(f"$ {command}\n", 1)[1].split("\n\n", 1)[0].splitlines()


@pytest.mark.parametrize("command", ['echo "DqK" | ridom solve --k 2', 'echo "DqK" | ridom classify'])
def test_readme_cli_examples_print_what_they_show(monkeypatch, capsys, command):
    echo, ridom = (shlex.split(part) for part in command.split(" | "))
    monkeypatch.setattr(sys, "stdin", io.StringIO(echo[1] + "\n"))
    assert run(ridom[1:]) == 0
    assert capsys.readouterr().out.splitlines() == readme_output(command)


def test_readme_ng_example_counts_hold(capsys):
    command = "ridom ng --enumerate 5 --workers 4"
    shown = re.search(r'"counts": (\{.*?\})', " ".join(readme_output(command)))
    assert run(shlex.split(command)[1:]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["counts"] == json.loads(shown[1])
    assert summary["records"] == 1024 and summary["violations"] == 0
