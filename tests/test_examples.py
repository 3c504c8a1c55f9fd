"""The experiment scripts and the README's library example, run as a user runs them."""

import ast
import runpy
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def script_main(name: str):
    return runpy.run_path(str(ROOT / "scripts" / f"{name}.py"), run_name=name)["main"]


def test_ng_scan_tabulates_the_window_up_to_six_vertices(capsys):
    assert script_main("ng_scan")(["--max-n", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "window holds throughout"
    # n, graphs, at n+2, c5, violations; the seconds column is left out
    rows = [tuple(int(tok) for tok in line.split()[:5]) for line in lines[1:-1]]
    assert rows == [
        (2, 2, 2, 0, 0),
        (3, 4, 4, 0, 0),
        (4, 11, 11, 0, 0),
        (5, 34, 18, 1, 0),
        (6, 156, 36, 0, 0),
    ]


@pytest.mark.parametrize("flags, total, connected", [
    ((), 71, {"yes": 44, "no": 27}),
    (("--connected",), 44, {"yes": 44}),
])
def test_harvest_extremal_lists_the_ceiling_graphs(capsys, flags, total, connected):
    assert script_main("harvest_extremal")(["--max-n", "6", *flags]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"# {total} ceiling graphs with 2 <= n <= 6\n"
    header, *rows = (line.split("\t") for line in captured.out.splitlines())
    assert header[4:6] == ["connected", "family"]
    assert len(rows) == total
    assert Counter(row[4] for row in rows) == connected
    if not flags:
        families = Counter(row[5] for row in rows)
        assert families == {"-": 2, "c5": 1, "dstar31": 5, "none": 49, "star": 7, "star+": 7}


@pytest.mark.parametrize("name, message", [
    ("ng_scan", "--max-n must be between 1 and 8"),
    ("harvest_extremal", "need 1 <= min-n <= max-n <= 8"),
])
def test_scripts_refuse_orders_above_the_canonical_cap(capsys, name, message):
    with pytest.raises(SystemExit) as exc:
        script_main(name)(["--max-n", "9"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_readme_library_example_states_true_values():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert namespace["res"].value == 4
    assert values == [[], 4, "exceptional_c5"]
