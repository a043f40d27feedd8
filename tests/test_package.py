"""The package namespace: every exported name exists, and the README's examples run."""

import ast
import re
import shlex
from pathlib import Path

import umbralqm
from umbralqm.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_and_the_list_is_sorted():
    missing = [name for name in umbralqm.__all__ if not hasattr(umbralqm, name)]
    assert missing == []
    assert umbralqm.__all__ == sorted(umbralqm.__all__)


def test_readme_python_block_runs_and_gives_the_values_it_states():
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, stated = block.splitlines(), {}, 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.lineno - 1].partition("#")[2].strip()
        if comment.startswith("Fraction("):  # a stated repr, up to the colon
            assert repr(value) == comment.partition(":")[0]
            stated += 1
    assert stated == 1  # commutator_residual's Fraction(0, 1)


def test_readme_plot_recipes_run_and_write_the_files_they_name(tmp_path, monkeypatch, capsys):
    block = README.read_text(encoding="utf-8").split("### Plot recipes", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    recipes = [line for line in block.splitlines() if line.startswith("umbralqm ")]
    assert len(recipes) == 4
    monkeypatch.chdir(tmp_path)
    for line in recipes:
        named = re.findall(r"[\w.]+\.csv", line)  # an --out file, or one the comment promises
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        assert named and all((tmp_path / name).stat().st_size > 0 for name in named), line
    capsys.readouterr()
