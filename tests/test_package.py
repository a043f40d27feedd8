"""The package namespace: every exported name exists, the README's examples run, and the CLI imports lightly."""

import ast
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import umbralqm
from umbralqm.cli import main
from umbralqm.schrodinger import WellLevel

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


def test_the_cli_loads_every_package_module_and_no_module_it_does_not_use():
    # a fresh interpreter, since pytest itself imports all of them
    probe = "import sys; bare = set(sys.modules); import umbralqm.cli; print(*sorted(set(sys.modules) - bare))"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(umbralqm.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    added = set(run.stdout.split())
    unused = {"dataclasses", "inspect", "json", "multiprocessing", "concurrent.futures", "threading", "subprocess", "tempfile"}
    assert not unused & added
    package = {"polynomials", "operators", "correspondences", "functions", "schrodinger"}
    assert {f"umbralqm.{name}" for name in package} <= added


def test_value_reprs_are_the_field_reprs():
    pins = [
        (umbralqm.right(1), "Correspondence(kind=<Kind.RIGHT: 'right'>, sigma=1)"),
        (
            umbralqm.symmetric(Fraction(1, 3)),
            "Correspondence(kind=<Kind.SYMMETRIC: 'symmetric'>, sigma=Fraction(1, 3))",
        ),
        (
            umbralqm.DiscreteFunction(0.5, -2, [1.0, 2.5, -3.0]),
            "DiscreteFunction(sigma=0.5, m_min=-2, values=[1.0, 2.5, -3.0])",
        ),
        (
            umbralqm.infinite_well_spectrum(umbralqm.right(1), 5).levels[0],
            "WellLevel(n=1, momentum=0.7265425280053609, energy=0.5278640450004206, physical=True, convergent=True)",
        ),
        (
            WellLevel(2, math.inf, math.inf, False, False),
            "WellLevel(n=2, momentum=inf, energy=inf, physical=False, convergent=False)",
        ),
        (
            umbralqm.energy_bounds(umbralqm.PhysicalUnits()),
            "EnergyBounds(e_max_time_ev=1.2211724611272867e+28, e_max_space_ev=1.4517535861476757e+50)",
        ),
        (
            umbralqm.check_delta_conditions(umbralqm.DeltaOperator({1: 1, -1: -1}, 2, 1)),
            "DeltaConditionReport(coefficient_sum=Fraction(0, 1), weighted_sum=Fraction(2, 1), normalizer=2)",
        ),
    ]
    for value, text in pins:
        assert repr(value) == text
