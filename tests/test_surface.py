"""The library's surface: the names it defines, what importing it loads, and its value types."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weilparity.bounds import full_bounds_report
from weilparity.enumerator import verify_grid, verify_parity_theorem
from weilparity.intpoly import IntPoly
from weilparity.weil import WeilNumberSpec, WeilParams

SRC = Path(__file__).resolve().parent.parent / "src" / "weilparity"


def test_every_public_definition_is_used_in_src():
    # (name, module, top-level statement it sits in) of every name read in src/
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = {
        (node.id if isinstance(node, ast.Name) else node.attr, module, getattr(stmt, "name", None))
        for module, tree in modules.items()
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = sorted(
        stmt.name
        for module, tree in modules.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and not any(
            name == stmt.name and (where, owner) != (module, stmt.name)
            for name, where, owner in uses
        )
    )
    assert not unused, f"public names that nothing in src/ uses: {unused}"


def test_importing_the_cli_loads_no_introspection_modules():
    # every run pays for its imports: dataclasses alone pulls in inspect, ast and dis,
    # no annotation is worth pathlib, and JSON text is written without json
    code = (
        "import sys; before = set(sys.modules); import weilparity.cli; print(sorted("
        "{'ast', 'dataclasses', 'dis', 'inspect', 'json', 'pathlib'}"
        " & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


P5 = dict(p=5, n=1, g=1)
VALUES = [  # (a zero-argument constructor of a value, its repr text)
    (lambda: IntPoly([-1, 0, 1, 0]), "IntPoly(coeffs=(-1, 0, 1))"),
    (lambda: WeilParams(**P5), "WeilParams(p=5, n=1, g=1)"),
    (lambda: WeilNumberSpec(-1, 3), "WeilNumberSpec(q_star_sign=-1, t=3)"),
    (lambda: verify_parity_theorem(WeilParams(**P5)),
     "ParityReport(params=WeilParams(p=5, n=1, g=1), full_degree_specs="
     "(WeilNumberSpec(q_star_sign=-1, t=1), WeilNumberSpec(q_star_sign=1, t=1)), "
     "half_degree_specs=())"),
    (lambda: verify_grid(1, 5, [1]), "GridResult(g_max=1, primes=(2, 3, 5), n_values=(1,))"),
    (lambda: full_bounds_report([5, 0, 1], WeilParams(**P5)),
     "BoundsReport(params=WeilParams(p=5, n=1, g=1), a_values=(0,), archimedean_ok=(True,), "
     "valuation_ok=(True,), lemma_a1_ok=True, symmetric_ok=True)"),
]


@pytest.mark.parametrize("make, text", VALUES, ids=[text.split("(")[0] for _, text in VALUES])
def test_value_types(make, text):
    # repr text, equality and hashing by value, and no assignment, without dataclasses
    value, twin = make(), make()
    assert repr(value) == text
    assert value is not twin and value == twin and hash(value) == hash(twin)
    first_field = text.split("(")[1].split("=")[0]
    for name in (first_field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert repr(value) == text
