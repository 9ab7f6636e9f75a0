"""The library's surface: the names it defines, what importing it loads, and its value types."""

import ast
import os
import pickle
import subprocess
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

from weilparity.bounds import full_bounds_report
from weilparity.enumerator import verify_parity_theorem
from weilparity.weil import WeilNumberSpec, WeilParams

SRC = Path(__file__).resolve().parent.parent / "src" / "weilparity"


def src_definitions():
    """(definitions, reads) of src/: each module-level function, class and constant, as
    (name, defining statement), and each name read, as (name, top-level statement it sits in)."""
    statements = [
        stmt for path in sorted(SRC.glob("*.py")) for stmt in ast.parse(path.read_text()).body
    ]
    definitions = [
        (node.id, stmt)
        for stmt in statements
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    ]
    definitions += [
        (stmt.name, stmt) for stmt in statements if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    ]
    reads = {
        (node.id if isinstance(node, ast.Name) else node.attr, id(stmt))
        for stmt in statements
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return definitions, reads


def unread(definitions, reads):
    """The names of ``definitions`` that src/ reads nowhere but in their own statement."""
    return sorted(
        name for name, stmt in definitions
        if not any(used == name and where != id(stmt) for used, where in reads)
    )


def test_every_public_definition_is_used_in_src():
    definitions, reads = src_definitions()
    public = [
        (name, stmt) for name, stmt in definitions
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_")
    ]
    unused = unread(public, reads)
    assert not unused, f"public names that nothing in src/ uses: {unused}"


def test_every_private_definition_is_read_in_src():
    # a private function, class or constant that nothing reads is dead code;
    # dunder names (__all__, __getattr__, ...) are read by the interpreter
    definitions, reads = src_definitions()
    private = [
        (name, stmt) for name, stmt in definitions
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]
    assert len(private) > 30  # the walk sees the modules' definitions
    unused = unread(private, reads)
    assert not unused, f"private names that nothing in src/ reads: {unused}"


def name_reads(tree) -> Counter:
    """How often each name is read in ``tree``: as a loaded name or as any attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    )


def test_every_class_member_is_read_in_src():
    # a method or property of a src/ class that nothing in src/ reads, outside
    # its own body, is dead code; dunders are read by the interpreter, and a
    # name a base class defines (the _make overrides) is read through the base
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = sum(map(name_reads, trees.values()), Counter())
    members = [
        (f"{cls.name}.{node.name}", node)
        for stem, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(
            hasattr(base, node.name)
            for base in getattr(import_module(f"weilparity.{stem}"), cls.name).__mro__[1:]
        )
    ]
    assert len(members) >= 4  # the walk sees the classes' members
    unused = sorted(
        name for name, node in members
        if reads[node.name] == name_reads(node)[node.name]
    )
    assert not unused, f"class members that nothing in src/ reads: {unused}"


def run_bare(code: str, *args: str) -> str:
    """The stdout of ``code`` run with ``args`` by a fresh interpreter without ``site``."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout


def test_importing_the_cli_loads_no_introspection_modules():
    # every run pays for its imports: dataclasses alone pulls in inspect, ast and dis,
    # no annotation is worth pathlib, JSON text is written without json, and the
    # command line is parsed without argparse (and the gettext it loads)
    code = (
        "import sys; before = set(sys.modules); import weilparity.cli; print(sorted("
        "{'argparse', 'ast', 'dataclasses', 'dis', 'gettext', 'inspect', 'json', 'pathlib'}"
        " & (set(sys.modules) - before)))"
    )
    assert run_bare(code) == "[]\n"


CYCLO_LAYERS = {"cyclotomic", "errors"}
ENUMERATOR_LAYERS = {*CYCLO_LAYERS, "weil", "enumerator"}
PRODUCT_LAYERS = {*ENUMERATOR_LAYERS, "intpoly"}  # only candidate_shapes multiplies
LOADS = {  # argv -> the package modules its run loads besides the root and cli; "@" is a file
    ("--help",): set(),
    ("cyclo", "12"): CYCLO_LAYERS,
    ("minpoly", "--p", "5", "--n", "1", "--sign", "+", "--t", "3"): {*CYCLO_LAYERS, "weil"},
    ("enumerate", "--g", "2", "--p", "7", "--n", "1"): PRODUCT_LAYERS,
    ("verify", "--gmax", "1", "--pmax", "7", "--n", "1"): ENUMERATOR_LAYERS,
    ("verify", "--gmax", "1", "--pmax", "7", "--n", "1", "--format", "structured"): PRODUCT_LAYERS,
    ("detect-half", "--g", "2", "--p", "3", "--n", "1"): ENUMERATOR_LAYERS,
    ("bounds", "--g", "1", "--p", "5", "--n", "1", "--file", "@"):
        {*CYCLO_LAYERS, "weil", "bounds"},
}


@pytest.mark.parametrize("argv", LOADS, ids=" ".join)
def test_a_run_loads_only_the_layers_of_its_subcommand(tmp_path, argv):
    # a call compiles and runs each module it imports, so it imports no layer it does not use
    (tmp_path / "polys.txt").write_text("5 0 1\n")
    args = [str(tmp_path / "polys.txt") if a == "@" else a for a in argv]
    code = (
        "import sys, weilparity.cli; code = weilparity.cli.run(sys.argv[1:]); print(code, sorted("
        "m for m in sys.modules if m.startswith('weilparity') or m in ('argparse', 'gettext')))"
    )
    loaded = ["weilparity", "weilparity.cli", *(f"weilparity.{m}" for m in LOADS[argv])]
    assert run_bare(code, *args).splitlines()[-1] == f"0 {sorted(loaded)}"


EXITS = {  # argv -> its exit code: each run of LOADS, and argvs that argparse once read
    **dict.fromkeys(LOADS, 0),
    ("verify", "--g", "1", "--p", "7", "--n", "1"): 2,  # a flag prefix
    ("-hh",): 2,
    ("cyclo", "abc"): 2,
    ("verify", "--gmax=1", "--pmax=7", "--n=1"): 0,
}


@pytest.mark.parametrize("argv", EXITS, ids=" ".join)
def test_a_run_loads_no_heavy_stdlib_module(tmp_path, argv):
    # value types are collections.namedtuple, annotations need no typing (and so no re,
    # enum or contextlib), every argv is read without argparse, JSON is written without json
    (tmp_path / "polys.txt").write_text("5 0 1\n")
    args = [str(tmp_path / "polys.txt") if a == "@" else a for a in argv]
    code = (
        "import sys, weilparity.cli; code = weilparity.cli.run(sys.argv[1:]); print(code, sorted("
        "{'argparse', 'contextlib', 'dataclasses', 'enum', 'json', 're', 'typing'} & set(sys.modules)))"
    )
    assert run_bare(code, *args).splitlines()[-1] == f"{EXITS[argv]} []"


def test_library_polynomials_are_plain_tuples():
    # every polynomial the library hands out is its ascending coefficients
    from weilparity.cyclotomic import cyclotomic, cyclotomic_radical
    from weilparity.enumerator import candidate_shapes
    from weilparity.weil import minpoly_full_degree, minpoly_shape

    values = [cyclotomic(12), cyclotomic_radical(12)[0], minpoly_shape(1, 3),
              minpoly_full_degree(WeilParams(5, 1, 1), 1, 3)]
    for g in (1, 4):
        specs = verify_parity_theorem(WeilParams(p=11, n=1, g=g)).full_degree_specs
        values += [shape for shape, _ in candidate_shapes(g, specs)]
    assert len(values) > 10 and all(type(value) is tuple for value in values)


def test_only_candidate_shapes_multiplies():
    # outside intpoly.py, IntPoly and .coeffs are named only inside candidate_shapes
    for path in sorted(SRC.glob("*.py")):
        if path.name == "intpoly.py":
            continue
        tree = ast.parse(path.read_text())
        inside = {
            id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "candidate_shapes"
            for node in ast.walk(fn)
        }
        uses = [
            node.lineno for node in ast.walk(tree)
            if id(node) not in inside and (
                isinstance(node, ast.Name) and node.id == "IntPoly"
                or isinstance(node, ast.alias) and node.name == "IntPoly"
                or isinstance(node, ast.Attribute) and node.attr == "coeffs")
        ]
        assert not uses, (path.name, uses)


def test_importing_the_package_runs_no_layer():
    code = "import sys, weilparity; print(sorted(m for m in sys.modules if 'weilparity' in m))"
    assert run_bare(code) == "['weilparity']\n"


def test_the_root_loads_each_entry_point_from_its_submodule():
    # the names are loaded on first access, each the object its submodule defines
    import weilparity
    from weilparity import bounds, enumerator, weil

    homes = {
        "BoundsReport": bounds, "ParityReport": enumerator,
        "WeilParams": weil, "full_bounds_report": bounds, "minpoly_full_degree": weil,
        "verify_grid": enumerator, "verify_parity_theorem": enumerator,
    }
    assert weilparity.__all__ == sorted(homes)
    for name, module in homes.items():
        assert getattr(weilparity, name) is getattr(module, name)
    assert set(weilparity.__all__) <= set(dir(weilparity))
    assert {"bounds", "cli", "__version__"} <= set(dir(weilparity))
    with pytest.raises(AttributeError, match="no_such_name"):
        weilparity.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from weilparity import no_such_name  # noqa: F401


P5 = dict(p=5, n=1, g=1)
FIELDS = {
    "WeilParams": ("p", "n", "g"),
    "WeilNumberSpec": ("q_star_sign", "t"),
    "ParityReport": ("params", "full_degree_specs", "half_degree_specs"),
    "BoundsReport": (
        "params", "a_values", "archimedean_ok", "valuation_ok", "lemma_a1_ok", "symmetric_ok",
    ),
}
VALUES = [  # (a zero-argument constructor of a value, its repr text)
    (lambda: WeilParams(**P5), "WeilParams(p=5, n=1, g=1)"),
    (lambda: WeilNumberSpec(-1, 3), "WeilNumberSpec(q_star_sign=-1, t=3)"),
    (lambda: verify_parity_theorem(WeilParams(**P5)),
     "ParityReport(params=WeilParams(p=5, n=1, g=1), full_degree_specs="
     "(WeilNumberSpec(q_star_sign=-1, t=1), WeilNumberSpec(q_star_sign=1, t=1)), "
     "half_degree_specs=())"),
    (lambda: full_bounds_report([5, 0, 1], WeilParams(**P5)),
     "BoundsReport(params=WeilParams(p=5, n=1, g=1), a_values=(0,), archimedean_ok=(True,), "
     "valuation_ok=(True,), lemma_a1_ok=True, symmetric_ok=True)"),
]


@pytest.mark.parametrize("make, text", VALUES, ids=[text.split("(")[0] for _, text in VALUES])
def test_value_types(make, text):
    # repr text, equality and hashing by value, and no assignment, without dataclasses;
    # named tuples: fields in order, built by position or keyword, equal to the plain
    # tuple, pickled as themselves, no instance dict, and _replace and _make keep the type
    value, twin = make(), make()
    assert repr(value) == text
    assert value is not twin and value == twin and hash(value) == hash(twin)
    first_field = text.split("(")[1].split("=")[0]
    for name in (first_field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert repr(value) == text
    cls = type(value)
    assert cls._fields == FIELDS[cls.__name__]
    assert cls(*value) == value == cls(**dict(zip(cls._fields, value)))
    plain = tuple(value)
    assert type(plain) is tuple and value == plain and plain == value
    assert hash(value) == hash(plain)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value and repr(copy) == text
    assert not hasattr(value, "__dict__")
    for same in (value._replace(), cls._make(plain)):
        assert type(same) is cls and same == value
