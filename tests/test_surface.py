"""The library defines no public name that its own code never uses."""

import ast
from pathlib import Path

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
