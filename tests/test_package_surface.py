"""The package holds run-path code only.

Every top-level function and class under ``src/qebsdej`` must be reachable
from module-level code (the CLI entry point, preset and runner tables,
constants) through references by name.  A definition whose only callers are
tests, or other such definitions, belongs in ``tests/references.py``.
``__init__.py`` re-exports names and is not a caller.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "qebsdej"


def _names(nodes) -> set:
    """Every name a node refers to, bare or as an attribute."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def test_every_definition_is_reached_from_module_level_code():
    defs, module_level = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = (path.name, node)
            else:
                module_level.append(node)
    reached, frontier = set(), _names(module_level)
    while new := (frontier & defs.keys()) - reached:
        reached |= new
        frontier = _names(defs[name][1] for name in new)
    unreached = sorted(f"{defs[name][0]}:{name}" for name in defs.keys() - reached)
    assert not unreached, f"definitions without a caller in the package: {unreached}"
