"""The package holds run-path code only.

Every top-level function and class under ``src/qebsdej`` must be reachable
from module-level code (the CLI entry point, preset and runner tables,
constants) through references by name.  A definition whose only callers are
tests, or other such definitions, belongs in ``tests/references.py``.
``__init__.py`` re-exports names and is not a caller.

Every parameter of a top-level function or of a class method is read by its
body.  Nested functions such as a driver's ``f_hat(y, z)`` follow an
interface and are not checked.

Every annotated field of a class is loaded as an attribute somewhere in the
package, matched by name: a field that only tests read is not stored.
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


def _functions(tree):
    """Top-level functions and the methods of top-level classes."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        yield from (m for m in members if isinstance(m, ast.FunctionDef))


def test_every_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in _functions(ast.parse(path.read_text())):
            args = func.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            named = {sub.id for sub in ast.walk(ast.Module(func.body, []))
                     if isinstance(sub, ast.Name)}
            unread += [f"{path.name}:{func.name}({name})" for name in params
                       if name not in ("self", "cls") and name not in named]
    assert not unread, f"parameters the body never reads: {unread}"


def test_every_field_is_read():
    fields, loaded = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        fields += [(path.name, node.name, item.target.id)
                   for node in tree.body if isinstance(node, ast.ClassDef)
                   for item in node.body
                   if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
        loaded |= {sub.attr for sub in ast.walk(tree)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    unread = [f"{module}:{cls}.{name}" for module, cls, name in fields if name not in loaded]
    assert not unread, f"fields no package code reads: {unread}"


def _is_last_axis_sum(call: ast.Call) -> bool:
    """Whether ``call`` is ``<expr>.sum(-1)`` or ``<expr>.sum(axis=-1)``."""
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "sum"):
        return False
    axes = [*call.args[:1], *(kw.value for kw in call.keywords if kw.arg == "axis")]
    return any(isinstance(axis, ast.UnaryOp) and isinstance(axis.op, ast.USub)
               and isinstance(axis.operand, ast.Constant) and axis.operand.value == 1
               for axis in axes)


def test_row_sums_over_the_nodes_go_through_nu_dot():
    # a row sum over the last axis takes NumPy's layout-dependent order;
    # levy.nu_dot alone fixes it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {id(sub) for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and (path.name, node.name) == ("levy.py", "nu_dot")
                  for sub in ast.walk(node)}
        found += [f"{path.name}:{sub.lineno}" for sub in ast.walk(tree)
                  if isinstance(sub, ast.Call) and id(sub) not in exempt
                  and _is_last_axis_sum(sub)]
    assert not found, f"row sums outside levy.nu_dot: {found}"
