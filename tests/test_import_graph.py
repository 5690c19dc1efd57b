"""The two validity routes share only the spec.  Read with `ast`, never
imported: every package-relative import of every module under
`viprcert`, at the top level or inside a function, is an edge, and the
modules each one reaches must keep the native check (`checker`,
`algebra`) and the SMT route (`smtgen`, `smteval`) apart.  The same
trees show dead names: an import no module uses, or a private top-level
name nothing else in the package reads.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import viprcert

_PACKAGE = Path(viprcert.__file__).resolve().parent
NATIVE = {"checker", "algebra"}
SMT = {"smtgen", "smteval"}


def _imports(path: Path) -> set[str]:
    """The package modules that the module at `path` imports."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                modules.add(node.module.split(".")[0])
            else:  # `from . import name`
                modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("viprcert."):
            modules.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            modules.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("viprcert.")
            )
    return modules


GRAPH = {path.stem: _imports(path) for path in _PACKAGE.glob("*.py") if path.stem != "__init__"}


def reach(module: str) -> set[str]:
    """Every package module that importing `module` loads, itself excluded."""
    seen: set[str] = set()
    todo = [module]
    while todo:
        for imported in GRAPH[todo.pop()] - seen:
            seen.add(imported)
            todo.append(imported)
    return seen - {module}


def test_the_graph_covers_every_module():
    assert {"spec", "checker", "algebra", "smtgen", "smteval", "cli"} <= set(GRAPH)
    assert all(imported in GRAPH for imports in GRAPH.values() for imported in imports)


def test_the_spec_reaches_neither_route():
    assert not reach("spec") & (NATIVE | SMT | {"cli"})


def test_the_smt_route_reaches_no_native_check():
    for module in SMT:
        assert not reach(module) & NATIVE, module


def test_the_native_check_reaches_no_smt_route():
    for module in NATIVE:
        assert not reach(module) & SMT, module


def test_the_evaluator_reaches_at_most_rational():
    assert reach("smteval") <= {"rational"}


def test_no_module_changes_the_interpreters_digit_limit():
    """Literals of any length are converted by `rational.read_int` and
    `write_int`; nothing in the package sets the process-wide limit."""
    for path in _PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            assert "set_int_max_str_digits" not in names, f"{path.name}:{node.lineno}"


# --- no dead names ------------------------------------------------------------

TREES = {
    path.stem: ast.parse(path.read_text(), filename=str(path)) for path in _PACKAGE.glob("*.py")
}


def _read_names(tree: ast.AST) -> set[str]:
    """The names `tree` reads: each loaded name, attribute and imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _defined(statement: ast.stmt) -> set[str]:
    """The names a top-level statement binds by `def`, `class` or assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = getattr(statement, "targets", None) or [getattr(statement, "target", ast.Pass())]
    return {
        node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)
    }


def test_every_imported_name_is_used():
    """A module's `__all__` counts as a use; `from __future__` is exempt."""
    unused = []
    for module, tree in TREES.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {
            constant.value
            for statement in tree.body
            if "__all__" in _defined(statement)
            for constant in ast.walk(statement)
            if isinstance(constant, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{module}.py:{node.lineno} {name}")
    assert unused == []


def test_every_private_top_level_name_is_read_elsewhere():
    """Read by another top-level statement of the package than the one
    that defines it, so a helper that only calls itself counts as dead
    too.  Dunders are exempt."""
    statements = [(module, s) for module, tree in TREES.items() for s in tree.body]
    reads = [_read_names(statement) for _, statement in statements]
    readers = Counter(name for names in reads for name in names)
    unread = [
        f"{module}.{name}"
        for (module, statement), names in zip(statements, reads)
        for name in sorted(_defined(statement))
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
        and readers[name] == (name in names)  # no statement but its own reads it
    ]
    assert unread == []
