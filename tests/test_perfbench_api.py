"""The benchmark's in-process tracer (`perfbench/layers.py`) calls the
package's public functions directly.  Its source is read here with `ast`,
never imported or run, and every name it imports from `viprcert`, every
attribute it reads from one of them and every call it makes to one of
them must still resolve and bind, so `run.py --trace 1` keeps working.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

_LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _imported_names(tree: ast.Module) -> dict[str, object]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("viprcert"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _resolve(node: ast.expr, names: dict[str, object]):
    """The package object a `name` or `name.attr` expression denotes, or
    None for anything else."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        owner = names.get(node.value.id)
        if owner is not None:
            assert hasattr(owner, node.attr), f"{node.value.id}.{node.attr}"
            return getattr(owner, node.attr)
    return None


def test_the_tracer_uses_only_names_the_package_still_has():
    tree = ast.parse(_LAYERS_PATH.read_text(), filename=str(_LAYERS_PATH))
    names = _imported_names(tree)
    assert {"parse_certificate", "der_violation", "emit", "dispatch"} <= set(names)
    calls = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _resolve(node, names)
        if not isinstance(node, ast.Call):
            continue
        target = _resolve(node.func, names)
        if target is None or not callable(target):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        # the same number of positional arguments and the same keywords bind
        inspect.signature(target).bind(*node.args, **{k.arg: None for k in node.keywords})
        calls += 1
    assert calls >= 10
