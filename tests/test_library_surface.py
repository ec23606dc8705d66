"""The package holds only what its entry points run.

Every top-level function and class in ``src/qfock`` must be reachable by name
from one of three roots: the command-line module ``cli``, the names that
``qfock/__init__.py`` imports, or the scripts in ``scripts/``.  Module-level
statements run on import, so they count as roots too.  Code that only the
tests call belongs in the tests (``dense_oracle.py`` holds the oracles).

Reachability is by name, whatever the module: a def is reached once any
reached body mentions its name as a variable, an attribute or an imported
name.  That over-approximates the call graph, so the check can miss dead
code but never flags live code.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "qfock"

# The level recursion of the S_n sum: ROADMAP item 5 makes it the path of
# `gram`; until then only the tests call it.
EXEMPT = {"pq_recursive"}


def _mentioned(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _surface() -> tuple[dict[str, list[tuple[str, ast.AST]]], set[str]]:
    """Top-level defs by name (with their modules), and the names the roots
    mention."""
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    roots: set[str] = set()
    for path in sorted(PKG.glob("*.py")):
        tree = _parse(path)
        if path.stem == "cli":
            roots |= _mentioned(tree)
        if path.stem == "__init__":
            roots |= {
                a.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module
                for a in node.names
            }
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            else:
                roots |= _mentioned(node)
    for path in sorted((ROOT / "scripts").glob("*.py")):
        roots |= _mentioned(_parse(path))
    return defs, roots


def _reached(defs, roots: set[str]) -> set[str]:
    reached: set[str] = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs[name]:
            todo.extend(n for n in _mentioned(node) if n in defs and n not in reached)
    return reached


def test_every_package_def_is_reachable_from_an_entry_point():
    defs, roots = _surface()
    assert "main" in defs and "constants" in defs  # the roots were found
    reached = _reached(defs, roots | EXEMPT)
    unreached = sorted(
        f"{module}.{name}" for name in set(defs) - reached for module, _ in defs[name]
    )
    assert not unreached, (
        "only the tests call these; move them to tests/dense_oracle.py or give "
        f"them a caller in the package: {unreached}"
    )


def test_exemptions_are_still_needed():
    defs, roots = _surface()
    assert EXEMPT <= set(defs)
    assert not EXEMPT & _reached(defs, roots), "an entry point calls it now; drop the exemption"
