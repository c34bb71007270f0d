"""Layering: the machinery below the serve plane never imports it.

``repro.core`` / ``sqldb`` / ``vg`` / ``dsl`` / ``obs`` are what
``repro.serve`` and ``repro.api`` are built on; an ``import`` the other
way round (at module level or inside a function) makes the lower layer
unusable without the upper one. Docstring cross-references are fine —
only the AST's import nodes are read.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

LOWER_LAYERS = ("core", "sqldb", "vg", "dsl", "obs")
UPPER_LAYERS = ("repro.serve", "repro.api")


def _names(node: ast.AST) -> list[str]:
    """Every dotted module name an import statement could bind."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        # ``from repro import serve`` names the package through the alias.
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def _is_upper(name: str) -> bool:
    return any(name == upper or name.startswith(upper + ".") for upper in UPPER_LAYERS)


def test_lower_layers_do_not_import_serve_or_api():
    modules = [
        path for layer in LOWER_LAYERS for path in sorted((SRC / layer).rglob("*.py"))
    ]
    assert modules
    offenders = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if any(_is_upper(name) for name in _names(node))
    ]
    assert offenders == []
