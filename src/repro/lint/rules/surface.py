"""SRF rules: the public surface matches its committed snapshot, statically.

``tests/api/test_surface.py`` pins ``repro.api.__all__`` (and
``repro.serve.__all__``) to explicit snapshot tuples at *runtime*; this
rule enforces the same contract without importing anything, so an export
drift fails ``repro lint`` even before the test suite runs. It parses the
snapshot tuples out of the fixture and the literal ``__all__`` lists out of
the package ``__init__`` files, and additionally requires the two snapshot
-pinned ``__all__`` lists to be sorted and duplicate-free (order is part of
the published surface). The top-level ``repro/__init__.py`` adds the DSL
front door and ``__version__``, so it is checked as a superset: every
``repro.api`` export must be re-exported at top level.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

from repro.lint.engine import ProjectContext, Rule, Violation

#: The runtime fixture the static check mirrors, relative to the repo root.
SNAPSHOT_FIXTURE = Path("tests") / "api" / "test_surface.py"

#: Snapshot variable -> the module whose ``__all__`` it pins.
SNAPSHOT_MODULES: dict[str, str] = {
    "SURFACE_SNAPSHOT": "repro.api",
    "SERVE_SURFACE_SNAPSHOT": "repro.serve",
}

#: The module whose ``__all__`` must be a superset of SURFACE_SNAPSHOT.
TOP_LEVEL_MODULE = "repro"


def _string_elements(node: ast.AST) -> Optional[list[str]]:
    """The literal string elements of a list/tuple display (Starred and
    non-string elements are skipped, reported as None only when the node
    is not a display at all)."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    return [
        element.value
        for element in node.elts
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    ]


def _assigned_literal(tree: ast.Module, name: str) -> Optional[ast.AST]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == name:
                return node.value
    return None


class PublicSurfaceRule(Rule):
    """SRF001/SRF002 — ``__all__`` vs snapshot, sortedness, duplicates."""

    rule_id = "SRF001"
    name = "public-surface-snapshot"
    rationale = (
        "The exported surface is an API decision; changing __all__ must "
        "be deliberate (update the snapshot in the same commit)."
    )

    ORDER_ID = "SRF002"

    def check_project(self, project: ProjectContext) -> list[Violation]:
        violations: list[Violation] = []
        snapshots = self._load_snapshots(project)
        for ctx in project.files:
            if ctx.module not in set(SNAPSHOT_MODULES.values()) | {TOP_LEVEL_MODULE}:
                continue
            literal = _assigned_literal(ctx.tree, "__all__")
            if literal is None:
                violations.append(
                    self.violation(
                        ctx, ctx.tree, f"{ctx.module} defines no literal __all__"
                    )
                )
                continue
            names = _string_elements(literal)
            if names is None:
                violations.append(
                    self.violation(
                        ctx,
                        literal,
                        f"{ctx.module}.__all__ is not a list/tuple literal",
                    )
                )
                continue
            if ctx.module == TOP_LEVEL_MODULE:
                violations.extend(self._check_top_level(ctx, literal, names, snapshots))
            else:
                violations.extend(
                    self._check_pinned(ctx, literal, names, snapshots)
                )
        return violations

    # -- per-module checks ---------------------------------------------------

    def _check_pinned(self, ctx, literal, names, snapshots) -> list[Violation]:
        violations: list[Violation] = []
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            violations.append(
                Violation(
                    file=ctx.rel,
                    line=literal.lineno,
                    rule_id=self.ORDER_ID,
                    message=f"{ctx.module}.__all__ has duplicates: {duplicates}",
                )
            )
        if names != sorted(names):
            violations.append(
                Violation(
                    file=ctx.rel,
                    line=literal.lineno,
                    rule_id=self.ORDER_ID,
                    message=f"{ctx.module}.__all__ is not sorted",
                )
            )
        snapshot_name = next(
            (key for key, mod in SNAPSHOT_MODULES.items() if mod == ctx.module), None
        )
        snapshot = snapshots.get(snapshot_name) if snapshot_name else None
        if snapshot is not None:
            if tuple(sorted(names)) != tuple(sorted(snapshot)):
                missing = sorted(set(snapshot) - set(names))
                extra = sorted(set(names) - set(snapshot))
                violations.append(
                    self.violation(
                        ctx,
                        literal,
                        f"{ctx.module}.__all__ does not match {snapshot_name} "
                        f"(missing: {missing or '[]'}, unexpected: "
                        f"{extra or '[]'})",
                    )
                )
        return violations

    def _check_top_level(self, ctx, literal, names, snapshots) -> list[Violation]:
        snapshot = snapshots.get("SURFACE_SNAPSHOT")
        if snapshot is None:
            return []
        missing = sorted(set(snapshot) - set(names))
        if missing:
            return [
                self.violation(
                    ctx,
                    literal,
                    f"repro.__all__ must re-export the full repro.api surface; "
                    f"missing: {missing}",
                )
            ]
        return []

    # -- snapshot fixture ----------------------------------------------------

    def _load_snapshots(
        self, project: ProjectContext
    ) -> dict[str, tuple[str, ...]]:
        if project.repo_root is None:
            return {}
        fixture = project.repo_root / SNAPSHOT_FIXTURE
        if not fixture.exists():
            return {}
        tree = ast.parse(fixture.read_text(encoding="utf-8"))
        snapshots: dict[str, tuple[str, ...]] = {}
        for name in SNAPSHOT_MODULES:
            literal = _assigned_literal(tree, name)
            if literal is not None:
                names = _string_elements(literal)
                if names is not None:
                    snapshots[name] = tuple(names)
        return snapshots
