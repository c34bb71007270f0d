"""CFG rules: every ClientConfig section is frozen, validated, round-tripped
— and every knob is declared on exactly one section.

The layered client configuration only works because each section dataclass
is immutable (safe to share, hash, and replace), validates at construction
(a typo raises at the config boundary, not deep in the engine), and rides
the ``from_mapping``/``to_mapping`` round-trip (config files and service
payloads reconstruct the exact object). These rules read the
``_SECTIONS`` registry out of ``repro.api.config`` statically and check
every registered section class — wherever in the tree it is defined —
against that contract, plus the registry's own consistency with
``ClientConfig``'s fields. CFG004 guards the single declaration: a
``*Config`` dataclass that is not a registered section may group sections
(``ClientConfig``, ``EngineConfig``) but may not re-declare a section's
field — the flat engine config the sections replaced would fail here.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint.engine import ProjectContext, Rule, Violation

#: The module holding the section registry and the composed config.
CONFIG_MODULE = "repro.api.config"


def _sections_registry(tree: ast.Module) -> Optional[tuple[ast.AST, dict[str, str]]]:
    """The ``_SECTIONS`` dict literal: section name -> section class name."""
    for node in tree.body:
        targets = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if "_SECTIONS" not in names or not isinstance(value, ast.Dict):
            continue
        mapping: dict[str, str] = {}
        for key, val in zip(value.keys, value.values):
            if isinstance(key, ast.Constant) and isinstance(val, ast.Name):
                mapping[key.value] = val.id
        return node, mapping
    return None


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "dataclass":
            return decorator
        if (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Name)
            and decorator.func.id == "dataclass"
        ):
            return decorator
    return None


def _is_frozen(decorator: ast.AST) -> bool:
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "frozen"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in decorator.keywords
    )


def _methods(node: ast.ClassDef) -> set[str]:
    return {
        item.name
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _field_names(node: ast.ClassDef) -> list[str]:
    names: list[str] = []
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.append(item.target.id)
    return names


class ConfigSectionContractRule(Rule):
    """CFG001-CFG004 — frozen, validated, registered, singly-declared."""

    rule_id = "CFG001"
    name = "frozen-config-sections"
    rationale = (
        "Config sections are shared, hashed, and replace()d; a mutable or "
        "unvalidated section defers failures deep into the engine."
    )

    #: Companion ids this rule emits (one module, three invariants).
    VALIDATION_ID = "CFG002"
    REGISTRY_ID = "CFG003"
    DECLARATION_ID = "CFG004"

    def check_project(self, project: ProjectContext) -> list[Violation]:
        config_ctx = project.find(CONFIG_MODULE)
        if config_ctx is None:
            return []
        found = _sections_registry(config_ctx.tree)
        violations: list[Violation] = []
        if found is None:
            violations.append(
                self.violation(
                    config_ctx,
                    config_ctx.tree,
                    "_SECTIONS registry (name -> section class dict literal) "
                    "not found",
                )
            )
            return violations
        registry_node, registry = found
        section_fields: set[str] = set()

        for section_name, class_name in registry.items():
            located = project.class_def(class_name)
            if located is None:
                violations.append(
                    Violation(
                        file=config_ctx.rel,
                        line=registry_node.lineno,
                        rule_id=self.REGISTRY_ID,
                        message=(
                            f"section {section_name!r} maps to {class_name}, "
                            f"which is not defined in the linted tree"
                        ),
                    )
                )
                continue
            ctx, node = located
            section_fields.update(_field_names(node))
            decorator = _dataclass_decorator(node)
            if decorator is None or not _is_frozen(decorator):
                violations.append(
                    Violation(
                        file=ctx.rel,
                        line=node.lineno,
                        rule_id=self.rule_id,
                        message=(
                            f"config section {class_name} must be "
                            f"@dataclass(frozen=True)"
                        ),
                    )
                )
            if "__post_init__" not in _methods(node):
                violations.append(
                    Violation(
                        file=ctx.rel,
                        line=node.lineno,
                        rule_id=self.VALIDATION_ID,
                        message=(
                            f"config section {class_name} has no __post_init__ "
                            f"construction-time validation"
                        ),
                    )
                )

        # CFG004: any other *Config dataclass may group registered sections
        # but must not carry a section's knob under its own declaration.
        section_classes = set(registry.values())
        for ctx in project.files:
            for node in ctx.tree.body:
                if not (
                    isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config")
                    and node.name not in section_classes
                    and _dataclass_decorator(node) is not None
                ):
                    continue
                grouping = all(
                    isinstance(item.annotation, ast.Name)
                    and item.annotation.id in section_classes
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                )
                redeclared = sorted(set(_field_names(node)) & section_fields)
                if redeclared and not grouping:
                    violations.append(
                        Violation(
                            file=ctx.rel,
                            line=node.lineno,
                            rule_id=self.DECLARATION_ID,
                            message=(
                                f"{node.name} re-declares section field(s) "
                                f"{redeclared}; hold the registered section "
                                f"objects instead of copying their knobs"
                            ),
                        )
                    )

        client = project.class_def("ClientConfig")
        if client is None:
            violations.append(
                Violation(
                    file=config_ctx.rel,
                    line=registry_node.lineno,
                    rule_id=self.REGISTRY_ID,
                    message="ClientConfig class not found in the linted tree",
                )
            )
            return violations
        client_ctx, client_node = client
        fields = [
            name for name in _field_names(client_node) if name in registry
        ]
        if fields != list(registry):
            violations.append(
                Violation(
                    file=client_ctx.rel,
                    line=client_node.lineno,
                    rule_id=self.REGISTRY_ID,
                    message=(
                        f"ClientConfig section fields {fields} do not match "
                        f"the _SECTIONS registry {list(registry)} (same names, "
                        f"same order)"
                    ),
                )
            )
        missing_fields = [
            name for name in registry if name not in _field_names(client_node)
        ]
        for name in missing_fields:
            violations.append(
                Violation(
                    file=client_ctx.rel,
                    line=client_node.lineno,
                    rule_id=self.REGISTRY_ID,
                    message=f"ClientConfig has no field for section {name!r}",
                )
            )
        methods = _methods(client_node)
        for required in ("from_mapping", "to_mapping"):
            if required not in methods:
                violations.append(
                    Violation(
                        file=client_ctx.rel,
                        line=client_node.lineno,
                        rule_id=self.REGISTRY_ID,
                        message=(
                            f"ClientConfig must define {required}() so every "
                            f"section round-trips through mappings"
                        ),
                    )
                )
        return violations
