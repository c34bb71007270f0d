"""PUR rules: modules shipped into worker processes must stay pickle-pure.

Shard tasks are pure functions of ``(spec, point, worlds)`` — that purity
is what makes retries, pool healing, inline rescue, and round merging
bit-identical. It survives only if the modules a task pickle drags into a
worker (``repro.serve.worker``, which holds the one task function
``run_shard``; ``repro.serve.faults``, which wraps it under a plan; and
``repro.serve.transport``, whose reader side it imports) carry no hidden
coordinator state:

* no mutable module-level globals (a dict that differs between the
  coordinator and a freshly spawned worker silently changes decisions) —
  deliberate per-process caches are allowed behind a pragma whose
  justification states why cross-process divergence is safe (five today:
  the worker's engine cache, and the transport's shm probe and
  tracker-ownership memo with their rebinds);
* task payload dataclasses must be ``frozen=True`` (a payload mutated en
  route breaks replay identity and hashability);
* no imports of coordinator-only machinery (service, scheduler,
  dispatcher, executors, result cache, observability, the api layer) —
  those hold live engines, pools, and tracers that must never be pickled
  toward a worker.
"""

from __future__ import annotations

import ast

from repro.lint.engine import FileContext, Rule, Violation

#: Modules whose code executes inside worker processes.
WORKER_MODULES: tuple[str, ...] = (
    "repro.serve.worker",
    "repro.serve.faults",
    "repro.serve.transport",
)

#: Coordinator-only modules a worker-shipped module must never import:
#: they hold live pools, engines, caches, and tracers.
COORDINATOR_MODULES: tuple[str, ...] = (
    "repro.serve.service",
    "repro.serve.scheduler",
    "repro.serve.resilience",
    "repro.serve.executors",
    "repro.serve.cache",
    "repro.api",
    "repro.obs",
    "repro.cli",
)

#: Call targets producing mutable containers at module scope.
_MUTABLE_FACTORIES: frozenset[str] = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        return name in _MUTABLE_FACTORIES
    return False


def _in_worker_scope(ctx: FileContext) -> bool:
    return ctx.module_is(*WORKER_MODULES)


class MutableModuleStateRule(Rule):
    """PUR001 — mutable module-level state in a worker-shipped module."""

    rule_id = "PUR001"
    name = "worker-module-purity"
    rationale = (
        "Module globals diverge between coordinator and workers; any "
        "mutable module state in a worker-shipped module must be a "
        "documented per-process cache (pragma) or per-task state."
    )

    def check_file(self, ctx: FileContext) -> list[Violation]:
        if not _in_worker_scope(ctx):
            return []
        violations: list[Violation] = []
        for node in ctx.tree.body:
            targets: list[ast.AST] = []
            value: ast.AST | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _is_mutable_value(value):
                continue
            plain = [t.id for t in targets if isinstance(t, ast.Name)]
            # Dunder metadata (__all__ and friends) is interpreter protocol,
            # not shared program state.
            if plain and all(n.startswith("__") and n.endswith("__") for n in plain):
                continue
            names = ", ".join(plain) or "<target>"
            violations.append(
                self.violation(
                    ctx,
                    node,
                    f"mutable module-level state {names!r} in worker-shipped "
                    f"module {ctx.module}",
                )
            )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        f"module-global rebinding of {', '.join(node.names)!r} "
                        f"in worker-shipped module {ctx.module}",
                    )
                )
        return violations


class FrozenPayloadRule(Rule):
    """PUR002 — task payload dataclasses must be frozen (pickle-safe)."""

    rule_id = "PUR002"
    name = "frozen-task-payloads"
    rationale = (
        "Payloads crossing the process boundary must be immutable: a "
        "mutated payload breaks replay identity, content hashing, and "
        "the retry ladder's bit-identity guarantee."
    )

    def check_file(self, ctx: FileContext) -> list[Violation]:
        if not _in_worker_scope(ctx):
            return []
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Name) and decorator.id == "dataclass":
                    violations.append(
                        self.violation(
                            ctx,
                            node,
                            f"dataclass {node.name!r} in worker-shipped module "
                            f"must be @dataclass(frozen=True)",
                        )
                    )
                elif (
                    isinstance(decorator, ast.Call)
                    and isinstance(decorator.func, ast.Name)
                    and decorator.func.id == "dataclass"
                ):
                    frozen = any(
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in decorator.keywords
                    )
                    if not frozen:
                        violations.append(
                            self.violation(
                                ctx,
                                node,
                                f"dataclass {node.name!r} in worker-shipped "
                                f"module must be @dataclass(frozen=True)",
                            )
                        )
        return violations


class CoordinatorImportRule(Rule):
    """PUR003 — worker-shipped modules must not import coordinator-only code."""

    rule_id = "PUR003"
    name = "no-coordinator-imports"
    rationale = (
        "Service, scheduler, dispatcher, executors, cache, obs, and api "
        "hold live pools/engines/tracers; importing them from a "
        "worker-shipped module drags coordinator state toward the pickle "
        "boundary."
    )

    def check_file(self, ctx: FileContext) -> list[Violation]:
        if not _in_worker_scope(ctx):
            return []
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            modules: list[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                banned = next(
                    (
                        target
                        for target in COORDINATOR_MODULES
                        if module == target or module.startswith(target + ".")
                    ),
                    None,
                )
                if banned is not None:
                    violations.append(
                        self.violation(
                            ctx,
                            node,
                            f"worker-shipped module {ctx.module} imports "
                            f"coordinator-only module {module}",
                        )
                    )
        return violations
