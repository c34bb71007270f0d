"""The repository's contracts, each as a check that returns what breaks it.

Static checks read one module's source with :mod:`ast` and return
``(line, scope)`` per offending node. ``scope`` is the qualified name of
the enclosing def (``Scheduler.run_next``) or, at module level, the name
an assignment binds (``_WORKER_ENGINES``); ``(path under src/, scope)`` is
what :data:`EXEMPT` matches. Runtime checks take imported objects. Every
check is proven on a planted violation in ``test_contracts.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
from pathlib import Path

import repro.errors

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Sites allowed to break a static check, with the reason. The clock reads
#: feed readouts and deadlines that no decision or counter reads; the
#: module state is a per-process memo whose cold rebuild is identical.
EXEMPT = {
    ("repro/cli.py", "command_batch"): "the summary line's wall clock",
    ("repro/core/offline.py", "OfflineOptimizer.run"): "OptimizationResult timing",
    ("repro/core/online.py", "OnlineSession._render"): "GraphView.elapsed_seconds",
    ("repro/serve/executors.py", "ProcessExecutor._teardown"): "hung-worker kill deadline",
    ("repro/serve/resilience.py", "TaskDispatcher._collect"): "parallel_seconds",
    ("repro/serve/scheduler.py", "Scheduler.run_next"): "Job.elapsed_seconds",
    ("repro/serve/transport.py", "SegmentLease.__init__"): "leak-reclaim TTL",
    ("repro/serve/transport.py", "SegmentArena.sweep_expired"): "leak-reclaim TTL",
    ("repro/serve/transport.py", "shm_available"): "per-process shm probe",
    ("repro/serve/transport.py", "_tracker_is_private"): "per-process tracker memo",
    ("repro/serve/worker.py", "_WORKER_ENGINES"): "engines keyed by spec content hash",
    ("repro/serve/worker.py", "run_point"): "PointResult.elapsed_seconds",
}

#: The modules a point task drags into a worker process, and the
#: coordinator machinery (live pools, engines, tracers) they must not import.
WORKER = ("serve/worker.py", "serve/faults.py", "serve/transport.py")
COORDINATOR = (
    "repro.serve.service", "repro.serve.scheduler", "repro.serve.resilience",
    "repro.serve.executors", "repro.serve.cache", "repro.api", "repro.obs", "repro.cli",
)

CLOCKS = frozenset(
    "time time_ns monotonic monotonic_ns perf_counter perf_counter_ns "
    "process_time process_time_ns now utcnow today fromtimestamp".split()
)
SEEDABLE = frozenset({"Random", "default_rng", "SeedSequence"})
TAXONOMY = frozenset(
    name for name, value in vars(repro.errors).items()
    if isinstance(value, type) and issubclass(value, repro.errors.ReproError)
)
MUTABLE = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)
TIMING = frozenset({"seconds", "elapsed", "timing", "wall", "duration", "perf"})
#: What normalises an evaluation request; ``ProphetEngine.request`` calls them.
NORMALISERS = frozenset({"validate_sweep_point", "world_ids", "point_key"})


def modules(*names: str) -> list[Path]:
    """The ``.py`` files of the named packages or modules under ``repro``."""
    paths = [SRC / name for name in names]
    return [f for p in paths for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]


def _bound(node: ast.Assign | ast.AnnAssign) -> str:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return ",".join(t.id for t in targets if isinstance(t, ast.Name))


def _scoped(tree: ast.AST, scope: str = ""):
    """Every node below ``tree`` with its scope (see the module docstring)."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}".lstrip(".")
        elif not scope and isinstance(child, (ast.Assign, ast.AnnAssign)):
            inner = _bound(child)
        yield child, inner or "<module>"
        yield from _scoped(child, inner)


def _dotted(node: ast.AST) -> list[str]:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return [node.id] + parts if isinstance(node, ast.Name) else parts


def _last(node: ast.AST) -> str:
    return (_dotted(node) or [""])[-1]


def _calls(source: str):
    for node, scope in _scoped(ast.parse(source)):
        if isinstance(node, ast.Call):
            yield node, _dotted(node.func), scope


def wall_clock(source: str) -> list[tuple[int, str]]:
    """DET001: a clock read (``time.sleep`` only waits; it feeds no value)."""
    return [
        (call.lineno, scope) for call, parts, scope in _calls(source)
        if parts[-2:-1] in (["time"], ["datetime"], ["date"]) and parts[-1] in CLOCKS
    ]


def unseeded_random(source: str) -> list[tuple[int, str]]:
    """DET002: a draw from a global generator, or a generator built unseeded."""
    return [
        (call.lineno, scope) for call, parts, scope in _calls(source)
        if parts[-2:-1] == ["random"]
        and (parts[-1] not in SEEDABLE or not (call.args or call.keywords))
    ]


def request_normalisers(source: str) -> list[tuple[int, str]]:
    """REQ: a call of a request normaliser. The engine normalises a request
    once (``ProphetEngine.request``) and the layers above pass the
    ``Request`` on; a second copy of the rules drifts from the first."""
    return [
        (call.lineno, scope) for call, parts, scope in _calls(source)
        if parts[-1:] and parts[-1] in NORMALISERS
    ]


def untyped_raises(source: str) -> list[tuple[int, str]]:
    """ERR: a raise constructing neither a ``repro.errors`` class nor one this
    module defines; the retry ladder routes failures on that taxonomy."""
    tree = ast.parse(source)
    allowed = TAXONOMY | {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    return [
        (node.lineno, scope) for node, scope in _scoped(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and _last(node.exc.func) not in allowed
    ]


def module_state(source: str) -> list[tuple[int, str]]:
    """PUR001: mutable module-level state, or a ``global`` rebinding."""
    tree = ast.parse(source)
    sites = [(n.lineno, s) for n, s in _scoped(tree) if isinstance(n, ast.Global)]
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or _bound(node).startswith("__"):
            continue
        value = node.value
        if isinstance(value, MUTABLE) or (
            isinstance(value, ast.Call) and _last(value.func) in MUTABLE_CALLS
        ):
            sites.append((node.lineno, _bound(node)))
    return sites


def unfrozen_dataclasses(source: str) -> list[tuple[int, str]]:
    """PUR002: a dataclass a task could mutate in flight (no ``frozen=True``)."""

    def frozen(decorator: ast.AST) -> bool:
        return any(
            k.arg == "frozen" and getattr(k.value, "value", None) is True
            for k in getattr(decorator, "keywords", ())
        )

    return [
        (node.lineno, scope) for node, scope in _scoped(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any(
            _last(getattr(d, "func", d)) == "dataclass" and not frozen(d)
            for d in node.decorator_list
        )
    ]


def forbidden_imports(source: str, forbidden: tuple[str, ...]) -> list[tuple[int, str]]:
    """Layering and PUR003: an import, anywhere in the module, from under a
    forbidden package (``from repro import serve`` names ``repro.serve``)."""
    sites = []
    for node, scope in _scoped(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == f or n.startswith(f + ".") for n in names for f in forbidden):
            sites.append((node.lineno, scope))
    return sites


def unfrozen_sections(sections: dict[str, type]) -> list[str]:
    """CFG: config sections whose default instance accepts a field assignment."""
    offenders = []
    for name, section_type in sections.items():
        section = section_type()
        first = dataclasses.fields(section)[0].name
        try:
            setattr(section, first, getattr(section, first))
        except dataclasses.FrozenInstanceError:
            continue
        offenders.append(name)
    return offenders


def surface_drift(names, snapshot: tuple[str, ...]) -> list[str]:
    """SRF: where an ``__all__`` leaves its sorted, duplicate-free snapshot."""
    assert list(snapshot) == sorted(set(snapshot))
    return [
        f"{index}: {name!r} != {pinned!r}"
        for index, (name, pinned) in enumerate(itertools.zip_longest(names, snapshot))
        if name != pinned
    ]


def timing_keys(payload, prefix: str = "") -> list[str]:
    """STAT: keys anywhere in a counter payload that name a timing value."""
    if isinstance(payload, dict):
        items = payload.items()
    elif isinstance(payload, (list, tuple)):
        items = enumerate(payload)
    else:
        return []
    found = []
    for key, value in items:
        path = f"{prefix}{key}"
        if TIMING & set(str(key).lower().split("_")):
            found.append(path)
        found += timing_keys(value, path + ".")
    return found
