"""Spans recorded from outside the program, for the traced pass.

The ledger touches ``src/`` nowhere: per-layer times come from wrapping the
public entry points of each layer — at class or module level, from this
file — for the length of one traced repeat, and restoring them afterwards
even when the workload raises. A span is ``(name, start, end, parent id,
operation id)``; span names are ``<layer>:<function>`` with the layer being
the module name. Spans stay in memory and are written out as Chrome-trace
JSON when the pass ends.

A layer's *self time* is a span's duration minus the part of it that its
child spans cover. Worker processes cannot be wrapped from outside (the
wrappers step aside when the pid differs); their time comes from the
program's own ``TimingReport.worker_seconds``.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import sys
import time
from typing import Any, Callable, Iterator, Optional

#: Span fields, by index.
NAME, START, END, PARENT, OP, ASYNC = range(6)


class Recorder:
    """In-memory span store with a parent stack for the calling thread."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.tallies: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = -1
        self.pid = os.getpid()

    def begin(self, index: int) -> None:
        """Mark the operation that the following spans belong to."""
        self._op = index

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op, False])
        span_id = len(self.spans) - 1
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][END] = time.perf_counter()
        # A wrapper that raised past inner spans still unwinds in order.
        while self._stack and self._stack.pop() != span_id:
            pass

    @contextlib.contextmanager
    def section(self, name: str) -> Iterator[None]:
        """A span around a block of the harness's own code."""
        span_id = self.open(name)
        try:
            yield
        finally:
            self.close(span_id)

    def add_async(self, name: str, start: float, end: float, parent: int) -> None:
        """A span that ran beside its parent (a future in flight)."""
        self.spans.append([name, start, end, parent, self._op, True])

    def tally(self, key: str, value: float, *, peak: bool = False) -> None:
        current = self.tallies.get(key, 0.0)
        self.tallies[key] = max(current, value) if peak else current + value


def self_times(spans: list[list[Any]]) -> list[float]:
    """Per span: duration minus the part its (synchronous) children cover."""
    result = [span[END] - span[START] for span in spans]
    covered_until: dict[int, float] = {}
    for span in spans:  # children of one parent appear in start order
        parent = span[PARENT]
        if parent < 0 or span[ASYNC] or spans[parent][ASYNC]:
            continue
        lo = max(span[START], spans[parent][START], covered_until.get(parent, 0.0))
        hi = min(span[END], spans[parent][END])
        if hi > lo:
            result[parent] -= hi - lo
            covered_until[parent] = hi
    return result


def summarise(
    spans: list[list[Any]],
    keep: Callable[[list[Any]], bool] = lambda span: True,
    slowdown: float = 1.0,
) -> dict[str, dict[str, float]]:
    """Per span name, over the spans ``keep`` accepts: call count, total
    duration and total self time, both divided by ``slowdown``."""
    table: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        if not keep(span):
            continue
        row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (span[END] - span[START]) / slowdown
        row["self_s"] += self_s / slowdown
    return table


def write_chrome_trace(spans: list[list[Any]], path: str) -> None:
    """Write the spans as a Chrome-loadable (``chrome://tracing``) trace."""
    if not spans:
        events = []
    else:
        origin = min(span[START] for span in spans)
        events = [
            {
                "name": span[NAME],
                "ph": "X",
                "ts": round((span[START] - origin) * 1e6, 1),
                "dur": round((span[END] - span[START]) * 1e6, 1),
                "pid": 1,
                "tid": 2 if span[ASYNC] else 1,
                "args": {"id": index, "parent": span[PARENT], "op": span[OP]},
            }
            for index, span in enumerate(spans)
        ]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# -- wrapping -----------------------------------------------------------------


def _spanned(recorder: Recorder, name: str, fn: Callable, before: Optional[Callable]):
    """``fn`` inside a span; ``before(recorder, args, kwargs)`` may tally."""
    getpid = os.getpid

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if getpid() != recorder.pid:  # a forked worker: not ours to measure
            return fn(*args, **kwargs)
        if before is not None:
            before(recorder, args, kwargs)
        span_id = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span_id)

    return wrapper


def _spanned_submit(recorder: Recorder, name: str, fn: Callable):
    """``ProcessExecutor.submit`` plus an in-flight span per future."""
    spanned = _spanned(recorder, name, fn, _tally_task_bytes)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        parent = recorder._stack[-1] if recorder._stack else -1
        started = time.perf_counter()
        future = spanned(*args, **kwargs)
        future.add_done_callback(
            lambda _: recorder.add_async(
                "serve.executors:inflight", started, time.perf_counter(), parent
            )
        )
        return future

    return wrapper


def _tally_task_bytes(recorder: Recorder, args: tuple, kwargs: dict) -> None:
    # args = (executor, fn, *task_args): what the pool pickles per task.
    recorder.tally(
        "serve.transport.task_bytes_max", len(pickle.dumps(args[2:])), peak=True
    )


def _tally_candidates(recorder: Recorder, args: tuple, kwargs: dict) -> None:
    # best_match(self, function, target_args, candidate_args, ...)
    candidates = kwargs.get("candidate_args", args[3] if len(args) > 3 else ())
    recorder.tally("core.fingerprint.candidates", len(candidates))


def _class_targets() -> list[tuple[Any, str, str, Optional[Callable]]]:
    """``(class, attribute, span name, tally hook)`` for every wrapped method."""
    from repro.core.aggregator import MergeableAxisStats, ResultAggregator
    from repro.core.basis_store import TieredBasisStore
    from repro.core.engine import PointEvaluator, ProphetEngine
    from repro.core.fingerprint.registry import FingerprintRegistry
    from repro.core.instance import InstanceBatch
    from repro.core.online import OnlineSession
    from repro.core.querygen import QueryGenerator
    from repro.core.sampling import SamplingPlane
    from repro.core.storage import StorageManager
    from repro.serve.scheduler import Scheduler
    from repro.serve.service import EvaluationService
    from repro.serve.transport import SegmentArena, SegmentLease
    from repro.sqldb.executor import Executor
    from repro.vg.base import VGFunction

    plain = [
        ("serve.scheduler", Scheduler,
         ["run_next", "run_adaptive", "advance_adaptive", "evaluate",
          "submit_sweep", "submit_adaptive"]),
        ("serve.service", EvaluationService, ["evaluate"]),
        ("serve.transport", SegmentArena, ["lease", "release"]),
        ("serve.transport", SegmentLease, ["pack", "reserve", "view"]),
        ("core.online", OnlineSession, ["refresh"]),
        ("core.engine", ProphetEngine, ["evaluate_point"]),
        ("core.engine", PointEvaluator, ["step"]),
        ("core.instance", InstanceBatch, ["at_point"]),
        ("core.storage", StorageManager, ["acquire", "store", "validated_entry"]),
        ("core.fingerprint", FingerprintRegistry, ["fingerprint_of", "record_mapping"]),
        ("core.basis_store", TieredBasisStore, ["get", "put", "peek_worlds", "keys"]),
        ("core.sampling", SamplingPlane, ["sample"]),
        ("core.querygen", QueryGenerator,
         [name for name in vars(QueryGenerator)
          if not name.startswith("_")
          and any(part in name for part in ("sql", "template", "variables"))]),
        ("sqldb", Executor, ["execute"]),
        ("vg", VGFunction, ["invoke", "invoke_batch", "invoke_components"]),
        ("core.aggregator", ResultAggregator, ["from_aggregate_result"]),
        ("core.aggregator", MergeableAxisStats, ["from_matrices", "merge"]),
    ]
    targets = [
        (owner, attr, f"{layer}:{attr}", None)
        for layer, owner, attrs in plain
        for attr in attrs
    ]
    targets.append(
        (FingerprintRegistry, "best_match", "core.fingerprint:best_match",
         _tally_candidates)
    )
    return targets


#: Module-level functions, patched in every ``repro`` module that imported them.
_FUNCTION_TARGETS = (
    ("repro.dsl.parser", "parse_scenario", "dsl:parse_scenario"),
    ("repro.core.rounds", "max_ci_halfwidth", "core.rounds:max_ci_halfwidth"),
)


class Instrumentation:
    """Context manager: wrap every layer's entry points, restore on exit."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _install(self) -> None:
        import importlib

        from repro.serve.executors import ProcessExecutor

        recorder = self.recorder
        for owner, attr, name, before in _class_targets():
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                rewrap = type(raw)
                self._patch(
                    owner, attr, rewrap(_spanned(recorder, name, raw.__func__, before))
                )
            else:
                self._patch(owner, attr, _spanned(recorder, name, raw, before))
        self._patch(
            ProcessExecutor,
            "submit",
            _spanned_submit(
                recorder, "serve.executors:submit", vars(ProcessExecutor)["submit"]
            ),
        )
        for module_name, attr, name in _FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            replacement = _spanned(recorder, name, original, None)
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").split(".")[0] == "repro"
                    and vars(module).get(attr) is original
                ):
                    self._patch(module, attr, replacement)
