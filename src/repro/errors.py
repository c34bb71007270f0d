"""Shared exception hierarchy for the Fuzzy Prophet reproduction.

Every package raises subclasses of :class:`ReproError` so that callers can
catch library failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SqlError(ReproError):
    """Base class for errors raised by the ``repro.sqldb`` engine."""


class TokenizeError(SqlError):
    """Raised when SQL text cannot be tokenized.

    Carries the offending position so that error messages can point at the
    exact character in the input.
    """

    def __init__(self, message: str, position: int, text: str) -> None:
        self.position = position
        self.text = text
        line = text.count("\n", 0, position) + 1
        column = position - (text.rfind("\n", 0, position) + 1) + 1
        super().__init__(f"{message} (line {line}, column {column})")


class ParseError(SqlError):
    """Raised when tokenized SQL cannot be parsed into an AST."""


class CatalogError(SqlError):
    """Raised for missing/duplicate tables, columns, or functions."""


class ExecutionError(SqlError):
    """Raised when a valid statement fails during execution."""


class TypeMismatchError(ExecutionError):
    """Raised when an operation is applied to incompatible SQL types."""


class VGFunctionError(ReproError):
    """Raised for errors in VG-Function definitions or invocations."""


class ScenarioError(ReproError):
    """Raised for invalid scenario specifications (DSL or programmatic)."""


class DslError(ScenarioError):
    """Raised when Fuzzy Prophet DSL text cannot be parsed."""


class ParameterError(ScenarioError):
    """Raised for invalid parameter declarations or bindings."""


class FingerprintError(ReproError):
    """Raised for fingerprinting failures (shape mismatch, bad spec...)."""


class OptimizationError(ReproError):
    """Raised when offline optimization cannot be carried out."""


class OnlineSessionError(ReproError):
    """Raised for misuse of the online exploration session API."""


class ServeError(ReproError):
    """Raised by the ``repro.serve`` evaluation service and scheduler."""


class TransientServeError(ServeError):
    """A serving fault expected to clear on retry.

    The fault taxonomy of the resilient serving plane: point tasks are pure
    functions of their inputs, so a failure caused by the *substrate* — a
    crashed or hung worker, a broken pool, a mangled payload — says nothing
    about the answer, and re-running the work (in a healed pool, or inline
    on the coordinator) produces the bit-identical result. The
    :class:`~repro.serve.resilience.TaskDispatcher` retries these, and the
    :class:`~repro.serve.scheduler.Scheduler` retries jobs failed by them;
    anything *not* in this branch of the hierarchy is treated as permanent
    — a deterministic error that would simply recur — and surfaces
    immediately.
    """


class WorkerCrashError(TransientServeError):
    """A worker process died (or an injected crash simulated one)."""


class TaskTimeoutError(TransientServeError):
    """A point task missed its deadline; the worker may be hung."""


class TaskPayloadError(TransientServeError):
    """A point task returned a malformed payload (wrong type or shape)."""


class RetryExhaustedError(TransientServeError):
    """Every task retry failed and inline rescue was disabled.

    Still transient: the *job*-level retry re-dispatches the whole
    evaluation, which may succeed against a healed pool.
    """
