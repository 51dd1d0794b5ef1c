"""Error hierarchy for the engine.

Mirrors Presto's error classification (Sec. IV-G): every error belongs
to one of four categories — USER_ERROR (the query or its inputs are at
fault), INTERNAL_ERROR (an engine component misbehaved),
INSUFFICIENT_RESOURCES (memory/queue/time limits), or EXTERNAL (a
system outside the engine: connectors, the network). Every error
carries a stable ``code`` so clients and tests can match on it without
parsing messages, plus a ``retryable`` flag that drives the cluster's
retry policy: retryable faults are eligible for task-level recovery or
client resubmission; non-retryable faults fail the query immediately
(re-running a bad query or a deterministic memory blowout cannot help).
"""

from __future__ import annotations

# The four error categories of paper Sec. IV-G.
USER_ERROR = "USER_ERROR"
INTERNAL_ERROR = "INTERNAL_ERROR"
INSUFFICIENT_RESOURCES = "INSUFFICIENT_RESOURCES"
EXTERNAL = "EXTERNAL"

ERROR_CATEGORIES = (USER_ERROR, INTERNAL_ERROR, INSUFFICIENT_RESOURCES, EXTERNAL)


def error_category(error: BaseException) -> str:
    """Classify any exception into one of the four Sec. IV-G categories."""
    if isinstance(error, PrestoError):
        return error.category
    return INTERNAL_ERROR


def is_retryable(error: BaseException) -> bool:
    """Whether re-executing the failed work can plausibly succeed."""
    if isinstance(error, PrestoError):
        return error.retryable
    return False


class PrestoError(Exception):
    """Base class for every engine error."""

    code = "GENERIC_INTERNAL_ERROR"
    category = INTERNAL_ERROR
    retryable = False

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code

    @property
    def message(self) -> str:
        return self.args[0] if self.args else ""


class UserError(PrestoError):
    """The query (or its inputs) are at fault, not the engine."""

    code = "GENERIC_USER_ERROR"
    category = USER_ERROR


class SyntaxError_(UserError):
    """SQL text failed to lex or parse.

    Carries the 1-based line/column of the offending token.
    """

    code = "SYNTAX_ERROR"

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}:{column}: {message}")
        self.line = line
        self.column = column


class SemanticError(UserError):
    """SQL parsed, but analysis rejected it (unknown column, type mismatch...)."""

    code = "SEMANTIC_ERROR"


class TypeError_(SemanticError):
    code = "TYPE_MISMATCH"


class NotSupportedError(UserError):
    code = "NOT_SUPPORTED"


class NotScalarResultError(UserError):
    """``QueryResult.scalar()`` on a result that is not one row of one
    column."""

    code = "NOT_A_SCALAR_RESULT"


class DivisionByZeroError(UserError):
    code = "DIVISION_BY_ZERO"


class InvalidFunctionArgumentError(UserError):
    code = "INVALID_FUNCTION_ARGUMENT"


class InvalidCastError(UserError):
    code = "INVALID_CAST_ARGUMENT"


class NumericValueOutOfRangeError(UserError):
    """An integral result does not fit BIGINT (SQLSTATE 22003)."""

    code = "NUMERIC_VALUE_OUT_OF_RANGE"


class ExceededMemoryLimitError(PrestoError):
    """Query exceeded its per-node or global user memory limit (Sec. IV-F2).

    Not retryable: the same query over the same data deterministically
    hits the same limit (clients may retry later on a quieter cluster,
    but the engine does not re-execute tasks for it)."""

    code = "EXCEEDED_MEMORY_LIMIT"
    category = INSUFFICIENT_RESOURCES


class ExceededTimeLimitError(PrestoError):
    code = "EXCEEDED_TIME_LIMIT"
    category = INSUFFICIENT_RESOURCES


class QueryQueueFullError(PrestoError):
    """Admission rejection: transient by nature, safe to resubmit."""

    code = "QUERY_QUEUE_FULL"
    category = INSUFFICIENT_RESOURCES
    retryable = True


class WorkerFailedError(PrestoError):
    """A worker node crashed while the query was running (Sec. IV-G).

    Retryable: the work itself was fine; re-executing the lost tasks on
    surviving workers (or resubmitting the query) can succeed."""

    code = "WORKER_NODE_FAILED"
    retryable = True


class TransferFailedError(PrestoError):
    """A shuffle transfer kept failing past the retry budget (Sec. IV-G:
    transient network faults are EXTERNAL and retried at a low level;
    this error surfaces only when the retry policy gives up)."""

    code = "TRANSFER_FAILED"
    category = EXTERNAL
    retryable = True


class ConnectorError(PrestoError):
    code = "CONNECTOR_ERROR"
    category = EXTERNAL
    retryable = True


class CatalogNotFoundError(SemanticError):
    code = "CATALOG_NOT_FOUND"


class SchemaNotFoundError(SemanticError):
    code = "SCHEMA_NOT_FOUND"


class TableNotFoundError(SemanticError):
    code = "TABLE_NOT_FOUND"


class ColumnNotFoundError(SemanticError):
    code = "COLUMN_NOT_FOUND"


class FunctionNotFoundError(SemanticError):
    code = "FUNCTION_NOT_FOUND"


class AmbiguousNameError(SemanticError):
    code = "AMBIGUOUS_NAME"
