"""Error taxonomy, the shared enumeration budget and the JSON document reader.

Every error raised by this package derives from SchedSecError so callers can
catch the whole family.  ValidationError doubles as ValueError because most
of these conditions are plain bad arguments.
"""

from __future__ import annotations

import json
import os

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "SCHEDSEC_BUDGET"


class SchedSecError(Exception):
    """Base class for all package errors."""


class ValidationError(SchedSecError, ValueError):
    """Malformed or inconsistent input data."""


class ConvergenceError(SchedSecError, RuntimeError):
    """An iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class BudgetError(SchedSecError, RuntimeError):
    """An enumeration would exceed the configured work budget."""


class InfeasibleError(SchedSecError, RuntimeError):
    """A search space contains no feasible point."""


class NumericalError(SchedSecError, RuntimeError):
    """A numerical subroutine could not resolve its problem."""


class StabilityWarning(UserWarning):
    """A process matrix is not strictly unstable; results may be degenerate."""


def resolve_budget(budget: int | None = None) -> int:
    """Effective enumeration budget: explicit argument, else the
    SCHEDSEC_BUDGET environment variable, else the package default."""
    if budget is not None:
        if budget < 1:
            raise ValidationError(f"budget must be positive, got {budget}")
        return int(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(
                f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
        if value < 1:
            raise ValidationError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_BUDGET


def read_json(source):
    """Parse one JSON document from a path or an open text file.  Text that
    is not UTF-8 JSON, or nests deeper than the parser can follow, raises
    ValidationError."""
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.load(source)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"not a JSON document: {exc}") from None
    except RecursionError:
        raise ValidationError("JSON document nests too deeply") from None


def json_object(doc, keys, what: str):
    """Check that a parsed document is an object holding every key."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} document must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ValidationError(f'{what} document needs key "{key}"')


def json_int(value, what: str) -> int:
    """A document entry, checked to be a JSON integer (not a bool or float)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def json_list(value, what: str) -> list:
    """A document entry, checked to be a JSON array."""
    if not isinstance(value, list):
        raise ValidationError(
            f"{what} must be a list, got {type(value).__name__}")
    return value
