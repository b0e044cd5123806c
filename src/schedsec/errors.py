"""Error taxonomy, the shared work budget and the JSON document decoder.

Every error raised by this package derives from SchedSecError so callers can
catch the whole family.  ValidationError doubles as ValueError because most
of these conditions are plain bad arguments.  `read_json` decodes every
input document's bytes; each document type's parser checks the shape
through `json_object`, `json_list` and `strict_int`, the one integer
check of the package; `strict_seed` is that check for a random seed.
"""

from __future__ import annotations

import json
import numbers
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
    """A call would exceed the configured work budget."""


class InfeasibleError(SchedSecError, RuntimeError):
    """A search space contains no feasible point."""


class NumericalError(SchedSecError, RuntimeError):
    """A numerical subroutine could not resolve its problem."""


class StabilityWarning(UserWarning):
    """A process matrix is not strictly unstable; results may be degenerate."""


def resolve_budget() -> int:
    """Effective work budget: the SCHEDSEC_BUDGET environment variable,
    else the package default."""
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


class Work:
    """One public call's elementary steps, counted against the work budget
    before or while they are taken, so an oversized request raises
    BudgetError instead of exhausting time or memory."""

    def __init__(self, what: str):
        self.what = what
        self.limit = resolve_budget()
        self.used = 0

    def charge(self, steps: int):
        self.used += steps
        if self.used > self.limit:
            raise BudgetError(
                f"{self.what} needs more than the budget of {self.limit} "
                f"steps; raise {BUDGET_ENV_VAR} to allow it")

    def charge_power(self, base: int, exp: int):
        """Charge base ** exp for positive integers.  From 2 up, a base
        raised to the limit's bit length is past the limit already, so the
        power is never raised further."""
        self.charge(base ** min(exp, self.limit.bit_length()))


def read_json(data: bytes):
    """Decode one JSON document from the bytes of a file; no I/O.  Bytes
    that are not UTF-8 JSON, or nest deeper than the parser can follow,
    raise ValidationError."""
    try:
        return json.loads(data.decode("utf-8"))
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


def is_integer(value) -> bool:
    """True for a Python or NumPy integer; a bool, a float or a string is
    not one.  A plain int is let through before the slower ABC check."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def strict_int(value, what: str) -> int:
    """`value` as an int, checked with `is_integer`: a document's bool or
    float and a caller's float or string are refused, never truncated."""
    if not is_integer(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def json_list(value, what: str) -> list:
    """A document entry, checked to be a JSON array."""
    if not isinstance(value, list):
        raise ValidationError(
            f"{what} must be a list, got {type(value).__name__}")
    return value


def strict_seed(value) -> int:
    """A random seed as an int: a nonnegative integer by `strict_int`, the
    entropy NumPy's SeedSequence splits into 32-bit words."""
    seed = strict_int(value, "seed")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed
