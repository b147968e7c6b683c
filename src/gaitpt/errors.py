"""Exception hierarchy shared by all gaitpt modules.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
data/protocol problems exit 3, anything else is treated as an internal
invariant violation and exits 4.
"""

import operator


class GaitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GaitError):
    """Invalid configuration or API usage (bad flags, bad hyperparameters)."""


INT64 = (-(2**63), 2**63 - 1)  # the range of a sequence's view and session


def checked_int(name: str, value, minimum: int | None = 1, maximum: int | None = None,
                error: type[GaitError] = ConfigError) -> int:
    """`value` as an int in [`minimum`, `maximum`], None leaving that side
    open. What `operator.index` accepts (Python and numpy integers) is an
    integer, except a bool; anything else raises `error` naming `name`."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or (minimum is not None and n < minimum) or (maximum is not None and n > maximum):
        rule = (" in int64 range" if (minimum, maximum) == INT64
                else f" in [{minimum}, {maximum}]" if maximum is not None
                else f" >= {minimum}" if minimum is not None else "")
        raise error(f"{name} must be an integer{rule}, got {value!r}")
    return n


def config_rule(name: str, value, rule: str, ok) -> None:
    """Raise a ConfigError naming `name` and `rule` unless `ok(value)` is
    true; a value `ok` cannot compare (TypeError) fails too."""
    try:
        valid = bool(ok(value))
    except TypeError:
        valid = False
    if not valid:
        raise ConfigError(f"{name} must be {rule}, got {value!r}")


class InputError(GaitError, ValueError):
    """A runtime input violates an operation's precondition."""


class ShapeError(InputError):
    """Tensor shapes are incompatible for the requested operation."""


class NumericError(InputError):
    """Non-finite or otherwise unusable numeric input."""


class SamplingError(GaitError):
    """A batch does not satisfy the mining/sampling preconditions."""


class StatisticsError(GaitError):
    """Degenerate sample passed to a statistical test."""


class DataFormatError(GaitError):
    """A file or record failed validation; message is line/offset addressed."""


class IntegrityError(DataFormatError):
    """Checkpoint payload is truncated, corrupted, or version-mismatched."""


class ProtocolError(GaitError):
    """An evaluation protocol's data requirements are not met."""
