"""Exception hierarchy shared by all gaitpt modules.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
data/protocol problems exit 3, anything else is treated as an internal
invariant violation and exits 4.
"""

import numbers
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


def checked_real(name: str, value, rule: str, ok, error: type[GaitError] = ConfigError) -> float:
    """`value` as a float for which `ok` is true, `rule` saying in words
    what `ok` checks. A `numbers.Real` (Python or numpy) is a number, except
    a bool; anything else, an int past float's range, or a value `ok`
    refuses (NaN fails every comparison) raises `error` naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past float's range
        x = None
    if x is None or not ok(x):
        raise error(f"{name} must be {rule}, got {value!r}")
    return x


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
