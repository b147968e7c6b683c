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


def config_int(name: str, value, minimum: int = 1) -> int:
    """`value` as an int >= `minimum`. Only what `operator.index` accepts
    (Python and numpy integers) is an integer; anything else raises a
    ConfigError naming `name`."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if n < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {n}")
    return n


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
