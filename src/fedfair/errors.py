"""Exception types shared across the package, and the one check of the
config dataclasses' numeric fields: each field declares its valid range as a
``bound`` in its ``dataclasses.field`` metadata, and ``require_valid``
enforces every bound."""

import dataclasses
import math
import numbers


class InvalidInputError(ValueError):
    """Raised when a numeric argument violates a precondition (non-finite,
    wrong shape, out of range)."""


class InvalidMatrixError(ValueError):
    """Raised when a matrix argument is not symmetric positive definite."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance within its cap.

    Carries the best iterate and the final residual for diagnosis.
    """

    def __init__(self, message, iterate=None, residual=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


class DegenerateSubsetError(ValueError):
    """Raised when a client subset is empty or carries zero decision mass."""


class DegenerateRoundError(ValueError):
    """Raised when a round supplies no usable client signal."""


class DivergenceError(RuntimeError):
    """Local training produced a non-finite loss or parameter.

    ``partial`` is set by the simulation to the result of the rounds it
    completed before it diverged.
    """

    def __init__(self, message, round_index=None, client_id=None):
        super().__init__(message)
        self.round_index = round_index
        self.client_id = client_id
        self.partial = None


class ConfigError(ValueError):
    """Raised on invalid experiment configuration; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


def at_least(n):
    """The bound of a field that must be >= ``n``."""
    return (lambda v: v >= n, f"must be >= {n}")


def within(lo, hi):
    """The bound of a field that must lie in [``lo``, ``hi``]."""
    return (lambda v: lo <= v <= hi, f"must be in [{lo}, {hi}]")


POSITIVE = (lambda v: v > 0, "must be > 0")
UNIT_FRACTION = (lambda v: 0 < v <= 1, "must be in (0,1]")
# A field used as 1/v: a subnormal v is > 0, but its reciprocal overflows.
STEP_SIZE = (lambda v: v > 0 and math.isfinite(1 / v), "must be > 0 with a finite reciprocal")


def require_valid(config, prefix=""):
    """Raise ConfigError naming the first field of the dataclass ``config``,
    in field order, whose number is not finite or whose value breaks the
    ``(holds, text)`` pair in its metadata's ``bound``; a None value has no
    bound. An integer beyond the float range is rejected as such, since the
    numerics take it as a float. ``prefix`` dots nested names (``cdf.``)."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, numbers.Real):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int too large for a float
                raise ConfigError(prefix + f.name, "must be within the float range") from None
            if not finite:
                raise ConfigError(prefix + f.name, "must be finite")
        bound = f.metadata.get("bound")
        if bound is not None and value is not None and not bound[0](value):
            raise ConfigError(prefix + f.name, bound[1])
