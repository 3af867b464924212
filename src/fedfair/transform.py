"""Bounded response construction from raw local losses.

Local training losses are unbounded above, so the decision maker first maps
them through a cumulative distribution function evaluated at the loss divided
by the round's mean loss. The result lies in a configured range [c1, c2],
which is what makes the decision loss Lipschitz.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import POSITIVE, ConfigError, InvalidInputError, require_valid

logger = logging.getLogger(__name__)

_erf = np.vectorize(math.erf, otypes=[float])


class CdfKind(str, enum.Enum):
    WEIBULL = "weibull"
    FRECHET = "frechet"
    GUMBEL = "gumbel"
    EXPONENTIAL = "exponential"
    LOGISTIC = "logistic"
    NORMAL = "normal"


# Default shape per kind; scale defaults to 1 everywhere. The exponential
# law has no shape parameter and ignores it.
_DEFAULT_SHAPE = {
    CdfKind.WEIBULL: 2.0,
    CdfKind.FRECHET: 1.0,
    CdfKind.GUMBEL: 1.0,
    CdfKind.EXPONENTIAL: 1.0,
    CdfKind.LOGISTIC: 1.0,
    CdfKind.NORMAL: 1.0,
}


@dataclass(frozen=True)
class CdfSpec:
    """A named distribution with scale and shape parameters."""

    kind: CdfKind = CdfKind.WEIBULL
    scale: float = field(default=1.0, metadata={"bound": POSITIVE})
    shape: float | None = field(default=None, metadata={"bound": POSITIVE})

    def __post_init__(self):
        try:
            kind = CdfKind(self.kind)
        except ValueError:
            raise ConfigError("cdf.kind", f"must be one of {[k.value for k in CdfKind]}") from None
        object.__setattr__(self, "kind", kind)
        require_valid(self, "cdf.")
        if self.shape is None:
            object.__setattr__(self, "shape", _DEFAULT_SHAPE[kind])


@dataclass(frozen=True)
class ResponseRange:
    """Closed interval [c1, c2] the transformed responses live in."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (0 <= self.c1 < self.c2):
            raise ConfigError("range", f"need 0 <= c1 < c2, got [{self.c1}, {self.c2}]")

    @property
    def width(self) -> float:
        return self.c2 - self.c1


class Setting(str, enum.Enum):
    CROSS_SILO = "cross_silo"
    CROSS_DEVICE = "cross_device"


def cdf_eval(spec: CdfSpec, x) -> np.ndarray | float:
    """Evaluate the chosen CDF at ``x`` (scalar or array).

    Weibull:      1 - exp(-(x/a)^b)           x >= 0
    Frechet:      exp(-(x/a)^-b)              x >= 0, 0 at x = 0 (limit value)
    Gumbel:       exp(-exp(-(x - a)/b))
    Exponential:  1 - exp(-a x)               x >= 0
    Logistic:     1 / (1 + exp(-(x - a)/b))
    Normal:       (1 + erf((x - a)/(b sqrt 2))) / 2
    """
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidInputError("cdf input must be finite")
    if spec.kind in (CdfKind.WEIBULL, CdfKind.FRECHET, CdfKind.EXPONENTIAL) and (arr < 0).any():
        raise InvalidInputError(f"{spec.kind.value} CDF requires x >= 0")
    out = _cdf(spec, arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _cdf(spec: CdfSpec, arr: np.ndarray) -> np.ndarray:
    """``cdf_eval`` of an array it has checked; ``transform_responses`` calls
    it on loss ratios, which are finite and >= 0 by construction."""
    a, b = spec.scale, spec.shape
    kind = spec.kind
    # Overflow in the inner exponent saturates to the correct tail limit
    # (exp(-inf) -> 0, 1/(1+inf) -> 0), so silence it.
    with np.errstate(over="ignore"):
        if kind is CdfKind.WEIBULL:
            out = 1.0 - np.exp(-np.power(arr / a, b))
        elif kind is CdfKind.FRECHET:
            out = np.zeros_like(arr)
            pos = arr > 0
            out[pos] = np.exp(-np.power(arr[pos] / a, -b))
        elif kind is CdfKind.GUMBEL:
            out = np.exp(-np.exp(-(arr - a) / b))
        elif kind is CdfKind.EXPONENTIAL:
            out = 1.0 - np.exp(-a * arr)
        elif kind is CdfKind.LOGISTIC:
            out = 1.0 / (1.0 + np.exp(-(arr - a) / b))
        elif kind is CdfKind.NORMAL:
            out = 0.5 * (1.0 + _erf((arr - a) / (b * np.sqrt(2.0))))
        else:  # pragma: no cover
            raise InvalidInputError(f"unknown CDF kind {kind!r}")
    return np.clip(out, 0.0, 1.0)


def transform_responses(losses: np.ndarray, rng: ResponseRange, spec: CdfSpec) -> np.ndarray:
    """Map raw local losses to bounded responses in [c1, c2].

    Each loss is divided by the mean loss over the supplied (available) set,
    so the inputs are centered on 1, then pushed through the CDF and affinely
    rescaled: r_i = c1 + (c2 - c1) * CDF(F_i / mean(F)).

    An all-zero loss vector is degenerate: every ratio would be 0/0. The
    round is logged and the constant vector c1 + (c2 - c1)*CDF(1) is returned,
    which keeps the "centered at 1" reading and gives the decision maker a
    flat signal.

    Losses whose mean overflows take their ratios from the losses divided
    by the largest one, whose mean is finite; else every ratio would be 0.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 1 or losses.size < 1:
        raise InvalidInputError("expected at least one loss")
    if not np.isfinite(losses).all() or (losses < 0).any():
        raise InvalidInputError("losses must be finite and >= 0")
    with np.errstate(over="ignore"):
        mean = losses.mean()
    if mean == 0.0:
        logger.warning("degenerate round: all local losses are zero; emitting flat responses")
        level = rng.c1 + rng.width * cdf_eval(spec, 1.0)
        return np.full(losses.size, level)
    if not math.isfinite(mean):
        losses = losses / losses.max()
        mean = losses.mean()
    return rng.c1 + rng.width * _cdf(spec, losses / mean)


def default_range(setting: Setting, k: int, c: float) -> ResponseRange:
    """Default response range per federation regime.

    Cross-silo uses [0, 1/K]; cross-device uses [0, C] so the sampling
    probability cancels out of the gradient-estimate Lipschitz constant.
    """
    setting = Setting(setting)
    if k < 1:
        raise ConfigError("k", "must be >= 1")
    if not (0 < c <= 1):
        raise ConfigError("c", "must be in (0,1]")
    if setting is Setting.CROSS_SILO:
        return ResponseRange(0.0, 1.0 / k)
    return ResponseRange(0.0, c)
