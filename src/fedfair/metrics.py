"""Regret accounting and client-level fairness statistics."""

from __future__ import annotations

import math

import numpy as np

from . import aggregators
from .errors import InvalidInputError


def regret(played_losses, responses) -> float:
    """Sum of ``played_losses`` in round order minus the cumulative loss of
    the best fixed decision in hindsight. ``played_losses[t]`` is the
    ``decision.decision_loss`` that ``responses[t]``, a full-length (under
    sampling, doubly robust) response, dealt the decision then in effect.
    Nonnegative up to solver tolerance for a fixed played decision."""
    responses = np.atleast_2d(np.asarray(responses, dtype=float))
    if len(played_losses) != responses.shape[0]:
        raise InvalidInputError("need one decision loss per round of responses")
    best = aggregators.hindsight_best(responses)  # raises InvalidInputError for no rounds
    return sum(played_losses) - aggregators.cumulative_loss(best, responses)


def gini(perf) -> float:
    """Gini coefficient of a nonnegative performance distribution.

    Population definition sum_ij |x_i - x_j| / (2 n^2 mean), computed via the
    sorted O(n log n) identity. Raw value in [0, 1); report formatters may
    scale by 100. The coefficient does not change when every performance is
    scaled, so performances whose sums overflow are divided by the largest.
    Rounding can leave the identity just below 0, where it reads 0.
    """
    x = np.asarray(perf, dtype=float)
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise InvalidInputError("performances must be nonempty and finite")
    if np.any(x < 0):
        raise InvalidInputError("performances must be >= 0")
    largest = x.max()
    if largest == 0.0:
        raise InvalidInputError("Gini undefined: all performances are zero")
    with np.errstate(over="ignore", invalid="ignore"):
        g = _sorted_identity(x)
    if not math.isfinite(g):
        g = _sorted_identity(x / largest)
    return max(g, 0.0)


def _sorted_identity(x: np.ndarray) -> float:
    xs = np.sort(x)
    n = x.size
    ranks = np.arange(1, n + 1)
    return float(2.0 * (ranks * xs).sum() / (n * x.sum()) - (n + 1.0) / n)


def worst_best(perf, fraction: float) -> tuple[float, float]:
    """Means of the bottom and top ceil(fraction*n) performances.

    Sorting is ascending with ties broken by client index, so results are
    deterministic across platforms.
    """
    x = np.asarray(perf, dtype=float)
    if x.size == 0:
        raise InvalidInputError("performances must be nonempty")
    if not (0 < fraction <= 0.5):
        raise InvalidInputError("fraction must be in (0, 0.5]")
    order = np.argsort(x, kind="stable")
    m = int(np.ceil(fraction * x.size))
    return float(x[order[:m]].mean()), float(x[order[-m:]].mean())


def accuracy_parity_gap(perf) -> float:
    """Absolute spread between the best and worst performance."""
    x = np.asarray(perf, dtype=float)
    if x.size == 0:
        raise InvalidInputError("performances must be nonempty")
    return float(x.max() - x.min())


def decision_entropy(p) -> float:
    """Shannon entropy of a decision, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    pos = p[p > 0]
    return float(-(pos * np.log(pos)).sum())
