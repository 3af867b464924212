"""Decision losses and gradients on the simplex.

The server plays a decision p on the simplex against a bounded response
vector r and suffers -log(1 + <p, r>). Under client sampling only part of r
is observed; a doubly robust estimate fills in the rest and a linearization
in r keeps the gradient estimate unbiased.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRoundError, InvalidInputError
from .transform import ResponseRange


def _check_pair(p: np.ndarray, r: np.ndarray):
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    if p.shape != r.shape or p.ndim != 1:
        raise InvalidInputError(f"dimension mismatch: p has shape {p.shape}, r has shape {r.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(r))):
        raise InvalidInputError("inputs must be finite")
    return p, r


def decision_loss(p: np.ndarray, r: np.ndarray) -> float:
    """Negative logarithmic growth -log(1 + <p, r>).

    Raw responses are nonnegative, so the argument of the log is >= 1.
    Estimated responses may carry negative entries; the loss is still defined
    as long as 1 + <p, r> stays positive.
    """
    return _growth_loss(*_check_pair(p, r))


def _growth(p: np.ndarray, r: np.ndarray, what: str) -> float:
    """1 + <p, r>, checked to be positive; ``what`` names the quantity that
    a nonpositive growth leaves undefined."""
    growth = 1.0 + float(p @ r)
    if growth <= 0.0:
        raise InvalidInputError(f"{what} undefined: 1 + <p, r> = {growth:.3e} <= 0")
    return growth


def _growth_loss(p: np.ndarray, r: np.ndarray) -> float:
    return -float(np.log(_growth(p, r, "decision loss")))


def decision_gradient(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Exact gradient of the decision loss: -r / (1 + <p, r>)."""
    p, r = _check_pair(p, r)
    return -r / _growth(p, r, "gradient")


def full_round(p: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, float]:
    """``(decision_gradient(p, r), decision_loss(p, r))``, bit for bit, from
    one check of the pair and one growth 1 + <p, r>: the full-information
    round of the cross-silo learner. It raises what ``decision_gradient``
    raises, which is all that ``decision_loss`` could raise."""
    p, r = _check_pair(p, r)
    growth = _growth(p, r, "gradient")
    return -r / growth, -float(np.log(growth))


def dr_estimate(
    observed: np.ndarray,
    subset: np.ndarray,
    c: float,
    k: int,
    imputed: float | None = None,
) -> np.ndarray:
    """Doubly robust estimate of the full response from a sampled subset.

    For sampling probability c, entry i of the estimate is
    (1 - I(i in S)/c) * rbar + (I(i in S)/c) * r_i, with rbar the mean of the
    observed entries. Unobserved entries therefore equal rbar, while observed
    entries are inverse-probability reweighted around it. Estimated entries
    may leave the raw response range.

    ``imputed`` overrides the imputation constant rbar; harnesses that check
    unbiasedness hold it fixed, since the estimator is exactly unbiased only
    conditional on the imputed value.
    """
    observed = np.asarray(observed, dtype=float)
    subset = np.asarray(subset, dtype=int)
    if subset.size == 0:
        raise DegenerateRoundError("no observed clients")
    if observed.shape != subset.shape:
        raise InvalidInputError("observed responses and subset must align")
    if not (0 < c <= 1):
        raise InvalidInputError("sampling probability must be in (0,1]")
    if subset.min() < 0 or subset.max() >= k:
        raise InvalidInputError("subset index out of range")
    rbar = observed.mean() if imputed is None else float(imputed)
    est = np.full(k, rbar)
    est[subset] = (1.0 - 1.0 / c) * rbar + observed / c
    return est


def linearized_gradient(p: np.ndarray, r: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Gradient of the decision loss linearized in the response around r0.

    g ~= -r / (1 + <p, r0>) + r0 * (p . (r - r0)) / (1 + <p, r0>)^2

    At r = r0 this equals the exact gradient. Plugging in a doubly robust
    response estimate makes the result an unbiased estimate of this
    linearization at the true response.
    """
    p, r = _check_pair(p, r)
    r0 = np.asarray(r0, dtype=float)
    if r0.shape != p.shape:
        raise InvalidInputError("reference dimension mismatch")
    base, slope = _linearization(p, r, r0)
    return -r / base + r0 * slope


def _linearization(p: np.ndarray, r: np.ndarray, r0: np.ndarray) -> tuple[float, float]:
    """(1 + <p, r0>, <p, r - r0> / (1 + <p, r0>)^2): the linearized gradient
    is -r / base + r0 * slope."""
    base = 1.0 + float(p @ r0)
    if base <= 0.0:
        raise InvalidInputError("linearization reference yields nonpositive growth")
    return base, float(p @ (r - r0)) / base**2


def dr_round(
    p: np.ndarray, observed: np.ndarray, subset: np.ndarray, c: float, k: int, l_inf: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """One cross-device round of the adaptive learner at decision ``p``.

    Returns the doubly robust response ``dr_estimate(observed, subset, c, k)``,
    its linearized gradient at the observed-mean reference
    ``linearized_gradient(p, response, np.full(k, rbar))`` and
    ``decision_loss(p, response)``, bit for bit. It raises what those calls,
    then ``check_lipschitz(gradient, l_inf)``, would raise, with the same
    types and messages, in the order the learner met them.

    Off ``subset`` every response entry is rbar and every gradient entry is
    -rbar / base + rbar * slope, so that value is formed once as a float and
    only the m sampled entries are computed as vectors; the finiteness and
    sup-norm checks run on these m + 1 distinct values, and ``p`` is checked
    once. The three dot products <p, r0>, <p, r - r0> and <p, r> stay dense:
    BLAS groups a dot product's sums by position, so a sum over the sampled
    entries alone would change their bits.
    """
    response = dr_estimate(observed, subset, c, k)
    subset = np.asarray(subset, dtype=int)
    p = np.asarray(p, dtype=float)
    if p.shape != response.shape:
        raise InvalidInputError(f"dimension mismatch: p has shape {p.shape}, r has shape {response.shape}")
    rbar = float(np.asarray(observed, dtype=float).mean())
    sampled = response[subset]
    # A non-finite rbar makes every sampled entry non-finite too, so this
    # matches the dense check even when every client is sampled.
    if not (np.isfinite(p).all() and np.isfinite(sampled).all() and np.isfinite(rbar)):
        raise InvalidInputError("inputs must be finite")
    base, slope = _linearization(p, response, np.full(k, rbar))
    unsampled = -rbar / base + rbar * slope
    g_sampled = -sampled / base + rbar * slope
    gradient = np.full(k, unsampled)
    gradient[subset] = g_sampled
    # np.unique would load numpy.ma on numpy 2; bincount does not.
    every_client_sampled = subset.size >= k and np.bincount(subset, minlength=k).all()
    check_lipschitz(g_sampled if every_client_sampled else np.append(g_sampled, unsampled), l_inf)
    return response, gradient, _growth_loss(p, response)


def check_lipschitz(gradient: np.ndarray, l_inf: float) -> None:
    """Raise InvalidInputError unless every entry of ``gradient`` is finite
    and within the sup-norm bound ``l_inf`` (up to 1e-9)."""
    if not np.all(np.isfinite(gradient)):
        raise InvalidInputError("gradient must be finite")
    if np.max(np.abs(gradient)) > l_inf + 1e-9:
        raise InvalidInputError(
            f"gradient sup norm {np.max(np.abs(gradient)):.6g} exceeds Lipschitz bound {l_inf:.6g}"
        )


def lipschitz_full(rng: ResponseRange) -> float:
    """Sup-norm Lipschitz constant of the decision loss: c2 / (1 + c1)."""
    return rng.c2 / (1.0 + rng.c1)


def lipschitz_dr(rng: ResponseRange, c: float) -> float:
    """Sup-norm bound on the linearized gradient built from DR estimates.

    c2/(1 + c1) + 2 (c2 - c1) / (c (1 + c1)); with the device default range
    [0, c] this is exactly c + 2.
    """
    if not (0 < c <= 1):
        raise InvalidInputError("sampling probability must be in (0,1]")
    return rng.c2 / (1.0 + rng.c1) + 2.0 * rng.width / (c * (1.0 + rng.c1))


def regret_bound(l_inf: float, k: int, t: int, second_order: bool) -> float:
    """Regret upper bound of the adaptive learners after ``t`` rounds.

    ``l_inf`` is the sup-norm Lipschitz constant of the losses played.
    Online Newton Step (``second_order``): 2 L K (1 + log(1 + T / (16 K)));
    entropic FTRL: 2 L sqrt(T log K).
    """
    if second_order:
        return 2.0 * l_inf * k * (1.0 + np.log(1.0 + t / (16.0 * k)))
    return 2.0 * l_inf * np.sqrt(t * np.log(k))
