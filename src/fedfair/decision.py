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
    p, r = _check_pair(p, r)
    growth = 1.0 + float(p @ r)
    if growth <= 0.0:
        raise InvalidInputError(f"decision loss undefined: 1 + <p, r> = {growth:.3e} <= 0")
    return -float(np.log(growth))


def decision_gradient(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Exact gradient of the decision loss: -r / (1 + <p, r>)."""
    p, r = _check_pair(p, r)
    growth = 1.0 + float(p @ r)
    if growth <= 0.0:
        raise InvalidInputError(f"gradient undefined: 1 + <p, r> = {growth:.3e} <= 0")
    return -r / growth


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
    base = 1.0 + float(p @ r0)
    if base <= 0.0:
        raise InvalidInputError("linearization reference yields nonpositive growth")
    return -r / base + r0 * (float(p @ (r - r0)) / base**2)


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
