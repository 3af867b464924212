"""Mixing-coefficient update strategies.

Covers the static and fairness-aware baselines, which are all one-step
exponentiated-gradient updates re-centered on the sample-size prior, and the
two stateful online strategies: a second-order (Online Newton Step) learner
for small federations and a closed-form entropic follow-the-regularized-
leader update that runs in linear time for massive ones. A hindsight solver
for the best fixed decision supports regret accounting.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import simplex
from .errors import STEP_SIZE, ConfigError, ConvergenceError, InvalidInputError, at_least, require_valid

logger = logging.getLogger(__name__)

STRATEGIES = ("fedavg", "afl", "qfedavg", "term", "propfair", "aaggff-s", "aaggff-d")

QFEDAVG_LOSS_FLOOR = 1e-12
PROPFAIR_GAP_FLOOR = 1e-6
DEFAULT_AFL_Q = 50.0


class BaselineMethod(str, enum.Enum):
    FEDAVG = "fedavg"
    QFEDAVG = "qfedavg"
    TERM = "term"
    PROPFAIR = "propfair"


@dataclass(frozen=True)
class BaselineParams:
    """Hyperparameters of the one-step baselines.

    The minimax baseline is realized as the q-weighted method with a large
    exponent (q -> inf limit), so it needs no enum member of its own.
    """

    method: BaselineMethod
    sample_sizes: np.ndarray
    q: float = field(default=1.0, metadata={"bound": at_least(0)})
    tilt: float = field(default=1.0, metadata={"bound": STEP_SIZE})
    m: float = field(default=3.0, metadata={"bound": at_least(1)})

    def __post_init__(self):
        object.__setattr__(self, "method", BaselineMethod(self.method))
        sizes = np.asarray(self.sample_sizes, dtype=float)
        if sizes.ndim != 1 or sizes.size < 1 or np.any(sizes < 1):
            raise InvalidInputError("sample sizes must be a vector of values >= 1")
        object.__setattr__(self, "sample_sizes", sizes)
        try:
            require_valid(self)
        except ConfigError as err:
            raise InvalidInputError(str(err)) from None

    @property
    def prior(self) -> np.ndarray:
        """Static decision proportional to client sample sizes."""
        return self.sample_sizes / self.sample_sizes.sum()

    @property
    def step_size(self) -> float:
        """1/tilt for the tilted method, 1 otherwise."""
        return 1.0 / self.tilt if self.method is BaselineMethod.TERM else 1.0


def baseline_params_for(
    strategy: str,
    sample_sizes,
    q: float = 1.0,
    tilt: float = 1.0,
    propfair_m: float = 3.0,
    afl_q: float = DEFAULT_AFL_Q,
) -> BaselineParams:
    """Map a strategy string to baseline hyperparameters."""
    if strategy == "fedavg":
        return BaselineParams(BaselineMethod.FEDAVG, sample_sizes)
    if strategy == "qfedavg":
        return BaselineParams(BaselineMethod.QFEDAVG, sample_sizes, q=q)
    if strategy == "afl":
        return BaselineParams(BaselineMethod.QFEDAVG, sample_sizes, q=afl_q)
    if strategy == "term":
        return BaselineParams(BaselineMethod.TERM, sample_sizes, tilt=tilt)
    if strategy == "propfair":
        return BaselineParams(BaselineMethod.PROPFAIR, sample_sizes, m=propfair_m)
    raise InvalidInputError(f"not a baseline strategy: {strategy!r}")


def baseline_response(params: BaselineParams, losses: np.ndarray) -> np.ndarray:
    """Per-method response built from raw local losses.

    fedavg: 0, qfedavg: q*log(F_i), term: F_i, propfair: -log(m - F_i).
    Out-of-domain losses are clamped at documented floors and logged rather
    than aborting the round.
    """
    losses = np.asarray(losses, dtype=float)
    if not np.all(np.isfinite(losses)):
        raise InvalidInputError("losses must be finite")
    method = params.method
    if method is BaselineMethod.FEDAVG:
        return np.zeros_like(losses)
    if method is BaselineMethod.TERM:
        return losses.copy()
    if method is BaselineMethod.QFEDAVG:
        if np.any(losses < 0):
            raise InvalidInputError("losses must be >= 0")
        if np.any(losses < QFEDAVG_LOSS_FLOOR):
            logger.warning("q-weighted response: clamping %d zero losses at %g",
                           int(np.sum(losses < QFEDAVG_LOSS_FLOOR)), QFEDAVG_LOSS_FLOOR)
        return params.q * np.log(np.maximum(losses, QFEDAVG_LOSS_FLOOR))
    if method is BaselineMethod.PROPFAIR:
        gap = params.m - losses
        if np.any(gap < PROPFAIR_GAP_FLOOR):
            logger.warning("proportional-fair response saturated: %d losses >= m=%g",
                           int(np.sum(gap < PROPFAIR_GAP_FLOOR)), params.m)
            gap = np.maximum(gap, PROPFAIR_GAP_FLOOR)
        return -np.log(gap)
    raise InvalidInputError(f"unknown baseline {method!r}")  # pragma: no cover


def _exp_weights(w: np.ndarray) -> np.ndarray:
    """The simplex point proportional to exp(w), computed in place in ``w``
    with its max subtracted first so that no entry overflows."""
    w -= w.max()
    np.exp(w, out=w)
    w /= w.sum()
    return w


def eg_step(prev: np.ndarray, response: np.ndarray, eta: float) -> np.ndarray:
    """Multiplicative-weights update p_i' proportional to p_i exp(r_i / eta).

    Computed in the log domain (max subtracted before exponentiation) so that
    large responses, e.g. from the q -> inf minimax limit, cannot overflow;
    a response / eta beyond the float range raises InvalidInputError.
    A zero entry of ``prev`` stays zero whatever its response (log 0 = -inf),
    and no warning is logged.
    """
    prev = np.asarray(prev, dtype=float)
    response = np.asarray(response, dtype=float)
    if prev.shape != response.shape or prev.ndim != 1:
        raise InvalidInputError("decision and response dimensions differ")
    if not (np.all(np.isfinite(response)) and np.isfinite(eta)):
        raise InvalidInputError("response and step size must be finite")
    if eta <= 0:
        raise InvalidInputError("step size must be positive")
    if np.any(prev < 0) or abs(prev.sum() - 1.0) > simplex.SIMPLEX_SUM_TOL:
        raise InvalidInputError("previous decision must lie on the simplex")
    with np.errstate(over="ignore"):
        scaled = response / eta
    if not np.all(np.isfinite(scaled)):
        raise InvalidInputError(f"response / step size overflows the float range at step size {eta!r}")
    with np.errstate(divide="ignore"):
        w = np.log(prev) + scaled
    return _exp_weights(w)


@dataclass(frozen=True)
class OnsState:
    """Second-order learner state.

    b_matrix is alpha*I plus beta times the running sum of gradient outer
    products; linear_term accumulates (1 - beta <g, p>) g. The next decision
    minimizes x^T b_matrix x + 2 linear_term^T x over the simplex. Up to a
    constant this is the b_matrix-metric distance to the Newton point
    -b_matrix^{-1} linear_term, so the step needs no Newton point, solve or
    eigendecomposition.

    ``ons_step`` consumes the state it is given: it adds the new outer
    product to b_matrix in place, so the returned state shares that array
    and the old state must not be stepped or read again.
    """

    decision: np.ndarray
    b_matrix: np.ndarray
    linear_term: np.ndarray
    alpha: float
    beta: float
    l_inf: float

    @classmethod
    def init(cls, k: int, l_inf: float) -> "OnsState":
        """Fresh state with alpha = 4*K*l_inf and beta = 1/(4*l_inf)."""
        if l_inf <= 0:
            raise InvalidInputError("Lipschitz constant must be positive")
        alpha = 4.0 * k * l_inf
        beta = 1.0 / (4.0 * l_inf)
        return cls(
            decision=simplex.uniform(k),
            b_matrix=alpha * np.eye(k),
            linear_term=np.zeros(k),
            alpha=alpha,
            beta=beta,
            l_inf=l_inf,
        )


def _checked_gradient(gradient, k: int, l_inf: float) -> np.ndarray:
    """``gradient`` as a float array, checked to be a finite length-``k``
    vector within the learner's sup-norm bound ``l_inf``."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != (k,):
        raise InvalidInputError("gradient dimension mismatch")
    if not np.all(np.isfinite(g)):
        raise InvalidInputError("gradient must be finite")
    if np.max(np.abs(g)) > l_inf + 1e-9:
        raise InvalidInputError(
            f"gradient sup norm {np.max(np.abs(g)):.6g} exceeds Lipschitz bound {l_inf:.6g}"
        )
    return g


def ons_step(state: OnsState, gradient: np.ndarray) -> tuple[OnsState, np.ndarray]:
    """Advance the second-order learner by one observed gradient.

    The gradient must be the decision-loss gradient evaluated at
    ``state.decision``. Returns the updated state and the new decision, which
    minimizes the accumulated linearized losses plus the quadratic proximal
    regularizer over the simplex: x^T B x + 2 lin^T x with B = b_matrix and
    lin = linear_term, warm-started at the previous decision. Each round
    costs O(K^2) per projected-gradient iteration and makes no O(K^3) call.
    B is alpha*I (alpha > 0) plus outer products of checked, finite
    gradients, so it is positive definite by construction and is not
    re-validated here; only the public ``simplex.project_mahalanobis``
    validates its metric.

    The step consumes ``state``: B is updated in place, a block of
    ``simplex.ROW_BLOCK`` rows at a time through one small scratch block,
    so a round allocates no K x K array. Each entry is computed as
    B + beta * (g g^T) was, so the bits are those of the out-of-place sum.
    """
    g = _checked_gradient(gradient, state.decision.size, state.l_inf)
    b = state.b_matrix
    scratch = np.empty((min(simplex.ROW_BLOCK, g.size), g.size))
    for lo in range(0, g.size, simplex.ROW_BLOCK):
        rows = g[lo : lo + simplex.ROW_BLOCK]
        block = scratch[: rows.size]
        np.multiply(rows[:, None], g, out=block)
        block *= state.beta
        b[lo : lo + rows.size] += block
    lin_new = state.linear_term + (1.0 - state.beta * float(g @ state.decision)) * g
    decision = simplex.minimize_quadratic(b, lin_new, start=state.decision)
    new_state = replace(state, decision=decision, linear_term=lin_new)
    return new_state, decision


@dataclass(frozen=True)
class FtrlState:
    """Entropic follow-the-regularized-leader state.

    l_inf is the sup-norm bound on the supplied gradients (the inflated
    constant when they come from doubly robust estimates); it sets the
    closed-form step size l_inf * sqrt(t+1) / sqrt(log K).
    """

    t: int
    cumulative_gradient: np.ndarray
    l_inf: float

    @classmethod
    def init(cls, k: int, l_inf: float) -> "FtrlState":
        if l_inf <= 0:
            raise InvalidInputError("Lipschitz constant must be positive")
        return cls(t=0, cumulative_gradient=np.zeros(k), l_inf=l_inf)

    @property
    def k(self) -> int:
        return self.cumulative_gradient.size


def ftrl_eg_step(state: FtrlState, gradient: np.ndarray) -> tuple[FtrlState, np.ndarray]:
    """Closed-form entropic FTRL update.

    After accumulating the t-th gradient the new decision is the softmax of
    -sum(gradients) / eta with eta = l_inf * sqrt(t+1) / sqrt(log K),
    stabilized by subtracting the max exponent. A single-client federation
    (log K = 0) short-circuits to the trivial decision.
    """
    g = _checked_gradient(gradient, state.k, state.l_inf)
    cum = state.cumulative_gradient + g
    t_new = state.t + 1
    new_state = replace(state, t=t_new, cumulative_gradient=cum)
    k = cum.size
    if k == 1:
        return new_state, np.ones(1)
    eta = state.l_inf * np.sqrt(t_new + 1.0) / np.sqrt(np.log(k))
    return new_state, _exp_weights(-cum / eta)


def _objective(p, r):
    """(cumulative loss, 1 / (1 + R p)) at ``p``, or (+inf, None) outside the
    domain; the gradient there is -(R^T @ inv_growth), one more pass over R."""
    growth = 1.0 + r @ p
    if np.any(growth <= 0.0):
        return np.inf, None
    return -float(np.log(growth).sum()), 1.0 / growth


def cumulative_loss(p: np.ndarray, responses: np.ndarray) -> float:
    """Sum over rounds of -log(1 + <p, r_t>); +inf outside the domain."""
    return _objective(p, responses)[0]


def _optimality_gap(p, grad):
    """Certified suboptimality bound over the simplex: by convexity,
    f(p) - f(q) <= <grad, p - q> <= <grad, p> - min_i grad_i for all q."""
    return float(grad @ p - grad.min())


def _entropic_warm_start(r, p, f, inv_growth, budget, target_gap):
    """Entropic mirror descent with Armijo backtracking; cheap early phase.
    Takes and returns a point with its ``_objective`` values."""
    step = 1.0
    for _ in range(budget):
        grad = -(r.T @ inv_growth)
        if _optimality_gap(p, grad) <= target_gap:
            break
        accepted = False
        for _ in range(60):
            # log(0) = -inf is the correct limit for coordinates driven to
            # zero; the multiplicative update keeps them there.
            with np.errstate(divide="ignore"):
                cand = _exp_weights(np.log(p) - step * grad)
            f_cand, inv_cand = _objective(cand, r)
            if f_cand <= f + 1e-4 * float(grad @ (cand - p)):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        p, f, inv_growth = cand, f_cand, inv_cand
        step *= 1.3
    return p, inv_growth


def _newton_on_support(r, x, iters=40):
    """Damped Newton for the restricted problem min f(x) s.t. sum x = 1.

    ``r`` holds only the supported response columns. The sum constraint is
    kept by solving the bordered KKT system; steps are clamped to preserve
    x >= 0 and backtracked to stay inside the log domain.
    """
    m = x.size
    f, inv_growth = _objective(x, r)
    for _ in range(iters):
        grad = -(r.T @ inv_growth)
        scaled = r * inv_growth[:, None]
        hess = scaled.T @ scaled
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = hess + 1e-12 * np.eye(m)
        kkt[:m, m] = 1.0
        kkt[m, :m] = 1.0
        rhs = np.concatenate([-grad, [0.0]])
        try:
            dx = np.linalg.solve(kkt, rhs)[:m]
        except np.linalg.LinAlgError:
            break
        if np.max(np.abs(dx)) <= 1e-16:
            break
        # largest step keeping the iterate nonnegative
        limit = 1.0
        shrink = dx < 0
        if np.any(shrink):
            limit = min(1.0, float(np.min(x[shrink] / -dx[shrink])))
        alpha = limit
        improved = False
        for _ in range(50):
            cand = np.maximum(x + alpha * dx, 0.0)
            cand /= cand.sum()
            f_cand, inv_cand = _objective(cand, r)
            if f_cand <= f + 1e-4 * alpha * float(grad @ dx):
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
        x, f, inv_growth = cand, f_cand, inv_cand
        if alpha * float(np.max(np.abs(dx))) <= 1e-15:
            break
    return x


def hindsight_best(
    responses,
    gap_tol: float = 1e-9,
    max_iter: int = 500,
) -> np.ndarray:
    """Best fixed decision in hindsight for a sequence of responses.

    Minimizes the cumulative decision loss over the simplex. An entropic
    mirror-descent phase locates the active face cheaply; an active-set
    Newton phase then polishes the supported coordinates, which is what
    makes 1e-9-level optimality affordable when the cumulative loss is flat
    along parts of the face (plain mirror descent decays like 1/iteration
    there). Termination is certified by the simplex duality gap
    <grad, p> - min_i grad_i, an upper bound on the objective suboptimality.
    """
    r = np.atleast_2d(np.asarray(responses, dtype=float))
    if r.size == 0:
        raise InvalidInputError("need at least one response")
    if not np.all(np.isfinite(r)):
        raise InvalidInputError("responses must be finite")
    t, k = r.shape
    if k == 1:
        return np.ones(1)

    p = simplex.uniform(k)
    f, inv_growth = _objective(p, r)
    if inv_growth is None:
        raise InvalidInputError("cumulative loss undefined at the uniform start")
    p, inv_growth = _entropic_warm_start(r, p, f, inv_growth, budget=200, target_gap=max(gap_tol, 1e-6))

    gap = np.inf
    best_gap = np.inf
    stall = 0
    for _ in range(max_iter):
        grad = -(r.T @ inv_growth)
        gap = _optimality_gap(p, grad)
        if gap <= gap_tol:
            return p
        if gap < best_gap - 1e-15:
            best_gap, stall = gap, 0
        else:
            stall += 1
            if stall >= 20:
                break
        support = p > 1e-15
        support[int(np.argmin(grad))] = True
        idx = np.nonzero(support)[0]
        x = _newton_on_support(r[:, idx], np.maximum(p[idx], 1e-15) / p[idx].sum())
        p = np.zeros(k)
        p[idx] = x
        # Not Newton's 1 / (1 + R p): over the support columns, R p sums in another order.
        inv_growth = _objective(p, r)[1]
        if inv_growth is None:
            raise ConvergenceError("hindsight iterate left the log domain", iterate=p, residual=gap)
    if gap <= 1e-6:  # short of gap_tol but still far inside test tolerances
        return p
    raise ConvergenceError(
        f"hindsight solver stalled with optimality gap {gap:.3e}",
        iterate=p,
        residual=gap,
    )
