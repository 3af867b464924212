"""Probability-simplex geometry.

The server's decision space is the probability simplex
``{p in R^K : p_i >= 0, sum(p) = 1}``. This module provides the exact
Euclidean projection, a generalized (Mahalanobis) projection and the
simplex-constrained quadratic minimizer behind it, which the second-order
aggregator calls directly, and renormalization of a decision onto a sampled
subset of coordinates.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConvergenceError, DegenerateSubsetError, InvalidInputError, InvalidMatrixError

SIMPLEX_SUM_TOL = 1e-9
# Largest K^2 * max |v_i| at which project_euclidean takes its sort-and-threshold
# step unchecked: the step's rounding then moves the sum by at most about
# 2^20 * 2^-53, well within SIMPLEX_SUM_TOL.
_EXACT_SCALE = 2.0**20
# Rows per block when a K x K matrix is swept a block at a time, so that the
# sweep's temporary stays small instead of matching the matrix.
ROW_BLOCK = 32


def uniform(k: int) -> np.ndarray:
    """Uniform point of the (k-1)-simplex."""
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    return np.full(k, 1.0 / k)


def project_euclidean(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex.

    Sort-and-threshold algorithm, O(K log K): find the largest support size
    rho such that the water level theta = (sum of the rho largest entries - 1)/rho
    leaves those entries positive, then clip ``v - theta`` at zero.

    The step's rounding moves the sum of its result by about K^2 times the
    largest magnitude in ``v`` times 2^-53, and its sums overflow near the
    float range. So once K^2 times that magnitude passes ``_EXACT_SCALE``,
    its result is kept only if it sums to 1 within ``SIMPLEX_SUM_TOL``.
    Else the step is run on ``v - max(v)`` with every entry clipped at -2,
    which has the same projection: an entry 1 or more below the largest is
    never in the support, and the clipped entries' sums are exact enough
    and finite.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise InvalidInputError("expected a nonempty 1-d vector")
    if not np.isfinite(v).all():
        raise InvalidInputError("projection input must be finite")
    u = v.copy()
    u.sort()
    u = u[::-1]
    bound = _EXACT_SCALE / v.size**2
    if u[0] <= bound and u[-1] >= -bound:
        return _threshold(v, u)  # the largest entry always passes
    with np.errstate(over="ignore", invalid="ignore"):
        p = _threshold(v, u)
        if p is not None and abs(p.sum() - 1.0) <= SIMPLEX_SUM_TOL:
            return p
        return _threshold(np.maximum(v - u[0], -2.0), np.maximum(u - u[0], -2.0))


@functools.lru_cache(maxsize=64)
def _ranks(k: int) -> np.ndarray:
    """The float ranks 1, 2, ..., k, read-only: cached and shared by every caller."""
    ranks = np.arange(1.0, k + 1.0)
    ranks.flags.writeable = False
    return ranks


def _threshold(v: np.ndarray, u: np.ndarray) -> np.ndarray | None:
    """``project_euclidean``'s sort-and-threshold step on ``v``, whose entries
    ``u`` holds in descending order, or None when no support size passes its
    test. For floats, u - css / rank > 0 exactly when u > css / rank, so the
    test is made without the difference."""
    css = u.cumsum()
    css -= 1.0
    ranks = _ranks(v.size)
    support = (u > css / ranks).nonzero()[0]
    if not support.size:
        return None
    rho = support[-1]
    return np.maximum(v - css[rho] / ranks[rho], 0.0)


def _check_psd(b, k: int) -> np.ndarray:
    """``b`` as a float array, checked to be a finite, symmetric, positive
    definite ``k`` x ``k`` matrix. The size is checked before the O(K^3)
    eigendecomposition."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise InvalidMatrixError("metric must be a square matrix")
    if b.shape[0] != k:
        raise InvalidInputError("metric dimension does not match vector")
    if not np.all(np.isfinite(b)):
        raise InvalidMatrixError("metric must be finite")
    if np.max(np.abs(b - b.T)) > 1e-12 * max(1.0, np.max(np.abs(b))):
        raise InvalidMatrixError("metric must be symmetric")
    lam_min = np.linalg.eigvalsh(b)[0]
    if lam_min <= 0.0:
        raise InvalidMatrixError(f"metric must be positive definite (min eigenvalue {lam_min:.3e})")
    return b


def minimize_quadratic(
    b: np.ndarray,
    lin: np.ndarray,
    start: np.ndarray,
    lam_bound: float,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> np.ndarray:
    """argmin over the simplex of x^T B x + 2 lin^T x for positive definite B.

    Solved by projected-gradient descent in the Euclidean metric with a
    Barzilai-Borwein trial step and Armijo backtracking, starting from the
    Euclidean projection of ``start`` and stopping when the iterate moves
    less than ``tol`` in sup norm. Steps are scaled by ``lam_bound``, an
    upper bound on the largest eigenvalue of B that the caller supplies,
    such as its largest absolute row sum, so each iteration costs one
    O(K^2) matrix-vector product and nothing O(K^3).

    B is trusted to be symmetric positive definite and ``lin`` to be a
    finite vector of matching size: only ``project_mahalanobis`` checks its
    metric. Raises ConvergenceError (carrying the best iterate and its
    movement residual) if the cap ``max_iter`` (default 10*K*(-log10 tol))
    is hit.
    """
    k = lin.size
    if max_iter is None:
        max_iter = int(10 * k * max(1.0, -np.log10(tol)))
    if max_iter < 1:
        raise InvalidInputError("max_iter must be >= 1")

    lin2 = 2.0 * lin
    x = project_euclidean(start)
    bx = b @ x
    f_x = float(x @ (bx + lin2))
    grad = 2.0 * bx + lin2
    step = 1.0 / (2.0 * lam_bound)
    step_lo, step_hi = 1.0 / (20.0 * lam_bound), 1e6 / lam_bound
    prev_x = None
    prev_grad = None
    for _ in range(max_iter):
        # Barzilai-Borwein trial step, safeguarded to a sane range.
        if prev_x is not None:
            dx = x - prev_x
            denom = float(dx @ (grad - prev_grad))
            if denom > 0:
                step = float(dx @ dx) / denom
        step = min(max(step, step_lo), step_hi)

        # Armijo backtracking on the proximal-gradient decrease condition.
        for _ in range(60):
            x_new = project_euclidean(x - step * grad)
            d = x_new - x
            bx_new = b @ x_new
            f_new = float(x_new @ (bx_new + lin2))
            # A trial that does not move passes, and is accepted before a step
            # that underflowed to 0 (B near the float range) makes this 0/0.
            dd = d @ d
            if dd == 0.0 or f_new <= f_x + float(grad @ d) + dd / (2.0 * step) + 1e-18:
                break
            step *= 0.5
        move = float(abs(d).max())
        prev_x, prev_grad = x, grad
        x, f_x = x_new, f_new
        # bx_new is the accepted trial's B x_new, free to become its gradient.
        grad = bx_new
        grad *= 2.0
        grad += lin2
        if move <= tol:
            return x
    raise ConvergenceError(
        f"simplex projection did not converge in {max_iter} iterations",
        iterate=x,
        residual=move,
    )


def project_mahalanobis(
    v: np.ndarray,
    b: np.ndarray,
    start: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> np.ndarray:
    """argmin over the simplex of (x - v)^T B (x - v) for positive definite B.

    Checks ``v`` (a finite vector) and ``b`` (a finite, symmetric, positive
    definite matrix of matching size), then minimizes the same objective up
    to a constant, x^T B x - 2 (B v)^T x, with ``minimize_quadratic``.
    ``start`` (default ``v``) warm-starts the iteration (callers stepping a
    slowly-moving decision benefit a lot).

    Raises InvalidMatrixError when B v overflows, and ConvergenceError
    (carrying the best iterate and its movement residual) if the cap
    ``max_iter`` (default 10*K*(-log10 tol)) is hit.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise InvalidInputError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("projection input must be finite")
    b = _check_psd(b, v.size)
    lin = -(b @ v)
    if not np.isfinite(lin).all():
        raise InvalidMatrixError("metric times the projection input overflows")
    lam_bound = float(np.max(np.sum(np.abs(b), axis=1)))
    return minimize_quadratic(b, lin, v if start is None else start, lam_bound, tol=tol, max_iter=max_iter)


def normalize_subset(p: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """Renormalize selected decision entries so they sum to 1.

    Returns the |S|-length vector p_i / sum_{j in S} p_j in the order given
    by ``subset`` (0-based indices). Ratios among the selected entries are
    preserved.

    Raises DegenerateSubsetError on an empty subset or zero subset mass;
    callers typically fall back to uniform weights over the subset.
    """
    p = np.asarray(p, dtype=float)
    subset = np.asarray(subset, dtype=int)
    if subset.size == 0:
        raise DegenerateSubsetError("subset is empty")
    if subset.min() < 0 or subset.max() >= p.size:
        raise InvalidInputError("subset index out of range")
    # Not np.unique: on numpy 2 its first call imports numpy.ma.
    if not np.diff(np.sort(subset)).all():
        raise InvalidInputError("subset contains duplicate indices")
    sel = p[subset]
    mass = sel.sum()
    if mass <= 0.0:
        raise DegenerateSubsetError("selected entries carry zero mass")
    return sel / mass
