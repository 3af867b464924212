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

import numpy as np

from .errors import ConvergenceError, DegenerateSubsetError, InvalidInputError, InvalidMatrixError

SIMPLEX_SUM_TOL = 1e-9
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
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise InvalidInputError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("projection input must be finite")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


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


def _abs_row_sum_bound(b: np.ndarray) -> float:
    """Largest absolute row sum of the square matrix ``b``, an upper bound on
    its largest eigenvalue, computed ``ROW_BLOCK`` rows at a time so that no
    K x K temporary is made. For a C-ordered ``b``, such as the learner's,
    it is ``np.max(np.sum(np.abs(b), axis=1))`` bit for bit; numpy sums the
    rows of other layouts in another order."""
    k = b.shape[0]
    scratch = np.empty((min(ROW_BLOCK, k), k))
    sums = np.empty(k)
    for lo in range(0, k, ROW_BLOCK):
        block = np.abs(b[lo : lo + ROW_BLOCK], out=scratch[: min(ROW_BLOCK, k - lo)])
        np.sum(block, axis=1, out=sums[lo : lo + ROW_BLOCK])
    return float(np.max(sums))


def minimize_quadratic(
    b: np.ndarray,
    lin: np.ndarray,
    start: np.ndarray,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> np.ndarray:
    """argmin over the simplex of x^T B x + 2 lin^T x for positive definite B.

    Solved by projected-gradient descent in the Euclidean metric with a
    Barzilai-Borwein trial step and Armijo backtracking, starting from the
    Euclidean projection of ``start`` and stopping when the iterate moves
    less than ``tol`` in sup norm. Steps are scaled by the largest absolute
    row sum of B, an upper bound on its largest eigenvalue, so each
    iteration costs O(K^2) matrix-vector work and nothing O(K^3).

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

    lam_bound = _abs_row_sum_bound(b)
    lin2 = 2.0 * lin
    x = project_euclidean(start)
    bx = b @ x
    f_x = float(x @ (bx + lin2))
    grad = 2.0 * bx + lin2
    step = 1.0 / (2.0 * lam_bound)
    prev_x = None
    prev_grad = None
    for _ in range(max_iter):
        # Barzilai-Borwein trial step, safeguarded to a sane range.
        if prev_x is not None:
            dx = x - prev_x
            dg = grad - prev_grad
            denom = float(dx @ dg)
            if denom > 0:
                step = float(dx @ dx) / denom
        step = float(np.clip(step, 1.0 / (20.0 * lam_bound), 1e6 / lam_bound))

        # Armijo backtracking on the proximal-gradient decrease condition.
        for _ in range(60):
            x_new = project_euclidean(x - step * grad)
            d = x_new - x
            bx_new = b @ x_new
            f_new = float(x_new @ (bx_new + lin2))
            if f_new <= f_x + grad @ d + (d @ d) / (2.0 * step) + 1e-18:
                break
            step *= 0.5
        move = float(np.max(np.abs(d)))
        prev_x, prev_grad = x, grad
        x, f_x = x_new, f_new
        grad = 2.0 * bx_new + lin2
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

    Raises ConvergenceError (carrying the best iterate and its movement
    residual) if the cap ``max_iter`` (default 10*K*(-log10 tol)) is hit.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise InvalidInputError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("projection input must be finite")
    b = _check_psd(b, v.size)
    return minimize_quadratic(b, -(b @ v), v if start is None else start, tol=tol, max_iter=max_iter)


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
