"""Plain reference versions of the simplex kernels and of the Online Newton
Step update, written as directly as their formulas read. The kernels in
fedfair sweep, sort and update in place to save numpy calls and passes, and
must return these references' results bit for bit."""

import numpy as np


def project_euclidean(v):
    """Sort-and-threshold projection onto the simplex; raises IndexError
    when no support size passes the test (a largest entry near 1e16 or more)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def minimize_quadratic(b, lin, start, tol=1e-8):
    """argmin over the simplex of x^T B x + 2 lin^T x: projected gradient
    with a Barzilai-Borwein trial step and Armijo backtracking, its steps
    scaled by the largest absolute row sum of B."""
    k = lin.size
    max_iter = int(10 * k * max(1.0, -np.log10(tol)))
    lam_bound = float(np.max(np.sum(np.abs(b), axis=1)))
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
        if prev_x is not None:
            dx = x - prev_x
            dg = grad - prev_grad
            denom = float(dx @ dg)
            if denom > 0:
                step = float(dx @ dx) / denom
        step = min(max(step, step_lo), step_hi)
        for _ in range(60):
            x_new = project_euclidean(x - step * grad)
            d = x_new - x
            bx_new = b @ x_new
            f_new = float(x_new @ (bx_new + lin2))
            dd = d @ d
            if dd == 0.0 or f_new <= f_x + float(grad @ d) + dd / (2.0 * step) + 1e-18:
                break
            step *= 0.5
        move = float(abs(d).max())
        prev_x, prev_grad = x, grad
        x, f_x = x_new, f_new
        grad = 2.0 * bx_new + lin2
        if move <= tol:
            return x
    raise AssertionError("reference minimizer did not converge")


def ons_step(b, linear_term, decision, beta, g):
    """(B, linear term, decision) after one Online Newton Step on the
    gradient ``g`` at ``decision``, out of place."""
    b = b + beta * np.outer(g, g)
    lin = linear_term + (1.0 - beta * float(g @ decision)) * g
    return b, lin, minimize_quadratic(b, lin, decision)
