import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240515)


def random_simplex(rng, k, n=None):
    """Uniform Dirichlet(1) draws on the (k-1)-simplex."""
    if n is None:
        return rng.dirichlet(np.ones(k))
    return rng.dirichlet(np.ones(k), size=n)


def is_simplex(v, tol=1e-9) -> bool:
    """True if ``v`` is a finite 1-d vector, entrywise >= -tol, summing to 1 within ``tol``."""
    v = np.asarray(v, dtype=float)
    return bool(
        v.ndim == 1
        and v.size >= 1
        and np.all(np.isfinite(v))
        and np.all(v >= -tol)
        and abs(v.sum() - 1.0) <= tol
    )
