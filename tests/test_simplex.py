import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import simplex
from fedfair.errors import (
    ConvergenceError,
    DegenerateSubsetError,
    InvalidInputError,
    InvalidMatrixError,
)

import simplex_reference
from conftest import is_simplex, random_simplex


def qp_face_oracle(v, b):
    """Brute-force Mahalanobis projection by enumerating all 2^K - 1 supports.

    For each candidate support solve the equality-constrained quadratic
    problem with the complement pinned at zero, keep feasible candidates, and
    return the feasible candidate with the least objective.
    """
    k = v.size
    best, best_val = None, np.inf
    for mask in range(1, 2**k):
        support = np.array([i for i in range(k) if mask >> i & 1])
        fixed = np.array([i for i in range(k) if not mask >> i & 1], dtype=int)
        z_fixed = -v[fixed]
        bss = b[np.ix_(support, support)]
        rhs_lin = -2.0 * (b[np.ix_(support, fixed)] @ z_fixed) if fixed.size else np.zeros(support.size)
        kkt = np.zeros((support.size + 1, support.size + 1))
        kkt[: support.size, : support.size] = 2.0 * bss
        kkt[: support.size, -1] = 1.0
        kkt[-1, : support.size] = 1.0
        rhs = np.concatenate([rhs_lin, [1.0 - v[support].sum()]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        x = np.zeros(k)
        x[support] = sol[: support.size] + v[support]
        if np.any(x < -1e-10):
            continue
        d = x - v
        val = d @ (b @ d)
        if val < best_val - 1e-15:
            best, best_val = np.maximum(x, 0.0), val
    return best


def euclidean_grid_oracle(v, step=1e-3):
    """Fine-grid QP oracle over the 1-simplex for 2-d inputs."""
    grid = np.arange(0.0, 1.0 + step, step)
    pts = np.stack([grid, 1.0 - grid], axis=1)
    i = np.argmin(((pts - v) ** 2).sum(axis=1))
    return pts[i]


class TestProjectEuclidean:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(simplex.project_euclidean(v), v, atol=1e-15)

    def test_symmetric_uniform_shift(self):
        np.testing.assert_allclose(
            simplex.project_euclidean(np.array([0.8, 0.8])), [0.5, 0.5], atol=1e-15
        )

    def test_vertex_case_matches_grid_oracle(self):
        v = np.array([2.0, 0.0])
        got = simplex.project_euclidean(v)
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-12)
        oracle = euclidean_grid_oracle(v)
        assert np.max(np.abs(got - oracle)) <= 1e-3

    def test_idempotent(self, rng):
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 9)) * 3
            p = simplex.project_euclidean(v)
            np.testing.assert_allclose(simplex.project_euclidean(p), p, atol=1e-12)

    def test_closer_than_random_simplex_points(self, rng):
        # 1000 random inputs, each compared against 1000 random simplex points.
        k = 5
        inputs = rng.normal(size=(1000, k)) * 4
        others = random_simplex(rng, k, n=1000)
        for v in inputs:
            p = simplex.project_euclidean(v)
            assert is_simplex(p)
            d_proj = np.linalg.norm(p - v)
            d_other = np.linalg.norm(others - v, axis=1)
            assert np.all(d_proj <= d_other + 1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            simplex.project_euclidean(np.array([np.nan, 0.0]))
        with pytest.raises(InvalidInputError):
            simplex.project_euclidean(np.array([np.inf, 0.0]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_output_is_simplex(self, entries):
        p = simplex.project_euclidean(np.array(entries))
        assert is_simplex(p)

    @pytest.mark.parametrize("kind", ["ties", "negative", "one-hot", "mixed magnitudes"])
    def test_bits_equal_the_reference(self, rng, kind):
        draw = {
            "ties": lambda k: rng.integers(-3, 4, size=k) / 2.0,
            "negative": lambda k: -rng.exponential(size=k) * 10.0 ** rng.integers(-3, 4),
            "one-hot": lambda k: np.eye(k)[rng.integers(k)] * 10.0 ** rng.integers(-3, 4),
            "mixed magnitudes": lambda k: rng.standard_normal(k) * 10.0 ** rng.integers(-8, 9, size=k),
        }[kind]
        for k in [1, 2, 3, 5, 20, 64, 500] * 30:
            v = draw(k)
            np.testing.assert_array_equal(simplex.project_euclidean(v), simplex_reference.project_euclidean(v))

    @pytest.mark.parametrize(
        "v, want",
        [
            ([1e16, 0.0], [1.0, 0.0]),
            ([1e17, 1e17], [0.5, 0.5]),
            ([3e16], [1.0]),
            ([1e300, -1e300], [1.0, 0.0]),
            ([-1e300, 1.7e308, -1.7e308], [0.0, 1.0, 0.0]),
        ],
        ids=["1e16", "two-1e17", "3e16", "1e300", "1.7e308"],
    )
    def test_large_finite_input_projects_as_its_shift_by_the_max(self, v, want):
        # u - (u - 1) rounds to 0 for a largest entry u of about 1e16 or
        # more, so no support size passes the threshold test; the shift by
        # the max, which overflows for the last input, is the same point.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(simplex.project_euclidean(np.array(v)), want)


def random_psd(rng, k, spread=3.0):
    g = rng.normal(size=(k, k))
    return 0.1 * np.eye(k) + spread * (g @ g.T) / k


def assert_kkt(x, v, b):
    """KKT conditions of the Mahalanobis projection of ``v`` at ``x``: the
    gradient is a constant on the support and >= that constant off it."""
    grad = 2.0 * (b @ (x - v))
    free = x > 1e-9
    mu = grad[free].mean()
    assert np.max(np.abs(grad[free] - mu)) <= 1e-5
    assert np.all(grad[~free] >= mu - 1e-5)


class TestProjectMahalanobis:
    def test_feasible_point_fixed(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 6))
            p = random_simplex(rng, k)
            b = random_psd(rng, k)
            np.testing.assert_allclose(simplex.project_mahalanobis(p, b), p, atol=1e-7)

    def test_identity_metric_reduces_to_euclidean(self):
        got = simplex.project_mahalanobis(np.array([0.8, 0.8]), np.eye(2))
        np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-8)

    def test_scaled_identity_equals_euclidean(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 7))
            v = rng.normal(size=k) * 3
            c = float(rng.uniform(0.1, 10))
            got = simplex.project_mahalanobis(v, c * np.eye(k))
            np.testing.assert_allclose(got, simplex.project_euclidean(v), atol=1e-9)

    def test_matches_face_enumeration_oracle(self, rng):
        for _ in range(60):
            k = int(rng.integers(2, 7))
            v = rng.normal(size=k) * 2
            b = random_psd(rng, k)
            got = simplex.project_mahalanobis(v, b)
            oracle = qp_face_oracle(v, b)
            assert np.max(np.abs(got - oracle)) <= 1e-6

    def test_seeded_k3_instance_matches_oracle(self):
        r = np.random.default_rng(12345)
        v = r.normal(size=3) * 2
        b = random_psd(r, 3)
        got = simplex.project_mahalanobis(v, b)
        oracle = qp_face_oracle(v, b)
        assert np.max(np.abs(got - oracle)) <= 1e-6

    def test_objective_beats_vertices_and_euclidean(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 7))
            v = rng.normal(size=k) * 2
            b = random_psd(rng, k)
            x = simplex.project_mahalanobis(v, b)

            def obj(y):
                d = y - v
                return d @ (b @ d)

            val = obj(x)
            for i in range(k):
                e = np.zeros(k)
                e[i] = 1.0
                assert val <= obj(e) + 1e-9
            assert val <= obj(simplex.project_euclidean(v)) + 1e-9

    def test_kkt_residual(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 7))
            v = rng.normal(size=k) * 2
            b = random_psd(rng, k)
            assert_kkt(simplex.project_mahalanobis(v, b, tol=1e-10), v, b)

    def test_rejects_non_pd_matrix(self):
        with pytest.raises(InvalidMatrixError):
            simplex.project_mahalanobis(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(InvalidMatrixError):
            simplex.project_mahalanobis(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_convergence_error_carries_diagnostics(self):
        # Instance verified to need several iterations at tol=1e-8.
        r = np.random.default_rng(0)
        for _ in range(2):
            g = r.normal(size=(4, 4))
            b = 0.01 * np.eye(4) + g @ g.T
            v = r.normal(size=4) * 3
        with pytest.raises(ConvergenceError) as err:
            simplex.project_mahalanobis(v, b, max_iter=1)
        assert err.value.iterate is not None
        assert err.value.residual is not None

    def test_accepts_array_like_metric(self):
        got = simplex.project_mahalanobis([0.8, 0.8], [[1, 0], [0, 1]])
        np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-8)

    def test_size_mismatch_rejected_before_eigendecomposition(self, monkeypatch):
        def no_eigvalsh(_):
            raise AssertionError("eigvalsh called on a mismatched metric")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        with pytest.raises(InvalidInputError):
            simplex.project_mahalanobis([0.8, 0.8], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(InvalidInputError):
            simplex.project_mahalanobis(np.zeros(3), np.eye(2))

    @pytest.mark.parametrize(
        "v, b, error",
        [
            ([np.nan, 0.0], np.eye(2), InvalidInputError),
            ([np.inf, 0.0], np.eye(2), InvalidInputError),
            ([[0.5, 0.5]], np.eye(2), InvalidInputError),
            ([0.5, 0.5], np.ones((2, 3)), InvalidMatrixError),
            ([0.5, 0.5], np.ones(2), InvalidMatrixError),
            ([0.5, 0.5], [[1.0, np.nan], [np.nan, 1.0]], InvalidMatrixError),
            ([0.5, 0.5], [[1.0, np.inf], [np.inf, 1.0]], InvalidMatrixError),
            ([0.5, 0.5], [[1.0, 2.0], [2.0, 1.0]], InvalidMatrixError),
        ],
    )
    def test_public_boundary_rejects(self, v, b, error):
        with pytest.raises(error):
            simplex.project_mahalanobis(v, b)

    def test_equals_minimize_quadratic_on_shifted_objective(self, rng):
        # (x - v)^T B (x - v) = x^T B x - 2 (B v)^T x + const.
        for _ in range(30):
            k = int(rng.integers(2, 9))
            v = rng.normal(size=k) * 2
            b = random_psd(rng, k)
            got = simplex.minimize_quadratic(b, -(b @ v), v, simplex._abs_row_sum_bound(b))
            np.testing.assert_array_equal(got, simplex.project_mahalanobis(v, b))

    def test_converges_when_row_sums_overstate_the_spectrum(self):
        # Identity plus a small symmetric +-1 perturbation: the absolute row
        # sums (the step scale) are several times the largest eigenvalue.
        r = np.random.default_rng(7)
        k = 200
        signs = np.triu(r.choice([-1.0, 1.0], size=(k, k)), 1)
        b = np.eye(k) + 0.025 * (signs + signs.T)
        eigs = np.linalg.eigvalsh(b)
        assert eigs[0] > 0.0
        assert np.max(np.abs(b).sum(axis=1)) >= 3.0 * eigs[-1]
        v = r.normal(size=k) * 0.01
        x = simplex.project_mahalanobis(v, b, tol=1e-10)
        assert is_simplex(x)
        assert_kkt(x, v, b)

    def test_metric_near_the_float_range_keeps_a_feasible_point(self, monkeypatch):
        # The row-sum bound overflows, so every step size is 0 and the first
        # trial does not move: it is accepted without dividing by the zero
        # step, and the iteration stops.
        calls = []
        project = simplex.project_euclidean
        monkeypatch.setattr(simplex, "project_euclidean", lambda v: calls.append(v) or project(v))
        v = np.array([0.2, 0.3, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simplex.project_mahalanobis(v, 1.7e308 * np.eye(3))
        np.testing.assert_array_equal(got, v)
        assert len(calls) == 2

    def test_large_finite_input(self):
        np.testing.assert_array_equal(simplex.project_mahalanobis([1e17, 1e17], np.eye(2)), [0.5, 0.5])

    def test_metric_overflowing_on_a_finite_input_names_the_metric(self):
        # v is finite, but B v overflows: the metric is at fault, not v.
        with np.errstate(over="ignore"), pytest.raises(InvalidMatrixError, match="metric"):
            simplex.project_mahalanobis(np.array([5.0, -3.0, 1.0]), 1.7e308 * np.eye(3))


class TestAbsRowSumBound:
    @pytest.mark.parametrize("k", [1, 5, simplex.ROW_BLOCK - 1, 2 * simplex.ROW_BLOCK + 11])
    def test_equals_the_whole_matrix_reduction(self, rng, k):
        b = rng.standard_normal((k, k)) * 10.0 ** rng.integers(-6, 7, size=(k, k))
        assert simplex._abs_row_sum_bound(b) == np.max(np.sum(np.abs(b), axis=1))


class TestNormalizeSubset:
    def test_full_set_identity(self):
        p = np.array([0.1, 0.2, 0.7])
        np.testing.assert_allclose(simplex.normalize_subset(p, np.arange(3)), p, atol=1e-15)

    def test_hand_computed_pair(self):
        p = np.array([0.1, 0.2, 0.7])
        np.testing.assert_allclose(
            simplex.normalize_subset(p, np.array([1, 2])), [2.0 / 9.0, 7.0 / 9.0], atol=1e-15
        )

    def test_equal_entries_uniform(self):
        p = np.full(5, 0.2)
        np.testing.assert_allclose(
            simplex.normalize_subset(p, np.array([0, 3])), [0.5, 0.5], atol=1e-15
        )

    def test_reembed_then_normalize_is_idempotent(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 9))
            p = random_simplex(rng, k)
            m = int(rng.integers(1, k + 1))
            subset = np.sort(rng.choice(k, size=m, replace=False))
            once = simplex.normalize_subset(p, subset)
            embedded = np.zeros(k)
            embedded[subset] = once
            twice = simplex.normalize_subset(embedded, subset)
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_preserves_ratios(self, rng):
        p = np.array([0.05, 0.15, 0.3, 0.5])
        sub = simplex.normalize_subset(p, np.array([1, 3]))
        assert sub[1] / sub[0] == pytest.approx(0.5 / 0.15, rel=1e-12)

    def test_empty_subset_rejected(self):
        with pytest.raises(DegenerateSubsetError):
            simplex.normalize_subset(np.array([1.0]), np.array([], dtype=int))

    def test_zero_mass_rejected(self):
        with pytest.raises(DegenerateSubsetError):
            simplex.normalize_subset(np.array([0.0, 0.0, 1.0]), np.array([0, 1]))

    def test_bad_indices_rejected(self):
        with pytest.raises(InvalidInputError):
            simplex.normalize_subset(np.array([0.5, 0.5]), np.array([0, 5]))
        with pytest.raises(InvalidInputError):
            simplex.normalize_subset(np.array([0.5, 0.5]), np.array([0, 0]))
