import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import aggregators, decision, simplex
from fedfair.aggregators import (
    BaselineParams,
    FtrlState,
    OnsState,
    baseline_response,
    eg_step,
    ftrl_eg_step,
    hindsight_best,
    ons_step,
)
from fedfair.errors import InvalidInputError

import simplex_reference
from conftest import is_simplex, random_simplex


def entropic_descent_oracle(cum_grad, eta, iters=300):
    """Numeric argmin of <c, p> + eta * sum p log p over the simplex.

    Entropic mirror descent with step 1/(2 eta); in log space the iteration
    is a linear contraction, so a few hundred steps reach far below 1e-10.
    """
    k = cum_grad.size
    s = 1.0 / (2.0 * eta)
    w = np.log(np.full(k, 1.0 / k))
    for _ in range(iters):
        grad = cum_grad + eta * (1.0 + w)
        w = w - s * grad
        w -= w.max()
    p = np.exp(w)
    return p / p.sum()


def ons_objective_oracle(grads, decisions, alpha, beta, tol=1e-10, max_iter=200_000):
    """Projected-gradient argmin of the accumulated second-order objective.

    f(p) = <sum g, p> + alpha/2 ||p||^2 + beta/2 sum (<g_t, p - p_t>)^2,
    minimized over the simplex with a fixed 1/L step until the iterate stops
    moving. Independent of the Newton-point-plus-metric-projection route.
    """
    grads = np.asarray(grads)
    decisions = np.asarray(decisions)
    k = grads.shape[1]
    total = grads.sum(axis=0)
    offsets = np.einsum("ti,ti->t", grads, decisions)

    lip = alpha + beta * float((grads**2).sum())
    step = 1.0 / lip
    p = np.full(k, 1.0 / k)
    for _ in range(max_iter):
        margins = grads @ p - offsets
        grad = total + alpha * p + beta * (grads.T @ margins)
        p_new = simplex.project_euclidean(p - step * grad)
        if np.max(np.abs(p_new - p)) <= tol:
            return p_new
        p = p_new
    return p


def hindsight_grid_oracle(responses, step=1e-3):
    """Exhaustive grid search over the 2-simplex for K = 3."""
    grid = np.arange(0.0, 1.0 + step / 2, step)
    best, best_val = None, np.inf
    for a in grid:
        b = np.arange(0.0, 1.0 - a + step / 2, step)
        pts = np.stack([np.full_like(b, a), b, 1.0 - a - b], axis=1)
        vals = -np.log1p(pts @ responses.T).sum(axis=1)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best, best_val = pts[i], vals[i]
    return best


class TestBaselineResponse:
    def make(self, method, **kw):
        return BaselineParams(method, sample_sizes=np.array([1.0, 1.0]), **kw)

    def test_static_method_returns_zero(self, rng):
        params = self.make("fedavg")
        np.testing.assert_array_equal(
            baseline_response(params, rng.uniform(0, 5, size=2)), np.zeros(2)
        )

    def test_tilted_method_is_identity(self):
        params = self.make("term")
        losses = np.array([0.0, np.log(2)])
        np.testing.assert_array_equal(baseline_response(params, losses), losses)

    def test_q_weighted_log_losses(self):
        params = self.make("qfedavg", q=1.0)
        got = baseline_response(params, np.array([1.0, 2.0]))
        np.testing.assert_allclose(got, [0.0, np.log(2.0)], atol=1e-15)

    def test_q_weighted_zero_loss_clamped(self, caplog):
        params = self.make("qfedavg", q=2.0)
        with caplog.at_level("WARNING"):
            got = baseline_response(params, np.array([0.0, 1.0]))
        assert got[0] == pytest.approx(2.0 * np.log(1e-12))
        assert any("clamping" in r.message for r in caplog.records)

    def test_proportional_fair_saturation_clamped(self, caplog):
        params = self.make("propfair", m=3.0)
        with caplog.at_level("WARNING"):
            got = baseline_response(params, np.array([5.0, 1.0]))
        assert got[0] == pytest.approx(-np.log(1e-6))
        assert got[1] == pytest.approx(-np.log(2.0))
        assert any("saturated" in r.message for r in caplog.records)

    def test_invalid_params(self):
        with pytest.raises(InvalidInputError):
            self.make("qfedavg", q=-1.0)
        with pytest.raises(InvalidInputError):
            self.make("propfair", m=0.5)
        with pytest.raises(InvalidInputError):
            BaselineParams("fedavg", sample_sizes=np.array([0.0, 1.0]))


class TestEgStep:
    def test_zero_response_fixed_point(self, rng):
        p = random_simplex(rng, 6)
        np.testing.assert_allclose(eg_step(p, np.zeros(6), 1.0), p, atol=1e-15)

    def test_tilted_hand_example(self):
        # prior 1:1, identity response (0, ln 2), step 1/tilt with tilt=1
        got = eg_step(np.array([0.5, 0.5]), np.array([0.0, np.log(2.0)]), 1.0)
        np.testing.assert_allclose(got, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_static_weights_forever(self):
        prior = np.array([0.25, 0.75])
        p = prior
        for _ in range(10):
            p = eg_step(p, np.zeros(2), 1.0)
        np.testing.assert_allclose(p, prior, atol=1e-15)

    def test_zero_support_stays_zero(self):
        prev = np.array([0.0, 0.4, 0.6])
        got = eg_step(prev, np.array([5.0, 0.1, 0.2]), 1.0)
        assert got[0] == 0.0
        assert is_simplex(got)

    def test_overflow_safe_for_minimax_limit(self):
        # q -> inf surrogate produces huge responses; log-domain math must hold.
        prior = np.array([0.5, 0.5])
        response = 50.0 * np.log(np.array([10.0, 1000.0]))
        got = eg_step(prior, response, 1.0)
        assert is_simplex(got)
        assert got[1] == pytest.approx(1.0, abs=1e-12)


NAN, INF = float("nan"), float("inf")
HALVES, SIZES = np.array([0.5, 0.5]), np.array([1.0, 3.0])


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: BaselineParams("term", SIZES, tilt=0.0), id="tilt=0"),
        pytest.param(lambda: BaselineParams("term", SIZES, tilt=-1.0), id="tilt=-1"),
        pytest.param(lambda: BaselineParams("term", SIZES, tilt=1e-310), id="tilt=1e-310"),
        pytest.param(lambda: BaselineParams("term", SIZES, tilt=NAN), id="tilt=nan"),
        pytest.param(lambda: BaselineParams("term", SIZES, tilt=INF), id="tilt=inf"),
        pytest.param(lambda: BaselineParams("qfedavg", SIZES, q=NAN), id="q=nan"),
        pytest.param(lambda: BaselineParams("qfedavg", SIZES, q=INF), id="q=inf"),
        pytest.param(lambda: BaselineParams("propfair", SIZES, m=NAN), id="m=nan"),
        pytest.param(lambda: BaselineParams("propfair", SIZES, m=INF), id="m=inf"),
        pytest.param(lambda: eg_step(HALVES, np.array([NAN, 0.0]), 1.0), id="response=nan"),
        pytest.param(lambda: eg_step(HALVES, np.array([0.0, -INF]), 1.0), id="response=-inf"),
        pytest.param(lambda: eg_step(HALVES, np.zeros(2), NAN), id="eta=nan"),
        pytest.param(lambda: eg_step(HALVES, np.zeros(2), INF), id="eta=inf"),
        pytest.param(lambda: eg_step(HALVES, np.array([1e10, 0.0]), 1e-300), id="response/eta=inf"),
    ],
)
def test_baseline_rejects_non_finite_or_non_positive_parameters(make):
    # Unchecked, a zero tilt divides by zero in step_size and a NaN reaches
    # every entry of the decision, as does a response / eta that overflows
    # (the log-domain shift takes inf - inf).
    with pytest.raises(InvalidInputError):
        make()


class TestUnification:
    """One multiplicative step from the sample-size prior must reproduce each
    baseline's closed-form new decision to 1e-12 relative error."""

    def _prior(self, n):
        return n / n.sum()

    def test_static(self, rng):
        n = rng.integers(1, 100, size=6).astype(float)
        params = BaselineParams("fedavg", n)
        got = eg_step(self._prior(n), baseline_response(params, rng.uniform(0, 3, 6)), params.step_size)
        np.testing.assert_allclose(got, n / n.sum(), rtol=1e-12)

    def test_q_weighted(self, rng):
        for _ in range(20):
            n = rng.integers(1, 100, size=5).astype(float)
            q = float(rng.uniform(0.1, 5.0))
            losses = rng.uniform(0.05, 3.0, size=5)
            params = BaselineParams("qfedavg", n, q=q)
            got = eg_step(self._prior(n), baseline_response(params, losses), params.step_size)
            expect = n * losses**q
            np.testing.assert_allclose(got, expect / expect.sum(), rtol=1e-12)

    def test_tilted(self, rng):
        for _ in range(20):
            n = rng.integers(1, 100, size=5).astype(float)
            tilt = float(rng.uniform(0.1, 3.0))
            losses = rng.uniform(0.0, 3.0, size=5)
            params = BaselineParams("term", n, tilt=tilt)
            got = eg_step(self._prior(n), baseline_response(params, losses), params.step_size)
            expect = n * np.exp(tilt * losses)
            np.testing.assert_allclose(got, expect / expect.sum(), rtol=1e-12)

    def test_proportional_fair(self, rng):
        for _ in range(20):
            n = rng.integers(1, 100, size=5).astype(float)
            m = float(rng.uniform(2.0, 5.0))
            losses = rng.uniform(0.0, 1.5, size=5)
            params = BaselineParams("propfair", n, m=m)
            got = eg_step(self._prior(n), baseline_response(params, losses), params.step_size)
            expect = n / (m - losses)
            np.testing.assert_allclose(got, expect / expect.sum(), rtol=1e-12)

    def test_only_a_baseline_strategy_has_baseline_params(self):
        with pytest.raises(InvalidInputError, match="not a baseline strategy: 'aaggff-s'"):
            BaselineParams("aaggff-s", np.array([1.0, 3.0]))


class TestOnsStep:
    def test_zero_history_zero_gradient_uniform(self):
        state = OnsState.init(3, l_inf=0.5)
        state, p = ons_step(state, np.zeros(3))
        np.testing.assert_allclose(p, np.full(3, 1 / 3), atol=1e-9)

    def test_constant_gradients_keep_uniform(self):
        state = OnsState.init(4, l_inf=1.0)
        for _ in range(5):
            state, p = ons_step(state, np.full(4, -0.3))
            np.testing.assert_allclose(p, 0.25, atol=1e-7)

    def test_matches_direct_objective_minimization(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 5))
            l_inf = 0.5
            state = OnsState.init(k, l_inf)
            grads, played = [], []
            for _ in range(5):
                r = rng.uniform(0, l_inf, size=k)
                g = decision.decision_gradient(state.decision, r)
                played.append(state.decision.copy())
                grads.append(g)
                state, p = ons_step(state, g)
            oracle = ons_objective_oracle(grads, played, state.alpha, state.beta)
            assert np.max(np.abs(p - oracle)) <= 1e-6

    def test_state_invariants(self, rng):
        k, l_inf = 4, 0.25
        state = OnsState.init(k, l_inf)
        assert state.alpha == 4 * k * l_inf
        assert state.beta == 1 / (4 * l_inf)
        grads = []
        for _ in range(6):
            r = rng.uniform(0, l_inf, size=k)
            g = decision.decision_gradient(state.decision, r)
            grads.append(g)
            state, _ = ons_step(state, g)
        rebuilt = state.alpha * np.eye(k) + state.beta * sum(np.outer(g, g) for g in grads)
        assert np.max(np.abs(rebuilt - state.b_matrix)) <= 1e-9

    def test_gradient_bound_enforced(self):
        state = OnsState.init(3, l_inf=0.1)
        with pytest.raises(InvalidInputError):
            ons_step(state, np.array([0.5, 0.0, 0.0]))

    def test_decisions_stay_on_simplex(self, rng):
        state = OnsState.init(5, l_inf=0.2)
        for _ in range(2000):
            r = rng.uniform(0, 0.2, size=5)
            g = decision.decision_gradient(state.decision, r)
            state, p = ons_step(state, g)
            assert is_simplex(p)

    @given(
        k=st.integers(2, 64),
        steps=st.integers(1, 6),
        l_inf=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_metric_projection_of_newton_point(self, k, steps, l_inf, seed):
        # Reference: the metric projection of the Newton point -B^{-1} lin,
        # warm-started at the previous decision.
        rng = np.random.default_rng(seed)
        state = OnsState.init(k, l_inf)
        for _ in range(steps):
            r = rng.uniform(0, l_inf, size=k)
            prev = state.decision
            state, p = ons_step(state, decision.decision_gradient(prev, r))
            b, lin = state.b_matrix, state.linear_term
            reference = simplex.project_mahalanobis(np.linalg.solve(b, -lin), b, start=prev)
            assert np.max(np.abs(p - reference)) <= 1e-6

    def test_makes_no_cubic_call(self, rng, monkeypatch):
        def cubic(*_, **__):
            raise AssertionError("O(K^3) linear algebra in ons_step")

        for name in ("solve", "inv", "eigvalsh", "eigh", "eig", "cholesky", "lstsq", "pinv"):
            monkeypatch.setattr(np.linalg, name, cubic)
        state = OnsState.init(30, l_inf=0.1)
        for _ in range(5):
            r = rng.uniform(0, 0.1, size=30)
            state, p = ons_step(state, decision.decision_gradient(state.decision, r))
            assert is_simplex(p)


    def test_step_allocates_no_k_by_k_array(self, rng):
        k = 400
        state = OnsState.init(k, l_inf=0.1)
        g = decision.decision_gradient(state.decision, rng.uniform(0, 0.1, size=k))
        tracemalloc.start()
        try:
            ons_step(state, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k * k * 8 / 2

    def test_in_place_update_keeps_the_bits_of_the_out_of_place_sum(self, rng):
        k = 2 * simplex.ROW_BLOCK + 7
        state = OnsState.init(k, l_inf=0.1)
        b = state.b_matrix.copy()
        for _ in range(20):
            g = decision.decision_gradient(state.decision, rng.uniform(0, 0.1, size=k))
            b = b + state.beta * np.outer(g, g)
            state, _ = ons_step(state, g)
        assert np.array_equal(state.b_matrix, b)

    @pytest.mark.parametrize("k", [2, 20, simplex.ROW_BLOCK - 1, simplex.ROW_BLOCK, simplex.ROW_BLOCK + 1, 64, 500])
    def test_bits_equal_the_reference_step(self, k):
        # One short block, exact blocks and a ragged last block of the sweep
        # that adds g g^T to B and takes its row sums. Skewed responses move
        # the decision well off uniform, and at k = 2 onto a vertex.
        rng = np.random.default_rng(k)
        state = OnsState.init(k, l_inf=1.0)
        b, lin, p = state.b_matrix.copy(), state.linear_term, state.decision
        skew = rng.permutation(np.linspace(0.0, 1.0, k) ** 4)
        for _ in range(20):
            g = decision.decision_gradient(p, skew * rng.uniform(0.5, 1.0, size=k))
            b, lin, p = simplex_reference.ons_step(b, lin, p, state.beta, g)
            state, got = ons_step(state, g)
            np.testing.assert_array_equal(state.b_matrix, b)
            np.testing.assert_array_equal(state.linear_term, lin)
            np.testing.assert_array_equal(got, p)


def out_of_place_exp_weights(w):
    w = w - w.max()
    p = np.exp(w)
    return p / p.sum()


def test_entropic_updates_equal_the_out_of_place_formula(rng):
    # The shared in-place helper rounds as the separate temporaries did.
    k = 9
    prev = random_simplex(rng, k)
    prev[3] = 0.0
    prev /= prev.sum()
    response = rng.normal(size=k)
    with np.errstate(divide="ignore"):
        want = out_of_place_exp_weights(np.log(prev) + response / 0.7)
    assert np.array_equal(eg_step(prev, response, 0.7), want)
    assert want[3] == 0.0

    state = FtrlState.init(k, l_inf=1.0)
    for _ in range(3):
        g = rng.uniform(-1, 1, size=k)
        cum = state.cumulative_gradient + g
        eta = state.l_inf * np.sqrt(state.t + 2.0) / np.sqrt(np.log(k))
        state, p = ftrl_eg_step(state, g)
        assert np.array_equal(p, out_of_place_exp_weights(-cum / eta))


def test_negated_divisor_keeps_the_bits():
    # The FTRL step divides by -eta instead of negating the cumulative
    # gradient first; IEEE division rounds the magnitude alike either way.
    tiny = np.finfo(float).smallest_subnormal
    cum = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -2.5e-320, 1e300, -1e300, 1.7e308, 0.1, -7.3])
    cum = np.concatenate([cum, np.random.default_rng(5).normal(size=50) * 10.0 ** np.arange(-300, 300, 12)])
    for eta in (1.0, 0.3, 7.5, 1e-300, 1e300, tiny, np.sqrt(2.0) / np.sqrt(np.log(10_000.0))):
        with np.errstate(over="ignore", under="ignore"):
            assert np.divide(cum, -eta).tobytes() == (-cum / eta).tobytes()


class TestFtrlEgStep:
    def test_leaves_its_state_as_it_was(self, rng):
        state = FtrlState.init(5, l_inf=1.0)
        state, _ = ftrl_eg_step(state, rng.uniform(-1, 1, size=5))
        before = state.cumulative_gradient.copy()
        ftrl_eg_step(state, rng.uniform(-1, 1, size=5))
        assert np.array_equal(state.cumulative_gradient, before) and state.t == 1

    def test_constant_cumulative_gradient_uniform(self):
        state = FtrlState.init(6, l_inf=1.0)
        state, p = ftrl_eg_step(state, np.full(6, 0.7))
        np.testing.assert_allclose(p, 1 / 6, atol=1e-15)

    def test_two_coordinate_closed_form(self):
        a = 0.8
        state = FtrlState.init(2, l_inf=1.0)
        state, p = ftrl_eg_step(state, np.array([0.0, a]))
        eta = 1.0 * np.sqrt(2.0) / np.sqrt(np.log(2.0))
        assert p[0] == pytest.approx(1.0 / (1.0 + np.exp(-a / eta)), abs=1e-12)

    def test_single_client_trivial(self):
        state = FtrlState.init(1, l_inf=1.0)
        state, p = ftrl_eg_step(state, np.array([0.3]))
        np.testing.assert_array_equal(p, [1.0])

    def test_shift_invariance(self, rng):
        k = 7
        g = rng.uniform(-0.5, 0.5, size=k)
        s1, p1 = ftrl_eg_step(FtrlState.init(k, 1.0), g)
        s2, p2 = ftrl_eg_step(FtrlState.init(k, 1.0), g + 0.21)
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_matches_numeric_argmin(self, rng):
        for k in (2, 3, 4, 8):
            state = FtrlState.init(k, l_inf=1.0)
            for _ in range(4):
                g = rng.uniform(-1, 1, size=k)
                state, p = ftrl_eg_step(state, g)
            eta = state.l_inf * np.sqrt(state.t + 1.0) / np.sqrt(np.log(k))
            oracle = entropic_descent_oracle(state.cumulative_gradient, eta)
            assert np.max(np.abs(p - oracle)) <= 1e-6

    def test_gradient_bound_enforced(self):
        state = FtrlState.init(3, l_inf=0.5)
        with pytest.raises(InvalidInputError):
            ftrl_eg_step(state, np.array([1.0, 0.0, 0.0]))

    def test_decisions_stay_on_simplex(self, rng):
        state = FtrlState.init(10, l_inf=2.1)
        for _ in range(5000):
            state, p = ftrl_eg_step(state, rng.uniform(-2.1, 2.1, size=10))
            assert is_simplex(p)

    def test_eg_stays_on_simplex_randomized(self, rng):
        p = np.full(6, 1.0 / 6)
        for _ in range(3000):
            p = eg_step(p, rng.uniform(-2, 2, size=6), float(rng.uniform(0.2, 3)))
            assert is_simplex(p)


class TestHindsightBest:
    def test_single_response_vertex(self):
        r = np.array([0.2, 0.9])
        p = hindsight_best([r], gap_tol=1e-12)
        np.testing.assert_allclose(p, [0.0, 1.0], atol=1e-6)

    def test_single_response_lowest_index_wins_ties_near(self):
        # Distinct maximum: mass concentrates on the argmax coordinate.
        r = np.array([0.9, 0.2, 0.9 - 1e-3])
        p = hindsight_best([r], gap_tol=1e-12)
        assert np.argmax(p) == 0

    def test_constant_responses_uniform(self):
        rs = [np.full(4, 0.3)] * 5
        np.testing.assert_allclose(hindsight_best(rs), 0.25, atol=1e-12)

    def test_matches_grid_oracle(self, rng):
        responses = rng.uniform(0, 1, size=(20, 3))
        p = hindsight_best(responses)
        oracle = hindsight_grid_oracle(responses)
        assert np.max(np.abs(p - oracle)) <= 2e-3

    def test_beats_vertices_uniform_and_random_points(self, rng):
        responses = rng.uniform(0, 0.5, size=(30, 5))
        p = hindsight_best(responses)
        val = aggregators.cumulative_loss(p, responses)
        for i in range(5):
            e = np.zeros(5)
            e[i] = 1.0
            assert val <= aggregators.cumulative_loss(e, responses) + 1e-8
        assert val <= aggregators.cumulative_loss(np.full(5, 0.2), responses) + 1e-8
        for q in random_simplex(rng, 5, n=1000):
            assert val <= aggregators.cumulative_loss(q, responses) + 1e-8

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            hindsight_best(np.empty((0, 3)))

    def test_cumulative_loss_is_inf_outside_the_log_domain(self):
        responses = np.array([[0.5, -1.0], [0.5, -3.0]])
        assert aggregators.cumulative_loss(np.array([0.0, 1.0]), responses) == np.inf
        # 1 + <p, r> = 0 in one round is outside as well.
        assert aggregators.cumulative_loss(np.array([0.0, 1.0]), responses[:1]) == np.inf
        assert np.isfinite(aggregators.cumulative_loss(np.array([1.0, 0.0]), responses))

    def test_undefined_at_the_uniform_start_rejected(self):
        with pytest.raises(InvalidInputError, match="undefined at the uniform start"):
            hindsight_best([[0.5, -3.0]])

    @pytest.mark.parametrize("seed", range(3))
    def test_doubly_robust_responses_with_infeasible_vertices(self, seed):
        """Estimated responses with K >> T: the inverse-probability weights
        drive some entries below -1, so some vertices lie outside the log
        domain. The hindsight best stays inside it and is optimal."""
        rng = np.random.default_rng(seed)
        k, t, c = 200, 10, 0.05
        m = round(c * k)
        responses = np.array([
            decision.dr_estimate(rng.uniform(0, 1, size=m), np.sort(rng.choice(k, m, replace=False)), c, k)
            for _ in range(t)
        ])
        assert any(aggregators.cumulative_loss(e, responses) == np.inf for e in np.eye(k))
        p = hindsight_best(responses)
        assert is_simplex(p)
        growth = 1.0 + responses @ p
        assert np.all(growth > 0)
        grad = -responses.T @ (1.0 / growth)
        assert grad @ p - grad.min() <= 1e-6


class TestRegretBoundsSmoke:
    """Small-scale previews of the full-scale bound checks in the acceptance
    suite."""

    def test_ons_regret_small(self, rng):
        k, t = 5, 200
        l_inf = 1.0 / k
        state = OnsState.init(k, l_inf)
        responses, played = [], []
        for _ in range(t):
            r = rng.uniform(0, 1.0 / k, size=k)
            played.append(state.decision.copy())
            g = decision.decision_gradient(state.decision, r)
            state, _ = ons_step(state, g)
            responses.append(r)
        responses = np.asarray(responses)
        played_loss = sum(decision.decision_loss(p, r) for p, r in zip(played, responses))
        best = hindsight_best(responses)
        regret = played_loss - aggregators.cumulative_loss(best, responses)
        bound = 2 * l_inf * k * (1 + np.log(1 + t / (16 * k)))
        assert -1e-8 <= regret <= bound

    def test_ftrl_regret_small(self, rng):
        k, t = 8, 400
        state = FtrlState.init(k, l_inf=1.0)
        p = np.full(k, 1.0 / k)
        responses, played = [], []
        for _ in range(t):
            r = rng.uniform(0, 1, size=k)
            played.append(p)
            g = decision.decision_gradient(p, r)
            state, p = ftrl_eg_step(state, g)
            responses.append(r)
        responses = np.asarray(responses)
        played_loss = sum(decision.decision_loss(q, r) for q, r in zip(played, responses))
        best = hindsight_best(responses)
        regret = played_loss - aggregators.cumulative_loss(best, responses)
        bound = 2 * 1.0 * np.sqrt(t * np.log(k))
        assert -1e-8 <= regret <= bound
