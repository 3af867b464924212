import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import aggregators, decision
from fedfair.errors import DegenerateRoundError, InvalidInputError
from fedfair.federation import FederationConfig
from fedfair.transform import ResponseRange, Setting, default_range

from conftest import random_simplex


def finite_difference_gradient(p, r, h=1e-6):
    """Central differences of the decision loss, coordinate by coordinate."""
    g = np.zeros_like(p)
    for i in range(p.size):
        e = np.zeros_like(p)
        e[i] = h
        g[i] = (decision.decision_loss(p + e, r) - decision.decision_loss(p - e, r)) / (2 * h)
    return g


class TestDecisionLoss:
    def test_constant_response_uniform(self):
        p = np.full(4, 0.25)
        r = np.full(4, 0.3)
        assert decision.decision_loss(p, r) == pytest.approx(-np.log(1.3), abs=1e-14)

    def test_zero_response(self):
        assert decision.decision_loss(np.array([0.5, 0.5]), np.zeros(2)) == 0.0

    def test_vertex_selects_coordinate(self):
        p = np.array([1.0, 0.0])
        r = np.array([0.2, 0.9])
        assert decision.decision_loss(p, r) == pytest.approx(-np.log(1.2), abs=1e-14)

    def test_value_range(self, rng):
        lo, hi = 0.05, 0.8
        for _ in range(200):
            k = int(rng.integers(2, 8))
            p = random_simplex(rng, k)
            r = rng.uniform(lo, hi, size=k)
            val = decision.decision_loss(p, r)
            assert -np.log(1 + hi) - 1e-12 <= val <= -np.log(1 + lo) + 1e-12

    def test_strict_convexity_margin(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 6))
            r = rng.uniform(0, 1, size=k)
            p, q = random_simplex(rng, k), random_simplex(rng, k)
            if abs((p - q) @ r) < 1e-3:
                continue
            gamma = float(rng.uniform(0.2, 0.8))
            mid = decision.decision_loss(gamma * p + (1 - gamma) * q, r)
            chord = gamma * decision.decision_loss(p, r) + (1 - gamma) * decision.decision_loss(q, r)
            assert mid < chord - 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            decision.decision_loss(np.array([1.0]), np.array([0.1, 0.2]))


class TestDecisionGradient:
    def test_zero_response_gives_zero(self):
        np.testing.assert_array_equal(
            decision.decision_gradient(np.array([0.3, 0.7]), np.zeros(2)), np.zeros(2)
        )

    def test_symmetric_case(self):
        c = 0.4
        got = decision.decision_gradient(np.full(5, 0.2), np.full(5, c))
        np.testing.assert_allclose(got, -c / (1 + c), atol=1e-14)

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            k = 4
            p = random_simplex(rng, k)
            r = rng.uniform(0, 1, size=k)
            g = decision.decision_gradient(p, r)
            fd = finite_difference_gradient(p, r)
            assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-3)) <= 1e-5

    def test_gradient_bound(self, rng):
        rr = ResponseRange(0.1, 0.7)
        bound = decision.lipschitz_full(rr)
        k = 6
        p = random_simplex(rng, k, n=10_000)
        r = rng.uniform(rr.c1, rr.c2, size=(10_000, k))
        growth = 1.0 + np.einsum("ij,ij->i", p, r)
        sup = np.max(np.abs(r / growth[:, None]))
        assert sup <= bound + 1e-12


def gradient_then_loss(p, r):
    """The composition ``decision.full_round`` replaces, in the order the
    cross-silo learner ran it."""
    return decision.decision_gradient(p, r), decision.decision_loss(p, r)


class TestFullRound:
    """``decision.full_round`` returns and raises what the gradient and the
    loss do, one after the other."""

    @pytest.mark.parametrize("k", [1, 2, 20, 500])
    def test_bits_equal_gradient_then_loss(self, rng, k):
        for _ in range(50):
            p = random_simplex(rng, k) ** rng.choice([1, 12])
            p /= p.sum()
            # Some entries negative, as in estimated responses; growth stays >= 0.5.
            r = rng.uniform(-0.5, 1.0, size=k) * 10.0 ** rng.integers(-6, 1)
            got = outcome(decision.full_round, p, r)
            assert isinstance(got, list), got
            assert got == outcome(gradient_then_loss, p, r)

    @pytest.mark.parametrize(
        "p, r",
        [
            ([0.5, 0.5], [0.1, 0.2, 0.3]),
            ([[0.5, 0.5]], [[0.1, 0.2]]),
            ([0.5, np.nan], [0.1, 0.2, 0.3]),
            ([0.5, np.nan], [0.1, 0.2]),
            ([0.5, 0.5], [np.inf, 0.2]),
            ([1.0, 0.0], [-1.0, 5.0]),
            ([0.5, 0.5], [-3.0, np.nan]),
            ([0.25, 0.75], [-4.0, -1.0]),
        ],
        ids=["shape", "two-d", "shape-before-finite", "nan", "inf", "zero-growth", "finite-before-growth", "negative-growth"],
    )
    def test_raises_what_the_gradient_raises_first(self, p, r):
        got = outcome(decision.full_round, p, r)
        assert got[0] is InvalidInputError
        assert got == outcome(gradient_then_loss, p, r)


class TestDrEstimate:
    def test_full_participation_identity(self, rng):
        k = 8
        r = rng.uniform(0, 1, size=k)
        got = decision.dr_estimate(r, np.arange(k), 1.0, k)
        np.testing.assert_allclose(got, r, atol=1e-12)

    def test_single_observation_floods_mean(self):
        got = decision.dr_estimate(np.array([0.42]), np.array([2]), 0.2, 5)
        np.testing.assert_allclose(got, 0.42, atol=1e-15)

    def test_hand_computed_example(self):
        # K=3, S={0,1}, c=2/3, r=(0.3, 0.6): mean 0.45
        got = decision.dr_estimate(np.array([0.3, 0.6]), np.array([0, 1]), 2.0 / 3.0, 3)
        np.testing.assert_allclose(got, [0.225, 0.675, 0.45], atol=1e-12)

    def test_unobserved_entries_equal_imputed_mean(self, rng):
        k = 10
        subset = np.array([1, 4, 7])
        obs = rng.uniform(0, 1, size=3)
        got = decision.dr_estimate(obs, subset, 0.3, k)
        mask = np.ones(k, dtype=bool)
        mask[subset] = False
        np.testing.assert_allclose(got[mask], obs.mean(), atol=1e-12)

    def test_empty_subset_rejected(self):
        with pytest.raises(DegenerateRoundError):
            decision.dr_estimate(np.array([]), np.array([], dtype=int), 0.5, 4)

    def test_unbiased_with_fixed_reference(self, rng):
        # Exactly unbiased when the imputation constant is held fixed: the
        # indicator expectation is the inclusion probability and the rest is
        # linear. Monte Carlo at modest n; criterion-scale runs live in the
        # acceptance suite.
        k, c, n = 12, 0.25, 40_000
        m = round(c * k)
        r = rng.uniform(0, 1, size=k)
        mu = r.mean()
        total = np.zeros(k)
        totalsq = np.zeros(k)
        for _ in range(n):
            s = rng.choice(k, size=m, replace=False)
            est = decision.dr_estimate(r[s], s, c, k, imputed=mu)
            total += est
            totalsq += est**2
        mean = total / n
        se = np.sqrt(np.maximum(totalsq / n - mean**2, 0) / n)
        assert np.all(np.abs(mean - r) <= 4 * np.maximum(se, 1e-12))

    def test_observed_mean_imputation_bias_formula(self, rng):
        # With the observed mean as imputation, fixed-size sampling couples
        # the indicator and the imputed value: the estimate acquires the
        # finite-sample bias (k - m) (mean_others - r_i) / (k m) per
        # coordinate. Verify the formula by Monte Carlo.
        k, c, n = 12, 0.25, 60_000
        m = round(c * k)
        r = rng.uniform(0, 1, size=k)
        total = np.zeros(k)
        for _ in range(n):
            s = rng.choice(k, size=m, replace=False)
            total += decision.dr_estimate(r[s], s, c, k)
        mean = total / n
        mu_others = (r.sum() - r) / (k - 1)
        predicted = (k - m) * (mu_others - r) / (k * m)
        np.testing.assert_allclose(mean - r, predicted, atol=5e-3)


class TestLinearizedGradient:
    def test_reference_equals_response(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 7))
            p = random_simplex(rng, k)
            r = rng.uniform(0, 1, size=k)
            got = decision.linearized_gradient(p, r, r)
            np.testing.assert_allclose(got, decision.decision_gradient(p, r), atol=1e-14)

    def test_zero_reference(self, rng):
        p = random_simplex(rng, 5)
        r = rng.uniform(0, 1, size=5)
        np.testing.assert_allclose(decision.linearized_gradient(p, r, np.zeros(5)), -r, atol=1e-14)

    def test_second_order_error_decay(self, rng):
        # Halving the response perturbation must shrink the linearization
        # error by about 4x (second-order remainder).
        for _ in range(20):
            k = 5
            p = random_simplex(rng, k)
            r0 = rng.uniform(0.2, 0.8, size=k)
            d = rng.normal(size=k)
            d /= np.linalg.norm(d)

            def err(eps):
                r = r0 + eps * d
                exact = decision.decision_gradient(p, r)
                approx = decision.linearized_gradient(p, r, r0)
                return np.max(np.abs(approx - exact))

            e1, e2 = err(1e-2), err(5e-3)
            if e1 < 1e-12:
                continue
            assert e2 <= e1 / 4 * 1.6

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            decision.linearized_gradient(np.array([1.0]), np.array([1.0]), np.array([1.0, 2.0]))

    def test_unbiased_over_dr_estimates_fixed_reference(self, rng):
        k, c, n = 10, 0.3, 40_000
        m = round(c * k)
        p = random_simplex(rng, k)
        r = rng.uniform(0, 0.5, size=k)
        r0 = np.full(k, r.mean())
        target = decision.linearized_gradient(p, r, r0)
        total = np.zeros(k)
        totalsq = np.zeros(k)
        for _ in range(n):
            s = rng.choice(k, size=m, replace=False)
            est = decision.dr_estimate(r[s], s, c, k, imputed=r.mean())
            g = decision.linearized_gradient(p, est, r0)
            total += g
            totalsq += g**2
        mean = total / n
        se = np.sqrt(np.maximum(totalsq / n - mean**2, 0) / n)
        assert np.all(np.abs(mean - target) <= 4 * np.maximum(se, 1e-12))


def dense_round(p, observed, subset, c, k, l_inf):
    """The composition ``decision.dr_round`` replaces, in the order the
    cross-device learner ran it: estimate, linearized gradient, the FTRL
    step's sup-norm check, decision loss."""
    response = decision.dr_estimate(observed, subset, c, k)
    gradient = decision.linearized_gradient(p, response, np.full(k, np.mean(observed)))
    aggregators.ftrl_eg_step(aggregators.FtrlState.init(k, l_inf), gradient)
    return response, gradient, decision.decision_loss(p, response)


def outcome(fn, *args):
    """The bytes of what ``fn(*args)`` returns, or the type and text of what it raises."""
    try:
        return [np.asarray(x).tobytes() for x in fn(*args)]
    except Exception as err:
        return type(err), str(err)


def assert_same_round(p, observed, subset, c, k, l_inf):
    args = (np.asarray(p, dtype=float), np.asarray(observed, dtype=float), np.asarray(subset), c, k, l_inf)
    assert outcome(decision.dr_round, *args) == outcome(dense_round, *args)


@st.composite
def sampled_rounds(draw):
    """A cross-device round of a valid config: k in [2, 300], any configured
    c (so floor(c k) may truncate, and c = 1 samples every client), a flat or
    skewed decision, and uniform, all-zero or all-equal observed responses in
    the default range [0, c]."""
    k = draw(st.integers(2, 300))
    c_config = draw(st.one_of(st.just(1.0), st.floats(1.0 / k, 1.0)))
    cfg = FederationConfig(k=k, t_rounds=1, method="aaggff-d", setting="cross_device", c=c_config)
    m, c = cfg.subset_size, cfg.inclusion_probability
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subset = np.sort(rng.choice(k, size=m, replace=False))
    p = random_simplex(rng, k) ** draw(st.sampled_from([1, 12]))
    p /= p.sum()
    kind = draw(st.sampled_from(["uniform", "zero", "equal"]))
    observed = {
        "uniform": lambda: rng.uniform(0.0, c, size=m),
        "zero": lambda: np.zeros(m),
        "equal": lambda: np.full(m, rng.uniform(0.0, c)),
    }[kind]()
    return p, observed, subset, c, k, cfg.lipschitz


class TestDrRound:
    """``decision.dr_round`` returns and raises what the dense composition does."""

    @settings(max_examples=200, deadline=None)
    @given(sampled_rounds())
    def test_bits_equal_the_dense_composition(self, case):
        p, observed, subset, c, k, l_inf = case
        got = outcome(decision.dr_round, p, observed, subset, c, k, l_inf)
        assert isinstance(got, list), got
        assert got == outcome(dense_round, p, observed, subset, c, k, l_inf)

    def test_truncated_inclusion_probability(self, rng):
        cfg = FederationConfig(k=100, t_rounds=1, method="aaggff-d", setting="cross_device", c=0.125)
        assert (cfg.subset_size, cfg.inclusion_probability) == (12, 0.12)
        subset = np.sort(rng.choice(100, size=12, replace=False))
        assert_same_round(random_simplex(rng, 100), rng.uniform(0, 0.12, size=12), subset, 0.12, 100, cfg.lipschitz)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_decision(self, rng, bad):
        p = random_simplex(rng, 10)
        p[7] = bad
        assert_same_round(p, [0.1, 0.2], [2, 5], 0.2, 10, 3.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("subset", [[2, 5], list(range(10))])
    def test_non_finite_observed(self, subset, bad):
        observed = np.linspace(0.0, 0.1, len(subset))
        observed[-1] = bad
        with np.errstate(invalid="ignore"):
            assert_same_round(np.full(10, 0.1), observed, subset, len(subset) / 10, 10, 3.0)

    def test_over_bound_sampled_entry_only(self):
        # rbar = 0.1 and slope = 0: the unsampled entries read -0.1 / 1.1,
        # the sampled ones 0.4 / 1.1 and -0.6 / 1.1.
        p, observed, subset = np.full(10, 0.1), [0.0, 0.2], [2, 5]
        _, g, _ = dense_round(p, observed, subset, 0.2, 10, np.inf)
        assert abs(g[0]) < 0.5 < abs(g[5])
        assert_same_round(p, observed, subset, 0.2, 10, 0.5)

    def test_over_bound_unsampled_value_only(self):
        # Rounding puts every sampled response one ulp below rbar; with p = 0
        # each gradient entry is minus its response.
        v, c = 123456789012.0, 0.6
        p, observed, subset = np.zeros(10), np.full(6, v), np.arange(6)
        r = (1.0 - 1.0 / c) * v + v / c
        _, g, _ = dense_round(p, observed, subset, c, 10, np.inf)
        assert np.all(np.abs(g[:6]) == r) and np.all(np.abs(g[6:]) == v) and v > r + 1e-9
        assert_same_round(p, observed, subset, c, 10, r)

    def test_unsampled_value_absent_when_every_client_is_sampled(self):
        # rbar rounds one ulp above the equal observed values, so the value
        # off the subset would exceed the bound, but no entry holds it.
        v = 0.7 * 2.0**40
        observed = np.full(6, v)
        assert observed.mean() > v + 1e-9
        assert_same_round(np.zeros(6), observed, np.arange(6), 1.0, 6, v)
        response, g, loss = decision.dr_round(np.zeros(6), observed, np.arange(6), 1.0, 6, v)
        assert np.all(g == -v)

    @pytest.mark.parametrize("l_inf", [10.0, 1.0])
    def test_growth_at_most_zero(self, l_inf):
        # rbar = 0.5, response -2 and 3 on the subset, p on client 0: the loss
        # is undefined (1 + <p, r> = -1); at l_inf = 1 the gradient's check
        # fires first, as the learner's step met it.
        p = np.eye(10)[0]
        assert_same_round(p, [0.0, 1.0], [0, 1], 0.2, 10, l_inf)
        with pytest.raises(InvalidInputError, match="decision loss undefined" if l_inf > 3 else "sup norm"):
            decision.dr_round(p, np.array([0.0, 1.0]), np.array([0, 1]), 0.2, 10, l_inf)

    def test_nonpositive_linearization_reference(self):
        assert_same_round(np.full(10, 0.1), [-20.0, -20.0], [2, 5], 0.2, 10, 3.0)

    @pytest.mark.parametrize(
        "observed, subset, c, p",
        [
            ([], [], 0.5, np.full(4, 0.25)),
            ([0.1], [4], 0.25, np.full(4, 0.25)),
            ([0.1], [1], 1.5, np.full(4, 0.25)),
            ([0.1, 0.2], [1], 0.25, np.full(4, 0.25)),
            ([0.1], [1], 0.25, np.full(5, 0.2)),
        ],
    )
    def test_invalid_inputs(self, observed, subset, c, p):
        assert_same_round(p, observed, np.asarray(subset, dtype=int), c, 4, 3.0)


class TestLipschitzConstants:
    def test_full_formula(self):
        assert decision.lipschitz_full(ResponseRange(0, 0.125)) == 0.125
        assert decision.lipschitz_full(ResponseRange(0.5, 1.0)) == pytest.approx(2 / 3)
        assert decision.lipschitz_full(ResponseRange(0, 1)) == 1.0

    def test_dr_formula(self):
        c = 0.1
        assert decision.lipschitz_dr(ResponseRange(0, c), c) == c + 2
        assert decision.lipschitz_dr(ResponseRange(0, 1), 1.0) == 3.0
        assert decision.lipschitz_dr(ResponseRange(0, 0.05), 0.05) == pytest.approx(2.05)

    def test_dr_bound_holds_empirically(self, rng):
        rr = ResponseRange(0.0, 0.2)
        c = 0.25
        k = 8
        m = round(c * k)
        bound = decision.lipschitz_dr(rr, c)
        worst = 0.0
        for _ in range(2000):
            p = random_simplex(rng, k)
            r = rng.uniform(rr.c1, rr.c2, size=k)
            s = rng.choice(k, size=m, replace=False)
            est = decision.dr_estimate(r[s], s, c, k)
            g = decision.linearized_gradient(p, est, np.full(k, r[s].mean()))
            worst = max(worst, np.max(np.abs(g)))
        assert worst <= bound + 1e-12


class TestRegretBound:
    @pytest.mark.parametrize("k", [20, 500])
    def test_silo_constant_is_one_over_k(self, k):
        # Summaries compare regret with this bound, so its value must not move.
        l_inf = decision.lipschitz_full(default_range(Setting.CROSS_SILO, k, 1.0))
        assert l_inf == 1.0 / k
        t = 100
        expected = 2.0 * (1.0 / k) * k * (1.0 + np.log(1.0 + t / (16.0 * k)))
        assert decision.regret_bound(l_inf, k, t, second_order=True) == expected

    def test_device_constant_is_c_plus_two(self):
        k, c, t = 10000, 50 / 10000, 50
        l_inf = decision.lipschitz_dr(default_range(Setting.CROSS_DEVICE, k, c), c)
        assert l_inf == c + 2.0
        expected = 2.0 * (c + 2.0) * np.sqrt(t * np.log(k))
        assert decision.regret_bound(l_inf, k, t, second_order=False) == expected

    @pytest.mark.parametrize("setting, c", [("cross_silo", 1.0), ("cross_device", 0.1)])
    def test_config_bound_is_none_for_every_baseline(self, setting, c):
        for method in aggregators.STRATEGIES:
            if method.startswith("aaggff"):
                continue
            cfg = FederationConfig(k=50, t_rounds=20, method=method, setting=setting, c=c)
            assert cfg.lipschitz is None
            assert cfg.regret_bound is None

    def test_config_bound_of_the_adaptive_learners(self):
        silo = FederationConfig(k=20, t_rounds=100, method="aaggff-s", setting="cross_silo")
        assert silo.lipschitz == decision.lipschitz_full(silo.response_range)
        assert silo.regret_bound == decision.regret_bound(silo.lipschitz, 20, 100, second_order=True)
        device = FederationConfig(k=10000, t_rounds=50, method="aaggff-d", setting="cross_device", c=0.005)
        assert device.lipschitz == decision.lipschitz_dr(device.response_range, device.inclusion_probability)
        assert device.regret_bound == decision.regret_bound(device.lipschitz, 10000, 50, second_order=False)
