import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import cli, decision, metrics
from fedfair.errors import InvalidInputError
from fedfair.datasets import SyntheticDataSpec
from fedfair.federation import FederationConfig, Learner, RunResult, run_federation

from conftest import random_simplex
from test_aggregators import hindsight_grid_oracle


def gini_double_sum(x):
    """O(n^2) population definition: sum |x_i - x_j| / (2 n^2 mean)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * x.mean()))


def system_loss(p, transformed_losses) -> float:
    """Reference: log(1 + sum_i p_i F~_i), the federation-wide loss the
    server drives down."""
    return float(np.log(1.0 + float(np.asarray(p) @ np.asarray(transformed_losses))))


def round_log(cfg, rounds, train_sizes=None):
    """Round-log lines of ``cfg`` observing ``rounds``, a list of (sampled,
    losses) pairs, with each decision made by the run's learner."""
    learner = Learner(cfg, train_sizes)
    records = []
    for t, (sampled, losses) in enumerate(rounds, start=1):
        sampled, losses = np.asarray(sampled), np.asarray(losses, dtype=float)
        records.append(learner.step(t, losses, sampled))
    sizes = None if train_sizes is None else np.asarray(train_sizes)
    return cli.run_log_lines(RunResult(cfg, records, None, None, None, sizes))


def cumulative_objective(lines):
    return cli.round_curves(cli.round_series(lines).records)[0][-1]


def played_losses(decisions, responses):
    return [decision.decision_loss(p, r) for p, r in zip(decisions, responses)]


class TestRegret:
    def test_optimal_decisions_zero_regret(self, rng):
        responses = rng.uniform(0, 1, size=(15, 3))
        from fedfair.aggregators import hindsight_best

        best = hindsight_best(responses)
        decisions = np.tile(best, (15, 1))
        assert abs(metrics.regret(played_losses(decisions, responses), responses)) <= 1e-8

    def test_constant_responses_any_decisions(self, rng):
        responses = np.tile(np.full(4, 0.3), (10, 1))
        decisions = random_simplex(rng, 4, n=10)
        assert metrics.regret(played_losses(decisions, responses), responses) == pytest.approx(0.0, abs=1e-9)

    def test_matches_grid_oracle(self, rng):
        responses = rng.uniform(0, 1, size=(20, 3))
        decisions = random_simplex(rng, 3, n=20)
        played = played_losses(decisions, responses)
        got = metrics.regret(played, responses)
        oracle_best = hindsight_grid_oracle(responses)
        oracle_regret = sum(played) - sum(decision.decision_loss(oracle_best, r) for r in responses)
        assert got == pytest.approx(oracle_regret, abs=2e-3)

    def test_nonnegative_for_fixed_decisions(self, rng):
        # Hindsight optimality: no fixed decision may beat the solver's best
        # fixed decision by more than solver tolerance. (A time-varying
        # sequence can legitimately achieve negative regret.)
        for _ in range(20):
            t, k = int(rng.integers(1, 12)), int(rng.integers(2, 5))
            responses = rng.uniform(0, 0.5, size=(t, k))
            fixed = np.tile(random_simplex(rng, k), (t, 1))
            assert metrics.regret(played_losses(fixed, responses), responses) >= -1e-8

    def test_sums_the_losses_in_order(self):
        # The played side is the losses' own in-order sum, not a re-summation.
        responses = np.zeros((3, 2))
        losses = [1e16, 1.0, -1e16]
        assert metrics.regret(losses, responses) == sum(losses) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            metrics.regret([], np.empty((0, 2)))

    def test_one_loss_per_round_required(self):
        with pytest.raises(InvalidInputError, match="one decision loss per round"):
            metrics.regret([0.0, 0.0], np.zeros((3, 2)))


class TestGini:
    def test_all_equal_zero(self):
        assert metrics.gini(np.full(7, 3.3)) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_extreme(self):
        assert metrics.gini(np.array([0.0, 5.0])) == pytest.approx(0.5, abs=1e-12)

    def test_matches_double_sum_oracle(self, rng):
        for _ in range(20):
            x = rng.uniform(0, 10, size=50)
            assert metrics.gini(x) == pytest.approx(gini_double_sum(x), abs=1e-12)

    def test_scale_invariance(self, rng):
        x = rng.uniform(0.1, 5, size=30)
        for c in (0.01, 3.0, 1e4):
            assert abs(metrics.gini(c * x) - metrics.gini(x)) <= 1e-12

    def test_range(self, rng):
        for _ in range(50):
            x = rng.uniform(0, 1, size=int(rng.integers(2, 40)))
            if x.sum() == 0:
                continue
            assert 0.0 <= metrics.gini(x) < 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            metrics.gini(np.zeros(4))

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            metrics.gini(np.array([-1.0, 2.0]))


class TestWorstBest:
    def test_single_element_tails(self):
        x = np.arange(10, dtype=float)
        assert metrics.worst_best(x, 0.1) == (0.0, 9.0)

    def test_all_equal(self):
        assert metrics.worst_best(np.full(6, 2.0), 0.25) == (2.0, 2.0)

    def test_percentile_means_1_to_100(self):
        x = np.arange(1, 101, dtype=float)
        worst, best = metrics.worst_best(x, 0.1)
        assert worst == pytest.approx(5.5)
        assert best == pytest.approx(95.5)

    def test_ceil_of_fraction(self):
        x = np.arange(5, dtype=float)  # ceil(0.3*5) = 2
        worst, best = metrics.worst_best(x, 0.3)
        assert worst == pytest.approx(0.5)
        assert best == pytest.approx(3.5)

    def test_fraction_bounds(self):
        with pytest.raises(InvalidInputError):
            metrics.worst_best(np.ones(3), 0.0)
        with pytest.raises(InvalidInputError):
            metrics.worst_best(np.ones(3), 0.6)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=50), st.floats(0.01, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_gap_dominates_tail_spread(self, values, fraction):
        x = np.array(values)
        worst, best = metrics.worst_best(x, fraction)
        assert metrics.accuracy_parity_gap(x) >= best - worst - 1e-9


class TestAccuracyParityGap:
    def test_all_equal(self):
        assert metrics.accuracy_parity_gap(np.full(5, 0.7)) == 0.0

    def test_two_values(self):
        assert metrics.accuracy_parity_gap(np.array([40.0, 90.0])) == 50.0

    def test_1_to_100(self):
        assert metrics.accuracy_parity_gap(np.arange(1.0, 101.0)) == 99.0


class TestCumulativeObjective:
    """``cli.round_curves`` of ``cli.round_series`` over round logs."""

    def test_single_round_uniform(self):
        # An adaptive learner plays uniform in its first round.
        cfg = FederationConfig(k=3, t_rounds=1, method="aaggff-s", setting="cross_silo")
        assert cumulative_objective(round_log(cfg, [([0, 1, 2], [1.0, 2.0, 3.0])])) == pytest.approx(2.0, abs=1e-12)

    def test_zero_losses(self):
        cfg = FederationConfig(k=2, t_rounds=1, method="fedavg", setting="cross_silo")
        assert cumulative_objective(round_log(cfg, [([0, 1], [0.0, 0.0])], train_sizes=[2, 3])) == 0.0

    def test_hand_accumulated_three_rounds(self):
        # Each round plays the previous round's decision, from uniform, so the
        # objective is accumulated here from the run's own decisions.
        cfg = FederationConfig(
            k=5, t_rounds=3, method="aaggff-d", setting="cross_device", c=0.4, b=10,
            data=SyntheticDataSpec(input_dim=3, num_classes=2, samples_per_client_mean=20),
        )
        records = run_federation(cfg).records
        played, expected = np.full(cfg.k, 0.2), 0.0
        for rec in records:
            expected += float(played[rec.sampled] @ rec.losses)
            played = rec.decision
        series = cli.round_series(cli.run_log_lines(RunResult(cfg, records, None, None, None))).records
        assert [r.round for r in series] == [1, 2, 3]
        assert cli.round_curves(series)[0][-1] == pytest.approx(expected, rel=1e-12)
        assert expected > 0

    def test_baseline_plays_its_prior_every_round(self):
        # Sample sizes (1, 3) give the prior (0.25, 0.75) in both rounds.
        cfg = FederationConfig(k=2, t_rounds=2, method="fedavg", setting="cross_device", c=0.5)
        lines = round_log(cfg, [([1], [3.0]), ([0], [2.0])], train_sizes=[1, 3])
        assert cumulative_objective(lines) == pytest.approx(2.25 + 0.5, abs=1e-12)

    def test_no_rounds_empty_series(self):
        cfg = FederationConfig(k=2, t_rounds=1, method="aaggff-s", setting="cross_silo")
        assert cli.round_series(round_log(cfg, [])).records == []


class TestSystemLoss:
    """``decision.decision_loss`` is the negated system loss."""

    def test_zero_losses(self):
        assert decision.decision_loss(np.array([0.5, 0.5]), np.zeros(2)) == 0.0

    def test_uniform_constant(self):
        c = 0.3
        assert -decision.decision_loss(np.full(4, 0.25), np.full(4, c)) == pytest.approx(np.log(1 + c))

    def test_negates_decision_loss(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 8))
            p = random_simplex(rng, k)
            f = rng.uniform(0, 2, size=k)
            assert system_loss(p, f) + decision.decision_loss(p, f) == 0.0


class TestDecisionEntropy:
    def test_uniform_max(self):
        assert metrics.decision_entropy(np.full(8, 0.125)) == pytest.approx(np.log(8))

    def test_vertex_zero(self):
        assert metrics.decision_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
