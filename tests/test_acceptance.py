"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for a pass/fail line per
criterion; add ``-s`` to see the measured values next to their bounds.
"""

import time

import numpy as np
import pytest

from fedfair import cli, decision, metrics
from fedfair.aggregators import (
    BaselineParams,
    FtrlState,
    OnsState,
    baseline_response,
    cumulative_loss,
    eg_step,
    ftrl_eg_step,
    hindsight_best,
    ons_step,
)
from fedfair.datasets import SyntheticDataSpec
from fedfair.federation import FederationConfig, run_federation
from fedfair.simplex import project_mahalanobis
from fedfair.transform import CdfSpec, ResponseRange, cdf_eval

from regret_bounds import play_ftrl, play_ons, play_sampled
from test_aggregators import entropic_descent_oracle, ons_objective_oracle
from test_simplex import qp_face_oracle, random_psd


def played_loss(decisions, responses):
    return -float(np.log1p(np.einsum("ij,ij->i", decisions, responses)).sum())


def test_criterion_01_ons_regret_bound():
    k, t, seeds = 10, 1000, 20
    c2 = 1.0 / k
    l_inf = c2
    bound = 2.0 * l_inf * k * (1.0 + np.log(1.0 + t / (16.0 * k)))
    tic = time.perf_counter()
    worst = -np.inf
    for seed in range(seeds):
        # The learner runs at L = c2 = 1/k, the constant of this bound.
        played, responses, _ = play_ons(seed, k, t)
        regret = played_loss(played, responses) - cumulative_loss(hindsight_best(responses), responses)
        worst = max(worst, regret)
        assert regret <= bound, f"seed {seed}: regret {regret:.4f} > bound {bound:.4f}"
    elapsed = time.perf_counter() - tic
    print(f"\n[criterion 1] worst regret {worst:.4f} <= bound {bound:.4f} on {seeds} seeds, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_02_ftrl_regret_bound():
    k, t, seeds = 50, 2000, 20
    l_inf = 1.0
    bound = 2.0 * l_inf * np.sqrt(t * np.log(k))
    tic = time.perf_counter()
    worst = -np.inf
    for seed in range(seeds):
        # The learner runs at L = 1, the constant of this bound.
        played, responses, _ = play_ftrl(seed, k, t)
        regret = played_loss(played, responses) - cumulative_loss(hindsight_best(responses), responses)
        worst = max(worst, regret)
        assert regret <= bound, f"seed {seed}: regret {regret:.4f} > bound {bound:.4f}"
    elapsed = time.perf_counter() - tic
    print(f"\n[criterion 2] worst regret {worst:.4f} <= bound {bound:.4f} on {seeds} seeds, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_03_sampled_expected_regret():
    k, t, c, seeds = 50, 2000, 0.1, 50
    c2 = c
    l_inf_dr = decision.lipschitz_dr(ResponseRange(0.0, c2), c)
    bound = 2.0 * l_inf_dr * np.sqrt(t * np.log(k))
    tic = time.perf_counter()
    regrets = []
    for seed in range(seeds):
        # Responses in [0, c], round(c k) clients sampled a round, and the
        # learner run at L = l_inf_dr, the constant of this bound.
        played, responses, _ = play_sampled(seed, k, t, c)
        regrets.append(
            played_loss(played, responses) - cumulative_loss(hindsight_best(responses), responses)
        )
    mean_regret = float(np.mean(regrets))
    elapsed = time.perf_counter() - tic
    print(f"\n[criterion 3] mean regret {mean_regret:.4f} <= bound {bound:.4f} over {seeds} seeds, {elapsed:.1f}s")
    assert mean_regret <= bound
    assert elapsed < 60.0


def test_criterion_04_closed_form_matches_numeric_argmin():
    rng = np.random.default_rng(4)
    worst = 0.0
    for k in (2, 3, 4, 8):
        for _ in range(25):
            state = FtrlState.init(k, l_inf=1.0)
            for _ in range(int(rng.integers(1, 6))):
                state, p = ftrl_eg_step(state, rng.uniform(-1, 1, size=k))
            eta = state.l_inf * np.sqrt(state.t + 1.0) / np.sqrt(np.log(k))
            oracle = entropic_descent_oracle(state.cumulative_gradient, eta)
            worst = max(worst, float(np.max(np.abs(p - oracle))))
    print(f"\n[criterion 4] worst closed-form deviation {worst:.2e} <= 1e-6")
    assert worst <= 1e-6


def test_criterion_05_ons_step_and_projection_correctness():
    rng = np.random.default_rng(5)
    worst_step = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        l_inf = 0.5
        state = OnsState.init(k, l_inf)
        grads, visited = [], []
        for _ in range(5):
            r = rng.uniform(0, l_inf, size=k)
            g = decision.decision_gradient(state.decision, r)
            visited.append(state.decision.copy())
            grads.append(g)
            state, p = ons_step(state, g)
        oracle = ons_objective_oracle(grads, visited, state.alpha, state.beta)
        worst_step = max(worst_step, float(np.max(np.abs(p - oracle))))
    assert worst_step <= 1e-6

    worst_proj = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        v = rng.normal(size=k) * 2
        b = random_psd(rng, k)
        got = project_mahalanobis(v, b)
        oracle = qp_face_oracle(v, b)
        worst_proj = max(worst_proj, float(np.max(np.abs(got - oracle))))
    print(f"\n[criterion 5] worst step deviation {worst_step:.2e}, worst projection deviation {worst_proj:.2e} <= 1e-6")
    assert worst_proj <= 1e-6


def test_criterion_06_dr_unbiasedness_monte_carlo():
    k, c, n = 20, 0.25, 100_000
    m = round(c * k)
    rng = np.random.default_rng(6)
    true = rng.uniform(0, 1, size=k)
    p = rng.dirichlet(np.ones(k))
    reference = np.full(k, true.mean())
    target_grad = decision.linearized_gradient(p, true, reference)

    sum_r = np.zeros(k)
    sumsq_r = np.zeros(k)
    sum_g = np.zeros(k)
    sumsq_g = np.zeros(k)
    for _ in range(n):
        subset = rng.choice(k, size=m, replace=False)
        est = decision.dr_estimate(true[subset], subset, c, k, imputed=true.mean())
        g = decision.linearized_gradient(p, est, reference)
        sum_r += est
        sumsq_r += est**2
        sum_g += g
        sumsq_g += g**2

    mean_r = sum_r / n
    se_r = np.sqrt(np.maximum(sumsq_r / n - mean_r**2, 0.0) / n)
    dev_r = np.abs(mean_r - true) / np.maximum(se_r, 1e-15)
    mean_g = sum_g / n
    se_g = np.sqrt(np.maximum(sumsq_g / n - mean_g**2, 0.0) / n)
    dev_g = np.abs(mean_g - target_grad) / np.maximum(se_g, 1e-15)
    print(f"\n[criterion 6] max response deviation {dev_r.max():.2f} se, max gradient deviation {dev_g.max():.2f} se (<= 4)")
    assert np.all(dev_r <= 4.0)
    assert np.all(dev_g <= 4.0)


# Printed transformed responses for the worked example with losses
# (0.01, 0.10, 0.02): the published table evaluates each CDF at the
# mean-centered inputs rounded to two decimals, (0.23, 2.31, 0.46).
TABLE_VALUES = {
    "weibull": (0.05, 1.00, 0.19),
    "frechet": (0.01, 0.65, 0.11),
    "gumbel": (0.12, 0.76, 0.18),
    "exponential": (0.21, 0.90, 0.37),
    "logistic": (0.32, 0.79, 0.37),
    "normal": (0.22, 0.90, 0.29),
}


def test_criterion_07_reference_table_reproduction():
    losses = np.array([0.01, 0.10, 0.02])
    inputs = np.round(losses / losses.mean(), 2)
    np.testing.assert_array_equal(inputs, [0.23, 2.31, 0.46])
    checked = 0
    for kind, expected in TABLE_VALUES.items():
        got = np.round(cdf_eval(CdfSpec(kind=kind), inputs), 2)
        np.testing.assert_array_equal(got, expected, err_msg=f"{kind} row mismatch")
        checked += len(expected)
    print(f"\n[criterion 7] all {checked} tabulated responses reproduced exactly at 2 decimals")
    assert checked == 18


def test_criterion_08_unification_fidelity():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 9))
        n = rng.integers(1, 200, size=k).astype(float)
        prior = n / n.sum()
        losses = rng.uniform(0.05, 2.0, size=k)

        cases = [
            (BaselineParams("fedavg", n), n),
            (BaselineParams("qfedavg", n, q=float(rng.uniform(0.1, 5))), None),
            (BaselineParams("term", n, tilt=float(rng.uniform(0.1, 3))), None),
            (BaselineParams("propfair", n, m=float(rng.uniform(2.5, 5))), None),
        ]
        cases[1] = (cases[1][0], n * losses ** cases[1][0].q)
        cases[2] = (cases[2][0], n * np.exp(cases[2][0].tilt * losses))
        cases[3] = (cases[3][0], n / (cases[3][0].m - losses))
        for params, closed_form in cases:
            got = eg_step(prior, baseline_response(params, losses), params.step_size)
            expected = closed_form / closed_form.sum()
            worst = max(worst, float(np.max(np.abs(got - expected) / expected)))
    print(f"\n[criterion 8] worst relative deviation from closed forms {worst:.2e} <= 1e-12")
    assert worst <= 1e-12


def test_criterion_09_lipschitz_constants():
    rng = np.random.default_rng(9)
    rr = ResponseRange(0.0, 0.3)
    bound_full = decision.lipschitz_full(rr)
    k, n = 8, 100_000
    p = rng.dirichlet(np.ones(k), size=n)
    r = rng.uniform(rr.c1, rr.c2, size=(n, k))
    growth = 1.0 + np.einsum("ij,ij->i", p, r)
    sup_full = float(np.max(np.abs(r / growth[:, None])))
    assert sup_full <= bound_full + 1e-12

    c = 0.25
    m = round(c * k)
    bound_dr = decision.lipschitz_dr(rr, c)
    sup_dr = 0.0
    for i in range(n):
        subset = rng.choice(k, size=m, replace=False)
        est = decision.dr_estimate(r[i, subset], subset, c, k)
        g = decision.linearized_gradient(p[i], est, np.full(k, r[i, subset].mean()))
        sup_dr = max(sup_dr, float(np.max(np.abs(g))))
    assert sup_dr <= bound_dr + 1e-12

    for prob in (0.05, 0.1, 0.5, 1.0):
        assert decision.lipschitz_dr(ResponseRange(0.0, prob), prob) == prob + 2.0
    print(
        f"\n[criterion 9] sup|g| {sup_full:.4f} <= {bound_full:.4f}; "
        f"sup|g_dr| {sup_dr:.4f} <= {bound_dr:.4f}; range (0,C) constant is exactly C+2"
    )


def test_criterion_10_directional_fairness():
    data = SyntheticDataSpec(
        input_dim=10,
        num_classes=5,
        samples_per_client_mean=100,
        samples_per_client_spread=40,
        dirichlet_concentration=0.1,
        feature_shift=1.0,
    )
    tic = time.perf_counter()
    stats = {}
    for method in ("fedavg", "aaggff-s"):
        ginis, worsts, avgs = [], [], []
        for seed in range(5):
            cfg = FederationConfig(
                k=20, t_rounds=100, method=method, setting="cross_silo",
                b=20, lr=0.3, lr_decay=0.98, lr_decay_step=10, seed=seed, data=data,
            )
            acc = run_federation(cfg).client_accuracy
            ginis.append(metrics.gini(acc))
            worsts.append(float(acc.min()))
            avgs.append(float(acc.mean()))
        stats[method] = (float(np.mean(ginis)), float(np.mean(worsts)), float(np.mean(avgs)))
    elapsed = time.perf_counter() - tic
    static, adaptive = stats["fedavg"], stats["aaggff-s"]
    print(
        f"\n[criterion 10] static  gini={static[0]:.4f} worst={static[1]:.3f} avg={static[2]:.3f}"
        f"\n[criterion 10] adaptive gini={adaptive[0]:.4f} worst={adaptive[1]:.3f} avg={adaptive[2]:.3f}"
        f" ({elapsed:.1f}s)"
    )
    assert adaptive[0] <= static[0], "adaptive aggregation must not increase mean Gini"
    assert adaptive[1] >= static[1], "adaptive aggregation must not hurt the worst client"
    assert abs(adaptive[2] - static[2]) <= 0.02, "average accuracy must stay within 2 points"
    assert elapsed < 300.0


DETERMINISM_SILO = """\
k = 4
t_rounds = 3
method = aaggff-s
setting = cross_silo
b = 10
lr = 0.2
data.input_dim = 4
data.num_classes = 3
data.samples_per_client_mean = 40
"""

DETERMINISM_DEVICE = """\
k = 8
t_rounds = 3
method = aaggff-d
setting = cross_device
c = 0.4
b = 10
lr = 0.2
data.input_dim = 4
data.num_classes = 3
data.samples_per_client_mean = 40
"""


@pytest.mark.parametrize(
    "config_text,stem",
    [
        pytest.param(DETERMINISM_SILO, "aaggff_s", id="silo"),
        pytest.param(DETERMINISM_DEVICE, "aaggff_d", id="device"),
    ],
)
def test_criterion_11_determinism_across_worker_counts(tmp_path, config_text, stem):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config_text)
    outs = {}
    for jobs in (1, 8):
        out = tmp_path / f"jobs{jobs}"
        code = cli.main(["run", str(cfg_path), "--out", str(out), "--seeds", "1,2", "--jobs", str(jobs)])
        assert code == 0
        outs[jobs] = out
    for seed in (1, 2):
        name = f"runs/{stem}_seed{seed}.rounds.jsonl"
        log1 = (outs[1] / name).read_bytes()
        log8 = (outs[8] / name).read_bytes()
        assert log1 == log8, f"round log differs between 1 and 8 workers for seed {seed}"
    print(f"\n[criterion 11] byte-identical round logs at 1 and 8 workers ({stem})")
