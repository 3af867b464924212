#!/usr/bin/env python3
"""Measure online regret of the adaptive aggregators against their
theoretical upper bounds on adversarial bounded response streams.

Three harnesses:
  ons      second-order learner, K=10, T=1000, responses in [0, 1/K]
           bound 2 L K (1 + log(1 + T/(16K)))
  ftrl     entropic FTRL, full participation, K=50, T=2000
           bound 2 L sqrt(T log K)
  sampled  entropic FTRL with client sampling C=0.1 and doubly robust
           gradient estimates; mean regret vs 2 L_dr sqrt(T log K)
"""

import argparse
import time

import numpy as np

from fedfair import cli, decision, metrics
from fedfair.aggregators import FtrlState, OnsState, ftrl_eg_step, ons_step
from fedfair.transform import ResponseRange


def adversarial_responses(rng, t, k, c2):
    """Bounded response stream: iid uniform rounds mixed with spiky rounds
    concentrating the whole range on a rotating coordinate."""
    r = rng.uniform(0, c2, size=(t, k))
    spiky = np.nonzero(rng.random(t) < 0.3)[0]
    r[spiky] = 0.0
    r[spiky, spiky % k] = c2
    return r


# Each harness plays one seed's adversarial stream and returns the decisions
# it played, the responses and the learner's regret bound.


def play_ons(seed, k=10, t=1000):
    rng = np.random.default_rng(seed)
    c2 = 1.0 / k
    responses = adversarial_responses(rng, t, k, c2)
    state = OnsState.init(k, c2)
    played = np.empty((t, k))
    for i in range(t):
        played[i] = state.decision
        state, _ = ons_step(state, decision.decision_gradient(state.decision, responses[i]))
    return played, responses, decision.regret_bound(c2, k, t, second_order=True)


def play_ftrl(seed, k=50, t=2000):
    rng = np.random.default_rng(seed)
    responses = adversarial_responses(rng, t, k, 1.0)
    state = FtrlState.init(k, 1.0)
    p = np.full(k, 1.0 / k)
    played = np.empty((t, k))
    for i in range(t):
        played[i] = p
        state, p = ftrl_eg_step(state, decision.decision_gradient(p, responses[i]))
    return played, responses, decision.regret_bound(1.0, k, t, second_order=False)


def play_sampled(seed, k=50, t=2000, c=0.1):
    rng = np.random.default_rng(seed)
    m = round(c * k)
    responses = adversarial_responses(rng, t, k, c)
    l_dr = decision.lipschitz_dr(ResponseRange(0.0, c), c)
    state = FtrlState.init(k, l_dr)
    p = np.full(k, 1.0 / k)
    played = np.empty((t, k))
    for i in range(t):
        played[i] = p
        subset = np.sort(rng.choice(k, size=m, replace=False))
        _, g, _ = decision.dr_round(p, responses[i, subset], subset, m / k, k, l_dr)
        state, p = ftrl_eg_step(state, g)
    return played, responses, decision.regret_bound(l_dr, k, t, second_order=False)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=cli.positive_int, default=20, help="seeds per harness")
    args = parser.parse_args()

    for name, harness in (("ons", play_ons), ("ftrl", play_ftrl), ("sampled", play_sampled)):
        tic = time.perf_counter()
        regrets, bound = [], None
        for seed in range(args.seeds):
            played, responses, bound = harness(seed)
            regrets.append(metrics.regret(list(map(decision.decision_loss, played, responses)), responses))
        elapsed = time.perf_counter() - tic
        print(
            f"{name:8s} mean={np.mean(regrets):8.4f} worst={np.max(regrets):8.4f} "
            f"bound={bound:9.4f} satisfied={np.max(regrets) <= bound} "
            f"({args.seeds} seeds, {elapsed:.1f}s)"
        )


if __name__ == "__main__":
    main()
