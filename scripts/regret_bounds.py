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

from fedfair import cli, decision, metrics, simplex
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


def play(seed, k, t, c2=1.0, second_order=False, c=None):
    """Play one seed's stream of responses in [0, c2] with ONS (``second_order``) or entropic FTRL, on
    exact gradients or, given a sampling fraction ``c``, on doubly robust ones from a sorted sample of
    round(c k) clients a round. Returns the decisions played, the responses and the regret bound."""
    rng = np.random.default_rng(seed)
    responses = adversarial_responses(rng, t, k, c2)
    l_inf = c2 if c is None else decision.lipschitz_dr(ResponseRange(0.0, c2), c)
    state = (OnsState if second_order else FtrlState).init(k, l_inf)
    step = ons_step if second_order else ftrl_eg_step
    p = simplex.uniform(k)
    played = np.empty((t, k))
    for i in range(t):
        played[i] = p
        if c is None:
            g = decision.decision_gradient(p, responses[i])
        else:
            subset = np.sort(rng.choice(k, size=round(c * k), replace=False))
            _, g, _ = decision.dr_round(p, responses[i, subset], subset, subset.size / k, k, l_inf)
        state, p = step(state, g)
    return played, responses, decision.regret_bound(l_inf, k, t, second_order=second_order)


def play_ons(seed, k=10, t=1000):
    return play(seed, k, t, 1.0 / k, second_order=True)


def play_ftrl(seed, k=50, t=2000):
    return play(seed, k, t)


def play_sampled(seed, k=50, t=2000, c=0.1):
    return play(seed, k, t, c, c=c)


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
