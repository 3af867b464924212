#!/usr/bin/env python3
"""Compare client-level fairness of aggregation strategies on a synthetic
heterogeneous federation (label-skewed logistic clients, full participation).

Prints per-method means over seeds: average / worst / best-10% accuracy,
Gini (x100), and the accuracy parity gap.
"""

import argparse

import numpy as np

from fedfair import metrics
from fedfair.datasets import SyntheticDataSpec
from fedfair.federation import FederationConfig, run_federation


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--methods", default="fedavg,afl,qfedavg,term,propfair,aaggff-s")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--clients", type=int, default=20)
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--concentration", type=float, default=0.1)
    args = parser.parse_args()

    data = SyntheticDataSpec(
        input_dim=10,
        num_classes=5,
        samples_per_client_mean=100,
        samples_per_client_spread=40,
        dirichlet_concentration=args.concentration,
        feature_shift=1.0,
    )
    header = f"{'method':10s} {'avg':>7s} {'worst':>7s} {'best10%':>8s} {'gini*100':>9s} {'gap':>7s}"
    print(header)
    print("-" * len(header))
    for method in args.methods.split(","):
        rows = []
        for seed in range(args.seeds):
            cfg = FederationConfig(
                k=args.clients,
                t_rounds=args.rounds,
                method=method.strip(),
                setting="cross_silo",
                b=20,
                lr=0.3,
                lr_decay=0.98,
                lr_decay_step=10,
                seed=seed,
                data=data,
            )
            acc = run_federation(cfg).client_accuracy
            _, best10 = metrics.worst_best(acc, 0.1)
            rows.append(
                (acc.mean(), acc.min(), best10, 100 * metrics.gini(acc), metrics.accuracy_parity_gap(acc))
            )
        mean = np.mean(rows, axis=0)
        print(f"{method:10s} {mean[0]:7.3f} {mean[1]:7.3f} {mean[2]:8.3f} {mean[3]:9.3f} {mean[4]:7.3f}")


if __name__ == "__main__":
    main()
