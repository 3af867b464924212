#!/usr/bin/env python3
"""Compare client-level fairness of aggregation strategies on a synthetic
heterogeneous federation (label-skewed logistic clients, full participation).

Runs configs/silo_adaptive.cfg once per method, with the flags' clients,
rounds and label concentration, as one suite of seeds through
``cli.run_suite`` (what ``fedfair run`` does), and prints per-method means
over seeds of each run's summary.json: average / worst / best-10% accuracy,
Gini (x100), and the accuracy parity gap. Every method's configs are built
before the first run, so a bad flag exits 1 with ``config error: <field>:
<message>``, as ``fedfair run`` does, before anything runs.
"""

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from fedfair import cli
from fedfair.errors import ConfigError

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "silo_adaptive.cfg"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--methods", default="fedavg,afl,qfedavg,term,propfair,aaggff-s")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--clients", type=int, default=20)
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--concentration", type=float, default=0.1)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as out:
        try:
            if args.seeds < 1:
                raise ConfigError("--seeds", "must be >= 1")
            parsed = cli.parse_config(CONFIG, out_dir=out, seeds=range(args.seeds))
            suites = []
            for method in map(str.strip, args.methods.split(",")):
                configs = [
                    dataclasses.replace(
                        cfg,
                        method=method,
                        k=args.clients,
                        t_rounds=args.rounds,
                        data=dataclasses.replace(cfg.data, dirichlet_concentration=args.concentration),
                    )
                    for cfg in parsed.configs
                ]
                suites.append((method, cli.ExperimentSuite(configs, parsed.out_dir)))
        except ConfigError as err:
            sys.exit(f"config error: {err}")

        header = f"{'method':10s} {'avg':>7s} {'worst':>7s} {'best10%':>8s} {'gini*100':>9s} {'gap':>7s}"
        print(header)
        print("-" * len(header))
        for method, suite in suites:
            if cli.run_suite(suite, jobs=os.cpu_count() or 1) != 0:
                sys.exit(f"fairness_comparison: a {method} run failed")
            rows = []
            for cfg in suite.configs:
                s = json.loads((suite.out_dir / "runs" / f"{cli.run_id_for(cfg)}.summary.json").read_text())
                rows.append(
                    (s["avg_accuracy"], s["worst_accuracy"], s["best10_accuracy"], 100 * s["gini"], s["accuracy_parity_gap"])
                )
            mean = np.mean(rows, axis=0)
            print(f"{method:10s} {mean[0]:7.3f} {mean[1]:7.3f} {mean[2]:8.3f} {mean[3]:9.3f} {mean[4]:7.3f}")


if __name__ == "__main__":
    main()
