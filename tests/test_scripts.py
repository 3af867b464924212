"""The scripts under scripts/, run through their ``main`` as from the shell."""

import sys

import numpy as np
import pytest

import fairness_comparison
import regret_bounds
from fedfair import cli, metrics
from fedfair.datasets import SyntheticDataSpec
from fedfair.federation import FederationConfig, run_federation

ARGS = ["--methods", "fedavg,aaggff-s", "--seeds", "2", "--rounds", "3", "--clients", "6"]


def direct_table(methods, seeds, clients, rounds, concentration=0.1):
    """The comparison table from ``run_federation`` and ``metrics`` called
    directly, on configs/silo_adaptive.cfg written out by hand."""
    data = SyntheticDataSpec(
        input_dim=10,
        num_classes=5,
        samples_per_client_mean=100,
        samples_per_client_spread=40,
        dirichlet_concentration=concentration,
        feature_shift=1.0,
    )
    header = f"{'method':10s} {'avg':>7s} {'worst':>7s} {'best10%':>8s} {'gini*100':>9s} {'gap':>7s}"
    out = [header, "-" * len(header)]
    for method in methods:
        rows = []
        for seed in range(seeds):
            cfg = FederationConfig(
                k=clients,
                t_rounds=rounds,
                method=method,
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
            rows.append((acc.mean(), acc.min(), best10, 100 * metrics.gini(acc), metrics.accuracy_parity_gap(acc)))
        mean = np.mean(rows, axis=0)
        out.append(f"{method:10s} {mean[0]:7.3f} {mean[1]:7.3f} {mean[2]:8.3f} {mean[3]:9.3f} {mean[4]:7.3f}")
    return "\n".join(out) + "\n"


def test_fairness_comparison_prints_the_table_of_direct_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["fairness_comparison.py", *ARGS])
    fairness_comparison.main()
    assert capsys.readouterr().out == direct_table(["fedavg", "aaggff-s"], seeds=2, clients=6, rounds=3)


def test_fairness_comparison_names_the_method_of_a_failed_run(monkeypatch, capsys):
    def fail(cfg):
        if cfg.method == "aaggff-s":
            raise RuntimeError("injected")
        return run_federation(cfg)

    monkeypatch.setattr(cli, "run_federation", fail)
    monkeypatch.setattr(sys, "argv", ["fairness_comparison.py", *ARGS])
    with pytest.raises(SystemExit, match="aaggff-s") as exc:
        fairness_comparison.main()
    assert exc.value.code != 0
    assert "fedavg" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, message",
    [
        (["--methods", "fedavg,aaggff-d"], "config error: method: 'aaggff-d' requires setting=cross_device"),
        (["--clients", "1"], "config error: k: must be >= 2"),
        (["--rounds", "0"], "config error: t_rounds: must be >= 1"),
        (["--seeds", "0"], "config error: --seeds: must be >= 1"),
    ],
)
def test_fairness_comparison_bad_flag_exits_1_before_any_run(monkeypatch, capsys, args, message):
    runs = []
    monkeypatch.setattr(cli, "run_suite", lambda suite, jobs: runs.append(suite) or 0)
    monkeypatch.setattr(sys, "argv", ["fairness_comparison.py", *ARGS, *args])
    with pytest.raises(SystemExit) as exc:
        fairness_comparison.main()
    # sys.exit with a message prints it to stderr and exits 1.
    assert exc.value.code == message
    assert runs == [] and capsys.readouterr().out == ""


@pytest.mark.parametrize("seeds", ["0", "-1", "x"])
def test_regret_bounds_rejects_fewer_than_one_seed_at_the_flag(monkeypatch, capsys, seeds):
    monkeypatch.setattr(sys, "argv", ["regret_bounds.py", "--seeds", seeds])
    with pytest.raises(SystemExit) as exc:
        regret_bounds.main()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"regret_bounds.py: error: argument --seeds: expected an integer >= 1, got {seeds!r}"
    assert "Traceback" not in err
