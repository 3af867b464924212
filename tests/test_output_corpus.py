"""scripts/output_corpus.py: what its corpus covers, and its checks on a slice of it."""

import dataclasses
import itertools
import os
from pathlib import Path

import pytest

import output_corpus
from fedfair import aggregators, cli, datasets, simplex
from fedfair.errors import ConfigError
from fedfair.transform import CdfKind, Setting


def test_corpus_covers_every_config_file_method_cdf_and_listed_path(tmp_path):
    """The corpus runs each shipped and bench config as it is, each method in
    every setting it accepts, each CDF in both settings, and each listed path
    that no shipped config takes. A new method or CDF fails here until the
    corpus runs it."""
    configs = [cli.parse_config(output_corpus.write_config(tmp_path, *entry)).configs[0] for entry in output_corpus.CORPUS]
    root = output_corpus.ROOT
    files = {p.relative_to(root).as_posix() for p in [*root.glob("configs/*.cfg"), *root.glob("bench/configs/*.cfg")]}
    assert {path for path, overrides in output_corpus.CORPUS if not overrides} == files

    runs = {(cfg.method, cfg.setting) for cfg in configs}
    for method, (setting, template) in itertools.product(aggregators.STRATEGIES, {c.setting: c for c in configs}.items()):
        try:
            dataclasses.replace(template, method=method)
        except ConfigError:
            continue
        assert (method, setting) in runs
    assert {(cfg.cdf.kind, cfg.setting) for cfg in configs} == set(itertools.product(CdfKind, Setting))

    # Each path that no shipped config takes, and what it runs.
    device = [cfg for cfg in configs if cfg.setting is Setting.CROSS_DEVICE]
    silo_k = {cfg.k for cfg in configs if cfg.method == "aaggff-s"}
    paths = {
        "input dims 1 and 2: numpy sums one feature column pairwise and a few narrow ones row by row": (
            {1, 2} <= {cfg.data.input_dim for cfg in configs}
        ),
        "more than 8 classes in each softmax": any(cfg.data.num_classes > 8 for cfg in configs),
        "a label-mix concentration below which numpy's Dirichlet breaks sticks instead of normalizing gammas": any(
            cfg.data.dirichlet_concentration < datasets._GAMMA_DIRICHLET for cfg in configs
        ),
        "unshifted features, whose zero directions and unit norms generation handles on its own": any(
            cfg.data.feature_shift == 0 for cfg in configs
        ),
        "a c that floor(c k) truncates, so that the inclusion probability differs from c": any(
            cfg.inclusion_probability != cfg.c for cfg in device
        ),
        "a device run that samples every client, where the DR gradient has no off-subset value": any(
            cfg.c == 1 for cfg in device
        ),
        "a 400-round device-wide run, whose regret sums many rounds' decision losses": any(
            cfg.k >= 10000 and cfg.t_rounds >= 400 for cfg in device
        ),
        "ONS sweeps over B of one short block, of full blocks only, and with a ragged last block": (
            any(k < simplex.ROW_BLOCK for k in silo_k)
            and any(k % simplex.ROW_BLOCK == 0 for k in silo_k)
            and any(k > simplex.ROW_BLOCK and k % simplex.ROW_BLOCK for k in silo_k)
        ),
    }
    for setting in Setting:
        paths[f"{setting.value} multi-epoch training, ragged batches and weight decay"] = any(
            cfg.e > 1 and cfg.weight_decay > 0 and cfg.data.samples_per_client_mean % cfg.b
            for cfg in configs
            if cfg.setting is setting
        )
    assert [path for path, covered in paths.items() if not covered] == []


def differ_when_forked(monkeypatch):
    """Append a blank line to each round log that a forked worker writes."""
    parent, write_log = os.getpid(), cli.write_log

    def write(runs_dir, result):
        write_log(runs_dir, result)
        if os.getpid() != parent:
            with (runs_dir / f"{cli.run_id_for(result.config)}.rounds.jsonl").open("a") as fh:
                fh.write("\n")

    monkeypatch.setattr(cli, "write_log", write)


def perturb_a_loss(monkeypatch):
    """Log the first round's first loss 1e-9 off the one the run used."""
    run_log_lines = cli.run_log_lines

    def perturbed(result):
        lines = run_log_lines(result)
        lines[1]["losses"][0] += 1e-9
        return lines

    monkeypatch.setattr(cli, "run_log_lines", perturbed)


def report_from_run_state(monkeypatch):
    """Add to each run's entropy.dat from state its round log does not hold."""
    write_report = cli.write_report

    def write(runs_dir, result):
        summary = write_report(runs_dir, result)
        if result.theta is not None:
            with (runs_dir / f"{cli.run_id_for(result.config)}.entropy.dat").open("a") as fh:
                fh.write(f"# {result.theta.sum()!r}\n")
        return summary

    monkeypatch.setattr(cli, "write_report", write)


@pytest.mark.parametrize(
    "entry, stem", [(output_corpus.CORPUS[0], "aaggff_s"), (output_corpus.CORPUS[1], "aaggff_d")], ids=["silo", "device"]
)
def test_a_corpus_slice_passes_and_each_check_names_its_fault(tmp_path, monkeypatch, entry, stem):
    """One silo and one device entry, cut to 3 rounds, pass; a fault only
    the --jobs 2 workers make, a logged loss that the run did not use, or a
    report that its round log cannot rebuild stops the check, naming the
    entry and the first run."""
    path, overrides = entry[0], {**entry[1], "t_rounds": 3}
    name = output_corpus.write_config(tmp_path, path, overrides).stem
    (tmp_path / "clean").mkdir()
    output_corpus.check_entry(tmp_path / "clean", path, overrides)
    faults = {
        differ_when_forked: f"{name}: --jobs 1 and 2 differ in runs/{stem}_seed0.rounds.jsonl, runs/{stem}_seed1.rounds.jsonl",
        perturb_a_loss: f"{name}/{stem}_seed0: replay failed: round 1: replayed decision digest ",
        report_from_run_state: f"{name}/{stem}_seed0: replay differs in {stem}_seed0.entropy.dat",
    }
    for fault, message in faults.items():
        with monkeypatch.context() as patch:
            fault(patch)
            (tmp_path / fault.__name__).mkdir()
            with pytest.raises(SystemExit) as stop:
                output_corpus.check_entry(tmp_path / fault.__name__, path, overrides)
        assert stop.value.code.startswith(message)
