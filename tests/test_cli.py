import csv
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import aggregators, cli, decision, federation
from fedfair.datasets import SyntheticDataSpec, generate_federation
from fedfair.errors import ConfigError, ConvergenceError
from fedfair.transform import transform_responses

MINIMAL = """\
k = 2
t_rounds = 1
method = fedavg
setting = cross_silo
"""

SMALL_RUN = """\
# small but complete experiment
k = 4
t_rounds = 3
method = aaggff-s
setting = cross_silo
b = 10
lr = 0.2
seed = 5
cdf.kind = weibull
data.input_dim = 4
data.num_classes = 3
data.samples_per_client_mean = 40
data.dirichlet_concentration = 0.5
"""

DEVICE_RUN = """\
k = 8
t_rounds = 3
method = aaggff-d
setting = cross_device
c = 0.4
b = 10
lr = 0.2
seed = 5
data.input_dim = 4
data.num_classes = 3
data.samples_per_client_mean = 40
"""

# One step per epoch with a huge weight decay: the parameters grow ~1e100-fold
# a round and overflow after a few completed rounds.
DIVERGING = (
    SMALL_RUN.replace("b = 10", "b = 40")
    .replace("lr = 0.2", "lr = 1\nweight_decay = 1e100")
    .replace("t_rounds = 3", "t_rounds = 8")
)


def fresh_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this fedfair."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_log(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def assert_records_equal(replayed, records):
    """Every field of two lists of round records equal, arrays by
    ``np.array_equal``; ``duration`` is the run's wall time and is not kept."""
    assert len(replayed) == len(records)
    for a, b in zip(replayed, records):
        for f in dataclasses.fields(federation.RoundRecord):
            if f.name != "duration":
                x, y = getattr(a, f.name), getattr(b, f.name)
                assert np.array_equal(x, y) if isinstance(y, np.ndarray) else x == y, (a.round, f.name)


RUN_SUFFIXES = ("rounds.jsonl", "summary.json", "cumobj.dat", "entropy.dat")


def assert_replay_rewrites_report(runs_dir: Path, run_id: str, replay_dir: Path):
    """The round log, summary and plot files rebuilt from the written round
    log alone equal the run's, byte for byte."""
    result = cli.round_series(read_log(runs_dir / f"{run_id}.rounds.jsonl"))
    replay_dir.mkdir(parents=True, exist_ok=True)
    cli.write_log(replay_dir, result)
    cli.write_report(replay_dir, result)
    for suffix in RUN_SUFFIXES:
        assert (replay_dir / f"{run_id}.{suffix}").read_bytes() == (runs_dir / f"{run_id}.{suffix}").read_bytes(), suffix


def count_learner_steps(monkeypatch) -> dict:
    """Count every call of the learners' step functions from now on."""
    from fedfair import aggregators

    calls = {}
    for name in ("ons_step", "ftrl_eg_step", "eg_step"):
        def counted(*args, _name=name, _step=getattr(aggregators, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _step(*args, **kwargs)

        monkeypatch.setattr(aggregators, name, counted)
    return calls


class RecordingDecision:
    """Stands in for the ``decision`` module inside ``federation`` and keeps
    every (decision, response) pair the run passes to ``decision_loss``."""

    def __init__(self):
        self.played, self.responses = [], []

    def __getattr__(self, name):
        return getattr(decision, name)

    def decision_loss(self, p, r):
        self.played.append(np.array(p))
        self.responses.append(np.array(r))
        return decision.decision_loss(p, r)


class TestParseConfig:
    # The shipped experiment configs and the benchmark's workloads: a renamed
    # or re-validated field must not break them unnoticed.
    @pytest.mark.parametrize("folder", ["configs", "bench/configs"])
    def test_every_shipped_config_parses(self, folder):
        paths = sorted((Path(__file__).resolve().parents[1] / folder).glob("*.cfg"))
        assert paths
        for path in paths:
            assert cli.parse_config(path).configs, path

    def test_minimal_single_run(self, tmp_path):
        suite = cli.parse_config(write_config(tmp_path, MINIMAL))
        assert len(suite.configs) == 1
        cfg = suite.configs[0]
        assert cfg.k == 2 and cfg.t_rounds == 1 and cfg.method == "fedavg"

    def test_method_setting_mismatch_rejected(self, tmp_path):
        bad = MINIMAL.replace("method = fedavg", "method = aaggff-d")
        with pytest.raises(ConfigError, match="method"):
            cli.parse_config(write_config(tmp_path, bad))

    def test_c_zero_rejected_with_field_message(self, tmp_path):
        bad = MINIMAL + "c = 0\n"
        with pytest.raises(ConfigError, match=r"^c: must be in \(0,1\]$"):
            cli.parse_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize(
        "line, field",
        [
            ("term_lambda = 0", "term_lambda"),
            ("term_lambda = 1e-310", "term_lambda"),
            ("afl_q = -1", "afl_q"),
            ("lr = inf", "lr"),
            ("lr = nan", "lr"),
            ("qfedavg_q = nan", "qfedavg_q"),
            ("data.feature_shift = nan", "data.feature_shift"),
            ("cdf.scale = nan", "cdf.scale"),
            ("cdf.shape = inf", "cdf.shape"),
            ("data.dirichlet_concentration = inf", "data.dirichlet_concentration"),
            ("data.samples_per_client_spread = 35", "data.samples_per_client_mean"),
        ],
    )
    def test_values_that_break_training_exit_1(self, tmp_path, capsys, line, field):
        path = write_config(tmp_path, SMALL_RUN + line + "\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_setting_is_config_error(self, tmp_path):
        bad = MINIMAL.replace("setting = cross_silo", "setting = cross_planet")
        with pytest.raises(ConfigError, match="setting: must be one of"):
            cli.parse_config(write_config(tmp_path, bad))

    def test_missing_required_field_named(self, tmp_path):
        with pytest.raises(ConfigError, match="t_rounds"):
            cli.parse_config(write_config(tmp_path, "k = 2\nmethod = fedavg\nsetting = cross_silo\n"))

    def test_unknown_field_named(self, tmp_path):
        with pytest.raises(ConfigError, match="frobnicate"):
            cli.parse_config(write_config(tmp_path, MINIMAL + "frobnicate = 1\n"))

    def test_bad_enum_named(self, tmp_path):
        with pytest.raises(ConfigError, match="cdf.kind"):
            cli.parse_config(write_config(tmp_path, MINIMAL + "cdf.kind = cauchy\n"))

    def test_bad_number_named(self, tmp_path):
        with pytest.raises(ConfigError, match="lr"):
            cli.parse_config(write_config(tmp_path, MINIMAL + "lr = fast\n"))

    def test_seeds_expand_to_runs(self, tmp_path):
        suite = cli.parse_config(write_config(tmp_path, MINIMAL + "seeds = 1,2,3\n"))
        assert [cfg.seed for cfg in suite.configs] == [1, 2, 3]

    def test_cli_seeds_override_file(self, tmp_path):
        suite = cli.parse_config(write_config(tmp_path, MINIMAL + "seeds = 1,2\n"), seeds=[9])
        assert [cfg.seed for cfg in suite.configs] == [9]

    def test_duplicate_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seeds"):
            cli.parse_config(write_config(tmp_path, MINIMAL + "seeds = 4,4\n"))

    def test_seed_and_seeds_together_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL + "seed = 7\nseeds = 0,1\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.strip() == "config error: seed: cannot be set together with seeds"
        assert not (tmp_path / "out").exists()

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            cli.parse_config(write_config(tmp_path, MINIMAL + "k = 3\n"))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# header\n\n" + MINIMAL + "   # trailing comment line\n"
        assert len(cli.parse_config(write_config(tmp_path, text)).configs) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such file"):
            cli.parse_config(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_config_exits_1_naming_it(self, tmp_path, capsys, kind):
        path = tmp_path
        if kind == "non-utf8":
            path = tmp_path / "latin1.cfg"
            path.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
        assert cli.main(["run", str(path)]) == 1
        assert f"config error: config: cannot read {path}: " in capsys.readouterr().err

    def test_every_field_is_a_key(self, tmp_path):
        keys = [
            "k", "t_rounds", "method", "setting", "c", "e", "b", "lr", "lr_decay",
            "lr_decay_step", "weight_decay", "seed", "qfedavg_q", "term_lambda", "propfair_m",
            "afl_q", "cdf.kind", "cdf.scale", "cdf.shape", "data.input_dim", "data.num_classes",
            "data.samples_per_client_mean", "data.samples_per_client_spread",
            "data.dirichlet_concentration", "data.feature_shift",
        ]
        text = MINIMAL + "".join(f"{key} = {TINY_VALUES[key][0]}\n" for key in keys[4:])
        suite = cli.parse_config(write_config(tmp_path, text + "out = elsewhere\n"))
        assert suite.out_dir == Path("elsewhere")
        raw = dataclasses.asdict(suite.configs[0])
        for section in ("cdf", "data"):
            raw.update({f"{section}.{name}": value for name, value in raw.pop(section).items()})
        assert sorted(raw) == sorted(keys)
        for key in keys[4:]:
            assert raw[key] == type(raw[key])(TINY_VALUES[key][0]), key


# Valid values of every config key that keep a run tiny, and values that are
# invalid for most keys: non-finite, negative, non-numeric, not an enum member.
TINY_VALUES = {
    "k": ["2", "3"],
    "t_rounds": ["1", "2"],
    "method": ["fedavg", "afl", "qfedavg", "term", "propfair", "aaggff-s", "aaggff-d"],
    "setting": ["cross_silo", "cross_device"],
    "c": ["1", "0.5"],
    "e": ["1", "2"],
    "b": ["5", "20"],
    "lr": ["0.1"],
    "lr_decay": ["0.9", "1"],
    "lr_decay_step": ["1"],
    "weight_decay": ["0", "0.01"],
    "seed": ["0", "7"],
    "seeds": ["0", "1,4"],
    "qfedavg_q": ["0", "1"],
    "term_lambda": ["0.5"],
    "propfair_m": ["3"],
    "afl_q": ["0.1"],
    "cdf.kind": ["weibull", "frechet", "gumbel", "exponential", "logistic", "normal"],
    "cdf.scale": ["1", "2"],
    "cdf.shape": ["0.5", "2"],
    "data.input_dim": ["3"],
    "data.num_classes": ["2", "3"],
    "data.samples_per_client_mean": ["10", "12"],
    "data.samples_per_client_spread": ["0", "4"],
    "data.dirichlet_concentration": ["0.5"],
    "data.feature_shift": ["0", "1"],
}
BAD_VALUES = ["nan", "inf", "-inf", "-1", "fast", "bogus"]

# Every method in every setting it allows.
REPLAY_CASES = [
    (method, setting)
    for method in ("fedavg", "afl", "qfedavg", "term", "propfair")
    for setting in ("cross_silo", "cross_device")
] + [("aaggff-s", "cross_silo"), ("aaggff-d", "cross_device")]


@st.composite
def assignments(draw):
    """Valid values for any keys, then at most two keys set to a bad value."""
    keys = st.sampled_from(sorted(TINY_VALUES))
    assignment = {key: draw(st.sampled_from(TINY_VALUES[key])) for key in draw(st.lists(keys, unique=True))}
    for key in draw(st.lists(keys, unique=True, max_size=2)):
        assignment[key] = draw(st.sampled_from(BAD_VALUES))
    return assignment


@settings(max_examples=150, deadline=None)
@given(assignments())
def test_any_config_is_rejected_by_field_or_runs(assignment):
    pairs = {"k": "3", "t_rounds": "2", "method": "fedavg", "setting": "cross_silo"}
    pairs.update({"b": "5", "data.input_dim": "3", "data.samples_per_client_mean": "10"})
    pairs.update(assignment)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in pairs.items()))
        try:
            suite = cli.parse_config(path, out_dir=Path(tmp) / "out")
        except ConfigError as err:
            assert err.field in set(TINY_VALUES)
            return
        with np.errstate(all="ignore"):
            assert cli.run_suite(suite) == 0


@st.composite
def small_configs(draw):
    """A small valid config of any method in any setting it allows."""
    method = draw(st.sampled_from(["aaggff-s", "aaggff-d", "fedavg", "afl", "qfedavg", "term", "propfair"]))
    settings_ = {"aaggff-s": ["cross_silo"], "aaggff-d": ["cross_device"]}.get(method, ["cross_silo", "cross_device"])
    setting = draw(st.sampled_from(settings_))
    return federation.FederationConfig(
        k=draw(st.integers(2, 8)), t_rounds=draw(st.integers(1, 4)), method=method, setting=setting,
        c=1.0 if setting == "cross_silo" else draw(st.sampled_from([0.1, 0.3, 0.5, 1.0])),
        e=draw(st.integers(1, 3)), b=5, lr=0.2, weight_decay=draw(st.sampled_from([0.0, 0.01])),
        seed=draw(st.integers(0, 3)),
        data=SyntheticDataSpec(input_dim=3, num_classes=3, samples_per_client_mean=12, samples_per_client_spread=4),
    )


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_replay_of_any_small_run_rebuilds_its_records_and_report(cfg):
    result = federation.run_federation(cfg)
    lines = [json.loads(cli._json_line(line)) for line in cli.run_log_lines(result)]
    replayed = cli.round_series(lines)
    assert_records_equal(replayed.records, result.records)
    assert cli.run_log_lines(replayed) == lines
    with tempfile.TemporaryDirectory() as tmp:
        assert cli.run_suite(cli.ExperimentSuite([cfg], Path(tmp))) == 0
        assert_replay_rewrites_report(Path(tmp) / "runs", cli.run_id_for(cfg), Path(tmp) / "replay")


# Each numeric key's edge values: zero, the float range's extremes, its
# smallest valid values and the values just past them. Sizes stay small so
# that every run takes milliseconds.
_FLOAT_EDGES = ["-1e-300", "0", "1e-300", "1", "1e300"]
EDGE_VALUES = {
    "k": ["1", "2", "30"],
    "t_rounds": ["0", "1", "3"],
    "method": TINY_VALUES["method"],
    "setting": TINY_VALUES["setting"],
    "c": _FLOAT_EDGES + ["0.5", "1.5"],
    "e": ["0", "1", "3"],
    "b": ["0", "1", "10", "11"],
    "lr": _FLOAT_EDGES,
    "lr_decay": _FLOAT_EDGES + ["1.5"],
    "lr_decay_step": ["0", "1", "4294967296"],
    "weight_decay": _FLOAT_EDGES,
    "seed": ["-1", "0", "4294967296"],
    "qfedavg_q": _FLOAT_EDGES,
    "term_lambda": _FLOAT_EDGES,
    "propfair_m": _FLOAT_EDGES + ["3"],
    "afl_q": _FLOAT_EDGES,
    "cdf.kind": TINY_VALUES["cdf.kind"],
    "cdf.scale": _FLOAT_EDGES,
    "cdf.shape": _FLOAT_EDGES,
    "data.input_dim": ["0", "1", "40"],
    "data.num_classes": ["1", "2", "12"],
    "data.samples_per_client_mean": ["0", "1", "10", "200"],
    "data.samples_per_client_spread": ["-1", "0", "9", "10"],
    "data.dirichlet_concentration": _FLOAT_EDGES,
    "data.feature_shift": _FLOAT_EDGES + ["1e150", "1e153"],
}
# The run failures the README documents for valid configs: local training
# that diverges (an extreme learning rate or weight decay).
DIVERGED = ("failed: local training diverged for client ", "failed: non-finite local loss for client ")


@st.composite
def edge_assignments(draw):
    """Edge values for up to four keys: more would reject nearly every config."""
    keys = draw(st.lists(st.sampled_from(sorted(EDGE_VALUES)), unique=True, max_size=4))
    return {key: draw(st.sampled_from(EDGE_VALUES[key])) for key in keys}


@settings(max_examples=400, deadline=None)
@given(edge_assignments())
def test_any_edge_config_is_rejected_by_field_runs_or_diverges(assignment):
    pairs = {"k": "3", "t_rounds": "2", "method": "fedavg", "setting": "cross_silo"}
    pairs.update({"b": "5", "data.input_dim": "3", "data.samples_per_client_mean": "10"})
    pairs.update(assignment)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in pairs.items()))
        try:
            suite = cli.parse_config(path, out_dir=Path(tmp) / "out")
        except ConfigError as err:
            assert err.field in set(EDGE_VALUES)
            return
        with np.errstate(all="ignore"):
            code = cli.run_suite(suite)
        with (Path(tmp) / "out" / "suite.csv").open(newline="") as fh:
            statuses = [row["status"] for row in csv.DictReader(fh)]
    assert code == (0 if statuses == ["ok"] else 2)
    assert statuses == ["ok"] or statuses[0].startswith(DIVERGED), statuses


class TestRunSuite:
    def test_single_run_emits_four_files_plus_csv(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(out)])
        assert code == 0
        run_files = sorted(p.name for p in (out / "runs").iterdir())
        assert run_files == [
            "aaggff_s_seed5.cumobj.dat",
            "aaggff_s_seed5.entropy.dat",
            "aaggff_s_seed5.rounds.jsonl",
            "aaggff_s_seed5.summary.json",
        ]
        assert (out / "suite.csv").exists()

    def test_round_log_shape(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(out)])
        lines = [json.loads(l) for l in (out / "runs/aaggff_s_seed5.rounds.jsonl").read_text().splitlines()]
        assert lines[0]["type"] == "meta" and lines[0]["schema"] == cli.SCHEMA_VERSION
        rounds = [l for l in lines if l["type"] == "round"]
        assert len(rounds) == 3
        assert lines[-1]["type"] == "client_eval"
        assert len(lines[-1]["accuracy"]) == 4
        for r in rounds:
            # A silo round samples every client, so its line omits them.
            assert set(r) == {"type", "round", "losses", "decision_digest", "decision_loss"}
            assert len(r["decision_digest"]) == 16

    def test_device_round_line_keeps_the_sampled_clients(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", str(write_config(tmp_path, DEVICE_RUN)), "--out", str(out)])
        for r in read_log(out / "runs/aaggff_d_seed5.rounds.jsonl")[1:-1]:
            assert set(r) == {"type", "round", "sampled", "losses", "decision_digest", "decision_loss"}
            assert len(r["sampled"]) == len(r["losses"]) == 3

    def test_meta_line_carries_baseline_train_sizes_only(self, tmp_path):
        path = write_config(tmp_path, SMALL_RUN.replace("method = aaggff-s", "method = fedavg"))
        cli.main(["run", str(path), "--out", str(tmp_path / "base")])
        cfg = cli.parse_config(path).configs[0]
        sizes = generate_federation(cfg.data, cfg.k, cfg.seed, min_batch=cfg.b).train_sizes
        meta = read_log(tmp_path / "base/runs/fedavg_seed5.rounds.jsonl")[0]
        assert meta["train_sizes"] == sizes.tolist()
        assert all(type(n) is int for n in meta["train_sizes"])

        cli.main(["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(tmp_path / "adaptive")])
        assert "train_sizes" not in read_log(tmp_path / "adaptive/runs/aaggff_s_seed5.rounds.jsonl")[0]

    @pytest.mark.parametrize("method, setting", REPLAY_CASES)
    def test_replay_rebuilds_every_decision_of_the_run(self, tmp_path, method, setting):
        # Every method in every setting it allows: the replay of the
        # serialized log rebuilds the very round records the run made, and
        # the report from them is the written one.
        cfg = federation.FederationConfig(
            k=6, t_rounds=4, method=method, setting=setting, c=0.5 if setting == "cross_device" else 1.0,
            b=10, lr=0.2, seed=3, data=SyntheticDataSpec(
                input_dim=4, num_classes=3, samples_per_client_mean=30, samples_per_client_spread=10
            ),
        )
        result = federation.run_federation(cfg)
        lines = [json.loads(cli._json_line(line)) for line in cli.run_log_lines(result)]
        replayed = cli.round_series(lines)
        assert cli.run_log_lines(replayed) == lines
        series = replayed.records
        assert len(series) == 4
        assert_records_equal(series, result.records)
        if cfg.adaptive:
            # An adaptive learner plays its previous decision, from uniform.
            played = [np.full(cfg.k, 1 / cfg.k)] + [rec.decision for rec in result.records[:-1]]
        else:
            sizes = result.train_sizes.astype(float)
            played = [sizes / sizes.sum()] * len(series)
        assert all(np.array_equal(r.played_sampled, p[r.sampled]) for p, r in zip(played, series))

        assert cli.run_suite(cli.ExperimentSuite([cfg], tmp_path / "out")) == 0
        assert (tmp_path / f"out/runs/{cli.run_id_for(cfg)}.rounds.jsonl").read_text() == "".join(
            cli._json_line(line) + "\n" for line in lines
        )
        assert_replay_rewrites_report(tmp_path / "out/runs", cli.run_id_for(cfg), tmp_path / "replay")

    @pytest.mark.parametrize(
        "text, method",
        [(SMALL_RUN, "aaggff-s"), (DEVICE_RUN, "aaggff-d"), (SMALL_RUN, "qfedavg")],
        ids=["aaggff-s", "aaggff-d", "qfedavg"],
    )
    def test_a_run_steps_its_learner_once_a_round(self, tmp_path, monkeypatch, text, method):
        calls = count_learner_steps(monkeypatch)
        text = text.replace("aaggff-s", method)
        assert cli.main(["run", str(write_config(tmp_path, text)), "--out", str(tmp_path / "out")]) == 0
        step = {"aaggff-s": "ons_step", "aaggff-d": "ftrl_eg_step"}.get(method, "eg_step")
        assert calls == {step: 3}

    @pytest.mark.parametrize(
        "text, method",
        [(SMALL_RUN, "aaggff-s"), (DEVICE_RUN, "aaggff-d"), (SMALL_RUN, "qfedavg"), (DEVICE_RUN, "qfedavg")],
        ids=["aaggff-s", "aaggff-d", "qfedavg-silo", "qfedavg-device"],
    )
    def test_summary_replays_the_run_decisions_and_responses(self, tmp_path, monkeypatch, text, method):
        # The summary rebuilds the scored response of every round from the
        # log, and takes the decision losses the replay steps; both must be
        # the very floats the run used.
        text = text.replace("aaggff-s", method).replace("aaggff-d", method)
        run = RecordingDecision()
        monkeypatch.setattr(federation, "decision", run)
        out = tmp_path / "out"
        assert cli.main(["run", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        monkeypatch.undo()

        lines = read_log(out / f"runs/{method.replace('-', '_')}_seed5.rounds.jsonl")
        replayed = []
        regret = cli.metrics.regret

        def recording_regret(played_losses, responses):
            replayed.append((played_losses, responses))
            return regret(played_losses, responses)

        monkeypatch.setattr(cli.metrics, "regret", recording_regret)
        cli.write_report(tmp_path, cli.round_series(lines))
        [(played_losses, responses)] = replayed
        assert len(run.responses) == 3
        assert played_losses == [decision.decision_loss(p, r) for p, r in zip(run.played, run.responses)]
        assert np.array_equal(responses, np.array(run.responses))

    @pytest.mark.parametrize(
        "text, method",
        [(SMALL_RUN, "aaggff-s"), (DEVICE_RUN, "aaggff-d"), (SMALL_RUN, "qfedavg"), (DEVICE_RUN, "qfedavg")],
        ids=["aaggff-s", "aaggff-d", "qfedavg-silo", "qfedavg-device"],
    )
    def test_summary_regret_is_that_of_the_played_decisions(self, tmp_path, text, method):
        # The reference rebuilds every round's played decision (uniform, then
        # the previous decision, or a baseline's prior every round) and full
        # response, and scores the played sequence against the hindsight best.
        text = text.replace("aaggff-s", method).replace("aaggff-d", method)
        cfg = cli.parse_config(write_config(tmp_path, text)).configs[0]
        result = federation.run_federation(cfg)
        if cfg.adaptive:
            played = [np.full(cfg.k, 1 / cfg.k)] + [rec.decision for rec in result.records[:-1]]
        else:
            sizes = result.train_sizes.astype(float)
            played = [sizes / sizes.sum()] * cfg.t_rounds
        responses = []
        for rec in result.records:
            response = transform_responses(rec.losses, cfg.response_range, cfg.cdf)
            if cfg.setting == "cross_device":
                response = decision.dr_estimate(response, rec.sampled, cfg.inclusion_probability, cfg.k)
            responses.append(response)
        responses = np.array(responses)
        expected = sum(decision.decision_loss(p, r) for p, r in zip(played, responses))
        expected -= aggregators.cumulative_loss(aggregators.hindsight_best(responses), responses)
        assert cli.write_report(tmp_path, result)["regret"] == expected

    @pytest.mark.parametrize("method", ["aaggff-d", "qfedavg"])
    def test_cross_device_memory_grows_by_two_client_vectors_a_round(self, tmp_path, method):
        # A round keeps one k-vector, its new decision, and the report adds
        # one, the round's row of the response matrix. A record that also
        # kept the decision played or the full response, or a report that
        # stacked either, would add a third and a fourth.
        k = 5000
        data = SyntheticDataSpec(input_dim=2, num_classes=2, samples_per_client_mean=10)
        fed = generate_federation(data, k, 0)
        peaks = []
        for t_rounds in (20, 80):
            cfg = federation.FederationConfig(
                k=k, t_rounds=t_rounds, method=method, setting="cross_device", c=0.01, b=10, data=data
            )
            tracemalloc.start()
            try:
                cli.write_report(tmp_path, federation.run_federation(cfg, fed))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 60 < 3 * 8 * k

    def test_regret_vs_uniform_observed_sums_transformed_losses(self, tmp_path):
        path = write_config(tmp_path, DEVICE_RUN, "dev.cfg")
        out = tmp_path / "out"
        cli.main(["run", str(path), "--out", str(out)])
        cfg = cli.parse_config(path).configs[0]
        played, expected = np.full(cfg.k, 1 / cfg.k), 0.0
        for rec in federation.run_federation(cfg).records:
            observed = transform_responses(rec.losses, cfg.response_range, cfg.cdf)
            weights = played[rec.sampled] / played[rec.sampled].sum()
            expected += np.log1p(observed.mean()) - np.log1p(weights @ observed)
            played = rec.decision
        summary = json.loads((out / "runs/aaggff_d_seed5.summary.json").read_text())
        assert summary["regret_vs_uniform_observed"] == pytest.approx(expected, rel=1e-12)

    def test_rerun_byte_identical_log(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["run", str(cfg_path), "--out", str(out1)])
        cli.main(["run", str(cfg_path), "--out", str(out2)])
        log1 = (out1 / "runs/aaggff_s_seed5.rounds.jsonl").read_bytes()
        log2 = (out2 / "runs/aaggff_s_seed5.rounds.jsonl").read_bytes()
        assert log1 == log2

    def test_three_seeds_three_csv_rows(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            ["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(out), "--seeds", "1,2,3"]
        )
        assert code == 0
        rows = (out / "suite.csv").read_text().splitlines()
        assert rows[0] == ",".join(cli.CSV_COLUMNS)
        assert len(rows) == 4

    def test_summary_recomputable_from_log(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", str(write_config(tmp_path, DEVICE_RUN, "dev.cfg")), "--out", str(out)])
        log_path = out / "runs/aaggff_d_seed5.rounds.jsonl"
        lines = [json.loads(l) for l in log_path.read_text().splitlines()]
        recomputed = cli.write_report(tmp_path, cli.round_series(lines))
        stored = json.loads((out / "runs/aaggff_d_seed5.summary.json").read_text())
        assert stored == json.loads(json.dumps(recomputed))

    def test_summary_validates_the_logged_config(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(out)])
        lines = read_log(out / "runs/aaggff_s_seed5.rounds.jsonl")
        lines[0]["config"]["k"] = 1
        with pytest.raises(ConfigError) as err:
            cli.round_series(lines)
        assert err.value.field == "k"

    def test_summary_rejects_a_log_of_another_schema(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(out)])
        lines = read_log(out / "runs/aaggff_s_seed5.rounds.jsonl")
        lines[0]["schema"] = 3
        with pytest.raises(ValueError, match="round log schema 3 is not 4"):
            cli.round_series(lines)

    def test_device_summary_flags_estimated_regret_and_bound(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", str(write_config(tmp_path, DEVICE_RUN, "dev.cfg")), "--out", str(out)])
        summary = json.loads((out / "runs/aaggff_d_seed5.summary.json").read_text())
        assert summary["regret_responses_estimated"] is True
        assert summary["regret_bound"] is not None
        assert summary["bound_satisfied"] in (True, False)

    def test_plot_files_two_columns(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(out)])
        for name in ("cumobj", "entropy"):
            lines = (out / f"runs/aaggff_s_seed5.{name}.dat").read_text().splitlines()
            assert lines[0].startswith(f"# fedfair schema={cli.SCHEMA_VERSION} columns=round,")
            assert len(lines) == 4
            for row in lines[1:]:
                round_idx, value = row.split()
                assert int(round_idx) >= 1
                assert np.isfinite(float(value))

    def test_validate_only_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(out), "--validate-only"]
        )
        assert code == 0
        assert "1 run(s) validated" in capsys.readouterr().out
        assert not out.exists()

    def test_integer_beyond_the_float_range_exits_1_naming_the_field(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL.replace("k = 2", "k = 1" + "0" * 400))
        assert cli.main(["run", str(path), "--validate-only"]) == 1
        out, err = capsys.readouterr()
        assert err.strip() == "config error: k: must be within the float range"
        assert "ok" not in out

    @pytest.mark.parametrize(
        "line, bad, message",
        [
            ("k = 2", "k = 4294967297", "k: must be in [2, 4294967295]"),
            ("t_rounds = 1", "t_rounds = 4294967296", "t_rounds: must be in [1, 4294967295]"),
        ],
    )
    def test_a_stream_index_past_2_32_exits_1_naming_the_field(self, tmp_path, capsys, line, bad, message):
        """Client ids 1..k and rounds 1..t_rounds are stream path entries,
        which datasets.stream_keys takes below 2**32."""
        path = write_config(tmp_path, MINIMAL.replace(line, bad))
        assert cli.main(["run", str(path), "--validate-only"]) == 1
        out, err = capsys.readouterr()
        assert err.strip() == f"config error: {message}"
        assert "validated" not in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path, MINIMAL + "c = 0\n")
        assert cli.main(["run", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_run_failure_exit_code_and_summary(self, tmp_path, monkeypatch):
        def fail(cfg):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(cli, "run_federation", fail)
        out = tmp_path / "out"
        code = cli.main(["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(out)])
        assert code == 2
        summary = json.loads((out / "runs/aaggff_s_seed5.summary.json").read_text())
        assert summary["error"]
        assert (out / "suite.csv").read_text().splitlines()[1].endswith(",failed: injected failure")

    def test_summary_failure_keeps_round_log(self, tmp_path, monkeypatch):
        def fail(result, curves):
            raise ConvergenceError("hindsight solver stalled", residual=1e-5)

        monkeypatch.setattr(cli, "summary_from_log", fail)
        out = tmp_path / "out"
        code = cli.main(["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(out)])
        assert code == 2
        row = (out / "suite.csv").read_text().splitlines()[1]
        assert row.endswith(",summary failed: hindsight solver stalled")
        assert len(read_log(out / "runs/aaggff_s_seed5.rounds.jsonl")) == 5
        summary = json.loads((out / "runs/aaggff_s_seed5.summary.json").read_text())
        assert summary["error"] == "hindsight solver stalled"
        assert summary["residual"] == 1e-5

    def test_a_run_never_rebuilds_its_config(self, tmp_path, monkeypatch):
        # The run's own config writes every file; only a replay of a round
        # log rebuilds (and validates) the config its meta line holds.
        def fail(*args):
            raise AssertionError("FederationConfig.from_dict called")

        monkeypatch.setattr(federation.FederationConfig, "from_dict", fail)
        for method in ("aaggff-s", "fedavg"):
            path = write_config(tmp_path, SMALL_RUN.replace("aaggff-s", method))
            assert cli.main(["run", str(path), "--out", str(tmp_path / method)]) == 0

    def test_overflowing_feature_shift_exits_1_naming_the_field(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", str(write_config(tmp_path, SMALL_RUN + "data.feature_shift = 1e300\n")), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error: data.feature_shift: 1e+300 overflows the standardized features of 160 rows" in err
        assert not out.exists()

    def test_edited_digest_fails_the_summary_naming_the_round(self, tmp_path, monkeypatch):
        # A run does not replay its log, so it writes an edited one; the
        # replay that rebuilds the summary from it names the first bad round.
        original = cli.run_log_lines

        def edit_round_2(result):
            lines = original(result)
            lines[2]["decision_digest"] = "0" * 16
            return lines

        monkeypatch.setattr(cli, "run_log_lines", edit_round_2)
        out = tmp_path / "out"
        assert cli.main(["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(out)]) == 0
        lines = read_log(out / "runs/aaggff_s_seed5.rounds.jsonl")
        assert len(lines) == 5 and lines[2]["decision_digest"] == "0" * 16
        with pytest.raises(ValueError, match=r"^round 2: replayed decision digest [0-9a-f]{16} differs from the logged 0{16}$"):
            cli.round_series(lines)

    def test_failed_rerun_leaves_no_earlier_outputs(self, tmp_path, monkeypatch):
        cfg_path, out = write_config(tmp_path, SMALL_RUN), tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0

        def fail(cfg):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "run_federation", fail)
        assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 2
        assert sorted(p.name for p in (out / "runs").iterdir()) == ["aaggff_s_seed5.summary.json"]
        assert json.loads((out / "runs/aaggff_s_seed5.summary.json").read_text())["error"] == "injected"
        assert (out / "suite.csv").read_text().splitlines()[1].endswith(",failed: injected")

        def interrupt(cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_federation", interrupt)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["run", str(cfg_path), "--out", str(out)])
        assert sorted(p.name for p in out.rglob("*")) == ["runs"]

    def test_divergence_keeps_partial_round_log(self, tmp_path):
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = cli.main(["run", str(write_config(tmp_path, DIVERGING)), "--out", str(out)])
        assert code == 2
        assert "failed: local training diverged" in (out / "suite.csv").read_text()
        log = (out / "runs/aaggff_s_seed5.rounds.jsonl").read_text().splitlines()
        lines = [json.loads(line) for line in log]
        assert lines[0]["type"] == "meta" and lines[0]["config"]["t_rounds"] == 8
        rounds = lines[1:]
        assert 1 <= len(rounds) < 8
        assert [r["type"] for r in rounds] == ["round"] * len(rounds)
        assert [r["round"] for r in rounds] == list(range(1, len(rounds) + 1))
        assert json.loads((out / "runs/aaggff_s_seed5.summary.json").read_text())["error"]
        # The partial log replays to the rounds the run completed, but has
        # no client accuracy to report.
        result = cli.round_series(lines)
        assert result.client_accuracy is None and len(result.records) == len(rounds)
        assert cli.run_log_lines(result) == lines
        with pytest.raises(ValueError, match="^run aaggff_s_seed5 has no client accuracy: its round log has no client_eval line$"):
            cli.write_report(tmp_path, result)
        assert not list(tmp_path.glob("aaggff_s_seed5.*"))

    def test_jobs_parallel_identical_output(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        out1, out8 = tmp_path / "j1", tmp_path / "j8"
        cli.main(["run", str(cfg_path), "--out", str(out1), "--seeds", "1,2", "--jobs", "1"])
        cli.main(["run", str(cfg_path), "--out", str(out8), "--seeds", "1,2", "--jobs", "8"])
        for seed in (1, 2):
            a = (out1 / f"runs/aaggff_s_seed{seed}.rounds.jsonl").read_bytes()
            b = (out8 / f"runs/aaggff_s_seed{seed}.rounds.jsonl").read_bytes()
            assert a == b


class TestUsage:
    @pytest.mark.parametrize(
        "args, message",
        [
            ([], "fedfair: error: the following arguments are required: command"),
            (["--jobs", "x"], "fedfair run: error: argument --jobs: expected an integer >= 1, got 'x'"),
            (["--jobs", "0", "--validate-only"], "fedfair run: error: argument --jobs: expected an integer >= 1, got '0'"),
        ],
        ids=["no-command", "jobs-not-an-integer", "jobs-0-validate-only"],
    )
    def test_usage_error_exits_1_naming_the_argument(self, tmp_path, capsys, args, message):
        if args:
            args = ["run", str(write_config(tmp_path, MINIMAL)), *args]
        with pytest.raises(SystemExit) as stop:
            cli.main(args)
        assert stop.value.code == 1
        out, err = capsys.readouterr()
        assert message in err and "ok" not in out

    @pytest.mark.parametrize(
        "seeds, file_seeds, message",
        [
            ("-1", None, "config error: --seeds: must be >= 0, got '-1'"),
            ("1,1", None, "config error: --seeds: duplicate seed in '1,1'"),
            (None, "-1", "config error: seeds: must be >= 0, got '-1'"),
            (None, "4,4", "config error: seeds: duplicate seed in '4,4'"),
        ],
        ids=["arg-negative", "arg-duplicate", "file-negative", "file-duplicate"],
    )
    def test_bad_seeds_exit_1_naming_where_they_came_from(self, tmp_path, capsys, seeds, file_seeds, message):
        text = MINIMAL if file_seeds is None else MINIMAL + f"seeds = {file_seeds}\n"
        args = ["run", str(write_config(tmp_path, text)), "--out", str(tmp_path / "out")]
        if seeds is not None:
            args.append(f"--seeds={seeds}")
        assert cli.main(args) == 1
        assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["a-file", "under-a-file"])
    @pytest.mark.parametrize("field", ["--out", "out"])
    def test_out_that_cannot_be_a_directory_exits_1_naming_where_it_came_from(
        self, tmp_path, capsys, out, field
    ):
        (tmp_path / "afile").write_text("")
        out = str(tmp_path / out)
        args = ["run", str(write_config(tmp_path, MINIMAL if field == "--out" else MINIMAL + f"out = {out}\n"))]
        if field == "--out":
            args += ["--out", out]
        assert cli.main(args) == 1
        assert capsys.readouterr().err.strip() == f"config error: {field}: {tmp_path / 'afile'} is not a directory"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(["run", "--help"])
        assert stop.value.code == 0
        assert "--jobs N" in capsys.readouterr().out


def output_files(out: Path) -> dict:
    return {path.relative_to(out).as_posix(): path.read_bytes() for path in out.rglob("*") if path.is_file()}


class TestWorkers:
    @pytest.mark.parametrize(
        "text, stem, code",
        [(SMALL_RUN, "aaggff_s", 0), (DEVICE_RUN, "aaggff_d", 0), (DIVERGING, "aaggff_s", 2)],
        ids=["silo", "device", "diverging"],
    )
    def test_every_output_file_identical_at_jobs_1_and_2(self, tmp_path, text, stem, code):
        cfg_path = write_config(tmp_path, text)
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            with np.errstate(all="ignore"):
                assert cli.main(["run", str(cfg_path), "--out", str(out), "--seeds", "1,2", "--jobs", jobs]) == code
            outputs.append(output_files(out))
        assert outputs[0] == outputs[1]
        suffixes = [".rounds.jsonl", ".summary.json"] + ([".cumobj.dat", ".entropy.dat"] if code == 0 else [])
        assert sorted(outputs[0]) == sorted(
            ["suite.csv"] + [f"runs/{stem}_seed{seed}{suffix}" for seed in (1, 2) for suffix in suffixes]
        )
        if code:
            rows = outputs[0]["suite.csv"].decode().splitlines()[1:]
            assert [row.split(",")[6] for row in rows] == ["1", "2"]
            assert all(",failed: local training diverged" in row for row in rows)

    def test_workers_are_gone_when_the_suite_returns(self, tmp_path, monkeypatch):
        process = multiprocessing.get_context("fork").Process
        start, started = process.start, []

        def counted_start(self):
            started.append(self)
            start(self)

        monkeypatch.setattr(process, "start", counted_start)
        suite = cli.parse_config(write_config(tmp_path, SMALL_RUN), out_dir=tmp_path / "out", seeds=[1, 2])
        assert cli.run_suite(suite, jobs=3) == 0
        assert len(started) == 2
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_fails_only_its_own_run(self, tmp_path, monkeypatch):
        original = cli.run_federation

        def die_on_seed_2(cfg):
            if cfg.seed == 2:
                os._exit(9)
            return original(cfg)

        monkeypatch.setattr(cli, "run_federation", die_on_seed_2)
        out = tmp_path / "out"
        suite = cli.parse_config(write_config(tmp_path, SMALL_RUN), out_dir=out, seeds=[1, 2])
        assert cli.run_suite(suite, jobs=2) == 2
        rows = (out / "suite.csv").read_text().splitlines()[1:]
        assert rows[0].startswith("4,aaggff_s_seed1,") and rows[0].endswith(",ok")
        assert rows[1].startswith("4,aaggff_s_seed2,") and rows[1].endswith(",failed: worker process died")
        assert json.loads((out / "runs/aaggff_s_seed1.summary.json").read_text())["avg_accuracy"] > 0
        assert len(read_log(out / "runs/aaggff_s_seed1.rounds.jsonl")) == 5
        report = json.loads((out / "runs/aaggff_s_seed2.summary.json").read_text())
        assert report["error"] == "worker process died" and report["exitcode"] == 9
        assert not (out / "runs/aaggff_s_seed2.rounds.jsonl").exists()
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_leaves_no_earlier_outputs(self, tmp_path, monkeypatch):
        cfg_path, out = write_config(tmp_path, SMALL_RUN), tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--out", str(out), "--seeds", "1,2", "--jobs", "2"]) == 0

        def die(cfg, runs_dir):
            os._exit(9)

        monkeypatch.setattr(cli, "_execute_one", die)
        assert cli.main(["run", str(cfg_path), "--out", str(out), "--seeds", "1,2", "--jobs", "2"]) == 2
        assert sorted(p.name for p in (out / "runs").iterdir()) == [
            "aaggff_s_seed1.summary.json", "aaggff_s_seed2.summary.json"
        ]
        rows = (out / "suite.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",failed: worker process died") for row in rows)

    def test_workers_log_with_the_parents_setup(self, tmp_path):
        env = fresh_env(FEDFAIR_LOG="info")
        cfg_path = write_config(tmp_path, SMALL_RUN)
        proc = subprocess.run(
            [sys.executable, "-m", "fedfair", "run", str(cfg_path), "--out", str(tmp_path / "out"),
             "--seeds", "1,2", "--jobs", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        finished = sorted(line.split()[3] for line in proc.stderr.splitlines() if " finished in " in line)
        assert finished == ["aaggff_s_seed1", "aaggff_s_seed2"]


@pytest.fixture(scope="module")
def fresh_modules(tmp_path_factory):
    """Modules a fresh interpreter has loaded after ``import numpy``, and after
    a small silo and a small device ``fedfair run`` at ``--jobs 1``."""
    tmp = tmp_path_factory.mktemp("fresh")
    script = (
        "import sys, numpy\n"
        "print(' '.join(sys.modules))\n"
        "from fedfair import cli\n"
        "for cfg in sys.argv[1:]:\n"
        "    assert cli.main(['run', cfg, '--out', cfg + '.out', '--jobs', '1']) == 0\n"
        "print(' '.join(sys.modules))\n"
    )
    configs = [str(write_config(tmp, text, name)) for text, name in ((SMALL_RUN, "silo.cfg"), (DEVICE_RUN, "dev.cfg"))]
    proc = subprocess.run(
        [sys.executable, "-c", script, *configs], capture_output=True, text=True, env=fresh_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    numpy_only, after_runs = (set(line.split()) for line in proc.stdout.splitlines())
    return numpy_only, after_runs


def test_one_worker_loads_no_multiprocessing(fresh_modules):
    assert "multiprocessing" not in fresh_modules[1]


def test_a_run_loads_no_numpy_ma(fresh_modules):
    numpy_only, after_runs = fresh_modules
    if "numpy.ma" in numpy_only:
        pytest.skip("importing numpy alone loads numpy.ma")
    assert "numpy.ma" not in after_runs
