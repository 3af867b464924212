"""Batch entry point.

Parses a flat key = value experiment config, runs one simulation per seed,
and writes machine-readable results:

    runs/<run_id>.rounds.jsonl   round-by-round log (source of truth)
    runs/<run_id>.summary.json   metrics of the run's rounds and client eval
    runs/<run_id>.cumobj.dat     round vs cumulative global objective
    runs/<run_id>.entropy.dat    round vs decision entropy
    suite.csv                    one row per (config, seed)

A round log (schema 4) records what the server observed, not what it
decided. Its ``meta`` line holds the schema, the config and, for a baseline,
the clients' integer ``train_sizes``. A ``round`` line holds ``round``,
``losses``, ``decision_loss``, ``decision_digest`` (16 hex characters of the
SHA-256 of the round's new decision's float64 bytes) and, in cross-device
runs only, ``sampled``; a cross-silo round samples every client. A final
``client_eval`` line holds per-client accuracy.

``write_log`` writes a run's round log and ``write_report`` its other three
files, both from the run's ``federation.RunResult``, which holds the
``RoundRecord`` that each step of its ``federation.Learner`` returned.
``round_series`` rebuilds that result from a round log alone, so the two
rewrite the run's files byte for byte, and fails naming the first round
whose rebuilt decision does not match its digest. The digest ties a log to
the floating-point arithmetic that wrote it: replaying an Online Newton Step
log under another BLAS can fail the check.

A run that fails has status ``failed: <error>``; one whose summary fails
after its log was written has ``summary failed: <error>``.

``--jobs N`` runs each seed in its own forked process (POSIX), up to N at a
time. Every output file is byte-identical across reruns and across
``--jobs`` values. A process that dies without reporting (killed, crashed)
fails only its own run, with status ``failed: worker process died``.

Exit codes: 0 success, 1 configuration or usage error, 2 at least one run
failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import logging
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics, simplex
from .errors import ConfigError, ConvergenceError, DivergenceError
from .federation import FederationConfig, Learner, RunResult, run_federation, scored_response, subset_weights

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 4

CSV_COLUMNS = [
    "schema_version",
    "run_id",
    "method",
    "k",
    "t_rounds",
    "c",
    "seed",
    "avg_accuracy_pct",
    "worst10_accuracy_pct",
    "best10_accuracy_pct",
    "gini_x100",
    "accuracy_parity_gap_pct",
    "regret",
    "regret_vs_uniform_observed",
    "status",
]

_SUITE_KEYS = {"seeds", "out"}
# Resolving the string annotations costs more than the rest of a parse.
_type_hints = functools.cache(typing.get_type_hints)


@dataclass
class ExperimentSuite:
    """One run per entry of ``configs`` (same experiment, distinct seeds)."""

    configs: list
    out_dir: Path

    def __post_init__(self):
        if not self.configs:
            raise ConfigError("configs", "config list is empty")
        seeds = [cfg.seed for cfg in self.configs]
        if len(set(seeds)) != len(seeds):
            raise ConfigError("seeds", "duplicate (config, seed) pair")


def _parse_value(key, raw, hint):
    """Parse ``raw`` as the annotation says: int, float, or else the raw
    string, which the dataclass converts and validates itself."""
    if hint is int:
        cast, kind = int, "an integer"
    elif float in (hint, *typing.get_args(hint)):
        cast, kind = float, "a number"
    else:
        return raw
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(key, f"expected {kind}, got {raw!r}") from None


def _config_kwargs(cls, pairs, prefix=""):
    """Keyword arguments of the config dataclass ``cls`` from the file's
    ``pairs``, popping each entry it uses. A field's file key is its name,
    dotted under ``prefix``; a nested dataclass field is built from its own
    ``<field>.<name>`` entries, and a field without a default is required."""
    hints = _type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        key, hint = prefix + f.name, hints[f.name]
        if dataclasses.is_dataclass(hint):
            kwargs[f.name] = hint(**_config_kwargs(hint, pairs, key + "."))
        elif key in pairs:
            kwargs[f.name] = _parse_value(key, pairs.pop(key), hint)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(key, "required field is missing")
    return kwargs


def _parse_seeds(field, raw):
    """The distinct seeds >= 0 of ``raw``; an error names ``field``, where they came from."""
    try:
        seeds = [int(s) for s in str(raw).split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(field, f"expected comma-separated integers, got {raw!r}") from None
    if not seeds:
        raise ConfigError(field, "needs at least one seed")
    if min(seeds) < 0:
        raise ConfigError(field, f"must be >= 0, got {raw!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(field, f"duplicate seed in {raw!r}")
    return seeds


def _out_dir(field, raw) -> Path:
    """``raw`` as the output directory, checked that its ``runs`` directory
    can be made there; an error names ``field``, where it came from."""
    out = Path(raw)
    for path in (out / "runs", out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(field, f"{path} is not a directory")
            break
    return out


def read_key_values(path: Path) -> dict:
    """Read the flat ``key = value`` schema ('#' starts a comment) from a
    UTF-8 file; a file that cannot be read is a ConfigError naming it."""
    try:
        content = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError("config", f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError("config", f"cannot read {path}: {err}") from None
    pairs = {}
    for lineno, line in enumerate(content.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path.name}:{lineno}", f"expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key in pairs:
            raise ConfigError(key, "duplicate key")
        pairs[key] = value
    return pairs


def parse_config(path, out_dir=None, seeds=None) -> ExperimentSuite:
    """Validate a config file into a suite of per-seed run configs.

    ``out_dir`` and ``seeds`` override the file's optional ``out`` and
    ``seeds`` entries; the file's ``seed`` is the single-run fallback, and
    a file that sets both ``seed`` and ``seeds`` is rejected.
    """
    path = Path(path)
    pairs = read_key_values(path)

    unused = dict(pairs)
    kwargs = _config_kwargs(FederationConfig, unused)
    for key in unused:
        if key not in _SUITE_KEYS:
            raise ConfigError(key, "unknown field")

    if "seed" in pairs and "seeds" in pairs:
        raise ConfigError("seed", "cannot be set together with seeds")
    if seeds is None:
        if "seeds" in pairs:
            seeds = _parse_seeds("seeds", pairs["seeds"])
        else:
            seeds = [kwargs.get("seed", 0)]
    kwargs.pop("seed", None)
    if out_dir is None:
        out_dir = _out_dir("out", pairs.get("out", "results"))

    configs = [FederationConfig(seed=seed, **kwargs) for seed in seeds]
    return ExperimentSuite(configs=configs, out_dir=Path(out_dir))


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _meta_line(result) -> dict:
    cfg = result.config
    # The str enums (setting, cdf.kind) encode as, and equal, their values.
    meta = {"type": "meta", "schema": SCHEMA_VERSION, "config": dataclasses.asdict(cfg)}
    if not cfg.adaptive:
        meta["train_sizes"] = result.train_sizes.tolist()
    return meta


def decision_digest(p: np.ndarray) -> str:
    """16 hex characters of the SHA-256 of the decision ``p``'s float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(p, dtype=np.float64).tobytes()).hexdigest()[:16]


def _round_line(rec, silo: bool) -> dict:
    line = {
        "type": "round",
        "round": rec.round,
        "losses": rec.losses.tolist(),
        "decision_digest": decision_digest(rec.decision),
        "decision_loss": float(rec.decision_loss),
    }
    if not silo:
        line["sampled"] = rec.sampled.tolist()
    return line


def run_log_lines(result) -> list:
    """Serialize a run into its round-log lines: meta, rounds and client eval.

    A diverged run has no ``client_accuracy`` and no client eval line."""
    silo = result.config.setting == "cross_silo"
    lines = [_meta_line(result)] + [_round_line(rec, silo) for rec in result.records]
    if result.client_accuracy is not None:
        lines.append({"type": "client_eval", "accuracy": result.client_accuracy.tolist()})
    return lines


def round_series(lines: list) -> RunResult:
    """Replay a round log into its run's ``RunResult``, so that
    ``run_log_lines(round_series(lines)) == lines``: the meta line's
    (validated) config and a baseline's ``train_sizes``, the ``RoundRecord``
    of every round line as the run's ``federation.Learner`` stepped it
    (``duration`` aside), and the client eval line's ``client_accuracy``
    (None in a diverged run's log); no ``theta`` or ``runtime``.

    The log must be the meta line, round lines numbered 1, 2, ... and, only
    after all ``t_rounds`` of them, a last client eval line; each round line
    must have its run's fields and equal the line of its rebuilt record.
    Raises ValueError for a log of another schema, naming the first round
    whose new decision does not match the line's ``decision_digest``, and
    naming the line for any other fault."""
    if not lines or lines[0].get("type") != "meta":
        raise ValueError("line 1: a round log starts with its meta line")
    if lines[0].get("schema") != SCHEMA_VERSION:
        raise ValueError(f"round log schema {lines[0].get('schema')} is not {SCHEMA_VERSION}")
    cfg = FederationConfig.from_dict(lines[0]["config"])
    train_sizes = None if cfg.adaptive else np.array(lines[0]["train_sizes"])
    learner = Learner(cfg, train_sizes)
    silo = cfg.setting == "cross_silo"
    fields = {"type", "round", "losses", "decision_digest", "decision_loss"} | (set() if silo else {"sampled"})
    records, accuracy = [], None
    for n, r in enumerate(lines[1:], start=2):
        i, kind = len(records) + 1, r.get("type")
        if i > cfg.t_rounds:
            if kind != "client_eval" or n < len(lines) or r.keys() != {"type", "accuracy"}:
                raise ValueError(f"line {n}: after round {i - 1} only a last client_eval line may follow")
            accuracy = np.array(r["accuracy"])
            continue
        if kind != "round" or r.keys() != fields:
            raise ValueError(f"line {n}: expected round {i}'s line with fields {sorted(fields)}, got {sorted(r)}")
        sampled = np.arange(cfg.k) if silo else np.asarray(r["sampled"], dtype=int)
        rec = learner.step(i, np.asarray(r["losses"]), sampled)
        rebuilt = _round_line(rec, silo)
        digest, logged = rebuilt["decision_digest"], r["decision_digest"]
        if digest != logged:
            raise ValueError(f"round {i}: replayed decision digest {digest} differs from the logged {logged}")
        if rebuilt != r:
            differing = ", ".join(key for key in sorted(fields) if rebuilt[key] != r[key])
            raise ValueError(f"line {n}: the replay of round {i} differs in {differing}")
        records.append(rec)
    return RunResult(cfg, records, theta=None, client_accuracy=accuracy, runtime=None, train_sizes=train_sizes)


def round_curves(records: list) -> tuple[list, list]:
    """The cumulative objective after each round,
    sum_{t<=T} sum_{i in S_t} p_i^{(t)} F_i(theta^{(t)}) with p^{(t)} the
    decision played in round t, and the entropy of each round's new decision."""
    cumulative, cum = [], 0.0
    for rec in records:
        cum += float(rec.played_sampled @ rec.losses)
        cumulative.append(cum)
    return cumulative, [metrics.decision_entropy(rec.decision) for rec in records]


def summary_from_log(result: RunResult, curves: tuple[list, list]) -> dict:
    """Every reported number of a run, from its ``RunResult`` (the run's
    own, or ``round_series`` of its round log) and the ``round_curves`` of
    its records."""
    cfg, records, accuracy = result.config, result.records, result.client_accuracy

    observed_vs_uniform = 0.0
    responses = np.empty((len(records), cfg.k))
    for r, row in zip(records, responses):
        weights = subset_weights(r.played_sampled, np.arange(r.sampled.size), r.round)
        observed_vs_uniform -= float(np.log1p(weights @ r.observed))
        observed_vs_uniform += float(np.log1p(simplex.uniform(r.sampled.size) @ r.observed))
        row[...] = scored_response(cfg, r.observed, r.sampled)
    regret = metrics.regret([r.decision_loss for r in records], responses)
    bound = cfg.regret_bound
    cumulative, entropy = curves

    worst, best = metrics.worst_best(accuracy, 0.1)
    return {
        "schema": SCHEMA_VERSION,
        "method": cfg.method,
        "k": cfg.k,
        "t_rounds": cfg.t_rounds,
        "c": cfg.c,
        "seed": cfg.seed,
        "avg_accuracy": float(accuracy.mean()),
        "worst10_accuracy": worst,
        "best10_accuracy": best,
        "worst_accuracy": float(accuracy.min()),
        "gini": metrics.gini(accuracy) if accuracy.sum() > 0 else None,
        "accuracy_parity_gap": metrics.accuracy_parity_gap(accuracy),
        "regret": float(regret),
        "regret_responses_estimated": cfg.setting == "cross_device",
        "regret_vs_uniform_observed": float(observed_vs_uniform),
        "regret_bound": None if bound is None else float(bound),
        "bound_satisfied": None if bound is None else bool(regret <= bound),
        "cumulative_objective": cumulative[-1],
        "final_decision_loss": float(records[-1].decision_loss),
        "final_system_loss": -float(records[-1].decision_loss),
        "final_decision_entropy": entropy[-1],
        "per_client_accuracy": accuracy.tolist(),
        "config": dataclasses.asdict(cfg),
        "error": None,
    }


def write_report(runs_dir: Path, result: RunResult) -> dict:
    """Write a run's ``summary.json``, ``cumobj.dat`` and ``entropy.dat``
    from its ``RunResult``; returns the summary. A run without client
    accuracy (a diverged run's log) is a ValueError naming it."""
    run_id, records = run_id_for(result.config), result.records
    if result.client_accuracy is None:
        raise ValueError(f"run {run_id} has no client accuracy: its round log has no client_eval line")
    cumulative, entropy = curves = round_curves(records)
    summary = summary_from_log(result, curves)
    (runs_dir / f"{run_id}.summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    header = f"# fedfair schema={SCHEMA_VERSION} columns=round,"
    for name, column, values in (
        ("cumobj", "cumulative_objective", cumulative),
        ("entropy", "decision_entropy", entropy),
    ):
        rows = "".join(f"{rec.round} {value!r}\n" for rec, value in zip(records, values))
        (runs_dir / f"{run_id}.{name}.dat").write_text(f"{header}{column}\n{rows}")
    return summary


def run_id_for(cfg: FederationConfig) -> str:
    return f"{cfg.method.replace('-', '_')}_seed{cfg.seed}"


def write_log(runs_dir: Path, result: RunResult):
    """Write a run's round log, ``run_log_lines(result)``, as ``rounds.jsonl``."""
    with (runs_dir / f"{run_id_for(result.config)}.rounds.jsonl").open("w") as fh:
        for line in run_log_lines(result):
            fh.write(_json_line(line) + "\n")


def _base_row(cfg: FederationConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id_for(cfg),
        "method": cfg.method,
        "k": cfg.k,
        "t_rounds": cfg.t_rounds,
        "c": cfg.c,
        "seed": cfg.seed,
    }


def _failed_row(row: dict, runs_dir: Path, failure: str, err, **report) -> dict:
    """Log a failed run, write its error report (``report`` adds fields to
    it) as its summary and set its row's status to ``<failure>: <err>``."""
    run_id = row["run_id"]
    logger.error("run %s %s: %s", run_id, failure, err)
    report = {"schema": SCHEMA_VERSION, "run_id": run_id, "error": str(err), **report}
    (runs_dir / f"{run_id}.summary.json").write_text(json.dumps(report, indent=2) + "\n")
    row["status"] = f"{failure}: {err}"
    return row


def _execute_one(cfg: FederationConfig, runs_dir: Path) -> dict:
    row = _base_row(cfg)
    failure = "failed"
    try:
        result = run_federation(cfg)
        write_log(runs_dir, result)
        # From here on the round log is intact; a failure is the summary's.
        failure = "summary failed"
        summary = write_report(runs_dir, result)
        logger.info("run %s finished in %.2fs", row["run_id"], result.runtime)
        row.update(
            avg_accuracy_pct=round(100 * summary["avg_accuracy"], 6),
            worst10_accuracy_pct=round(100 * summary["worst10_accuracy"], 6),
            best10_accuracy_pct=round(100 * summary["best10_accuracy"], 6),
            gini_x100=None if summary["gini"] is None else round(100 * summary["gini"], 6),
            accuracy_parity_gap_pct=round(100 * summary["accuracy_parity_gap"], 6),
            regret=summary["regret"],
            regret_vs_uniform_observed=summary["regret_vs_uniform_observed"],
            status="ok",
        )
    except Exception as err:  # noqa: BLE001 - failures must land in the report
        if isinstance(err, DivergenceError):
            # The rounds completed before the divergence, for diagnosis; a
            # failed run has no client_eval line.
            write_log(runs_dir, err.partial)
        residual = {"residual": err.residual} if isinstance(err, ConvergenceError) else {}
        _failed_row(row, runs_dir, failure, err, **residual)
    return row


def _send_row(sender, cfg: FederationConfig, runs_dir: Path):
    sender.send(_execute_one(cfg, runs_dir))


def _forked_rows(configs: list, runs_dir: Path, workers: int) -> list:
    """The rows of ``configs``, each run in its own forked process, up to
    ``workers`` at a time. A process that dies before it sends its row
    (killed, crashed) leaves a ``failed: worker process died`` row and takes
    no other run with it."""
    # Imported here so that a one-worker run never loads multiprocessing.
    import multiprocessing
    from multiprocessing.connection import wait

    fork = multiprocessing.get_context("fork")
    rows = [None] * len(configs)
    pending = list(enumerate(configs))
    running = {}
    try:
        while pending or running:
            while pending and len(running) < workers:
                i, cfg = pending.pop(0)
                receiver, sender = fork.Pipe(duplex=False)
                proc = fork.Process(target=_send_row, args=(sender, cfg, runs_dir))
                proc.start()
                sender.close()
                running[receiver] = i, proc
            for receiver in wait(list(running)):
                i, proc = running.pop(receiver)
                try:
                    rows[i] = receiver.recv()
                except EOFError:
                    pass
                receiver.close()
                proc.join()
                if rows[i] is None:
                    rows[i] = _failed_row(
                        _base_row(configs[i]), runs_dir, "failed", "worker process died", exitcode=proc.exitcode
                    )
    finally:
        # Reached with runs still going only when this process is interrupted.
        for receiver, (_, proc) in running.items():
            proc.terminate()
            proc.join()
            receiver.close()
    return rows


def run_suite(suite: ExperimentSuite, jobs: int = 1) -> int:
    """Execute every (config, seed) run, up to ``jobs`` seeds at a time in
    forked processes (POSIX), which inherit this process's logging; returns
    the process exit code."""
    runs_dir = suite.out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    # An earlier suite's outputs of these runs go first, so that a run that
    # fails or whose worker dies, or a suite that is interrupted, leaves
    # only its own files.
    (suite.out_dir / "suite.csv").unlink(missing_ok=True)
    for cfg in suite.configs:
        for path in runs_dir.glob(f"{run_id_for(cfg)}.*"):
            path.unlink()
    workers = min(jobs, len(suite.configs))
    if workers > 1:
        rows = _forked_rows(suite.configs, runs_dir, workers)
    else:
        rows = [_execute_one(cfg, runs_dir) for cfg in suite.configs]

    with (suite.out_dir / "suite.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return 0 if all(row["status"] == "ok" for row in rows) else 2


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other configuration error: exit
    code 2 means a run failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def positive_int(raw: str) -> int:
    """An argparse type: ``raw`` as an integer >= 1."""
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return n


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="fedfair",
        description="Run fairness-aware federated aggregation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run every (config, seed) pair of a config file")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument("--out", default=None, help="output directory (default: config's 'out' or ./results)")
    run_p.add_argument("--seeds", default=None, help="comma-separated seeds overriding the config")
    run_p.add_argument("--jobs", type=positive_int, default=1, metavar="N", help="up to N seeds at a time in forked processes (POSIX)")
    run_p.add_argument("--validate-only", action="store_true", help="parse and validate, run nothing")

    level = os.environ.get("FEDFAIR_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")

    args = parser.parse_args(argv)
    try:
        seeds = None if args.seeds is None else _parse_seeds("--seeds", args.seeds)
        out = None if args.out is None else _out_dir("--out", args.out)
        suite = parse_config(args.config, out_dir=out, seeds=seeds)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    if args.validate_only:
        print(f"ok: {len(suite.configs)} run(s) validated")
        return 0
    return run_suite(suite, jobs=args.jobs)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
