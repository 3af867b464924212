"""fedfair benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload silo-paper --seed 0 --seconds 15 --trace 0

Run it from the root of a full checkout: fedfair is imported from ``src/``
beside this directory, and without it the bench exits with code 2 and prints
no result. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
measured with tracing off. ``--trace 1`` reports the per-layer metrics: the
workload runs alternately with and without the span recorder of
``spans.py``, followed by process diagnostics. Metric names, units and
directions are read from BENCHMARK.json; ``layers.json`` records which
end-to-end metric each layer metric should move, and on which workload.

The bench drives fedfair only through public calls (``cli.parse_config``,
``cli.run_suite``, ``datasets.generate_federation``, and ``cli.main`` in
child processes). It reads the ``RoundRecord.duration`` values that
``run_federation`` returns. Every run is checked: exit code 0 and status
``ok``, ``bound_satisfied`` true, and a round log byte-identical to every
other run of the same seed in this invocation (repeats, traced runs, the
child process and the ``--jobs nproc`` suite). A run that fails a check
counts as failed and its time stays in every median.

Timing on a small shared host: the host's speed alternates between two
levels about 1.5x apart, in phases of a few seconds, so the median run time
and the mean round time of a 25 s window move by 15-35 % between
invocations. The gated loop speed is therefore ``round_ms_p5``, the 5th
percentile of all per-round durations of the window, which tracks the fast
phase and moved by about 9 %. ``run_s_p50`` and ``rounds_per_s``
(t_rounds / sum of round durations) are still reported, ungated, from the
untraced runs of the ``--trace 1`` invocation.

The last line of stdout is the result object; the line before it, prefixed
``detail``, records provenance, the tail percentile and sample counts, and
the reasons for any failure. Spans of a traced run are written to
``.bench_out/spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Recorder, rebound

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

IMPORT_REPS = 5
# The traced run keeps to three seeds so that traced, untraced and both
# --jobs suites fit well inside one invocation's time limit on device-wide.
TRACE_SEEDS = 3
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    config: str  # file under bench/configs
    seeds: int  # fedfair seeds s .. s+seeds-1 of one end-to-end run
    tail_pct: float  # round_ms_tail percentile; >= 10 rounds lie beyond it


WORKLOADS = {
    # The paper's cross-silo setting (K=20): client training dominates.
    "silo-paper": Workload("silo-paper.cfg", seeds=12, tail_pct=99.0),
    # K=500, one minibatch per client: the dense KxK ONS step is over a fifth.
    "silo-wide": Workload("silo-wide.cfg", seeds=8, tail_pct=90.0),
    # K=10000, 50 clients per round: data generation and log encoding dominate.
    "device-wide": Workload("device-wide.cfg", seeds=5, tail_pct=90.0),
}

# Time metrics of the traced run: (span name, inclusive "s" or "self_s").
# Each is reported per traced run and as "<span>.share" of the traced run_s.
LAYER_TIMES = [
    ("datasets.generate_federation", "s"),
    ("datasets.stream", "s"),
    ("federation.client_update", "s"),
    ("federation.sample_clients", "s"),
    ("federation.evaluate_clients", "s"),
    ("federation.run_federation", "self_s"),
    ("transform.transform_responses", "s"),
    ("decision.decision_loss", "s"),
    ("decision.decision_gradient", "s"),
    ("decision.linearized_gradient", "s"),
    ("decision.dr_estimate", "s"),
    ("aggregators.ons_step", "self_s"),
    ("aggregators.ftrl_eg_step", "s"),
    ("aggregators.hindsight_best", "s"),
    ("simplex.project_mahalanobis", "self_s"),
    ("simplex.project_euclidean", "s"),
    ("simplex.normalize_subset", "s"),
    ("metrics.regret", "self_s"),
    ("cli.parse_config", "s"),
    ("cli.run_log_lines", "s"),
    ("cli.summary_from_log", "self_s"),
    ("cli.run_suite", "self_s"),
]

CHILD_RUN = """\
import resource, sys
sys.path.insert(0, sys.argv[1])
from fedfair import cli
code = cli.main(sys.argv[2:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""

CHILD_IMPORT = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import fedfair
print(time.perf_counter() - start)
"""


class Bench:
    """Runs of one workload in one invocation, and their correctness gate."""

    def __init__(self, cli, datasets, cfg_path: Path, work: Path):
        self.cli, self.datasets = cli, datasets
        self.cfg_path, self.work = cfg_path, work
        self.attempted = 0
        self.failures = []
        self.digests = {}  # seed -> sha256 of its first rounds.jsonl
        self.summaries = {}  # seed -> first summary.json that passed
        self.log_bytes = {}  # seed -> size of its rounds.jsonl
        self.durations = []  # RoundRecord.duration lists, one per run_federation

    def capture(self, run_federation):
        """Wrap ``cli.run_federation`` to keep each run's round durations."""

        @functools.wraps(run_federation)
        def capturing(*args, **kwargs):
            result = run_federation(*args, **kwargs)
            self.durations.append([rec.duration for rec in result.records])
            return result

        return capturing

    def run(self, seeds, name, jobs=1):
        """One ``fedfair run``: parse_config + run_suite, checked afterwards.

        Returns (wall seconds, round durations of every run_federation)."""
        out = self.work / name
        shutil.rmtree(out, ignore_errors=True)
        self.durations.clear()
        rc, crash = 2, None
        start = time.perf_counter()
        try:
            suite = self.cli.parse_config(self.cfg_path, out_dir=out, seeds=list(seeds))
            rc = self.cli.run_suite(suite, jobs=jobs)
        except Exception as err:  # noqa: BLE001 - a crash is a failed run, not a bench error
            crash = f"{type(err).__name__}: {err}"
        wall = time.perf_counter() - start
        self.check(out, seeds, rc, crash)
        return wall, [d for run in self.durations for d in run]

    def check(self, out: Path, seeds, rc: int, crash=None):
        """Count one operation per seed and record every check it fails."""
        rows = {}
        if (out / "suite.csv").is_file():
            with (out / "suite.csv").open(newline="") as fh:
                rows = {int(row["seed"]): row for row in csv.DictReader(fh)}
        for seed in seeds:
            self.attempted += 1
            problems = [crash] if crash else []
            problems += self._problems(out / "runs", seed, rc, rows.get(seed))
            if problems:
                self.failures.append(f"{out.name} seed {seed}: " + "; ".join(problems))

    def _problems(self, runs: Path, seed: int, rc: int, row) -> list:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if row is None or row["status"] != "ok":
            problems.append(f"status {None if row is None else row['status']!r}")
        run_id = None if row is None else row["run_id"]
        try:
            log = (runs / f"{run_id}.rounds.jsonl").read_bytes()
            summary = json.loads((runs / f"{run_id}.summary.json").read_text())
        except (OSError, ValueError) as err:
            return problems + [f"unreadable output: {err}"]
        if summary.get("bound_satisfied") is not True:
            problems.append(f"bound_satisfied is {summary.get('bound_satisfied')!r}")
        digest = hashlib.sha256(log).hexdigest()
        if self.digests.setdefault(seed, digest) != digest:
            problems.append("rounds.jsonl differs from this seed's first run")
        if not problems:
            self.summaries.setdefault(seed, summary)
            self.log_bytes.setdefault(seed, len(log))
        return problems

    def setup_time(self, seed: int) -> float:
        """One in-process parse_config + generate_federation, timed."""
        start = time.perf_counter()
        cfg = self.cli.parse_config(self.cfg_path, out_dir=self.work, seeds=[seed]).configs[0]
        clients = self.datasets.generate_federation(cfg.data, cfg.k, cfg.seed, min_batch=cfg.b)
        elapsed = time.perf_counter() - start
        del clients
        return elapsed

    def peak_rss_mb(self, seed: int) -> float:
        """ru_maxrss of a fresh ``fedfair run`` of one seed; its log is checked too."""
        out = self.work / "child"
        proc = subprocess.run(
            [sys.executable, "-c", CHILD_RUN, str(SRC), "run", str(self.cfg_path),
             "--seeds", str(seed), "--jobs", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        self.check(out, [seed], proc.returncode)
        lines = proc.stdout.split()
        return int(lines[-1]) * 1024 / 1e6 if lines else 0.0

    def import_times(self) -> list:
        """``import fedfair`` time in fresh interpreters, interpreter start excluded."""
        return [
            float(subprocess.run(
                [sys.executable, "-c", CHILD_IMPORT, str(SRC)],
                capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
            ).stdout)
            for _ in range(IMPORT_REPS)
        ]


def _round_robin(seeds, seconds):
    """Seeds in turn until every seed ran once and ``seconds`` have passed."""
    start = time.perf_counter()
    for i in itertools.count():
        if i >= len(seeds) and time.perf_counter() - start >= seconds:
            return
        yield seeds[i % len(seeds)]


def _tail(samples, pct):
    """(percentile, value): the highest ladder percentile <= ``pct`` with at
    least ten samples beyond it, else the median."""
    if not samples:
        return pct, 0.0
    for p in TAIL_LADDER:
        if p <= pct and len(samples) * (100.0 - p) / 100.0 >= 10:
            break
    return p, _percentile(samples, p)


def _percentile(samples, p):
    """Linear-interpolation percentile, as numpy's default."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def end_to_end(bench: Bench, workload: Workload, seeds: list, seconds: float):
    # One set-up before each run, so that set-up samples span the whole
    # window like the runs do: the host's speed drifts over seconds.
    setup, rounds_ms = [], []
    for seed in _round_robin(seeds, seconds):
        setup.append(bench.setup_time(seed))
        rounds_ms.extend(1000.0 * d for d in bench.run([seed], name=f"seed{seed}")[1])
    rss_mb = bench.peak_rss_mb(seeds[0])
    pct, tail_ms = _tail(rounds_ms, workload.tail_pct)
    summaries = [bench.summaries[s] for s in seeds if s in bench.summaries]
    metrics = {
        "setup_s": statistics.median(setup),
        "round_ms_p5": _percentile(rounds_ms, 5.0) if rounds_ms else 0.0,
        "round_ms_tail": tail_ms,
        "peak_rss_mb": rss_mb,
        "log_mb": _mean(bench.log_bytes.values()) / 1e6,
        "worst10_accuracy_pct": _mean(100.0 * s["worst10_accuracy"] for s in summaries),
        "avg_accuracy_pct": _mean(100.0 * s["avg_accuracy"] for s in summaries),
        "regret_to_bound": _mean(s["regret"] / s["regret_bound"] for s in summaries),
    }
    detail = {
        "runs": len(setup),
        "round_ms_tail": {
            "percentile": pct,
            "samples": len(rounds_ms),
            "beyond": sum(1 for v in rounds_ms if v > tail_ms),
        },
    }
    return metrics, detail


def per_layer(bench: Bench, seeds: list, seconds: float, spans_path: Path):
    import_s = statistics.median(bench.import_times())
    recorder = Recorder()
    plain, traced, plain_rounds = [], [], []
    start = time.perf_counter()
    # Whole cycles over the seeds, so per-run counts are exact; the traced and
    # untraced run of each seed swap order every cycle to cancel drift.
    for cycle in itertools.count():
        if cycle and time.perf_counter() - start >= seconds:
            break
        for seed in seeds:
            for tracing in (False, True) if cycle % 2 == 0 else (True, False):
                if tracing:
                    with recorder.installed():
                        traced.append(bench.run([seed], name=f"seed{seed}")[0])
                else:
                    wall, durations = bench.run([seed], name=f"seed{seed}")
                    plain.append(wall)
                    plain_rounds.extend(durations)
    nproc = os.cpu_count() or 1
    jobs1 = bench.run(seeds, name="jobs1", jobs=1)[0]
    jobsn = bench.run(seeds, name="jobsN", jobs=nproc)[0]

    totals = recorder.totals()
    runs, run_total = len(traced), sum(traced)

    def stat(span, key):
        return totals.get(span, {}).get(key, 0)

    def per_call(span, scale):
        calls = stat(span, "calls")
        return scale * stat(span, "s") / calls if calls else 0.0

    metrics = {}
    for span, kind in LAYER_TIMES:
        metrics[f"{span}.{kind}"] = stat(span, kind) / runs
        metrics[f"{span}.share"] = stat(span, kind) / run_total
    for span in ("datasets.stream", "federation.client_update", "simplex.project_mahalanobis"):
        metrics[f"{span}.calls"] = stat(span, "calls") / runs
    projections = stat("simplex.project_mahalanobis", "calls")
    summaries = [bench.summaries[s] for s in seeds if s in bench.summaries]
    metrics.update({
        "federation.client_update.us_per_call": per_call("federation.client_update", 1e6),
        "aggregators.ons_step.ms_per_call": per_call("aggregators.ons_step", 1e3),
        "aggregators.cumulative_loss.calls": recorder.counts["aggregators.cumulative_loss"] / runs,
        "simplex.project_euclidean.calls_per_projection": (
            stat("simplex.project_euclidean", "calls") / projections if projections else 0.0
        ),
        "trace.run_s": run_total / runs,
        "run_s_p50": statistics.median(plain),
        "rounds_per_s": len(plain_rounds) / sum(plain_rounds) if plain_rounds else 0.0,
        "trace.overhead_pct": 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0),
        "import_s": import_s,
        "cli.jobs_nproc_over_jobs1": jobsn / jobs1,
        "quality.worst10_seed_sd_pct": _sd(100.0 * s["worst10_accuracy"] for s in summaries),
        "quality.avg_seed_sd_pct": _sd(100.0 * s["avg_accuracy"] for s in summaries),
    })
    recorder.write_tsv(spans_path)
    detail = {
        "runs_traced": runs,
        "runs_untraced": len(plain),
        "jobs_nproc": nproc,
        "jobs_wall_s": {"1": jobs1, str(nproc): jobsn},
        "spans": len(recorder.spans),
    }
    return metrics, detail


def _sd(values):
    values = list(values)
    return statistics.stdev(values) if len(values) >= 2 else 0.0


def provenance() -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            dep = config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{dep.get('name')} {dep.get('version')}"

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        found = re.search(r"^model name\s*:\s*(.+)$", cpuinfo.read_text(), re.MULTILINE)
        cpu = found.group(1).strip() if found else cpu
    return {
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
    }


def _config_path(workload: Workload, work: Path, t_rounds) -> Path:
    """The workload's own config, or a copy of it with ``t_rounds`` replaced."""
    path = BENCH_DIR / "configs" / workload.config
    if t_rounds is None:
        return path
    text = re.sub(r"^t_rounds\s*=.*$", f"t_rounds = {t_rounds}", path.read_text(), flags=re.MULTILINE)
    copy = work / workload.config
    copy.write_text(text)
    return copy


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="fedfair benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="first fedfair seed of the workload")
    parser.add_argument("--seconds", type=float, default=15.0, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--t-rounds", type=int, default=None,
                        help="override the workload's t_rounds (smoke tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "fedfair" / "__init__.py").is_file():
        print(f"error: no fedfair package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads and inherited by child processes.
    # On a 2-core shared host a second BLAS thread stalls whenever the host
    # takes the other core, which made single ONS steps at K=300 swing between
    # 7 and 30 ms from one process to the next.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from fedfair import cli, datasets

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    count = TRACE_SEEDS if args.trace else workload.seeds
    seeds = list(range(args.seed, args.seed + count))

    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        bench = Bench(cli, datasets, _config_path(workload, work, args.t_rounds), work)
        with rebound(cli, "run_federation", bench.capture(cli.run_federation)):
            if args.trace:
                spans_path = OUT_ROOT / f"spans-{args.workload}.tsv"
                values, detail = per_layer(bench, seeds, args.seconds, spans_path)
            else:
                values, detail = end_to_end(bench, workload, seeds, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if values.keys() != units.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(values.keys() ^ units.keys())}")
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    detail.update(
        workload=args.workload, seeds=seeds, seconds=args.seconds, trace=args.trace,
        t_rounds=args.t_rounds, provenance=provenance(), failures=bench.failures,
    )
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
