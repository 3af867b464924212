#!/usr/bin/env python3
"""Run the output corpus into OUT and check it; exits 1 naming the first fault.

    PYTHONPATH=<tree>/src python scripts/output_corpus.py OUT

The fedfair on PYTHONPATH is the tree under test. Each CORPUS entry runs at
seeds 0,1 into OUT/<name>, at --jobs 1 and again at --jobs 2, which must
write the same bytes, and each round log must replay to its run's files.
OUT also gets that tree's fairness_comparison.py and regret_bounds.py
output. CORPUS is literal, so that an older tree runs it too.
"""

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from fedfair import cli

ROOT = Path(__file__).resolve().parent.parent
SILO, DEVICE = "configs/silo_adaptive.cfg", "configs/device_sampled.cfg"
CORPUS = [
    *((path, {}) for path in (SILO, DEVICE)),
    *((f"bench/configs/{name}.cfg", {}) for name in ("silo-paper", "silo-wide", "device-wide")),
    ("bench/configs/device-wide.cfg", {"t_rounds": 400}),
    *((path, {"method": m}) for path in (SILO, DEVICE) for m in ("fedavg", "afl", "qfedavg", "term", "propfair")),
    *((path, {"cdf.kind": kind}) for path in (SILO, DEVICE) for kind in ("frechet", "gumbel", "exponential", "logistic", "normal")),
    (SILO, {"e": 2, "b": 16, "weight_decay": 0.001}),
    (SILO, {"data.num_classes": 12, "data.dirichlet_concentration": 2.0}),
    (SILO, {"k": 64}),
    (DEVICE, {"e": 3, "b": 7, "weight_decay": 0.01}),
    *((DEVICE, {"data.input_dim": dim}) for dim in (1, 2)),
    (DEVICE, {"data.dirichlet_concentration": 0.05}),
    (DEVICE, {"data.feature_shift": 0}),
    *((DEVICE, {"c": c}) for c in (0.125, 1)),
]


def differing(a: Path, b: Path, pattern: str = "**/*") -> str:
    """The relative paths where the files ``pattern`` matches in ``a`` and ``b`` differ or are missing."""
    files_a, files_b = ({p.relative_to(d).as_posix(): p.read_bytes() for p in d.glob(pattern) if p.is_file()} for d in (a, b))
    return ", ".join(sorted(p for p in files_a.keys() | files_b.keys() if files_a.get(p) != files_b.get(p)))


def write_config(out: Path, path: str, overrides: dict) -> Path:
    """Write ``path`` with ``overrides`` set to out/<name>.cfg, and return that path."""
    name = Path(path).stem + "".join(f"-{key}={value}" for key, value in overrides.items())
    lines = [line for line in (ROOT / path).read_text().splitlines() if line.split("=")[0].strip() not in overrides]
    (out / f"{name}.cfg").write_text("\n".join(lines + [f"{key} = {value}" for key, value in overrides.items()]) + "\n")
    return out / f"{name}.cfg"


def check_entry(out: Path, path: str, overrides: dict):
    """Run one entry into ``out`` at --jobs 1 and 2 and replay its round logs."""
    cfg = write_config(out, path, overrides)
    name = cfg.stem
    with tempfile.TemporaryDirectory() as tmp:
        for jobs, dest in (("1", out / name), ("2", Path(tmp, "jobs2"))):
            if cli.main(["run", str(cfg), "--seeds", "0,1", "--jobs", jobs, "--out", str(dest)]) != 0:
                sys.exit(f"{name}: a run failed at --jobs {jobs}")
        if diff := differing(out / name, dest):
            sys.exit(f"{name}: --jobs 1 and 2 differ in {diff}")
        # Each run's files are named by its run id, so the logs replay side by side into tmp.
        for log in sorted((out / name / "runs").glob("*.rounds.jsonl")):
            run = log.name.split(".")[0]
            try:
                result = cli.round_series([json.loads(line) for line in log.read_text().splitlines()])
                cli.write_log(Path(tmp), result)
                cli.write_report(Path(tmp), result)
            except ValueError as err:
                sys.exit(f"{name}/{run}: replay failed: {err}")
            if diff := differing(log.parent, Path(tmp), f"{run}.*"):
                sys.exit(f"{name}/{run}: replay differs in {diff}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path)
    out = parser.parse_args().out
    out.mkdir(parents=True, exist_ok=True)
    for path, overrides in CORPUS:
        check_entry(out, path, overrides)
    scripts = Path(cli.__file__).resolve().parents[2] / "scripts"
    for script, args in (("fairness_comparison", ["--seeds", "2", "--rounds", "5"]), ("regret_bounds", ["--seeds", "2"])):
        text = subprocess.run([sys.executable, scripts / f"{script}.py", *args], stdout=subprocess.PIPE, text=True, check=True).stdout
        (out / f"{script}.txt").write_text(re.sub(r" \(\d+ seeds, [\d.]+s\)$", "", text, flags=re.M))


if __name__ == "__main__":
    main()
