#!/usr/bin/env python3
"""End-to-end benchmark of the ncderev batch pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload reverb-corpus --seed 1 --seconds 10 --trace 0

``--workload all`` runs the three workloads in turn and prefixes each
metric with its workload's name.

One round runs the eight commands make-corpus -> featurize -> fit-fir ->
sweep-context -> train-mlp -> derev -> mix-sweep -> diagnose, each as a
fresh interpreter on the checkout's ``src`` tree, the way the
``ncderev`` console script runs them. A run sets up its inputs several
times (the median is ``setup_s``), then runs whole rounds until
``--seconds`` have passed (at least one), then checks every command's
outputs against computations of its own (see ``checks.py``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
per-command wall times (medians over rounds), their per-round sum and the
largest peak RSS of any command process. With ``--trace 1`` the pipeline
runs in-process, once plain and once with every public layer function
wrapped (see ``tracing.py``), and the line holds the per-layer metrics.
Each command of each round is one operation; it fails when it exits
non-zero or when its check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pipeline import (COMMANDS, DEADLINE_S, WORK_ROOT, check_outputs,  # noqa: E402
                      differing_commands, record_writes, require_source,
                      run_command, tally, timed_setup)
from workloads import WORKLOADS  # noqa: E402


def measure(workload, seed, seconds, run_dir):
    """Set up, run whole rounds for ``seconds``, check; returns
    (attempted, failed, {metric: (value, unit)})."""
    deadline = time.monotonic() + DEADLINE_S
    config_path, setup_s = timed_setup(workload, seed, run_dir)
    workdir = run_dir / "work"
    logs = run_dir / "logs"
    logs.mkdir()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        shutil.rmtree(workdir, ignore_errors=True)
        times, codes, peak, artifacts = {}, {}, 0.0, {}
        for command in COMMANDS:
            code, wall, rss = run_command(
                command, config_path, logs / f"r{len(rounds)}-{command}.log", deadline)
            times[command], codes[command] = wall, code
            peak = max(peak, rss)
            record_writes(workdir, artifacts, command)
        rounds.append({"times": times, "codes": codes, "peak": peak,
                       "artifacts": artifacts})
    print(f"{len(rounds)} round(s) in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)

    # the last round's workdir is still on disk: check it in full, and
    # hold every earlier round to byte-identical artifacts
    problems = check_outputs(workdir, config_path)
    for r in rounds[:-1]:
        for command in differing_commands(rounds[-1]["artifacts"], r["artifacts"]):
            problems[command].append("artifacts differ between rounds")
    failed = tally([r["codes"] for r in rounds], problems)

    metrics = {"setup_s": (setup_s, "s")}
    for command in COMMANDS:
        metrics[command.replace("-", "_") + "_s"] = (
            statistics.median(r["times"][command] for r in rounds), "s")
    metrics["pipeline_s"] = (statistics.median(
        sum(r["times"].values()) for r in rounds), "s")
    metrics["peak_rss_mb"] = (max(r["peak"] for r in rounds), "MB")
    return len(rounds) * len(COMMANDS), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        run_dir = WORK_ROOT / f"{name}-s{args.seed}-t{args.trace}-{os.getpid()}"
        try:
            if args.trace:
                from tracing import traced_run
                result = traced_run(WORKLOADS[name], args.seed, run_dir)
            else:
                result = measure(WORKLOADS[name], args.seed, args.seconds, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        attempted += result[0]
        failed += result[1]
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + metric: v for metric, v in result[2].items()})
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(f"attempted {attempted}, failed {failed}")
    print(json.dumps({
        # an operation whose check finds a problem counts in "failed", so
        # the operations that did not fail are correct by construction
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
