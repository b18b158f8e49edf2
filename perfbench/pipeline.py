"""What one round of the pipeline runs, and how its artifacts are compared.

Shared by the subprocess measurement in ``run.py`` and the in-process
traced pass in ``tracing.py``.
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread in every process: each command runs on one core (jobs
# is 1), and on a small shared machine a second BLAS thread mostly adds
# contention and run-to-run spread. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

from workloads import set_up  # noqa: E402  (imports numpy: after the thread setting)

COMMANDS = ("make-corpus", "featurize", "fit-fir", "sweep-context",
            "train-mlp", "derev", "mix-sweep", "diagnose")
SETUP_REPEATS = 5
# a command still running this long after its workload's run started is
# killed (and fails), so that a run ends within its 180 s limit
DEADLINE_S = 160.0
ENTRY = "import sys; from ncderev.cli import main; sys.exit(main())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def require_source() -> None:
    """Refuse to run unless ncderev imports from this checkout's src tree."""
    if not (SRC / "ncderev" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'ncderev'}")
    found = subprocess.run(
        [sys.executable, "-c", "import ncderev; print(ncderev.__file__)"],
        env=child_env(), capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    if Path(found).resolve().parent != (SRC / "ncderev").resolve():
        sys.exit(f"perfbench: ncderev imports from {found!r}, not {SRC}")


def run_command(command, config_path, log_path, deadline):
    """Run one CLI command in a fresh interpreter, killing it at the
    ``time.monotonic()`` deadline.

    Returns (exit_code, wall_s, peak_rss_mb); the peak comes from the
    child's own rusage via wait4.
    """
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", ENTRY, command, "--config", str(config_path)],
            env=child_env(), stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
        )
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def record_writes(workdir: Path, artifacts: dict, command: str) -> None:
    """Attribute to ``command`` every file in the workdir that is new or
    changed since the last call: ``artifacts`` maps a relative path to
    ((size, mtime), writing command, sha256)."""
    for path in sorted(workdir.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(workdir).as_posix()
        stat = path.stat()
        key = (stat.st_size, stat.st_mtime_ns)
        if rel not in artifacts or artifacts[rel][0] != key:
            artifacts[rel] = (key, command, hashlib.sha256(path.read_bytes()).hexdigest())


def differing_commands(first: dict, other: dict) -> set:
    """Commands whose artifacts differ in content between two passes."""
    return {(first.get(rel) or other.get(rel))[1]
            for rel in set(first) | set(other)
            if first.get(rel, (0, 0, None))[2] != other.get(rel, (0, 0, None))[2]}


def timed_setup(workload, seed, run_dir):
    """Set up SETUP_REPEATS times from scratch; returns (config_path, median_s)."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(run_dir, ignore_errors=True)
        start = time.perf_counter()
        config_path = set_up(workload, seed, run_dir)
        times.append(time.perf_counter() - start)
    return config_path, statistics.median(times)


def check_outputs(workdir, config_path):
    from checks import check_pipeline
    return check_pipeline(workdir, json.loads(Path(config_path).read_text()))


def tally(passes, problems) -> int:
    """Failed operations over passes (each a command -> exit code map);
    every failing command is reported on stderr."""
    for command in COMMANDS:
        exits = [codes[command] for codes in passes]
        if any(exits) or problems[command]:
            print(f"FAIL {command}: exit codes {exits}; " + "; ".join(problems[command]),
                  file=sys.stderr)
    return sum(codes[c] != 0 or bool(problems[c]) for codes in passes for c in COMMANDS)
