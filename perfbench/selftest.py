#!/usr/bin/env python3
"""Self-test of the output checks: corrupt one artifact per command and
see that command's check fail.

Usage (from the repository root): python3 perfbench/selftest.py

Runs the eight commands once on a tiny workload, records the problems
the checks report on the intact outputs, then applies each corruption
in turn, re-runs the checks and restores the file. A corruption is
caught when its command's check reports a problem it did not report on
the intact outputs. Exits 1 when any corruption goes unnoticed.
"""

import base64
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pipeline import (COMMANDS, DEADLINE_S, WORK_ROOT, check_outputs,  # noqa: E402
                      require_source, run_command)
from workloads import Workload, make_config, set_up  # noqa: E402

TINY = Workload("selftest", (1, 2, 1), 1.0, make_config(
    rt60_range=[0.4, 0.5], p=2, q=2, enhancer_p=2,
    context_grid=[[0, 0], [1, 1], [2, 2]],
    hidden_width=8, hidden_layers=1, epochs=2, max_lag=10, tail_from_lag=3,
))


def _first(work, pattern):
    return sorted(work.glob(pattern))[0]


def _edit_csv(path, row, column, change):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    i = header.index(column)
    fields[i] = change(fields[i])
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def corrupt_reverb_wav(work):
    path = _first(work, "reverb/*.wav")
    data = bytearray(path.read_bytes())
    pcm = np.frombuffer(data, dtype="<i2", offset=44).copy()
    pcm[pcm.size // 2] += 64
    path.write_bytes(bytes(data[:44]) + pcm.tobytes())


def corrupt_clean_features(work):
    path = _first(work, "features/clean/*.ncft")
    data = bytearray(path.read_bytes())
    values = np.frombuffer(data, dtype="<f4", offset=12).copy()
    values[3::40] += 0.5
    path.write_bytes(bytes(data[:12]) + values.tobytes())


def corrupt_fir_errors(work):
    _edit_csv(work / "fir" / "errors.csv", 0, "normalized_err",
              lambda v: repr(float(v) * 1.001))


def corrupt_sweep(work):
    _edit_csv(work / "context_sweep.csv", 0, "mean_err", lambda v: repr(float(v) * 1.01))


def corrupt_model(work):
    path = work / "mlp_model.json"
    model = json.loads(path.read_text())
    last = model["layers"][-1]
    w = np.frombuffer(base64.b64decode(last["weights"]), dtype="<f4") * np.float32(1.5)
    last["weights"] = base64.b64encode(w.astype("<f4").tobytes()).decode("ascii")
    path.write_text(json.dumps(model, indent=1, sort_keys=True) + "\n")


def corrupt_derev_features(work):
    path = _first(work, "features/derev/*.ncft")
    data = bytearray(path.read_bytes())
    values = np.frombuffer(data, dtype="<f4", offset=12).copy()
    values[7] += 1e-3
    path.write_bytes(bytes(data[:12]) + values.tobytes())


def corrupt_mix_summary(work):
    _edit_csv(work / "mix_summary.csv", 0, "optimal_lambda",
              lambda v: "0.0" if float(v) == 1.0 else "1.0")


def corrupt_autocorr(work):
    _edit_csv(work / "diagnostics" / "autocorr_curves.csv", 1, "clean",
              lambda v: repr(float(v.removeprefix("np.float64(").rstrip(")")) + 0.01))


CORRUPTIONS = {
    "make-corpus": ("reverb/*.wav", corrupt_reverb_wav),
    "featurize": ("features/clean/*.ncft", corrupt_clean_features),
    "fit-fir": ("fir/errors.csv", corrupt_fir_errors),
    "sweep-context": ("context_sweep.csv", corrupt_sweep),
    "train-mlp": ("mlp_model.json", corrupt_model),
    "derev": ("features/derev/*.ncft", corrupt_derev_features),
    "mix-sweep": ("mix_summary.csv", corrupt_mix_summary),
    "diagnose": ("diagnostics/autocorr_curves.csv", corrupt_autocorr),
}


def main() -> int:
    require_source()
    run_dir = WORK_ROOT / f"selftest-{os.getpid()}"
    try:
        config_path = set_up(TINY, 1, run_dir)
        work = run_dir / "work"
        (run_dir / "logs").mkdir()
        deadline = time.monotonic() + DEADLINE_S
        for command in COMMANDS:
            code, _, _ = run_command(command, config_path, run_dir / "logs" / f"{command}.log",
                                     deadline)
            if code:
                print(f"selftest: {command} exited {code}", file=sys.stderr)
                return 1
        intact = check_outputs(work, config_path)
        for command, problems in intact.items():
            print(f"intact  {command:<14} {'; '.join(problems) or 'ok'}")
        missed = 0
        for command, (pattern, corrupt) in CORRUPTIONS.items():
            path = _first(work, pattern)
            original = path.read_bytes()
            corrupt(work)
            fresh = [p for p in check_outputs(work, config_path)[command]
                     if p not in intact[command]]
            path.write_bytes(original)
            missed += not fresh
            print(f"{'caught' if fresh else 'MISSED'}  {command:<14} {pattern}: "
                  f"{'; '.join(fresh) if fresh else 'no new problem reported'}")
        return 1 if missed else 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
