"""Per-layer metrics from an in-process run of the pipeline.

The eight commands run through ``ncderev.cli.main`` three times in one
interpreter: a warm-up pass; a pass with the public functions in
``LAYERS`` replaced by timing wrappers; and a plain pass, which gives
``cli.<command>.s`` and the baseline for the tracing overhead. Spans nest, so a wrapped function that calls
other wrapped functions also reports its self time. Nothing inside the
program changes; the wrappers are module attributes, installed and
removed here. A function a later change removes reports zero calls.
"""

import contextlib
import functools
import inspect
import math
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from pipeline import (COMMANDS, SRC, check_outputs, child_env, differing_commands,
                      record_writes, tally, timed_setup)

# module -> wrapped functions; the ones marked * nest other wrapped calls
LAYERS = {
    "rir": ("image_method_rir*", "absorption_for_rt60", "estimate_rt60"),
    "kernels": ("rir_accumulate", "normal_blocks", "apply_fir"),
    "dsp": ("convolve", "stft", "istft", "read_wav", "write_wav"),
    "features": ("log_mel", "mvn", "stack_context"),
    "fir": ("dereverberate_spectrogram*", "context_sweep*", "fit_pooled_filters*"),
    "mlp": ("train*", "gradients", "forward", "dereverberate_features*"),
    "mixing": ("lambda_sweep",),
    "diagnostics": ("normalized_autocorr", "average_autocorr*", "export_spectrogram"),
    "fileformats": ("write_rir",),
}
# modules that bind a wrapped function by name at import time
IMPORTED_BY_NAME = {"fileformats.write_rir": ("corpus",)}
IMPORT_REPEATS = 3


def _images(args) -> int:
    """Image sources the accumulation visits: 8 parities per lattice cell."""
    reach = args["c"] * args["n_taps"] / args["fs"]
    cells = [2 * (int(reach / (2.0 * float(d))) + 1) + 1 for d in args["dims"]]
    return 8 * math.prod(cells)


def _normal_flops(args) -> int:
    """2 x multiply-adds of the 3 real Gram blocks and 4 correlation vectors."""
    y = args["y"]
    rows = y.shape[0]
    bins = y.shape[1] if y.ndim == 2 else 1
    taps = int(args["taps"])
    return 2 * rows * bins * (3 * taps * taps + 4 * taps)


# counters computed from a call's bound arguments and result
COUNTERS = {
    "kernels.rir_accumulate": lambda a, r: {"kernels.rir_accumulate.images": _images(a)},
    "kernels.normal_blocks": lambda a, r: {"kernels.normal_blocks.flops": _normal_flops(a)},
    "mlp.train": lambda a, r: {"mlp.train.frames": len(a["inputs"]), "mlp.epochs": len(r[1])},
}
COUNT_NAMES = ("kernels.rir_accumulate.images", "kernels.normal_blocks.flops",
               "mlp.train.frames", "mlp.epochs")


class Tracer:
    """Span totals, self times and call counts per wrapped function."""

    def __init__(self):
        self.total = defaultdict(float)
        self.inner = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._open = []  # time spent in wrapped callees, per open span

    def wrap(self, name, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.inner[name] += self._open.pop()
                self.total[name] += elapsed
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += elapsed
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(counter(bound.arguments, result))
            return result

        return span


@contextlib.contextmanager
def installed(tracer, package):
    """Swap every present layer function for its span wrapper, then restore."""
    saved = []
    try:
        for module_name, functions in LAYERS.items():
            module = getattr(package, module_name)
            for entry in functions:
                attr = entry.rstrip("*")
                original = getattr(module, attr, None)
                if original is None:
                    continue
                name = f"{module_name}.{attr}"
                wrapper = tracer.wrap(name, original)
                for holder in [module] + [getattr(package, m) for m in IMPORTED_BY_NAME.get(name, ())]:
                    saved.append((holder, attr, getattr(holder, attr)))
                    setattr(holder, attr, wrapper)
        yield
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


def run_in_process(cli, config_path, workdir, log_path):
    """Run each command through cli.main in this process; returns
    ({command: (exit code, seconds)}, artifacts as in record_writes)."""
    results, artifacts = {}, {}
    with open(log_path, "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        for command in COMMANDS:
            start = time.perf_counter()
            try:
                code = cli.main([command, "--config", str(config_path)])
            except Exception as exc:  # noqa: BLE001 - a crash fails the operation
                print(f"{command}: {type(exc).__name__}: {exc}")
                code = 1
            results[command] = (code, time.perf_counter() - start)
            record_writes(workdir, artifacts, command)
    return results, artifacts


def import_seconds() -> float:
    """Median time to import ncderev.cli in a fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import ncderev.cli; print(time.perf_counter() - t)"
    times = [float(subprocess.run([sys.executable, "-c", probe], env=child_env(),
                                  capture_output=True, text=True, check=True,
                                  timeout=60).stdout)
             for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


def traced_run(workload, seed, run_dir):
    """Warm-up, traced and plain in-process passes; returns the per-layer metrics."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ncderev
    import ncderev.cli as cli
    if Path(ncderev.__file__).resolve().parent != (SRC / "ncderev").resolve():
        sys.exit(f"perfbench: ncderev imported from {ncderev.__file__}, not {SRC}")

    config_path, _ = timed_setup(workload, seed, run_dir)
    workdir = run_dir / "work"
    tracer = Tracer()
    passes = {}
    # a warm-up pass first, so that first-call costs in this interpreter
    # fall on neither side of the traced-versus-plain comparison
    for label in ("warm-up", "traced", "plain"):
        shutil.rmtree(workdir, ignore_errors=True)
        with installed(tracer, ncderev) if label == "traced" else contextlib.nullcontext():
            passes[label] = run_in_process(cli, config_path, workdir, run_dir / f"{label}.log")

    # the plain pass's workdir is on disk: check it in full, and hold the
    # other passes to byte-identical artifacts
    problems = check_outputs(workdir, config_path)
    for label, (_, artifacts) in passes.items():
        for command in differing_commands(passes["plain"][1], artifacts):
            problems[command].append(f"the {label} pass wrote different artifacts")
    failed = tally([{c: results[c][0] for c in COMMANDS} for results, _ in passes.values()],
                   problems)
    plain, traced = passes["plain"][0], passes["traced"][0]

    metrics = {"cli.import_s": (import_seconds(), "s")}
    for command in COMMANDS:
        metrics[f"cli.{command}.s"] = (plain[command][1], "s")
    for module_name, functions in LAYERS.items():
        for entry in functions:
            name = f"{module_name}.{entry.rstrip('*')}"
            metrics[f"{name}.s"] = (tracer.total[name], "s")
            metrics[f"{name}.calls"] = (tracer.calls[name], "count")
            if entry.endswith("*"):
                metrics[f"{name}.self_s"] = (tracer.total[name] - tracer.inner[name], "s")
            if name not in tracer.calls:
                print(f"not traced (absent or never called): {name}", file=sys.stderr)
    for name in COUNT_NAMES:
        metrics[name] = (tracer.counts[name], "count")
    rirs = tracer.calls["rir.image_method_rir"]
    metrics["rir.calibration_iterations"] = (
        tracer.calls["rir.estimate_rt60"] / rirs if rirs else 0.0, "count")
    metrics["fileformats.bytes_written"] = (
        sum(p.stat().st_size for p in workdir.rglob("*") if p.is_file()), "bytes")
    plain_s = sum(t for _, t in plain.values())
    traced_s = sum(t for _, t in traced.values())
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    return len(passes) * len(COMMANDS), failed, metrics
