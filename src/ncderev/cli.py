"""Batch command-line entry points.

Subcommands: make-corpus, fit-fir, sweep-context, featurize, train-mlp,
derev, mix-sweep, diagnose. Common flags: --config (JSON), --seed,
--workdir; each command also takes flags for config keys it reads
(FLAGS), and featurize reads none beyond these. Explicit flags override
the config file, which overrides built-in defaults. Each command works
on every utterance of its split, and mix-sweep tunes all four mixtures
of ``mixing.STREAMS_BY_CONFIG``.

Every command is deterministic given config + seed (no wall-clock
seeding) and writes a reproducibility record to workdir/runs/, which
holds the sha256 of each file it wrote and a fingerprint of each record
it read. Commands read upstream files only through ``_read_upstream``,
which checks them against those records. Exit codes: 0 success, 2
config error, 3 data error, 4 numerical failure.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import (__version__, corpus, diagnostics, dsp, features, fileformats, fir, kernels,
               mixing, mlp, rir)


class ConfigError(ValueError):
    """Bad or inconsistent configuration."""


class DataError(RuntimeError):
    """Missing or malformed input data or upstream artifacts."""


# the values a config key may take; argparse offers them for its flag
CHOICES = {"split": ("train", "dev", "test", "all"), "enhancer": mixing.ENHANCERS,
           "absorption_mode": ("calibrated",)}


@dataclass
class ExperimentConfig:
    """Resolved settings shared by all subcommands."""

    workdir: str = "work"
    clean_dir: str = ""
    seed: int = 0
    jobs: int = 1
    nominal_dims: list = field(default_factory=lambda: list(rir.NOMINAL_DIMS))
    rt60_range: list = field(default_factory=lambda: list(rir.RT60_RANGE))
    absorption_mode: str = "calibrated"  # only accepted value; existing configs set it
    p: int = 10
    q: int = 10
    ridge: object = "auto"
    context_grid: list = field(default_factory=lambda: [
        [0, 0], [1, 1], [2, 2], [5, 5], [10, 10], [0, 20], [20, 0],
    ])
    split: str = "test"
    hidden_width: int = 128
    hidden_layers: int = 3
    learning_rate: float = 1.0
    batch_size: int = 64
    epochs: int = 100
    improvement_threshold: float = 0.0
    max_halvings: int = 5
    enhancer: str = "causal-fir"
    enhancer_p: int = 10
    lambda_grid: list = field(default_factory=lambda: [
        round(0.05 * i, 2) for i in range(21)
    ])
    n_subsets: int = 2
    streams_dir: str = ""
    max_lag: int = 100
    tail_from_lag: int = 10

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("a seed is required; wall-clock seeding is not allowed")
        # not config: the run records a command read, the files its record lists
        self.records, self.digests = {}, {}  # {command: record}, {path: sha256 or None}
        # ints are not bools; floats also take ints; ridge is checked below
        for f in fields(self):
            value = getattr(self, f.name)
            kind = type(f.default_factory() if f.default is MISSING else f.default)
            if f.name == "ridge" or type(value) is kind or (
                    kind is float and type(value) is int):
                continue
            raise ConfigError(f"{f.name} must be of type {kind.__name__}, got {value!r}")
        for name, choices in CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
        if self.ridge != "auto":
            if type(self.ridge) not in (int, float):
                raise ConfigError(f"ridge must be a number or 'auto', got {self.ridge!r}")
            self.ridge = float(self.ridge)
            if not 0.0 <= self.ridge < float("inf"):
                raise ConfigError(f"ridge must be finite and >= 0, got {self.ridge}")
        for name, low in (("seed", 0), ("p", 0), ("q", 0), ("enhancer_p", 0), ("n_subsets", 1),
                          ("hidden_width", 1), ("hidden_layers", 0), ("jobs", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0 <= self.tail_from_lag <= self.max_lag:
            raise ConfigError(
                f"need 0 <= tail_from_lag <= max_lag, got tail_from_lag "
                f"{self.tail_from_lag} and max_lag {self.max_lag}"
            )
        if not self.context_grid or not all(
                isinstance(cell, (list, tuple)) and len(cell) == 2
                and all(type(v) is int and v >= 0 for v in cell)
                for cell in self.context_grid):
            raise ConfigError(
                f"context_grid must be a non-empty list of [p, q] pairs of ints "
                f">= 0, got {self.context_grid}")
        if not self.lambda_grid or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and 0.0 <= v <= 1.0
                for v in self.lambda_grid):
            raise ConfigError(
                f"lambda_grid must be a non-empty list of values in [0, 1], "
                f"got {self.lambda_grid}")
        # the messages of these checks name the key
        try:
            _train_config(self)
            rir.check_room_settings(self.nominal_dims, self.rt60_range)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def resolve_config(args) -> ExperimentConfig:
    """Defaults, then config file, then explicit command-line flags."""
    values = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        known = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(loaded) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for key in ExperimentConfig.__dataclass_fields__:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return ExperimentConfig(**values)


def _manifest_path(cfg) -> Path:
    return Path(cfg.workdir) / "manifest.csv"


def _run_path(cfg, command) -> Path:
    return Path(cfg.workdir) / "runs" / f"{command}.json"


def _features_dir(cfg, kind) -> Path:
    return Path(cfg.workdir) / "features" / kind


def _features_path(cfg, kind, utt) -> Path:
    return _features_dir(cfg, kind) / f"{utt}.ncft"


def _fir_dir(cfg) -> Path:
    return Path(cfg.workdir) / "fir"


def _estimate_path(cfg, utt) -> Path:
    return _fir_dir(cfg) / f"{utt}_estimate.ncsp"


def _model_path(cfg) -> Path:
    return Path(cfg.workdir) / "mlp_model.json"


def _upstream(path, command) -> Path:
    """``path``, an artifact that ``command`` writes; DataError if it is missing."""
    if not path.is_file():
        raise DataError(f"missing upstream artifact {path}; run {command} first")
    return path


def _fingerprint(record) -> str:
    """sha256 of a record's digests map, which a copied workdir keeps."""
    return hashlib.sha256(json.dumps(record["digests"], sort_keys=True).encode()).hexdigest()


def _key(cfg, path) -> str:
    """``path`` as run records name it: relative to the workdir when in it."""
    path, workdir = Path(path), Path(cfg.workdir)
    return path.relative_to(workdir).as_posix() if path.is_relative_to(workdir) else str(path)


def _require_run(cfg, command, keys=()) -> dict:
    """``command``'s run record; DataError unless it holds this config's
    ``keys`` and every record it read still holds the digests it read."""
    path = _run_path(cfg, command)
    record = cfg.records.get(command)
    if record is None:
        try:
            record = json.loads(_upstream(path, command).read_text())
        except ValueError as exc:
            raise DataError(f"run record {path} is not valid JSON: {exc}") from exc
        if not isinstance(record, dict) or not all(
                isinstance(record.get(name), dict) for name in ("config", "digests", "reads")):
            raise DataError(f"run record {path} lacks a config, digests or reads object; "
                            f"rerun {command}")
        cfg.records[command] = record
        for upstream, fingerprint in record["reads"].items():
            if _fingerprint(_require_run(cfg, upstream)) != fingerprint:
                raise DataError(f"{command} ran on {upstream} outputs that have changed "
                                f"since ({path}); rerun {command}")
    for key in keys:
        if record["config"].get(key) != getattr(cfg, key):
            raise DataError(
                f"{command} ran with {key} {record['config'].get(key)!r} but this config "
                f"has {getattr(cfg, key)!r} ({path}); rerun {command} with this config")
    return record


def _read_upstream(cfg, producer, path) -> bytes:
    """The bytes of ``path``; DataError naming it unless their sha256 is
    the one that ``producer``'s current run record holds for it."""
    digests = _require_run(cfg, producer)["digests"]
    data = _upstream(Path(path), producer).read_bytes()
    if digests.get(_key(cfg, path)) != hashlib.sha256(data).hexdigest():
        raise DataError(f"{path} is not the file that {_run_path(cfg, producer)} "
                        f"records; rerun {producer}")
    return data


def _out(cfg, path):
    """``path``, which the command writes: its run record holds its sha256."""
    cfg.digests[Path(path)] = None
    return path


def _write_run_record(cfg, command, extra=None) -> None:
    """workdir/runs/<command>.json: config, versions, the digests of what
    the command wrote, the fingerprints of the records it read and any
    deterministic facts of the run in ``extra`` (never wall-clock values)."""
    path = _run_path(cfg, command)
    path.parent.mkdir(exist_ok=True)
    record = {
        "command": command,
        "config": asdict(cfg),
        "digests": {_key(cfg, out): sha256 or hashlib.sha256(out.read_bytes()).hexdigest()
                    for out, sha256 in cfg.digests.items()},
        "reads": {name: _fingerprint(read) for name, read in cfg.records.items()},
        "numpy": np.__version__,
        "seed": cfg.seed,
        "version": __version__,
        **(extra or {}),
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def _train_config(cfg) -> mlp.TrainConfig:
    """Every TrainConfig field is the config key of the same name."""
    return mlp.TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(mlp.TrainConfig)})


def _manifest_rows(cfg):
    path = _manifest_path(cfg)
    return corpus.read_manifest(path, _read_upstream(cfg, "make-corpus", path))


def _split_rows(rows, split):
    """The manifest rows of ``split`` ("all" keeps every row); DataError
    if there are none."""
    picked = [r for r in rows if split in ("all", r.split)]
    if not picked:
        raise DataError(f"no utterances in split {split!r}")
    return picked


def _load_reverb(cfg, row):
    """Reverberant spectrogram of one manifest row."""
    path = Path(cfg.workdir) / row.reverb_path
    return dsp.stft(dsp.read_wav(path, _read_upstream(cfg, "make-corpus", path)))


def _load_clean(cfg, row):
    """Clean spectrogram of one manifest row."""
    return dsp.stft(dsp.read_wav(row.clean_path,
                                 _read_upstream(cfg, "make-corpus", row.clean_path)))


def _load_pair(cfg, row):
    """(reverb, clean) spectrograms for one manifest row."""
    return _load_reverb(cfg, row), _load_clean(cfg, row)


def _require_features(cfg, kind, utt) -> np.ndarray:
    path = _features_path(cfg, kind, utt)
    return fileformats.read_features(path, _read_upstream(cfg, "featurize", path))


def _mvn_logmel(spec) -> np.ndarray:
    return features.mvn(features.log_mel(spec))


def cmd_make_corpus(cfg) -> int:
    if not cfg.clean_dir:
        raise ConfigError("make-corpus needs clean_dir (or --clean-dir)")
    pairs = corpus.scan_clean_dir(cfg.clean_dir)
    workdir = Path(cfg.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    made = corpus.build_corpus(
        pairs, workdir, cfg.seed,
        nominal_dims=tuple(cfg.nominal_dims),
        rt60_range=tuple(cfg.rt60_range),
        jobs=cfg.jobs,
    )
    for row, digest in made:  # the record also lists the clean WAVs it read
        cfg.digests[Path(row.clean_path)] = digest
        _out(cfg, workdir / row.reverb_path)
        _out(cfg, workdir / row.rir_path)
    corpus.write_manifest([row for row, _ in made], _out(cfg, _manifest_path(cfg)))
    _write_run_record(cfg, "make-corpus")
    print(f"wrote {_manifest_path(cfg)} ({len(made)} utterances)")
    return 0


def _featurize_one(cfg, row) -> None:
    """Write one utterance's clean and reverberant features. Its arrays
    are released on return, before the next utterance is loaded."""
    reverb_spec, clean_spec = _load_pair(cfg, row)
    clean_feats = _mvn_logmel(clean_spec)
    reverb_feats = _mvn_logmel(reverb_spec)
    reverb_feats, clean_feats = features.align_pairs(reverb_feats, clean_feats)
    for kind, feats in (("clean", clean_feats), ("reverb", reverb_feats)):
        fileformats.write_features(feats, _out(cfg, _features_path(cfg, kind, row.utterance)))


def cmd_featurize(cfg) -> int:
    rows = _manifest_rows(cfg)
    for kind in ("clean", "reverb"):
        _features_dir(cfg, kind).mkdir(parents=True, exist_ok=True)
    for row in rows:
        _featurize_one(cfg, row)
    _write_run_record(cfg, "featurize")
    print(f"wrote features for {len(rows)} utterances under {_features_dir(cfg, 'clean').parent}")
    return 0


def _fit_one(cfg, row, out_dir):
    """Fit, apply and write one utterance's per-bin filters; returns its
    errors.csv row. Its arrays are released on return, before the next
    utterance is loaded."""
    reverb_spec, clean_spec = _load_pair(cfg, row)
    estimate, taps, errors = fir.dereverberate_spectrogram(
        reverb_spec, clean_spec, cfg.p, cfg.q, ridge=cfg.ridge
    )
    # row i holds tap i of every bin, which multiplies x(n + q - i)
    fileformats.write_spectrogram(taps.T, _out(cfg, out_dir / f"{row.utterance}_filters.ncsp"))
    fileformats.write_spectrogram(estimate, _out(cfg, _estimate_path(cfg, row.utterance)))
    dsp.write_wav(dsp.istft(estimate), _out(cfg, out_dir / f"{row.utterance}_estimate.wav"))
    denom = float(np.sum(np.abs(clean_spec) ** 2))
    return (row.utterance, float(errors.sum()),
            float(errors.sum()) / denom if denom else 0.0)


def cmd_fit_fir(cfg) -> int:
    rows = _split_rows(_manifest_rows(cfg), cfg.split)
    out_dir = _fir_dir(cfg)
    out_dir.mkdir(exist_ok=True)
    err_rows = [_fit_one(cfg, row, out_dir) for row in rows]
    fileformats.write_csv(_out(cfg, out_dir / "errors.csv"),
                          ["utterance", "total_err", "normalized_err"], err_rows)
    _write_run_record(cfg, "fit-fir")
    print(f"wrote per-bin filters for {len(rows)} utterances under {out_dir}")
    return 0


def cmd_sweep_context(cfg) -> int:
    rows = _split_rows(_manifest_rows(cfg), cfg.split)
    pairs = (_load_pair(cfg, row) for row in rows)
    grid = [tuple(cell) for cell in cfg.context_grid]
    sweep_rows = fir.context_sweep(pairs, grid, ridge=cfg.ridge)
    out = Path(cfg.workdir) / "context_sweep.csv"
    fileformats.write_csv(_out(cfg, out), [f.name for f in fields(fir.SweepRow)],
                          map(astuple, sweep_rows))
    _write_run_record(cfg, "sweep-context")
    print(f"wrote {out} ({len(sweep_rows)} grid cells x {len(rows)} utterances)")
    return 0


def _dataset_from_rows(cfg, rows):
    """The rows' reverberant features as (p, q) ContextFrames, which hold
    them unstacked, and their clean features concatenated as targets, both
    at the float32 they are stored in.

    The frame counts come from the file headers first, so each file is
    read straight into its place and released.
    """
    def frames(kind, p, q):
        paths = [_upstream(_features_path(cfg, kind, row.utterance), "featurize")
                 for row in rows]
        return features.ContextFrames(
            (_require_features(cfg, kind, row.utterance) for row in rows), p, q,
            shapes=[fileformats.features_shape(path) for path in paths])

    # with p = q = 0 the padded block is the blocks concatenated
    return frames("reverb", cfg.p, cfg.q), frames("clean", 0, 0).padded


def cmd_train_mlp(cfg) -> int:
    rows = _manifest_rows(cfg)
    train_x, train_y = _dataset_from_rows(cfg, _split_rows(rows, "train"))
    dev_rows = [r for r in rows if r.split == "dev"]
    # no dev utterances: the training loss drives the schedule
    valid_x, valid_y = _dataset_from_rows(cfg, dev_rows) if dev_rows else (None, None)
    n_mels = len(features.MEL_BANK)
    dims = ([(cfg.p + cfg.q + 1) * n_mels]
            + [cfg.hidden_width] * cfg.hidden_layers + [n_mels])
    model = mlp.init_model(dims, cfg.seed)
    config = _train_config(cfg)
    best, trace = mlp.train(model, train_x, train_y, config, valid_x, valid_y)
    mlp.save_model(best, _out(cfg, _model_path(cfg)), seed=cfg.seed)
    fileformats.write_csv(
        _out(cfg, Path(cfg.workdir) / "mlp_loss.csv"),
        ["epoch", "train_mse", "valid_mse", "learning_rate", "batch_mse"],
        trace,
    )
    _write_run_record(cfg, "train-mlp", {
        "train_frames": len(train_x),
        "valid_frames": 0 if valid_x is None else len(valid_x),
        **mlp.trace_summary(trace, config.improvement_threshold),
    })
    print(f"trained on {len(train_x)} frames; wrote {_model_path(cfg)}")
    return 0


def _load_model(cfg) -> mlp.MlpModel:
    """train-mlp's model, which serves only the context it was trained on."""
    _require_run(cfg, "train-mlp", ("p", "q"))
    path = _model_path(cfg)
    return mlp.load_model(path, _read_upstream(cfg, "train-mlp", path))


def cmd_derev(cfg) -> int:
    workdir = Path(cfg.workdir)
    model = _load_model(cfg)
    rows = _split_rows(_manifest_rows(cfg), cfg.split)
    _features_dir(cfg, "derev").mkdir(parents=True, exist_ok=True)
    reports = {"derev": [], "reverb": []}
    for row in rows:
        reverb_feats = _require_features(cfg, "reverb", row.utterance)
        clean_feats = _require_features(cfg, "clean", row.utterance)
        estimate = mlp.dereverberate_features(model, reverb_feats, cfg.p, cfg.q)
        fileformats.write_features(estimate,
                                   _out(cfg, _features_path(cfg, "derev", row.utterance)))
        for name, feats in (("derev", estimate), ("reverb", reverb_feats)):
            reports[name].append((row.utterance, len(feats), mlp.mse_loss(feats, clean_feats)))
    for name, report in reports.items():
        fileformats.write_csv(_out(cfg, workdir / f"{name}_mse.csv"),
                              ["utterance", "n_frames", "mse"], report)
    means = {name: float(np.mean([mse for _, _, mse in report]))
             for name, report in reports.items()}
    _write_run_record(cfg, "derev")
    print(f"corpus MSE: derev {means['derev']!r} vs reverb {means['reverb']!r} "
          f"({len(rows)} utterances)")
    return 0


def _fit_enhancer(cfg, rows):
    """None for "identity", else the (bins, enhancer_p + 1) taps of per-bin
    causal filters fitted on the train split of the manifest ``rows``."""
    if cfg.enhancer == "identity":
        return None
    # one train pair in memory at a time: the fit sums their Grams as they come
    pairs = (_load_pair(cfg, row) for row in _split_rows(rows, "train"))
    return fir.fit_pooled_filters(pairs, cfg.enhancer_p, 0, cfg.ridge)


def _stream_override(cfg, utt, name, shape):
    """The features of ``<streams_dir>/<utt>__<name>.ncft``, or None when
    there is no such file; DataError naming it unless they are finite and
    of ``shape``, that of the utterance's clean features."""
    if not cfg.streams_dir:
        return None
    path = Path(cfg.streams_dir) / f"{utt}__{name}.ncft"
    if not path.is_file():
        return None
    feats = fileformats.read_features(path)
    if feats.shape != shape:
        raise DataError(f"stream file {path} holds {feats.shape} features, but {utt}'s "
                        f"clean features are {shape}")
    if not np.all(np.isfinite(feats)):
        raise DataError(f"stream file {path} holds a non-finite value")
    return feats


def cmd_mix_sweep(cfg) -> int:
    workdir = Path(cfg.workdir)
    model = _load_model(cfg)
    manifest = _manifest_rows(cfg)
    rows = _split_rows(manifest, "dev")
    cleans = [_require_features(cfg, "clean", row.utterance) for row in rows]
    overrides = [{name: _stream_override(cfg, row.utterance, name, clean.shape)
                  for name in mixing.STREAMS}
                 for row, clean in zip(rows, cleans)]
    # the enhancer serves only utterances without a ref_enhanced stream file
    enhancer_taps = (_fit_enhancer(cfg, manifest)
                     if any(streams["ref_enhanced"] is None for streams in overrides) else None)

    utterances = []
    for row, streams, clean_feats in zip(rows, overrides, cleans):
        if streams["reverb"] is None:
            streams["reverb"] = _require_features(cfg, "reverb", row.utterance)
        if streams["ref_enhanced"] is None:
            spec = _load_reverb(cfg, row)
            if enhancer_taps is not None:
                spec = kernels.apply_fir(enhancer_taps, spec, 0, len(spec))
            streams["ref_enhanced"] = features.align_pairs(_mvn_logmel(spec), clean_feats)[0]
            # released before the next utterance's spectrogram is loaded
            del spec
        for source in ("reverb", "ref_enhanced"):
            if streams[f"derev_of_{source}"] is None:
                streams[f"derev_of_{source}"] = mlp.dereverberate_features(
                    model, streams[source], cfg.p, cfg.q)
        utterances.append((streams, clean_feats))

    # band j holds [edge j, edge j+1); the last band also holds the maximum
    rt60s = [row.rt60 for row in rows]
    edges = np.linspace(min(rt60s), max(rt60s), cfg.n_subsets + 1)
    bands = np.searchsorted(edges[1:-1], rt60s, side="right").tolist()
    subsets = {f"rt60_band{j}": [u for u, band in zip(utterances, bands) if band == j]
               for j in sorted(set(bands))}

    cell_rows = []
    summary_rows = []
    for config_id in mixing.STREAMS_BY_CONFIG:
        per_subset, average, cells = mixing.lambda_sweep(
            subsets, cfg.lambda_grid, config_id
        )
        cell_rows.extend(cells)
        summary_rows.extend((config_id, name, lam) for name, lam in per_subset.items())
        summary_rows.append((config_id, "average", average))
    fileformats.write_csv(_out(cfg, workdir / "mix_sweep.csv"),
                          ["subset", "config", "lambda", "mse"], cell_rows)
    fileformats.write_csv(_out(cfg, workdir / "mix_summary.csv"),
                          ["config", "subset", "optimal_lambda"], summary_rows)
    _write_run_record(cfg, "mix-sweep")
    print(f"wrote {workdir / 'mix_sweep.csv'} ({len(cell_rows)} cells)")
    return 0


def _diagnose_one(cfg, row, sums, export_dir=None) -> None:
    """Fold one utterance's reverberant, clean and fit-fir estimate
    spectrograms into ``sums`` (one AutocorrSums per corpus), loading
    each only after the one before is released; with ``export_dir`` set,
    also export each for inspection."""
    path = _estimate_path(cfg, row.utterance)
    loaders = {
        "reverb": lambda: _load_reverb(cfg, row),
        "clean": lambda: _load_clean(cfg, row),
        "fir_derev": lambda: fileformats.read_spectrogram(
            path, _read_upstream(cfg, "fit-fir", path)),
    }
    for name, load in loaders.items():
        spec = load()
        sums[name].add(spec)
        if export_dir is not None:
            stem = export_dir / f"{row.utterance}_{name}"
            diagnostics.export_spectrogram(spec, _out(cfg, f"{stem}.pgm"), "pgm")
            diagnostics.export_spectrogram(_mvn_logmel(spec), _out(cfg, f"{stem}_logmel.csv"),
                                           "csv")
        del spec


def cmd_diagnose(cfg) -> int:
    rows = _split_rows(_manifest_rows(cfg), cfg.split)
    # fit-fir's estimates serve only the same fit; a missing one fails
    # before anything is written
    _require_run(cfg, "fit-fir", ("p", "q", "ridge", "split"))
    for row in rows:
        _upstream(_estimate_path(cfg, row.utterance), "fit-fir")
    out_dir = Path(cfg.workdir) / "diagnostics"
    out_dir.mkdir(exist_ok=True)
    sums = {name: diagnostics.AutocorrSums(cfg.max_lag)
            for name in ("clean", "reverb", "fir_derev")}
    # one utterance in memory at a time; the first one is also exported
    for i, row in enumerate(rows):
        _diagnose_one(cfg, row, sums, out_dir if i == 0 else None)
    curves = {name: corpus_sums.curve() for name, corpus_sums in sums.items()}
    fileformats.write_csv(
        _out(cfg, out_dir / "autocorr_curves.csv"),
        ["lag", *curves],
        ((lag, *(curve[lag] for curve in curves.values()))
         for lag in range(cfg.max_lag + 1)),
    )
    fileformats.write_csv(
        _out(cfg, out_dir / "tail_mass.csv"),
        ["corpus", "from_lag", "tail_mass", "skipped_trajectories"],
        ((name, cfg.tail_from_lag,
          diagnostics.tail_mass(curve, cfg.tail_from_lag), sums[name].skipped)
         for name, curve in curves.items()),
    )
    _write_run_record(cfg, "diagnose", {
        "estimate_source": "fit-fir",
        "trajectories": {name: {"used": corpus_sums.used, "skipped": corpus_sums.skipped}
                         for name, corpus_sums in sums.items()},
    })
    print(f"wrote diagnostics for {len(rows)} utterances under {out_dir}")
    return 0


COMMANDS = {
    "make-corpus": cmd_make_corpus,
    "featurize": cmd_featurize,
    "fit-fir": cmd_fit_fir,
    "sweep-context": cmd_sweep_context,
    "train-mlp": cmd_train_mlp,
    "derev": cmd_derev,
    "mix-sweep": cmd_mix_sweep,
    "diagnose": cmd_diagnose,
}

# each command's flags beyond --config, --seed and --workdir: one per config
# key that it reads, named after the key with "-" for "_"
FLAGS = {
    "make-corpus": ("--clean-dir", "--jobs"),
    "featurize": (),
    "fit-fir": ("--split", "--p", "--q"),
    "sweep-context": ("--split",),
    "train-mlp": ("--p", "--q", "--epochs", "--hidden-width", "--learning-rate",
                  "--batch-size"),
    "derev": ("--split", "--p", "--q"),
    "mix-sweep": ("--p", "--q", "--enhancer", "--streams-dir"),
    "diagnose": ("--split", "--p", "--q", "--max-lag"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncderev",
        description="Batch speech dereverberation experiments on synthetic corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--workdir")
        for flag in FLAGS[name]:
            key = flag[2:].replace("-", "_")
            cmd.add_argument(flag, dest=key, type=type(defaults[key]),
                             choices=CHOICES.get(key))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    except (fir.SingularSystemError, mlp.TrainingDivergedError,
            rir.DecayRangeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, rir.GeometryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
