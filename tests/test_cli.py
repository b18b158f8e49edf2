import ast
import base64
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import hstack_context, synth_speech, write_wav_at_rate
from ncderev import cli, corpus, diagnostics, dsp, fileformats, fir, kernels, mixing, mlp, rir
from ncderev.dsp import write_wav

# utt000..utt005 hash to train/dev/train/test/train/train
UTTS = ["utt000", "utt001", "utt002", "utt003", "utt004", "utt005"]


@pytest.fixture(scope="module")
def clean_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("clean")
    for i, name in enumerate(UTTS):
        write_wav(synth_speech(np.random.default_rng((90, i)), duration=0.8),
                  path / f"{name}.wav")
    return path


@pytest.fixture(scope="module")
def base_config(clean_dir, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("work")
    cfg = {
        "clean_dir": str(clean_dir),
        "workdir": str(workdir),
        "seed": 5,
        "rt60_range": [0.4, 0.5],
        "p": 2,
        "q": 2,
        "hidden_width": 8,
        "epochs": 2,
        "enhancer_p": 3,
        "lambda_grid": [0.0, 0.5, 1.0],
        "n_subsets": 1,
        "max_lag": 20,
        "context_grid": [[0, 0], [1, 1], [2, 0]],
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    return path, workdir


@pytest.fixture(scope="module")
def built_corpus(base_config):
    config_path, workdir = base_config
    assert cli.main(["make-corpus", "--config", str(config_path)]) == 0
    assert cli.main(["featurize", "--config", str(config_path)]) == 0
    return config_path, workdir


def test_cli_import_loads_no_scipy_or_process_pool():
    # every command is a fresh process, so import time is paid on each run
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import ncderev.cli, sys; "
             "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False"]


def test_split_hash_expectations():
    assert [corpus.split_of(u) for u in UTTS] == [
        "train", "dev", "train", "test", "train", "train",
    ]


class TestMakeCorpus:
    def test_manifest_complete_and_unique(self, built_corpus):
        _, workdir = built_corpus
        rows = corpus.read_manifest(workdir / "manifest.csv")
        assert [r.utterance for r in rows] == UTTS
        assert len({r.rir_id for r in rows}) == len(UTTS)
        for r in rows:
            assert 0.4 <= r.rt60 <= 0.5
            assert (workdir / r.reverb_path).is_file()
            assert (workdir / r.rir_path).is_file()

    def test_default_rirs_measure_manifest_rt60(self, built_corpus):
        # the fixture config sets no absorption_mode
        _, workdir = built_corpus
        for row in corpus.read_manifest(workdir / "manifest.csv"):
            measured = rir.estimate_rt60(fileformats.read_rir(workdir / row.rir_path))
            assert abs(measured - row.rt60) <= 0.2 * row.rt60

    def test_rirs_record_calibration(self, built_corpus):
        _, workdir = built_corpus
        for row in corpus.read_manifest(workdir / "manifest.csv"):
            impulse = fileformats.read_rir(workdir / row.rir_path)
            assert 1 <= impulse.renders <= 4
            assert impulse.images > 0
            assert (abs(impulse.measured_rt60 / row.rt60 - 1.0) <= 0.04
                    or impulse.renders == 4)
            # recorded from the float64 taps; the file holds them as float32
            assert abs(rir.estimate_rt60(impulse) / impulse.measured_rt60 - 1.0) <= 1e-4

    def test_run_record_written(self, built_corpus):
        _, workdir = built_corpus
        record = json.loads((workdir / "runs" / "make-corpus.json").read_text())
        assert record["seed"] == 5
        assert record["command"] == "make-corpus"
        assert record["numpy"] == np.__version__

    def test_missing_clean_dir_is_data_error(self, base_config, tmp_path):
        config_path, _ = base_config
        code = cli.main(["make-corpus", "--config", str(config_path),
                         "--clean-dir", str(tmp_path / "nope"),
                         "--workdir", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("key, value", [
        ("rt60_range", [0.6, 0.4]),
        ("rt60_range", ["a", "b"]),
        ("nominal_dims", [7.0, 5.0]),
    ])
    def test_room_settings_checked_before_clean_dir(self, tmp_path, capsys, key, value):
        # the clean directory is absent: exit 3 would mean it was scanned first
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workdir": str(tmp_path), key: value,
                                   "clean_dir": str(tmp_path / "absent")}))
        assert cli.main(["make-corpus", "--config", str(bad)]) == 2
        assert f"config error: {key} " in capsys.readouterr().err

    def test_clean_wav_of_another_rate_is_data_error(self, base_config, tmp_path, capsys):
        config_path, _ = base_config
        clean = tmp_path / "clean"
        clean.mkdir()
        write_wav_at_rate(synth_speech(np.random.default_rng(3), sample_rate=8000,
                                       duration=0.8), clean / "utt000.wav", 8000)
        assert cli.main(["make-corpus", "--config", str(config_path),
                         "--clean-dir", str(clean), "--workdir", str(tmp_path / "w")]) == 3
        assert f"data error: {clean / 'utt000.wav'} is sampled at 8000 Hz" in \
            capsys.readouterr().err

    def test_tiny_nominal_room_is_config_error(self, base_config, tmp_path):
        config_path, workdir = base_config
        override = dict(json.loads(config_path.read_text()))
        override["nominal_dims"] = [2.5, 2.5, 2.5]
        override["workdir"] = str(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(override))
        assert cli.main(["make-corpus", "--config", str(bad)]) == 2


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        # no key caps the utterances (limit), picks the mixtures (mix_configs)
        # or sizes the RIR pool (rir_count, which older configs may hold)
        for key, value in (("frobnicate", 1), ("limit", 2), ("mix_configs", [1, 2]),
                           ("rir_count", 3)):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({"workdir": str(tmp_path), key: value}))
            assert cli.main(["featurize", "--config", str(bad)]) == 2
            assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    def test_every_key_is_read(self):
        # a key that no command reads would be accepted and then ignored:
        # each is read in cli.py as cfg.<key>, or is the mlp.TrainConfig
        # field of its name; absorption_mode is only validated, because the
        # benchmark's workload configs still set it
        read = set(re.findall(r"\bcfg\.(\w+)", Path(cli.__file__).read_text()))
        train = {f.name for f in dataclasses.fields(mlp.TrainConfig)}
        keys = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
        assert keys - read - train == {"absorption_mode"}

    def test_malformed_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert cli.main(["featurize", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("absorption_mode", "eyring"),
        ("ridge", -1.0),
        ("ridge", "nan"),
        ("p", -1),
        ("q", -1),
        ("enhancer_p", -1),
        ("split", "validation"),
        ("n_subsets", 0),
        ("max_lag", -3),
        ("tail_from_lag", -1),
        ("tail_from_lag", 101),
        ("hidden_width", 0),
        ("hidden_layers", -1),
        ("batch_size", 0),
        ("epochs", 0),
        ("learning_rate", -1.0),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("max_halvings", -1),
        ("context_grid", [[-1, 0]]),
        ("context_grid", []),
        ("lambda_grid", [1.5]),
        ("lambda_grid", []),
        ("context_grid", [[1, 2, 3]]),
        ("context_grid", [[1.0, 1]]),
        ("ridge", "0.5"),
        ("ridge", True),
        ("ridge", False),
        ("enhancer", "wiener"),
        ("p", "3"),
        ("p", 2.5),
        ("enhancer_p", 2.5),
        ("max_halvings", 1.5),
        ("hidden_width", 8.0),
        ("seed", True),
        ("epochs", 2.5),
        ("n_subsets", 1.5),
        ("jobs", 1.5),
        ("rt60_range", 0.5),
        ("rt60_range", [0.5]),
        ("rt60_range", [0.6, 0.4]),
        ("rt60_range", ["a", "b"]),
        ("rt60_range", [0.3, 0.5]),
        ("nominal_dims", [7.0, 5.0]),
        ("rir_count", -1),  # a removed key, rejected as unknown
        ("jobs", 0),
        ("jobs", -2),
        ("improvement_threshold", float("nan")),
        ("lambda_grid", [True, False]),
        ("seed", -1),
    ])
    def test_out_of_range_value_rejected(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workdir": str(tmp_path), key: value}))
        assert cli.main(["fit-fir", "--config", str(bad)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("fit-fir", "p", "3"),
        ("mix-sweep", "enhancer_p", 2.5),
        ("train-mlp", "epochs", 2.5),
        ("make-corpus", "rt60_range", 0.5),
    ])
    def test_wrong_type_named_before_data(self, tmp_path, capsys, command, key, value):
        # "p" occurs in any message, so the check above cannot tell that
        # the key is named; the empty workdir means nothing was read
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workdir": str(tmp_path), key: value}))
        assert cli.main([command, "--config", str(bad)]) == 2
        assert f"config error: {key} must be of type" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--hidden-width", "0"),
        ("--batch-size", "0"),
        ("--epochs", "0"),
        ("--learning-rate", "-1"),
        ("--learning-rate", "nan"),
    ])
    def test_bad_mlp_flag_rejected_before_data(self, tmp_path, capsys, flag, value):
        # the empty workdir holds no features: exit 2 means nothing was read
        assert cli.main(["train-mlp", "--workdir", str(tmp_path), flag, value]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_flag_overrides_config_file(self, base_config, tmp_path, capsys):
        config_path, _ = base_config
        # bad override must beat the (valid) file value and fail fast
        code = cli.main(["make-corpus", "--config", str(config_path),
                         "--workdir", str(tmp_path),
                         "--clean-dir", str(tmp_path / "absent")])
        assert code == 3

    def test_jobs_flag_only_on_make_corpus(self, capsys):
        # each command takes flags only for the config keys it reads, and
        # no command caps its utterances
        for argv in (["fit-fir", "--jobs", "2"], ["make-corpus", "--p", "3"],
                     ["featurize", "--split", "dev"], ["sweep-context", "--q", "1"],
                     *([command, "--limit", "2"] for command in cli.COMMANDS)):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_missing_upstream_artifact(self, tmp_path):
        # only make-corpus creates the workdir; a mistyped one is left absent
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"workdir": str(tmp_path / "absent")}))
        assert cli.main(["featurize", "--config", str(cfg)]) == 3
        assert not (tmp_path / "absent").exists()


class TestPipeline:
    def test_featurize_artifacts(self, built_corpus):
        _, workdir = built_corpus
        for utt in UTTS:
            clean = fileformats.read_features(workdir / "features" / "clean" / f"{utt}.ncft")
            reverb = fileformats.read_features(workdir / "features" / "reverb" / f"{utt}.ncft")
            assert clean.shape == reverb.shape
            assert clean.shape[1] == 40

    def test_fit_fir(self, built_corpus, fitted_all):
        config_path, workdir = built_corpus
        assert cli.main(["fit-fir", "--config", str(config_path)]) == 0
        errs = (workdir / "fir" / "errors.csv").read_text().splitlines()
        assert errs[0] == "utterance,total_err,normalized_err"
        assert float(errs[1].split(",")[2]) < 1.0  # beats predicting zero

        # the fixture config's split, then every utterance of the corpus
        for split, (_, workdir) in (("test", built_corpus), ("all", fitted_all)):
            out = workdir / "fir"
            rows = [r for r in corpus.read_manifest(workdir / "manifest.csv")
                    if split in ("all", r.split)]
            assert sorted(path.name for path in out.iterdir()) == sorted(
                ["errors.csv"] + [f"{r.utterance}_{name}" for r in rows for name in
                                  ("filters.ncsp", "estimate.ncsp", "estimate.wav")])
            for row in rows:
                # row i holds tap i of every bin, which multiplies x(n + q - i)
                taps = fileformats.read_spectrogram(out / f"{row.utterance}_filters.ncsp")
                assert taps.shape == (2 + 2 + 1, 257)
                x = dsp.stft(dsp.read_wav(workdir / row.reverb_path))
                stored = fileformats.read_spectrogram(out / f"{row.utterance}_estimate.ncsp")
                applied = kernels.apply_fir(taps.T, x, 2, stored.shape[0])
                # f32 storage moves the estimate by up to 2^-24 |yhat| and each
                # tap g_i by up to 2^-24 |g_i|, so the two differ by at most
                # 2^-24 (|yhat| + sum_i |g_i| |x(n + q - i)|); 2^-23 allows 2x
                spread = kernels.apply_fir(np.abs(taps.T), np.abs(x), 2, stored.shape[0])
                bound = 2.0 ** -23 * (np.abs(applied) + spread.real)
                assert np.all(np.abs(stored - applied) <= bound), row.utterance

    def test_sweep_context(self, built_corpus):
        config_path, workdir = built_corpus
        assert cli.main(["sweep-context", "--config", str(config_path)]) == 0
        lines = (workdir / "context_sweep.csv").read_text().splitlines()
        assert lines[0] == "p,q,taps,ratio_percent,mean_err,utterance_count"
        assert len(lines) == 4
        # one line per grid cell, a SweepRow's fields in order; the test split is utt003
        for line, (p, q) in zip(lines[1:], [(0, 0), (1, 1), (2, 0)]):
            row = fir.SweepRow(*(kind(v) for kind, v in zip(
                (int, int, int, float, float, int), line.split(","))))
            assert (row.p, row.q, row.taps, row.utterance_count) == (p, q, p + q + 1, 1)
            assert fileformats.fmt(row.ratio_percent) == (
                fileformats.fmt(100.0 * p / (p + q)) if p + q else "nan")
            assert row.mean_err > 0.0
            assert line == ",".join(map(fileformats.fmt, dataclasses.astuple(row)))

    def test_train_derev_mix_diagnose(self, built_corpus):
        config_path, workdir = built_corpus
        assert cli.main(["train-mlp", "--config", str(config_path)]) == 0
        assert (workdir / "mlp_model.json").is_file()
        assert (workdir / "mlp_loss.csv").is_file()

        assert cli.main(["derev", "--config", str(config_path)]) == 0
        assert (workdir / "features" / "derev" / "utt003.ncft").is_file()
        assert (workdir / "derev_mse.csv").is_file()

        assert cli.main(["mix-sweep", "--config", str(config_path)]) == 0
        cells = (workdir / "mix_sweep.csv").read_text().splitlines()
        assert cells[0] == "subset,config,lambda,mse"
        # 4 configs x 1 subset x 3 lambdas
        assert len(cells) == 1 + 12
        summary = (workdir / "mix_summary.csv").read_text().splitlines()
        assert summary[0] == "config,subset,optimal_lambda"

        # diagnose reads fit-fir's estimates; run it here if no earlier test did
        if not (workdir / "fir").is_dir():
            assert cli.main(["fit-fir", "--config", str(config_path)]) == 0
        assert cli.main(["diagnose", "--config", str(config_path)]) == 0
        diag = workdir / "diagnostics"
        curves = (diag / "autocorr_curves.csv").read_text().splitlines()
        assert curves[0] == "lag,clean,reverb,fir_derev"
        assert len(curves) == 22  # header + lags 0..20
        assert (diag / "tail_mass.csv").is_file()
        assert (diag / "utt003_clean.pgm").read_bytes().startswith(b"P5")

    def test_train_run_record_agrees_with_loss_trace(self, built_corpus):
        config_path, workdir = built_corpus
        if not (workdir / "mlp_model.json").is_file():
            assert cli.main(["train-mlp", "--config", str(config_path)]) == 0
        record = json.loads((workdir / "runs" / "train-mlp.json").read_text())
        header, *lines = (workdir / "mlp_loss.csv").read_text().splitlines()
        assert header == "epoch,train_mse,valid_mse,learning_rate,batch_mse"
        trace = [[float(v) if v else None for v in line.split(",")] for line in lines]
        valid = [row[2] for row in trace]
        # the train loss is measured once, for the kept epoch's model
        kept = valid.index(min(valid))
        assert [row[1] is not None for row in trace] == [i == kept for i in range(len(trace))]
        threshold = record["config"]["improvement_threshold"]
        plateaus = [(a - b) / a < threshold for a, b in zip(valid, valid[1:])]
        rates = [row[3] for row in trace]
        assert record["epochs_run"] == len(trace) == record["config"]["epochs"]
        assert record["best_epoch"] == 1 + valid.index(min(valid))
        assert record["halvings"] == sum(plateaus)
        # a plateau after epoch k halves epoch k+1's rate; the last one shows in no row
        assert [b < a for a, b in zip(rates[1:], rates[2:])] == plateaus[:-1]
        frames = {"train": 0, "dev": 0, "test": 0}
        for row in corpus.read_manifest(workdir / "manifest.csv"):
            path = workdir / "features" / "clean" / f"{row.utterance}.ncft"
            frames[row.split] += fileformats.read_features(path).shape[0]
        assert record["train_frames"] == frames["train"]
        assert record["valid_frames"] == frames["dev"]

    def test_derev_without_model_is_data_error(self, built_corpus, tmp_path):
        config_path, _ = built_corpus
        override = dict(json.loads(config_path.read_text()))
        override["workdir"] = str(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(override))
        assert cli.main(["make-corpus", "--config", str(cfg)]) == 0
        assert cli.main(["featurize", "--config", str(cfg)]) == 0
        assert cli.main(["derev", "--config", str(cfg)]) == 3


@pytest.fixture
def trained(built_corpus):
    config_path, workdir = built_corpus
    if not (workdir / "mlp_model.json").is_file():
        assert cli.main(["train-mlp", "--config", str(config_path)]) == 0
    return config_path, workdir


def test_mix_sweep_reads_no_dev_clean_wav(trained, monkeypatch):
    # the reference enhancer runs on the reverberant WAV alone; dev clean
    # references come from the stored features
    config_path, workdir = trained
    read = []
    original = dsp.read_wav

    def recording(path, *args, **kwargs):
        read.append(Path(path).resolve())
        return original(path, *args, **kwargs)

    monkeypatch.setattr(dsp, "read_wav", recording)
    assert cli.main(["mix-sweep", "--config", str(config_path)]) == 0
    dev = [r for r in corpus.read_manifest(workdir / "manifest.csv")
           if r.split == "dev"]
    assert dev
    for row in dev:
        assert (workdir / row.reverb_path).resolve() in read
        assert Path(row.clean_path).resolve() not in read


def test_mix_sweep_loads_no_numpy_ma(trained):
    # nothing in mix-sweep uses masked arrays, and importing numpy.ma
    # costs every mix-sweep process 10-30 ms
    config_path, _ = trained
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys; from ncderev.cli import main; "
             f"code = main(['mix-sweep', '--config', {str(config_path)!r}]); "
             "print(code, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1].split() == ["0", "False"]


def test_mix_sweep_identity_enhancer(trained, tmp_path):
    # with identity, ref_enhanced is the reverberant log-Mel recomputed in
    # float64, so configs 1 and 4 agree at lambda 0 up to the float32
    # rounding of the stored reverb features
    config_path, workdir = trained
    override = dict(json.loads(config_path.read_text()), enhancer="identity")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(override))
    assert cli.main(["mix-sweep", "--config", str(cfg)]) == 0
    lines = (workdir / "mix_sweep.csv").read_text().splitlines()[1:]
    at_zero = {int(c): float(m) for _, c, lam, m in (line.split(",") for line in lines)
               if float(lam) == 0.0}
    assert abs(at_zero[1] - at_zero[4]) <= 1e-6 * at_zero[4]


def _no_fit(*args, **kwargs):
    raise AssertionError("the causal-FIR enhancer was fitted")


def test_mix_sweep_accepts_external_stream_files(trained, tmp_path, monkeypatch):
    # an external enhancer is plugged in by dropping NCFT stream files; a
    # stream equal to the clean features drives every config that mixes it
    # first to lambda 0 and every config that mixes it second to lambda 1
    config_path, workdir = trained
    clean = fileformats.read_features(
        workdir / "features" / "clean" / "utt001.ncft")
    for stream in ("reverb", "ref_enhanced", "derev_of_reverb", "derev_of_ref_enhanced"):
        streams = tmp_path / stream
        streams.mkdir()
        fileformats.write_features(clean, streams / f"utt001__{stream}.ncft")
        override = dict(json.loads(config_path.read_text()), streams_dir=str(streams))
        cfg = tmp_path / f"{stream}.json"
        cfg.write_text(json.dumps(override))
        with monkeypatch.context() as patch:
            if stream == "ref_enhanced":  # utt001, the one dev utterance, needs no enhancer
                patch.setattr(fir, "fit_pooled_filters", _no_fit)
            assert cli.main(["mix-sweep", "--config", str(cfg)]) == 0
        summary = (workdir / "mix_summary.csv").read_text().splitlines()[1:]
        optimum = {int(c): lam for c, subset, lam in (line.split(",") for line in summary)
                   if subset == "rt60_band0"}
        expected = {c: "0.0" if pair[0] == stream else "1.0"
                    for c, pair in mixing.STREAMS_BY_CONFIG.items() if stream in pair}
        assert len(expected) == 2
        assert {c: optimum[c] for c in expected} == expected, stream


@pytest.mark.parametrize("stream", mixing.STREAMS)
@pytest.mark.parametrize("damage", [
    lambda clean: clean[:-5],     # 5 frames short
    lambda clean: clean[:, :20],  # 20 of the 40 bands
], ids=["short", "narrow"])
def test_mix_sweep_names_a_stream_file_of_another_shape(trained, tmp_path, capsys, stream,
                                                        damage):
    config_path, workdir = trained
    clean = fileformats.read_features(workdir / "features" / "clean" / "utt001.ncft")
    path = tmp_path / f"utt001__{stream}.ncft"
    fileformats.write_features(damage(clean), path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(json.loads(config_path.read_text()),
                                   streams_dir=str(tmp_path))))
    assert cli.main(["mix-sweep", "--config", str(cfg)]) == 3
    assert (f"stream file {path} holds {damage(clean).shape} features, but utt001's "
            f"clean features are {clean.shape}") in capsys.readouterr().err


@pytest.mark.parametrize("stream, value", [("ref_enhanced", np.nan),
                                           ("derev_of_reverb", -np.inf)])
def test_mix_sweep_names_a_stream_file_with_a_non_finite_value(trained, tmp_path, capsys,
                                                              stream, value):
    # a NaN stream would score NaN at every lambda and leave its
    # configurations without an optimum
    config_path, workdir = trained
    clean = fileformats.read_features(workdir / "features" / "clean" / "utt001.ncft")
    feats = clean.copy()
    feats[3, 7] = value
    path = tmp_path / f"utt001__{stream}.ncft"
    fileformats.write_features(feats, path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(json.loads(config_path.read_text()),
                                   streams_dir=str(tmp_path))))
    assert cli.main(["mix-sweep", "--config", str(cfg)]) == 3
    assert f"stream file {path} holds a non-finite value" in capsys.readouterr().err


def test_mix_sweep_fits_enhancer_one_train_pair_at_a_time(trained, monkeypatch):
    # each train pair's Gram is summed before the next pair is loaded
    config_path, workdir = trained
    calls = []
    load_pair, normal_blocks = cli._load_pair, kernels.normal_blocks

    def loading(*args, **kwargs):
        calls.append("pair")
        return load_pair(*args, **kwargs)

    def gram(*args, **kwargs):
        calls.append("gram")
        return normal_blocks(*args, **kwargs)

    monkeypatch.setattr(cli, "_load_pair", loading)
    monkeypatch.setattr(kernels, "normal_blocks", gram)
    assert cli.main(["mix-sweep", "--config", str(config_path)]) == 0
    train = [r for r in corpus.read_manifest(workdir / "manifest.csv")
             if r.split == "train"]
    assert calls == ["pair", "gram"] * len(train)


def test_sweep_context_holds_one_pair_at_a_time(built_corpus, monkeypatch):
    # each pair's one Gram serves every grid cell before the next pair is loaded
    config_path, workdir = built_corpus
    calls = []
    load_pair, normal_blocks = cli._load_pair, kernels.normal_blocks

    def loading(*args, **kwargs):
        calls.append("pair")
        return load_pair(*args, **kwargs)

    def gram(*args, **kwargs):
        calls.append("gram")
        return normal_blocks(*args, **kwargs)

    monkeypatch.setattr(cli, "_load_pair", loading)
    monkeypatch.setattr(kernels, "normal_blocks", gram)
    assert cli.main(["sweep-context", "--config", str(config_path), "--split", "all"]) == 0
    assert calls == ["pair", "gram"] * len(UTTS)
    counts = [line.split(",")[-1]
              for line in (workdir / "context_sweep.csv").read_text().splitlines()[1:]]
    assert counts == [str(len(UTTS))] * 3


def test_derev_reports_match_mse_rows_of_the_whole_split(trained, capsys):
    # derev writes its MSE rows one utterance at a time; the reports are
    # the mse_loss of every utterance's pair held at once, and their mean
    config_path, workdir = trained
    assert cli.main(["derev", "--config", str(config_path)]) == 0
    rows = [r for r in corpus.read_manifest(workdir / "manifest.csv") if r.split == "test"]
    feats = {kind: [fileformats.read_features(workdir / "features" / kind / f"{r.utterance}.ncft")
                    for r in rows]
             for kind in ("clean", "reverb")}
    # the MSE is taken from the float64 estimate, not its float32 file
    model = mlp.load_model(workdir / "mlp_model.json")
    feats["derev"] = [mlp.dereverberate_features(model, x, 2, 2) for x in feats["reverb"]]
    means = {}
    for name in ("derev", "reverb"):
        report = [(r.utterance, len(est), mlp.mse_loss(est, ref))
                  for r, est, ref in zip(rows, feats[name], feats["clean"])]
        means[name] = float(np.mean([m for _, _, m in report]))
        expected = ["utterance,n_frames,mse"] + [f"{u},{n},{m!r}" for u, n, m in report]
        assert (workdir / f"{name}_mse.csv").read_text().splitlines() == expected
    assert f"corpus MSE: derev {means['derev']!r} vs reverb {means['reverb']!r}" in \
        capsys.readouterr().out


def _stacked_split(workdir, split, p, q):
    """The split's context matrix and targets as train-mlp built them before
    it gathered context per batch: hstack_context per utterance, stacked,
    at the float32 the features are stored in."""
    rows = [r for r in corpus.read_manifest(workdir / "manifest.csv") if r.split == split]
    feats = {kind: [fileformats.read_features(workdir / "features" / kind / f"{r.utterance}.ncft")
                    for r in rows] for kind in ("reverb", "clean")}
    return (np.concatenate([hstack_context(f, p, q) for f in feats["reverb"]]),
            np.concatenate(feats["clean"]))


@pytest.mark.parametrize("chunk", [None, 64])
def test_train_mlp_matches_training_on_the_stacked_matrix(trained, tmp_path, monkeypatch,
                                                          chunk):
    config_path, workdir = _copy_of(trained, tmp_path)
    cfg = cli.resolve_config(cli.build_parser().parse_args(
        ["train-mlp", "--config", str(config_path)]))
    x, y = _stacked_split(workdir, "train", cfg.p, cfg.q)
    vx, vy = _stacked_split(workdir, "dev", cfg.p, cfg.q)
    dims = [x.shape[1]] + [cfg.hidden_width] * cfg.hidden_layers + [y.shape[1]]
    monkeypatch.setattr(mlp, "LOSS_CHUNK", 10 ** 6)  # one forward call per set
    best, trace = mlp.train(mlp.init_model(dims, cfg.seed), x, y,
                            cli._train_config(cfg), vx, vy)
    mlp.save_model(best, tmp_path / "mlp_model.json", seed=cfg.seed)
    fileformats.write_csv(tmp_path / "mlp_loss.csv",
                          ["epoch", "train_mse", "valid_mse", "learning_rate", "batch_mse"],
                          trace)
    if chunk:
        monkeypatch.setattr(mlp, "LOSS_CHUNK", chunk)
    else:
        monkeypatch.undo()
        assert len(x) < mlp.LOSS_CHUNK  # so the default chunk holds the whole set
    assert cli.main(["train-mlp", "--config", str(config_path)]) == 0
    for name in ("mlp_model.json", "mlp_loss.csv"):
        assert (workdir / name).read_bytes() == (tmp_path / name).read_bytes()


def test_train_mlp_allocates_no_stacked_matrix(built_corpus, tmp_path, monkeypatch):
    # p = q = 10 makes the stacked train matrix 21x the features; with loss
    # chunks shorter than the split, the peak stays below that one array
    config_path, workdir = _copy_of(built_corpus, tmp_path)
    config_path.write_text(json.dumps(dict(json.loads(config_path.read_text()), p=10, q=10)))
    x, _ = _stacked_split(workdir, "train", 10, 10)
    stacked_bytes = x.nbytes
    del x
    monkeypatch.setattr(mlp, "LOSS_CHUNK", 64)
    tracemalloc.start()
    try:
        assert cli.main(["train-mlp", "--config", str(config_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stacked_bytes


def test_train_mlp_dataset_holds_one_feature_file_beside_the_set(built_corpus, monkeypatch):
    config_path, workdir = built_corpus
    cfg = cli.resolve_config(cli.build_parser().parse_args(
        ["train-mlp", "--config", str(config_path)]))
    rows = cli._split_rows(cli._manifest_rows(cfg), "train")
    x, y = _stacked_split(workdir, "train", cfg.p, cfg.q)
    read = fileformats.read_features
    largest = max(read(workdir / "features" / kind / f"{r.utterance}.ncft").nbytes
                  for r in rows for kind in ("reverb", "clean"))
    assert len(rows) >= 3 and largest < y.nbytes / 2  # one file is a small share
    tracemalloc.start()
    try:
        inputs, targets = cli._dataset_from_rows(cfg, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(inputs.rows(slice(None)), x)
    assert np.array_equal(targets, y)
    kept = inputs.padded.nbytes + inputs.starts.nbytes + targets.nbytes
    # one file's f32 bytes, which its features view, beside what is kept
    assert peak <= kept + largest + 64 * 1024


def test_train_mlp_steps_at_float32(built_corpus, tmp_path, monkeypatch):
    # train-mlp trains at the float32 its features are stored in; a float64
    # step takes about twice as long
    config_path, _ = _copy_of(built_corpus, tmp_path)
    dtypes, steps = set(), []
    train, gradients = mlp.train, mlp.gradients

    def training(model, inputs, targets, config, valid_inputs, valid_targets):
        dtypes.update(a.dtype for a in (inputs.padded, targets,
                                        valid_inputs.padded, valid_targets))
        return train(model, inputs, targets, config, valid_inputs, valid_targets)

    def stepping(model, x, targets, workspace):
        steps.append(len(x))
        dtypes.update(a.dtype for a in (x, targets, *model.weights, *model.biases))
        return gradients(model, x, targets, workspace)

    monkeypatch.setattr(mlp, "train", training)
    monkeypatch.setattr(mlp, "gradients", stepping)
    assert cli.main(["train-mlp", "--config", str(config_path)]) == 0
    assert steps and dtypes == {np.dtype(np.float32)}


def test_train_mlp_saves_the_model_it_kept(built_corpus, tmp_path, monkeypatch):
    # the kept model is float32, so the saved f32 blocks are its parameters
    # bit for bit, and a rerun writes the same bytes
    config_path, workdir = _copy_of(built_corpus, tmp_path)
    kept = []
    train = mlp.train

    def keeping(*args):
        best, trace = train(*args)
        kept.append(best)
        return best, trace

    monkeypatch.setattr(mlp, "train", keeping)
    written = []
    for _ in range(2):
        assert cli.main(["train-mlp", "--config", str(config_path)]) == 0
        written.append([(workdir / name).read_bytes()
                        for name in ("mlp_model.json", "mlp_loss.csv")])
    assert written[0] == written[1]
    layers = json.loads(written[0][0])["layers"]
    for layer, w, b in zip(layers, kept[0].weights, kept[0].biases, strict=True):
        for key, param in (("weights", w), ("bias", b)):
            assert param.dtype == np.float32
            assert base64.b64decode(layer[key]) == param.astype("<f4").tobytes()


def test_train_mlp_missing_dev_features_is_data_error(built_corpus, tmp_path, capsys):
    config_path, workdir = _copy_of(built_corpus, tmp_path)
    (workdir / "features" / "reverb" / "utt001.ncft").unlink()  # utt001 is dev
    (workdir / "runs" / "train-mlp.json").unlink(missing_ok=True)
    assert cli.main(["train-mlp", "--config", str(config_path)]) == 3
    assert "utt001.ncft; run featurize first" in capsys.readouterr().err
    assert not (workdir / "runs" / "train-mlp.json").exists()


def test_train_mlp_without_dev_split_trains_on_the_train_loss(built_corpus, tmp_path):
    config_path, workdir = _copy_of(built_corpus, tmp_path)
    rows = [dataclasses.replace(r, split="test") if r.split == "dev" else r
            for r in corpus.read_manifest(workdir / "manifest.csv")]
    corpus.write_manifest(rows, workdir / "manifest.csv")
    _rerecord(workdir, "make-corpus", workdir / "manifest.csv")
    (workdir / "runs" / "train-mlp.json").unlink(missing_ok=True)
    assert cli.main(["featurize", "--config", str(config_path)]) == 0  # for this manifest
    assert cli.main(["train-mlp", "--config", str(config_path)]) == 0
    assert json.loads((workdir / "runs" / "train-mlp.json").read_text())["valid_frames"] == 0
    header, *lines = (workdir / "mlp_loss.csv").read_text().splitlines()
    assert header == "epoch,train_mse,valid_mse,learning_rate,batch_mse"
    for line in lines:
        _, train_mse, valid_mse, _, _ = line.split(",")
        assert train_mse == valid_mse


@pytest.fixture(scope="module")
def fitted_all(built_corpus, tmp_path_factory):
    """A copy of the built corpus on which fit-fir has run with split all."""
    config_path, workdir = built_corpus
    copy = tmp_path_factory.mktemp("fitted") / "work"
    shutil.copytree(workdir, copy, ignore=shutil.ignore_patterns("fir", "diagnostics"))
    cfg = copy / "config.json"
    cfg.write_text(json.dumps(dict(json.loads(config_path.read_text()),
                                   workdir=str(copy), split="all")))
    assert cli.main(["fit-fir", "--config", str(cfg)]) == 0
    return cfg, copy


def _copy_of(fitted, tmp_path):
    config_path, workdir = fitted
    copy = tmp_path / "work"
    shutil.copytree(workdir, copy, ignore=shutil.ignore_patterns("diagnostics"))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(json.loads(config_path.read_text()), workdir=str(copy))))
    return cfg, copy


def _sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rerecord(workdir, producer, path):
    """Record the sha256 of ``path``, a file in ``workdir``, in ``producer``'s
    run record, as if ``producer`` had written it as it now is."""
    record_path = workdir / "runs" / f"{producer}.json"
    record = json.loads(record_path.read_text())
    record["digests"][path.relative_to(workdir).as_posix()] = _sha256_of(path)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("key, value", [
    ("p", 3), ("q", 1), ("ridge", 0.5), ("split", "test"),
])
def test_diagnose_rejects_fit_fir_run_with_other_settings(fitted_all, tmp_path, capsys,
                                                          key, value):
    config_path, _ = fitted_all
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(json.loads(config_path.read_text()), **{key: value})))
    assert cli.main(["diagnose", "--config", str(cfg)]) == 3
    assert f"fit-fir ran with {key} " in capsys.readouterr().err


def test_diagnose_without_fit_fir_run_is_data_error(fitted_all, tmp_path, capsys):
    config_path, workdir = _copy_of(fitted_all, tmp_path)
    (workdir / "runs" / "fit-fir.json").unlink()
    assert cli.main(["diagnose", "--config", str(config_path)]) == 3
    assert "fit-fir.json; run fit-fir first" in capsys.readouterr().err


def test_diagnose_missing_estimate_is_data_error(fitted_all, tmp_path, capsys):
    config_path, workdir = _copy_of(fitted_all, tmp_path)
    (workdir / "fir" / "utt004_estimate.ncsp").unlink()
    assert cli.main(["diagnose", "--config", str(config_path)]) == 3
    assert "utt004_estimate.ncsp" in capsys.readouterr().err
    assert not (workdir / "diagnostics").exists()


@pytest.mark.parametrize("command, artifact, size", [
    ("train-mlp", "features/reverb/utt000.ncft", 6),
    ("diagnose", "fir/utt002_estimate.ncsp", 4),
])
def test_truncated_artifact_is_data_error(fitted_all, tmp_path, capsys, command,
                                          artifact, size):
    # recorded as its producer's output, so the reader meets the damage
    config_path, workdir = _copy_of(fitted_all, tmp_path)
    path = workdir / artifact
    path.write_bytes(path.read_bytes()[:size])
    _rerecord(workdir, {"train-mlp": "featurize", "diagnose": "fit-fir"}[command], path)
    assert cli.main([command, "--config", str(config_path)]) == 3
    assert f"truncated {path.suffix[1:].upper()} file {path}" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["missing column", "short row"])
def test_malformed_manifest_is_data_error(fitted_all, tmp_path, capsys, damage):
    config_path, workdir = _copy_of(fitted_all, tmp_path)
    path = workdir / "manifest.csv"
    lines = path.read_text().splitlines()
    damaged = range(len(lines)) if damage == "missing column" else [2]
    for i in damaged:  # rir_path is the last column
        lines[i] = lines[i].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    _rerecord(workdir, "make-corpus", path)
    assert cli.main(["fit-fir", "--config", str(config_path)]) == 3
    message = {"missing column": ": header ['utterance',",
               "short row": " line 3: 8 fields, expected 9"}[damage]
    assert f"data error: {path}{message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["derev", "mix-sweep"])
@pytest.mark.parametrize("override", [{"p": 1, "q": 3}], ids=["p1-q3"])
def test_model_serves_only_its_training_context(trained, tmp_path, capsys, command,
                                                override):
    # (1, 3) feeds the (2, 2) model an input of the same width, 5 frames
    config_path, _ = trained
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(json.loads(config_path.read_text()), **override)))
    assert cli.main([command, "--config", str(cfg)]) == 3
    key = next(iter(override))
    assert f"train-mlp ran with {key} " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["derev", "mix-sweep"])
def test_model_without_train_mlp_run_is_data_error(trained, tmp_path, capsys, command):
    config_path, workdir = _copy_of(trained, tmp_path)
    (workdir / "runs" / "train-mlp.json").unlink()
    assert cli.main([command, "--config", str(config_path)]) == 3
    assert "train-mlp.json; run train-mlp first" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["[]\n", '{"config": []}\n', "{nope\n"],
                         ids=["list", "config-not-object", "not-json"])
def test_damaged_run_record_is_data_error(trained, tmp_path, capsys, damage):
    config_path, workdir = _copy_of(trained, tmp_path)
    path = workdir / "runs" / "train-mlp.json"
    path.write_text(damage)
    assert cli.main(["derev", "--config", str(config_path)]) == 3
    assert f"data error: run record {path} " in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["no layers", "no layer_dims", "one layer short"])
def test_malformed_model_json_is_data_error(trained, tmp_path, capsys, damage):
    config_path, workdir = _copy_of(trained, tmp_path)
    path = workdir / "mlp_model.json"
    payload = json.loads(path.read_text())
    if damage == "one layer short":
        payload["layers"].pop()
    else:
        del payload[damage[3:]]
    path.write_text(json.dumps(payload))
    _rerecord(workdir, "train-mlp", path)
    assert cli.main(["derev", "--config", str(config_path)]) == 3
    assert f"data error: model file {path}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["derev", "mix-sweep"])
@pytest.mark.parametrize("damage, message", [
    ("no weights", "layer 1 has no weights"),
    ("no bias", "layer 1 has no bias"),
    ("not base64", "layer 1 weights is not base64"),
    ("short weights", "layer 1 weights holds"),
    ("long bias", "layer 1 bias holds"),
])
def test_malformed_model_layer_is_data_error(trained, tmp_path, capsys, command,
                                             damage, message):
    config_path, workdir = _copy_of(trained, tmp_path)
    path = workdir / "mlp_model.json"
    payload = json.loads(path.read_text())
    layer = payload["layers"][1]
    if damage.startswith("no "):
        del layer[damage[3:]]
    elif damage == "not base64":
        layer["weights"] = "not base64!"
    elif damage == "short weights":  # one float fewer
        layer["weights"] = base64.b64encode(base64.b64decode(layer["weights"])[:-4]).decode()
    else:  # one float more
        layer["bias"] = base64.b64encode(base64.b64decode(layer["bias"]) + bytes(4)).decode()
    path.write_text(json.dumps(payload))
    _rerecord(workdir, "train-mlp", path)
    assert cli.main([command, "--config", str(config_path)]) == 3
    assert f"data error: model file {path}: {message}" in capsys.readouterr().err


def _fingerprint(record):
    """sha256 of a run record's digests map, serialized with sorted keys."""
    return hashlib.sha256(json.dumps(record["digests"], sort_keys=True).encode()).hexdigest()


def test_fit_fir_records_the_manifest_digest(fitted_all):
    # fit-fir lists the sha256 of each file it wrote, and make-corpus's
    # digests, which hold the manifest's, by their fingerprint
    _, workdir = fitted_all
    record = json.loads((workdir / "runs" / "fit-fir.json").read_text())
    corpus_record = json.loads((workdir / "runs" / "make-corpus.json").read_text())
    assert corpus_record["digests"]["manifest.csv"] == _sha256_of(workdir / "manifest.csv")
    assert record["reads"] == {"make-corpus": _fingerprint(corpus_record)}
    assert record["digests"] == {f"fir/{path.name}": _sha256_of(path)
                                 for path in (workdir / "fir").iterdir()}


def test_diagnose_rejects_estimates_of_an_older_corpus(fitted_all, tmp_path, capsys):
    config_path, workdir = _copy_of(fitted_all, tmp_path)
    assert cli.main(["make-corpus", "--config", str(config_path), "--seed", "7"]) == 0
    capsys.readouterr()
    assert cli.main(["diagnose", "--config", str(config_path)]) == 3
    assert ("fit-fir ran on make-corpus outputs that have changed since "
            f"({workdir / 'runs' / 'fit-fir.json'}); rerun fit-fir") in capsys.readouterr().err
    assert not (workdir / "diagnostics").exists()


@pytest.mark.parametrize("command", ["train-mlp", "derev", "mix-sweep"])
def test_features_of_an_older_corpus_are_data_error(trained, tmp_path, capsys, command):
    # featurize records the corpus it read; a rebuilt corpus makes its
    # features stale until featurize runs again
    config_path, workdir = _copy_of(trained, tmp_path)
    record = workdir / "runs" / "featurize.json"
    featurized = _fingerprint(json.loads((workdir / "runs" / "make-corpus.json").read_text()))
    assert cli.main(["make-corpus", "--config", str(config_path), "--seed", "7"]) == 0
    capsys.readouterr()
    assert cli.main([command, "--config", str(config_path)]) == 3
    assert (f"featurize ran on make-corpus outputs that have changed since ({record}); "
            "rerun featurize") in capsys.readouterr().err
    assert json.loads(record.read_text())["reads"] == {"make-corpus": featurized}


@pytest.fixture(scope="module")
def pipeline_root(base_config, clean_dir, tmp_path_factory):
    """A directory holding clean/, work/ and config.json, whose paths are
    relative to it, where make-corpus, featurize, fit-fir (split all) and
    train-mlp ran; so a copy of the directory is a corpus of its own."""
    config_path, _ = base_config
    root = tmp_path_factory.mktemp("root")
    shutil.copytree(clean_dir, root / "clean")
    (root / "config.json").write_text(json.dumps(dict(
        json.loads(config_path.read_text()), split="all", clean_dir="clean", workdir="work")))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for command in ("make-corpus", "featurize", "fit-fir", "train-mlp"):
            assert cli.main([command, "--config", "config.json"]) == 0
    return root


@pytest.fixture
def root_copy(pipeline_root, tmp_path, monkeypatch):
    """A copy of ``pipeline_root``, made the working directory."""
    root = shutil.copytree(pipeline_root, tmp_path / "root")
    monkeypatch.chdir(root)
    return root


def _unrecorded(producer, path):
    """The error for ``path`` (relative) when it is not as ``producer`` recorded it."""
    return (f"data error: {path} is not the file that work/runs/{producer}.json records; "
            f"rerun {producer}")


@pytest.mark.parametrize("command",
                         ["featurize", "fit-fir", "sweep-context", "mix-sweep", "diagnose"])
def test_clean_wav_replaced_after_make_corpus_is_data_error(root_copy, capsys, command):
    # make-corpus records each clean WAV's sha256; every command that reads
    # the clean WAVs (mix-sweep for its enhancer's train fit) compares it
    write_wav(synth_speech(np.random.default_rng(91), duration=0.8), Path("clean/utt000.wav"))
    assert cli.main([command, "--config", "config.json"]) == 3
    assert _unrecorded("make-corpus", "clean/utt000.wav") in capsys.readouterr().err


def _scaled(factor, rows=slice(None)):
    """Replaces an NCFT or NCSP file by its values times ``factor``, cut to ``rows``."""
    def replace(path):
        read, write = ((fileformats.read_features, fileformats.write_features)
                       if path.suffix == ".ncft" else
                       (fileformats.read_spectrogram, fileformats.write_spectrogram))
        write(factor * read(path)[rows], path)
    return replace


def _other_manifest_gain(path):
    rows = corpus.read_manifest(path)
    corpus.write_manifest([dataclasses.replace(rows[0], gain=rows[0].gain / 2)] + rows[1:], path)


REPLACEMENTS = {
    # 16 kHz speech of another utterance
    "reverb": ("make-corpus", "work/reverb/utt000.wav", lambda path: write_wav(
        synth_speech(np.random.default_rng(91), duration=0.8), path)),
    # the reader would reject the rate, but the digest check comes first
    "clean-8khz": ("make-corpus", "clean/utt000.wav", lambda path: write_wav_at_rate(
        synth_speech(np.random.default_rng(3), sample_rate=8000, duration=0.8), path, 8000)),
    # utt001 is the dev utterance, which every consumer of features reads
    "features": ("featurize", "work/features/clean/utt001.ncft", _scaled(2.0)),
    "estimate": ("fit-fir", "work/fir/utt002_estimate.ncsp", _scaled(2.0)),
    "estimate-shape": ("fit-fir", "work/fir/utt002_estimate.ncsp", _scaled(1.0, slice(-1))),
    "model": ("train-mlp", "work/mlp_model.json", lambda path: mlp.save_model(
        mlp.init_model(mlp.load_model(path).layer_dims, 99), path)),
    "manifest": ("make-corpus", "work/manifest.csv", _other_manifest_gain),
}
WAV_READERS = ["featurize", "fit-fir", "sweep-context", "mix-sweep", "diagnose"]


@pytest.mark.parametrize("artifact, command", [
    *(("reverb", c) for c in WAV_READERS),
    *(("clean-8khz", c) for c in WAV_READERS),
    *(("features", c) for c in ("train-mlp", "derev", "mix-sweep")),
    ("estimate", "diagnose"),
    ("estimate-shape", "diagnose"),
    *(("model", c) for c in ("derev", "mix-sweep")),
    *(("manifest", c) for c in cli.COMMANDS if c != "make-corpus"),
])
def test_artifact_replaced_after_its_producer_ran_is_data_error(root_copy, capsys, artifact,
                                                                command):
    # each consumer reads an upstream file only if its sha256 is the one
    # that the file's producer recorded
    producer, path, replace = REPLACEMENTS[artifact]
    replace(Path(path))
    assert cli.main([command, "--config", "config.json"]) == 3
    assert _unrecorded(producer, path) in capsys.readouterr().err


def test_every_artifact_is_listed_in_one_run_record(root_copy):
    # after the whole pipeline, each workdir file is in the digests of the
    # one command that wrote it, and make-corpus also lists the clean WAVs
    for command in ("sweep-context", "derev", "mix-sweep", "diagnose"):
        assert cli.main([command, "--config", "config.json"]) == 0
    work = root_copy / "work"
    files = {path.relative_to(work).as_posix(): _sha256_of(path)
             for path in work.rglob("*") if path.is_file() and path.parent.name != "runs"}
    files.update({f"clean/{utt}.wav": _sha256_of(root_copy / "clean" / f"{utt}.wav")
                  for utt in UTTS})
    listed = [item for record in sorted((work / "runs").iterdir())
              for item in json.loads(record.read_text())["digests"].items()]
    assert sorted(listed) == sorted(files.items())
    assert len(list((work / "runs").iterdir())) == len(cli.COMMANDS)


def test_each_command_reads_the_manifest_once(root_copy, monkeypatch):
    # a command filters the rows it read for each split it works on
    read_upstream, reads = cli._read_upstream, []

    def reading(cfg, producer, path):
        reads.append(Path(path).name)
        return read_upstream(cfg, producer, path)

    monkeypatch.setattr(cli, "_read_upstream", reading)
    for command in ("featurize", "fit-fir", "sweep-context", "train-mlp", "derev",
                    "mix-sweep", "diagnose"):
        reads.clear()
        assert cli.main([command, "--config", "config.json"]) == 0
        assert reads.count("manifest.csv") == 1, command


def test_diagnose_holds_one_utterance_at_a_time(fitted_all, monkeypatch):
    # each of an utterance's three spectrograms is loaded only after the
    # one before it was folded into the sums and released
    config_path, _ = fitted_all
    calls, loaded = [], []
    add = diagnostics.AutocorrSums.add

    def tracking(name, load):
        def loading(*args, **kwargs):
            assert all(ref() is None for ref in loaded)
            calls.append(name)
            spec = load(*args, **kwargs)
            loaded.append(weakref.ref(spec))
            return spec
        return loading

    def adding(self, spec):
        calls.append("add")
        return add(self, spec)

    monkeypatch.setattr(cli, "_load_reverb", tracking("reverb", cli._load_reverb))
    monkeypatch.setattr(cli, "_load_clean", tracking("clean", cli._load_clean))
    monkeypatch.setattr(fileformats, "read_spectrogram",
                        tracking("estimate", fileformats.read_spectrogram))
    monkeypatch.setattr(diagnostics.AutocorrSums, "add", adding)
    assert cli.main(["diagnose", "--config", str(config_path)]) == 0
    assert calls == ["reverb", "add", "clean", "add", "estimate", "add"] * len(UTTS)
    assert all(ref() is None for ref in loaded)


def test_fit_fir_holds_one_utterance_at_a_time(fitted_all, monkeypatch):
    # nothing of one utterance (its pair, estimate, filters or errors) is
    # alive when the next utterance's pair is loaded
    config_path, _ = fitted_all
    loaded = []
    load_pair, dereverberate = cli._load_pair, fir.dereverberate_spectrogram

    def loading(*args, **kwargs):
        assert all(ref() is None for ref in loaded)
        pair = load_pair(*args, **kwargs)
        loaded.extend(weakref.ref(spec) for spec in pair)
        return pair

    def fitting(*args, **kwargs):
        result = dereverberate(*args, **kwargs)
        loaded.extend(weakref.ref(array) for array in result)
        return result

    monkeypatch.setattr(cli, "_load_pair", loading)
    monkeypatch.setattr(fir, "dereverberate_spectrogram", fitting)
    assert cli.main(["fit-fir", "--config", str(config_path)]) == 0
    assert len(loaded) == 5 * len(UTTS)
    assert all(ref() is None for ref in loaded)


def _tracking(loaded, func, check=True, record=True):
    """``func`` wrapped to assert, with ``check``, that every array in
    ``loaded`` (weak references) is released when it is called, and to
    add, with ``record``, the arrays it returns."""
    def tracked(*args, **kwargs):
        assert not check or all(ref() is None for ref in loaded)
        result = func(*args, **kwargs)
        if record:
            arrays = result if isinstance(result, tuple) else (result,)
            loaded.extend(weakref.ref(array) for array in arrays)
        return result
    return tracked


def test_featurize_holds_one_utterance_at_a_time(built_corpus, tmp_path, monkeypatch):
    # nothing of one utterance (its pair or its features) is alive when
    # the next utterance's pair is loaded
    config_path, _ = _copy_of(built_corpus, tmp_path)
    loaded = []
    monkeypatch.setattr(cli, "_load_pair", _tracking(loaded, cli._load_pair))
    monkeypatch.setattr(cli, "_mvn_logmel", _tracking(loaded, cli._mvn_logmel, check=False))
    assert cli.main(["featurize", "--config", str(config_path)]) == 0
    assert len(loaded) == 4 * len(UTTS)
    assert all(ref() is None for ref in loaded)


def test_mix_sweep_holds_one_utterance_at_a_time(trained, monkeypatch):
    # the enhancer fit loads each train pair after the previous one is
    # released, and the dev loop loads each reverberant spectrogram after
    # the previous one and its enhanced copy are; both are released once
    # their log-Mel features are formed, before the MLP maps them
    config_path, workdir = trained
    loaded = []
    monkeypatch.setattr(cli, "_load_pair", _tracking(loaded, cli._load_pair))
    monkeypatch.setattr(cli, "_load_reverb", _tracking(loaded, cli._load_reverb))
    monkeypatch.setattr(kernels, "apply_fir", _tracking(loaded, kernels.apply_fir, check=False))
    monkeypatch.setattr(mlp, "dereverberate_features",
                        _tracking(loaded, mlp.dereverberate_features, record=False))
    assert cli.main(["mix-sweep", "--config", str(config_path)]) == 0
    splits = [r.split for r in corpus.read_manifest(workdir / "manifest.csv")]
    # a train pair records its reverb twice, once from inside _load_pair
    assert len(loaded) == 3 * splits.count("train") + 2 * splits.count("dev")
    assert splits.count("train") > 1 and splits.count("dev") >= 1


def test_diagnose_matches_average_autocorr_over_the_split(fitted_all):
    # clean and reverb are folded into AutocorrSums in the same utterance
    # order, so they agree byte for byte; fir_derev comes from fit-fir's
    # float32-stored estimates, so it agrees with float64 refits closely
    config_path, workdir = fitted_all
    assert cli.main(["diagnose", "--config", str(config_path)]) == 0
    sums = {name: diagnostics.AutocorrSums(20)
            for name in ("clean", "reverb", "fir_derev")}
    for row in corpus.read_manifest(workdir / "manifest.csv"):
        clean = dsp.stft(dsp.read_wav(row.clean_path))
        reverb = dsp.stft(dsp.read_wav(workdir / row.reverb_path))
        sums["clean"].add(clean)
        sums["reverb"].add(reverb)
        sums["fir_derev"].add(fir.dereverberate_spectrogram(reverb, clean, 2, 2)[0])
    lines = (workdir / "diagnostics" / "autocorr_curves.csv").read_text().splitlines()
    columns = list(zip(*(line.split(",") for line in lines[1:])))
    record = json.loads((workdir / "runs" / "diagnose.json").read_text())
    assert record["estimate_source"] == "fit-fir"
    for i, name in enumerate(sums, start=1):
        curve, skipped = sums[name].curve(), sums[name].skipped
        if name == "fir_derev":
            got = np.array([float(v) for v in columns[i]])
            assert np.max(np.abs(got - curve)) <= 1e-6
        else:
            assert list(columns[i]) == [repr(float(v)) for v in curve]
        assert record["trajectories"][name] == {
            "used": len(UTTS) * 257 - skipped, "skipped": skipped}


def test_mix_summary_lists_bands_in_order(trained, tmp_path):
    # twelve bands over 0.40-0.50 s put 0.44 in band 4 and 0.50 in band 11,
    # which an order by name would list before band 4
    config_path, workdir = trained
    copy = tmp_path / "work"
    shutil.copytree(workdir, copy)
    rows = [dataclasses.replace(r, split="dev") if r.utterance in ("utt000", "utt002")
            else r for r in corpus.read_manifest(copy / "manifest.csv")]
    rt60s = iter([0.40, 0.44, 0.50])
    rows = [dataclasses.replace(r, rt60=next(rt60s)) if r.split == "dev" else r
            for r in rows]
    corpus.write_manifest(rows, copy / "manifest.csv")
    _rerecord(copy, "make-corpus", copy / "manifest.csv")
    override = dict(json.loads(config_path.read_text()), workdir=str(copy), n_subsets=12)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(override))
    for command in ("featurize", "train-mlp"):  # for this manifest
        assert cli.main([command, "--config", str(cfg)]) == 0
    assert cli.main(["mix-sweep", "--config", str(cfg)]) == 0
    summary = [line.split(",")
               for line in (copy / "mix_summary.csv").read_text().splitlines()[1:]]
    for config_id in ("1", "2", "3", "4"):
        assert [subset for c, subset, _ in summary if c == config_id] == [
            "rt60_band0", "rt60_band4", "rt60_band11", "average"]


def test_jobs_parallel_corpus_matches_serial(clean_dir, tmp_path):
    cfg_a = {"clean_dir": str(clean_dir), "workdir": str(tmp_path / "a"),
             "seed": 5, "rt60_range": [0.4, 0.45], "jobs": 1}
    cfg_b = dict(cfg_a, workdir=str(tmp_path / "b"), jobs=2)
    pa = tmp_path / "a.json"
    pa.write_text(json.dumps(cfg_a))
    pb = tmp_path / "b.json"
    pb.write_text(json.dumps(cfg_b))
    assert cli.main(["make-corpus", "--config", str(pa)]) == 0
    assert cli.main(["make-corpus", "--config", str(pb)]) == 0
    for rel in ["reverb/utt000.wav", "reverb/utt003.wav", "rirs/rir00000.ncir", "manifest.csv"]:
        assert ((tmp_path / "a" / rel).read_bytes()
                == (tmp_path / "b" / rel).read_bytes())
    # the records differ in config.jobs and config.workdir, not in what they list
    records = [json.loads((tmp_path / side / "runs" / "make-corpus.json").read_text())
               for side in ("a", "b")]
    assert records[0]["digests"] == records[1]["digests"]
    assert len(records[0]["digests"]) == 3 * len(UTTS) + 1


def test_benchmark_workload_configs_are_accepted(tmp_path):
    # the benchmark runs these configs; a config key it sets must stay valid
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        cli.ExperimentConfig(**dict(workload.config, clean_dir=str(tmp_path / "clean"),
                                    workdir=str(tmp_path / "work")))


def test_benchmark_traced_functions_exist():
    # perfbench's --trace 1 run wraps these module attributes and binds its
    # counters to these parameters; a rename would read as 0 calls or crash
    # that run. The file is parsed, not imported: importing perfbench sets
    # BLAS environment variables.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    values = {target.id: ast.literal_eval(node.value)
              for node in ast.parse(path.read_text()).body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id in ("LAYERS", "IMPORTED_BY_NAME")}
    # removed from src; their metrics read 0
    gone = {"kernels.rir_accumulate", "features.stack_context",
            "diagnostics.normalized_autocorr", "diagnostics.average_autocorr"}
    traced = {f"{module}.{name.rstrip('*')}"
              for module, names in values["LAYERS"].items() for name in names}
    for dotted in sorted(traced - gone):
        module, *path = dotted.split(".")
        target = importlib.import_module(f"ncderev.{module}")
        for name in path:  # a method is traced as module.Class.method
            target = getattr(target, name, None)
        assert callable(target), dotted
    for dotted, importers in values["IMPORTED_BY_NAME"].items():
        module, name = dotted.split(".")
        function = getattr(importlib.import_module(f"ncderev.{module}"), name)
        for importer in importers:
            assert getattr(importlib.import_module(f"ncderev.{importer}"), name) is function
    assert {"y", "taps"} <= set(inspect.signature(kernels.normal_blocks).parameters)
    assert "inputs" in inspect.signature(mlp.train).parameters


def test_benchmark_train_mlp_check_passes(root_copy, monkeypatch):
    # perfbench's own output checks of all eight commands, run on a pipeline
    # whose train-mlp is set up as the benchmark sets it (more halvings than
    # epochs), so a change to an artifact that the benchmark rejects fails here
    config = json.loads(Path("config.json").read_text())
    Path("config.json").write_text(json.dumps(dict(config, max_halvings=config["epochs"] + 1)))
    for command in ("train-mlp", "sweep-context", "derev", "mix-sweep", "diagnose"):
        assert cli.main([command, "--config", "config.json"]) == 0
    workdir = root_copy / "work"
    resolved = json.loads((workdir / "runs" / "train-mlp.json").read_text())["config"]
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    names = ("checks", "artifacts", "workloads")
    assert not set(names) & set(sys.modules)
    try:
        checks = importlib.import_module("checks")
        problems = checks.check_pipeline(workdir, resolved)
        assert problems == {command: [] for command in cli.COMMANDS}
    finally:
        for name in names:
            sys.modules.pop(name, None)


def test_readme_flag_table_matches_the_parser():
    # README's "| command | flags |" table, whose rows may name two commands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for line in table.splitlines():
        commands, flags = line.strip("|").split("|")
        for command in re.findall(r"`([a-z-]+)`", commands):
            assert command not in listed, command
            listed[command] = tuple(re.findall(r"`(--[a-z-]+)`", flags))
    assert listed == cli.FLAGS
