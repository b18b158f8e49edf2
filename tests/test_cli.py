import base64
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import hstack_context, synth_speech
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

    def test_too_few_rirs_is_data_error(self, base_config, tmp_path):
        config_path, _ = base_config
        code = cli.main(["make-corpus", "--config", str(config_path),
                         "--workdir", str(tmp_path),
                         "--rir-count", "3"])
        assert code == 3

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
        ("rir_count", -1),
    ])
    def test_room_settings_checked_before_clean_dir(self, tmp_path, capsys, key, value):
        # the clean directory is absent: exit 3 would mean it was scanned first
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workdir": str(tmp_path), key: value,
                                   "clean_dir": str(tmp_path / "absent")}))
        assert cli.main(["make-corpus", "--config", str(bad)]) == 2
        assert f"config error: {key} " in capsys.readouterr().err

    def test_tiny_nominal_room_is_config_error(self, base_config, tmp_path):
        config_path, workdir = base_config
        override = dict(json.loads(config_path.read_text()))
        override["nominal_dims"] = [2.5, 2.5, 2.5]
        override["workdir"] = str(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(override))
        assert cli.main(["make-corpus", "--config", str(bad)]) == 2


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workdir": str(tmp_path), "frobnicate": 1}))
        assert cli.main(["featurize", "--config", str(bad)]) == 2

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
        ("limit", -1),
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
        ("mix_configs", [5]),
        ("mix_configs", []),
        ("fft_size", 500),
        ("n_mels", 300),
        ("frame_ms", 0),
        ("enhancer", "wiener"),
        ("p", "3"),
        ("p", 2.5),
        ("enhancer_p", 2.5),
        ("max_halvings", 1.5),
        ("hidden_width", 8.0),
        ("seed", True),
        ("epochs", 2.5),
        ("limit", 1.5),
        ("jobs", 1.5),
        ("rt60_range", 0.5),
        ("rt60_range", [0.5]),
        ("rt60_range", [0.6, 0.4]),
        ("rt60_range", ["a", "b"]),
        ("rt60_range", [0.3, 0.5]),
        ("nominal_dims", [7.0, 5.0]),
        ("rir_count", -1),
        ("jobs", 0),
        ("jobs", -2),
        ("improvement_threshold", float("nan")),
        ("lambda_grid", [True, False]),
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

    def test_missing_upstream_artifact(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"workdir": str(tmp_path)}))
        assert cli.main(["featurize", "--config", str(cfg)]) == 3


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
                x = dsp.stft(dsp.read_wav(workdir / row.reverb_path), dsp.StftConfig()).values
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
        lines = (workdir / "mlp_loss.csv").read_text().splitlines()[1:]
        trace = [[float(v) for v in line.split(",")] for line in lines]
        valid = [row[2] for row in trace]
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


def test_mix_sweep_accepts_external_stream_files(trained, tmp_path):
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
        assert cli.main(["mix-sweep", "--config", str(cfg)]) == 0
        summary = (workdir / "mix_summary.csv").read_text().splitlines()[1:]
        optimum = {int(c): lam for c, subset, lam in (line.split(",") for line in summary)
                   if subset == "rt60_band0"}
        expected = {c: "0.0" if pair[0] == stream else "1.0"
                    for c, pair in mixing.STREAMS_BY_CONFIG.items() if stream in pair}
        assert len(expected) == 2
        assert {c: optimum[c] for c in expected} == expected, stream


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


def test_derev_reports_match_mse_report(trained, capsys):
    # derev writes its MSE rows one utterance at a time; the reports are
    # those of mse_report over every utterance's pair held at once
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
        report, means[name] = diagnostics.mse_report(
            zip([r.utterance for r in rows], feats[name], feats["clean"]))
        expected = ["utterance,n_frames,mse"] + [f"{u},{n},{m!r}" for u, n, m in report]
        assert (workdir / f"{name}_mse.csv").read_text().splitlines() == expected
    assert f"corpus MSE: derev {means['derev']!r} vs reverb {means['reverb']!r}" in \
        capsys.readouterr().out


def _stacked_split(workdir, split, p, q):
    """The split's context matrix and targets as train-mlp built them before
    it gathered context per batch: hstack_context per utterance, stacked."""
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
    dims = [x.shape[1]] + [cfg.hidden_width] * cfg.hidden_layers + [cfg.n_mels]
    monkeypatch.setattr(mlp, "LOSS_CHUNK", 10 ** 6)  # one forward call per set
    best, trace = mlp.train(mlp.init_model(dims, cfg.seed), x, y,
                            cli._train_config(cfg), vx, vy)
    mlp.save_model(best, tmp_path / "mlp_model.json", seed=cfg.seed)
    fileformats.write_csv(tmp_path / "mlp_loss.csv",
                          ["epoch", "train_mse", "valid_mse", "learning_rate"], trace)
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
    rows = cli._manifest_rows(cfg, "train")
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
    # one file's float64 matrix and its f32 bytes, beside what is kept
    assert peak <= kept + 1.5 * largest + 64 * 1024


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
    (workdir / "runs" / "train-mlp.json").unlink(missing_ok=True)
    assert cli.main(["train-mlp", "--config", str(config_path)]) == 0
    assert json.loads((workdir / "runs" / "train-mlp.json").read_text())["valid_frames"] == 0
    for line in (workdir / "mlp_loss.csv").read_text().splitlines()[1:]:
        _, train_mse, valid_mse, _ = line.split(",")
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


@pytest.mark.parametrize("key, value", [
    ("p", 3), ("q", 1), ("ridge", 0.5), ("split", "test"),
    # 24 ms frames give as many frames as 25 ms ones here: only the record tells
    ("frame_ms", 24.0), ("shift_ms", 12.0), ("fft_size", 1024), ("sample_rate", 8000),
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


def test_diagnose_estimate_of_wrong_shape_is_data_error(fitted_all, tmp_path, capsys):
    config_path, workdir = _copy_of(fitted_all, tmp_path)
    path = workdir / "fir" / "utt002_estimate.ncsp"
    estimate = fileformats.read_spectrogram(path)
    fileformats.write_spectrogram(estimate[:-1], path)
    assert cli.main(["diagnose", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "utt002_estimate.ncsp" in err and "shape" in err


@pytest.mark.parametrize("command, artifact, size", [
    ("train-mlp", "features/reverb/utt000.ncft", 6),
    ("diagnose", "fir/utt002_estimate.ncsp", 4),
])
def test_truncated_artifact_is_data_error(fitted_all, tmp_path, capsys, command,
                                          artifact, size):
    config_path, workdir = _copy_of(fitted_all, tmp_path)
    path = workdir / artifact
    path.write_bytes(path.read_bytes()[:size])
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
    assert cli.main(["fit-fir", "--config", str(config_path)]) == 3
    assert f"data error: {path}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["derev", "mix-sweep"])
@pytest.mark.parametrize("override", [{"p": 1, "q": 3}, {"n_mels": 30}],
                         ids=["p1-q3", "n_mels30"])
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


@pytest.mark.parametrize("key, value", [
    ("fft_size", 1024), ("frame_ms", 24.0), ("shift_ms", 12.0), ("sample_rate", 8000),
])
def test_mix_sweep_rejects_features_of_other_settings(trained, tmp_path, capsys, key,
                                                      value):
    # the reverb and clean streams would come from featurize's STFT and the
    # ref_enhanced stream from this config's
    config_path, _ = trained
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(json.loads(config_path.read_text()), **{key: value})))
    assert cli.main(["mix-sweep", "--config", str(cfg)]) == 3
    assert f"featurize ran with {key} " in capsys.readouterr().err


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
    assert cli.main([command, "--config", str(config_path)]) == 3
    assert f"data error: model file {path}: {message}" in capsys.readouterr().err


def test_fit_fir_records_the_manifest_digest(fitted_all):
    _, workdir = fitted_all
    record = json.loads((workdir / "runs" / "fit-fir.json").read_text())
    assert record["manifest_sha256"] == hashlib.sha256(
        (workdir / "manifest.csv").read_bytes()).hexdigest()


def test_diagnose_rejects_estimates_of_an_older_corpus(fitted_all, tmp_path, capsys):
    config_path, workdir = _copy_of(fitted_all, tmp_path)
    assert cli.main(["make-corpus", "--config", str(config_path), "--seed", "7"]) == 0
    capsys.readouterr()
    assert cli.main(["diagnose", "--config", str(config_path)]) == 3
    assert "another manifest.csv" in capsys.readouterr().err
    assert not (workdir / "diagnostics").exists()


def test_diagnose_holds_one_utterance_at_a_time(fitted_all, monkeypatch):
    # each utterance's three spectrograms are folded into the sums and
    # released before the next utterance is loaded
    config_path, _ = fitted_all
    calls, loaded = [], []
    load_pair, read_spectrogram = cli._load_pair, fileformats.read_spectrogram
    add = diagnostics.AutocorrSums.add

    def loading(*args, **kwargs):
        assert all(ref() is None for ref in loaded)
        calls.append("pair")
        pair = load_pair(*args, **kwargs)
        loaded.extend(weakref.ref(spec) for spec in pair)
        return pair

    def reading(*args, **kwargs):
        calls.append("estimate")
        estimate = read_spectrogram(*args, **kwargs)
        loaded.append(weakref.ref(estimate))
        return estimate

    def adding(self, spec):
        calls.append("add")
        return add(self, spec)

    monkeypatch.setattr(cli, "_load_pair", loading)
    monkeypatch.setattr(fileformats, "read_spectrogram", reading)
    monkeypatch.setattr(diagnostics.AutocorrSums, "add", adding)
    assert cli.main(["diagnose", "--config", str(config_path)]) == 0
    assert calls == ["pair", "estimate", "add", "add", "add"] * len(UTTS)
    assert all(ref() is None for ref in loaded)


def test_diagnose_matches_average_autocorr_over_the_split(fitted_all):
    # clean and reverb are folded in the same utterance order as the list
    # form, so they agree byte for byte; fir_derev comes from fit-fir's
    # float32-stored estimates, so it agrees with float64 refits closely
    config_path, workdir = fitted_all
    assert cli.main(["diagnose", "--config", str(config_path)]) == 0
    specs = {"clean": [], "reverb": [], "fir_derev": []}
    for row in corpus.read_manifest(workdir / "manifest.csv"):
        clean = dsp.stft(dsp.read_wav(row.clean_path), dsp.StftConfig())
        reverb = dsp.stft(dsp.read_wav(workdir / row.reverb_path), dsp.StftConfig())
        specs["clean"].append(clean)
        specs["reverb"].append(reverb)
        specs["fir_derev"].append(fir.dereverberate_spectrogram(reverb, clean, 2, 2)[0])
    lines = (workdir / "diagnostics" / "autocorr_curves.csv").read_text().splitlines()
    columns = list(zip(*(line.split(",") for line in lines[1:])))
    record = json.loads((workdir / "runs" / "diagnose.json").read_text())
    assert record["estimate_source"] == "fit-fir"
    for i, name in enumerate(specs, start=1):
        curve, skipped = diagnostics.average_autocorr(specs[name], 20, magnitude=True)
        if name == "fir_derev":
            got = np.array([float(v) for v in columns[i]])
            assert np.max(np.abs(got - curve.values)) <= 1e-6
        else:
            assert list(columns[i]) == [repr(float(v)) for v in curve.values]
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
    override = dict(json.loads(config_path.read_text()), workdir=str(copy), n_subsets=12)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(override))
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
    for rel in ["reverb/utt000.wav", "reverb/utt003.wav", "rirs/rir00000.ncir"]:
        assert ((tmp_path / "a" / rel).read_bytes()
                == (tmp_path / "b" / rel).read_bytes())
