"""Output checks, one per command, computed independently of the program.

Every expected value comes from the method itself: a Schroeder fit of
the stored taps, a direct convolution, per-bin ``numpy.linalg.lstsq``
fits on this module's own STFT, the 1-tap closed form, a forward pass of
the decoded model, and a Wiener-Khinchin autocorrelation. Nothing is
compared with a saved copy of earlier output. Artifacts are read with
``artifacts.py``; the program's code is never imported.

``check_pipeline`` returns, per command, a list of problems (empty when
the command's outputs hold).
"""

import math
import re
import traceback
from pathlib import Path

import numpy as np

from artifacts import read_csv, read_model, read_ncft, read_ncir, read_ncsp, read_pcm16
from workloads import split_of

FRAME_LEN, FRAME_SHIFT, FFT_SIZE, N_MELS = 400, 160, 512, 40
RT60_WITHIN = 0.20  # acceptance criterion 6: relative error of a fitted RT60
RT60_SHARE = 0.90   # ... reached by at least this share of the RIRs
F32_EPS = 2.0 ** -24


def stft(x: np.ndarray) -> np.ndarray:
    """Periodic-Hann 400/160 framing, 512-point real FFT, partial frame dropped."""
    n_frames = 1 + (x.size - FRAME_LEN) // FRAME_SHIFT
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN)
    idx = np.arange(n_frames)[:, None] * FRAME_SHIFT + np.arange(FRAME_LEN)[None, :]
    return np.fft.rfft(x[idx] * window, n=FFT_SIZE, axis=1)


def mel_weights(sample_rate: int) -> np.ndarray:
    """Triangular filters on HTK-Mel-spaced centers from 0 Hz to Nyquist."""
    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)
    edges = 700.0 * (10.0 ** (np.linspace(0.0, mel(sample_rate / 2.0), N_MELS + 2) / 2595.0) - 1.0)
    freqs = np.arange(FFT_SIZE // 2 + 1) * sample_rate / FFT_SIZE
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    return np.maximum(0.0, np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)))


def mvn_log_mel(spec: np.ndarray, weights: np.ndarray) -> np.ndarray:
    energies = np.abs(spec) ** 2 @ weights.T
    logs = np.log(np.maximum(energies, 1e-10 * energies.max()))
    std = logs.std(axis=0)
    return (logs - logs.mean(axis=0)) / np.where(std ** 2 >= 1e-12, std, 1.0)


def stack_context(feats: np.ndarray, p: int, q: int) -> np.ndarray:
    """Frames n-p..n+q side by side, zero frames past either end."""
    n, d = feats.shape
    padded = np.vstack([np.zeros((p, d)), feats, np.zeros((q, d))])
    return np.hstack([padded[j:j + n] for j in range(p + q + 1)])


def mlp_forward(layers, x: np.ndarray) -> np.ndarray:
    """Sigmoid hidden layers, affine output."""
    for i, (w, b) in enumerate(layers):
        x = x @ w + b
        if i < len(layers) - 1:
            x = 0.5 * (1.0 + np.tanh(0.5 * x))
    return x


def schroeder_rt60(taps: np.ndarray, sample_rate: int) -> float:
    """RT60 from a line fit to the -5..-35 dB span of the backward-integrated decay."""
    edc = np.cumsum(taps[::-1] ** 2)[::-1]
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(edc / edc[0])
    seg = np.flatnonzero((db <= -5.0) & (db >= -35.0))
    slope = np.polyfit(seg / sample_rate, db[seg], 1)[0]
    return -60.0 / slope


def design(x: np.ndarray, p: int, q: int, rows: int) -> np.ndarray:
    """Column i holds x[n + q - i] for n < rows, zero outside x's support."""
    idx = np.arange(rows)[:, None] + q - np.arange(p + q + 1)[None, :]
    ok = (idx >= 0) & (idx < x.size)
    return np.where(ok, x[np.clip(idx, 0, x.size - 1)], 0.0)


def autocorr_fft(spec: np.ndarray, max_lag: int):
    """Sum over bins of the normalized autocorrelation of each bin's magnitude
    trajectory, numerators by Wiener-Khinchin; returns (sum, used, skipped)."""
    s = np.abs(spec)
    s = s - s.mean(axis=0)
    n = s.shape[0]
    energy = s ** 2
    usable = (energy.sum(axis=0) >= 1e-300) & (n > max_lag)
    if not usable.any():
        return np.zeros(max_lag + 1), 0, s.shape[1]
    s, energy = s[:, usable], energy[:, usable]
    nfft = 1 << (2 * n - 1).bit_length()
    power = np.abs(np.fft.rfft(s, n=nfft, axis=0)) ** 2
    num = np.fft.irfft(power, n=nfft, axis=0)[:max_lag + 1]
    head = np.cumsum(energy, axis=0)
    tail = np.cumsum(energy[::-1], axis=0)[::-1]
    lags = np.arange(max_lag + 1)
    denom = np.sqrt(head[n - lags - 1] * tail[lags])
    r = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0)
    return r.sum(axis=1), int(usable.sum()), int((~usable).sum())


def close(a, b, rel) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Corpus:
    """Manifest, waveforms and spectrograms of one workdir, loaded once."""

    def __init__(self, workdir: Path, config: dict):
        self.workdir = Path(workdir)
        self.config = config
        self.p, self.q = int(config["p"]), int(config["q"])
        self.rows = {row["utterance"]: row for row in read_csv(self.workdir / "manifest.csv")}
        self.names = sorted(self.rows)
        self._cache = {}

    def _memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def split(self, split):
        return [n for n in self.names if split == "all" or self.rows[n]["split"] == split]

    def wav(self, kind, name):
        row = self.rows[name]
        path = Path(row["clean_path"]) if kind == "clean" else self.workdir / row["reverb_path"]
        return self._memo(("wav", kind, name), lambda: read_pcm16(path))

    def spec(self, kind, name):
        return self._memo(("spec", kind, name), lambda: stft(self.wav(kind, name)[0]))

    def feats(self, kind, name):
        return self._memo(("ncft", kind, name), lambda: read_ncft(
            self.workdir / "features" / kind / f"{name}.ncft"))

    def model(self):
        return self._memo("model", lambda: read_model(self.workdir / "mlp_model.json"))

    def derev(self, name):
        """The decoded model applied to the stored reverberant features."""
        return self._memo(("derev", name), lambda: mlp_forward(
            self.model()[1], stack_context(self.feats("reverb", name), self.p, self.q)))

    def fir_errors(self, name, p, q):
        """Per-bin squared residuals of lstsq fits, and the clean energy."""
        def fit():
            x, y = self.spec("reverb", name), self.spec("clean", name)
            errs = np.empty(y.shape[1])
            estimate = np.empty_like(y)
            for k in range(y.shape[1]):
                z = design(x[:, k], p, q, y.shape[0])
                g = np.linalg.lstsq(z, y[:, k], rcond=None)[0]
                estimate[:, k] = z @ g
                errs[k] = np.sum(np.abs(estimate[:, k] - y[:, k]) ** 2)
            return errs, float(np.sum(np.abs(y) ** 2)), estimate
        return self._memo(("fir", name, p, q), fit)


def check_make_corpus(c: Corpus):
    problems = []
    stems = sorted(p.stem for p in Path(c.config["clean_dir"]).glob("*.wav"))
    if c.names != stems:
        problems.append(f"manifest utterances {c.names} != clean WAVs {stems}")
    hits = 0
    for name in c.names:
        row = c.rows[name]
        if row["split"] != split_of(name):
            problems.append(f"{name}: split {row['split']}, hash gives {split_of(name)}")
        taps, fields = read_ncir(c.workdir / row["rir_path"])
        target = float(row["rt60"])
        if float(fields["rt60"]) != target:
            problems.append(f"{name}: NCIR rt60 {fields['rt60']} != manifest {target}")
        fitted = schroeder_rt60(taps, int(fields["sample_rate"]))
        hits += abs(fitted / target - 1.0) <= RT60_WITHIN
        clean, _, _ = c.wav("clean", name)
        _, pcm, _ = c.wav("reverb", name)
        gain = float(row["gain"])
        expected = gain * np.convolve(clean, taps) * 32768.0
        # 1 LSB of PCM rounding plus the f32 rounding of every tap
        tol = 1.0 + 32768.0 * gain * F32_EPS * np.abs(clean).max() * np.abs(taps).sum()
        if pcm.size != expected.size:
            problems.append(f"{name}: reverb has {pcm.size} samples, expected {expected.size}")
        elif np.max(np.abs(pcm - expected)) > tol:
            problems.append(f"{name}: reverb WAV off gain x clean * taps by "
                            f"{np.max(np.abs(pcm - expected)):.3g} LSB (tolerance {tol:.3g})")
    if hits < RT60_SHARE * len(c.names):
        problems.append(f"only {hits}/{len(c.names)} RIRs have a Schroeder RT60 within "
                        f"{RT60_WITHIN:.0%} of the manifest rt60")
    return problems


def check_featurize(c: Corpus):
    problems = []
    weights = mel_weights(c.wav("clean", c.names[0])[2])
    for name in c.names:
        clean, reverb = c.feats("clean", name), c.feats("reverb", name)
        frames = 1 + (c.wav("clean", name)[0].size - FRAME_LEN) // FRAME_SHIFT
        if clean.shape != (frames, N_MELS) or reverb.shape != (frames, N_MELS):
            problems.append(f"{name}: shapes {clean.shape}, {reverb.shape}; "
                            f"expected ({frames}, {N_MELS})")
            continue
        if np.max(np.abs(clean.mean(axis=0))) > 1e-5 or np.max(np.abs(clean.var(axis=0) - 1)) > 1e-5:
            problems.append(f"{name}: clean columns are not zero-mean, unit-variance")
        # reverberant features are normalized over the whole reverberant
        # utterance, then cut to the clean length
        for kind, stored in (("clean", clean), ("reverb", reverb)):
            expected = mvn_log_mel(c.spec(kind, name), weights)[:frames]
            if np.max(np.abs(stored - expected)) > 1e-5:
                problems.append(f"{name}: {kind} features differ from log-Mel+MVN by "
                                f"{np.max(np.abs(stored - expected)):.3g}")
    return problems


def check_fit_fir(c: Corpus):
    problems = []
    rows = {r["utterance"]: r for r in read_csv(c.workdir / "fir" / "errors.csv")}
    names = c.split(c.config["split"])
    if sorted(rows) != names:
        return [f"errors.csv lists {sorted(rows)}, expected {names}"]
    for name in names:
        errs, energy, estimate = c.fir_errors(name, c.p, c.q)
        normalized = float(rows[name]["normalized_err"])
        expected = float(errs.sum() / energy)
        if not close(normalized, expected, 1e-6):
            problems.append(f"{name}: normalized_err {normalized!r}, lstsq gives {expected!r}")
        stored = read_ncsp(c.workdir / "fir" / f"{name}_estimate.ncsp")
        if stored.shape != estimate.shape:
            problems.append(f"{name}: estimate shape {stored.shape}, expected {estimate.shape}")
        elif np.sum(np.abs(stored - estimate) ** 2) > 1e-6 * energy:
            problems.append(f"{name}: stored estimate differs from the lstsq fit")
    return problems


def check_sweep_context(c: Corpus):
    problems = []
    names = c.split(c.config["split"])
    rows = read_csv(c.workdir / "context_sweep.csv")
    grid = [tuple(cell) for cell in c.config["context_grid"]]
    cells = [(int(r["p"]), int(r["q"])) for r in rows]
    if cells != grid:
        return [f"sweep cells {cells}, expected grid {grid}"]
    err = {}
    for (p, q), r in zip(cells, rows):
        err[p, q] = float(r["mean_err"])
        if int(r["taps"]) != p + q + 1 or int(r["utterance_count"]) != len(names):
            problems.append(f"cell ({p}, {q}): taps/utterance_count {r['taps']}/{r['utterance_count']}")
        if not 0.0 < err[p, q] <= 1.0 + 1e-12:
            problems.append(f"cell ({p}, {q}): mean_err {err[p, q]!r} outside (0, 1]")
    for a in err:
        for b in err:
            if a != b and a[0] <= b[0] and a[1] <= b[1] and err[b] > err[a] * (1 + 1e-9):
                problems.append(f"error grows from {a} to the larger context {b}: "
                                f"{err[a]!r} -> {err[b]!r}")
    if (0, 0) in err:
        # one tap: min over g of |g x - y|^2 is |y|^2 - |<x, y>|^2 / |x|^2
        per_utt = []
        for name in names:
            y = c.spec("clean", name)
            x = c.spec("reverb", name)[:y.shape[0]]
            yy = np.sum(np.abs(y) ** 2, axis=0)
            xx = np.sum(np.abs(x) ** 2, axis=0)
            xy = np.abs(np.sum(np.conj(x) * y, axis=0)) ** 2
            per_utt.append(np.sum(yy - xy / xx) / np.sum(yy))
        expected = float(np.mean(per_utt))
        if not close(err[0, 0], expected, 1e-9):
            problems.append(f"cell (0, 0): {err[0, 0]!r}, closed form {expected!r}")
    if (c.p, c.q) in err:
        fits = [c.fir_errors(name, c.p, c.q) for name in names]
        expected = float(np.mean([e.sum() / energy for e, energy, _ in fits]))
        if not close(err[c.p, c.q], expected, 1e-6):
            problems.append(f"cell ({c.p}, {c.q}): {err[c.p, c.q]!r}, lstsq gives {expected!r}")
    return problems


def _stacked(c: Corpus, names):
    x = np.vstack([stack_context(c.feats("reverb", n), c.p, c.q) for n in names])
    y = np.vstack([c.feats("clean", n) for n in names])
    return x, y


def check_train_mlp(c: Corpus):
    problems = []
    cfg = c.config
    dims, layers, seed = c.model()
    expected = ([(c.p + c.q + 1) * N_MELS] + [cfg["hidden_width"]] * cfg["hidden_layers"]
                + [N_MELS])
    if dims != expected or seed != cfg["seed"]:
        return [f"model dims {dims} seed {seed}, expected {expected} seed {cfg['seed']}"]
    if not all(np.all(np.isfinite(w)) and np.all(np.isfinite(b)) for w, b in layers):
        return ["model has non-finite parameters"]
    trace = read_csv(c.workdir / "mlp_loss.csv")
    if [int(r["epoch"]) for r in trace] != list(range(1, cfg["epochs"] + 1)):
        return [f"loss trace epochs {[r['epoch'] for r in trace]}, expected 1..{cfg['epochs']}"]
    valid = [float(r["valid_mse"]) for r in trace]
    best = int(np.argmin(valid))
    # the saved model is the best-validation epoch's, rounded to f32
    for split, column in (("dev", "valid_mse"), ("train", "train_mse")):
        x, y = _stacked(c, c.split(split))
        mse = float(np.mean((mlp_forward(layers, x) - y) ** 2))
        if not close(mse, float(trace[best][column]), 1e-4):
            problems.append(f"{split} MSE of the saved model {mse!r} != "
                            f"{column} {trace[best][column]} of its epoch {best + 1}")
    return problems


def check_derev(c: Corpus):
    problems = []
    names = c.split(c.config["split"])
    derev_rows = {r["utterance"]: r for r in read_csv(c.workdir / "derev_mse.csv")}
    reverb_rows = {r["utterance"]: r for r in read_csv(c.workdir / "reverb_mse.csv")}
    if sorted(derev_rows) != names or sorted(reverb_rows) != names:
        return [f"MSE reports list {sorted(derev_rows)} / {sorted(reverb_rows)}, expected {names}"]
    for name in names:
        clean = c.feats("clean", name)
        estimate = c.derev(name)
        stored = read_ncft(c.workdir / "features" / "derev" / f"{name}.ncft")
        if stored.shape != estimate.shape or np.max(
                np.abs(stored - estimate) / np.maximum(1.0, np.abs(estimate))) > 1e-5:
            problems.append(f"{name}: derev features differ from the forward pass")
        for rows, feats, label in ((derev_rows, estimate, "derev"),
                                   (reverb_rows, c.feats("reverb", name), "reverb")):
            mse = float(np.mean((feats - clean) ** 2))
            if (int(rows[name]["n_frames"]) != clean.shape[0]
                    or not close(float(rows[name]["mse"]), mse, 1e-9)):
                problems.append(f"{name}: {label} MSE {rows[name]['mse']}, expected {mse!r}")
    return problems


def check_mix_sweep(c: Corpus):
    problems = []
    cfg = c.config
    dev = c.split("dev")
    rt60 = {n: float(c.rows[n]["rt60"]) for n in dev}
    edges = np.linspace(min(rt60.values()), max(rt60.values()), cfg["n_subsets"] + 1)
    subsets = {}
    for j in range(cfg["n_subsets"]):
        last = j == cfg["n_subsets"] - 1
        members = [n for n in dev if edges[j] <= rt60[n] and (
            rt60[n] <= edges[j + 1] if last else rt60[n] < edges[j + 1])]
        if members:
            subsets[f"rt60_band{j}"] = members
    cells = {}
    for r in read_csv(c.workdir / "mix_sweep.csv"):
        cells.setdefault((int(r["config"]), r["subset"]), []).append(
            (float(r["lambda"]), float(r["mse"])))
    want = {(k, s) for k in cfg.get("mix_configs", [1, 2, 3, 4]) for s in subsets}
    if set(cells) != want:
        return [f"sweep covers {sorted(cells)}, expected {sorted(want)}"]

    def subset_mse(name, feats):
        return float(np.mean([np.mean((feats(n) - c.feats("clean", n)) ** 2)
                              for n in subsets[name]]))

    summary = {(int(r["config"]), r["subset"]): float(r["optimal_lambda"])
               for r in read_csv(c.workdir / "mix_summary.csv")}
    for (config_id, name), grid in sorted(cells.items()):
        lams = dict(grid)
        if config_id in (3, 4) and 0.0 in lams:
            expected = subset_mse(name, lambda n: c.feats("reverb", n))
            if not close(lams[0.0], expected, 1e-9):
                problems.append(f"config {config_id} {name} lambda 0: {lams[0.0]!r}, "
                                f"reverb-vs-clean MSE {expected!r}")
        if config_id == 4 and 1.0 in lams:
            expected = subset_mse(name, c.derev)
            if not close(lams[1.0], expected, 1e-6):
                problems.append(f"config 4 {name} lambda 1: {lams[1.0]!r}, "
                                f"forward-pass MSE {expected!r}")
        chosen = summary.get((config_id, name))
        best = min(mse for _, mse in grid)
        if chosen not in lams or lams[chosen] > best * (1 + 1e-9):
            problems.append(f"config {config_id} {name}: optimum {chosen} is not the "
                            f"argmin (mse {lams.get(chosen)} vs {best!r})")
    for config_id in {k for k, _ in cells}:
        optima = [summary.get((config_id, s), math.nan) for s in subsets]
        average = summary.get((config_id, "average"), math.nan)
        if not close(average, float(np.mean(optima)), 1e-12):
            problems.append(f"config {config_id}: average optimum {average} != mean of {optima}")
    return problems


def _lenient_float(field: str, malformed: list) -> float:
    """A CSV float; numpy-scalar reprs are noted in ``malformed`` and read on."""
    try:
        return float(field)
    except ValueError:
        match = re.fullmatch(r"np\.float64\((.*)\)", field)
        if not match:
            raise
        malformed.append(field)
        return float(match.group(1))


def check_diagnose(c: Corpus):
    problems = []
    cfg = c.config
    names = c.split(cfg["split"])
    out = c.workdir / "diagnostics"
    rows = read_csv(out / "autocorr_curves.csv")
    max_lag, from_lag = int(cfg["max_lag"]), int(cfg["tail_from_lag"])
    if [int(r["lag"]) for r in rows] != list(range(max_lag + 1)):
        return [f"autocorr_curves.csv lags do not run 0..{max_lag}"]
    malformed = []
    curves = {corpus: np.array([_lenient_float(r[corpus], malformed) for r in rows])
              for corpus in ("clean", "reverb", "fir_derev")}
    if malformed:
        # the README promises plain shortest round-trip floats in every CSV
        problems.append(f"autocorr_curves.csv: {len(malformed)} fields are not CSV "
                        f"floats, e.g. {malformed[0]!r}")
    tails = {r["corpus"]: r for r in read_csv(out / "tail_mass.csv")}
    for corpus, curve in curves.items():
        if abs(curve[0] - 1.0) > 1e-12 or np.max(np.abs(curve)) > 1.0 + 1e-12:
            problems.append(f"{corpus}: r(0) = {curve[0]!r}, max |r| = {np.max(np.abs(curve))!r}")
        tail = float(tails[corpus]["tail_mass"])
        if not close(tail, float(np.mean(np.abs(curve[from_lag:]))), 1e-12):
            problems.append(f"{corpus}: tail_mass {tail!r} != mean |r| from lag {from_lag}")
        if corpus == "fir_derev":
            continue
        total, used, skipped = np.zeros(max_lag + 1), 0, 0
        for name in names:
            s, u, k = autocorr_fft(c.spec(corpus, name), max_lag)
            total, used, skipped = total + s, used + u, skipped + k
        if int(tails[corpus]["skipped_trajectories"]) != skipped:
            problems.append(f"{corpus}: {tails[corpus]['skipped_trajectories']} trajectories "
                            f"skipped, expected {skipped}")
        if np.max(np.abs(curve - total / used)) > 1e-9:
            problems.append(f"{corpus}: curve differs from the FFT autocorrelation by "
                            f"{np.max(np.abs(curve - total / used)):.3g}")
    first = names[0]
    frames = c.spec("clean", first).shape[0]
    header = (out / f"{first}_clean.pgm").read_bytes().split(b"\n")[:3]
    if header != [b"P5", f"{frames} {FFT_SIZE // 2 + 1}".encode(), b"255"]:
        problems.append(f"{first}_clean.pgm header {header}")
    logmel = np.loadtxt(out / f"{first}_clean_logmel.csv", delimiter=",", ndmin=2)
    if logmel.shape != (frames, N_MELS):
        problems.append(f"{first}_clean_logmel.csv shape {logmel.shape}")
    return problems


CHECKS = {
    "make-corpus": check_make_corpus,
    "featurize": check_featurize,
    "fit-fir": check_fit_fir,
    "sweep-context": check_sweep_context,
    "train-mlp": check_train_mlp,
    "derev": check_derev,
    "mix-sweep": check_mix_sweep,
    "diagnose": check_diagnose,
}


def check_pipeline(workdir, config) -> dict:
    """Run every command's check; a check that raises reports the exception."""
    try:
        corpus = Corpus(workdir, config)
    except Exception:  # noqa: BLE001 - an unreadable manifest fails every check
        return {command: [traceback.format_exc(limit=1)] for command in CHECKS}
    problems = {}
    for command, check in CHECKS.items():
        try:
            problems[command] = check(corpus)
        except Exception as exc:  # noqa: BLE001 - a malformed artifact is a failed check
            problems[command] = [f"{type(exc).__name__}: {exc}"]
    return problems
