"""Workload definitions and the synthetic clean speech they run on.

A workload fixes the program configuration, including the program's own
seed, so every run simulates the same rooms: a calibrated RIR costs from
about 1 s at RT60 0.45 s to about 12 s at 1.95 s, so rooms drawn per run
would make ``make_corpus_s`` measure the draw rather than the code. The
workload seed makes only the inputs: the clean waveforms and the
utterance names, which are picked so that the program's hash split gives
each of train, dev and test a fixed count.
"""

import hashlib
import json
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
PROGRAM_SEED = 0
SPLITS = ("train", "dev", "test")


@dataclass(frozen=True)
class Workload:
    name: str
    counts: tuple  # utterances per split, in SPLITS order
    duration_s: float
    config: dict


def make_config(**overrides) -> dict:
    config = {
        "seed": PROGRAM_SEED,
        "jobs": 1,
        "absorption_mode": "calibrated",
        "split": "all",
        "learning_rate": 1.0,
        "batch_size": 64,
        "improvement_threshold": 0.0,
        "n_subsets": 2,
        "enhancer": "causal-fir",
    }
    config.update(overrides)
    # more halvings than epochs: training always runs its full epoch
    # budget, so train_mlp_s does not depend on when the loss stalls
    config["max_halvings"] = config["epochs"] + 1
    return config


WORKLOADS = {
    w.name: w for w in (
        # Full paper RT60 range: image-source accumulation and calibration
        # on RIRs up to 38k taps; everything downstream is small.
        Workload("reverb-corpus", (1, 2, 1), 1.0, make_config(
            rt60_range=[0.4, 1.99], p=2, q=2, enhancer_p=2,
            context_grid=[[0, 0], [1, 1], [2, 2]],
            hidden_width=32, hidden_layers=1, epochs=3,
            max_lag=20, tail_from_lag=5,
        )),
        # Short rooms, p = q = 10, the 7-cell grid and max_lag 100: the
        # per-bin Gram build/solve and the autocorrelation loop dominate.
        Workload("context-analysis", (1, 2, 1), 2.5, make_config(
            rt60_range=[0.4, 0.5], p=10, q=10, enhancer_p=10,
            context_grid=[[0, 0], [1, 1], [2, 2], [5, 5], [10, 10],
                          [0, 20], [20, 0]],
            hidden_width=16, hidden_layers=1, epochs=2,
            max_lag=100, tail_from_lag=10,
        )),
        # Many frames and the paper-sized 3x128 sigmoid MLP; a one-cell
        # grid and max_lag 20 leave little sweep or autocorrelation work.
        Workload("mlp-training", (4, 2, 1), 5.0, make_config(
            rt60_range=[0.4, 0.5], p=10, q=10, enhancer_p=10,
            context_grid=[[10, 10]],
            hidden_width=128, hidden_layers=3, epochs=40,
            max_lag=20, tail_from_lag=5,
        )),
    )
}


def split_of(name: str) -> str:
    """The program's documented 80/10/10 split from an md5 of the name."""
    bucket = int(hashlib.md5(name.encode("utf-8")).hexdigest()[:8], 16) % 10
    if bucket < 8:
        return "train"
    return "dev" if bucket == 8 else "test"


def utterance_names(workload: Workload, seed: int) -> dict:
    """Name -> split, with exactly ``workload.counts`` names per split."""
    want = dict(zip(SPLITS, workload.counts))
    names = {}
    i = 0
    while any(want.values()):
        name = f"s{seed}u{i:04d}"
        split = split_of(name)
        if want[split]:
            want[split] -= 1
            names[name] = split
        i += 1
    return names


def synth_speech(rng, n_samples: int) -> np.ndarray:
    """Speech-like signal: a tilted noise floor in every bin, voiced
    harmonics on a gliding pitch, and a syllabic envelope whose temporal
    structure reverberation smears."""
    t = np.arange(n_samples) / SAMPLE_RATE
    tilt = 1.0 / np.sqrt(1.0 + np.fft.rfftfreq(n_samples, 1.0 / SAMPLE_RATE) / 400.0)
    sig = 0.3 * np.fft.irfft(np.fft.rfft(rng.normal(size=n_samples)) * tilt, n_samples)
    f0 = rng.uniform(90.0, 220.0) * (1.0 + 0.08 * np.sin(2 * np.pi * rng.uniform(0.3, 1.0) * t))
    phase = 2 * np.pi * np.cumsum(f0) / SAMPLE_RATE
    for h in range(1, 16):
        if h * f0.max() > 0.45 * SAMPLE_RATE:
            break
        sig += (1.5 / h) * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
    syllable = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(2.5, 5.0) * t + rng.uniform(0, 2 * np.pi))
    phrase = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.4, 1.0) * t + rng.uniform(0, 2 * np.pi))
    sig *= 0.1 + 0.9 * syllable * phrase
    return 0.85 * sig / np.max(np.abs(sig))


def write_pcm16(samples: np.ndarray, path) -> None:
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def set_up(workload: Workload, seed: int, run_dir: Path) -> Path:
    """Write the clean WAVs and the config for one run; returns the config path."""
    clean_dir = run_dir / "clean"
    clean_dir.mkdir(parents=True)
    n_samples = int(round(workload.duration_s * SAMPLE_RATE))
    for i, name in enumerate(sorted(utterance_names(workload, seed))):
        rng = np.random.default_rng((seed, i))
        write_pcm16(synth_speech(rng, n_samples), clean_dir / f"{name}.wav")
    config = dict(workload.config, clean_dir=str(clean_dir), workdir=str(run_dir / "work"))
    path = run_dir / "config.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    return path
