"""Shared fixtures and helpers: synthetic speech-like signals, tiny corpora,
the context-stacking oracle and one bin's FIR fit."""

import wave

import numpy as np
import pytest

from ncderev import fir


def synth_speech(rng, sample_rate=16000, duration=1.5):
    """Speech-like test samples at ``sample_rate``: broadband colored noise
    plus harmonic voicing, shaped by a pseudo-syllabic energy envelope.

    All 257 STFT bins keep nonzero energy (broadband floor), while the
    envelope gives the bin trajectories the temporal structure that
    reverberation smears.
    """
    n = int(duration * sample_rate)
    t = np.arange(n) / sample_rate

    white = rng.normal(size=n)
    shape = 1.0 / np.sqrt(1.0 + np.fft.rfftfreq(n, 1.0 / sample_rate) / 500.0)
    sig = np.fft.irfft(np.fft.rfft(white) * shape, n)

    f0 = rng.uniform(90.0, 220.0)
    for h in range(1, 13):
        freq = f0 * h * rng.uniform(0.995, 1.005)
        if freq > 0.45 * sample_rate:
            break
        sig += (2.0 / h) * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))

    syllable = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(2.0, 4.5) * t
                                  + rng.uniform(0, 2 * np.pi))
    phrase = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.5, 1.2) * t
                                + rng.uniform(0, 2 * np.pi))
    env = 0.15 + 0.85 * syllable * phrase
    sig *= env
    return 0.85 * sig / np.max(np.abs(sig))


def write_wav_at_rate(samples, path, sample_rate):
    """16-bit PCM mono WAV at any rate; ``dsp.write_wav`` writes only 16 kHz."""
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(np.round(np.asarray(samples) * 32767).astype("<i2").tobytes())


def hstack_context(feats, p, q):
    """Context-stacking oracle: the (frames, (p+q+1)·d) matrix built by
    concatenating p+q+1 shifted, zero-padded copies of the features, in
    their dtype."""
    n, d = feats.shape
    padded = np.zeros((p + n + q, d), feats.dtype)
    padded[p:p + n] = feats
    return np.hstack([padded[j:j + n] for j in range(p + q + 1)])


@pytest.fixture(scope="session")
def speech():
    return synth_speech(np.random.default_rng(7), duration=1.2)


def fit_bin(x, y, p, q, ridge=0.0):
    """One bin's (p+q+1,) taps: the batched fit of its (frames, 1) pair."""
    return fir.fit_pooled_filters([(x[:, None], y[:, None])], p, q, ridge)[0]
