"""Waveform I/O, STFT analysis/synthesis, and time-domain convolution.

All operations are pure functions of their inputs; the dataclasses are
frozen and safe to share across workers. 16-bit PCM is mapped to [-1, 1)
by dividing by 32768.
"""

import wave
from dataclasses import dataclass

import numpy as np

PCM_SCALE = 32768.0
SAMPLE_RATE = 16000  # the rate every corpus and analysis runs at


@dataclass(frozen=True)
class Waveform:
    """Mono audio signal with sample amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self):
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate


@dataclass(frozen=True)
class StftConfig:
    """Analysis framing: 25 ms frames, 10 ms shift, 512-point FFT at 16 kHz."""

    frame_len: int = 400
    frame_shift: int = 160
    fft_size: int = 512

    def __post_init__(self):
        if not (0 < self.frame_shift <= self.frame_len <= self.fft_size):
            raise ValueError(
                "need 0 < frame_shift <= frame_len <= fft_size, got "
                f"{self.frame_shift}/{self.frame_len}/{self.fft_size}"
            )
        if self.fft_size & (self.fft_size - 1):
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def analysis_window(self) -> np.ndarray:
        # periodic (DFT-even) Hann: w[0] = 0, w[N/2] = 1 for even N
        n = np.arange(self.frame_len)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.frame_len)

    def n_frames(self, n_samples: int) -> int:
        if n_samples < self.frame_len:
            raise ValueError(
                f"waveform of {n_samples} samples is shorter than one "
                f"{self.frame_len}-sample frame"
            )
        return 1 + (n_samples - self.frame_len) // self.frame_shift


@dataclass(frozen=True)
class ComplexSpectrogram:
    """Frame-by-bin matrix of complex STFT values (frames x bins); column
    k is bin k's trajectory across the frames."""

    values: np.ndarray
    config: StftConfig
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if values.shape[1] != self.config.n_bins:
            raise ValueError(
                f"expected {self.config.n_bins} bins for fft_size "
                f"{self.config.fft_size}, got {values.shape[1]}"
            )
        object.__setattr__(self, "values", values)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]


def read_wav(path) -> Waveform:
    """Read a 16-bit PCM mono WAV file, scaling samples to [-1, 1).

    Raises ValueError for multichannel input (naming the channel count)
    and for encodings other than 16-bit linear PCM.
    """
    try:
        with wave.open(str(path), "rb") as fh:
            n_channels = fh.getnchannels()
            if n_channels != 1:
                raise ValueError(
                    f"unsupported multichannel input: {n_channels} channels "
                    f"in {path}; only mono is accepted"
                )
            if fh.getcomptype() != "NONE":
                raise ValueError(f"unsupported encoding {fh.getcomptype()!r} in {path}")
            width = fh.getsampwidth()
            if width != 2:
                raise ValueError(
                    f"unsupported encoding: {8 * width}-bit PCM in {path}; "
                    "only 16-bit is accepted"
                )
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except wave.Error as exc:
        raise ValueError(f"unreadable WAV file {path}: {exc}") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_SCALE
    return Waveform(samples, rate)


def write_wav(waveform: Waveform, path) -> None:
    """Write 16-bit PCM mono. Values are rounded and clipped to the PCM range.

    Raises ValueError when samples are not finite.
    """
    x = waveform.samples
    if not np.all(np.isfinite(x)):
        raise ValueError("waveform contains non-finite samples")
    pcm = np.clip(np.round(x * PCM_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(waveform.sample_rate)
        fh.writeframes(pcm.tobytes())


def stft(waveform: Waveform, config: StftConfig) -> ComplexSpectrogram:
    """Short-time Fourier transform with trailing partial frame dropped.

    Frame n covers samples [n*shift, n*shift + frame_len); frames are
    windowed, zero-padded to fft_size and transformed with a real FFT,
    giving fft_size/2 + 1 non-negative frequency bins.
    """
    x = waveform.samples
    n_frames = config.n_frames(len(x))
    window = config.analysis_window()
    frames = np.lib.stride_tricks.sliding_window_view(x, config.frame_len)
    frames = frames[::config.frame_shift][:n_frames] * window
    values = np.fft.rfft(frames, n=config.fft_size, axis=1)
    return ComplexSpectrogram(values, config, waveform.sample_rate)


def istft(spec: ComplexSpectrogram) -> Waveform:
    """Overlap-add synthesis normalized by the summed squared analysis window.

    The 400/160 framing does not satisfy constant overlap-add exactly, so
    the synthesis divides by sum_n w^2(t - n*shift) wherever that sum is
    nonzero (least-squares overlap-add). Interior samples of an analyzed
    waveform are reconstructed exactly up to FFT rounding.
    """
    config = spec.config
    n_frames = spec.frames
    window = config.analysis_window()
    frames = np.fft.irfft(spec.values, n=config.fft_size, axis=1)[:, :config.frame_len]
    frames *= window
    power = window * window
    out_len = (n_frames - 1) * config.frame_shift + config.frame_len
    x = np.zeros(out_len)
    wsum = np.zeros(out_len)
    for n, frame in enumerate(frames):
        span = slice(n * config.frame_shift, n * config.frame_shift + config.frame_len)
        x[span] += frame
        wsum[span] += power
    nz = wsum > 1e-12
    x[nz] /= wsum[nz]
    x[~nz] = 0.0
    return Waveform(x, spec.sample_rate)


def convolve(waveform: Waveform, rir) -> Waveform:
    """Full linear convolution of a waveform with an impulse response.

    Real FFTs padded to a power of two; matches direct summation within
    1e-10 relative. An empty waveform or empty taps give an empty result.
    ``rir`` may be an ``rir.Rir`` or any object with taps/sample_rate
    attributes.

    Raises ValueError on sample-rate mismatch.
    """
    taps = np.asarray(getattr(rir, "taps", rir), dtype=np.float64)
    rir_rate = getattr(rir, "sample_rate", waveform.sample_rate)
    if rir_rate != waveform.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: waveform {waveform.sample_rate} Hz, "
            f"impulse response {rir_rate} Hz"
        )
    x = waveform.samples
    if x.size == 0 or taps.size == 0:
        return Waveform(np.zeros(0), waveform.sample_rate)
    n = x.size + taps.size - 1
    nfft = 1 << (n - 1).bit_length()
    spectrum = np.fft.rfft(x, nfft) * np.fft.rfft(taps, nfft)
    return Waveform(np.fft.irfft(spectrum, nfft)[:n], waveform.sample_rate)
