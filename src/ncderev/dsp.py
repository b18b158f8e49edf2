"""WAV I/O, STFT analysis/synthesis, and time-domain convolution.

The toolkit analyses 16 kHz speech with one framing, and this module
holds it: SAMPLE_RATE, 25 ms frames (FRAME_LEN) every 10 ms
(FRAME_SHIFT), an FFT_SIZE-point FFT and the periodic Hann WINDOW. A
waveform is a 1-D float64 array of samples at SAMPLE_RATE, and a
spectrogram a complex (frames, FFT_SIZE//2 + 1) array whose column k is
bin k's trajectory across the frames. ``read_wav`` rejects any other
rate, so every command that reads a WAV checks it. All operations are
pure functions of their inputs. 16-bit PCM is mapped to [-1, 1) by
dividing by 32768.

``stft`` and ``istft`` allocate their output once and transform BLOCK
frames at a time through one reused buffer, 205 or 262 kB for 64 frames,
which stays in cache. A whole utterance's windowed or synthesized frames
would be 2.5-3 times the size of the output, allocated and freed on
every call.
"""

import io
import wave

import numpy as np

PCM_SCALE = 32768.0
SAMPLE_RATE = 16000
FRAME_LEN = 400
FRAME_SHIFT = 160
FFT_SIZE = 512
# periodic (DFT-even) Hann: WINDOW[0] = 0, WINDOW[FRAME_LEN/2] = 1
WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN)
WINDOW.flags.writeable = False
# frames stft and istft window and transform at once
BLOCK = 64
# FRAME_SHIFT-sample segments that one frame spans, the last one in part
PARTS = -(-FRAME_LEN // FRAME_SHIFT)


def read_wav(path, data=None) -> np.ndarray:
    """Read a 16-bit PCM mono WAV file at SAMPLE_RATE as samples in [-1, 1).
    ``data``, when given, holds the file's bytes as already read, and
    ``path`` only names the file.

    Raises ValueError naming the file for multichannel input (and the
    channel count), for encodings other than 16-bit linear PCM and for
    any other sample rate.
    """
    try:
        with wave.open(str(path) if data is None else io.BytesIO(data), "rb") as fh:
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
            if rate != SAMPLE_RATE:
                raise ValueError(f"{path} is sampled at {rate} Hz; "
                                 f"only {SAMPLE_RATE} Hz is accepted")
            raw = fh.readframes(fh.getnframes())
    except wave.Error as exc:
        raise ValueError(f"unreadable WAV file {path}: {exc}") from exc
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_SCALE


def write_wav(samples, path) -> None:
    """Write 1-D samples as 16-bit PCM mono at SAMPLE_RATE. Values are
    rounded and clipped to the PCM range.

    Raises ValueError when the samples are not 1-D or not finite.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError(f"samples must be 1-D and finite, got shape {x.shape}")
    pcm = np.clip(np.round(x * PCM_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def stft(samples) -> np.ndarray:
    """Short-time Fourier transform with trailing partial frame dropped.

    Frame n covers samples [n*FRAME_SHIFT, n*FRAME_SHIFT + FRAME_LEN);
    frames are windowed, zero-padded to FFT_SIZE and transformed with a
    real FFT, giving a complex (frames, FFT_SIZE//2 + 1) array. The
    frames are windowed BLOCK at a time into one reused buffer.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or len(x) < FRAME_LEN:
        raise ValueError(f"waveform of shape {x.shape} is not 1-D or is shorter "
                         f"than one {FRAME_LEN}-sample frame")
    n_frames = 1 + (len(x) - FRAME_LEN) // FRAME_SHIFT
    frames = np.lib.stride_tricks.sliding_window_view(x, FRAME_LEN)[::FRAME_SHIFT]
    out = np.empty((n_frames, FFT_SIZE // 2 + 1), dtype=np.complex128)
    windowed = np.empty((min(BLOCK, n_frames), FRAME_LEN))
    for first in range(0, n_frames, BLOCK):
        block = windowed[:min(BLOCK, n_frames - first)]
        np.multiply(frames[first:first + len(block)], WINDOW, out=block)
        np.fft.rfft(block, n=FFT_SIZE, axis=1, out=out[first:first + len(block)])
    return out


def _window_sum(segment, n_frames) -> np.ndarray:
    """sum_n WINDOW²(t - n*FRAME_SHIFT) over the samples t of one
    FRAME_SHIFT-sample segment, added in increasing n as istft adds the
    frames themselves."""
    wsum = np.zeros(FRAME_SHIFT)
    for part in range(PARTS - 1, -1, -1):
        if 0 <= segment - part < n_frames:
            window = WINDOW[part * FRAME_SHIFT:(part + 1) * FRAME_SHIFT]
            wsum[:len(window)] += window * window
    return wsum


def istft(values) -> np.ndarray:
    """Overlap-add synthesis of a (frames, FFT_SIZE//2 + 1) spectrogram,
    normalized by the summed squared analysis window.

    The 400/160 framing does not satisfy constant overlap-add exactly, so
    the synthesis divides by sum_n w^2(t - n*shift) wherever that sum is
    nonzero (least-squares overlap-add). Interior samples of an analyzed
    waveform are reconstructed exactly up to FFT rounding.

    The output is cut into FRAME_SHIFT-sample segments, and part j of
    frame n (its samples j*FRAME_SHIFT onward) lands on segment n + j.
    The frames are inverse-transformed BLOCK at a time; each block adds
    its frames' last parts, then the ones before, so every sample
    receives its frames in increasing n, the order of a frame-by-frame
    overlap-add. The values are taken as complex128.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 2 or values.shape[1] != FFT_SIZE // 2 + 1:
        raise ValueError(f"expected (frames, {FFT_SIZE // 2 + 1}) bins, "
                         f"got shape {values.shape}")
    n_frames = len(values)
    out_len = (n_frames - 1) * FRAME_SHIFT + FRAME_LEN
    x = np.zeros((n_frames + PARTS - 1) * FRAME_SHIFT)
    segments = x.reshape(-1, FRAME_SHIFT)
    frames = np.empty((min(BLOCK, n_frames), FFT_SIZE))
    for first in range(0, n_frames, BLOCK):
        block = frames[:min(BLOCK, n_frames - first)]
        np.fft.irfft(values[first:first + len(block)], n=FFT_SIZE, axis=1, out=block)
        block[:, :FRAME_LEN] *= WINDOW
        for part in range(PARTS - 1, -1, -1):
            piece = block[:, part * FRAME_SHIFT:min((part + 1) * FRAME_SHIFT, FRAME_LEN)]
            segments[first + part:first + part + len(block), :piece.shape[1]] += piece
    # segments PARTS-1..n_frames-1 receive every part, so share one sum;
    # the first and last PARTS-1 segments each have a sum of their own
    edges = [*range(PARTS - 1), *range(max(PARTS - 1, n_frames), len(segments))]
    runs = [(s, s + 1) for s in edges]
    if n_frames > PARTS - 1:
        runs.append((PARTS - 1, n_frames))
    for lo, hi in runs:
        wsum = _window_sum(lo, n_frames)
        nz = wsum > 1e-12
        run = segments[lo:hi]
        np.divide(run, wsum, out=run, where=nz)
        run[:, ~nz] = 0.0
    return x[:out_len]


def convolve(x, taps) -> np.ndarray:
    """Full linear convolution of samples with an impulse response's taps.

    Real FFTs padded to a power of two; matches direct summation within
    1e-10 relative. Empty samples or empty taps give an empty result.
    """
    x = np.asarray(x, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    if x.size == 0 or taps.size == 0:
        return np.zeros(0)
    n = x.size + taps.size - 1
    nfft = 1 << (n - 1).bit_length()
    spectrum = np.fft.rfft(x, nfft) * np.fft.rfft(taps, nfft)
    return np.fft.irfft(spectrum, nfft)[:n]
