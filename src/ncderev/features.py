"""Log-Mel filter energies, per-utterance normalization, and context stacking.

The Mel filter bank ``MEL_BANK`` is a read-only (40, 257) weight array
on the bins of ``dsp``'s FFT, and ``log_mel`` takes a complex
(frames, bins) spectrogram array of ``dsp.stft``.
Feature matrices are plain arrays of shape (frames, 40): float64 as
computed here, float32 as stored in NCFT files and read back. Each
frame's context vector concatenates the p previous, the current, and the
q future frames in that order, with zero vectors beyond the utterance
bounds. ContextFrames gathers those vectors on demand from the unstacked
features, in the features' own dtype; ``rows(slice(None))`` of one
utterance's ContextFrames is its whole stacked matrix.
"""

import itertools

import numpy as np

from . import dsp

MEL_FLOOR_RELATIVE = 1e-10


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _triangular_filters() -> np.ndarray:
    """Triangular filters on 40 Mel-spaced centers between 0 Hz and
    Nyquist, over the bins of dsp's FFT: nonnegative weights of shape
    (40, dsp.FFT_SIZE//2 + 1). Filter k rises from edge k to its peak at
    edge k+1 and falls to zero at edge k+2."""
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(dsp.SAMPLE_RATE / 2.0),
                                  42))[:, None]
    bin_freqs = np.arange(dsp.FFT_SIZE // 2 + 1) * dsp.SAMPLE_RATE / dsp.FFT_SIZE
    left, center, right = edges[:-2], edges[1:-1], edges[2:]
    rising = (bin_freqs - left) / (center - left)
    falling = (right - bin_freqs) / (right - center)
    bank = np.maximum(0.0, np.minimum(rising, falling))
    bank.flags.writeable = False
    return bank


# the one filter bank: every feature is 40 log-Mel bands of dsp's rate and framing
MEL_BANK = _triangular_filters()


def log_mel(spec) -> np.ndarray:
    """Log MEL_BANK energies of a complex (frames, bins) spectrogram:
    log(max(floor, sum_b w(k,b) |X(n,b)|^2)).

    The floor is 1e-10 relative to the utterance's maximum filter energy
    (an absolute tiny value for an all-zero spectrogram), which prevents
    -inf while preserving dynamic range.
    """
    spec = np.asarray(spec)
    if spec.shape[-1] != MEL_BANK.shape[1]:
        raise ValueError(
            f"bin count mismatch: spectrogram {spec.shape[-1]}, bank {MEL_BANK.shape[1]}"
        )
    power = spec.real ** 2 + spec.imag ** 2
    energies = power @ MEL_BANK.T
    peak = float(energies.max()) if energies.size else 0.0
    floor = MEL_FLOOR_RELATIVE * peak if peak > 0 else np.finfo(np.float64).tiny
    return np.log(np.maximum(energies, floor))


def mvn(feats: np.ndarray) -> np.ndarray:
    """Per-utterance mean and variance normalization of each trajectory.

    Every feature dimension gets zero mean and unit variance along the
    utterance; near-constant trajectories (variance under 1e-12) are
    centered but not scaled. Idempotent.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 2:
        raise ValueError(
            f"need at least 2 frames of 2-D features, got shape {feats.shape}"
        )
    mean = feats.mean(axis=0)
    var = feats.var(axis=0)
    out = feats - mean
    scale = var >= 1e-12
    out[:, scale] /= np.sqrt(var[scale])
    return out


class ContextFrames:
    """Context vectors of the frames of one or more utterances, gathered
    on demand.

    Each utterance's (frames, d) block is held once, with p zero rows
    before it and q after it, so the set takes (frames + (p+q)·utterances)
    × d floats instead of the (frames, (p+q+1)·d) stacked matrix. The
    floats are of the first block's floating dtype (float64 for integer
    blocks), and later blocks are cast to it, so float32 features take
    half the memory of float64 ones. Frames are numbered across the
    utterances in block order; ``rows(idx)`` is the stacked matrix's rows
    ``idx``, bit for bit.
    """

    def __init__(self, blocks, p: int, q: int, shapes=None):
        """``blocks`` are (frames, d) arrays. Given their ``shapes``, they
        may be any iterable, drawn one at a time and copied into place,
        so that only one of them need be in memory besides the set."""
        if p < 0 or q < 0:
            raise ValueError(f"p and q must be >= 0, got ({p}, {q})")
        if shapes is None:
            blocks = [np.asarray(b) for b in blocks]
            shapes = [b.shape for b in blocks]
        shapes = [tuple(shape) for shape in shapes]
        if not shapes or any(len(shape) != 2 or shape[1] != shapes[0][1]
                             for shape in shapes):
            raise ValueError(f"features must be 2-D blocks of one width, got shapes "
                             f"{shapes}")
        lengths = [n for n, _ in shapes]
        # frame i of block u starts its context at padded row i + u·(p+q)
        self.starts = (np.arange(sum(lengths))
                       + (p + q) * np.repeat(np.arange(len(shapes)), lengths))
        d = shapes[0][1]
        blocks = iter(blocks)
        head = np.asarray(next(blocks, None))
        dtype = head.dtype if np.issubdtype(head.dtype, np.floating) else np.float64
        self.padded = np.zeros((len(self.starts) + (p + q) * len(shapes), d), dtype)
        first = p
        for shape, b in zip(shapes, itertools.chain([head], blocks), strict=True):
            if np.shape(b) != shape:
                raise ValueError(f"features block of shape {np.shape(b)}, "
                                 f"expected {shape}")
            self.padded[first:first + shape[0]] = b
            first += shape[0] + p + q
        # padded rows s..s+p+q are one contiguous run of floats, so row s of
        # this read-only view is the context vector that starts at row s
        self.windows = np.lib.stride_tricks.as_strided(
            self.padded, shape=(max(len(self.padded) - p - q, 0), (p + q + 1) * d),
            strides=self.padded.strides, writeable=False)

    def __len__(self) -> int:
        return len(self.starts)

    def rows(self, idx) -> np.ndarray:
        """Context vectors of frames ``idx`` (an index array or a slice):
        frames n-p..n+q concatenated per frame, shape (len(idx), (p+q+1)·d)."""
        return self.windows[self.starts[idx]]


def align_pairs(reverb_feats: np.ndarray, clean_feats: np.ndarray):
    """Truncate the reverberant sequence to the clean length.

    Both sequences start at frame 0; no lag search is performed. Raises
    ValueError when the clean sequence is longer than the reverberant one.
    """
    reverb_feats = np.asarray(reverb_feats, dtype=np.float64)
    clean_feats = np.asarray(clean_feats, dtype=np.float64)
    if clean_feats.shape[0] > reverb_feats.shape[0]:
        raise ValueError(
            f"clean sequence ({clean_feats.shape[0]} frames) is longer than "
            f"reverberant ({reverb_feats.shape[0]} frames)"
        )
    if clean_feats.shape[1:] != reverb_feats.shape[1:]:
        raise ValueError("feature dimensionality differs between the pair")
    return reverb_feats[:clean_feats.shape[0]], clean_feats
