"""Hot numerical kernels, vectorized with numpy.

Three kernels dominate the toolkit's runtime: image-source accumulation for
room impulse responses, per-bin construction of the complex normal
equations (ZᴴZ) g = Zᴴy of the FIR fits, and batched filter application
over all frequency bins.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# ---------------------------------------------------------------------------
# Image-source accumulation
# ---------------------------------------------------------------------------

def rir_accumulate(n_taps, dims, src, mic, beta, fs, c=343.0, tw=0, fc=None):
    """Accumulate image-source contributions into an impulse response.

    Mirror-image sum over a rectangular room with one reflection
    coefficient for all six surfaces. Image positions are
    (1-2u)*src + 2*n*dims per axis with u in {0,1}, n integer; the
    amplitude is beta**(|n-u|+|n|) per axis over 4*pi*distance.

    Args:
        n_taps: output length in samples.
        dims, src, mic: room dimensions and positions, meters, shape (3,).
        beta: pressure reflection coefficient shared by all six surfaces.
        fs: sample rate in Hz.
        c: speed of sound in m/s.
        tw: width of the fractional-delay low-pass window in samples;
            0 selects nearest-sample rounding.
        fc: cut-off of the fractional-delay filter in Hz (default 0.45*fs).

    Returns:
        float64 array of length n_taps.
    """
    if fc is None:
        fc = 0.45 * fs
    n_taps = int(n_taps)
    dims = np.asarray(dims, dtype=np.float64)
    src = np.asarray(src, dtype=np.float64)
    mic = np.asarray(mic, dtype=np.float64)
    beta, fs, c, tw, fc = float(beta), float(fs), float(c), float(tw), float(fc)
    h = np.zeros(n_taps, dtype=np.float64)
    d_max = c * n_taps / fs
    counts = (d_max / (2.0 * dims)).astype(int) + 1
    grids = np.meshgrid(
        np.arange(-counts[0], counts[0] + 1),
        np.arange(-counts[1], counts[1] + 1),
        np.arange(-counts[2], counts[2] + 1),
        indexing="ij",
    )
    n_img = np.stack([g.ravel() for g in grids], axis=1).astype(np.float64)
    half_w = 0.5 * tw / fs
    for u in range(8):
        uvec = np.array([u & 1, (u >> 1) & 1, (u >> 2) & 1], dtype=np.float64)
        pos = (1.0 - 2.0 * uvec) * src + 2.0 * n_img * dims
        d = np.linalg.norm(pos - mic, axis=1)
        refl = (np.abs(n_img - uvec).sum(axis=1) + np.abs(n_img).sum(axis=1))
        keep = d > 1e-12
        amp = np.zeros_like(d)
        amp[keep] = beta ** refl[keep] / (4.0 * np.pi * d[keep])
        t0 = d / c
        if tw <= 0:
            idx = np.round(t0 * fs).astype(np.int64)
            sel = keep & (idx >= 0) & (idx < n_taps)
            np.add.at(h, idx[sel], amp[sel])
        else:
            lo = np.ceil((t0 - half_w) * fs).astype(np.int64)
            for k in range(int(tw) + 1):
                n = lo + k
                t = n / fs - t0
                inside = keep & (n >= 0) & (n < n_taps) & (np.abs(t) <= half_w)
                w = 0.5 * (1.0 + np.cos(2.0 * np.pi * t[inside] / (2.0 * half_w)))
                np.add.at(h, n[inside], amp[inside] * w * np.sinc(2.0 * fc * t[inside]))
    return h


# ---------------------------------------------------------------------------
# Normal equations (per-bin Gram of shifted trajectories)
# ---------------------------------------------------------------------------

def normal_blocks(x, y, q, taps):
    """Per-bin complex normal equations (ZᴴZ) g = Zᴴy of the FIR fit.

    Row n of bin k's design Z holds x[n + q - i, k] in column i, with x
    zero outside its support; the regression range is n = 0..Nc-1. Each
    bin's Z is a window view of one zero-padded row, so no (K, Nc, taps)
    design is ever materialized.

    Args:
        x: complex reverberant trajectories, shape (Lx, K) or (Lx,).
        y: complex clean trajectories, shape (Nc, K) or (Nc,); Nc <= Lx
           is not required, the regression range is always 0..Nc-1.
        q: non-causal context (frames of lead).
        taps: filter length p + q + 1.

    Returns:
        (gram, corr): the Hermitian Gram ZᴴZ, shape (K, taps, taps), and
        Zᴴy, shape (K, taps); both squeezed to one bin for 1-D input.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
        y = y[:, None]
    q, taps = int(q), int(taps)
    n_c, n_bins = y.shape
    # padded[k, j] = x[j - lead, k], so window j of a row reads
    # x[n + j - lead]: tap i is window taps - 1 - i, and windows[k] is Zᵀ
    lead = taps - 1 - q
    lo, hi = max(0, -lead), min(x.shape[0], n_c + q)
    padded = np.zeros((n_bins, n_c + taps - 1), dtype=np.complex128)
    if lo < hi:
        padded[:, lo + lead:hi + lead] = x[lo:hi].T
    windows = sliding_window_view(padded, n_c, axis=1)[:, ::-1]
    gram = np.empty((n_bins, taps, taps), dtype=np.complex128)
    corr = np.empty((n_bins, taps), dtype=np.complex128)
    for k in range(n_bins):
        zt = np.ascontiguousarray(windows[k])
        zh = zt.conj()
        gram[k] = zh @ zt.T
        corr[k] = zh @ y[:, k]
    if squeeze:
        return gram[0], corr[0]
    return gram, corr


# ---------------------------------------------------------------------------
# Batched filter application
# ---------------------------------------------------------------------------

def apply_fir(g, x, q, out_len):
    """Apply per-bin complex FIR filters to bin trajectories.

    out[n, k] = sum_i g[k, i] * x[n + q - i, k], with x treated as zero
    outside its support.

    Args:
        g: complex taps, shape (K, taps) or (taps,).
        x: complex trajectories, shape (Lx, K) or (Lx,).
        q: non-causal context.
        out_len: number of output frames.

    Returns:
        Complex array, shape (out_len, K) or (out_len,).
    """
    g = np.asarray(g, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
        g = g[None, :]
    q, out_len = int(q), int(out_len)
    lx, n_bins = x.shape
    out = np.zeros((out_len, n_bins), dtype=np.complex128)
    for i in range(g.shape[1]):
        s = q - i
        lo = max(0, -s)
        hi = min(out_len, lx - s)
        if lo < hi:
            out[lo:hi] += g[None, :, i] * x[lo + s:hi + s]
    return out[:, 0] if squeeze else out
