"""Hot numerical kernels, vectorized with numpy.

Three kernels dominate the toolkit's runtime. The first is the one
image-lattice pass per room impulse response. It tabulates arrivals by
reflection order, so that every calibration step is one matrix-vector
render, and it walks the candidate images in blocks of at most BLOCK,
so that it holds about the table plus one block. The second builds the
per-bin complex normal equations (ZᴴZ) g = Zᴴy of the FIR fits without
forming Z: each bin's Zᴴy and first Gram row are two lag correlations
of its zero-padded trajectory, and a rank-2 recursion along the Gram's
diagonals fills the rest in O(taps²) per bin. The third applies
filters to all frequency bins at once. The two FIR kernels take bin
trajectories only as (frames, bins) arrays; one bin is a one-column
array.
"""

import numpy as np

# most image candidates rir_order_table holds at once
BLOCK = 1 << 16
# bins normal_blocks mirrors into its lower triangles at once
MIRROR = 8


# ---------------------------------------------------------------------------
# Image-source accumulation
# ---------------------------------------------------------------------------

def rir_order_table(n_taps, dims, src, mic, fs, c=343.0):
    """Walk the image lattice once into a per-reflection-order table.

    Mirror-image sum over a rectangular room. Image positions are
    (1-2u)*src + 2*n*dims per axis with u in {0,1}, n integer; an image
    reflects |n-u|+|n| times per axis and arrives at the nearest sample
    of distance/c. Row k of the table sums 1/(4*pi*distance) over the
    images of total order k, so with one reflection coefficient beta for
    all six surfaces the response is sum_k beta**k * table[k].

    Per axis and parity, the lattice offsets are pruned to those within
    reach of n_taps alone; per parity u, the x-y pairs are pruned to
    those within reach together. Each kept pair then takes only the
    contiguous run of z offsets inside the reach sphere, found by two
    searchsorted calls on the sorted z offsets. These candidates are
    walked in blocks of at most BLOCK, pair by pair and z by z, and the
    images in range are added into one zeroed buffer sized for the
    highest order the kept offsets could sum to. The additions happen
    in the same order as one broadcast over every candidate, so the
    table is the same to the bit, while memory stays at about the table
    plus one block of temporaries. Rows past the highest order present
    are never written, so pages the allocator maps lazily stay
    untouched, and the returned table is trimmed to that order.

    Args:
        n_taps: response length in samples.
        dims, src, mic: room dimensions and positions, meters, shape (3,).
        fs: sample rate in Hz.
        c: speed of sound in m/s.

    Returns:
        (table, images): float64 table of shape (highest order + 1,
        n_taps), and the number of images that arrive inside n_taps.
    """
    n_taps = int(n_taps)
    dims = np.asarray(dims, dtype=np.float64)
    src = np.asarray(src, dtype=np.float64)
    mic = np.asarray(mic, dtype=np.float64)
    fs, c = float(fs), float(c)
    d_max = c * n_taps / fs
    reach = (d_max / (2.0 * dims)).astype(int) + 1
    # axes[a][ua]: ascending signed offsets, their squares and reflection
    # counts along axis a
    axes = []
    for a in range(3):
        n = np.arange(-reach[a], reach[a] + 1)
        axis = []
        for ua in (0, 1):
            offset = (1.0 - 2.0 * ua) * src[a] + 2.0 * n * dims[a] - mic[a]
            near = np.abs(offset) <= d_max
            axis.append((offset[near], offset[near] ** 2,
                         (np.abs(n - ua) + np.abs(n))[near]))
        axes.append(axis)
    # no image reflects more often than the per-axis maxima summed
    bound = 1 + sum(max(int(k.max(initial=0)) for _, _, k in axis) for axis in axes)
    table = np.zeros(bound * n_taps)
    rows, images = 1, 0
    for u in range(8):
        (_, sx, kx), (_, sy, ky), (oz, sz, kz) = (axes[a][(u >> a) & 1] for a in range(3))
        sq = sx[:, None] + sy[None, :]
        near = sq <= d_max * d_max
        pair_sq = sq[near]
        pair_order = (kx[:, None] + ky[None, :])[near]
        # pair i takes the run of z offsets inside the sphere, from lo[i]
        # on, as candidates starts[i]:ends[i] of this parity
        r = np.sqrt(d_max * d_max - pair_sq)
        lo = np.searchsorted(oz, -r, side="left")
        counts = np.searchsorted(oz, r, side="right") - lo
        ends = np.cumsum(counts)
        starts = ends - counts
        shift = lo - starts  # candidate j of pair i reads z offset j + shift[i]
        total = int(counts.sum())
        for first in range(0, total, BLOCK):
            last = min(first + BLOCK, total)
            # pairs p0..p1-1 overlap candidates first:last
            p0 = int(np.searchsorted(ends, first, side="right"))
            p1 = int(np.searchsorted(starts, last, side="left"))
            run = np.minimum(ends[p0:p1], last) - np.maximum(starts[p0:p1], first)
            z = np.arange(first, last) + np.repeat(shift[p0:p1], run)
            d = np.sqrt(np.repeat(pair_sq[p0:p1], run) + sz[z])
            idx = np.round(d / c * fs).astype(np.int64)
            sel = (d > 1e-12) & (idx < n_taps)
            order = (np.repeat(pair_order[p0:p1], run) + kz[z])[sel]
            idx, d = idx[sel], d[sel]
            images += order.size
            rows = max(rows, int(order.max(initial=0)) + 1)
            np.add.at(table, order * n_taps + idx, 1.0 / (4.0 * np.pi * d))
    return table[:rows * n_taps].reshape(rows, n_taps), images


# ---------------------------------------------------------------------------
# Normal equations (per-bin Gram of shifted trajectories)
# ---------------------------------------------------------------------------

def normal_blocks(x, y, q, taps):
    """Per-bin complex normal equations (ZᴴZ) g = Zᴴy of the FIR fit.

    Row n of bin k's design Z holds x[n + q - i, k] in column i, with x
    zero outside its support; the regression range is n = 0..Nc-1.
    Column i of Z is the window of one zero-padded row that starts at
    taps - 1 - i, so Zᴴy and the Gram's first row are two lag
    correlations of that row, one against y and one against column 0.
    Column i + 1 is column i shifted down one frame, which gives every
    other entry by the rank-2 recursion

        G[i+1, j+1] = G[i, j] + conj(a_i) a_j - conj(b_i) b_j,

    where a_i = Z[-1, i] enters the range and b_i = Z[Nc-1, i] leaves
    it. The recursion fills the upper triangle row by row with bins on
    the fast axis, and the lower triangle is its conjugate mirror, so
    the Gram is exactly Hermitian with a real diagonal. No design,
    window copy or (K, taps²) temporary is built.

    Args:
        x: complex reverberant trajectories, shape (Lx, K).
        y: complex clean trajectories, shape (Nc, K), Nc >= 1; Nc <= Lx
           is not required, the regression range is always 0..Nc-1.
        q: non-causal context (frames of lead); a negative q delays
           every tap by -q frames.
        taps: filter length p + q + 1.

    Returns:
        (gram, corr): the Hermitian Gram ZᴴZ, shape (K, taps, taps), and
        Zᴴy, shape (K, taps), both C-contiguous.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    q, taps = int(q), int(taps)
    n_c, n_bins = y.shape
    # padded[k, j] = x[j - lead, k], so Z[n, i] = padded[k, n + taps - 1 - i]
    lead = taps - 1 - q
    lo, hi = max(0, -lead), min(x.shape[0], n_c + q)
    padded = np.zeros((n_bins, n_c + taps - 1), dtype=np.complex128)
    if lo < hi:
        padded[:, lo + lead:hi + lead] = x[lo:hi].T
    gram = np.empty((n_bins, taps, taps), dtype=np.complex128)
    corr = np.empty((n_bins, taps), dtype=np.complex128)
    # row[w, k] holds G[i, i + w] of bin k while the recursion is at row i
    row = np.empty((taps, n_bins), dtype=np.complex128)
    for k in range(n_bins):
        # np.correlate conjugates its second argument, and its lag w is
        # tap taps - 1 - w
        corr[k] = np.correlate(padded[k], y[:, k], "valid")[::-1]
        row[::-1, k] = np.correlate(padded[k], padded[k, taps - 1:], "valid")
    np.conjugate(corr, out=corr)
    a = padded[:, :taps - 1][:, ::-1].T  # a[i] = Z[-1, i], shape (taps-1, K)
    b = padded[:, n_c:][:, ::-1].T  # b[i] = Z[Nc-1, i]
    term = np.empty_like(row)
    row[0].imag = 0.0
    gram[:, 0] = row.T
    for i in range(taps - 1):
        nxt, t = row[:taps - 1 - i], term[:taps - 1 - i]
        np.multiply(a[i].conj(), a[i:], out=t)
        nxt += t
        np.multiply(b[i].conj(), b[i:], out=t)
        nxt -= t
        nxt[0].imag = 0.0
        gram[:, i + 1, i + 1:] = nxt.T
    # the lower triangle, MIRROR bins at a time: one column write per
    # row would revisit every cache line of the Gram
    lower = np.tri(taps, k=-1, dtype=bool)
    buf = np.empty((min(MIRROR, n_bins), taps, taps), dtype=np.complex128)
    for s in range(0, n_bins, MIRROR):
        block = gram[s:s + MIRROR]
        flipped = buf[:len(block)]
        np.conjugate(block.transpose(0, 2, 1), out=flipped)
        np.copyto(block, flipped, where=lower)
    return gram, corr


# ---------------------------------------------------------------------------
# Batched filter application
# ---------------------------------------------------------------------------

def apply_fir(g, x, q, out_len):
    """Apply per-bin complex FIR filters to bin trajectories.

    out[n, k] = sum_i g[k, i] * x[n + q - i, k], with x treated as zero
    outside its support.

    Args:
        g: complex taps, shape (K, taps).
        x: complex trajectories, shape (Lx, K).
        q: non-causal context.
        out_len: number of output frames.

    Returns:
        Complex array, shape (out_len, K).
    """
    g = np.asarray(g, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    q, out_len = int(q), int(out_len)
    lx, n_bins = x.shape
    out = np.zeros((out_len, n_bins), dtype=np.complex128)
    for i in range(g.shape[1]):
        s = q - i
        lo = max(0, -s)
        hi = min(out_len, lx - s)
        if lo < hi:
            out[lo:hi] += g[None, :, i] * x[lo + s:hi + s]
    return out
