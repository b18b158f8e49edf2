"""Every kernel checked against an independent plain-loop oracle."""

import tracemalloc

import numpy as np
import pytest

from ncderev import fir, kernels
from oracles import design_matrix, ls_oracle


def direct_image_sum(n_taps, dims, src, mic, beta, fs, c):
    """Image-source summation one image at a time (plain loops).

    Image positions are (1-2u)*src + 2*n*dims per axis with u in {0,1},
    n integer; the amplitude is beta**(|n-u|+|n|) per axis over
    4*pi*distance, added at the nearest sample. Returns the response and
    the number of images that land inside it.
    """
    h = np.zeros(n_taps)
    images = 0
    d_max = c * n_taps / fs
    lx, ly, lz = dims
    nx_max = int(d_max / (2.0 * lx)) + 1
    ny_max = int(d_max / (2.0 * ly)) + 1
    nz_max = int(d_max / (2.0 * lz)) + 1
    for nx in range(-nx_max, nx_max + 1):
        for ny in range(-ny_max, ny_max + 1):
            for nz in range(-nz_max, nz_max + 1):
                for u in range(8):
                    ux = u & 1
                    uy = (u >> 1) & 1
                    uz = (u >> 2) & 1
                    px = (1.0 - 2.0 * ux) * src[0] + 2.0 * nx * lx
                    py = (1.0 - 2.0 * uy) * src[1] + 2.0 * ny * ly
                    pz = (1.0 - 2.0 * uz) * src[2] + 2.0 * nz * lz
                    dx = px - mic[0]
                    dy = py - mic[1]
                    dz = pz - mic[2]
                    d = np.sqrt(dx * dx + dy * dy + dz * dz)
                    if d < 1e-12:
                        continue
                    refl = (abs(nx - ux) + abs(nx) + abs(ny - uy) + abs(ny)
                            + abs(nz - uz) + abs(nz))
                    idx = int(round(d / c * fs))
                    if 0 <= idx < n_taps:
                        h[idx] += beta ** refl / (4.0 * np.pi * d)
                        images += 1
    return h, images


def broadcast_order_table(n_taps, dims, src, mic, fs, c=343.0):
    """rir_order_table in one shot: every parity's kept x-y pairs broadcast
    against all of its z offsets at once, with no blocks and no sphere runs."""
    dims, src, mic = (np.asarray(v, dtype=float) for v in (dims, src, mic))
    d_max = c * n_taps / fs
    reach = (d_max / (2.0 * dims)).astype(int) + 1
    axes = []
    for a in range(3):
        n = np.arange(-reach[a], reach[a] + 1)
        axis = []
        for ua in (0, 1):
            offset = (1.0 - 2.0 * ua) * src[a] + 2.0 * n * dims[a] - mic[a]
            near = np.abs(offset) <= d_max
            axis.append((offset[near] ** 2, (np.abs(n - ua) + np.abs(n))[near]))
        axes.append(axis)
    bound = 1 + sum(max(int(k.max(initial=0)) for _, k in axis) for axis in axes)
    table = np.zeros(bound * n_taps)
    rows, images = 1, 0
    for u in range(8):
        (sx, kx), (sy, ky), (sz, kz) = (axes[a][(u >> a) & 1] for a in range(3))
        sq = sx[:, None] + sy[None, :]
        near = sq <= d_max * d_max
        sq = sq[near][:, None] + sz[None, :]
        order = (kx[:, None] + ky[None, :])[near][:, None] + kz[None, :]
        d = np.sqrt(sq)
        idx = np.round(d / c * fs).astype(np.int64)
        sel = (d > 1e-12) & (idx < n_taps)
        order, idx, d = order[sel], idx[sel], d[sel]
        images += order.size
        rows = max(rows, int(order.max(initial=0)) + 1)
        np.add.at(table, order * n_taps + idx, 1.0 / (4.0 * np.pi * d))
    return table[:rows * n_taps].reshape(rows, n_taps), images


ROOMS = {  # n_taps, dims, src, mic
    "small": (300, [2.1, 1.8, 1.6], [0.6, 0.7, 0.5], [1.4, 1.1, 0.9]),
    "oblong": (2000, [5.3, 2.2, 3.0], [1.2, 0.8, 1.1], [4.1, 1.5, 2.2]),
    # the source on the microphone: the zero-distance image is left out
    "coincident": (1500, [4.0, 3.5, 2.7], [1.3, 2.1, 1.2], [1.3, 2.1, 1.2]),
    "tall": (2500, [3.1, 2.6, 6.4], [0.4, 2.2, 5.9], [2.8, 0.3, 0.6]),
}


def explicit_design(x, q, taps, rows):
    """Column i holds x[n + q - i], zero outside x's support."""
    z = np.zeros((rows, taps), dtype=complex)
    for n in range(rows):
        for i in range(taps):
            m = n + q - i
            if 0 <= m < len(x):
                z[n, i] = x[m]
    return z


def dense_table(bands, n_taps):
    """rir_order_table's bands written out as one (rows, n_taps) table,
    rows running to the last order that holds a nonzero cell."""
    rows = 1 + max((lo + int(np.flatnonzero(block.any(axis=1)).max(initial=-1))
                    for lo, block in bands), default=0)
    table = np.zeros((max(rows, 1), n_taps))
    start = 0
    for lo, block in bands:
        stop = start + block.shape[1]
        kept = block[:max(rows - lo, 0)]
        table[lo:lo + len(kept), start:stop] = kept
        start = stop
    assert start == n_taps
    return table


def check_bands(n_taps, dims, src, mic):
    """The bands hold the broadcast oracle's table to the bit, with the
    same image count."""
    bands, images = kernels.rir_order_table(n_taps, dims, src, mic, 16000)
    want, want_images = broadcast_order_table(n_taps, dims, src, mic, 16000)
    assert images == want_images
    assert np.array_equal(dense_table(bands, n_taps), want)
    return bands, want


class TestRirAccumulate:
    """One lattice pass into the per-order table, rendered at several betas."""

    def check_renders(self, n_taps, dims, src, mic):
        bands, images = kernels.rir_order_table(n_taps, dims, src, mic, 16000)
        for beta in (0.3, 0.7, 0.95):
            got = kernels.render_orders(bands, beta)
            assert got.shape == (n_taps,)
            want, want_images = direct_image_sum(n_taps, dims, src, mic, beta,
                                                 16000, 343.0)
            assert np.max(np.abs(got - want)) <= 1e-12
            assert images == want_images

    def test_nearest_sample_matches_direct_sum(self):
        self.check_renders(300, np.array([2.1, 1.8, 1.6]),
                           np.array([0.6, 0.7, 0.5]), np.array([1.4, 1.1, 0.9]))

    def test_long_response_in_oblong_room_matches_direct_sum(self):
        # 43 m of reach: on every axis the outermost lattice offsets lie
        # beyond it on their own, so the per-axis pruning drops cells
        self.check_renders(2000, np.array([5.3, 2.2, 3.0]),
                           np.array([1.2, 0.8, 1.1]), np.array([4.1, 1.5, 2.2]))

    @pytest.mark.parametrize("block", [7, 1000, None])
    @pytest.mark.parametrize("room", sorted(ROOMS))
    def test_blocks_match_the_one_shot_broadcast(self, monkeypatch, room, block):
        # outside the small room, the pairs near the z axis take runs of more
        # than 7 z offsets, so at block 7 those runs span several blocks;
        # a window of one tap holds the tightest rows the bound allows
        if block:
            monkeypatch.setattr(kernels, "BLOCK", block)
        want, want_images = broadcast_order_table(*ROOMS[room], 16000)
        for window in (1, 7, kernels.WINDOW):
            monkeypatch.setattr(kernels, "WINDOW", window)
            bands, images = kernels.rir_order_table(*ROOMS[room], 16000)
            assert np.array_equal(dense_table(bands, ROOMS[room][0]), want)
            assert images == want_images

    @pytest.mark.parametrize("window", [1, 7, None])
    def test_sampled_rooms_match_the_one_shot_broadcast(self, monkeypatch, window):
        # the order bound assumes nothing of the positions: positions on a
        # wall or in a corner, coincident ones and aspect ratios of 4 or
        # more all keep every image inside its window's rows
        if window:
            monkeypatch.setattr(kernels, "WINDOW", window)
        rng = np.random.default_rng(5)
        rooms = []
        for i in range(200):
            dims = rng.uniform(1.0, 4.0, size=3)
            if i % 4 == 0:
                dims[i % 3] *= 4.0
            src, mic = (rng.uniform(0.0, 1.0, size=3) * dims for _ in range(2))
            rooms.append((int(rng.integers(20, 400)), dims, src, mic))
        dims = np.array([6.0, 1.5, 1.2])
        rooms += [
            (300, dims, np.array([0.0, 0.7, 0.3]), np.array([6.0, 1.5, 0.0])),  # walls
            (300, dims, np.zeros(3), dims.copy()),  # opposite corners
            (300, dims, np.zeros(3), np.zeros(3)),  # one corner, coincident
            (300, dims, np.array([2.0, 0.4, 0.9]), np.array([2.0, 0.4, 0.9])),  # coincident
        ]
        for room in rooms:
            check_bands(*room)

    @pytest.mark.parametrize("room", sorted(ROOMS))
    def test_renders_match_the_dense_table_render(self, room):
        bands, want = check_bands(*ROOMS[room])
        for beta in (0.3, 0.7, 0.95, 1.0):
            dense = beta ** np.arange(len(want)) @ want
            got = kernels.render_orders(bands, beta)
            assert np.max(np.abs(got - dense)) <= 1e-15 * np.max(np.abs(dense))

    def test_memory_is_the_table_and_one_block(self):
        # 20 000 taps: 3.5 M images among 5.3 M candidates; the one-shot
        # broadcast holds over 30 MB of candidate temporaries beside the table
        n_taps = 20000
        tracemalloc.start()
        try:
            bands, _ = kernels.rir_order_table(n_taps, [6.2, 4.9, 3.1], [1.1, 2.3, 1.4],
                                               [4.0, 1.9, 1.6], 16000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # every block is a view of one flat store
        store = bands[0][1].base
        assert all(block.base is store for _, block in bands)
        assert peak - store.nbytes <= 3e6
        # the dense table runs to the highest order present over every tap
        rows = len(dense_table(bands, n_taps))
        assert store.nbytes <= 0.45 * rows * n_taps * 8


class TestApplyFir:
    def test_zero_padding(self):
        # single tap at lag q reads x[n]; identity for any q offsets
        x = np.arange(1.0, 6.0)[:, None] + 0j
        g = np.array([[0.0, 1.0, 0.0]], dtype=complex)  # taps for q=1: reads x[n]
        out = kernels.apply_fir(g, x, 1, 5)
        assert out.shape == (5, 1)
        assert np.allclose(out, x)

    def test_future_shift(self):
        x = np.arange(1.0, 6.0)[:, None] + 0j
        g = np.array([[1.0, 0.0]], dtype=complex)  # q=1: tap 0 reads x[n+1]
        out = kernels.apply_fir(g, x, 1, 5)
        assert np.allclose(out[:, 0], np.array([2, 3, 4, 5, 0.0]))

    def test_matches_double_loop_convolution(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        x = rng.normal(size=(30, 5)) + 1j * rng.normal(size=(30, 5))
        q, out_len = 1, 32
        want = np.zeros((out_len, 5), dtype=complex)
        for k in range(5):
            for n in range(out_len):
                for i in range(4):
                    m = n + q - i
                    if 0 <= m < 30:
                        want[n, k] += g[k, i] * x[m, k]
        got = kernels.apply_fir(g, x, q, out_len)
        assert np.max(np.abs(got - want)) <= 1e-12


    # q < 0, out_len past Lx, out_len shorter than one block, and block
    # edges at 32, 64 and 65 output frames
    @pytest.mark.parametrize("lx, q, taps, out_len", [
        (100, -3, 5, 100), (40, 2, 5, 90), (50, 1, 4, 7), (64, 10, 21, 64),
        (70, 5, 11, 65), (32, 0, 1, 32), (20, 25, 3, 40), (30, 1, 4, 0)])
    def test_matches_the_per_tap_sum_bit_for_bit(self, lx, q, taps, out_len):
        # the same products added in the same tap order, so the same bits
        rng = np.random.default_rng(lx + taps)
        g = rng.normal(size=(257, taps)) + 1j * rng.normal(size=(257, taps))
        x = rng.normal(size=(lx, 257)) + 1j * rng.normal(size=(lx, 257))
        want = np.zeros((out_len, 257), dtype=complex)
        for i in range(taps):
            s = q - i
            lo, hi = max(0, -s), min(out_len, lx - s)
            if lo < hi:
                want[lo:hi] += g[None, :, i] * x[lo + s:hi + s]
        assert np.array_equal(kernels.apply_fir(g, x, q, out_len), want)

    def test_allocates_the_output_and_one_block(self):
        # 2000 frames and 21 taps: each tap's whole product would be
        # another 8.2 MB beside the 8.2 MB output
        rng = np.random.default_rng(8)
        g = rng.normal(size=(257, 21)) + 1j * rng.normal(size=(257, 21))
        x = rng.normal(size=(2000, 257)) + 1j * rng.normal(size=(2000, 257))
        tracemalloc.start()
        try:
            out = kernels.apply_fir(g, x, 10, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 1e6


def check_normal_blocks(x, y, q, taps):
    """normal_blocks against the explicit product of oracles.design_matrix, bin
    by bin within 1e-12 of the bin's largest Gram entry; the Gram must be
    its own conjugate transpose to the bit, with a real diagonal."""
    gram, corr = kernels.normal_blocks(x, y, q, taps)
    n_c, n_bins = y.shape
    assert gram.shape == (n_bins, taps, taps) and corr.shape == (n_bins, taps)
    assert gram.flags.c_contiguous and corr.flags.c_contiguous
    assert np.array_equal(gram, gram.transpose(0, 2, 1).conj())
    assert np.all(np.diagonal(gram, axis1=1, axis2=2).imag == 0.0)
    for k in range(n_bins):
        z = design_matrix(x[:, k], taps - 1 - q, q, n_c)
        want = z.conj().T @ z
        scale = np.max(np.abs(want))
        assert np.max(np.abs(gram[k] - want)) <= 1e-12 * scale
        assert np.max(np.abs(corr[k] - z.conj().T @ y[:, k])) <= 1e-12 * scale
    return gram, corr


def random_pair(rng, lx, n_c, bins):
    x = rng.normal(size=(lx, bins)) + 1j * rng.normal(size=(lx, bins))
    y = rng.normal(size=(n_c, bins)) + 1j * rng.normal(size=(n_c, bins))
    return x, y


def whole_array_normal_blocks(x, y, q, taps):
    """normal_blocks as built from one (bins, Nc + taps - 1) zero-padded
    copy of x, whose rows also give the recursion's edge rows."""
    n_c, n_bins = y.shape
    lead = taps - 1 - q
    lo, hi = max(0, -lead), min(x.shape[0], n_c + q)
    padded = np.zeros((n_bins, n_c + taps - 1), dtype=np.complex128)
    if lo < hi:
        padded[:, lo + lead:hi + lead] = x[lo:hi].T
    gram = np.empty((n_bins, taps, taps), dtype=np.complex128)
    corr = np.empty((n_bins, taps), dtype=np.complex128)
    row = np.empty((taps, n_bins), dtype=np.complex128)
    clean = np.ascontiguousarray(y.T)
    for k in range(n_bins):
        corr[k] = np.correlate(padded[k], clean[k], "valid")[::-1]
        row[::-1, k] = np.correlate(padded[k], padded[k, taps - 1:], "valid")
    np.conjugate(corr, out=corr)
    a = padded[:, :taps - 1][:, ::-1].T
    b = padded[:, n_c:][:, ::-1].T
    row[0].imag = 0.0
    gram[:, 0] = row.T
    for i in range(taps - 1):
        nxt = row[:taps - 1 - i]
        nxt += a[i].conj() * a[i:]
        nxt -= b[i].conj() * b[i:]
        nxt[0].imag = 0.0
        gram[:, i + 1, i + 1:] = nxt.T
    lower = np.tri(taps, k=-1, dtype=bool)
    np.copyto(gram, gram.transpose(0, 2, 1).conj(), where=lower)
    return gram, corr


class TestNormalBlocks:
    @pytest.mark.parametrize("bins", [1, 7, 8, 9, 17, 257])
    @pytest.mark.parametrize("lx, n_c, q, taps", [
        (30, 25, -3, 5),  # delayed taps
        (30, 25, 0, 6),  # causal
        (30, 25, 3, 6),
        (20, 25, 20, 4),  # q = Lx: only the first frames' late taps read x
        (20, 25, 24, 4),  # q > Lx: every tap reads past x
        (18, 25, 3, 6),  # Lx < Nc
        (30, 25, 0, 1),  # one tap
    ])
    def test_matches_the_whole_array_build_bit_for_bit(self, bins, lx, n_c, q, taps):
        x, y = random_pair(np.random.default_rng(bins * 1000 + taps), lx, n_c, bins)
        gram, corr = kernels.normal_blocks(x, y, q, taps)
        want_gram, want_corr = whole_array_normal_blocks(x, y, q, taps)
        assert gram.tobytes() == want_gram.tobytes()
        assert corr.tobytes() == want_corr.tobytes()

    def test_memory_above_the_outputs_is_a_few_bins(self):
        # 2000 frames, 257 bins and 21 taps: a whole padded copy of x would
        # take 8.3 MB; MIRROR rows of it, the clean rows and the (taps, bins)
        # recursion arrays take under 1 MB
        n_c, taps, bins = 2000, 21, 257
        x, y = random_pair(np.random.default_rng(11), n_c, n_c, bins)
        tracemalloc.start()
        try:
            gram, corr = kernels.normal_blocks(x, y, 10, taps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - gram.nbytes - corr.nbytes <= 1.5e6

    def test_matches_explicit_design(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        y = rng.normal(size=(35, 3)) + 1j * rng.normal(size=(35, 3))
        q, taps = 1, 4
        gram, corr = kernels.normal_blocks(x, y, q, taps)
        assert gram.shape == (3, taps, taps) and corr.shape == (3, taps)
        for k in range(3):
            z = explicit_design(x[:, k], q, taps, 35)
            scale = np.max(np.abs(gram[k]))
            assert np.max(np.abs(gram[k] - z.conj().T @ z)) <= 1e-12 * scale
            assert np.max(np.abs(corr[k] - z.conj().T @ y[:, k])) <= 1e-12 * scale

    def test_single_column_and_long_lead(self):
        # q beyond the tap count and a clean range longer than x both read zeros
        rng = np.random.default_rng(3)
        x = rng.normal(size=20) + 1j * rng.normal(size=20)
        y = rng.normal(size=24) + 1j * rng.normal(size=24)
        q, taps = 5, 3
        gram, corr = kernels.normal_blocks(x[:, None], y[:, None], q, taps)
        z = explicit_design(x, q, taps, 24)
        assert gram.shape == (1, taps, taps) and corr.shape == (1, taps)
        scale = np.max(np.abs(gram))
        assert np.max(np.abs(gram[0] - z.conj().T @ z)) <= 1e-12 * scale
        assert np.max(np.abs(corr[0] - z.conj().T @ y)) <= 1e-12 * scale

    @pytest.mark.parametrize("lx, n_c, q, taps", [
        (30, 25, 0, 1),  # one tap: the first row is the whole Gram
        (30, 25, 0, 6),  # causal
        (30, 25, 7, 4),  # pure lead: every tap reads ahead
        (30, 25, 4, 4),  # q = taps: the last tap reads one frame ahead
        (30, 25, -1, 4),  # delayed taps, as in WPE
        (30, 25, -2, 4),
        (30, 25, -3, 5),
        (18, 25, 3, 6),  # x ends before the regression range does
        (10, 25, 20, 4),  # x ends before the first frame any tap reads
        (60, 40, 20, 41),  # the sweep's wide tap count
    ])
    def test_matches_design_product(self, lx, n_c, q, taps):
        x, y = random_pair(np.random.default_rng(lx * 100 + taps), lx, n_c, 3)
        check_normal_blocks(x, y, q, taps)

    def test_zero_bin_gives_zero_equations(self):
        x, y = random_pair(np.random.default_rng(5), 30, 25, 3)
        x[:, 1] = 0.0
        gram, corr = check_normal_blocks(x, y, 2, 5)
        assert not np.any(gram[1]) and not np.any(corr[1])

    @pytest.mark.parametrize("n_c", [30, 5])
    def test_wide_blocks_hold_every_cell(self, n_c):
        # column s of the wide design is x[n + Q - s], so cell (p, q) is the
        # principal block on rows Q-q .. Q+p; 5 frames are fewer than the
        # wide tap count, though every cell's own taps fit
        grid = [(0, 3), (3, 0), (2, 1), (0, 0)]
        wide_p, wide_q = max(p for p, _ in grid), max(q for _, q in grid)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(n_c + 2, 3)) + 1j * rng.normal(size=(n_c + 2, 3))
        y = rng.normal(size=(n_c, 3)) + 1j * rng.normal(size=(n_c, 3))
        gram, corr = check_normal_blocks(x, y, wide_q, wide_p + wide_q + 1)
        for p, q in grid:
            rows = slice(wide_q - q, wide_q + p + 1)
            for k in range(3):
                z = design_matrix(x[:, k], p, q, n_c)
                want = z.conj().T @ z
                scale = np.max(np.abs(want))
                assert np.max(np.abs(gram[k, rows, rows] - want)) <= 1e-12 * scale
                assert np.max(np.abs(corr[k, rows] - z.conj().T @ y[:, k])) <= 1e-12 * scale

    def test_memory_is_the_outputs_and_the_padded_trajectories(self):
        # the sweep's 41-tap Gram over 257 bins: 6.9 MB of output, and no
        # design, window copy or (K, taps²) temporary beside it
        n_c, taps, bins = 248, 41, 257
        x, y = random_pair(np.random.default_rng(7), n_c + 4, n_c, bins)
        tracemalloc.start()
        try:
            gram, corr = kernels.normal_blocks(x, y, 20, taps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded = bins * (n_c + taps - 1) * 16
        assert peak <= gram.nbytes + corr.nbytes + padded + 1e6


def test_dereverberate_spectrogram_matches_oracle_per_bin():
    rng = np.random.default_rng(9)
    clean = rng.normal(size=(50, 9)) + 1j * rng.normal(size=(50, 9))
    reverb = (np.vstack([clean, np.zeros((4, 9))])
              + 0.3 * (rng.normal(size=(54, 9)) + 1j * rng.normal(size=(54, 9))))
    _, taps, _ = fir.dereverberate_spectrogram(reverb, clean, 2, 2, ridge=0.0)
    assert taps.shape == (9, 5)
    for k, g in enumerate(taps):
        want = ls_oracle(reverb[:, k], clean[:, k], 2, 2)
        assert np.max(np.abs(g - want)) <= 1e-9
