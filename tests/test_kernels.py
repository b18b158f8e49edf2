"""Every kernel checked against an independent plain-loop oracle."""

import tracemalloc

import numpy as np
import pytest

from ncderev import fir, kernels
from ncderev.dsp import ComplexSpectrogram, StftConfig


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


class TestRirAccumulate:
    """One lattice pass into the per-order table, rendered at several betas."""

    def check_renders(self, n_taps, dims, src, mic):
        table, images = kernels.rir_order_table(n_taps, dims, src, mic, 16000)
        assert table.shape[1] == n_taps
        assert np.any(table[-1] != 0)  # trimmed to the highest order present
        for beta in (0.3, 0.7, 0.95):
            got = beta ** np.arange(len(table)) @ table
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
        # than 7 z offsets, so at block 7 those runs span several blocks
        if block:
            monkeypatch.setattr(kernels, "BLOCK", block)
        table, images = kernels.rir_order_table(*ROOMS[room], 16000)
        want, want_images = broadcast_order_table(*ROOMS[room], 16000)
        assert np.array_equal(table, want)
        assert images == want_images

    def test_memory_is_the_table_and_one_block(self):
        # 20 000 taps: 3.5 M images among 5.3 M candidates; the one-shot
        # broadcast holds over 30 MB of candidate temporaries beside the table
        tracemalloc.start()
        try:
            table, _ = kernels.rir_order_table(20000, [6.2, 4.9, 3.1], [1.1, 2.3, 1.4],
                                               [4.0, 1.9, 1.6], 16000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # table is a view of the zeroed buffer sized for the bound on the order
        assert peak - table.base.nbytes <= 8e6


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


def check_normal_blocks(x, y, q, taps):
    """normal_blocks against the explicit product of fir.design_matrix, bin
    by bin within 1e-12 of the bin's largest Gram entry; the Gram must be
    its own conjugate transpose to the bit, with a real diagonal."""
    gram, corr = kernels.normal_blocks(x, y, q, taps)
    n_c, n_bins = y.shape
    assert gram.shape == (n_bins, taps, taps) and corr.shape == (n_bins, taps)
    assert gram.flags.c_contiguous and corr.flags.c_contiguous
    assert np.array_equal(gram, gram.transpose(0, 2, 1).conj())
    assert np.all(np.diagonal(gram, axis1=1, axis2=2).imag == 0.0)
    for k in range(n_bins):
        z = fir.design_matrix(x[:, k], taps - 1 - q, q, n_c)
        want = z.conj().T @ z
        scale = np.max(np.abs(want))
        assert np.max(np.abs(gram[k] - want)) <= 1e-12 * scale
        assert np.max(np.abs(corr[k] - z.conj().T @ y[:, k])) <= 1e-12 * scale
    return gram, corr


def random_pair(rng, lx, n_c, bins):
    x = rng.normal(size=(lx, bins)) + 1j * rng.normal(size=(lx, bins))
    y = rng.normal(size=(n_c, bins)) + 1j * rng.normal(size=(n_c, bins))
    return x, y


class TestNormalBlocks:
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
                z = fir.design_matrix(x[:, k], p, q, n_c)
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
    config = StftConfig(16, 8, 16)
    clean = ComplexSpectrogram(
        rng.normal(size=(50, 9)) + 1j * rng.normal(size=(50, 9)), config, 16000)
    reverb = ComplexSpectrogram(
        np.vstack([clean.values, np.zeros((4, 9))])
        + 0.3 * (rng.normal(size=(54, 9)) + 1j * rng.normal(size=(54, 9))),
        config, 16000)
    _, taps, _ = fir.dereverberate_spectrogram(reverb, clean, 2, 2, ridge=0.0)
    assert taps.shape == (9, 5)
    for k, g in enumerate(taps):
        want = fir.ls_oracle(reverb.bin_trajectory(k), clean.bin_trajectory(k), 2, 2)
        assert np.max(np.abs(g - want.taps)) <= 1e-9
