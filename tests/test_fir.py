import ast
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import fit_bin
from ncderev import fir, kernels
from oracles import closed_form_filter, ls_oracle


def explicit_design(x, p, q, rows):
    """Independent shifted-column construction (plain loops)."""
    taps = p + q + 1
    z = np.zeros((rows, taps), dtype=complex)
    for n in range(rows):
        for i in range(taps):
            m = n + q - i
            if 0 <= m < len(x):
                z[n, i] = x[m]
    return z


def filtered(taps, x, q, out_len):
    """One bin's filter output through the batched kernel, as one column."""
    return kernels.apply_fir(taps[None], x[:, None], q, out_len)[:, 0]


def normal_system(x, y, p, q):
    """One bin's Gram ZᴴZ and correlation Zᴴy, from its (frames, 1) pair."""
    gram, corr = kernels.normal_blocks(x[:, None], y[:, None], q, p + q + 1)
    return gram[0], corr[0]


def squared_error(y_hat, y):
    return float(np.sum(np.abs(y_hat - y) ** 2))


def rand_traj(rng, n, kind="complex"):
    if kind == "real":
        return rng.normal(size=n).astype(complex)
    if kind == "imag":
        return 1j * rng.normal(size=n)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def toy_spectrogram(rng, frames, bins=9):
    return rng.normal(size=(frames, bins)) + 1j * rng.normal(size=(frames, bins))


class TestBuildNormalSystem:
    def test_real_input_zeroes_imaginary_blocks(self):
        rng = np.random.default_rng(0)
        x = rand_traj(rng, 40, "real")
        gram, corr = normal_system(x, x, 2, 1)
        assert np.all(gram.imag == 0)
        assert np.all(corr.imag == 0)

    def test_scalar_reduction(self):
        rng = np.random.default_rng(1)
        x = rand_traj(rng, 30)
        gram, corr = normal_system(x, x, 0, 0)
        assert gram.shape == (1, 1)
        assert np.isclose(gram[0, 0], np.sum(np.abs(x) ** 2))
        assert np.isclose(corr[0], np.sum(np.abs(x) ** 2))

    def test_matches_design_matrix_gram(self):
        rng = np.random.default_rng(2)
        x = rand_traj(rng, 50)
        y = rand_traj(rng, 50)
        p, q = 2, 1
        gram, corr = normal_system(x, y, p, q)
        z = explicit_design(x, p, q, 50)
        scale = np.max(np.abs(gram))
        assert np.max(np.abs(gram - z.conj().T @ z)) <= 1e-12 * scale
        assert np.max(np.abs(corr - z.conj().T @ y)) <= 1e-12 * scale

    def test_underdetermined_rejected(self):
        rng = np.random.default_rng(3)
        x = rand_traj(rng, 10)
        with pytest.raises(ValueError, match="underdetermined"):
            fit_bin(x, x[:4], 2, 2)

    def test_empty_rejected(self):
        empty = np.zeros((0, 1), complex)
        with pytest.raises(ValueError, match="underdetermined: 1 taps but only 0 frames"):
            fir.fit_pooled_filters([(empty, empty)], 0, 0)


class TestFitFilter:
    def test_identity_channel(self):
        rng = np.random.default_rng(4)
        x = rand_traj(rng, 60)
        taps = fit_bin(x, x, 0, 0)
        assert np.allclose(taps, [1.0 + 0.0j], atol=1e-12)
        assert squared_error(filtered(taps, x, 0, 60), x) <= 1e-18

    def test_causal_channel_in_hypothesis_class(self):
        rng = np.random.default_rng(5)
        x = rand_traj(rng, 100)
        shifted = np.concatenate([[0.0 + 0.0j], x[:-1]])
        y = 0.8 * x - 0.2 * shifted
        taps = fit_bin(x, y, 1, 0)
        assert np.allclose(taps, [0.8, -0.2], atol=1e-10)
        assert squared_error(filtered(taps, x, 0, 100), y) <= 1e-18

    def test_noncausal_imaginary_shift(self):
        rng = np.random.default_rng(6)
        x = rand_traj(rng, 80)
        y = 1j * np.concatenate([x[1:], [0.0 + 0.0j]])
        taps = fit_bin(x, y, 0, 1)
        assert np.allclose(taps, [1j, 0.0], atol=1e-10)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rand_traj(rng, 200)
            y = rand_traj(rng, 200)
            p = int(rng.integers(0, 6))
            q = int(rng.integers(0, 6))
            got = fit_bin(x, y, p, q)
            want = ls_oracle(x, y, p, q)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 1e-6

    def test_longer_reverberant_trajectory_alignment(self):
        # regression range is the clean length; x keeps its real values
        # past it (only positions outside x's support read as zero)
        rng = np.random.default_rng(30)
        x = rand_traj(rng, 80)
        y = 1j * x[1:61]  # y(n) = j x(n+1), needing x past the range end
        taps = fit_bin(x, y, 0, 1)
        oracle = ls_oracle(x, y, 0, 1)
        assert np.allclose(taps, [1j, 0.0], atol=1e-10)
        assert np.linalg.norm(taps - oracle) <= 1e-10

    def test_singular_zero_trajectory(self):
        x = np.zeros(50, dtype=complex)
        with pytest.raises(fir.SingularSystemError, match="supply ridge"):
            fit_bin(x, x, 1, 1)

    def test_ridge_resolves_singularity(self):
        x = np.zeros(50, dtype=complex)
        taps = fit_bin(x, x, 1, 1, ridge=1e-6)
        assert np.allclose(taps, 0.0)

    def test_auto_ridge(self):
        rng = np.random.default_rng(8)
        x = rand_traj(rng, 120)
        y = rand_traj(rng, 120)
        a = fit_bin(x, y, 2, 2, ridge=0.0)
        b = fit_bin(x, y, 2, 2, ridge="auto")
        assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(a)


class TestSolve:
    @pytest.mark.parametrize("ridge", [0.0, 0.5, "auto"])
    def test_loads_a_copy_of_a_principal_block(self, ridge):
        # a copy of a principal block of a wider Gram, as the context sweep
        # passes it; the solve loads the copy in place, to the bits of
        # ridge * I added to the block, and solves that
        rng = np.random.default_rng(4)
        z = rng.normal(size=(6, 40, 9)) + 1j * rng.normal(size=(6, 40, 9))
        wide = np.einsum("kni,knj->kij", z.conj(), z)
        wide[:, 2, 5] = -0.0
        corr = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        block, r = wide[:, 2:7, 2:7], corr[:, 2:7]
        copy = block.copy()
        g, ridges = fir._solve(copy, r, ridge)
        assert np.signbit(wide[0, 2, 5].real) and not np.signbit(copy[0, 0, 3].real)
        load = (1e-8 * np.trace(block, axis1=1, axis2=2).real / 5 if ridge == "auto"
                else np.full(6, ridge))
        assert np.array_equal(ridges, load)
        loaded = block + load[:, None, None] * np.eye(5)
        assert np.array_equal(copy, loaded)
        want = np.linalg.solve(loaded, r[:, :, None])
        assert np.array_equal(g, want[:, :, 0])


class TestClosedForm:
    def test_agrees_with_stacked_solve_even_taps(self):
        rng = np.random.default_rng(9)
        for p, q in ((1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (5, 4)):
            x = rand_traj(rng, 200)
            y = rand_traj(rng, 200)
            direct = fit_bin(x, y, p, q)
            closed = closed_form_filter(*normal_system(x, y, p, q))
            rel = np.linalg.norm(closed - direct) / np.linalg.norm(direct)
            assert rel <= 1e-8

    def test_odd_tap_count_rejected(self):
        rng = np.random.default_rng(10)
        x = rand_traj(rng, 100)
        with pytest.raises(fir.SingularSystemError, match="odd tap count"):
            closed_form_filter(*normal_system(x, x, 1, 1))

    def test_real_signal_rejected_but_direct_solve_works(self):
        rng = np.random.default_rng(11)
        x = rand_traj(rng, 100, "real")
        y = rand_traj(rng, 100, "real")
        with pytest.raises(fir.SingularSystemError):
            closed_form_filter(*normal_system(x, y, 1, 0))
        direct = fit_bin(x, y, 1, 0)
        oracle = ls_oracle(x, y, 1, 0)
        assert np.linalg.norm(direct - oracle) <= 1e-8


class TestApplyFilter:
    def test_reproduces_fitted_channel(self):
        rng = np.random.default_rng(14)
        x = rand_traj(rng, 100)
        shifted = np.concatenate([[0.0 + 0.0j], x[:-1]])
        y = 0.8 * x - 0.2 * shifted
        taps = fit_bin(x, y, 1, 0)
        assert np.max(np.abs(filtered(taps, x, 0, 100) - y)) <= 1e-12


class TestLsOracle:
    def test_scalar_projection(self):
        rng = np.random.default_rng(16)
        x = rand_traj(rng, 40)
        y = rand_traj(rng, 40)
        got = ls_oracle(x, y, 0, 0)[0]
        want = np.vdot(x, y) / np.vdot(x, x)
        assert abs(got - want) <= 1e-12

    def test_zero_trajectory_min_norm(self):
        x = np.zeros(30, dtype=complex)
        y = np.zeros(30, dtype=complex)
        with pytest.warns(UserWarning, match="rank-deficient"):
            taps = ls_oracle(x, y, 1, 1)
        assert np.all(taps == 0)

    def test_optimality_local_probe(self):
        # perturbing any tap of the solution must not decrease the error
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rand_traj(rng, 80)
            y = rand_traj(rng, 80)
            p = int(rng.integers(0, 4))
            q = int(rng.integers(0, 4))
            fitted = fit_bin(x, y, p, q)
            base = squared_error(filtered(fitted, x, q, 80), y)
            for i in range(p + q + 1):
                for delta in (1e-3, -1e-3, 1e-3j, -1e-3j):
                    taps = fitted.copy()
                    taps[i] += delta
                    out = kernels.apply_fir(taps[None], x[:, None], q, 80)
                    err = squared_error(out[:, 0], y)
                    assert err >= base - 1e-12 * max(base, 1.0)

    def test_nested_context_monotonicity(self):
        rng = np.random.default_rng(18)
        x = rand_traj(rng, 120)
        y = rand_traj(rng, 120)
        chain = [(0, 0), (1, 0), (1, 1), (2, 2), (5, 5)]
        errors = []
        for p, q in chain:
            taps = fit_bin(x, y, p, q)
            errors.append(squared_error(filtered(taps, x, q, 120), y))
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-9


def test_oracles_share_no_code_with_the_library():
    # an oracle that imports the library is one refactor away from sharing
    # code with what it checks; the exception type shares no computation
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported |= {f"{module}.{alias.name}" for alias in node.names}
    assert imported == {"warnings", "numpy", "ncderev.fir.SingularSystemError"}
    # the three oracles and COND_LIMIT, on plain arrays and integers
    functions = {node.name: [a.arg for a in node.args.args]
                 for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert functions == {"design_matrix": ["x", "p", "q", "n_rows"],
                         "ls_oracle": ["x", "y", "p", "q"],
                         "closed_form_filter": ["gram", "corr"]}
    assigned = {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets}
    assert assigned == {"COND_LIMIT"}
    assert not any(isinstance(node, ast.ClassDef) for node in tree.body)
    rng = np.random.default_rng(40)
    x, y = rand_traj(rng, 30), rand_traj(rng, 30)
    gram, corr = normal_system(x, y, 1, 0)
    assert type(ls_oracle(list(x), list(y), 1, 0)) is np.ndarray
    assert type(closed_form_filter(gram.tolist(), corr.tolist())) is np.ndarray


class TestDereverberateSpectrogram:
    def test_identity_pair(self):
        rng = np.random.default_rng(19)
        spec = toy_spectrogram(rng, 40)
        out, taps, errors = fir.dereverberate_spectrogram(spec, spec, 1, 1,
                                                          ridge=0.0)
        assert np.all(errors == 0.0)
        assert np.max(np.abs(out - spec)) <= 1e-9
        assert taps.shape == (spec.shape[1], 3) and taps.dtype == np.complex128
        # the auto ridge's error is far inside the rounding bound too
        assert np.all(fir.dereverberate_spectrogram(spec, spec, 1, 1)[2] == 0.0)

    def test_bin_index_attached_to_error(self):
        rng = np.random.default_rng(20)
        spec = toy_spectrogram(rng, 40)
        dead = spec.copy()
        dead[:, 3] = 0.0
        with pytest.raises(fir.SingularSystemError, match="bin 3"):
            fir.dereverberate_spectrogram(dead, dead, 1, 1, ridge=0.0)

    def test_frame_count_checks(self):
        rng = np.random.default_rng(21)
        long = toy_spectrogram(rng, 40)
        short = long[:30]
        out, _, _ = fir.dereverberate_spectrogram(long, short, 1, 1)
        assert out.shape == (30, 9)
        with pytest.raises(ValueError, match="more frames"):
            fir.dereverberate_spectrogram(short, long, 1, 1)

    def test_beats_no_filter_baseline_on_synthetic_reverb(self, speech):
        from ncderev import rir
        from ncderev.dsp import convolve, stft

        spec = rir.sample_room(np.random.default_rng(77), rt60_range=(0.5, 0.7))
        impulse = rir.image_method_rir(spec)
        clean = stft(speech)
        reverb = stft(convolve(speech, impulse.taps))
        _, _, errors = fir.dereverberate_spectrogram(reverb, clean, 5, 5)
        baseline = np.sum(np.abs(reverb[:len(clean)] - clean) ** 2, axis=0)
        assert np.mean(errors < baseline) >= 0.99
        assert errors.sum() < baseline.sum()


    @pytest.mark.parametrize("frames, bins", [
        (1, 9), (7, 9), (31, 9), (32, 9), (33, 9), (64, 2), (500, 257), (2001, 257)])
    def test_errors_are_the_whole_array_sum_bit_for_bit(self, frames, bins):
        # the errors come from the normal equations, not the estimate, so
        # they match the whole-array sum of the estimate's squared error
        # within the rounding bound Nc·ε·(‖y‖ + Σ|g_i|·√G_ii)²
        rng = np.random.default_rng(frames)
        clean = toy_spectrogram(rng, frames, bins)
        reverb = np.vstack([clean, toy_spectrogram(rng, 3, bins)])
        reverb[:frames] += 0.5 * toy_spectrogram(rng, frames, bins)
        context = 0 if frames < 5 else 2
        estimate, taps, errors = fir.dereverberate_spectrogram(reverb, clean, context, context)
        want = np.sum(np.abs(estimate - clean) ** 2, axis=0)
        # G_ii is the energy of x(n + q - i) over the clean frames
        tap_energy = np.array([np.sum(np.abs(reverb[max(0, context - i):frames + context - i])
                                      ** 2, axis=0) for i in range(2 * context + 1)]).T
        scale = (np.sqrt(np.sum(np.abs(clean) ** 2, axis=0))
                 + np.sum(np.abs(taps) * np.sqrt(tap_energy), axis=1))
        bound = frames * np.finfo(np.float64).eps * scale ** 2
        assert errors.shape == want.shape and np.all(np.abs(errors - want) <= bound)

    def test_error_sum_holds_one_block(self):
        # the per-bin errors of a 2000-frame, 257-bin fit need no array of
        # the estimate's size beside the estimate
        rng = np.random.default_rng(41)
        clean = toy_spectrogram(rng, 2000, 257)
        reverb = np.vstack([clean, toy_spectrogram(rng, 4, 257)])
        tracemalloc.start()
        try:
            estimate, _, _ = fir.dereverberate_spectrogram(reverb, clean, 2, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= estimate.nbytes + estimate.nbytes // 8


class TestContextSweep:
    def test_identity_corpus_zero_error(self):
        rng = np.random.default_rng(22)
        pairs = [(s, s) for s in (toy_spectrogram(rng, 30), toy_spectrogram(rng, 35))]
        rows = fir.context_sweep(pairs, [(0, 0)], ridge=0.0)
        assert rows[0].mean_err <= 1e-18
        assert rows[0].utterance_count == 2
        assert np.isnan(rows[0].ratio_percent)

    def test_identity_corpus_never_negative(self):
        # the residual formula cancels to rounding noise of either sign on an
        # exact fit; noise inside its rounding bound reads as 0
        rng = np.random.default_rng(22)
        pairs = [(s, s) for s in (toy_spectrogram(rng, 30), toy_spectrogram(rng, 35))]
        rows = fir.context_sweep(pairs, [(0, 0), (1, 1), (3, 2), (1, 4)], ridge=0.0)
        assert all(0.0 <= r.mean_err <= 1e-18 for r in rows)

    def test_small_error_above_rounding_bound_kept(self):
        # a 1e-6 perturbation leaves errors near 1e-12, far above the
        # residual formula's rounding bound, so they must not read as 0
        rng = np.random.default_rng(38)
        x = toy_spectrogram(rng, 40)
        y = x + 1e-6 * toy_spectrogram(rng, 40)
        rows = fir.context_sweep([(x, y)], [(0, 0), (1, 1)], ridge=0.0)
        for row in rows:
            _, _, errors = fir.dereverberate_spectrogram(x, y, row.p, row.q, ridge=0.0)
            want = errors.sum() / np.sum(np.abs(y) ** 2)
            assert 1e-14 < want < 1e-10
            assert abs(row.mean_err - want) <= 1e-2 * want

    def test_nested_cells_non_increasing(self):
        rng = np.random.default_rng(23)
        x = toy_spectrogram(rng, 60)
        y = x + 0.1 * (rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape))
        rows = fir.context_sweep([(x, y)], [(1, 1), (1, 2), (2, 2)], ridge=0.0)
        errs = {(r.p, r.q): r.mean_err for r in rows}
        assert errs[(2, 2)] <= errs[(1, 2)] + 1e-9
        assert errs[(1, 2)] <= errs[(1, 1)] + 1e-9

    def test_ratio_column(self):
        rng = np.random.default_rng(24)
        s = toy_spectrogram(rng, 50)
        rows = fir.context_sweep([(s, s)], [(10, 10), (20, 0)])
        assert rows[0].ratio_percent == 50.0
        assert rows[1].ratio_percent == 100.0
        assert rows[0].taps == rows[1].taps == 21

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            fir.context_sweep([], [(0, 0)])

    @pytest.mark.parametrize("ridge", ["auto", 0.0])
    def test_matches_per_cell_spectrogram_fits(self, ridge):
        # the 8-frame pair is shorter than the grid's 11-tap shared Gram,
        # though every cell's own 6 taps fit
        rng = np.random.default_rng(34)
        pairs = []
        for frames, extra in ((40, 0), (33, 4), (8, 2)):
            clean = toy_spectrogram(rng, frames)
            reverb = (np.vstack([clean, np.zeros((extra, clean.shape[1]))])
                      + 0.7 * toy_spectrogram(rng, frames + extra))
            pairs.append((reverb, clean))
        grid = [(0, 0), (0, 5), (5, 0), (3, 2), (2, 1), (1, 1)]
        rows = fir.context_sweep(iter(pairs), grid, ridge=ridge)  # read once
        for row, (p, q) in zip(rows, grid):
            want = np.mean([
                fir.dereverberate_spectrogram(reverb, clean, p, q, ridge=ridge)[2].sum()
                / np.sum(np.abs(clean) ** 2)
                for reverb, clean in pairs])
            assert (row.p, row.q, row.utterance_count) == (p, q, len(pairs))
            assert abs(row.mean_err - want) <= 1e-10 * want

    def test_pair_and_gram_released_in_turn(self, monkeypatch):
        # the pair is gone before its cells are solved, and its Gram
        # before the next pair is drawn
        rng = np.random.default_rng(39)
        pair_refs, gram_refs = [], []
        normal_blocks, solve = kernels.normal_blocks, fir._solve

        def gram(*args):
            out = normal_blocks(*args)
            gram_refs.append(weakref.ref(out[0]))
            return out

        def solving(*args):
            assert all(ref() is None for ref in pair_refs)
            return solve(*args)

        def new_pair():
            assert all(ref() is None for ref in gram_refs)
            pair = (toy_spectrogram(rng, 30), toy_spectrogram(rng, 30))
            pair_refs.extend(weakref.ref(s) for s in pair)
            return pair

        monkeypatch.setattr(kernels, "normal_blocks", gram)
        monkeypatch.setattr(fir, "_solve", solving)
        rows = fir.context_sweep((new_pair() for _ in range(3)), [(0, 0), (2, 1)])
        assert len(gram_refs) == 3 and rows[0].utterance_count == 3


class TestPooledFit:
    def test_pooled_equals_single_when_one_pair(self):
        rng = np.random.default_rng(25)
        x = toy_spectrogram(rng, 50)
        y = toy_spectrogram(rng, 50)
        pooled = fir.fit_pooled_filters([(x, y)], 2, 0, ridge=0.0)
        single = [fit_bin(x[:, k], y[:, k], 2, 0) for k in range(x.shape[1])]
        assert pooled.shape == (x.shape[1], 3)
        for a, b in zip(pooled, single):
            assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)

    def test_pooling_mixes_evidence(self):
        rng = np.random.default_rng(26)
        pairs = [(toy_spectrogram(rng, 40), toy_spectrogram(rng, 40))
                 for _ in range(3)]
        taps = fir.fit_pooled_filters(pairs, 1, 0)
        assert taps.shape == (pairs[0][0].shape[1], 2)
        # the pooled fit is none of the single-pair fits
        for pair in pairs:
            assert not np.allclose(taps, fir.fit_pooled_filters([pair], 1, 0))

    def test_negative_ridge_rejected(self):
        rng = np.random.default_rng(27)
        pair = (toy_spectrogram(rng, 40), toy_spectrogram(rng, 40))
        with pytest.raises(ValueError, match="ridge"):
            fir.fit_pooled_filters([pair], 1, 0, ridge=-1e-3)

    @pytest.mark.parametrize("p", [10, 20])
    def test_holds_one_gram(self, p):
        # the solve loads the pooled Gram in place, so the fit peaks where
        # normal_blocks does; a loaded copy would add a Gram (1.8 MB at 21
        # taps and 257 bins, 6.9 MB at 41)
        rng = np.random.default_rng(29)
        x = toy_spectrogram(rng, 500, 257)
        y = toy_spectrogram(rng, 500, 257)
        taps = 2 * p + 1
        peaks = []
        for run in (lambda: kernels.normal_blocks(x, y, p, taps),
                    lambda: fir.fit_pooled_filters([(x, y)], p, p)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        gram = 257 * taps * taps * 16
        assert peaks[1] <= peaks[0] + gram / 8


class TestCheckPair:
    @pytest.fixture
    def no_gram(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a Gram was built for an invalid pair")
        monkeypatch.setattr(kernels, "normal_blocks", fail)

    @pytest.mark.parametrize("p, q", [(-1, 0), (0, -1), (-1, 3)])
    def test_negative_context_rejected_before_gram(self, no_gram, p, q):
        spec = toy_spectrogram(np.random.default_rng(28), 40)
        with pytest.raises(ValueError, match=r"p and q must be >= 0"):
            fir.dereverberate_spectrogram(spec, spec, p, q)
        with pytest.raises(ValueError, match=r"p and q must be >= 0"):
            fir.fit_pooled_filters([(spec, spec)], p, q)

    def test_bin_count_mismatch_within_pair(self, no_gram):
        rng = np.random.default_rng(29)
        wide = toy_spectrogram(rng, 40, bins=17)
        narrow = toy_spectrogram(rng, 40)
        with pytest.raises(ValueError, match="bin count mismatch: 17 vs 9"):
            fir.fit_pooled_filters([(wide, narrow)], 1, 1)

    def test_bin_count_mismatch_across_pairs(self):
        rng = np.random.default_rng(31)
        wide = toy_spectrogram(rng, 40, bins=17)
        narrow = toy_spectrogram(rng, 40)
        with pytest.raises(ValueError, match="bin count differs across pairs"):
            fir.fit_pooled_filters([(wide, wide), (narrow, narrow)], 1, 1)

    def test_frame_checks_in_pooled_fit(self, no_gram):
        rng = np.random.default_rng(32)
        long = toy_spectrogram(rng, 40)
        short = long[:4]
        with pytest.raises(ValueError, match="more frames"):
            fir.fit_pooled_filters([(short, long)], 1, 1)
        with pytest.raises(ValueError, match="underdetermined"):
            fir.fit_pooled_filters([(long, short)], 2, 2)

    def test_sweep_checks_every_cell_before_gram(self, no_gram):
        rng = np.random.default_rng(37)
        spec = toy_spectrogram(rng, 10)
        with pytest.raises(ValueError, match=r"p and q must be >= 0"):
            fir.context_sweep([(spec, spec)], [(1, 1), (0, -1)])
        with pytest.raises(ValueError, match="underdetermined: 11 taps"):
            fir.context_sweep([(spec, spec)], [(1, 1), (5, 5)])
        wide = toy_spectrogram(rng, 10, bins=17)
        with pytest.raises(ValueError, match="bin count mismatch: 17 vs 9"):
            fir.context_sweep([(wide, spec)], [(0, 0)])

    def test_spectrogram_taps_are_the_single_pair_pooled_fit(self):
        rng = np.random.default_rng(33)
        reverb = toy_spectrogram(rng, 45)
        clean = reverb[:40] + 0.5 * toy_spectrogram(rng, 40)
        _, taps, _ = fir.dereverberate_spectrogram(reverb, clean, 3, 2)
        assert np.array_equal(taps, fir.fit_pooled_filters([(reverb, clean)], 3, 2))
