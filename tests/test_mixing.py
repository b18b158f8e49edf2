import numpy as np
import pytest

from ncderev import fir, kernels, mixing


def rand_streams(rng, shape=(20, 40)):
    names = ("reverb", "ref_enhanced", "derev_of_reverb", "derev_of_ref_enhanced")
    return {name: rng.normal(size=shape) for name in names}


class TestSemiEnhance:
    @pytest.mark.parametrize("config_id", [1, 2, 3, 4])
    def test_lambda_zero_returns_first_stream_bit_exactly(self, config_id):
        rng = np.random.default_rng(config_id)
        streams = rand_streams(rng)
        first, _ = mixing.STREAMS_BY_CONFIG[config_id]
        out = mixing.semi_enhance(config_id, 0.0, streams)
        assert np.array_equal(out, streams[first])

    @pytest.mark.parametrize("config_id", [1, 2, 3, 4])
    def test_lambda_one_returns_second_stream_bit_exactly(self, config_id):
        rng = np.random.default_rng(config_id + 10)
        streams = rand_streams(rng)
        _, second = mixing.STREAMS_BY_CONFIG[config_id]
        out = mixing.semi_enhance(config_id, 1.0, streams)
        assert np.array_equal(out, streams[second])

    def test_halfway_is_elementwise_mean(self):
        rng = np.random.default_rng(0)
        streams = rand_streams(rng)
        out = mixing.semi_enhance(4, 0.5, streams)
        want = 0.5 * (streams["reverb"] + streams["derev_of_reverb"])
        assert np.allclose(out, want, atol=1e-15)

    def test_affine_in_lambda(self):
        rng = np.random.default_rng(1)
        streams = rand_streams(rng)
        for lam in (0.15, 0.3, 0.8):
            out = mixing.semi_enhance(2, lam, streams)
            ends = ((1.0 - lam) * mixing.semi_enhance(2, 0.0, streams)
                    + lam * mixing.semi_enhance(2, 1.0, streams))
            assert np.array_equal(out, ends)

    def test_missing_stream_rejected(self):
        rng = np.random.default_rng(2)
        streams = rand_streams(rng)
        del streams["ref_enhanced"]
        with pytest.raises(ValueError, match="ref_enhanced"):
            mixing.semi_enhance(1, 0.5, streams)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        streams = rand_streams(rng)
        streams["derev_of_reverb"] = streams["derev_of_reverb"][:-1]
        with pytest.raises(ValueError, match="shape"):
            mixing.semi_enhance(4, 0.5, streams)


class TestLambdaSweep:
    def grid(self):
        return [round(0.05 * i, 2) for i in range(21)]

    def test_perfect_enhancer_selects_lambda_one(self):
        rng = np.random.default_rng(4)
        subsets = {}
        for name in ("a", "b"):
            pairs = []
            for _ in range(3):
                clean = rng.normal(size=(15, 40))
                streams = {
                    "reverb": clean + rng.normal(size=(15, 40)),
                    "derev_of_reverb": clean.copy(),
                }
                pairs.append((streams, clean))
            subsets[name] = pairs
        per_subset, average, _ = mixing.lambda_sweep(subsets, self.grid(), 4)
        assert per_subset == {"a": 1.0, "b": 1.0}
        assert average == 1.0

    def test_degenerate_tie_returns_lambda_zero(self):
        rng = np.random.default_rng(5)
        clean = rng.normal(size=(10, 40))
        reverb = clean + rng.normal(size=(10, 40))
        streams = {"reverb": reverb, "derev_of_reverb": reverb.copy()}
        per_subset, average, _ = mixing.lambda_sweep(
            {"only": [(streams, clean)]}, self.grid(), 4
        )
        assert per_subset == {"only": 0.0}
        assert average == 0.0

    def test_average_is_mean_of_subset_optima(self):
        rng = np.random.default_rng(6)
        subsets = {}
        # subset "clean" prefers lambda 1, subset "noise" prefers lambda 0
        clean = rng.normal(size=(12, 40))
        subsets["good"] = [({"reverb": clean + 5.0,
                             "derev_of_reverb": clean.copy()}, clean)]
        subsets["bad"] = [({"reverb": clean.copy(),
                            "derev_of_reverb": clean + 5.0}, clean)]
        per_subset, average, _ = mixing.lambda_sweep(subsets, self.grid(), 4)
        assert per_subset == {"good": 1.0, "bad": 0.0}
        assert abs(average - np.mean(list(per_subset.values()))) <= 1e-12

    def test_unimodal_metric_has_unique_argmin(self):
        rng = np.random.default_rng(7)
        clean = rng.normal(size=(30, 40))
        noise_a = rng.normal(size=(30, 40))
        noise_b = rng.normal(size=(30, 40))
        streams = {"reverb": clean + noise_a, "derev_of_reverb": clean + 0.4 * noise_b}
        per_subset, _, cells = mixing.lambda_sweep(
            {"s": [(streams, clean)]}, self.grid(), 4
        )
        mses = [mse for _, _, _, mse in cells]
        best = int(np.argmin(mses))
        assert per_subset["s"] == self.grid()[best]
        diffs = np.sign(np.diff(mses))
        assert np.count_nonzero(np.diff(diffs)) <= 1  # single valley

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="empty subset"):
            mixing.lambda_sweep({"x": []}, self.grid(), 1)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            mixing.lambda_sweep({"x": [(None, None)]}, [], 1)


def toy_pair(rng, frames=60, bins=9):
    clean = rng.normal(size=(frames, bins)) + 1j * rng.normal(size=(frames, bins))
    # reverb = causal smearing of clean per bin
    kernel = np.array([1.0, 0.6, 0.3])
    reverb = np.stack(
        [np.convolve(clean[:, k], kernel)[:frames] for k in range(bins)], axis=1
    )
    return reverb, clean


class TestReferenceEnhancer:
    # the "causal-fir" enhancer: fir.fit_pooled_filters at q = 0 on the
    # train pairs, then kernels.apply_fir on each reverberant spectrogram
    def test_causal_fir_p0_is_per_bin_scalar_gain(self):
        rng = np.random.default_rng(10)
        pairs = [toy_pair(rng) for _ in range(2)]
        taps = fir.fit_pooled_filters(pairs, 0, 0, 0.0)
        spec, _ = toy_pair(rng)
        out = kernels.apply_fir(taps, spec, 0, len(spec))
        assert taps.shape == (spec.shape[1], 1)
        assert np.max(np.abs(out - spec * taps[:, 0][None, :])) <= 1e-9

    def test_causal_fir_reduces_error_vs_identity(self):
        rng = np.random.default_rng(11)
        train_pairs = [toy_pair(rng) for _ in range(4)]
        test_reverb, test_clean = toy_pair(rng)
        taps = fir.fit_pooled_filters(train_pairs, 3, 0, "auto")
        enhanced = kernels.apply_fir(taps, test_reverb, 0, len(test_reverb))
        err_enh = np.sum(np.abs(enhanced[:len(test_clean)] - test_clean) ** 2)
        err_id = np.sum(np.abs(test_reverb[:len(test_clean)] - test_clean) ** 2)
        assert err_enh < err_id
