import tracemalloc

import numpy as np
import pytest

from conftest import hstack_context
from ncderev import mlp


def masked_sigmoid(x):
    """Reference logistic function: exp of a non-positive argument only."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def central_diff_param_grads(model, x, targets, step=1e-5):
    """Finite-difference oracle for every weight and bias."""
    w_grads = [np.zeros_like(w) for w in model.weights]
    b_grads = [np.zeros_like(b) for b in model.biases]
    for layer, w in enumerate(model.weights):
        for idx in np.ndindex(w.shape):
            w[idx] += step
            hi = mlp.mse_loss(mlp.forward(model, x), targets)
            w[idx] -= 2 * step
            lo = mlp.mse_loss(mlp.forward(model, x), targets)
            w[idx] += step
            w_grads[layer][idx] = (hi - lo) / (2 * step)
    for layer, b in enumerate(model.biases):
        for idx in np.ndindex(b.shape):
            b[idx] += step
            hi = mlp.mse_loss(mlp.forward(model, x), targets)
            b[idx] -= 2 * step
            lo = mlp.mse_loss(mlp.forward(model, x), targets)
            b[idx] += step
            b_grads[layer][idx] = (hi - lo) / (2 * step)
    return w_grads, b_grads


def allocating_gradients(model, x, targets):
    """One step's gradients as mlp.gradients computes them, each
    intermediate a fresh array."""
    acts = [x]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        acts.append(z if i == len(model.weights) - 1 else mlp._sigmoid(z))
    delta = acts[-1] - targets
    loss = float(np.mean(delta ** 2, dtype=np.float64))
    delta = delta * 2.0 / (x.shape[0] * targets.shape[1])
    w_grads, b_grads = [], []
    for i in range(len(model.weights) - 1, -1, -1):
        w_grads.insert(0, acts[i].T @ delta)
        b_grads.insert(0, delta.sum(axis=0))
        if i > 0:
            h = acts[i]
            delta = (delta @ model.weights[i].T) * h * (1.0 - h)
    return w_grads, b_grads, loss


def per_array_epochs(model, x, targets, config, rates):
    """SGD over mlp.train's shuffled batches with allocating_gradients and
    a separate update of each weight and bias, one epoch per learning
    rate of ``rates``. Returns the parameters after each epoch and each
    epoch's row-weighted mean batch loss."""
    model = model.astype(x.dtype)
    targets = targets.astype(x.dtype)
    rng = np.random.default_rng(config.seed)
    kept, batch_mse = [], []
    for lr in rates:
        order = rng.permutation(len(x))
        loss_sum = 0.0
        for start in range(0, len(x), config.batch_size):
            sel = order[start:start + config.batch_size]
            w_grads, b_grads, loss = allocating_gradients(model, x[sel], targets[sel])
            loss_sum += loss * len(sel)
            for param, grad in zip(model.weights + model.biases, w_grads + b_grads):
                param -= lr * grad
        kept.append(model.astype(x.dtype))
        batch_mse.append(loss_sum / len(x))
    return kept, batch_mse


class TestInitModel:
    def test_seeded_determinism(self):
        a = mlp.init_model([8, 6, 4], seed=3)
        b = mlp.init_model([8, 6, 4], seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_uniform_mean_within_three_sigma(self):
        model = mlp.init_model([200, 300, 200], seed=1)
        for w in model.weights:
            s = np.sqrt(6.0 / sum(w.shape))
            sigma = (2 * s) / np.sqrt(12.0) / np.sqrt(w.size)
            assert abs(w.mean()) <= 3 * sigma
            assert np.all(np.abs(w) <= s)

    def test_biases_zero(self):
        model = mlp.init_model([8, 6, 4], seed=0)
        assert all(np.all(b == 0) for b in model.biases)

    @pytest.mark.parametrize("dims", [[840, 0, 0, 40], [8, 6, 0], [8], []])
    def test_invalid_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="invalid layer dims"):
            mlp.init_model(dims, seed=0)

    def test_paper_topology_parameter_count(self):
        model = mlp.init_model([840, 1000, 1000, 1000, 40], seed=0)
        assert sum(w.size + b.size for w, b in zip(model.weights, model.biases)) == 2_883_040


class TestSigmoid:
    def test_matches_masked_oracle(self):
        rng = np.random.default_rng(8)
        z = np.concatenate([
            30 * rng.normal(size=(4000,)),
            [1000, -1000, 745, -745, 40, -40, 1e-300, -1e-300, 0.0],
        ])
        want = masked_sigmoid(z)
        with np.errstate(all="raise"):
            got = mlp._sigmoid(z.copy())
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.all((got >= 0) & (got <= 1))

    def test_gradients_finite_for_saturating_inputs(self):
        model = mlp.init_model([8, 6, 6, 6, 4], seed=12)
        rng = np.random.default_rng(12)
        x = 100 * rng.normal(size=(16, 8))
        targets = rng.normal(size=(16, 4))
        with np.errstate(all="raise"):
            w_grads, b_grads, loss = mlp.gradients(model, x, targets)
        assert np.isfinite(loss)
        assert all(np.all(np.isfinite(g)) for g in w_grads + b_grads)

    def test_forward_leaves_input_untouched(self):
        model = mlp.init_model([8, 6, 6, 4], seed=3)
        x = np.random.default_rng(3).normal(size=(5, 8))
        before = x.copy()
        acts = mlp._forward_all(model, x)
        assert np.array_equal(x, before)
        assert len({id(a) for a in acts}) == len(acts)

    def test_training_trace_matches_masked_oracle(self, monkeypatch):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(60, 6))
        y = 0.5 * np.tanh(x @ rng.normal(size=(6, 3)))
        vx = rng.normal(size=(20, 6))
        vy = 0.5 * np.tanh(vx @ rng.normal(size=(6, 3)))
        config = mlp.TrainConfig(learning_rate=0.5, batch_size=16, epochs=8, seed=10)

        def run():
            return mlp.train(mlp.init_model([6, 10, 10, 3], 10), x, y, config, vx, vy)[1]

        trace = run()
        monkeypatch.setattr(mlp, "_sigmoid", masked_sigmoid)
        batches = []
        gradients = mlp.gradients

        def recording(model, xb, yb, workspace):
            w_grads, b_grads, loss = gradients(model, xb, yb, workspace)
            batches.append((len(xb), loss))
            return w_grads, b_grads, loss

        monkeypatch.setattr(mlp, "gradients", recording)
        oracle = run()
        assert len(trace) == len(oracle)
        for got, want in zip(trace, oracle):
            assert got[0] == want[0] and got[3] == want[3]
            # the kept epoch's train_mse is measured; the others' are not
            assert (got[1] is None) == (want[1] is None)
            for a, b in zip(got[1:], want[1:]):
                assert a is b is None or abs(a - b) <= 1e-12 * abs(b)
        # batch_mse is the row-weighted mean of the losses the steps replayed
        per_epoch = -(-len(x) // config.batch_size)
        assert len(batches) == per_epoch * len(oracle)
        for i, row in enumerate(oracle):
            epoch = batches[i * per_epoch:(i + 1) * per_epoch]
            assert sum(rows for rows, _ in epoch) == len(x)
            assert row[4] == sum(rows * loss for rows, loss in epoch) / len(x)


class TestForward:
    def test_all_zero_parameters_give_zero_output(self):
        model = mlp.init_model([8, 6, 6, 6, 4], seed=0)
        for w in model.weights:
            w[:] = 0
        out = mlp.forward(model, np.ones(8))
        assert np.all(out == 0)

    def test_output_bias_passthrough(self):
        model = mlp.init_model([8, 6, 4], seed=0)
        model.weights[-1][:] = 0
        model.biases[-1][:] = np.array([1.0, -2.0, 3.0, 0.5])
        rng = np.random.default_rng(0)
        for _ in range(3):
            out = mlp.forward(model, rng.normal(size=8))
            assert np.allclose(out, [1.0, -2.0, 3.0, 0.5])

    def test_dimension_mismatch(self):
        model = mlp.init_model([8, 4], seed=0)
        with pytest.raises(ValueError, match="input dim"):
            mlp.forward(model, np.ones(9))

    def test_bounded_output_for_bounded_weights(self):
        model = mlp.init_model([8, 6, 6, 6, 4], seed=7)
        rng = np.random.default_rng(7)
        bound = (np.abs(model.biases[-1])
                 + np.abs(model.weights[-1]).sum(axis=0)).max()
        for _ in range(20):
            out = mlp.forward(model, rng.normal(size=8) * 100)
            assert np.max(np.abs(out)) <= bound + 1e-12


class TestMseLoss:
    def test_zero_for_exact(self):
        x = np.ones((3, 40))
        assert mlp.mse_loss(x, x) == 0.0

    def test_single_element_offset(self):
        out = np.zeros((1, 40))
        tgt = np.zeros((1, 40))
        out[0, 7] = 2.0
        assert np.isclose(mlp.mse_loss(out, tgt), 4.0 / 40.0)

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        out = rng.normal(size=(10, 4))
        tgt = rng.normal(size=(10, 4))
        perm = rng.permutation(10)
        assert np.isclose(mlp.mse_loss(out, tgt), mlp.mse_loss(out[perm], tgt[perm]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mlp.mse_loss(np.zeros((2, 4)), np.zeros((3, 4)))


class TestGradients:
    def test_float32_gradients_match_the_float64_oracle(self):
        # mlp-training's 840 -> 3x128 -> 40 net on one batch of 64 rows, with
        # parameters and data rounded to float32 first, so the two runs differ
        # only in the precision they compute in. The bound is 32 float32
        # epsilons of each array's largest entry; about 4 were measured.
        dims = [840, 128, 128, 128, 40]
        single = mlp.init_model(dims, seed=16).astype(np.float32)
        double = single.astype(np.float64)
        rng = np.random.default_rng(16)
        x = rng.normal(size=(64, 840)).astype(np.float32)
        targets = rng.normal(size=(64, 40)).astype(np.float32)
        w32, b32, loss32 = mlp.gradients(single, x, targets)
        w64, b64, loss64 = mlp.gradients(double, x.astype(np.float64),
                                         targets.astype(np.float64))
        bound = 32 * np.finfo(np.float32).eps
        for got, want in zip(w32 + b32, w64 + b64):
            assert got.dtype == np.float32 and want.dtype == np.float64
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))
        assert abs(loss32 - loss64) <= bound * loss64

    def test_full_parameter_gradient_matches_central_differences(self):
        model = mlp.init_model([8, 6, 6, 6, 4], seed=11)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 8))
        targets = rng.normal(size=(5, 4))
        w_grads, b_grads, _ = mlp.gradients(model, x, targets)
        fd_w, fd_b = central_diff_param_grads(model, x, targets)
        for got, want in zip(w_grads + b_grads, fd_w + fd_b):
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-6)
            assert np.max(rel) <= 1e-4


    def test_steps_on_one_workspace_reuse_its_buffers(self):
        dims = [120, 64, 64, 40]
        model = mlp.init_model(dims, seed=4).astype(np.float32)
        rng = np.random.default_rng(4)
        workspace = mlp.StepWorkspace(dims, 64, np.float32)
        steps = []
        for rows in (64, 64, 17):
            x = rng.normal(size=(rows, 120)).astype(np.float32)
            targets = rng.normal(size=(rows, 40)).astype(np.float32)
            tracemalloc.start()
            try:
                got = mlp.gradients(model, x, targets, workspace)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # nothing of the batch's size beside the workspace: a step that
            # allocates its own gradients takes more than workspace.grad
            assert peak < workspace.grad.nbytes
            w_grads, b_grads, loss = allocating_gradients(model, x, targets)
            assert got[2] == loss
            for view, want in zip(got[0] + got[1], w_grads + b_grads):
                assert np.shares_memory(view, workspace.grad)
                assert view.tobytes() == want.tobytes()
            steps.append(got)
        for got in steps[1:]:
            assert all(a is b for a, b in zip(got[0] + got[1], steps[0][0] + steps[0][1]))

    def test_without_a_workspace_each_call_returns_its_own_arrays(self):
        model = mlp.init_model([8, 6, 4], seed=5)
        rng = np.random.default_rng(5)
        first = mlp.gradients(model, rng.normal(size=(7, 8)), rng.normal(size=(7, 4)))
        kept = [g.copy() for g in first[0] + first[1]]
        second = mlp.gradients(model, rng.normal(size=(7, 8)), rng.normal(size=(7, 4)))
        for a, b, want in zip(first[0] + first[1], second[0] + second[1], kept):
            assert not np.shares_memory(a, b)
            assert np.array_equal(a, want) and not np.array_equal(a, b)


class TestTrain:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("threshold, halved", [(-1.0, False), (0.2, True)])
    def test_trains_like_the_allocating_per_array_loop(self, dtype, threshold, halved):
        # 203 rows in batches of 32 leave a short last batch
        rng = np.random.default_rng(21)
        x = rng.normal(size=(203, 12)).astype(dtype)
        y = 0.5 * np.tanh(x @ rng.normal(size=(12, 5)))
        vx = rng.normal(size=(40, 12)).astype(dtype)
        vy = 0.5 * np.tanh(vx @ rng.normal(size=(12, 5)))
        config = mlp.TrainConfig(learning_rate=0.3, batch_size=32, epochs=10,
                                 improvement_threshold=threshold, seed=21)
        model = mlp.init_model([12, 16, 16, 5], seed=21)
        best, trace = mlp.train(model, x, y, config, vx, vy)
        rates = [row[3] for row in trace]
        assert (min(rates) < 0.3) == halved
        kept, batch_mse = per_array_epochs(model, x, y, config, rates)
        assert [row[4] for row in trace] == batch_mse
        want = kept[int(np.argmin([row[2] for row in trace]))]
        for got, param in zip(best.weights + best.biases, want.weights + want.biases):
            assert got.dtype == dtype and got.tobytes() == param.tobytes()

    def test_zero_learning_rate_freezes_parameters(self):
        model = mlp.init_model([4, 3, 2], seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 4))
        y = rng.normal(size=(20, 2))
        config = mlp.TrainConfig(learning_rate=0.0, batch_size=5, epochs=4, seed=0)
        trained, trace = mlp.train(model, x, y, config)
        for wa, wb in zip(model.weights, trained.weights):
            assert np.array_equal(wa, wb)
        losses = [row[1] for row in trace]
        assert all(np.isclose(v, losses[0]) for v in losses)

    def test_memorizes_toy_dataset(self):
        # ten points of a smooth random map, driven to interpolation
        rng = np.random.default_rng(42)
        x = rng.normal(size=(10, 6))
        y = 0.3 * np.tanh(x @ rng.normal(size=(6, 3)))
        model = mlp.init_model([6, 32, 3], seed=42)
        config = mlp.TrainConfig(learning_rate=0.7, batch_size=10, epochs=2000,
                                 improvement_threshold=0.0, seed=42)
        trained, trace = mlp.train(model, x, y, config)
        final = mlp.mse_loss(mlp.forward(trained, x), y)
        assert final <= 1e-3

    @staticmethod
    def train_both_ways(monkeypatch, chunk, dtype):
        """Train on ContextFrames of ``dtype`` features, LOSS_CHUNK ``chunk``,
        and on their stacked matrix in one forward call per set; both must
        train at ``dtype`` and agree bit for bit."""
        from ncderev.features import ContextFrames

        rng = np.random.default_rng(11)
        utts = [rng.normal(size=(n, 40)).astype(dtype) for n in (90, 3, 150, 61)]
        devs = [rng.normal(size=(n, 40)).astype(dtype) for n in (70, 45)]
        y = np.tanh(np.vstack(utts))
        vy = np.tanh(np.vstack(devs))
        p, q = 10, 10
        config = mlp.TrainConfig(learning_rate=0.5, batch_size=32, epochs=3, seed=11)

        def run(x, vx):
            return mlp.train(mlp.init_model([840, 32, 40], 11), x, y, config, vx, vy)

        monkeypatch.setattr(mlp, "LOSS_CHUNK", 10 ** 6)  # one forward call per set
        want_model, want_trace = run(np.vstack([hstack_context(u, p, q) for u in utts]),
                                     np.vstack([hstack_context(u, p, q) for u in devs]))
        monkeypatch.setattr(mlp, "LOSS_CHUNK", chunk)
        got_model, got_trace = run(ContextFrames(utts, p, q), ContextFrames(devs, p, q))
        assert got_trace == want_trace
        for a, b in zip(got_model.weights + got_model.biases,
                        want_model.weights + want_model.biases):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("chunk", [64, 100, 101, 512])
    def test_context_frames_train_like_the_stacked_matrix(self, monkeypatch, chunk):
        # the batches gather the stacked matrix's rows, and each loss chunk's
        # rows equal a full-set forward's, so trace and parameters are equal
        # bit for bit. The 32-wide layer keeps every chunk's first product
        # above the 1e6 multiply-adds below which OpenBLAS sums in another
        # order, as the full set's is.
        self.train_both_ways(monkeypatch, chunk, np.float64)

    @pytest.mark.parametrize("chunk", [64, 100, 101, 512])
    def test_float32_context_frames_train_like_the_stacked_float32_matrix(self, monkeypatch,
                                                                         chunk):
        # as train-mlp reads its features: both runs train at float32
        self.train_both_ways(monkeypatch, chunk, np.float32)

    @pytest.mark.parametrize("chunk", [64, 100, 101, 512])
    def test_loss_chunks_give_the_full_set_forward(self, monkeypatch, chunk):
        # 304 = 3·101 + 1 = 3·100 + 4 rows: a short last chunk would be a
        # small product, which BLAS may sum in another order
        from ncderev.features import ContextFrames

        rng = np.random.default_rng(12)
        utts = [rng.normal(size=(n, 40)) for n in (90, 3, 150, 61)]
        model = mlp.init_model([840, 32, 40], 12)
        want = mlp.forward(model, np.vstack([hstack_context(u, 10, 10) for u in utts]))
        monkeypatch.setattr(mlp, "LOSS_CHUNK", chunk)
        got = mlp._forward_chunked(model, ContextFrames(utts, 10, 10))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("with_dev", [True, False])
    def test_loss_passes_forward_the_train_set_once_with_dev_data(self, monkeypatch,
                                                                 with_dev):
        # the schedule reads the dev loss; the train loss is measured once,
        # for the kept model, unless it drives the schedule
        rng = np.random.default_rng(13)
        x, y = rng.normal(size=(50, 4)), rng.normal(size=(50, 2))
        vx, vy = rng.normal(size=(15, 4)), rng.normal(size=(15, 2))
        config = mlp.TrainConfig(learning_rate=0.2, batch_size=8, epochs=6,
                                 max_halvings=7, seed=13)
        forwarded = []
        chunked = mlp._forward_chunked

        def counting(model, inputs):
            forwarded.append(len(inputs))
            return chunked(model, inputs)

        monkeypatch.setattr(mlp, "_forward_chunked", counting)
        dev = (vx, vy) if with_dev else ()
        _, trace = mlp.train(mlp.init_model([4, 5, 2], 13), x, y, config, *dev)
        assert len(trace) == config.epochs
        if with_dev:
            assert sum(forwarded) == config.epochs * len(vx) + len(x)
        else:
            assert sum(forwarded) == config.epochs * len(x)

    def test_kept_epoch_records_the_kept_models_train_loss(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(40, 4))
        y = np.tanh(x[:, :2])
        vx = rng.normal(size=(12, 4))
        vy = np.tanh(vx[:, :2])
        config = mlp.TrainConfig(learning_rate=0.3, batch_size=10, epochs=12, seed=14)
        best, trace = mlp.train(mlp.init_model([4, 6, 2], 14), x, y, config, vx, vy)
        kept = mlp.trace_summary(trace, config.improvement_threshold)["best_epoch"]
        assert 1 < kept  # the kept row is not simply the first
        for epoch, train_mse, *_ in trace:
            if epoch == kept:
                assert train_mse == mlp.mse_loss(mlp.forward(best, x), y)
            else:
                assert train_mse is None

    def test_seeded_determinism_of_trace(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 5))
        y = rng.normal(size=(30, 2))
        config = mlp.TrainConfig(learning_rate=0.1, batch_size=8, epochs=5, seed=9)
        _, trace_a = mlp.train(mlp.init_model([5, 8, 2], 9), x, y, config)
        _, trace_b = mlp.train(mlp.init_model([5, 8, 2], 9), x, y, config)
        assert trace_a == trace_b

    def test_learning_rate_halves_on_plateau(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 4))
        y = rng.normal(size=(20, 2))
        # lr too small to make 0.1% progress: every epoch halves, 5 halvings stop
        config = mlp.TrainConfig(learning_rate=1e-9, batch_size=20, epochs=50,
                                 improvement_threshold=0.001, max_halvings=5, seed=0)
        _, trace = mlp.train(mlp.init_model([4, 6, 2], 0), x, y, config)
        assert len(trace) == 6  # first epoch, then one epoch per halving
        lrs = [row[3] for row in trace]
        # trace records the rate each epoch ran at; the 5th halving stops
        assert lrs == [1e-9, 1e-9] + [1e-9 / 2 ** k for k in range(1, 5)]
        assert mlp.trace_summary(trace, 0.001) == {
            "epochs_run": 6, "best_epoch": 6, "halvings": 5}

    @pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf")])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            mlp.TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("epochs", 0), ("max_halvings", -1),
        ("improvement_threshold", float("nan")), ("improvement_threshold", float("inf")),
    ])
    def test_bad_setting_rejected_naming_field_and_value(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be .*, got {value}$"):
            mlp.TrainConfig(**{field: value})

    def test_divergence_aborts_with_trace(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 4)) * 50
        y = rng.normal(size=(20, 2)) * 50
        config = mlp.TrainConfig(learning_rate=1e7, batch_size=5, epochs=50, seed=0)
        with pytest.raises(mlp.TrainingDivergedError) as info:
            mlp.train(mlp.init_model([4, 6, 2], 0), x, y, config)
        assert isinstance(info.value.trace, list)

    def test_empty_dataset_rejected(self):
        config = mlp.TrainConfig(epochs=1)
        with pytest.raises(ValueError, match="empty"):
            mlp.train(mlp.init_model([4, 2], 0), np.zeros((0, 4)), np.zeros((0, 2)),
                      config)

    def test_returns_best_validation_epoch(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 4))
        y = x[:, :2] * 0.5
        vx = rng.normal(size=(10, 4))
        vy = vx[:, :2] * 0.5
        config = mlp.TrainConfig(learning_rate=0.3, batch_size=10, epochs=30, seed=1)
        trained, trace = mlp.train(mlp.init_model([4, 8, 2], 1), x, y, config, vx, vy)
        best_epoch_loss = min(row[2] for row in trace)
        got = mlp.mse_loss(mlp.forward(trained, vx), vy)
        assert np.isclose(got, best_epoch_loss)


class TestDereverberateFeatures:
    def test_identity_task(self):
        # train clean -> clean: the mapper should approximate identity
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(120, 8))
        x = hstack_context(feats, 2, 2)
        model = mlp.init_model([40, 64, 8], seed=6)
        config = mlp.TrainConfig(learning_rate=1.0, batch_size=120, epochs=400,
                                 improvement_threshold=0.0, seed=6)
        trained, _ = mlp.train(model, x, feats, config)
        out = mlp.dereverberate_features(trained, feats, 2, 2)
        assert mlp.mse_loss(out, feats) <= 0.05

    @pytest.mark.parametrize("frames", [511, 512, 513, 1500])
    def test_equals_the_forward_of_the_stacked_matrix(self, frames):
        # rows are forwarded LOSS_CHUNK at a time, as in train's loss pass
        rng = np.random.default_rng(frames)
        feats = rng.normal(size=(frames, 40))
        model = mlp.init_model([840, 32, 40], seed=frames)
        want = mlp.forward(model, hstack_context(feats, 10, 10))
        assert np.array_equal(mlp.dereverberate_features(model, feats, 10, 10), want)

    def test_output_shape(self):
        model = mlp.init_model([40, 8, 8, 8, 8], seed=0)
        out = mlp.dereverberate_features(model, np.zeros((33, 8)), 2, 2)
        assert out.shape == (33, 8)

    def test_dimension_check(self):
        model = mlp.init_model([40, 8, 8, 8, 8], seed=0)
        with pytest.raises(ValueError, match="does not match"):
            mlp.dereverberate_features(model, np.zeros((33, 8)), 1, 1)


class TestModelSerialization:
    def test_roundtrip(self, tmp_path):
        model = mlp.init_model([8, 6, 4], seed=13)
        path = tmp_path / "model.json"
        mlp.save_model(model, path, seed=13)
        back = mlp.load_model(path)
        assert back.layer_dims == model.layer_dims
        for wa, wb in zip(model.weights, back.weights):
            assert np.max(np.abs(wa - wb)) <= 1e-6  # f32 storage
        rng = np.random.default_rng(0)
        x = rng.normal(size=8)
        assert np.max(np.abs(mlp.forward(model, x) - mlp.forward(back, x))) <= 1e-5

    def test_deterministic_bytes(self, tmp_path):
        model = mlp.init_model([8, 6, 4], seed=13)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        mlp.save_model(model, a, seed=13)
        mlp.save_model(model, b, seed=13)
        assert a.read_bytes() == b.read_bytes()
