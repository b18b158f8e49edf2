"""Feedforward spectral mapper: context-stacked reverberant log-Mel in,
clean 40-dim log-Mel out, trained by mini-batch gradient descent on MSE.

Hidden layers use the sigmoid, computed as 0.5 + 0.5·tanh(z/2); the
output layer is affine. ``forward`` and ``gradients`` compute in the
dtype of the model's weights, and ``train`` in the floating dtype of its
inputs: the float32 of the stored features in train-mlp, so that the
kept model is the saved one and each step costs about half. ``init_model``
and ``load_model`` give float64 models, so inference runs at float64.
Training follows plain SGD with a halving learning-rate schedule driven
by the validation loss, and returns the parameters of the best validation
epoch.
Each epoch forwards the validation set once; the train set is forwarded
once in all, for the kept model. Without a validation set the train
loss drives the schedule, so the train set is forwarded every epoch.
"""

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features

# rows per forward call of a loss pass
LOSS_CHUNK = 512


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite; carries the loss trace so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def _checked_dims(layer_dims) -> list:
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"invalid layer dims {list(layer_dims)}")
    return dims


class MlpModel:
    """Layer dimensions and one flat parameter vector ``theta``, which
    holds each layer's (fan_in, fan_out) weights and then its (fan_out,)
    bias; ``weights`` and ``biases`` are the per-layer views of it."""

    def __init__(self, layer_dims, theta):
        self.layer_dims = _checked_dims(layer_dims)
        count = _parameter_count(self.layer_dims)
        if np.shape(theta) != (count,):
            raise ValueError(f"layer dims {self.layer_dims} take {count} parameters, "
                             f"got an array of shape {np.shape(theta)}")
        self.theta = theta
        self.weights, self.biases = _layer_views(theta, self.layer_dims)

    def astype(self, dtype) -> "MlpModel":
        """A copy with every parameter cast to ``dtype``."""
        return MlpModel(self.layer_dims, self.theta.astype(dtype))


@dataclass
class TrainConfig:
    """SGD hyperparameters; the halving rule adapts the learning rate."""

    learning_rate: float = 0.1
    batch_size: int = 200
    epochs: int = 100
    improvement_threshold: float = 0.001  # relative validation gain per epoch
    max_halvings: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("epochs", 1), ("max_halvings", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not np.isfinite(self.improvement_threshold):
            raise ValueError(
                f"improvement_threshold must be finite, got {self.improvement_threshold}")


def init_model(layer_dims, seed: int) -> MlpModel:
    """Uniform fan-based initialization: W ~ U(-s, s), s = sqrt(6/(fan_in+fan_out)).

    Biases start at zero. Deterministic per seed. Raises ValueError for
    fewer than two layers or any dimension below 1.
    """
    layer_dims = _checked_dims(layer_dims)
    model = MlpModel(layer_dims, np.zeros(_parameter_count(layer_dims)))
    rng = np.random.default_rng(seed)
    for w in model.weights:
        s = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-s, s, size=w.shape)
    return model


def _sigmoid(z):
    """Logistic function 0.5 + 0.5·tanh(z/2), overwriting and returning ``z``.

    No masks and no exp: tanh saturates to ±1, so every output lies in
    [0, 1] and no z overflows.
    """
    z *= 0.5
    np.tanh(z, out=z)
    z *= 0.5
    z += 0.5
    return z


def _forward_all(model, x, buffers=None):
    """Activations of every layer for a (B, d_in) batch; layer i's lands
    in the first B rows of ``buffers[i]`` when they are given."""
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(h, w, out=None if buffers is None else buffers[i][:len(x)])
        z += b
        # z is fresh or its own buffer, so the in-place sigmoid never
        # touches an earlier act
        h = z if i == last else _sigmoid(z)
        acts.append(h)
    return acts


def forward(model: MlpModel, x) -> np.ndarray:
    """Map context vectors to 40-dim clean-frame estimates, in the
    dtype of the model's weights.

    Accepts a single vector or a (batch, d_in) matrix.
    """
    x = np.asarray(x, dtype=model.weights[0].dtype)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.layer_dims[0]:
        raise ValueError(
            f"input dim {x.shape[1]} does not match model input "
            f"{model.layer_dims[0]}"
        )
    out = _forward_all(model, x)[-1]
    return out[0] if single else out


def mse_loss(outputs, targets) -> float:
    """Mean over batch and feature dimensions of squared differences: the
    one log-Mel MSE of training, derev's reports and the mix-sweep."""
    outputs = np.asarray(outputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if outputs.shape != targets.shape:
        raise ValueError(f"shape mismatch: {outputs.shape} vs {targets.shape}")
    diff = outputs - targets
    return float(np.mean(np.square(diff, out=diff)))


def _layer_views(flat, layer_dims):
    """Per-layer (fan_in, fan_out) weight and (fan_out,) bias views of one
    flat vector, which holds each layer's weights and then its bias."""
    weights, biases = [], []
    end = 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        start, end = end, end + fan_in * fan_out
        weights.append(flat[start:end].reshape(fan_in, fan_out))
        start, end = end, end + fan_out
        biases.append(flat[start:end])
    return weights, biases


def _parameter_count(layer_dims) -> int:
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]))


class StepWorkspace:
    """The buffers of one SGD step on batches of up to ``batch`` rows.

    ``grad`` is one flat vector laid out as a model's ``theta``, and
    ``w_grads``/``b_grads`` are its per-layer views, so one update
    ``theta -= lr·grad`` steps every parameter. Each layer
    has an activation and a delta buffer of ``batch`` rows, and the
    output layer a buffer for the squared error.
    """

    def __init__(self, layer_dims, batch: int, dtype):
        dims = _checked_dims(layer_dims)
        self.grad = np.empty(_parameter_count(dims), dtype)
        self.w_grads, self.b_grads = _layer_views(self.grad, dims)
        self.acts = [np.empty((batch, d), dtype) for d in dims[1:]]
        self.deltas = [np.empty((batch, d), dtype) for d in dims[1:]]
        self.square = np.empty((batch, dims[-1]), dtype)


def gradients(model: MlpModel, x, targets, workspace=None):
    """Backpropagated gradients of mse_loss for one batch, in the dtype
    of the model's weights.

    Every array of the step is written into ``workspace`` (a
    StepWorkspace of the model's dims and dtype, at least as many rows as
    the batch), so that steps on one workspace allocate no per-batch
    array; without one, the call allocates its own.

    Returns (weight_grads, bias_grads, loss); the gradients are views of
    the workspace's ``grad``, overwritten by the next step on it.
    """
    dtype = model.weights[0].dtype
    x = np.asarray(x, dtype=dtype)
    targets = np.asarray(targets, dtype=dtype)
    if workspace is None:
        workspace = StepWorkspace(model.layer_dims, len(x), dtype)
    rows = len(x)
    acts = _forward_all(model, x, workspace.acts)
    delta = np.subtract(acts[-1], targets, out=workspace.deltas[-1][:rows])
    square = np.square(delta, out=workspace.square[:rows])
    # np.mean's float64 sum and division, without its Python overhead
    loss = float(np.add.reduce(square, axis=None, dtype=np.float64) / square.size)
    delta *= 2.0
    delta /= rows * targets.shape[1]
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=workspace.w_grads[i])
        np.add.reduce(delta, axis=0, out=workspace.b_grads[i])
        if i > 0:
            h = acts[i]
            delta = np.matmul(delta, model.weights[i].T,
                              out=workspace.deltas[i - 1][:rows])
            delta *= h
            # h's last read is above, so its buffer takes 1 - h
            np.subtract(1.0, h, out=h)
            delta *= h
    return workspace.w_grads, workspace.b_grads, loss


def _plateaued(prev_valid, valid_mse, threshold) -> bool:
    """The halving rule: the loss improved by less than ``threshold``, relative."""
    improvement = (prev_valid - valid_mse) / prev_valid if prev_valid > 0 else 0.0
    return improvement < threshold


def trace_summary(trace, improvement_threshold) -> dict:
    """Facts of a ``train`` trace: epochs run, the best validation epoch
    (the one whose parameters ``train`` returns) and the number of epochs
    after which the learning rate was halved."""
    valid = [row[2] for row in trace]
    return {
        "epochs_run": len(trace),
        "best_epoch": int(trace[int(np.argmin(valid))][0]),
        "halvings": sum(_plateaued(prev, cur, improvement_threshold)
                        for prev, cur in zip(valid, valid[1:])),
    }


def _context_frames(inputs) -> features.ContextFrames:
    """``inputs`` as ContextFrames; a plain (rows, d) array is its own
    context (p = q = 0), so both kinds are read through ``rows``."""
    if isinstance(inputs, features.ContextFrames):
        return inputs
    return features.ContextFrames([inputs], 0, 0)


def _forward_chunked(model, inputs) -> np.ndarray:
    """``forward`` over every row of ``inputs`` (ContextFrames), LOSS_CHUNK
    rows at a time. The last chunk ends at the last row and is as long as
    the others: BLAS may sum a small product in another order (OpenBLAS
    does below 1e6 multiply-adds), so a short last chunk could give rows
    other than a full-set forward's."""
    n = len(inputs)
    out = np.empty((n, model.layer_dims[-1]), model.weights[0].dtype)
    for start in range(0, n, LOSS_CHUNK):
        chunk = slice(max(min(start, n - LOSS_CHUNK), 0), start + LOSS_CHUNK)
        out[chunk] = forward(model, inputs.rows(chunk))
    return out


def train(model: MlpModel, inputs, targets, config: TrainConfig,
          valid_inputs=None, valid_targets=None):
    """Mini-batch SGD over shuffled epochs with a halving learning rate.

    The learning rate is halved whenever the validation loss fails to
    improve by ``improvement_threshold`` relative to the previous epoch;
    training stops after ``max_halvings`` consecutive halvings or when
    the epoch budget runs out. Without a validation set the training
    loss drives the schedule.

    ``inputs`` and ``valid_inputs`` are (rows, d_in) arrays or
    features.ContextFrames; each batch and loss chunk gathers its rows.
    Training computes in the floating dtype of ``inputs``: the model copy
    and the targets are cast to it, and the learning rate stays a Python
    float. Every loss is summed at float64. Every step runs in one
    StepWorkspace whose flat gradient lines up with the model copy's
    theta, so each update is one scaling and one subtraction.

    Returns:
        (best_model, trace) where best_model holds the parameters of the
        best validation epoch and trace is a list of
        (epoch, train_mse, valid_mse, learning_rate, batch_mse).
        batch_mse is the row-weighted mean of the epoch's batch losses,
        each taken before its step. With a validation set, train_mse is
        measured once, for best_model, and is None on every other epoch;
        without one, it is every epoch's loss and equals valid_mse.

    Raises TrainingDivergedError (carrying the partial trace) when the
    loss becomes non-finite.
    """
    inputs = _context_frames(inputs)
    dtype = inputs.padded.dtype
    targets = np.asarray(targets, dtype=dtype)
    if len(inputs) == 0:
        raise ValueError("empty training set")
    if len(inputs) != targets.shape[0]:
        raise ValueError("inputs and targets differ in sample count")
    has_valid = valid_inputs is not None and valid_targets is not None
    if has_valid:
        valid_inputs = _context_frames(valid_inputs)
        valid_targets = np.asarray(valid_targets, dtype=np.float64)

    rng = np.random.default_rng(config.seed)
    model = model.astype(dtype)
    workspace = StepWorkspace(model.layer_dims, min(config.batch_size, len(inputs)), dtype)
    lr = config.learning_rate
    trace = []
    best = model.astype(dtype)
    best_row = None
    best_valid = np.inf
    prev_valid = None
    halvings = 0
    n = len(inputs)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, config.batch_size):
                sel = order[start:start + config.batch_size]
                _, _, batch_loss = gradients(
                    model, inputs.rows(sel), targets[sel], workspace)
                if not np.isfinite(batch_loss):
                    raise TrainingDivergedError(
                        f"non-finite loss in epoch {epoch}", trace
                    )
                loss_sum += batch_loss * len(sel)
                if lr:
                    # lr·g in the gradient's own buffer: no temporary
                    workspace.grad *= lr
                    model.theta -= workspace.grad
            if has_valid:
                train_mse = None
                valid_mse = mse_loss(_forward_chunked(model, valid_inputs), valid_targets)
            else:
                train_mse = valid_mse = mse_loss(_forward_chunked(model, inputs), targets)
        if not np.isfinite(valid_mse):
            raise TrainingDivergedError(f"non-finite loss in epoch {epoch}", trace)
        trace.append((epoch, train_mse, valid_mse, lr, loss_sum / n))
        if valid_mse < best_valid:
            best_valid = valid_mse
            best = model.astype(dtype)
            best_row = len(trace) - 1
        if prev_valid is not None:
            if _plateaued(prev_valid, valid_mse, config.improvement_threshold):
                lr *= 0.5
                halvings += 1
                if halvings >= config.max_halvings:
                    break
            else:
                halvings = 0
        prev_valid = valid_mse
    if has_valid:
        # the one train pass: the kept model's, into its epoch's row
        with np.errstate(over="ignore", invalid="ignore"):
            train_mse = mse_loss(_forward_chunked(best, inputs), targets)
        if not np.isfinite(train_mse):
            raise TrainingDivergedError("non-finite train loss of the kept model", trace)
        epoch, _, valid_mse, rate, batch_mse = trace[best_row]
        trace[best_row] = (epoch, train_mse, valid_mse, rate, batch_mse)
    return best, trace


def dereverberate_features(model: MlpModel, reverb_feats, p: int, q: int) -> np.ndarray:
    """Map a reverberant feature sequence frame-wise from its (p, q)
    context, as train's loss pass does; ``forward`` rejects a model whose
    input is not p+q+1 frames wide."""
    return _forward_chunked(model, features.ContextFrames([reverb_feats], p, q))


def save_model(model: MlpModel, path, seed=None) -> None:
    """Serialize to JSON with base64-encoded little-endian f32 blocks per layer."""
    payload = {
        "layer_dims": model.layer_dims,
        "seed": seed,
        "layers": [
            {
                "weights": base64.b64encode(
                    w.astype("<f4").tobytes()).decode("ascii"),
                "bias": base64.b64encode(
                    b.astype("<f4").tobytes()).decode("ascii"),
            }
            for w, b in zip(model.weights, model.biases)
        ],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _layer_block(path, i, layer, key, shape):
    """Layer i's base64 little-endian f32 block under key, of the given shape."""
    if not isinstance(layer, dict) or key not in layer:
        raise ValueError(f"model file {path}: layer {i} has no {key}")
    try:
        raw = base64.b64decode(layer[key], validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model file {path}: layer {i} {key} is not base64: {exc}") from None
    size = 4 * int(np.prod(shape))
    if len(raw) != size:
        raise ValueError(f"model file {path}: layer {i} {key} holds {len(raw)} bytes, "
                         f"{size} for shape {shape}")
    return np.frombuffer(raw, dtype="<f4").reshape(shape)


def load_model(path, data=None) -> MlpModel:
    """Read what ``save_model`` wrote; ``data``, when given, holds the
    file's bytes as already read."""
    payload = json.loads((Path(path).read_bytes() if data is None else data).decode("ascii"))
    if not isinstance(payload, dict) or not {"layer_dims", "layers"} <= payload.keys():
        raise ValueError(f"model file {path} needs the keys layer_dims and layers")
    try:
        dims = _checked_dims(payload["layer_dims"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model file {path}: {exc}") from None
    layers = payload["layers"]
    if not isinstance(layers, list):
        raise ValueError(f"model file {path}: layers must be a list")
    if len(layers) != len(dims) - 1:
        raise ValueError(f"model file {path} holds {len(layers)} layers "
                         f"for layer_dims {dims}")
    model = MlpModel(dims, np.empty(_parameter_count(dims)))
    for i, layer in enumerate(layers):
        model.weights[i][...] = _layer_block(path, i, layer, "weights", model.weights[i].shape)
        model.biases[i][...] = _layer_block(path, i, layer, "bias", model.biases[i].shape)
    return model
