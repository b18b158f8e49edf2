"""Feedforward spectral mapper: context-stacked reverberant log-Mel in,
clean 40-dim log-Mel out, trained by mini-batch gradient descent on MSE.

Hidden layers use the sigmoid, computed as 0.5 + 0.5·tanh(z/2); the
output layer is affine. Parameters and activations are float64. Training
follows plain SGD with a halving learning-rate schedule driven by the
validation loss, and returns the parameters of the best validation epoch.
"""

import base64
import json
from dataclasses import dataclass

import numpy as np

from . import features

# rows per forward call of the per-epoch loss pass
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


@dataclass
class MlpModel:
    """Layer dimensions plus weight matrices (fan_in x fan_out) and biases."""

    layer_dims: list
    weights: list
    biases: list

    def __post_init__(self):
        dims = _checked_dims(self.layer_dims)
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("need one weight matrix and bias per layer transition")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ValueError(
                    f"layer {i}: expected {(dims[i], dims[i + 1])} weights and "
                    f"({dims[i + 1]},) bias, got {w.shape} and {b.shape}"
                )
        self.layer_dims = dims

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "MlpModel":
        return MlpModel(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


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
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims, weights, biases)


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


def _forward_all(model, x):
    """Activations of every layer for a (B, d_in) batch."""
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w
        z += b
        # z is fresh, so the in-place sigmoid never touches an earlier act
        h = z if i == last else _sigmoid(z)
        acts.append(h)
    return acts


def forward(model: MlpModel, x) -> np.ndarray:
    """Map context vectors to 40-dim clean-frame estimates.

    Accepts a single vector or a (batch, d_in) matrix.
    """
    x = np.asarray(x, dtype=np.float64)
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


def gradients(model: MlpModel, x, targets):
    """Backpropagated gradients of mse_loss for one batch.

    Returns (weight_grads, bias_grads, loss).
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    acts = _forward_all(model, x)
    delta = acts[-1] - targets
    loss = float(np.mean(delta ** 2))
    delta *= 2.0
    delta /= x.shape[0] * targets.shape[1]
    w_grads = [None] * len(model.weights)
    b_grads = [None] * len(model.weights)
    for i in range(len(model.weights) - 1, -1, -1):
        w_grads[i] = acts[i].T @ delta
        b_grads[i] = delta.sum(axis=0)
        if i > 0:
            h = acts[i]
            delta = (delta @ model.weights[i].T) * h * (1.0 - h)
    return w_grads, b_grads, loss


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
    out = np.empty((n, model.layer_dims[-1]))
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

    Returns:
        (best_model, trace) where best_model holds the parameters of the
        best validation epoch and trace is a list of
        (epoch, train_mse, valid_mse, learning_rate).

    Raises TrainingDivergedError (carrying the partial trace) when the
    loss becomes non-finite.
    """
    inputs = _context_frames(inputs)
    targets = np.asarray(targets, dtype=np.float64)
    if len(inputs) == 0:
        raise ValueError("empty training set")
    if len(inputs) != targets.shape[0]:
        raise ValueError("inputs and targets differ in sample count")
    has_valid = valid_inputs is not None and valid_targets is not None
    if has_valid:
        valid_inputs = _context_frames(valid_inputs)
        valid_targets = np.asarray(valid_targets, dtype=np.float64)

    rng = np.random.default_rng(config.seed)
    model = model.copy()
    lr = config.learning_rate
    trace = []
    best = model.copy()
    best_valid = np.inf
    prev_valid = None
    halvings = 0
    n = len(inputs)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, config.batch_size):
                sel = order[start:start + config.batch_size]
                w_grads, b_grads, batch_loss = gradients(
                    model, inputs.rows(sel), targets[sel])
                if not np.isfinite(batch_loss):
                    raise TrainingDivergedError(
                        f"non-finite loss in epoch {epoch}", trace
                    )
                if lr:
                    for w, b, gw, gb in zip(model.weights, model.biases,
                                            w_grads, b_grads):
                        # lr·g in the gradient's own buffer: no temporary
                        gw *= lr
                        gb *= lr
                        w -= gw
                        b -= gb
            train_mse = mse_loss(_forward_chunked(model, inputs), targets)
            valid_mse = (mse_loss(_forward_chunked(model, valid_inputs), valid_targets)
                         if has_valid else train_mse)
        if not (np.isfinite(train_mse) and np.isfinite(valid_mse)):
            raise TrainingDivergedError(f"non-finite loss in epoch {epoch}", trace)
        trace.append((epoch, train_mse, valid_mse, lr))
        if valid_mse < best_valid:
            best_valid = valid_mse
            best = model.copy()
        if prev_valid is not None:
            if _plateaued(prev_valid, valid_mse, config.improvement_threshold):
                lr *= 0.5
                halvings += 1
                if halvings >= config.max_halvings:
                    prev_valid = valid_mse
                    break
            else:
                halvings = 0
        prev_valid = valid_mse
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
    return np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)


def load_model(path) -> MlpModel:
    with open(path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
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
    weights = []
    biases = []
    for i, layer in enumerate(layers):
        weights.append(_layer_block(path, i, layer, "weights", (dims[i], dims[i + 1])))
        biases.append(_layer_block(path, i, layer, "bias", (dims[i + 1],)))
    return MlpModel(dims, weights, biases)
