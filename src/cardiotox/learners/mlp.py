"""Feed-forward softmax classifier trained with Adam.

Supports ReLU/sigmoid hidden activations, inverted dropout, and per-hidden-layer
batch normalization (batch statistics in train mode, running statistics with
momentum 0.9 in eval mode). The training loop checkpoints the parameters at
the epoch with the lowest validation loss.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from ..dataset import LabeledDataset
from ..errors import InvalidInputError, TrainingDivergedError

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

ACTIVATIONS = ("relu", "sigmoid")


@dataclass
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class MlpModel:
    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str
    dropout_rate: float
    batchnorm: list[BatchNormParams] | None

    def __post_init__(self):
        self.layer_sizes = sizes = tuple(self.layer_sizes)
        links = list(zip(sizes, sizes[1:]))
        if not links:
            raise InvalidInputError("layer_sizes must name an input and an output layer")
        if [np.shape(w) for w in self.weights] != links or [np.shape(b) for b in self.biases] != [(n,) for _, n in links]:
            raise InvalidInputError(f"weights and biases do not match layer_sizes {sizes}")
        if self.batchnorm is not None and [
            {np.shape(a) for a in vars(bn).values()} for bn in self.batchnorm
        ] != [{(n,)} for n in sizes[1:-1]]:
            raise InvalidInputError("batch norm parameters do not match the hidden layer sizes")
        if self.activation not in ACTIVATIONS:
            raise InvalidInputError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidInputError("dropout_rate must be in [0, 1)")

    @property
    def n_features(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 256
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        # A zero learning rate is allowed (it must leave parameters unchanged).
        if self.learning_rate < 0:
            raise InvalidInputError("learning_rate must be nonnegative")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be at least 1")
        if self.epochs < 1:
            raise InvalidInputError("epochs must be at least 1")


@dataclass
class TrainResult:
    model: MlpModel
    best_epoch: int
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)


def mlp_init(
    layer_sizes,
    activation: str,
    seed: int,
    dropout_rate: float = 0.0,
    batchnorm: bool = False,
) -> MlpModel:
    """Kaiming-normal (relu) or Xavier-uniform (sigmoid) weights, zero biases."""
    layer_sizes = tuple(int(s) for s in layer_sizes)
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise InvalidInputError("layer_sizes must be >= 2 positive integers")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        if activation == "relu":
            std = math.sqrt(2.0 / fan_in)
            w = rng.normal(0.0, std, size=(fan_in, fan_out))
        else:
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        weights.append(w)
        biases.append(np.zeros(fan_out))
    bn = None
    if batchnorm:
        bn = [
            BatchNormParams(np.ones(s), np.zeros(s), np.zeros(s), np.ones(s))
            for s in layer_sizes[1:-1]
        ]
    return MlpModel(layer_sizes, weights, biases, activation, dropout_rate, bn)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    with np.errstate(over="ignore"):  # saturation, not divergence
        return 1.0 / (1.0 + np.exp(-z))


def _softmax(logits: np.ndarray) -> np.ndarray:
    # Divergence shows up as non-finite probabilities and is reported by the
    # training loop; silence the intermediate overflow warnings here.
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)


def _forward(model: MlpModel, x: np.ndarray, train: bool, rng: np.random.Generator | None):
    """Returns (probabilities, cache). Train mode applies dropout/batch stats
    and updates running statistics.

    Cache layout per hidden layer h: z (pre-BN linear output), z_norm and
    bn_stats (when batch norm is on), act_in (activation input), masks
    (dropout). cache["a"][h] is the post-dropout activation feeding layer h.
    """
    cache = {"a": [x], "z": [], "z_norm": [], "bn_stats": [], "act_in": [], "masks": []}
    a = x
    n_layers = len(model.weights)
    for layer in range(n_layers - 1):
        z = a @ model.weights[layer] + model.biases[layer]
        cache["z"].append(z)
        if model.batchnorm is not None:
            bn = model.batchnorm[layer]
            if train:
                mu = z.mean(axis=0)
                var = z.var(axis=0)
                bn.running_mean = _BN_MOMENTUM * bn.running_mean + (1 - _BN_MOMENTUM) * mu
                bn.running_var = _BN_MOMENTUM * bn.running_var + (1 - _BN_MOMENTUM) * var
            else:
                mu = bn.running_mean
                var = bn.running_var
            inv_std = 1.0 / np.sqrt(var + _BN_EPS)
            z_norm = (z - mu) * inv_std
            cache["z_norm"].append(z_norm)
            cache["bn_stats"].append((mu, var, inv_std))
            act_in = bn.gamma * z_norm + bn.beta
        else:
            cache["z_norm"].append(None)
            cache["bn_stats"].append(None)
            act_in = z
        cache["act_in"].append(act_in)
        a = _activate(act_in, model.activation)
        if train and model.dropout_rate > 0.0:
            keep = 1.0 - model.dropout_rate
            mask = (rng.uniform(size=a.shape) < keep) / keep
            a = a * mask
            cache["masks"].append(mask)
        else:
            cache["masks"].append(None)
        cache["a"].append(a)
    logits = a @ model.weights[-1] + model.biases[-1]
    cache["logits"] = logits
    probs = _softmax(logits)
    return probs, cache


def mlp_predict_proba(model: MlpModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.n_features:
        raise InvalidInputError(
            f"input has {x.shape[1]} features, model expects {model.n_features}"
        )
    probs, _ = _forward(model, x, train=False, rng=None)
    return probs[0] if single else probs


def mlp_predict(model: MlpModel, x: np.ndarray) -> np.ndarray:
    probs = mlp_predict_proba(model, np.atleast_2d(np.asarray(x, dtype=float)))
    return np.argmax(probs, axis=1)


def _loss_from_probs(probs: np.ndarray, labels: np.ndarray, model: MlpModel, weight_decay: float) -> float:
    n = probs.shape[0]
    eps = 1e-300
    data = -float(np.log(probs[np.arange(n), labels] + eps).mean())
    reg = 0.5 * weight_decay * sum(float((w * w).sum()) for w in model.weights)
    return data + reg


def _backward(model: MlpModel, cache: dict, labels: np.ndarray, weight_decay: float):
    """Gradients of mean cross-entropy + L2 penalty for every parameter."""
    n = cache["logits"].shape[0]
    probs = _softmax(cache["logits"])
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    g_weights = [None] * len(model.weights)
    g_biases = [None] * len(model.biases)
    g_bn = (
        [(np.zeros_like(bn.gamma), np.zeros_like(bn.beta)) for bn in model.batchnorm]
        if model.batchnorm is not None
        else None
    )

    for layer in reversed(range(len(model.weights))):
        a_prev = cache["a"][layer]
        g_weights[layer] = a_prev.T @ delta + weight_decay * model.weights[layer]
        g_biases[layer] = delta.sum(axis=0)
        if layer == 0:
            break
        da = delta @ model.weights[layer].T
        hidden = layer - 1  # index into hidden-layer caches
        mask = cache["masks"][hidden]
        if mask is not None:
            da = da * mask
        d_actin = da * _activation_grad(cache["act_in"][hidden], model.activation)
        if model.batchnorm is not None:
            bn = model.batchnorm[hidden]
            mu, var, inv_std = cache["bn_stats"][hidden]
            z_norm = cache["z_norm"][hidden]
            g_bn[hidden] = ((d_actin * z_norm).sum(axis=0), d_actin.sum(axis=0))
            d_znorm = d_actin * bn.gamma
            m = cache["z"][hidden].shape[0]
            zc = cache["z"][hidden] - mu
            d_var = (d_znorm * zc).sum(axis=0) * (-0.5) * inv_std**3
            d_mu = -(d_znorm.sum(axis=0)) * inv_std + d_var * (-2.0 / m) * zc.sum(axis=0)
            delta = d_znorm * inv_std + d_var * (2.0 / m) * zc + d_mu / m
        else:
            delta = d_actin
    return g_weights, g_biases, g_bn


def _activation_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(float)
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 - s)


def _snapshot(model: MlpModel) -> MlpModel:
    return MlpModel(
        model.layer_sizes,
        [w.copy() for w in model.weights],
        [b.copy() for b in model.biases],
        model.activation,
        model.dropout_rate,
        copy.deepcopy(model.batchnorm),
    )


def mlp_train(
    model: MlpModel,
    train: LabeledDataset,
    val: LabeledDataset,
    config: TrainConfig,
) -> TrainResult:
    """Adam training with cross-entropy + L2 weight decay.

    Returns the checkpoint from the epoch of lowest validation loss together
    with per-epoch loss/accuracy curves. Raises TrainingDivergedError (naming
    the epoch) when a non-finite loss appears.
    """
    if val.n_rows == 0:
        raise InvalidInputError("validation set must be non-empty")
    if train.n_rows == 0:
        raise InvalidInputError("training set must be non-empty")
    if train.n_features != model.n_features:
        raise InvalidInputError("training features do not match the model input size")
    if len(train.class_names) != model.n_outputs:
        raise InvalidInputError("class count does not match the model output size")

    rng = np.random.default_rng(config.seed)
    params = _parameter_refs(model)
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    t = 0

    result = TrainResult(model=model, best_epoch=0)
    best_loss = math.inf
    best = None

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(train.n_rows)
        for start in range(0, train.n_rows, config.batch_size):
            batch = order[start : start + config.batch_size]
            xb = train.matrix[batch]
            yb = train.labels[batch]
            with np.errstate(over="ignore", invalid="ignore"):
                probs, cache = _forward(model, xb, train=True, rng=rng)
            if not np.all(np.isfinite(probs)):
                raise TrainingDivergedError(epoch)
            g_w, g_b, g_bn = _backward(model, cache, yb, config.weight_decay)
            grads = _gradient_list(model, g_w, g_b, g_bn)
            t += 1
            lr_t = config.learning_rate * math.sqrt(1 - _ADAM_BETA2**t) / (1 - _ADAM_BETA1**t)
            for p, g, ms, vs in zip(params, grads, m_state, v_state):
                ms *= _ADAM_BETA1
                ms += (1 - _ADAM_BETA1) * g
                vs *= _ADAM_BETA2
                vs += (1 - _ADAM_BETA2) * (g * g)
                p -= lr_t * ms / (np.sqrt(vs) + _ADAM_EPS)

        with np.errstate(over="ignore", invalid="ignore"):
            train_probs, _ = _forward(model, train.matrix, train=False, rng=None)
            val_probs, _ = _forward(model, val.matrix, train=False, rng=None)
            tr_loss = _loss_from_probs(train_probs, train.labels, model, config.weight_decay)
            va_loss = _loss_from_probs(val_probs, val.labels, model, config.weight_decay)
        if not (math.isfinite(tr_loss) and math.isfinite(va_loss)):
            raise TrainingDivergedError(epoch)
        result.train_loss.append(tr_loss)
        result.val_loss.append(va_loss)
        result.train_accuracy.append(float((np.argmax(train_probs, axis=1) == train.labels).mean()))
        result.val_accuracy.append(float((np.argmax(val_probs, axis=1) == val.labels).mean()))
        if va_loss < best_loss:
            best_loss = va_loss
            best = _snapshot(model)
            result.best_epoch = epoch

    result.model = best if best is not None else _snapshot(model)
    return result


def _parameter_refs(model: MlpModel) -> list[np.ndarray]:
    params = list(model.weights) + list(model.biases)
    if model.batchnorm is not None:
        for bn in model.batchnorm:
            params.extend([bn.gamma, bn.beta])
    return params


def _gradient_list(model: MlpModel, g_w, g_b, g_bn) -> list[np.ndarray]:
    grads = list(g_w) + list(g_b)
    if model.batchnorm is not None:
        for gg, gb in g_bn:
            grads.extend([gg, gb])
    return grads
