"""Dense feedforward network engine: containers, forward/backward passes,
Adagrad training with early stopping, Xavier initialization and connection
dropout.

``backward`` returns the empirical loss of the forward pass it runs together
with the gradients, so a full-batch training epoch with no validation split
runs the network forward once: each checkpoint is scored by the next epoch's
``backward``.

Everything is plain numpy with float64 arrays. Functions never mutate their
arguments, except ``adagrad_step``; training works on private copies, so
parameter containers behave as immutable values and independent calls are safe
to run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .seeding import spawn_rng

EPS_CLIP = 1e-12  # probability clipping before logs
EPS_ADAGRAD = 1e-8

ACTIVATIONS = ("relu", "sigmoid")
TASKS = ("regression", "classification")


class NumericalError(RuntimeError):
    """A training or evaluation step produced a non-finite loss."""


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: e = exp(-|z|) <= 1 on both sides of 0."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    return sigmoid(z)


@dataclass(frozen=True)
class NetworkArchitecture:
    """Shape and task of a feedforward net with scalar output."""

    input_dim: int
    hidden_sizes: tuple[int, ...]
    hidden_activation: str = "relu"
    task: str = "regression"

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.input_dim < 0:
            raise ValueError("input_dim must be >= 0")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be non-empty with positive entries")
        if self.hidden_activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.hidden_activation!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")

    @property
    def num_hidden_layers(self) -> int:
        return len(self.hidden_sizes)

    @property
    def weight_shapes(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_sizes, 1]
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]


@dataclass(eq=False)
class NetworkParameters:
    """Layers (W_0, t_0)..(W_m, t_m) of the affine maps a_i -> a_i @ W_i + t_i;
    ``intercepts[i]`` has shape (fan_out_i,), so ``intercepts[-1]`` is the
    length-1 output intercept.

    Gradients from ``backward`` use this type too; Adagrad accumulators do
    not: ``train`` keeps its accumulator as one flat vector. Instances compare
    and hash by identity.
    """

    weights: list[np.ndarray]
    intercepts: list[np.ndarray]

    def copy(self) -> "NetworkParameters":
        return NetworkParameters([w.copy() for w in self.weights], [t.copy() for t in self.intercepts])

    def validate_for(self, arch: NetworkArchitecture) -> None:
        shapes = [w.shape for w in self.weights]
        if shapes != arch.weight_shapes:
            raise ValueError(f"weight shapes {shapes} do not match architecture {arch.weight_shapes}")
        t_shapes = [t.shape for t in self.intercepts]
        if t_shapes != [(fan_out,) for _, fan_out in arch.weight_shapes]:
            raise ValueError(f"intercept shapes {t_shapes} do not match architecture {arch.weight_shapes}")
        if not all(np.all(np.isfinite(arr)) for arr in (*self.weights, *self.intercepts)):
            raise ValueError("non-finite parameter entries")


def _check_shapes(x: np.ndarray, y: np.ndarray) -> None:
    if x.ndim != 2:
        raise ValueError("x must be a 2-D matrix")
    if y.shape != (x.shape[0],):
        raise ValueError("y length must equal number of rows of x")
    if x.shape[0] < 1:
        raise ValueError("need at least one observation")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design matrix, response vector and task kind.

    The constructor checks every value; ``subset_rows`` and ``subset_columns``
    take values from a checked ``Dataset``, so they check only shapes.
    Instances compare and hash by identity.
    """

    x: np.ndarray
    y: np.ndarray
    task: str = "regression"

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        _check_shapes(x, y)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite entries in data")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == "classification" and not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("classification responses must be 0/1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def _part(self, x: np.ndarray, y: np.ndarray) -> "Dataset":
        _check_shapes(x, y)
        part = object.__new__(Dataset)
        object.__setattr__(part, "x", x)
        object.__setattr__(part, "y", y)
        object.__setattr__(part, "task", self.task)
        return part

    def subset_rows(self, idx: np.ndarray) -> "Dataset":
        return self._part(self.x[idx], self.y[idx])

    def subset_columns(self, cols: Sequence[int]) -> "Dataset":
        # take copies into a row-major array, which keeps all-column products bit-identical
        return self._part(np.take(self.x, cols, axis=1), self.y)


@dataclass(frozen=True)
class TrainOptions:
    """Knobs for the Adagrad training loop."""

    learning_rate: float = 0.1
    max_epochs: int = 200
    batch_size: int | None = None
    patience: int = 10
    validation_fraction: float = 0.0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when given")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        if self.patience > self.max_epochs and self.max_epochs > 0:
            raise ValueError("patience must not exceed max_epochs")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")


def xavier_init(arch: NetworkArchitecture, seed: int) -> NetworkParameters:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)); zero intercepts."""
    rng = np.random.default_rng(seed)
    weights, intercepts = [], []
    for fan_in, fan_out in arch.weight_shapes:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        intercepts.append(np.zeros(fan_out))
    return NetworkParameters(weights, intercepts)


def xavier_row(arch: NetworkArchitecture, seed: int) -> np.ndarray:
    """One freshly drawn input-layer row, at the input layer's Xavier scale."""
    fan_in, fan_out = arch.weight_shapes[0]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return np.random.default_rng(seed).uniform(-bound, bound, size=fan_out)


def _forward_internal(params: NetworkParameters, arch: NetworkArchitecture, x: np.ndarray):
    """Returns (activations list a_0..a_m, pre-activations z_1..z_m, raw output)."""
    acts = [x]
    zs = []
    a = x
    for i in range(arch.num_hidden_layers):
        z = a @ params.weights[i] + params.intercepts[i]
        a = _activation(arch.hidden_activation, z)
        zs.append(z)
        acts.append(a)
    out = (a @ params.weights[-1] + params.intercepts[-1]).ravel()
    return acts, zs, out


def _outputs(out: np.ndarray, task: str) -> np.ndarray:
    if task == "classification":
        return np.clip(sigmoid(out), EPS_CLIP, 1.0 - EPS_CLIP)
    return out


def forward_batch(params: NetworkParameters, arch: NetworkArchitecture, x: np.ndarray) -> np.ndarray:
    """Network outputs for every row of ``x``; classification outputs are
    sigmoid probabilities clipped into the open unit interval."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ValueError(f"input has {x.shape} but architecture expects {arch.input_dim} columns")
    return _outputs(_forward_internal(params, arch, x)[2], arch.task)


def _loss(eta: np.ndarray, data: Dataset) -> float:
    """Empirical loss of the network outputs ``eta`` on ``data``; raises
    ``NumericalError`` when it is not finite."""
    y = data.y
    if data.task == "regression":
        r = y - eta
        loss = float(np.add.reduce(r * r)) / len(y)
    else:
        loss = -float(np.mean(y * np.log(eta) + (1.0 - y) * np.log(1.0 - eta)))
    if not math.isfinite(loss):
        raise NumericalError("non-finite empirical loss")
    return loss


def _check_fits(arch: NetworkArchitecture, data: Dataset) -> None:
    if data.p != arch.input_dim:
        raise ValueError("data does not match architecture input_dim")
    if data.task != arch.task:
        raise ValueError("data task does not match architecture task")


def empirical_loss(params: NetworkParameters, arch: NetworkArchitecture, data: Dataset) -> float:
    """Mean squared error (regression) or negative mean log-likelihood
    (classification, probabilities clipped into [EPS_CLIP, 1 - EPS_CLIP]
    before logs; ``backward`` differentiates the unclipped loss)."""
    _check_fits(arch, data)
    return _loss(forward_batch(params, arch, data.x), data)


def _deltas(
    params: NetworkParameters,
    arch: NetworkArchitecture,
    data: Dataset,
    acts: list[np.ndarray],
    zs: list[np.ndarray],
    out: np.ndarray,
) -> list[np.ndarray]:
    """The deltas d_0..d_m of ``layer_deltas`` from one forward pass's values."""
    n = data.n
    if data.task == "regression":
        delta = (2.0 / n) * (out - data.y)
    else:
        delta = (sigmoid(out) - data.y) / n
    deltas = [delta[:, None]]  # d_m, (n, 1); d_m-1 .. d_0 follow
    relu = arch.hidden_activation == "relu"
    for layer in range(arch.num_hidden_layers, 0, -1):
        delta = deltas[-1] @ params.weights[layer].T
        # relu gradient at exactly 0 is taken as 1 so that cold-start layers
        # (all-zero pre-activations) still pass gradient signal downward.
        if relu:
            delta *= zs[layer - 1] >= 0.0
        else:
            a = acts[layer]
            delta *= a * (1.0 - a)
        deltas.append(delta)
    return deltas[::-1]


def layer_deltas(
    params: NetworkParameters, arch: NetworkArchitecture, data: Dataset
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Activations a_0..a_m (a_0 = x) and per-row deltas d_0..d_m of one pass:
    d_i is the gradient of the empirical loss with respect to the layer-i
    output a_i @ W_i + t_i, so dL/dW_i = a_i' d_i, and the gradient of a zero
    input row for a column x_j outside ``data`` is x_j' d_0. Classification
    differentiates the unclipped log-likelihood, while ``empirical_loss`` clips
    at ``EPS_CLIP``; they differ only where |raw output| > log(1/EPS_CLIP) ~ 27.6.
    """
    _check_fits(arch, data)
    acts, zs, out = _forward_internal(params, arch, data.x)
    return acts, _deltas(params, arch, data, acts, zs, out)


def backward(
    params: NetworkParameters, arch: NetworkArchitecture, data: Dataset
) -> tuple[float, NetworkParameters]:
    """``(empirical_loss, gradients)`` from one forward pass: the loss equals
    ``empirical_loss(params, arch, data)`` exactly, and the gradients of every
    weight and intercept are exact (see ``layer_deltas``); an all-zero input
    row gets its gradient too. A non-finite loss raises ``NumericalError``
    before any gradient arithmetic runs."""
    _check_fits(arch, data)
    acts, zs, out = _forward_internal(params, arch, data.x)
    loss = _loss(_outputs(out, arch.task), data)
    deltas = _deltas(params, arch, data, acts, zs, out)
    g_weights = [a.T @ d for a, d in zip(acts, deltas)]
    return loss, NetworkParameters(g_weights, [np.add.reduce(d, axis=0) for d in deltas])


def adagrad_step(theta: np.ndarray, grad: np.ndarray, acc: np.ndarray, lr: float) -> None:
    """One Adagrad update of flat float64 vectors, in place: acc += g*g, then
    theta -= lr*g / (sqrt(acc) + eps). ``grad`` is left holding the step taken."""
    if not lr > 0:
        raise ValueError("learning rate must be positive")
    acc += grad * grad
    grad *= lr
    grad /= np.sqrt(acc) + EPS_ADAGRAD
    theta -= grad


def dropout_mask(params: NetworkParameters, rate: float, seed: int) -> NetworkParameters:
    """Copy of ``params`` with each hidden/output weight entry (never the
    input layer W_0) independently zeroed with probability ``rate``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    rng = np.random.default_rng(seed)
    masked = params.copy()
    for w in masked.weights[1:]:
        w *= rng.random(w.shape) >= rate
    return masked


def _layer_views(flat: np.ndarray, arch: NetworkArchitecture) -> NetworkParameters:
    """Views of a vector laid out as W_0..W_m (row-major), then t_0..t_m."""
    shapes = [*arch.weight_shapes, *((fan_out,) for _, fan_out in arch.weight_shapes)]
    arrays, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        arrays.append(flat[start:stop].reshape(shape))
        start = stop
    m = len(arch.weight_shapes)
    return NetworkParameters(arrays[:m], arrays[m:])


def train(
    params: NetworkParameters,
    arch: NetworkArchitecture,
    data: Dataset,
    opts: TrainOptions,
    seed: int,
    epoch_hook: Callable[[NetworkParameters, int], None] | None = None,
) -> NetworkParameters:
    """Adagrad training of every parameter, returning the best checkpoint.

    ``epoch_hook(params, epoch)`` writes into the arrays of ``params`` and
    returns None: it runs once on the starting point (epoch -1) and after
    every epoch, before the loss is checked, so every checkpoint is a
    post-hook state (the l1 fit thresholds here). With validation_fraction > 0
    the checkpoint with the lowest validation loss is returned, otherwise the
    one with the lowest training loss; ties keep the earlier checkpoint. The
    result shares no memory with ``params``.
    """
    _check_fits(arch, data)
    params.validate_for(arch)

    rng = spawn_rng(seed, "train-loop")
    n_val = int(np.floor(opts.validation_fraction * data.n))
    fit_data = monitor_data = data
    if n_val > 0:
        perm = rng.permutation(data.n)
        monitor_data = data.subset_rows(perm[:n_val])
        fit_data = data.subset_rows(perm[n_val:])
    n_fit = fit_data.n
    full_batch = opts.batch_size is None or opts.batch_size >= n_fit

    # theta, its Adagrad accumulator and the gradient are flat vectors; cur views theta
    theta = np.concatenate([*params.weights, *params.intercepts], axis=None)
    cur = _layer_views(theta, arch)
    if epoch_hook is not None:
        epoch_hook(cur, -1)
    acc = np.zeros_like(theta)
    grad = np.empty_like(theta)
    best = np.empty_like(theta)
    best_loss, stale = math.inf, 0

    # a diverging run overflows to inf or nan, which is reported as a
    # NumericalError; numpy need not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(opts.max_epochs + 1):
            # score checkpoint epoch - 1 (the starting point at epoch 0); while epochs
            # remain, a full-batch pass on the monitored rows computes it with its gradients
            fused = full_batch and n_val == 0 and epoch < opts.max_epochs
            at = epoch - 1  # the epoch a non-finite loss is reported at
            try:
                if fused:
                    loss, g = backward(cur, arch, fit_data)
                else:
                    loss = empirical_loss(cur, arch, monitor_data)
                if loss < best_loss:
                    best_loss, stale = loss, 0
                    best[:] = theta
                else:
                    stale += 1
                if epoch == opts.max_epochs or 0 < opts.patience <= stale:
                    break
                at = epoch
                if full_batch:
                    parts = [fit_data]
                else:
                    order, size = rng.permutation(n_fit), opts.batch_size
                    parts = (fit_data.subset_rows(order[i : i + size]) for i in range(0, n_fit, size))
                for part in parts:
                    if not fused:
                        g = backward(cur, arch, part)[1]
                    np.concatenate([*g.weights, *g.intercepts], axis=None, out=grad)
                    adagrad_step(theta, grad, acc, opts.learning_rate)
            except NumericalError as exc:
                raise NumericalError(f"non-finite loss at epoch {at}") from exc
            if epoch_hook is not None:
                epoch_hook(cur, epoch)
    return _layer_views(best, arch)


# --- model persistence ------------------------------------------------------

MODEL_FORMAT_VERSION = 1


def model_to_json(params: NetworkParameters, arch: NetworkArchitecture) -> dict:
    """Versioned JSON-ready dict: architecture plus row-major weight values."""
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "input_dim": arch.input_dim,
        "hidden_sizes": list(arch.hidden_sizes),
        "hidden_activation": arch.hidden_activation,
        "task": arch.task,
        "weights": [
            {"shape": list(w.shape), "data": [float(v) for v in w.ravel(order="C")]}
            for w in params.weights
        ],
        "hidden_intercepts": [[float(v) for v in t] for t in params.intercepts[:-1]],
        "output_intercept": float(params.intercepts[-1][0]),
    }


def model_from_json(doc: dict) -> tuple[NetworkParameters, NetworkArchitecture]:
    """Inverse of ``model_to_json``; round trips bit-exactly."""
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('format_version')!r}")
    arch = NetworkArchitecture(
        input_dim=int(doc["input_dim"]),
        hidden_sizes=tuple(doc["hidden_sizes"]),
        hidden_activation=doc["hidden_activation"],
        task=doc["task"],
    )
    weights = [
        np.asarray(block["data"], dtype=np.float64).reshape(block["shape"], order="C")
        for block in doc["weights"]
    ]
    intercepts = [np.asarray(t, dtype=np.float64) for t in (*doc["hidden_intercepts"], [doc["output_intercept"]])]
    params = NetworkParameters(weights, intercepts)
    params.validate_for(arch)
    return params, arch


def save_model(path, params: NetworkParameters, arch: NetworkArchitecture) -> None:
    with open(path, "w", encoding="utf8") as fh:
        json.dump(model_to_json(params, arch), fh)


def load_model(path) -> tuple[NetworkParameters, NetworkArchitecture]:
    with open(path, encoding="utf8") as fh:
        return model_from_json(json.load(fh))
