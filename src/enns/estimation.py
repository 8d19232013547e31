"""Post-selection estimation: l1 soft-threshold training, bagged-dropout
prediction and stage-wise refitting on the selected columns."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .network import (
    Dataset,
    NetworkArchitecture,
    NetworkParameters,
    TrainOptions,
    dropout_mask,
    forward_batch,
    train,
    xavier_init,
)
from .seeding import derive_seed
from .stagewise import DnpConfig, stagewise_fit

SPARSITY_MODES = ("percentile", "explicit_lambda")


def soft_threshold(v: np.ndarray, c: float) -> np.ndarray:
    """Elementwise shrink-toward-zero: sign(v) * max(|v| - c, 0)."""
    if not c >= 0:
        raise ValueError("threshold must be non-negative")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - c, 0.0)


def nearest_rank_percentile(values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile: smallest value v with at least pct% of the
    entries <= v; 0.0 for pct <= 0 (no-op threshold). Sorted, not partitioned:
    ``np.partition`` is ~6x slower on thresholded weights, which tie at zero in bulk."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    if not 0.0 <= pct < 100.0:
        raise ValueError("percentile must be in [0, 100)")
    if flat.size == 0 or pct <= 0.0:
        return 0.0
    k = int(np.ceil(pct / 100.0 * flat.size))
    return float(np.sort(flat)[k - 1])


@dataclass(frozen=True)
class SparsitySpec:
    """Per-layer soft-threshold levels for the hidden/output weight matrices
    (the input layer and intercepts are never thresholded).

    ``explicit_lambda`` mode: proximal constant lambda_l * learning_rate.
    ``percentile`` mode: threshold at that layer's |weight| percentile, so a
    percentile of 50 forces at least 50% exact zeros in the layer.
    """

    mode: str
    per_layer_values: tuple[float, ...]

    def __post_init__(self):
        if self.mode not in SPARSITY_MODES:
            raise ValueError(f"unknown sparsity mode {self.mode!r}")
        if self.per_layer_values is None:
            raise ValueError(f"per_layer_values required in {self.mode} mode")
        object.__setattr__(self, "per_layer_values", tuple(float(v) for v in self.per_layer_values))
        if not all(v >= 0 for v in self.per_layer_values):
            raise ValueError("per_layer_values must be non-negative")
        if self.mode == "percentile" and any(v >= 100.0 for v in self.per_layer_values):
            raise ValueError("per_layer_values must be < 100 in percentile mode")

    def validate_for(self, arch: NetworkArchitecture) -> None:
        """One value per hidden/output weight matrix of ``arch``, that is per hidden layer."""
        if len(self.per_layer_values) != arch.num_hidden_layers:
            raise ValueError(
                "per_layer_values must have one value per hidden_sizes entry "
                f"({arch.num_hidden_layers}), got {len(self.per_layer_values)}"
            )


@dataclass(frozen=True)
class BaggedDropoutSpec:
    """Controls for prediction by averaging randomly pruned network copies."""

    num_repeats: int
    drop_rate: float
    threshold: float = 0.5

    def __post_init__(self):
        if self.num_repeats < 1:
            raise ValueError("num_repeats must be positive")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")


@dataclass(frozen=True)
class BaggedPrediction:
    """Averaged prediction plus the individual pruned-copy predictions."""

    prediction: np.ndarray
    labels: np.ndarray | None
    per_repeat: np.ndarray


def fit_l1(
    data_selected: Dataset,
    arch: NetworkArchitecture,
    spec: SparsitySpec,
    opts: TrainOptions,
    seed: int,
) -> NetworkParameters:
    """Alternate one unpenalized Adagrad epoch with per-layer soft-thresholding.

    ``data_selected`` must already be restricted to the selected columns.
    ``seed`` seeds both the Xavier initialization and ``train``; with all-zero
    explicit lambdas the trajectory is identical to plain ``train`` from the
    same initialization and seed.
    """
    spec.validate_for(arch)

    def threshold_epoch(params: NetworkParameters, epoch: int) -> None:
        for layer, value in enumerate(spec.per_layer_values, start=1):
            w = params.weights[layer]
            if spec.mode == "explicit_lambda":
                c = value * opts.learning_rate
            else:
                c = nearest_rank_percentile(np.abs(w), value)
            w[...] = soft_threshold(w, c)

    return train(xavier_init(arch, seed), arch, data_selected, opts, seed, epoch_hook=threshold_epoch)


def predict_bagged_dropout(
    params: NetworkParameters,
    arch: NetworkArchitecture,
    x: np.ndarray,
    spec: BaggedDropoutSpec,
    seed: int,
) -> BaggedPrediction:
    """Average the outputs of ``num_repeats`` randomly pruned copies.

    Regression: the mean prediction. Classification: the mean probability
    p_hat and labels 1{p_hat > threshold}.
    """
    per = np.stack(
        [
            forward_batch(dropout_mask(params, spec.drop_rate, derive_seed(seed, "repeat", k)), arch, x)
            for k in range(spec.num_repeats)
        ]
    )
    mean = per.mean(axis=0)
    labels = (mean > spec.threshold).astype(np.int64) if arch.task == "classification" else None
    return BaggedPrediction(prediction=mean, labels=labels, per_repeat=per)


def fit_stagewise(
    data_selected: Dataset, arch: NetworkArchitecture, cfg: DnpConfig, seed: int
) -> NetworkParameters:
    """Stage-wise refit on already-selected columns: every column is admitted
    in gradient-norm order with warm-started weights, then trained once more."""
    p = data_selected.p
    _, params = stagewise_fit(data_selected, arch, p, cfg, seed)  # all p admitted: W_0 rows in column order
    arch = replace(arch, input_dim=p, task=data_selected.task)
    return train(params, arch, data_selected, cfg.train_opts, derive_seed(seed, "train", p))
