"""Stage-wise greedy feature admission for feedforward networks.

The network has input rows for the admitted columns only; it equals the
full-width network with every candidate input row held at zero. Candidates are
scored by the (dropout-averaged) l_q norm of the loss gradient with respect to
their zero input-layer rows, which is x_j' d_0 for the first-hidden-layer delta
d_0 of the narrow network, so every candidate is scored in one product; the
argmax is admitted. Repeating this until a target count is reached yields the
deep-neural-pursuit style selector used both for screening and for stage-wise
refitting.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field, replace

import numpy as np

from .network import (
    Dataset,
    NetworkArchitecture,
    NetworkParameters,
    TrainOptions,
    dropout_mask,
    layer_deltas,
    train,
    xavier_init,
    xavier_row,
)
from .seeding import derive_seed


@dataclass(frozen=True)
class SelectionState:
    """Admitted feature indices (in admission order) out of 0..p-1; every
    other index is a candidate.

    The intercept is always in the model implicitly and is not indexed.
    """

    selected: tuple[int, ...]
    p: int

    def __post_init__(self):
        object.__setattr__(self, "selected", tuple(int(j) for j in self.selected))
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selected contains duplicates")
        if not all(0 <= j < self.p for j in self.selected):
            raise ValueError("selected indices must be in 0..p-1")

    @property
    def candidates(self) -> frozenset[int]:
        return frozenset(range(self.p)).difference(self.selected)


@dataclass(frozen=True)
class DnpConfig:
    """Scoring and inner-training controls for the stage-wise selector."""

    norm_q: float = 2.0
    num_dropouts: int = 3
    dropout_rate: float = 0.5
    train_opts: TrainOptions = field(default_factory=TrainOptions)

    def __post_init__(self):
        if not self.norm_q >= 1.0:
            raise ValueError("norm_q must be >= 1")
        if self.num_dropouts < 1:
            raise ValueError("num_dropouts must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


def candidate_scores(
    params: NetworkParameters,
    arch: NetworkArchitecture,
    data: Dataset,
    state: SelectionState,
    cfg: DnpConfig,
    seed: int,
) -> np.ndarray:
    """Dropout-averaged gradient-norm score of every column of ``data``.

    ``params`` and ``arch`` are the narrow network: one input row per admitted
    column, in ``sorted(state.selected)`` order; ``data`` has every column.
    Entry j of the returned length-p array is the mean over the dropout copies
    of ||x_j' d_0||_q, the gradient norm of candidate j's zero input row in the
    full-width network; admitted columns score -inf, so ``np.argmax`` is the
    next admission (the smallest index on an exact tie). With num_dropouts=1
    and dropout_rate=0 this reduces to the plain l_q norm of those gradient
    rows.
    """
    rows = sorted(state.selected)
    if len(rows) == state.p:
        raise ValueError("candidate set is empty")
    if params.weights[0].shape[0] != len(rows) or data.p != state.p:
        raise ValueError("params must have one input row per selected column of data")
    narrow = data.subset_columns(rows)
    masked = [dropout_mask(params, cfg.dropout_rate, derive_seed(seed, "dropout", b)) for b in range(cfg.num_dropouts)]
    first_deltas = np.hstack([layer_deltas(m, arch, narrow)[1][0] for m in masked])  # (n, h * num_dropouts)
    grads = (data.x.T @ first_deltas).reshape(data.p, cfg.num_dropouts, -1)
    scores = np.linalg.norm(grads, cfg.norm_q, axis=2).mean(axis=1)
    scores[rows] = -np.inf
    return scores


def stagewise_fit(
    data: Dataset,
    arch_template: NetworkArchitecture,
    s_target: int,
    cfg: DnpConfig,
    seed: int,
) -> tuple[list[int], NetworkParameters]:
    """Admit ``s_target`` features one at a time; returns (admission order,
    parameters after the last admission).

    The parameters are the narrow network throughout: W_0 has one row per
    admitted column, in ``sorted(order)`` column order. Before each admission
    the network is trained on the admitted columns (step k trains with seed
    ``derive_seed(seed, "train", k)``). Weights are warm-started between
    admissions; a freshly admitted feature's input row is drawn at the
    full-width input layer's Xavier scale, so its next gradient is not pinned
    at zero. The returned parameters are not trained after the last admission.
    """
    p = data.p
    if not 1 <= s_target <= p:
        raise ValueError("s_target must be in 1..p")
    arch = replace(arch_template, input_dim=p, task=data.task)
    params = xavier_init(arch, derive_seed(seed, "init"))  # full width: later layers match the full network
    params.weights[0] = params.weights[0][:0]  # no column admitted yet
    state = SelectionState((), p)

    for step in range(s_target):
        rows = sorted(state.selected)
        narrow = replace(arch, input_dim=len(rows))
        params = train(params, narrow, data.subset_columns(rows), cfg.train_opts, derive_seed(seed, "train", step))
        scores = candidate_scores(params, narrow, data, state, cfg, derive_seed(seed, "score", step))
        j = int(np.argmax(scores))
        state = SelectionState(state.selected + (j,), p)
        row = xavier_row(arch, derive_seed(seed, "admit", step))
        params.weights[0] = np.insert(params.weights[0], bisect(rows, j), row, axis=0)
    return list(state.selected), params


def dnp_run(
    data: Dataset,
    arch_template: NetworkArchitecture,
    s_target: int,
    cfg: DnpConfig,
    seed: int,
) -> list[int]:
    """Run the stage-wise selector until ``s_target`` features are admitted;
    returns the admitted indices in admission order."""
    order, _ = stagewise_fit(data, arch_template, s_target, cfg, seed)
    return order
