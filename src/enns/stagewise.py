"""Stage-wise greedy feature admission for feedforward networks.

The model is trained with candidate input rows frozen at zero; candidates are
scored by the (dropout-averaged) l_q norm of the loss gradient with respect
to their input-layer weight rows, and the argmax is admitted. Repeating this
until a target count is reached yields the deep-neural-pursuit style selector
used both for screening and for stage-wise refitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .network import (
    Dataset,
    NetworkArchitecture,
    NetworkParameters,
    TrainOptions,
    backward,
    dropout_mask,
    train,
    xavier_init,
    xavier_row,
)
from .seeding import derive_seed


@dataclass(frozen=True)
class SelectionState:
    """Partition of feature indices into selected (ordered) and candidates.

    The intercept is always in the model implicitly and is not indexed.
    """

    selected: tuple[int, ...]
    candidates: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "selected", tuple(int(j) for j in self.selected))
        object.__setattr__(self, "candidates", frozenset(int(j) for j in self.candidates))
        sel = set(self.selected)
        if len(sel) != len(self.selected):
            raise ValueError("selected contains duplicates")
        if sel & self.candidates:
            raise ValueError("selected and candidates must be disjoint")
        universe = sel | self.candidates
        if universe != set(range(len(universe))):
            raise ValueError("selected and candidates must partition 0..p-1")

    @classmethod
    def initial(cls, p: int) -> "SelectionState":
        return cls(selected=(), candidates=frozenset(range(p)))

    def admit(self, j: int) -> "SelectionState":
        if j not in self.candidates:
            raise ValueError(f"feature {j} is not a candidate")
        return SelectionState(self.selected + (j,), self.candidates - {j})


@dataclass(frozen=True)
class DnpConfig:
    """Scoring and inner-training controls for the stage-wise selector."""

    norm_q: float = 2.0
    num_dropouts: int = 3
    dropout_rate: float = 0.5
    train_opts: TrainOptions = field(default_factory=TrainOptions)

    def __post_init__(self):
        if self.norm_q < 1.0:
            raise ValueError("norm_q must be >= 1")
        if self.num_dropouts < 1:
            raise ValueError("num_dropouts must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


def _row_norms(matrix: np.ndarray, q: float) -> np.ndarray:
    if q == 2.0:
        return np.sqrt(np.sum(matrix * matrix, axis=1))
    return np.sum(np.abs(matrix) ** q, axis=1) ** (1.0 / q)


def candidate_scores(
    params: NetworkParameters,
    arch: NetworkArchitecture,
    data: Dataset,
    state: SelectionState,
    cfg: DnpConfig,
    seed: int,
) -> dict[int, float]:
    """Dropout-averaged gradient-norm score for every candidate feature.

    With num_dropouts=1 and dropout_rate=0 this reduces to the plain l_q norm
    of the input-layer gradient rows.
    """
    if not state.candidates:
        raise ValueError("candidate set is empty")
    cand = np.array(sorted(state.candidates), dtype=int)
    if np.any(params.weights[0][cand] != 0.0):
        raise ValueError("candidate input rows must be frozen at zero when scoring")
    totals = np.zeros(cand.shape[0])
    for b in range(cfg.num_dropouts):
        masked = dropout_mask(params, cfg.dropout_rate, derive_seed(seed, "dropout", b))
        grads = backward(masked, arch, data)
        totals += _row_norms(grads.weights[0][cand], cfg.norm_q)
    totals /= cfg.num_dropouts
    return {int(j): float(v) for j, v in zip(cand, totals)}


def select_next(scores: Mapping[int, float]) -> int:
    """Key with the maximal score; exact ties broken by the smallest index."""
    if not scores:
        raise ValueError("empty score map")
    best = None
    for j in sorted(scores):
        if best is None or scores[j] > scores[best]:
            best = j
    return int(best)


def stagewise_fit(
    data: Dataset,
    arch_template: NetworkArchitecture,
    s_target: int,
    cfg: DnpConfig,
    seed: int,
) -> tuple[list[int], NetworkParameters]:
    """Admit ``s_target`` features one at a time; returns (admission order,
    parameters after the last admission).

    Before each admission the network is trained with the candidate input rows
    frozen at zero (step k trains with seed ``derive_seed(seed, "train", k)``).
    Weights are warm-started between admissions; a freshly admitted feature's
    input row is re-drawn at the layer's Xavier scale so its next gradient is
    not pinned at zero. The returned parameters are not trained after the last
    admission.
    """
    p = data.p
    if not 1 <= s_target <= p:
        raise ValueError("s_target must be in 1..p")
    arch = replace(arch_template, input_dim=p, task=data.task)
    params = xavier_init(arch, derive_seed(seed, "init"))
    params.weights[0][:] = 0.0
    state = SelectionState.initial(p)

    for step in range(s_target):
        opts = replace(cfg.train_opts, rng_seed=derive_seed(seed, "train", step))
        params = train(params, arch, data, opts, state.selected)
        scores = candidate_scores(params, arch, data, state, cfg, derive_seed(seed, "score", step))
        j = select_next(scores)
        state = state.admit(j)
        params.weights[0][j] = xavier_row(arch, derive_seed(seed, "admit", step))
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
