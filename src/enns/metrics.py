"""Selection and prediction metrics: support recovery counts, regression
errors and threshold/rank classification scores."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


@dataclass(frozen=True)
class SelectionMetrics:
    true_positives: int
    false_positives: int
    false_positive_rate: float


# the prediction metrics of each task, in results-CSV column order
METRIC_COLUMNS = {"regression": ("rmse", "mae", "mape"), "classification": ("accuracy", "auc", "f1")}


def selection_metrics(selected: Iterable[int], true_support: Iterable[int]) -> SelectionMetrics:
    """Support-recovery counts; the false-positive rate is the share of
    selected features outside the true support (0 for an empty selection)."""
    sel = set(int(j) for j in selected)
    sup = set(int(j) for j in true_support)
    tp = len(sel & sup)
    fp = len(sel - sup)
    fpr = fp / len(sel) if sel else 0.0
    return SelectionMetrics(true_positives=tp, false_positives=fp, false_positive_rate=fpr)


def _vectors(y: np.ndarray, yhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as flat float64 vectors of one nonzero length."""
    y = np.asarray(y, dtype=np.float64).ravel()
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    if y.size == 0:
        raise ValueError("empty vectors")
    if y.shape != yhat.shape:
        raise ValueError("length mismatch")
    return y, yhat


def prediction_metrics(task: str, y: np.ndarray, yhat: np.ndarray) -> dict[str, Optional[float]]:
    """The task's ``METRIC_COLUMNS``, in order, as a name -> value dict."""
    return regression_metrics(y, yhat) if task == "regression" else classification_metrics(y, yhat)


def regression_metrics(y: np.ndarray, yhat: np.ndarray) -> dict[str, Optional[float]]:
    """The regression ``METRIC_COLUMNS`` dict: RMSE, MAE and MAPE (MAPE averages
    |(y-yhat)/y| over nonzero y only; NaN if every response is zero, inf if a
    ratio overflows because some y is tiny)."""
    y, yhat = _vectors(y, yhat)
    err = y - yhat
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    nonzero = y != 0.0
    with np.errstate(over="ignore"):
        mape = float(np.mean(np.abs(err[nonzero] / y[nonzero]))) if np.any(nonzero) else float("nan")
    return dict(zip(METRIC_COLUMNS["regression"], (rmse, mae, mape)))


def classification_metrics(y: np.ndarray, p_hat: np.ndarray) -> dict[str, Optional[float]]:
    """The classification ``METRIC_COLUMNS`` dict: accuracy and F1 of the labels
    1{p_hat > 0.5} (positive class 1, F1 = 0 when undefined) and AUC by the rank
    statistic with ties counted half (None when only one class is present)."""
    y, p_hat = _vectors(y, p_hat)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0/1")
    if not np.all((p_hat >= 0.0) & (p_hat <= 1.0)):  # NaN too
        raise ValueError("scores must lie in [0, 1]")

    pred = (p_hat > 0.5).astype(np.float64)
    accuracy = float(np.mean(pred == y))

    n_pos = int(np.sum(y == 1.0))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        auc = None
    else:
        # average ranks, so tied pairs count half: each distinct score takes the
        # mean of the 1-based positions its ties occupy in sorted order
        _, inv, cnt = np.unique(p_hat, return_inverse=True, return_counts=True)
        ranks = (np.cumsum(cnt) - (cnt - 1) / 2.0)[inv]
        auc = float((np.sum(ranks[y == 1.0]) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))

    tp = float(np.sum((pred == 1.0) & (y == 1.0)))
    fp = float(np.sum((pred == 1.0) & (y == 0.0)))
    fn = float(np.sum((pred == 0.0) & (y == 1.0)))
    if tp == 0.0:
        f1 = 0.0
    else:
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = 2.0 * precision * recall / (precision + recall)
    return dict(zip(METRIC_COLUMNS["classification"], (accuracy, auc, float(f1))))
