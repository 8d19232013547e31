"""Selection and prediction metrics: support recovery counts, regression
errors and threshold/rank classification scores."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.stats import rankdata


@dataclass(frozen=True)
class SelectionMetrics:
    true_positives: int
    false_positives: int
    false_positive_rate: float


@dataclass(frozen=True)
class PredictionMetrics:
    """Regression fills rmse/mae/mape; classification fills accuracy/auc/f1.
    auc is None when only one class is present."""

    rmse: Optional[float] = None
    mae: Optional[float] = None
    mape: Optional[float] = None
    accuracy: Optional[float] = None
    auc: Optional[float] = None
    f1: Optional[float] = None

    def as_dict(self) -> dict[str, Optional[float]]:
        if self.rmse is not None:
            return {"rmse": self.rmse, "mae": self.mae, "mape": self.mape}
        return {"accuracy": self.accuracy, "auc": self.auc, "f1": self.f1}


def selection_metrics(selected: Iterable[int], true_support: Iterable[int]) -> SelectionMetrics:
    """Support-recovery counts; the false-positive rate is the share of
    selected features outside the true support (0 for an empty selection)."""
    sel = set(int(j) for j in selected)
    sup = set(int(j) for j in true_support)
    tp = len(sel & sup)
    fp = len(sel - sup)
    fpr = fp / len(sel) if sel else 0.0
    return SelectionMetrics(true_positives=tp, false_positives=fp, false_positive_rate=fpr)


def regression_metrics(y: np.ndarray, yhat: np.ndarray) -> PredictionMetrics:
    """RMSE, MAE and MAPE (MAPE averages |(y-yhat)/y| over nonzero y only;
    NaN if every response is zero, inf if a ratio overflows because some y is
    tiny)."""
    y = np.asarray(y, dtype=np.float64).ravel()
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    if y.size == 0:
        raise ValueError("empty vectors")
    if y.shape != yhat.shape:
        raise ValueError("length mismatch")
    err = y - yhat
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    nonzero = y != 0.0
    with np.errstate(over="ignore"):
        mape = float(np.mean(np.abs(err[nonzero] / y[nonzero]))) if np.any(nonzero) else float("nan")
    return PredictionMetrics(rmse=rmse, mae=mae, mape=mape)


def classification_metrics(
    y: np.ndarray, p_hat: np.ndarray, threshold: float = 0.5
) -> PredictionMetrics:
    """Accuracy and F1 at the threshold (positive class 1, F1 = 0 when
    undefined) and AUC by the rank statistic with ties counted half."""
    y = np.asarray(y, dtype=np.float64).ravel()
    p_hat = np.asarray(p_hat, dtype=np.float64).ravel()
    if y.size == 0:
        raise ValueError("empty vectors")
    if y.shape != p_hat.shape:
        raise ValueError("length mismatch")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0/1")
    if np.any((p_hat < 0.0) | (p_hat > 1.0)):
        raise ValueError("scores must lie in [0, 1]")

    pred = (p_hat > threshold).astype(np.float64)
    accuracy = float(np.mean(pred == y))

    n_pos = int(np.sum(y == 1.0))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        auc = None
    else:
        ranks = rankdata(p_hat)  # average ranks: tied pairs count half
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
    return PredictionMetrics(accuracy=accuracy, auc=auc, f1=float(f1))
