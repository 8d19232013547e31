"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own code paths: plain Python loops and
finite differences only, so they stay independent of what they check.
"""

from __future__ import annotations

import math

import numpy as np

from enns.network import Dataset, NetworkArchitecture, NetworkParameters, empirical_loss


def loss_by_loops(params: NetworkParameters, arch, x_rows, y_vals, task: str) -> float:
    """Straightforward per-row evaluation of the empirical loss."""

    def act(name, v):
        if name == "relu":
            return max(v, 0.0)
        return 1.0 / (1.0 + math.exp(-v))

    total = 0.0
    for row, yv in zip(x_rows, y_vals):
        a = list(row)
        for layer in range(len(arch.hidden_sizes)):
            w = params.weights[layer]
            t = params.intercepts[layer]
            nxt = []
            for k in range(w.shape[1]):
                z = t[k]
                for i in range(w.shape[0]):
                    z += a[i] * w[i, k]
                nxt.append(act(arch.hidden_activation, z))
            a = nxt
        out = params.intercepts[-1][0]
        for i in range(len(a)):
            out += a[i] * params.weights[-1][i, 0]
        if task == "regression":
            total += (yv - out) ** 2
        else:
            prob = 1.0 / (1.0 + math.exp(-out))
            prob = min(max(prob, 1e-12), 1.0 - 1e-12)
            total += -(yv * math.log(prob) + (1.0 - yv) * math.log(1.0 - prob))
    return total / len(y_vals)


def finite_difference_gradients(
    params: NetworkParameters, arch: NetworkArchitecture, data: Dataset, step: float = 1e-5
):
    """Central finite differences of the empirical loss for every parameter,
    returned as parameter-shaped ``NetworkParameters``."""

    def arrays(p: NetworkParameters) -> list[np.ndarray]:
        return [*p.weights, *p.intercepts]

    grads = [np.zeros_like(arr) for arr in arrays(params)]
    for k, g in enumerate(grads):
        for idx in np.ndindex(*g.shape):
            plus = params.copy()
            arrays(plus)[k][idx] += step
            minus = params.copy()
            arrays(minus)[k][idx] -= step
            g[idx] = (empirical_loss(plus, arch, data) - empirical_loss(minus, arch, data)) / (2 * step)
    m = len(params.weights)
    return NetworkParameters(grads[:m], grads[m:])


def max_relative_gradient_error(
    params: NetworkParameters, arch: NetworkArchitecture, data: Dataset, step: float = 1e-5
) -> float:
    """Worst relative disagreement between backprop and finite differences."""
    from enns.network import backward

    analytic = backward(params, arch, data)
    fd = finite_difference_gradients(params, arch, data, step)

    def rel(a: np.ndarray, b: np.ndarray) -> float:
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
        return float(np.max(np.abs(a - b) / denom))

    pairs = zip((*analytic.weights, *analytic.intercepts), (*fd.weights, *fd.intercepts))
    return max(rel(ga, gf) for ga, gf in pairs)


def auc_by_pair_counting(y, scores) -> float:
    """Exhaustive positive/negative pair counting with ties worth half."""
    pos = [s for yy, s in zip(y, scores) if yy == 1]
    neg = [s for yy, s in zip(y, scores) if yy == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))
