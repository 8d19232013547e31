"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own code paths: plain Python loops and
finite differences only, so they stay independent of what they check. The
training references are the exception: they reuse ``backward`` and
``empirical_loss`` and replace only the fast paths around them (flat
parameter vectors, in-place updates, unchecked row subsets, and checkpoints
scored by the loss that the next full-batch ``backward`` returns:
``train_reference`` ignores that loss and scores every checkpoint with its
own ``empirical_loss`` call).
"""

from __future__ import annotations

import math

import numpy as np

from enns.network import EPS_ADAGRAD, Dataset, NetworkArchitecture, NetworkParameters, backward, empirical_loss
from enns.seeding import spawn_rng


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
    _, analytic = backward(params, arch, data)
    fd = finite_difference_gradients(params, arch, data, step)

    def rel(a: np.ndarray, b: np.ndarray) -> float:
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
        return float(np.max(np.abs(a - b) / denom))

    pairs = zip((*analytic.weights, *analytic.intercepts), (*fd.weights, *fd.intercepts))
    return max(rel(ga, gf) for ga, gf in pairs)


def adagrad_by_layers(
    params: NetworkParameters, grads: NetworkParameters, accumulator: NetworkParameters, lr: float
) -> tuple[NetworkParameters, NetworkParameters]:
    """One Adagrad update that builds new per-layer arrays:
    acc' = acc + g*g, theta' = theta - lr*g/(sqrt(acc') + eps)."""
    new_theta, new_acc = [], []
    for theta, g, a in zip(
        (*params.weights, *params.intercepts),
        (*grads.weights, *grads.intercepts),
        (*accumulator.weights, *accumulator.intercepts),
    ):
        a2 = a + g * g
        new_acc.append(a2)
        new_theta.append(theta - lr * g / (np.sqrt(a2) + EPS_ADAGRAD))
    m = len(params.weights)
    return NetworkParameters(new_theta[:m], new_theta[m:]), NetworkParameters(new_acc[:m], new_acc[m:])


def train_reference(params: NetworkParameters, arch: NetworkArchitecture, data: Dataset, opts, epoch_hook=None):
    """``train`` as a per-layer loop: a fully checked ``Dataset`` per batch,
    ``adagrad_by_layers`` on fresh arrays, ``epoch_hook(params, epoch)`` that
    returns the parameters to continue from, and a copy per checkpoint."""

    def rows(d: Dataset, idx) -> Dataset:
        return Dataset(d.x[idx], d.y[idx], d.task)

    rng = spawn_rng(opts.rng_seed, "train-loop")
    n_val = int(np.floor(opts.validation_fraction * data.n))
    fit_data = monitor_data = data
    if n_val > 0:
        perm = rng.permutation(data.n)
        monitor_data = rows(data, perm[:n_val])
        fit_data = rows(data, perm[n_val:])

    cur = params.copy()
    if epoch_hook is not None:
        cur = epoch_hook(cur, -1)
    acc = NetworkParameters([np.zeros_like(w) for w in cur.weights], [np.zeros_like(t) for t in cur.intercepts])
    best_loss = empirical_loss(cur, arch, monitor_data)
    best = cur.copy()
    stale = 0
    n_fit = fit_data.n
    full_batch = opts.batch_size is None or opts.batch_size >= n_fit
    for epoch in range(opts.max_epochs):
        if full_batch:
            batches = [np.arange(n_fit)]
        else:
            order = rng.permutation(n_fit)
            batches = [order[i : i + opts.batch_size] for i in range(0, n_fit, opts.batch_size)]
        for idx in batches:
            batch = fit_data if full_batch else rows(fit_data, idx)
            cur, acc = adagrad_by_layers(cur, backward(cur, arch, batch)[1], acc, opts.learning_rate)
        if epoch_hook is not None:
            cur = epoch_hook(cur, epoch)
        loss = empirical_loss(cur, arch, monitor_data)
        if loss < best_loss:
            best_loss = loss
            best = cur.copy()
            stale = 0
        else:
            stale += 1
            if opts.patience > 0 and stale >= opts.patience:
                break
    return best


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
