"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own code paths: plain Python loops and
finite differences only, so they stay independent of what they check. The
training references are the exception: they reuse ``backward`` and
``empirical_loss`` and replace only the fast paths around them (flat
parameter vectors, in-place updates, unchecked row subsets, and checkpoints
scored by the loss that the next full-batch ``backward`` returns:
``train_reference`` ignores that loss and scores every checkpoint with its
own ``empirical_loss`` call). ``mc_first_selection_serial`` is the
first-selection Monte Carlo as one draw, one QR and one scoring pass per
block, one block after another in the calling thread. ``printed_select_over`` and
``printed_first_correct`` are the two selection probabilities as the paper
prints them, by quadrature: bivariate-normal orthant probabilities
(``orthant_prob``) and one integral per support feature. ``sigmoid_masked`` is
the logistic function written half by half through boolean masks, and
``correlated_design_raw`` is the correlated design before its clamp.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

from enns.network import EPS_ADAGRAD, Dataset, NetworkArchitecture, NetworkParameters, backward, empirical_loss
from enns.seeding import spawn_rng
from enns.theory import SignalProfile


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


def sigmoid_masked(z: np.ndarray) -> np.ndarray:
    """1/(1+e^-z) into the entries with z >= 0 and e^z/(1+e^z) into the rest."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def correlated_design_raw(n: int, p: int, rho: float, seed: int) -> np.ndarray:
    """The equicorrelated normal design from the draws ``gen_design_correlated``
    makes, (x_ij + t u_i) / sqrt(1 + t^2) with t = sqrt(rho/(1-rho)), unclamped."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    u = rng.standard_normal(n)
    t = np.sqrt(rho / (1.0 - rho))
    return (x + t * u[:, None]) / np.sqrt(1.0 + t * t)


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


def train_reference(
    params: NetworkParameters, arch: NetworkArchitecture, data: Dataset, opts, seed: int, epoch_hook=None
):
    """``train`` as a per-layer loop: a fully checked ``Dataset`` per batch,
    ``adagrad_by_layers`` on fresh arrays, ``epoch_hook(params, epoch)`` that
    returns the parameters to continue from, and a copy per checkpoint."""

    def rows(d: Dataset, idx) -> Dataset:
        return Dataset(d.x[idx], d.y[idx], d.task)

    rng = spawn_rng(seed, "train-loop")
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


def mc_first_selection_serial(profile: SignalProfile, n: int, reps: int, seed: int, block: int) -> float:
    """``mc_first_selection`` without threads or reused buffers: block i, of
    ``block`` replications (the last one may be short), draws its designs and
    then its noise from its own stream, in the calling thread, one block
    after another."""
    betas = np.abs(profile.betas)
    hits = 0
    for i, done in enumerate(range(0, reps, block)):
        c = min(block, reps - done)
        rng = spawn_rng(seed, "mc-first", i)
        g = rng.standard_normal((c, n, profile.p))
        eps = rng.standard_normal((c, n))
        q = np.linalg.qr(g)[0]
        y = np.einsum("cnp,p->cn", q, betas) + profile.sigma * eps
        scores = np.abs(np.einsum("cnp,cn->cp", q, y))
        hits += int(np.sum(np.argmax(scores, axis=1) < profile.s))
    return hits / reps


def orthant_prob(a: float, b: float, rho: float) -> float:
    """Upper-orthant probability P(X1 > a, X2 > b) of a standard bivariate
    normal with correlation rho, by conditional-normal reduction to a 1-D
    integral (accurate well below 1e-8)."""
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must be strictly inside (-1, 1)")
    scale = np.sqrt(1.0 - rho * rho)

    def integrand(x: float) -> float:
        return float(np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) * special.ndtr((rho * x - b) / scale))

    val, _ = integrate.quad(integrand, max(a, -40.0), 40.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return float(min(max(val, 0.0), 1.0))


def printed_select_over(beta_j: float, beta_k: float, sigma: float) -> float:
    """P(c_j < c_k) as printed, with L the upper-orthant probability:
    2L((|bj|-|bk|)/(sqrt2 s), -|bk|/s, 1/sqrt2) + 2L((|bj|+|bk|)/(sqrt2 s),
    |bk|/s, 1/sqrt2) + Phi((|bj|-|bk|)/(sqrt2 s)) + Phi((|bj|+|bk|)/(sqrt2 s)) - 2."""
    bj, bk = abs(beta_j), abs(beta_k)
    rho = 1.0 / np.sqrt(2.0)
    diff = (bj - bk) / (np.sqrt(2.0) * sigma)
    summ = (bj + bk) / (np.sqrt(2.0) * sigma)
    val = (
        2.0 * orthant_prob(diff, -bk / sigma, rho)
        + 2.0 * orthant_prob(summ, bk / sigma, rho)
        + float(special.ndtr(diff))
        + float(special.ndtr(summ))
        - 2.0
    )
    return float(min(max(val, 0.0), 1.0))


def printed_first_correct(profile: SignalProfile) -> float:
    """P(first pick in the support) as printed, one integral per support
    feature: sum_{k<=s} integral_0^inf f_k(x) prod_{j!=k} F_j(x) dx, with the
    product over all p features in the log domain."""
    betas = np.abs(profile.betas)
    sigma = profile.sigma
    scale = np.sqrt(2.0) * sigma
    upper = float(betas.max()) + 12.0 * sigma  # tail mass beyond is < 1e-30

    def integrand(x: float, k: int) -> float:
        below, above = (x - betas) / scale, (x + betas) / scale
        logs = np.log(np.clip(0.5 * (special.erf(above) + special.erf(below)), 1e-300, 1.0))
        # log F_j as log1p(-(1 - F_j)) where F_j > 1/2: a sum of p logs of
        # rounded F_j near 1 would add up p rounding errors
        tail = 0.5 * (special.erfc(above) + special.erfc(below))
        near_one = tail < 0.5
        logs[near_one] = np.log1p(-tail[near_one])
        pdf = (np.exp(-below[k] ** 2) + np.exp(-above[k] ** 2)) / (np.sqrt(np.pi) * scale)
        return float(pdf * np.exp(np.sum(logs) - logs[k]))

    peaks = np.unique(betas[: profile.s])  # each integrand's peak, as a breakpoint
    total = sum(
        integrate.quad(integrand, 0.0, upper, args=(k,), points=peaks, epsabs=1e-13, epsrel=1e-13, limit=300)[0]
        for k in range(profile.s)
    )
    return float(min(max(total, 0.0), 1.0))
