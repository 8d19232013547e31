"""Desk-scale experiment protocols: directional reproductions of the
synthetic studies, shared by the acceptance suite and the example scripts.

Each study is a pure function of its configuration and seed, so repeated runs
are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ensemble import EnnsConfig, enns_select
from .estimation import SparsitySpec, fit_l1
from .metrics import regression_metrics, selection_metrics
from .network import (
    Dataset,
    NetworkArchitecture,
    TrainOptions,
    forward_batch,
    train,
    xavier_init,
    xavier_row,
)
from .seeding import derive_seed, spawn_rng
from .simulate import ResponseSpec, gen_design_uniform, gen_response
from .stagewise import DnpConfig, SelectionState, candidate_scores, dnp_run, select_next


def selection_train_opts(epochs: int = 50) -> TrainOptions:
    """Inner training options used by the selection studies."""
    return TrainOptions(learning_rate=0.1, max_epochs=epochs, patience=0)


def selection_dnp_config(epochs: int = 50) -> DnpConfig:
    return DnpConfig(num_dropouts=2, dropout_rate=0.5, train_opts=selection_train_opts(epochs))


def next_selection_hit_rate(
    n: int,
    p: int,
    s: int,
    pre_included: int,
    reps: int,
    seed: int,
    hidden: tuple[int, ...] = (10,),
    epochs: int = 60,
) -> float:
    """Share of replications where the next admitted feature is a still-missing
    true feature, after randomly pre-including ``pre_included`` true features.

    Responses are network-generated regression with standard normal generator
    weights on a uniform design.
    """
    cfg = selection_dnp_config(epochs)
    hits = 0
    for rep in range(reps):
        rep_seed = derive_seed(seed, "rep", rep)
        x = gen_design_uniform(n, p, seed=derive_seed(rep_seed, "x"))
        spec = ResponseSpec(kind="network", task="regression", s=s, coef_mean=0.0, coef_sd=1.0)
        y, truth = gen_response(x, spec, seed=derive_seed(rep_seed, "y"))
        data = Dataset(x, y, "regression")
        arch = NetworkArchitecture(p, hidden)
        params = xavier_init(arch, derive_seed(rep_seed, "init"))
        params.weights[0][:] = 0.0
        if pre_included:
            pre = sorted(spawn_rng(rep_seed, "pre").choice(s, size=pre_included, replace=False))
        else:
            pre = []
        for k, j in enumerate(pre):
            params.weights[0][j] = xavier_row(arch, derive_seed(rep_seed, "row", k))
        opts = replace(cfg.train_opts, rng_seed=derive_seed(rep_seed, "train"))
        params = train(params, arch, data, opts, pre)
        state = SelectionState(tuple(pre), frozenset(set(range(p)) - set(pre)))
        scores = candidate_scores(params, arch, data, state, cfg, derive_seed(rep_seed, "score"))
        hits += select_next(scores) in set(truth.support) - set(pre)
    return hits / reps


@dataclass(frozen=True)
class PairedFprResult:
    ensemble_fpr: np.ndarray
    plain_fpr: np.ndarray

    @property
    def mean_difference(self) -> float:
        return float(np.mean(self.plain_fpr - self.ensemble_fpr))


def paired_false_positive_study(
    n: int,
    p: int,
    s: int,
    seeds: int,
    seed: int = 0,
    hidden: tuple[int, ...] = (10,),
    epochs: int = 50,
    num_bags: int = 10,
    proportion: float = 0.3,
) -> PairedFprResult:
    """Per-seed selection false-positive rates of the bagged ensemble versus a
    single stage-wise pass on the same network-generated regression data."""
    dnp_cfg = selection_dnp_config(epochs)
    fpr_e, fpr_d = [], []
    for k in range(seeds):
        rep_seed = derive_seed(seed, "pair", k)
        x = gen_design_uniform(n, p, seed=derive_seed(rep_seed, "x"))
        spec = ResponseSpec(kind="network", task="regression", s=s)
        y, truth = gen_response(x, spec, seed=derive_seed(rep_seed, "y"))
        data = Dataset(x, y, "regression")
        arch = NetworkArchitecture(p, hidden)
        plain = dnp_run(data, arch, s, dnp_cfg, seed=derive_seed(rep_seed, "dnp"))
        cfg = EnnsConfig(
            target_s0=s,
            num_bags=num_bags,
            appearance_proportion=proportion,
            dnp=dnp_cfg,
            seed=derive_seed(rep_seed, "enns"),
        )
        report = enns_select(data, arch, cfg)
        fpr_e.append(selection_metrics(report.selected, truth.support).false_positive_rate)
        fpr_d.append(selection_metrics(plain, truth.support).false_positive_rate)
    return PairedFprResult(np.asarray(fpr_e), np.asarray(fpr_d))


def _effective_signal_floor(
    p: int, spec: ResponseSpec, rep_seed: int, response_seed: int, floor: float
) -> bool:
    """True when every support feature carries detectable marginal signal.

    A large independent probe sample of the noiseless signal is used, so the
    check is method-independent. Random deep generators occasionally produce
    near-even functions whose support features have essentially zero marginal
    association at small n; those draws violate the minimum-signal premise of
    a high-signal study and are redrawn.
    """
    probe_x = gen_design_uniform(2000, p, seed=derive_seed(rep_seed, "probe"))
    noiseless = ResponseSpec(
        kind=spec.kind,
        task="regression",
        s=spec.s,
        coef_mean=spec.coef_mean,
        coef_sd=spec.coef_sd,
        noise_sd=0.0,
        net_hidden=spec.net_hidden,
    )
    eta, _ = gen_response(probe_x, noiseless, seed=response_seed)
    sup = probe_x[:, : spec.s] - probe_x[:, : spec.s].mean(axis=0)
    etac = eta - eta.mean()
    denom = np.linalg.norm(sup, axis=0) * np.linalg.norm(etac)
    if np.any(denom == 0.0):
        return False
    corr = np.abs(sup.T @ etac) / denom
    return bool(np.min(corr) >= floor)


def high_signal_recovery_rate(
    n: int,
    p: int,
    s: int,
    seeds: int,
    seed: int = 0,
    coef_mean: float = 10.0,
    task: str = "regression",
    hidden: tuple[int, ...] = (10,),
    epochs: int = 50,
    subsample_fraction: float = 0.9,
    min_signal_floor: float = 0.2,
) -> float:
    """Share of seeds where the ensemble recovers the exact true support under
    strong generator signal.

    Bags use without-replacement subsampling (keeping more distinct rows per
    bag than a classic bootstrap, which matters at this n); generator draws
    whose support features fail the effective-signal floor are redrawn.
    """
    hits = 0
    for k in range(seeds):
        rep_seed = derive_seed(seed, "hs", k)
        x = gen_design_uniform(n, p, seed=derive_seed(rep_seed, "x"))
        spec = ResponseSpec(kind="network", task=task, s=s, coef_mean=coef_mean, coef_sd=1.0)
        response_seed = derive_seed(rep_seed, "y")
        for attempt in range(20):
            if _effective_signal_floor(p, spec, rep_seed, response_seed, min_signal_floor):
                break
            response_seed = derive_seed(rep_seed, "y", attempt + 1)
        y, truth = gen_response(x, spec, seed=response_seed)
        data = Dataset(x, y, task)
        arch = NetworkArchitecture(p, hidden, task=task)
        cfg = EnnsConfig(
            target_s0=s,
            num_bags=10,
            appearance_proportion=0.3,
            bootstrap_size=int(round(subsample_fraction * n)),
            with_replacement=False,
            dnp=selection_dnp_config(epochs),
            seed=derive_seed(rep_seed, "enns"),
        )
        report = enns_select(data, arch, cfg)
        hits += set(report.selected) == set(truth.support)
    return hits / seeds


@dataclass(frozen=True)
class SparsePlainResult:
    sparse_rmse: np.ndarray
    plain_rmse: np.ndarray

    @property
    def mean_difference(self) -> float:
        return float(np.mean(self.plain_rmse - self.sparse_rmse))


def sparse_versus_plain_rmse(
    seeds: int,
    seed: int = 0,
    n: int = 800,
    s: int = 2,
    n_train: int = 100,
    noise_sd: float = 40.0,
    hidden: tuple[int, ...] = (100, 50),
    percentiles: tuple[float, ...] = (70.0, 70.0),
    epochs: int = 1000,
    batch_size: int = 10,
    learning_rate: float = 0.3,
) -> SparsePlainResult:
    """Paired test RMSE of the l1 soft-threshold fit versus plain training on
    noisy network-generated regression over the true support columns.

    The plain arm trains a heavily over-parameterized net to convergence; the
    soft-threshold arm runs the identical schedule with per-epoch percentile
    shrinkage.
    """
    sparse, plain = [], []
    for k in range(seeds):
        rep_seed = derive_seed(seed, "rmse", k)
        x = gen_design_uniform(n, s, seed=derive_seed(rep_seed, "x"))
        spec = ResponseSpec(
            kind="network", task="regression", s=s, coef_mean=0.0, coef_sd=2.0, noise_sd=noise_sd
        )
        y, _ = gen_response(x, spec, seed=derive_seed(rep_seed, "y"))
        perm = spawn_rng(rep_seed, "split").permutation(n)
        tr, te = perm[:n_train], perm[n_train:]
        data_train = Dataset(x[tr], y[tr], "regression")
        arch = NetworkArchitecture(s, hidden)
        opts = TrainOptions(
            learning_rate=learning_rate,
            max_epochs=epochs,
            batch_size=batch_size,
            patience=0,
            validation_fraction=0.0,
            rng_seed=derive_seed(rep_seed, "train"),
        )
        fitted_plain = train(xavier_init(arch, opts.rng_seed), arch, data_train, opts)
        fitted_sparse = fit_l1(data_train, arch, SparsitySpec("percentile", percentiles), opts)
        plain.append(regression_metrics(y[te], forward_batch(fitted_plain, arch, x[te])).rmse)
        sparse.append(regression_metrics(y[te], forward_batch(fitted_sparse, arch, x[te])).rmse)
    return SparsePlainResult(np.asarray(sparse), np.asarray(plain))
