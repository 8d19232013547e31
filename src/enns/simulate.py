"""Synthetic data generators: uniform and shared-factor correlated designs,
with linear, fixed additive, or random-network responses whose support is
always the first s columns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .network import TASKS, NetworkArchitecture, NetworkParameters, forward_batch, sigmoid
from .seeding import spawn_rng

RESPONSE_KINDS = ("linear", "additive", "network")

DEFAULT_GENERATOR_HIDDEN = (50, 30, 15, 10)


@dataclass(frozen=True)
class ResponseSpec:
    """How to turn a design matrix into responses.

    coef_mean/coef_sd default per task when left None: N(1,1) input weights
    for regression and N(0,1) for classification (linear responses default to
    standard normal coefficients).
    """

    kind: str
    task: str = "regression"
    s: int = 5
    coef_mean: Optional[float] = None
    coef_sd: Optional[float] = None
    noise_sd: float = 1.0
    net_hidden: tuple[int, ...] = DEFAULT_GENERATOR_HIDDEN

    def __post_init__(self):
        if self.kind not in RESPONSE_KINDS:
            raise ValueError(f"unknown response kind {self.kind!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.s < 1:
            raise ValueError("support size s must be positive")
        if self.kind == "additive" and self.s != 5:
            raise ValueError("support size s must be 5 for the additive kind")
        if not 0 <= self.noise_sd < np.inf:
            raise ValueError("noise_sd must be finite and non-negative")
        if self.coef_mean is not None and not np.isfinite(self.coef_mean):
            raise ValueError("coef_mean must be finite")
        if self.coef_sd is not None and not 0 <= self.coef_sd < np.inf:
            raise ValueError("coef_sd must be finite and non-negative")
        object.__setattr__(self, "net_hidden", tuple(int(h) for h in self.net_hidden))
        if self.kind == "network" and not (self.net_hidden and min(self.net_hidden) > 0):
            raise ValueError("net_hidden must be non-empty with positive entries for network responses")

    def resolved_coefs(self) -> tuple[float, float]:
        network_regression = self.kind == "network" and self.task == "regression"
        mean = self.coef_mean if self.coef_mean is not None else (1.0 if network_regression else 0.0)
        sd = self.coef_sd if self.coef_sd is not None else 1.0
        return float(mean), float(sd)


@dataclass(frozen=True)
class GroundTruth:
    """What ``gen_response`` drew beyond the caller's ``ResponseSpec``: the
    support and the linear coefficients or generator-network weights."""

    support: tuple[int, ...]
    linear_coefs: Optional[np.ndarray] = None
    generator_params: Optional[NetworkParameters] = None


def gen_design_uniform(n: int, p: int, seed: int) -> np.ndarray:
    """n x p matrix of i.i.d. Uniform(-1, 1) entries."""
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, p))


def gen_design_correlated(
    n: int, p: int, rho: float, seed: int, truncate: bool = True
) -> np.ndarray:
    """Equicorrelated standard normal design via a shared factor:
    x_ij <- (x_ij + t*u_i)/sqrt(1+t^2) with t = sqrt(rho/(1-rho)) gives
    pairwise correlation rho; entries are then clamped to [-1, 1]
    (pass truncate=False to inspect the pre-truncation matrix)."""
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must be in [0, 1)")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    u = rng.standard_normal(n)
    t = np.sqrt(rho / (1.0 - rho))
    z = (x + t * u[:, None]) / np.sqrt(1.0 + t * t)
    return np.clip(z, -1.0, 1.0) if truncate else z


def _additive_eta(x: np.ndarray) -> np.ndarray:
    return (
        np.sin(x[:, 0])
        + x[:, 1]
        + np.exp(x[:, 2])
        + x[:, 3] ** 2
        + np.log(x[:, 4] + 2.0)
        - 2.0
    )


def _network_generator(
    p: int, spec: ResponseSpec, rng: np.random.Generator
) -> tuple[NetworkParameters, NetworkArchitecture]:
    arch = NetworkArchitecture(
        input_dim=p, hidden_sizes=spec.net_hidden, hidden_activation="relu", task="regression"
    )
    mean, sd = spec.resolved_coefs()
    w0 = np.zeros(arch.weight_shapes[0])
    w0[: spec.s] = rng.normal(mean, sd, size=(spec.s, arch.weight_shapes[0][1]))
    weights = [w0, *(rng.standard_normal(shape) for shape in arch.weight_shapes[1:])]
    return NetworkParameters(weights, [np.zeros(fan_out) for _, fan_out in arch.weight_shapes]), arch


def gen_response(x: np.ndarray, spec: ResponseSpec, seed: int) -> tuple[np.ndarray, GroundTruth]:
    """Responses for a design matrix; the support is always columns 0..s-1.

    Regression adds N(0, noise_sd) noise to the signal; classification draws
    Bernoulli(sigmoid(signal)) labels.
    """
    x = np.asarray(x, dtype=np.float64)
    n, p = x.shape
    if spec.s > p:
        raise ValueError("support size exceeds number of columns")

    w_rng = spawn_rng(seed, "weights")
    beta = gen_params = None
    if spec.kind == "linear":
        mean, sd = spec.resolved_coefs()
        beta = w_rng.normal(mean, sd, size=spec.s)
        eta = x[:, : spec.s] @ beta
    elif spec.kind == "additive":
        eta = _additive_eta(x)
    else:
        gen_params, gen_arch = _network_generator(p, spec, w_rng)
        eta = forward_batch(gen_params, gen_arch, x)

    n_rng = spawn_rng(seed, "noise")
    if spec.task == "regression":
        y = eta + n_rng.normal(0.0, spec.noise_sd, size=n)
    else:
        prob = sigmoid(eta)
        y = (n_rng.random(n) < prob).astype(np.float64)
    return y, GroundTruth(tuple(range(spec.s)), linear_coefs=beta, generator_params=gen_params)
