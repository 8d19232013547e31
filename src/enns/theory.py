"""Closed-form selection probabilities for the null-model criterion
c_j = |x_(j)' y| under an orthonormalized Gaussian design, together with
Monte-Carlo oracles that simulate the construction directly.

The criteria are folded normal FN(|beta_j|, sigma^2) and independent across
columns, so pairwise comparisons reduce to bivariate-normal orthant
probabilities and the first-selection probability to a one-dimensional
integral of folded-normal densities and CDFs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .seeding import spawn_rng

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SignalProfile:
    """Linear signal strengths: betas (zero beyond the support), noise sd."""

    betas: np.ndarray
    sigma: float
    s: int

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64).ravel()
        object.__setattr__(self, "betas", betas)
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 1 <= self.s <= betas.size:
            raise ValueError("support size must be in 1..p")
        if betas.size > self.s and np.any(betas[self.s :] != 0.0):
            raise ValueError("betas beyond the support must be zero")

    @property
    def p(self) -> int:
        return self.betas.size


def folded_normal_cdf(x, mu: float, sigma: float):
    """CDF of |N(mu, sigma^2)| at x >= 0:
    (erf((x+|mu|)/sqrt(2 sigma^2)) + erf((x-|mu|)/sqrt(2 sigma^2))) / 2."""
    x = np.asarray(x, dtype=np.float64)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if np.any(x < 0):
        raise ValueError("x must be non-negative")
    mu = abs(mu)
    denom = np.sqrt(2.0 * sigma * sigma)
    val = 0.5 * (special.erf((x + mu) / denom) + special.erf((x - mu) / denom))
    return val if val.ndim else float(val)


def folded_normal_pdf(x, mu: float, sigma: float):
    """Density of |N(mu, sigma^2)| at x >= 0, computed in the overflow-safe
    two-Gaussian form phi(x-mu) + phi(x+mu) (identical to the
    sqrt(2/(pi sigma^2)) exp(-(x^2+mu^2)/(2 sigma^2)) cosh(mu x / sigma^2)
    expression)."""
    x = np.asarray(x, dtype=np.float64)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if np.any(x < 0):
        raise ValueError("x must be non-negative")
    mu = abs(mu)
    c = 1.0 / np.sqrt(2.0 * np.pi * sigma * sigma)
    val = c * (
        np.exp(-((x - mu) ** 2) / (2.0 * sigma * sigma))
        + np.exp(-((x + mu) ** 2) / (2.0 * sigma * sigma))
    )
    return val if val.ndim else float(val)


def orthant_prob(a: float, b: float, rho: float) -> float:
    """Upper-orthant probability P(X1 > a, X2 > b) of a standard bivariate
    normal with correlation rho, by conditional-normal reduction to a 1-D
    integral (accurate well below 1e-8)."""
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must be strictly inside (-1, 1)")
    scale = np.sqrt(1.0 - rho * rho)

    def integrand(x: float) -> float:
        return float(np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) * special.ndtr((rho * x - b) / scale))

    lower = max(a, -40.0)
    val, _ = integrate.quad(integrand, lower, 40.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return float(min(max(val, 0.0), 1.0))


def prob_select_over(beta_j: float, beta_k: float, sigma: float) -> float:
    """P(c_j < c_k) for null-model criteria c = |beta + sigma Z|:

    2L((|bj|-|bk|)/(sqrt2 s), -|bk|/s, 1/sqrt2) + 2L((|bj|+|bk|)/(sqrt2 s),
    |bk|/s, 1/sqrt2) + Phi((|bj|-|bk|)/(sqrt2 s)) + Phi((|bj|+|bk|)/(sqrt2 s)) - 2.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    bj, bk = abs(beta_j), abs(beta_k)
    rho = 1.0 / _SQRT2
    diff = (bj - bk) / (_SQRT2 * sigma)
    summ = (bj + bk) / (_SQRT2 * sigma)
    val = (
        2.0 * orthant_prob(diff, -bk / sigma, rho)
        + 2.0 * orthant_prob(summ, bk / sigma, rho)
        + float(special.ndtr(diff))
        + float(special.ndtr(summ))
        - 2.0
    )
    return float(min(max(val, 0.0), 1.0))


def prob_first_correct(profile: SignalProfile) -> float:
    """Probability that the largest criterion lies in the support:
    sum_{k<=s} integral_0^inf f_k(x) prod_{j!=k} F_j(x) dx, with the product
    evaluated in the log domain."""
    betas = np.abs(profile.betas)
    sigma = profile.sigma
    upper = float(betas.max()) + 12.0 * sigma  # tail mass beyond is < 1e-30

    def make_integrand(k: int):
        def integrand(x: float) -> float:
            cdfs = 0.5 * (
                special.erf((x + betas) / (_SQRT2 * sigma))
                + special.erf((x - betas) / (_SQRT2 * sigma))
            )
            cdfs = np.clip(cdfs, 1e-300, 1.0)
            log_prod = float(np.sum(np.log(cdfs)) - np.log(cdfs[k]))
            return folded_normal_pdf(x, betas[k], sigma) * np.exp(log_prod)

        return integrand

    total = 0.0
    for k in range(profile.s):
        val, _ = integrate.quad(make_integrand(k), 0.0, upper, epsabs=1e-11, epsrel=1e-11, limit=300)
        total += val
    return float(min(max(total, 0.0), 1.0))


def mc_first_selection(
    profile: SignalProfile, n: int, reps: int, seed: int, chunk: int = 20000
) -> float:
    """Simulate the orthonormalized-design construction directly: draw a
    Gaussian n x p design, orthonormalize its columns, form y = X beta + eps
    and return the fraction of replications whose argmax_j |x_(j)' y| lies in
    the support."""
    if reps < 1:
        raise ValueError("reps must be positive")
    if n < profile.p:
        raise ValueError("need n >= p to orthonormalize the design columns")
    rng = spawn_rng(seed, "mc-first")
    betas = np.abs(profile.betas)
    hits = 0
    done = 0
    while done < reps:
        c = min(chunk, reps - done)
        g = rng.standard_normal((c, n, profile.p))
        q = np.linalg.qr(g)[0]
        eps = rng.standard_normal((c, n))
        y = np.einsum("cnp,p->cn", q, betas) + profile.sigma * eps
        scores = np.abs(np.einsum("cnp,cn->cp", q, y))
        hits += int(np.sum(np.argmax(scores, axis=1) < profile.s))
        done += c
    return hits / reps


def mc_select_over(
    beta_j: float,
    beta_k: float,
    sigma: float,
    reps: int,
    seed: int,
    n: int = 16,
    chunk: int = 50000,
) -> float:
    """Monte-Carlo estimate of P(|x_(j)' y| < |x_(k)' y|) with two
    orthonormalized Gaussian columns and y = beta_j x_(j) + beta_k x_(k) + eps."""
    if reps < 1:
        raise ValueError("reps must be positive")
    if n < 2:
        raise ValueError("need n >= 2")
    rng = spawn_rng(seed, "mc-pair")
    wins = 0
    done = 0
    while done < reps:
        c = min(chunk, reps - done)
        a = rng.standard_normal((c, n))
        b = rng.standard_normal((c, n))
        q1 = a / np.linalg.norm(a, axis=1, keepdims=True)
        proj = np.einsum("cn,cn->c", q1, b)
        b_perp = b - proj[:, None] * q1
        q2 = b_perp / np.linalg.norm(b_perp, axis=1, keepdims=True)
        eps = rng.standard_normal((c, n))
        y = abs(beta_j) * q1 + abs(beta_k) * q2 + sigma * eps
        cj = np.abs(np.einsum("cn,cn->c", q1, y))
        ck = np.abs(np.einsum("cn,cn->c", q2, y))
        wins += int(np.sum(cj < ck))
        done += c
    return wins / reps
