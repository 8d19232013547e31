"""Closed-form selection probabilities for the null-model criterion
c_j = |x_(j)' y| under an orthonormalized Gaussian design, together with
Monte-Carlo oracles that simulate the construction directly.

The criteria are folded normal FN(|beta_j|, sigma^2) and independent across
columns, and both probabilities have exact short forms:

- P(c_j < c_k) = Phi(a) Phi(b) + Phi(-a) Phi(-b), a, b = (|beta_k| -+
  |beta_j|) / (sqrt2 sigma): c_k^2 - c_j^2 = (V - U)(V + U) for the normals
  U, V behind c_j, c_k, and V - U, V + U are independent.
- P(first correct) = 1 - m integral f_0 F_0^(m-1) prod_{k<=s} F_k dx: the first
  pick misses only when the largest of the m = p - s half-normal null criteria
  beats every support criterion.

Every function rejects a NaN or infinite beta and a sigma that is not positive
and finite. The Monte-Carlo oracles draw in fixed-size chunks, so a seed fixes
every estimate. The first-selection one gives each block of replications its own
random stream, runs the blocks on one thread per usable core and scores each
block in slices of designs; the pair one divides ``pair_wins``, a count that a
caller may run on a thread of its own, which draws each chunk whole and does its
arithmetic in slices of rows. No design's or row's numbers depend on the slice.
Only numpy and the standard library are used: erf and erfc come from ``math``.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
import math
import threading

import numpy as np

from .cores import usable_cores
from .seeding import spawn_rng

_SQRT2 = np.sqrt(2.0)
_erf = np.vectorize(math.erf, otypes=[np.float64])
_erfc = np.vectorize(math.erfc, otypes=[np.float64])
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANELS = 48


def _check_signal(sigma: float, *betas) -> None:
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")
    if not np.all(np.isfinite(betas)):
        raise ValueError("betas must be finite")


@dataclass(frozen=True)
class SignalProfile:
    """Linear signal strengths: betas (zero beyond the support), noise sd."""

    betas: np.ndarray
    sigma: float
    s: int

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64).ravel()
        object.__setattr__(self, "betas", betas)
        _check_signal(self.sigma, betas)
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
    _check_signal(sigma, mu)
    if np.any(x < 0):
        raise ValueError("x must be non-negative")
    mu = abs(mu)
    denom = np.sqrt(2.0 * sigma * sigma)
    val = 0.5 * (_erf((x + mu) / denom) + _erf((x - mu) / denom))
    return val if val.ndim else float(val)


def folded_normal_pdf(x, mu: float, sigma: float):
    """Density of |N(mu, sigma^2)| at x >= 0 in the overflow-safe form
    phi(x-mu) + phi(x+mu), identical to the expression
    sqrt(2/(pi sigma^2)) exp(-(x^2+mu^2)/(2 sigma^2)) cosh(mu x / sigma^2)."""
    x = np.asarray(x, dtype=np.float64)
    _check_signal(sigma, mu)
    if np.any(x < 0):
        raise ValueError("x must be non-negative")
    mu = abs(mu)
    c = 1.0 / np.sqrt(2.0 * np.pi * sigma * sigma)
    val = c * (
        np.exp(-((x - mu) ** 2) / (2.0 * sigma * sigma))
        + np.exp(-((x + mu) ** 2) / (2.0 * sigma * sigma))
    )
    return val if val.ndim else float(val)


def prob_select_over(beta_j: float, beta_k: float, sigma: float) -> float:
    """P(c_j < c_k) for null-model criteria c = |beta + sigma Z|:
    (1 + erf((|bk|-|bj|)/(2 sigma)) erf((|bk|+|bj|)/(2 sigma))) / 2, exactly
    1/2 at |bj| = |bk|."""
    _check_signal(sigma, beta_j, beta_k)
    bj, bk = abs(beta_j), abs(beta_k)
    val = 0.5 + 0.5 * math.erf((bk - bj) / (2.0 * sigma)) * math.erf((bk + bj) / (2.0 * sigma))
    return float(min(max(val, 0.0), 1.0))


def prob_first_correct(profile: SignalProfile) -> float:
    """Probability that the largest criterion lies in the support:
    1 - m integral_0^inf f_0(x) F_0(x)^(m-1) prod_{k<=s} F_k(x) dx, with f_0
    and F_0 the half-normal null density and CDF and m = p - s; 1 at p = s.
    The rule is 16-node Gauss-Legendre on each of 48 panels of [0, 12 sigma]."""
    m = profile.p - profile.s
    if m == 0:
        return 1.0
    sigma = profile.sigma
    support, repeats = np.unique(np.abs(profile.betas[: profile.s]), return_counts=True)
    # the null maximum's mass beyond 12 sigma is below m * 1e-32
    h = 12.0 * sigma / _PANELS
    x = h * (np.arange(_PANELS)[:, None] + 0.5 * (_NODES + 1.0))  # the nodes, panel by panel
    cdfs = 0.5 * (_erf((x[..., None] + support) / (_SQRT2 * sigma)) + _erf((x[..., None] - support) / (_SQRT2 * sigma)))
    # F_0^(m-1) from erfc: a rounded F_0 near 1 would lose m - 1 times its error
    null_max = m * folded_normal_pdf(x, 0.0, sigma) * np.exp((m - 1) * np.log1p(-_erfc(x / (_SQRT2 * sigma))))
    val = 0.5 * h * float(np.sum(_WEIGHTS * null_max * np.prod(cdfs**repeats, axis=-1)))
    return float(min(max(1.0 - val, 0.0), 1.0))


def _orthonormal_columns(g: np.ndarray) -> np.ndarray:
    return np.linalg.qr(g)[0]


def _first_hits(q: np.ndarray, eps: np.ndarray, profile: SignalProfile) -> int:
    """Replications of the stack ``q`` whose largest |q_(j)' y| lies in the
    support, with y = q |betas| + sigma eps."""
    y = np.einsum("cnp,p->cn", q, np.abs(profile.betas)) + profile.sigma * eps
    scores = np.abs(np.einsum("cnp,cn->cp", q, y))
    return int(np.sum(np.argmax(scores, axis=1) < profile.s))


# Designs per block, about 5 MB of draws (208 matrices at n=60, p=50). A pool
# thread holds about 1.3 blocks: the draws, and one slice's QR copy, triangle
# and orthonormal columns. For 5000 such replications on two threads of a
# 2-core x86-64 VM with one BLAS thread (medians of 11 calls), blocks of 104,
# 208 and 500 matrices took 0.34, 0.34 and 0.30 s and peaked 15, 20 and 33 MB
# above the process before (whole-block QR: 0.33-0.52 s and 31, 54 and 119 MB;
# version 0.1.0: 0.43-0.54 s and 150-160 MB).
_BLOCK_BYTES = 5_000_000
# Designs per QR slice of a block, about 0.5 MB (20 matrices at n=60, p=50).
# For 10,000 replications as above (medians of 9 alternated calls), slices of
# 10, 16, 20 and 41 matrices took 1.02, 0.93, 0.90 and 0.89 s, whole blocks 1.09 s.
_QR_BYTES = 500_000

# Replications per chunk of the pair simulator, and the rows of its designs: they
# fix which numbers each replication draws, so a seeded estimate depends on them.
_PAIR_CHUNK = 50_000
_PAIR_N = 16
# Replications per slice of a pair chunk's arithmetic, 512 kB per array.
_PAIR_SLICE = 4096


def _chunks(reps: int, size: int) -> list[int]:
    """Chunk sizes of at most ``size`` that sum to ``reps``."""
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    return [min(size, reps - done) for done in range(0, reps, size)]


def mc_first_selection(profile: SignalProfile, n: int, reps: int, seed: int) -> float:
    """Simulate the orthonormalized-design construction directly: draw a
    Gaussian n x p design, orthonormalize its columns, form y = X beta + eps
    and return the fraction of replications whose argmax_j |x_(j)' y| lies in
    the support.

    Block i, about ``_BLOCK_BYTES`` of designs, draws its designs and then its
    noise from ``spawn_rng(seed, "mc-first", i)``, so the result depends on
    neither the core count nor the thread schedule. k = min(``usable_cores()``,
    blocks) threads, one pool per call, each take every k-th block into reused
    buffers and orthonormalize and score it in slices of about ``_QR_BYTES``,
    so the memory held is about one block per thread whatever ``reps``. A
    failed slice or an interrupt stops every thread before its next block."""
    if n < profile.p:
        raise ValueError("need n >= p to orthonormalize the design columns")
    sizes = _chunks(reps, max(1, _BLOCK_BYTES // (8 * n * profile.p)))
    workers = min(usable_cores(), len(sizes))
    step = max(1, _QR_BYTES // (8 * n * profile.p))
    failed = threading.Event()

    def run_blocks(first: int) -> int:
        g, eps, hits = np.empty((sizes[0], n, profile.p)), np.empty((sizes[0], n)), 0
        for i in range(first, len(sizes), workers):
            if failed.is_set():
                break
            rng, c = spawn_rng(seed, "mc-first", i), sizes[i]
            rng.standard_normal(out=g[:c])
            rng.standard_normal(out=eps[:c])
            for lo in range(0, c, step):  # a slice's QR copy, R and Q are freed before the next slice
                hi = min(c, lo + step)
                hits += _first_hits(_orthonormal_columns(g[lo:hi]), eps[lo:hi], profile)
        return hits

    with ThreadPoolExecutor(workers) as pool:
        counts = [pool.submit(run_blocks, w) for w in range(workers)]
        try:
            wait(counts, return_when=FIRST_EXCEPTION)
        finally:  # every block is done, or one raised or the call was interrupted: draw no more
            failed.set()
        return sum(f.result() for f in counts) / reps


def pair_wins(beta_j: float, beta_k: float, sigma: float, reps: int, seed: int) -> int:
    """Replications of ``reps``, in chunks of ``_PAIR_CHUNK``, with |x_(j)' y| < |x_(k)' y| for two orthonormalized
    Gaussian columns of ``_PAIR_N`` rows and y = beta_j x_(j) + beta_k x_(k) + eps. A chunk's columns and noise
    are drawn whole and its arithmetic runs in slices of ``_PAIR_SLICE`` rows."""
    _check_signal(sigma, beta_j, beta_k)
    sizes = _chunks(reps, _PAIR_CHUNK)
    rng, buffer, wins = spawn_rng(seed, "mc-pair"), np.empty(3 * sizes[0] * _PAIR_N), 0
    for c in sizes:  # each chunk draws two columns and then the noise into the one buffer
        draws = rng.standard_normal(out=buffer[: 3 * c * _PAIR_N]).reshape(3, c, _PAIR_N)
        for lo in range(0, c, _PAIR_SLICE):
            q1, q2, eps = draws[:, lo : lo + _PAIR_SLICE]
            q1 /= np.linalg.norm(q1, axis=1, keepdims=True)
            q2 -= np.einsum("cn,cn->c", q1, q2)[:, None] * q1
            q2 /= np.linalg.norm(q2, axis=1, keepdims=True)
            eps *= sigma
            y = abs(beta_j) * q1  # built in place but summed left to right, so the bits of a seed stay fixed
            y += abs(beta_k) * q2
            y += eps
            cj = np.abs(np.einsum("cn,cn->c", q1, y))
            ck = np.abs(np.einsum("cn,cn->c", q2, y))
            wins += int(np.sum(cj < ck))
    return wins


def mc_select_over(beta_j: float, beta_k: float, sigma: float, reps: int, seed: int) -> float:
    """Monte-Carlo estimate of P(|x_(j)' y| < |x_(k)' y|): ``pair_wins`` over ``reps``."""
    return pair_wins(beta_j, beta_k, sigma, reps, seed) / reps
