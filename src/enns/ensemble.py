"""Bootstrap-bagged ensemble around the stage-wise selector.

Each round runs the stage-wise selector on independent bootstrap samples and
keeps only the features that appear in enough bags; rounds repeat on the
remaining features until the target count is reached or a round limit fires.
"""

from __future__ import annotations

import logging
import math
import pickle
from dataclasses import dataclass, field
from functools import partial
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .cores import blas_threads, forked, usable_cores
from .network import Dataset, NetworkArchitecture, NumericalError
from .seeding import derive_seed
from .stagewise import DnpConfig, dnp_run

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EnnsConfig:
    """Bagging controls for ensemble selection."""

    target_s0: int
    num_bags: int = 10
    bootstrap_size: int | None = None
    appearance_proportion: float = 0.3
    per_round: int | None = None
    dnp: DnpConfig = field(default_factory=DnpConfig)
    with_replacement: bool = True

    def __post_init__(self):
        if self.target_s0 < 1:
            raise ValueError("target_s0 must be positive")
        if self.num_bags < 1:
            raise ValueError("num_bags must be positive")
        if self.bootstrap_size is not None and self.bootstrap_size < 1:
            raise ValueError("bootstrap_size must be positive when given")
        if not 0.0 < self.appearance_proportion <= 1.0:
            raise ValueError("appearance_proportion must be in (0, 1]")
        if math.floor(self.num_bags * self.appearance_proportion) < 1:
            raise ValueError("num_bags * appearance_proportion must be at least 1")
        if self.per_round is not None and not 1 <= self.per_round <= self.target_s0:
            raise ValueError("per_round must be in 1..target_s0")


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of ensemble selection."""

    selected: tuple[int, ...]
    per_round_appearances: tuple[dict[int, int], ...]  # one entry per round executed
    complete: bool


def bootstrap_indices(n: int, n_r: int, seed: int, with_replacement: bool = True) -> np.ndarray:
    """``n_r`` uniform draws from 0..n-1, with replacement by default."""
    if n < 1 or n_r < 1:
        raise ValueError("n and n_r must be positive")
    rng = np.random.default_rng(seed)
    if with_replacement:
        return rng.integers(0, n, size=n_r)
    if n_r > n:
        raise ValueError("n_r cannot exceed n when sampling without replacement")
    return rng.choice(n, size=n_r, replace=False)


def filter_appearances(
    bag_results: Sequence[Sequence[int]], proportion: float
) -> tuple[list[int], dict[int, int]]:
    """Consensus filter: features appearing in >= floor(bags * proportion) of
    the bags that ran (at least one), ranked by appearance count, then mean
    admission position, then index.

    The reduction is order-independent: permuting ``bag_results`` leaves the
    outcome unchanged.
    """
    threshold = max(1, math.floor(len(bag_results) * proportion))
    counts: dict[int, int] = {}
    pos_sum: dict[int, float] = {}
    for bag in bag_results:
        for position, j in enumerate(bag):
            j = int(j)
            counts[j] = counts.get(j, 0) + 1
            pos_sum[j] = pos_sum.get(j, 0.0) + position
    survivors = [j for j, c in counts.items() if c >= threshold]
    survivors.sort(key=lambda j: (-counts[j], pos_sum[j] / counts[j], j))
    return survivors, counts


def _bag_record(sub: Dataset, s_j: int, cfg: EnnsConfig, arch_template: NetworkArchitecture, seed: int,
                b: int) -> tuple[list[int] | None, list[str]]:
    """Bag ``b``'s (picked columns of ``sub``, or None if dropped, warning texts)."""
    n_r = cfg.bootstrap_size if cfg.bootstrap_size is not None else sub.n
    texts = []
    for attempt in range(2):
        bag_seed = derive_seed(seed, "bag", b, attempt)
        rows = bootstrap_indices(sub.n, n_r, derive_seed(bag_seed, "rows"), cfg.with_replacement)
        try:
            return dnp_run(sub.subset_rows(rows), arch_template, s_j, cfg.dnp, derive_seed(bag_seed, "dnp")), texts
        except NumericalError as exc:
            texts.append(f"bag {b} failed twice ({exc}); dropping it" if attempt
                         else f"bag {b} failed ({exc}); retrying with a fresh seed")
    return None, texts


def _records_worker(record: Callable[[int], tuple], bags: range, out: BinaryIO) -> None:
    """Forked worker: the list of ``record(b)`` over ``bags``, pickled to the binary pipe ``out``."""
    pickle.dump([record(b) for b in bags], out)


def enns_round(
    data: Dataset,
    active_features: Sequence[int],
    s_j: int,
    cfg: EnnsConfig,
    arch_template: NetworkArchitecture,
    seed: int,
) -> tuple[list[int], dict[int, int]]:
    """One bagged round over ``active_features``: run ``num_bags`` seeded
    stage-wise selections of ``s_j`` features each on independent bootstrap
    samples and return (filtered ranked survivors, appearance counts).

    A bag whose training fails is retried once with a fresh seed, then
    dropped with a warning (the consensus threshold shrinks accordingly).
    Bags run in k = usable_cores() // blas_threads() contiguous shares, 1..k-1
    in forked workers and 0 here, so records arrive and are logged in bag order
    as one process would; a refused fork, or a worker whose records do not
    arrive whole, reruns every bag here.
    """
    active = sorted(int(j) for j in active_features)
    if s_j < 1 or s_j > len(active):
        raise ValueError("s_j must be in 1..len(active_features)")
    record = partial(_bag_record, data.subset_columns(active), s_j, cfg, arch_template, seed)
    k = max(1, min(usable_cores() // blas_threads(), cfg.num_bags))
    cuts = [w * cfg.num_bags // k for w in range(k + 1)]
    try:
        with forked(_records_worker, [(record, range(a, b)) for a, b in zip(cuts[1:], cuts[2:])]) as workers:
            records = [record(b) for b in range(cuts[1])]
            for pipe, proc in workers:
                share = pipe.read()
                proc.join()  # here, not at the block's exit, which kills a live worker
                records += pickle.loads(share)  # a worker that failed wrote no whole list
    except (OSError, EOFError, pickle.UnpicklingError):  # no fork, or a worker failed
        records = [record(b) for b in range(cfg.num_bags)]
    for text in (text for _, texts in records for text in texts):
        logger.warning(text)
    bag_results = [[active[j] for j in picked] for picked, _ in records if picked is not None]
    if not bag_results:
        raise NumericalError("every bag of the ensemble round failed")
    return filter_appearances(bag_results, cfg.appearance_proportion)


def enns_select(
    data: Dataset, arch_template: NetworkArchitecture, cfg: EnnsConfig, seed: int
) -> SelectionReport:
    """Iterate bagged rounds until ``target_s0`` features are selected; round
    k runs with seed ``derive_seed(seed, "round", k)``.

    Rounds that survive with more features than still needed are truncated by
    the consensus ranking; rounds that survive with fewer trigger another
    round on the remaining features. A round limit guards against stalling,
    returning a partial report flagged incomplete.
    """
    p = data.p
    if cfg.target_s0 > p:
        raise ValueError("target_s0 cannot exceed the number of features")
    base_step = cfg.per_round if cfg.per_round is not None else cfg.target_s0
    round_limit = 5 * math.ceil(cfg.target_s0 / base_step)

    selected: list[int] = []
    appearances: list[dict[int, int]] = []
    while len(selected) < cfg.target_s0 and len(appearances) < round_limit:
        remaining = cfg.target_s0 - len(selected)
        taken = set(selected)
        active = [j for j in range(p) if j not in taken]
        s_j = min(base_step, remaining, len(active))
        round_seed = derive_seed(seed, "round", len(appearances))
        survivors, counts = enns_round(data, active, s_j, cfg, arch_template, seed=round_seed)
        appearances.append(counts)
        selected.extend(survivors[:remaining])
    return SelectionReport(
        selected=tuple(selected),
        per_round_appearances=tuple(appearances),
        complete=len(selected) == cfg.target_s0,
    )
