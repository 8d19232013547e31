import logging
import multiprocessing
import os
import pickle
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enns import ensemble
from enns.ensemble import (
    EnnsConfig,
    bootstrap_indices,
    enns_round,
    enns_select,
    filter_appearances,
)
from enns.cores import forked
from enns.network import Dataset, NetworkArchitecture, NumericalError, TrainOptions
from enns.seeding import derive_seed
from enns.simulate import ResponseSpec, gen_design_uniform, gen_response
from enns.stagewise import DnpConfig, dnp_run
from enns.metrics import selection_metrics


def fast_dnp(epochs=30):
    return DnpConfig(
        num_dropouts=2,
        dropout_rate=0.5,
        train_opts=TrainOptions(learning_rate=0.1, max_epochs=epochs, patience=0),
    )


# --- bootstrap_indices ---------------------------------------------------------


def test_bootstrap_single_atom():
    assert np.array_equal(bootstrap_indices(1, 5, seed=0), np.zeros(5, dtype=int))


def test_bootstrap_unique_fraction_matches_classical_value():
    # expected unique share of an n-out-of-n bootstrap is 1 - 1/e
    fractions = [
        len(np.unique(bootstrap_indices(1000, 1000, seed=s))) / 1000 for s in range(100)
    ]
    assert abs(np.mean(fractions) - (1 - 1 / np.e)) < 0.03


def test_bootstrap_deterministic():
    assert np.array_equal(bootstrap_indices(50, 30, seed=4), bootstrap_indices(50, 30, seed=4))


def test_bootstrap_without_replacement_is_subsample():
    idx = bootstrap_indices(20, 20, seed=1, with_replacement=False)
    assert sorted(idx) == list(range(20))
    with pytest.raises(ValueError):
        bootstrap_indices(5, 6, seed=0, with_replacement=False)


# --- appearance filter -----------------------------------------------------------


def test_filter_degenerate_single_bag():
    survivors, counts = filter_appearances([[3, 1, 4]], 1.0)
    assert set(survivors) == {1, 3, 4}
    assert counts == {3: 1, 1: 1, 4: 1}


def test_filter_kills_non_consensus():
    bags = [[0, 1], [2, 3], [4, 5]]
    survivors, _ = filter_appearances(bags, 0.9)  # threshold floor(3 * 0.9) = 2
    assert survivors == []


def test_filter_ranks_by_count_then_position_then_index():
    bags = [[7, 2], [2, 7], [2, 9], [9, 2]]
    survivors, counts = filter_appearances(bags, 0.5)
    assert counts[2] == 4 and counts[7] == 2 and counts[9] == 2
    # 7 and 9 tie on count and mean position; smaller index wins
    assert survivors == [2, 7, 9]


bag_lists = st.lists(
    st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True), min_size=1, max_size=8
)


@settings(deadline=None)
@given(bags=bag_lists, p1=st.floats(0.05, 1.0), p2=st.floats(0.05, 1.0))
def test_filter_monotone_in_proportion(bags, p1, p2):
    lo, hi = min(p1, p2), max(p1, p2)
    s_lo, _ = filter_appearances(bags, lo)
    s_hi, _ = filter_appearances(bags, hi)
    assert set(s_hi) <= set(s_lo)


@settings(deadline=None)
@given(bags=bag_lists, prop=st.floats(0.05, 1.0), seed=st.integers(0, 100))
def test_filter_bag_order_invariance(bags, prop, seed):
    base, base_counts = filter_appearances(bags, prop)
    rng = np.random.default_rng(seed)
    shuffled = [bags[i] for i in rng.permutation(len(bags))]
    perm, perm_counts = filter_appearances(shuffled, prop)
    assert set(base) == set(perm)
    assert base_counts == perm_counts


# --- enns_round -------------------------------------------------------------------


def small_noise_data(seed=0, n=50, p=6):
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(-1, 1, size=(n, p)), rng.normal(size=n), "regression")


def test_round_single_bag_equals_one_dnp_run():
    data = small_noise_data()
    arch = NetworkArchitecture(data.p, (4,))
    cfg = EnnsConfig(target_s0=2, num_bags=1, appearance_proportion=1.0, dnp=fast_dnp(15))
    survivors, counts = enns_round(data, range(data.p), 2, cfg, arch, seed=31)
    bag_seed = derive_seed(31, "bag", 0, 0)
    rows = bootstrap_indices(data.n, data.n, derive_seed(bag_seed, "rows"))
    direct = dnp_run(data.subset_rows(rows), arch, 2, cfg.dnp, derive_seed(bag_seed, "dnp"))
    assert set(survivors) == set(direct)
    assert all(v == 1 for v in counts.values())


def test_round_counts_bounded_by_bags():
    data = small_noise_data(seed=3)
    arch = NetworkArchitecture(data.p, (4,))
    cfg = EnnsConfig(target_s0=2, num_bags=5, appearance_proportion=0.2, dnp=fast_dnp(15))
    _, counts = enns_round(data, range(data.p), 2, cfg, arch, seed=9)
    assert all(1 <= v <= 5 for v in counts.values())


def test_round_high_signal_consensus():
    x = gen_design_uniform(300, 500, seed=42)
    spec = ResponseSpec(
        kind="network", task="regression", s=2, coef_mean=10.0, coef_sd=1.0
    )
    y, _ = gen_response(x, spec, seed=43)
    data = Dataset(x, y, "regression")
    arch = NetworkArchitecture(500, (10,))
    cfg = EnnsConfig(target_s0=2, num_bags=10, appearance_proportion=0.3, dnp=fast_dnp(50))
    _, counts = enns_round(data, range(500), 2, cfg, arch, seed=99)
    assert counts.get(0, 0) >= 9
    assert counts.get(1, 0) >= 9


def on_workers(monkeypatch, k):
    """Run a round's bags in k processes: in-process for 1, forked workers
    (with a one-thread BLAS) for more. Returns the list that collects every
    (pipe, process) pair the rounds fork."""
    monkeypatch.setattr(ensemble, "usable_cores", lambda: k)
    monkeypatch.setattr(ensemble, "blas_threads", lambda: 1)
    seen = []

    @contextmanager
    def recorded(target, jobs):
        with forked(target, jobs) as workers:
            seen.extend(workers)
            yield workers

    monkeypatch.setattr(ensemble, "forked", recorded)
    return seen


def dnp_seed(round_seed, b, attempt):
    return derive_seed(derive_seed(round_seed, "bag", b, attempt), "dnp")


def round_with_two_dropped_bags(monkeypatch, caplog, k):
    # bags 0 and 1 fail twice and are dropped; the two that run disagree, so
    # they pass only the threshold floor(2 * 0.5) = 1, not floor(4 * 0.5) = 2
    failing = {dnp_seed(0, b, attempt) for b in (0, 1) for attempt in (0, 1)}
    picks = {dnp_seed(0, 2, 0): [1], dnp_seed(0, 3, 0): [0]}
    calls = []  # in this process only: a forked worker's calls are its own

    def fake_dnp_run(data, arch, s_target, cfg, seed):
        calls.append(seed)
        if seed in failing:
            raise NumericalError("diverged")
        return picks[seed]

    monkeypatch.setattr(ensemble, "dnp_run", fake_dnp_run)
    seen = on_workers(monkeypatch, k)
    data = small_noise_data()
    cfg = EnnsConfig(target_s0=1, num_bags=4, appearance_proportion=0.5, dnp=fast_dnp(5))
    with caplog.at_level(logging.WARNING, logger="enns.ensemble"):
        survivors, counts = enns_round(data, range(data.p), 1, cfg, NetworkArchitecture(data.p, (4,)), seed=0)
    # serially every attempt runs here; forked, only those of share 0 (bags 0 and 1)
    assert len(calls) == (6 if k == 1 else 4)
    assert len(seen) == k - 1
    assert counts == {1: 1, 0: 1}
    assert survivors == [0, 1]
    assert [r.getMessage() for r in caplog.records] == [
        text
        for b in (0, 1)
        for text in (
            f"bag {b} failed (diverged); retrying with a fresh seed",
            f"bag {b} failed twice (diverged); dropping it",
        )
    ]
    assert multiprocessing.active_children() == []


def test_round_threshold_counts_only_bags_that_ran(monkeypatch, caplog):
    round_with_two_dropped_bags(monkeypatch, caplog, 1)


def test_round_threshold_counts_only_bags_that_ran_forked(monkeypatch, caplog):
    round_with_two_dropped_bags(monkeypatch, caplog, 2)


def test_round_validates_s_j():
    data = small_noise_data()
    arch = NetworkArchitecture(data.p, (4,))
    cfg = EnnsConfig(target_s0=2, num_bags=2, appearance_proportion=0.5, dnp=fast_dnp(5))
    with pytest.raises(ValueError):
        enns_round(data, [0, 1], 3, cfg, arch, seed=0)


# --- enns_select -------------------------------------------------------------------


def test_select_exhaustion_permutes_all_features():
    data = small_noise_data(seed=11, n=60, p=5)
    arch = NetworkArchitecture(5, (4,))
    cfg = EnnsConfig(
        target_s0=5, num_bags=3, appearance_proportion=0.34, dnp=fast_dnp(15)
    )
    report = enns_select(data, arch, cfg, 2)
    assert report.complete
    assert sorted(report.selected) == list(range(5))


def test_select_reduces_to_dnp_for_degenerate_config():
    data = small_noise_data(seed=12, n=80, p=8)
    arch = NetworkArchitecture(8, (5,))
    cfg = EnnsConfig(
        target_s0=3, num_bags=1, appearance_proportion=1.0, per_round=3,
        dnp=fast_dnp(20),
    )
    report = enns_select(data, arch, cfg, 21)
    bag_seed = derive_seed(derive_seed(21, "round", 0), "bag", 0, 0)
    rows = bootstrap_indices(data.n, data.n, derive_seed(bag_seed, "rows"))
    direct = dnp_run(data.subset_rows(rows), arch, 3, cfg.dnp, derive_seed(bag_seed, "dnp"))
    assert list(report.selected) == direct


def test_select_no_duplicates_and_bounded():
    data = small_noise_data(seed=13, n=70, p=10)
    arch = NetworkArchitecture(10, (5,))
    cfg = EnnsConfig(target_s0=4, num_bags=4, appearance_proportion=0.5, dnp=fast_dnp(15))
    report = enns_select(data, arch, cfg, 3)
    assert len(set(report.selected)) == len(report.selected)
    assert len(report.selected) <= 4


def test_select_flags_incomplete_on_starved_consensus():
    # pure noise + unanimous-agreement filter: rounds survive nothing
    data = small_noise_data(seed=14, n=60, p=12)
    arch = NetworkArchitecture(12, (5,))
    cfg = EnnsConfig(
        target_s0=3, num_bags=10, appearance_proportion=1.0, dnp=fast_dnp(10)
    )
    report = enns_select(data, arch, cfg, 4)
    assert not report.complete
    assert len(report.per_round_appearances) == 5  # round limit 5 * ceil(3/3)
    assert len(report.selected) < 3


def test_select_false_positives_not_worse_than_dnp_on_average():
    fpr_e, fpr_d = [], []
    for seed in range(4):
        x = gen_design_uniform(200, 300, seed=derive_seed(seed, "x"))
        spec = ResponseSpec(kind="network", task="regression", s=3)
        y, truth = gen_response(x, spec, seed=derive_seed(seed, "y"))
        data = Dataset(x, y, "regression")
        arch = NetworkArchitecture(300, (8,))
        dnp_sel = dnp_run(data, arch, 3, fast_dnp(40), seed=derive_seed(seed, "d"))
        cfg = EnnsConfig(
            target_s0=3, num_bags=10, appearance_proportion=0.3,
            dnp=fast_dnp(40),
        )
        report = enns_select(data, arch, cfg, derive_seed(seed, "e"))
        fpr_e.append(selection_metrics(report.selected, truth.support).false_positive_rate)
        fpr_d.append(selection_metrics(dnp_sel, truth.support).false_positive_rate)
    assert np.mean(fpr_e) <= np.mean(fpr_d) + 1e-12


# --- bags in forked workers: the same report as one process ------------------------


EQUIVALENCE_CASES = {
    "bootstrap": dict(target_s0=2, num_bags=5, appearance_proportion=0.4),
    "subsample": dict(target_s0=2, num_bags=4, appearance_proportion=0.5, bootstrap_size=30,
                      with_replacement=False),
    "per_round": dict(target_s0=4, num_bags=3, appearance_proportion=0.67, per_round=2),
}


# 5, 4 and 3 bags: three processes take uneven shares, and one bag each under per_round
@pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
def test_select_identical_on_one_two_and_three_workers(monkeypatch, case):
    data = small_noise_data(seed=15, n=50, p=8)
    arch = NetworkArchitecture(8, (4,))
    cfg = EnnsConfig(dnp=fast_dnp(10), **EQUIVALENCE_CASES[case])
    reports = {}
    for k in (1, 2, 3):
        seen = on_workers(monkeypatch, k)
        reports[k] = [enns_select(data, arch, cfg, seed) for seed in range(3)]
        assert all(proc.exitcode == 0 for _, proc in seen) and (k == 1) == (not seen)
        assert multiprocessing.active_children() == []
    assert repr(reports[1]) == repr(reports[2]) == repr(reports[3])  # the appearance counts' key order too
    if case == "per_round":
        assert all(len(r.per_round_appearances) >= 2 for r in reports[1])


def select_four_bags():
    data = small_noise_data(seed=16, n=50, p=8)
    cfg = EnnsConfig(target_s0=2, num_bags=4, appearance_proportion=0.5, dnp=fast_dnp(10))
    return enns_select(data, NetworkArchitecture(8, (4,)), cfg, 5)


def test_worker_that_dies_mid_share_is_rerun_here(monkeypatch):
    on_workers(monkeypatch, 1)
    serial = select_four_bags()
    parent, calls = os.getpid(), []

    def dies_in_a_worker(*args):
        calls.append(args[-1])
        if os.getpid() != parent and len(calls) == 2:  # the worker's second bag
            os._exit(1)
        return dnp_run(*args)

    monkeypatch.setattr(ensemble, "dnp_run", dies_in_a_worker)
    seen = on_workers(monkeypatch, 2)
    assert select_four_bags() == serial
    assert [proc.exitcode for _, proc in seen] == [1]
    # share 0 (bags 0, 1) here, then every bag again after the worker died
    assert len(calls) == 2 + 4
    assert multiprocessing.active_children() == []


def test_worker_with_an_undecodable_result_is_rerun_here(monkeypatch):
    on_workers(monkeypatch, 1)
    serial = select_four_bags()
    seen = on_workers(monkeypatch, 2)
    monkeypatch.setattr(pickle, "dump", lambda obj, file: file.write(b"garbage"))  # in the worker
    assert select_four_bags() == serial
    assert [proc.exitcode for _, proc in seen] == [0]
    assert multiprocessing.active_children() == []


def test_refused_fork_runs_every_bag_here(monkeypatch):
    on_workers(monkeypatch, 1)
    serial = select_four_bags()

    def refused(target, jobs):
        raise OSError("fork refused")

    on_workers(monkeypatch, 2)
    monkeypatch.setattr(ensemble, "forked", refused)
    assert select_four_bags() == serial
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("k", [1, 2], ids=["serial", "forked"])
def test_error_in_a_workers_bag_reads_as_in_one_process(monkeypatch, k):
    def fails_on_bag_3(data, arch, s_target, cfg, seed):
        if seed == dnp_seed(derive_seed(5, "round", 0), 3, 0):
            raise ValueError("bag 3 is broken")
        return [0, 1]

    monkeypatch.setattr(ensemble, "dnp_run", fails_on_bag_3)
    seen = on_workers(monkeypatch, k)
    with pytest.raises(ValueError, match="^bag 3 is broken$"):
        select_four_bags()
    assert [proc.exitcode for _, proc in seen] == [1] * (k - 1)
    assert multiprocessing.active_children() == []


def test_config_validation():
    with pytest.raises(ValueError):
        EnnsConfig(target_s0=0)
    with pytest.raises(ValueError):
        EnnsConfig(target_s0=2, appearance_proportion=0.0)
    with pytest.raises(ValueError):
        EnnsConfig(target_s0=2, num_bags=2, appearance_proportion=0.3)  # floor(0.6) < 1
    with pytest.raises(ValueError):
        EnnsConfig(target_s0=2, per_round=3)


def test_select_rejects_oversized_target():
    data = small_noise_data(n=20, p=3)
    arch = NetworkArchitecture(3, (2,))
    cfg = EnnsConfig(target_s0=4, num_bags=2, appearance_proportion=0.5, dnp=fast_dnp(5))
    with pytest.raises(ValueError):
        enns_select(data, arch, cfg, 0)
