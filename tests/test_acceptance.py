"""Acceptance gate: exact unit oracles, analytic cross-checks and scaled
directional reproductions of the synthetic studies.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.
"""

import time

import numpy as np
import pytest
from scipy import stats

from enns.estimation import BaggedDropoutSpec, SparsitySpec, fit_l1, predict_bagged_dropout, soft_threshold
from enns.network import (
    Dataset,
    NetworkArchitecture,
    NetworkParameters,
    TrainOptions,
    xavier_init,
)
from enns.studies import (
    high_signal_recovery_rate,
    next_selection_hit_rate,
    paired_false_positive_study,
    sparse_versus_plain_rmse,
)
from enns.theory import (
    SignalProfile,
    mc_first_selection,
    mc_select_over,
    prob_first_correct,
    prob_select_over,
)
from enns.cli import main
from enns.seeding import derive_seed

from _oracles import max_relative_gradient_error


def report(number: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget ({elapsed:.1f}s)"


def _draw_differentiable_case(rng, step):
    """Random (arch, params, data) away from relu kinks, where the loss is
    differentiable and central differences are a valid oracle."""
    from enns.network import _forward_internal

    while True:
        n = int(rng.integers(4, 17))
        p = int(rng.integers(1, 6))
        depth = int(rng.integers(1, 3))
        hidden = tuple(int(rng.integers(1, 6)) for _ in range(depth))
        activation = ["relu", "sigmoid"][int(rng.integers(0, 2))]
        task = ["regression", "classification"][int(rng.integers(0, 2))]
        arch = NetworkArchitecture(p, hidden, activation, task)
        params = xavier_init(arch, int(rng.integers(0, 2**31)))
        for t in params.intercepts[:-1]:
            t[:] = rng.normal(0.0, 0.3, size=t.shape)
        x = rng.normal(size=(n, p))
        y = rng.normal(size=n) if task == "regression" else (rng.random(n) < 0.5).astype(float)
        data = Dataset(x, y, task)
        if activation == "relu":
            _, zs, _ = _forward_internal(params, arch, data.x)
            # a pre-activation within a few steps of 0 sits on a kink; redraw
            if min(float(np.min(np.abs(z))) for z in zs) < 50 * step:
                continue
        return arch, params, data


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240810)
    step = 1e-5
    worst = 0.0
    for _ in range(50):
        arch, params, data = _draw_differentiable_case(rng, step)
        worst = max(worst, max_relative_gradient_error(params, arch, data, step=step))
    elapsed = time.perf_counter() - start
    report(1, "gradient-oracle", worst < 1e-5, f"max relative error {worst:.2e}", elapsed, 10.0)


def test_criterion_2_soft_threshold_exactness():
    start = time.perf_counter()
    exact = (
        np.array_equal(soft_threshold(np.array([3.0, -1.0, 0.5]), 1.0), np.array([2.0, 0.0, 0.0]))
        and np.array_equal(soft_threshold(np.array([1.5, -0.25, 0.0]), 0.0), np.array([1.5, -0.25, 0.0]))
        and np.array_equal(soft_threshold(np.array([0.4, -0.9]), 0.9), np.zeros(2))
    )
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(150, 4))
    y = x @ rng.normal(size=4) + rng.normal(0, 0.3, size=150)
    data = Dataset(x, y, "regression")
    shares = {}
    for pm in (50.0, 90.0):
        arch = NetworkArchitecture(4, (12, 8))
        opts = TrainOptions(learning_rate=0.1, max_epochs=60, patience=0, rng_seed=int(pm))
        fitted = fit_l1(data, arch, SparsitySpec("percentile", (pm, pm)), opts)
        shares[pm] = min(float(np.mean(w == 0.0)) for w in fitted.weights[1:])
    ok = exact and shares[50.0] >= 0.5 and shares[90.0] >= 0.9
    elapsed = time.perf_counter() - start
    report(
        2,
        "soft-threshold-exactness",
        ok,
        f"unit cases exact={exact}, zero shares {shares[50.0]:.2f}@50 {shares[90.0]:.2f}@90",
        elapsed,
        30.0,
    )


def test_criterion_3_pairwise_probability_agreement():
    start = time.perf_counter()
    betas = [0.0, 1.0, 2.0, 3.0]
    sigmas = [0.5, 1.0, 2.0]
    max_delta = 0.0
    max_sym = 0.0
    for sigma in sigmas:
        for bj in betas:
            for bk in betas:
                analytic = prob_select_over(bj, bk, sigma)
                if bj == bk:
                    max_sym = max(max_sym, abs(analytic - 0.5))
                mc = mc_select_over(
                    bj, bk, sigma, reps=100_000, seed=derive_seed(31, "pair", str(bj), str(bk), str(sigma))
                )
                max_delta = max(max_delta, abs(analytic - mc))
    ok = max_delta < 0.015 and max_sym < 1e-8
    elapsed = time.perf_counter() - start
    report(
        3,
        "pairwise-probability-agreement",
        ok,
        f"max |analytic - mc| {max_delta:.4f}, max symmetric dev {max_sym:.1e}",
        elapsed,
        300.0,
    )


def test_criterion_4_first_selection_agreement():
    start = time.perf_counter()
    deltas = {}
    for s, p in [(1, 2), (3, 20), (5, 50)]:
        betas = np.zeros(p)
        betas[:s] = 2.0
        profile = SignalProfile(betas, 1.0, s)
        analytic = prob_first_correct(profile)
        mc = mc_first_selection(profile, n=p + 10, reps=100_000, seed=derive_seed(41, "first", s, p))
        deltas[(s, p)] = abs(analytic - mc)
    ok = all(d < 0.02 for d in deltas.values())
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"(s={s},p={p}) {d:.4f}" for (s, p), d in deltas.items())
    report(4, "first-selection-agreement", ok, detail, elapsed, 300.0)


def test_criterion_5_next_selection_probability_decays():
    start = time.perf_counter()
    rate0 = next_selection_hit_rate(n=200, p=500, s=5, pre_included=0, reps=100, seed=51)
    rate4 = next_selection_hit_rate(n=200, p=500, s=5, pre_included=4, reps=100, seed=51)
    gap = rate0 - rate4
    elapsed = time.perf_counter() - start
    report(
        5,
        "next-selection-decay",
        gap >= 0.1,
        f"hit rate {rate0:.2f} with 0 pre-included vs {rate4:.2f} with 4 (gap {gap:.2f})",
        elapsed,
        1800.0,
    )


def test_criterion_6_ensemble_reduces_false_positives():
    start = time.perf_counter()
    result = paired_false_positive_study(n=300, p=1000, s=5, seeds=30, seed=61)
    diffs = result.plain_fpr - result.ensemble_fpr
    t_stat, p_two = stats.ttest_rel(result.plain_fpr, result.ensemble_fpr)
    p_one = p_two / 2 if t_stat > 0 else 1.0 - p_two / 2
    ok = result.mean_difference > 0 and p_one < 0.05
    elapsed = time.perf_counter() - start
    report(
        6,
        "ensemble-false-positive-reduction",
        ok,
        f"mean FPR ensemble {result.ensemble_fpr.mean():.3f} vs plain {result.plain_fpr.mean():.3f}, "
        f"one-sided p {p_one:.4f}, positive diffs {int(np.sum(diffs > 0))}/30",
        elapsed,
        3600.0,
    )


def test_criterion_7_high_signal_selection_consistency():
    start = time.perf_counter()
    rate = high_signal_recovery_rate(n=300, p=500, s=2, seeds=30, seed=71, coef_mean=10.0)
    elapsed = time.perf_counter() - start
    report(
        7,
        "high-signal-consistency",
        rate >= 0.95,
        f"exact support recovered in {rate:.0%} of 30 runs",
        elapsed,
        1800.0,
    )


def test_criterion_8_soft_threshold_fit_not_worse_than_plain():
    start = time.perf_counter()
    result = sparse_versus_plain_rmse(seeds=20, seed=81)
    ok = result.sparse_rmse.mean() <= result.plain_rmse.mean()
    elapsed = time.perf_counter() - start
    report(
        8,
        "sparse-fit-rmse",
        ok,
        f"mean test RMSE sparse {result.sparse_rmse.mean():.2f} vs plain {result.plain_rmse.mean():.2f} "
        f"(wins {int(np.sum(result.sparse_rmse <= result.plain_rmse))}/20)",
        elapsed,
        1800.0,
    )


def test_criterion_9_bagged_dropout_contract():
    start = time.perf_counter()
    arch = NetworkArchitecture(3, (8, 4), "relu", "regression")
    params = xavier_init(arch, 91)
    x = np.random.default_rng(92).uniform(-1, 1, size=(25, 3))
    result = predict_bagged_dropout(params, arch, x, BaggedDropoutSpec(16, 0.4), seed=93)
    mean_dev = float(np.max(np.abs(result.prediction - result.per_repeat.mean(axis=0))))

    clf_arch = NetworkArchitecture(2, (5,), "relu", "classification")
    clf_params = xavier_init(clf_arch, 94)
    xc = np.random.default_rng(95).uniform(-1, 1, size=(40, 2))
    flips_ok = True
    for pc in (0.3, 0.5, 0.7):
        res = predict_bagged_dropout(clf_params, clf_arch, xc, BaggedDropoutSpec(8, 0.3, threshold=pc), seed=96)
        flips_ok = flips_ok and np.array_equal(res.labels, (res.prediction > pc).astype(int))
    # boundary: constant p_hat exactly at the threshold predicts the negative class
    const = NetworkParameters([np.zeros((2, 5)), np.zeros((5, 1))], [np.zeros(5), np.zeros(1)])
    at = predict_bagged_dropout(const, clf_arch, xc, BaggedDropoutSpec(4, 0.2, threshold=0.5), seed=97)
    flips_ok = flips_ok and np.all(at.labels == 0)

    ok = mean_dev < 1e-12 and flips_ok
    elapsed = time.perf_counter() - start
    report(
        9,
        "bagged-dropout-contract",
        ok,
        f"mean-identity deviation {mean_dev:.1e}, label flips exact={flips_ok}",
        elapsed,
        30.0,
    )


def test_criterion_10_experiment_determinism(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
n = 120
p = 30
response = network
task = regression
s = 3
method = enns
s0 = 3
bags = 5
ps = 0.4
max_epochs = 25
sparsity_mode = percentile
sparsity_values = 50
repetitions = 2
seed = 101
"""
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["run-experiment", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run-experiment", "--config", str(cfg), "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    elapsed = time.perf_counter() - start
    report(
        10,
        "experiment-determinism",
        identical,
        f"results CSV byte-identical across two runs ({out1.stat().st_size} bytes)",
        elapsed,
        120.0,
    )
