import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from enns.estimation import (
    BaggedDropoutSpec,
    SparsitySpec,
    fit_l1,
    fit_stagewise,
    nearest_rank_percentile,
    predict_bagged_dropout,
    soft_threshold,
)
from enns.network import (
    Dataset,
    NetworkArchitecture,
    TrainOptions,
    empirical_loss,
    forward_batch,
    train,
    xavier_init,
)
from enns.stagewise import DnpConfig, dnp_run

from _oracles import percentile_by_sorting


# --- soft_threshold ---------------------------------------------------------------


def test_soft_threshold_definition_case():
    out = soft_threshold(np.array([3.0, -1.0, 0.5]), 1.0)
    np.testing.assert_array_equal(out, np.array([2.0, 0.0, 0.0]))


def test_soft_threshold_zero_is_identity():
    v = np.array([1.5, -0.2, 0.0, 7.0])
    np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_full_kill():
    v = np.array([0.3, -0.9, 0.6])
    np.testing.assert_array_equal(soft_threshold(v, 0.9), np.zeros(3))


def test_soft_threshold_rejects_negative():
    for c in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0]), c)
    # an infinite threshold is valid, if extreme: every entry becomes zero
    assert np.array_equal(soft_threshold(np.array([3.0, -2.0]), float("inf")), np.zeros(2))


@given(
    v=arrays(np.float64, st.integers(1, 30), elements=st.floats(-1e6, 1e6)),
    c=st.floats(0.0, 1e6),
)
def test_soft_threshold_contracts_and_preserves_signs(v, c):
    out = soft_threshold(v, c)
    assert np.max(np.abs(out)) <= np.max(np.abs(v)) + 1e-12
    survivors = out != 0.0
    assert np.all(np.sign(out[survivors]) == np.sign(v[survivors]))


def test_nearest_rank_percentile():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    assert nearest_rank_percentile(vals, 50.0) == 2.0
    assert nearest_rank_percentile(vals, 75.0) == 3.0
    assert nearest_rank_percentile(vals, 0.0) == 0.0
    with pytest.raises(ValueError):
        nearest_rank_percentile(vals, 100.0)


PCTS = st.one_of(st.sampled_from([1e-9, 50.0, 70.0, 99.999]), st.floats(1e-9, 99.999))


@given(
    zeros=st.lists(st.sampled_from([0.0, -0.0]), max_size=40),
    rest=st.lists(st.floats(-1e6, 1e6), max_size=40),
    pct=PCTS,
    seed=st.integers(0, 2**16),
)
@example(zeros=[], rest=[2.5], pct=1e-9, seed=0)
@example(zeros=[-0.0], rest=[], pct=99.999, seed=0)
@example(zeros=[0.0] * 7, rest=[1.0, 1.0, 2.0], pct=70.0, seed=0)
def test_nearest_rank_percentile_is_the_sorted_order_statistic(zeros, rest, pct, seed):
    # exact zeros in bulk (as thresholded |weights| hold them), duplicates and both signed zeros
    values = np.random.default_rng(seed).permutation(np.array(zeros + rest, dtype=np.float64))
    got = nearest_rank_percentile(values, pct)
    assert type(got) is float and got == percentile_by_sorting(values, pct)
    if values.size:
        assert got in values and np.sum(values <= got) >= pct / 100.0 * values.size


@given(size=st.integers(1, 60), pct=PCTS, shift=st.sampled_from([-1, 0, 1]))
def test_nearest_rank_percentile_with_a_zero_share_at_above_and_below_pct(size, pct, shift):
    # k = ceil(pct% of size) is the rank picked: k + shift zeros and the rest positive
    k = math.ceil(pct / 100.0 * size)
    zeros = min(max(k + shift, 0), size)
    values = np.concatenate([np.zeros(zeros), np.arange(1.0, size - zeros + 1.0)])
    expected = 0.0 if zeros >= k else float(k - zeros)
    assert nearest_rank_percentile(values[::-1], pct) == expected == percentile_by_sorting(values, pct)


def test_sparsity_spec_validation():
    with pytest.raises(ValueError):
        SparsitySpec("other", (1.0,))
    with pytest.raises(ValueError):
        SparsitySpec("percentile", (101.0,))
    with pytest.raises(ValueError):
        SparsitySpec("explicit_lambda", (-1.0,))
    for mode in ("explicit_lambda", "percentile"):
        with pytest.raises(ValueError, match="non-negative"):
            SparsitySpec(mode, (1.0, float("nan")))


# --- fit_l1 ----------------------------------------------------------------------


def toy_regression(seed=0, n=120, p=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, p))
    y = x @ rng.normal(size=p) + rng.normal(0, 0.3, size=n)
    return Dataset(x, y, "regression")


def test_fit_l1_percentile_single_layer_sparsity():
    data = toy_regression()
    arch = NetworkArchitecture(3, (12,))
    opts = TrainOptions(learning_rate=0.1, max_epochs=60, patience=0)
    fitted = fit_l1(data, arch, SparsitySpec("percentile", (50.0,)), opts, 1)
    zero_share = np.mean(fitted.weights[1] == 0.0)
    assert zero_share >= 0.5


def test_fit_l1_percentile_two_layers_sparsity():
    data = toy_regression(seed=2)
    arch = NetworkArchitecture(3, (10, 6))
    opts = TrainOptions(learning_rate=0.1, max_epochs=60, patience=0)
    fitted = fit_l1(data, arch, SparsitySpec("percentile", (50.0, 90.0)), opts, 2)
    assert np.mean(fitted.weights[1] == 0.0) >= 0.5
    assert np.mean(fitted.weights[2] == 0.0) >= 0.9


def test_fit_l1_zero_lambda_identical_to_plain_train():
    data = toy_regression(seed=3)
    arch = NetworkArchitecture(3, (6, 4))
    opts = TrainOptions(
        learning_rate=0.15, max_epochs=40, patience=5, validation_fraction=0.2
    )
    via_l1 = fit_l1(data, arch, SparsitySpec("explicit_lambda", (0.0, 0.0)), opts, 7)
    plain = train(xavier_init(arch, 7), arch, data, opts, 7)
    for a, b in zip((*via_l1.weights, *via_l1.intercepts), (*plain.weights, *plain.intercepts)):
        assert np.array_equal(a, b)


def test_fit_l1_requires_one_value_per_layer():
    data = toy_regression(seed=4)
    arch = NetworkArchitecture(3, (5, 5))
    opts = TrainOptions(max_epochs=5, patience=0)
    with pytest.raises(ValueError, match=r"one value per hidden_sizes entry \(2\), got 1"):
        fit_l1(data, arch, SparsitySpec("percentile", (50.0,)), opts, 0)


def test_fit_l1_explicit_lambda_shrinks():
    data = toy_regression(seed=5)
    arch = NetworkArchitecture(3, (8,))
    opts = TrainOptions(learning_rate=0.1, max_epochs=50, patience=0)
    heavy = fit_l1(data, arch, SparsitySpec("explicit_lambda", (5.0,)), opts, 5)
    light = fit_l1(data, arch, SparsitySpec("explicit_lambda", (0.0,)), opts, 5)
    assert np.sum(np.abs(heavy.weights[1])) < np.sum(np.abs(light.weights[1]))


# --- predict_bagged_dropout ----------------------------------------------------------


def constant_net(b=0.7, task="regression"):
    arch = NetworkArchitecture(2, (3,), "relu", task)
    params = xavier_init(arch, 0)
    for w in params.weights:
        w[:] = 0.0
    params.intercepts[-1][:] = b
    return params, arch


def test_bagged_k1_rate0_equals_plain_forward():
    arch = NetworkArchitecture(3, (5,), "relu", "regression")
    params = xavier_init(arch, 1)
    x = np.random.default_rng(2).uniform(-1, 1, size=(10, 3))
    spec = BaggedDropoutSpec(num_repeats=1, drop_rate=0.0)
    result = predict_bagged_dropout(params, arch, x, spec, seed=3)
    np.testing.assert_array_equal(result.prediction, forward_batch(params, arch, x))


def test_bagged_constant_network_invariant():
    params, arch = constant_net(b=0.7)
    x = np.random.default_rng(0).uniform(-1, 1, size=(6, 2))
    for k, rate in [(1, 0.0), (8, 0.5), (16, 0.9)]:
        result = predict_bagged_dropout(params, arch, x, BaggedDropoutSpec(k, rate), seed=4)
        np.testing.assert_allclose(result.prediction, 0.7, atol=1e-15)


def test_bagged_deterministic():
    arch = NetworkArchitecture(4, (6,), "relu", "regression")
    params = xavier_init(arch, 7)
    x = np.random.default_rng(5).uniform(-1, 1, size=(12, 4))
    spec = BaggedDropoutSpec(num_repeats=32, drop_rate=0.4)
    a = predict_bagged_dropout(params, arch, x, spec, seed=11)
    b = predict_bagged_dropout(params, arch, x, spec, seed=11)
    np.testing.assert_array_equal(a.prediction, b.prediction)
    np.testing.assert_array_equal(a.per_repeat, b.per_repeat)


def test_bagged_regression_mean_identity():
    arch = NetworkArchitecture(3, (6, 4), "relu", "regression")
    params = xavier_init(arch, 9)
    x = np.random.default_rng(6).uniform(-1, 1, size=(20, 3))
    spec = BaggedDropoutSpec(num_repeats=16, drop_rate=0.3)
    result = predict_bagged_dropout(params, arch, x, spec, seed=13)
    np.testing.assert_allclose(result.prediction, result.per_repeat.mean(axis=0), atol=1e-12)
    assert result.labels is None


def test_bagged_classification_labels_flip_exactly_at_threshold():
    params, arch = constant_net(b=0.0, task="classification")  # p_hat = 0.5 everywhere
    x = np.zeros((4, 2))
    at = predict_bagged_dropout(params, arch, x, BaggedDropoutSpec(4, 0.2, threshold=0.5), seed=1)
    below = predict_bagged_dropout(params, arch, x, BaggedDropoutSpec(4, 0.2, threshold=0.49), seed=1)
    np.testing.assert_array_equal(at.labels, np.zeros(4, dtype=int))  # strict inequality
    np.testing.assert_array_equal(below.labels, np.ones(4, dtype=int))
    for result, spec_threshold in [(at, 0.5), (below, 0.49)]:
        np.testing.assert_array_equal(result.labels, (result.prediction > spec_threshold).astype(int))


def test_bagged_spec_validation():
    with pytest.raises(ValueError):
        BaggedDropoutSpec(0, 0.5)
    with pytest.raises(ValueError):
        BaggedDropoutSpec(2, 1.0)
    with pytest.raises(ValueError):
        BaggedDropoutSpec(2, 0.5, threshold=1.0)


# --- fit_stagewise ---------------------------------------------------------------


def test_stagewise_single_column_matches_plain_fit_quality():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, size=(100, 1))
    y = 2.0 * x[:, 0] + rng.normal(0, 0.1, size=100)
    data = Dataset(x, y, "regression")
    arch = NetworkArchitecture(1, (4,))
    cfg = DnpConfig(
        num_dropouts=1,
        dropout_rate=0.3,
        train_opts=TrainOptions(learning_rate=0.2, max_epochs=200, patience=0),
    )
    sw = fit_stagewise(data, arch, cfg, 3)
    plain = train(xavier_init(arch, 3), arch, data, cfg.train_opts, 3)
    # the single admission is forced; the refit reaches the same quality
    assert empirical_loss(sw, arch, data) <= 2.0 * empirical_loss(plain, arch, data) + 1e-6


def test_stagewise_admits_dominant_column_first():
    hits = 0
    for rep in range(100):
        rng = np.random.default_rng(300 + rep)
        x = rng.uniform(-1, 1, size=(80, 2))
        y = 5.0 * x[:, 0] + 0.5 * x[:, 1] + rng.normal(0, 0.2, size=80)
        data = Dataset(x, y, "regression")
        cfg = DnpConfig(
            num_dropouts=2,
            dropout_rate=0.5,
            train_opts=TrainOptions(learning_rate=0.1, max_epochs=30, patience=0),
        )
        order = dnp_run(data, NetworkArchitecture(2, (4,)), 2, cfg, seed=rep)
        hits += order[0] == 0
    assert hits >= 95


def test_stagewise_leaves_no_frozen_rows():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, size=(60, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(0, 0.1, size=60)
    data = Dataset(x, y, "regression")
    cfg = DnpConfig(
        num_dropouts=1,
        dropout_rate=0.2,
        train_opts=TrainOptions(learning_rate=0.15, max_epochs=40, patience=0),
    )
    fitted = fit_stagewise(data, NetworkArchitecture(3, (5,)), cfg, 6)
    assert not np.any(np.all(fitted.weights[0] == 0.0, axis=1))
