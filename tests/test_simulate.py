import numpy as np
import pytest

from enns.network import sigmoid
from enns.simulate import (
    ResponseSpec,
    gen_design_correlated,
    gen_design_uniform,
    gen_response,
)


# --- uniform design -----------------------------------------------------------


def test_uniform_support():
    x = gen_design_uniform(200, 10, seed=0)
    assert np.all((x > -1.0) & (x < 1.0))


def test_uniform_column_means_vanish():
    x = gen_design_uniform(10_000, 4, seed=1)
    assert np.all(np.abs(x.mean(axis=0)) < 0.05)


def test_uniform_deterministic():
    assert np.array_equal(gen_design_uniform(50, 5, seed=7), gen_design_uniform(50, 5, seed=7))


# --- correlated design -----------------------------------------------------------


def test_correlated_zero_rho_is_plain_normal():
    raw = gen_design_correlated(5_000, 6, rho=0.0, seed=3, truncate=False)
    assert abs(raw.mean()) < 0.05
    assert abs(raw.var() - 1.0) < 0.05
    corr = np.corrcoef(raw, rowvar=False)
    off = corr[np.triu_indices(6, k=1)]
    assert np.all(np.abs(off) < 0.06)


def test_correlated_truncation_is_clamping():
    raw = gen_design_correlated(500, 4, rho=0.4, seed=5, truncate=False)
    clipped = gen_design_correlated(500, 4, rho=0.4, seed=5, truncate=True)
    assert np.array_equal(clipped, np.clip(raw, -1.0, 1.0))


@pytest.mark.parametrize("rho", [0.3, 0.7])
def test_correlated_pre_truncation_pairwise_correlation(rho):
    # shared-factor weight t = sqrt(rho/(1-rho)) gives pairwise correlation rho
    raw = gen_design_correlated(10_000, 6, rho=rho, seed=11, truncate=False)
    corr = np.corrcoef(raw, rowvar=False)
    off = corr[np.triu_indices(6, k=1)]
    assert abs(off.mean() - rho) < 0.03


def test_correlated_rejects_bad_rho():
    with pytest.raises(ValueError):
        gen_design_correlated(10, 2, rho=1.0, seed=0)


# --- responses ----------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [("noise_sd", float("nan")), ("noise_sd", float("inf")), ("coef_mean", float("nan")),
     ("coef_mean", float("-inf")), ("coef_sd", float("nan")), ("coef_sd", float("inf")), ("coef_sd", -1.0)],
)
def test_response_spec_rejects_non_finite_or_negative_scales(field, value):
    with pytest.raises(ValueError, match=field):
        ResponseSpec(kind="linear", s=2, **{field: value})


def test_linear_null_coefficients_give_zero_response():
    x = gen_design_uniform(20, 4, seed=0)
    spec = ResponseSpec(kind="linear", task="regression", s=2, coef_mean=0.0, coef_sd=0.0, noise_sd=0.0)
    y, truth = gen_response(x, spec, seed=1)
    assert np.all(y == 0.0)
    assert truth.support == (0, 1)


def test_additive_hand_value_at_origin():
    x = np.zeros((1, 5))
    spec = ResponseSpec(kind="additive", task="regression", s=5, noise_sd=0.0)
    y, _ = gen_response(x, spec, seed=2)
    assert y[0] == pytest.approx(np.log(2.0) - 1.0)


def test_additive_requires_five_signals():
    with pytest.raises(ValueError, match="must be 5 for the additive kind"):
        ResponseSpec(kind="additive", s=4)


@pytest.mark.parametrize("net_hidden", [(), (0,), (5, -1)])
def test_network_response_needs_positive_hidden_layers(net_hidden):
    with pytest.raises(ValueError, match="^net_hidden must be non-empty with positive entries"):
        ResponseSpec(kind="network", s=2, net_hidden=net_hidden)
    ResponseSpec(kind="linear", s=2, net_hidden=net_hidden)  # other kinds draw no generator


def test_network_response_ignores_null_columns():
    x = gen_design_uniform(50, 12, seed=4)
    spec = ResponseSpec(kind="network", task="regression", s=3, net_hidden=(8, 4))
    y, _ = gen_response(x, spec, seed=9)
    permuted = x.copy()
    permuted[:, 3:] = permuted[:, ::-1][:, :9]
    y2, _ = gen_response(permuted, spec, seed=9)
    assert np.array_equal(y, y2)


@pytest.mark.parametrize("kind", ["linear", "additive", "network"])
@pytest.mark.parametrize("task", ["regression", "classification"])
def test_support_exclusivity(kind, task):
    s = 5
    x = gen_design_uniform(40, 9, seed=6)
    spec = ResponseSpec(kind=kind, task=task, s=s, net_hidden=(6, 3))
    y, _ = gen_response(x, spec, seed=13)
    zeroed = x.copy()
    zeroed[:, s:] = 0.0
    y2, _ = gen_response(zeroed, spec, seed=13)
    assert np.array_equal(y, y2)


def test_classification_labels_are_calibrated_bernoulli():
    x = gen_design_uniform(10_000, 5, seed=8)
    spec = ResponseSpec(kind="additive", task="classification", s=5)
    y, truth = gen_response(x, spec, seed=3)
    eta = (
        np.sin(x[:, 0]) + x[:, 1] + np.exp(x[:, 2]) + x[:, 3] ** 2 + np.log(x[:, 4] + 2.0) - 2.0
    )
    prob = sigmoid(eta)
    for lo, hi in [(0.0, 0.3), (0.3, 0.5), (0.5, 0.7), (0.7, 1.0)]:
        bucket = (prob >= lo) & (prob < hi)
        if bucket.sum() < 50:
            continue
        expected = prob[bucket].mean()
        se = np.sqrt(expected * (1 - expected) / bucket.sum())
        assert abs(y[bucket].mean() - expected) < 5 * se + 1e-9


def test_network_truth_records_generator():
    x = gen_design_uniform(10, 6, seed=0)
    spec = ResponseSpec(kind="network", task="regression", s=2, net_hidden=(4,))
    _, truth = gen_response(x, spec, seed=5)
    assert truth.generator_params is not None
    assert np.all(truth.generator_params.weights[0][2:] == 0.0)
    assert np.any(truth.generator_params.weights[0][:2] != 0.0)


def test_response_deterministic():
    x = gen_design_uniform(30, 7, seed=1)
    spec = ResponseSpec(kind="network", task="classification", s=2, net_hidden=(5,))
    y1, _ = gen_response(x, spec, seed=21)
    y2, _ = gen_response(x, spec, seed=21)
    assert np.array_equal(y1, y2)


def test_coefficient_defaults_per_task():
    reg = ResponseSpec(kind="network", task="regression", s=2)
    clf = ResponseSpec(kind="network", task="classification", s=2)
    assert reg.resolved_coefs() == (1.0, 1.0)
    assert clf.resolved_coefs() == (0.0, 1.0)
    override = ResponseSpec(kind="network", task="regression", s=2, coef_mean=0.0, coef_sd=2.0)
    assert override.resolved_coefs() == (0.0, 2.0)
