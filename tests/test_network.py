import json

import numpy as np
import pytest

from enns.network import (
    Dataset,
    NetworkArchitecture,
    NetworkParameters,
    NumericalError,
    TrainOptions,
    adagrad_step,
    backward,
    dropout_mask,
    empirical_loss,
    forward_batch,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    train,
    xavier_init,
)

from _oracles import loss_by_loops, max_relative_gradient_error


def small_arch(task="regression", hidden=(4, 2), p=3, activation="relu"):
    return NetworkArchitecture(p, hidden, activation, task)


def forward_row(params, arch, x):
    return forward_batch(params, arch, np.asarray(x, dtype=np.float64)[None, :])[0]


def random_dataset(arch, n=8, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, arch.input_dim))
    if arch.task == "regression":
        y = rng.normal(size=n)
    else:
        y = (rng.random(n) < 0.5).astype(float)
    return Dataset(x, y, arch.task)


# --- xavier_init -------------------------------------------------------------


def test_xavier_bound_single_unit():
    arch = NetworkArchitecture(1, (1,))
    params = xavier_init(arch, 0)
    for w in params.weights:
        assert np.all(np.abs(w) <= np.sqrt(3.0))


def test_xavier_deterministic():
    arch = small_arch()
    a = xavier_init(arch, 42)
    b = xavier_init(arch, 42)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert a.output_intercept == b.output_intercept


def test_xavier_intercepts_zero():
    params = xavier_init(small_arch(), 1)
    for t in params.hidden_intercepts:
        assert np.all(t == 0.0)
    assert params.output_intercept == 0.0


def test_xavier_layer0_variance_monte_carlo():
    # variance of U(-a, a) with a = sqrt(6/(4+8)) is a^2/3 = 1/6
    arch = NetworkArchitecture(4, (8, 4))
    draws = [xavier_init(arch, seed).weights[0].ravel() for seed in range(10_000)]
    var = np.var(np.concatenate(draws))
    assert abs(var - 1.0 / 6.0) < 0.1 / 6.0


# --- forward -----------------------------------------------------------------


def test_forward_constant_regression():
    arch = NetworkArchitecture(2, (3,), "relu", "regression")
    params = xavier_init(arch, 0)
    for w in params.weights:
        w[:] = 0.0
    params.output_intercept = 0.5
    assert forward_row(params, arch, np.array([1.0, -2.0])) == 0.5


def test_forward_constant_classification_is_half():
    arch = NetworkArchitecture(2, (3,), "relu", "classification")
    params = xavier_init(arch, 0)
    for w in params.weights:
        w[:] = 0.0
    assert forward_row(params, arch, np.array([0.3, 0.7])) == pytest.approx(0.5, abs=1e-15)


def test_forward_hand_computed_single_unit():
    arch = NetworkArchitecture(1, (1,), "relu", "regression")
    params = NetworkParameters(
        weights=[np.array([[2.0]]), np.array([[3.0]])],
        hidden_intercepts=[np.array([-1.0])],
        output_intercept=0.5,
    )
    assert forward_row(params, arch, np.array([1.0])) == pytest.approx(3.5)


def test_forward_dimension_mismatch():
    arch = small_arch()
    params = xavier_init(arch, 0)
    with pytest.raises(ValueError):
        forward_batch(params, arch, np.zeros((1, arch.input_dim + 1)))


def test_forward_classification_strictly_inside_unit_interval():
    arch = NetworkArchitecture(1, (1,), "relu", "classification")
    params = NetworkParameters(
        weights=[np.array([[100.0]]), np.array([[100.0]])],
        hidden_intercepts=[np.array([0.0])],
        output_intercept=0.0,
    )
    hi = forward_row(params, arch, np.array([10.0]))
    lo = forward_row(params, arch, np.array([-10.0]))
    assert 0.0 < lo < hi < 1.0


# --- empirical_loss ----------------------------------------------------------


def test_loss_perfect_fit_is_zero():
    arch = NetworkArchitecture(1, (1,), "relu", "regression")
    params = xavier_init(arch, 3)
    x = np.linspace(-1, 1, 7)[:, None]
    y = forward_batch(params, arch, x)
    assert empirical_loss(params, arch, Dataset(x, y, "regression")) == pytest.approx(0.0, abs=1e-16)


def test_loss_uninformative_classifier_is_log2():
    arch = NetworkArchitecture(2, (3,), "relu", "classification")
    params = xavier_init(arch, 0)
    for w in params.weights:
        w[:] = 0.0
    data = Dataset(np.zeros((10, 2)), np.array([0.0, 1.0] * 5), "classification")
    assert empirical_loss(params, arch, data) == pytest.approx(np.log(2.0), abs=1e-12)


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_loss_matches_loop_evaluator(task, activation):
    arch = small_arch(task=task, activation=activation)
    params = xavier_init(arch, 9)
    data = random_dataset(arch, n=16, seed=4)
    expected = loss_by_loops(params, arch, data.x.tolist(), data.y.tolist(), task)
    assert empirical_loss(params, arch, data) == pytest.approx(expected, abs=1e-12)


# --- backward ----------------------------------------------------------------


def test_backward_zero_output_layer_hand_derived():
    # with W_m = 0 the output is the constant b, so dL/dW_m = -(2/n) a_m' (y - b)
    arch = NetworkArchitecture(2, (3,), "relu", "regression")
    params = xavier_init(arch, 7)
    params.weights[-1][:] = 0.0
    params.output_intercept = 0.25
    data = random_dataset(arch, n=12, seed=1)
    z = data.x @ params.weights[0] + params.hidden_intercepts[0]
    a = np.maximum(z, 0.0)
    expected = -(2.0 / data.n) * a.T @ (data.y - params.output_intercept)
    got = backward(params, arch, data)
    np.testing.assert_allclose(got.weights[-1].ravel(), expected, atol=1e-12)


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_backward_matches_finite_differences(task, activation):
    arch = small_arch(task=task, activation=activation)
    params = xavier_init(arch, 11)
    data = random_dataset(arch, n=8, seed=2)
    assert max_relative_gradient_error(params, arch, data) < 1e-5


def test_backward_duplicate_columns_equal_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 4))
    x[:, 3] = x[:, 1]
    arch = NetworkArchitecture(4, (5,), "relu", "regression")
    params = xavier_init(arch, 8)
    params.weights[0][1] = 0.0
    params.weights[0][3] = 0.0
    data = Dataset(x, rng.normal(size=10), "regression")
    g = backward(params, arch, data)
    np.testing.assert_array_equal(g.weights[0][1], g.weights[0][3])


def test_backward_computes_gradients_for_frozen_rows():
    arch = small_arch()
    params = xavier_init(arch, 0)
    params.weights[0][:] = 0.0
    data = random_dataset(arch, n=10, seed=3)
    g = backward(params, arch, data)
    assert np.any(g.weights[0] != 0.0)


# --- adagrad_step -------------------------------------------------------------


def test_adagrad_zero_gradient_is_noop():
    arch = small_arch()
    params = xavier_init(arch, 0)
    grads = NetworkParameters.zeros_like(params)
    acc = NetworkParameters.zeros_like(params)
    new_params, new_acc = adagrad_step(params, grads, acc, lr=0.5)
    for a, b in zip(params.weights, new_params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(acc.weights, new_acc.weights):
        assert np.array_equal(a, b)


def test_adagrad_first_step_normalizes():
    arch = NetworkArchitecture(1, (1,))
    params = NetworkParameters([np.zeros((1, 1)), np.zeros((1, 1))], [np.zeros(1)], 0.0)
    grads = NetworkParameters([np.full((1, 1), 2.0), np.zeros((1, 1))], [np.zeros(1)], 0.0)
    acc = NetworkParameters.zeros_like(params)
    new_params, _ = adagrad_step(params, grads, acc, lr=1.0)
    assert new_params.weights[0][0, 0] == pytest.approx(-1.0, abs=1e-7)


def test_adagrad_two_identical_steps():
    # accumulators 1 then 2: step sizes 1 and 1/sqrt(2)
    arch = NetworkArchitecture(1, (1,))
    params = NetworkParameters([np.zeros((1, 1)), np.zeros((1, 1))], [np.zeros(1)], 0.0)
    grads = NetworkParameters([np.ones((1, 1)), np.zeros((1, 1))], [np.zeros(1)], 0.0)
    acc = NetworkParameters.zeros_like(params)
    p1, acc = adagrad_step(params, grads, acc, lr=1.0)
    step1 = -p1.weights[0][0, 0]
    p2, acc = adagrad_step(p1, grads, acc, lr=1.0)
    step2 = p1.weights[0][0, 0] - p2.weights[0][0, 0]
    assert step1 == pytest.approx(1.0, abs=1e-6)
    assert step2 == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)


# --- dropout_mask -------------------------------------------------------------


def test_dropout_rate_zero_is_identity():
    params = xavier_init(small_arch(), 0)
    masked = dropout_mask(params, 0.0, seed=1)
    for a, b in zip(params.weights, masked.weights):
        assert np.array_equal(a, b)


def test_dropout_zero_fraction_concentrates():
    arch = NetworkArchitecture(4, (100, 100))
    params = xavier_init(arch, 0)
    masked = dropout_mask(params, 0.5, seed=2)
    frac = np.mean(masked.weights[1] == 0.0)
    assert abs(frac - 0.5) < 0.02


def test_dropout_never_touches_input_layer():
    params = xavier_init(NetworkArchitecture(50, (10,)), 0)
    masked = dropout_mask(params, 0.9, seed=3)
    assert np.array_equal(params.weights[0], masked.weights[0])


def test_dropout_deterministic_per_seed():
    params = xavier_init(small_arch(), 0)
    a = dropout_mask(params, 0.5, seed=9)
    b = dropout_mask(params, 0.5, seed=9)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


# --- train --------------------------------------------------------------------


def test_train_zero_epochs_returns_input_unchanged():
    arch = small_arch()
    params = xavier_init(arch, 0)
    data = random_dataset(arch, seed=0)
    opts = TrainOptions(max_epochs=0, patience=0)
    out = train(params, arch, data, opts)
    for a, b in zip(params.weights, out.weights):
        assert np.array_equal(a, b)


def test_train_fits_separable_classification():
    rng = np.random.default_rng(17)
    x = rng.uniform(-1, 1, size=(100, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    data = Dataset(x, y, "classification")
    arch = NetworkArchitecture(2, (4,), "relu", "classification")
    params = xavier_init(arch, 2)
    opts = TrainOptions(learning_rate=0.3, max_epochs=400, patience=0, rng_seed=1)
    fitted = train(params, arch, data, opts)
    acc = np.mean((forward_batch(fitted, arch, x) > 0.5) == y)
    assert acc >= 0.95


def test_train_deterministic():
    arch = small_arch()
    params = xavier_init(arch, 4)
    data = random_dataset(arch, n=40, seed=6)
    opts = TrainOptions(learning_rate=0.1, max_epochs=30, patience=5, validation_fraction=0.25, rng_seed=11)
    a = train(params, arch, data, opts)
    b = train(params, arch, data, opts)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert a.output_intercept == b.output_intercept


def test_train_training_loss_non_increasing_checkpoints():
    arch = small_arch()
    params = xavier_init(arch, 4)
    data = random_dataset(arch, n=40, seed=6)
    losses = []
    last = params
    for epochs in [0, 5, 10, 20, 40]:
        opts = TrainOptions(learning_rate=0.1, max_epochs=epochs, patience=0, rng_seed=11)
        last = train(params, arch, data, opts)
        losses.append(empirical_loss(last, arch, data))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_aborts_on_non_finite_loss():
    arch = small_arch()
    params = xavier_init(arch, 4)
    data = random_dataset(arch, n=20, seed=6)
    opts = TrainOptions(learning_rate=1e200, max_epochs=5, patience=0)
    with pytest.raises(NumericalError):
        train(params, arch, data, opts)


# --- option and container validation -------------------------------------------


def test_train_options_validation():
    with pytest.raises(ValueError):
        TrainOptions(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainOptions(validation_fraction=1.0)
    with pytest.raises(ValueError):
        TrainOptions(max_epochs=10, patience=11)
    with pytest.raises(ValueError):
        TrainOptions(batch_size=0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0.0, 0.5, 1.0]), "classification")
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([1.0]), "regression")
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4), "regression")


def test_architecture_validation():
    with pytest.raises(ValueError):
        NetworkArchitecture(-1, (3,))
    with pytest.raises(ValueError):
        NetworkArchitecture(2, ())
    with pytest.raises(ValueError):
        NetworkArchitecture(2, (3,), "tanh")


# --- persistence ----------------------------------------------------------------


def test_model_json_round_trip(tmp_path):
    arch = small_arch(task="classification")
    params = xavier_init(arch, 21)
    path = tmp_path / "model.json"
    save_model(path, params, arch)
    loaded_params, loaded_arch = load_model(path)
    assert loaded_arch == arch
    for a, b in zip(params.weights, loaded_params.weights):
        assert np.array_equal(a, b)
    x = np.random.default_rng(0).normal(size=(5, arch.input_dim))
    np.testing.assert_array_equal(
        forward_batch(params, arch, x), forward_batch(loaded_params, loaded_arch, x)
    )


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_zero_input_network_predicts_constant_and_round_trips(task):
    arch = NetworkArchitecture(0, (3, 2), "sigmoid", task)
    params = xavier_init(arch, 5)
    params.hidden_intercepts[0][:] = [0.5, -1.0, 2.0]
    params.output_intercept = -0.25
    x = np.zeros((6, 0))
    preds = forward_batch(params, arch, x)
    assert preds.shape == (6,)
    assert np.all(preds == preds[0])
    loaded_params, loaded_arch = model_from_json(json.loads(json.dumps(model_to_json(params, arch))))
    assert loaded_arch == arch
    assert loaded_params.weights[0].shape == (0, 3)
    np.testing.assert_array_equal(forward_batch(loaded_params, loaded_arch, x), preds)


def test_model_json_rejects_unknown_version():
    arch = small_arch()
    doc = model_to_json(xavier_init(arch, 0), arch)
    doc["format_version"] = 99
    with pytest.raises(ValueError):
        model_from_json(doc)
