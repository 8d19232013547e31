import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enns.network
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
    layer_deltas,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    sigmoid,
    train,
    xavier_init,
)
from enns.estimation import SparsitySpec, fit_l1, fit_stagewise, soft_threshold
from enns.stagewise import DnpConfig, stagewise_fit

from _oracles import adagrad_by_layers, loss_by_loops, max_relative_gradient_error, sigmoid_masked, train_reference


def small_arch(task="regression", hidden=(4, 2), p=3, activation="relu"):
    return NetworkArchitecture(p, hidden, activation, task)


def forward_row(params, arch, x):
    return forward_batch(params, arch, np.asarray(x, dtype=np.float64)[None, :])[0]


def flat(params):
    return np.concatenate([*params.weights, *params.intercepts], axis=None)


def layers(params):
    return [*params.weights, *params.intercepts]


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
    for ta, tb in zip(a.intercepts, b.intercepts):
        assert np.array_equal(ta, tb)


def test_xavier_intercepts_zero():
    arch = small_arch()
    params = xavier_init(arch, 1)
    assert [t.shape for t in params.intercepts] == [(4,), (2,), (1,)]
    for t in params.intercepts:
        assert np.all(t == 0.0)


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
    params.intercepts[-1][:] = 0.5
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
        intercepts=[np.array([-1.0]), np.array([0.5])],
    )
    assert forward_row(params, arch, np.array([1.0])) == pytest.approx(3.5)


def test_forward_dimension_mismatch():
    arch = small_arch()
    params = xavier_init(arch, 0)
    with pytest.raises(ValueError):
        forward_batch(params, arch, np.zeros((1, arch.input_dim + 1)))


ENGINE_ENTRY_POINTS = {
    "backward": backward,
    "layer_deltas": layer_deltas,
    "empirical_loss": empirical_loss,
    "train": lambda params, arch, data: train(params, arch, data, TrainOptions(max_epochs=1, patience=0), 0),
}


@pytest.mark.parametrize("entry", list(ENGINE_ENTRY_POINTS))
def test_data_that_do_not_fit_the_network_are_rejected(entry):
    # 0/1 responses in a regression Dataset for a classification network would
    # give the squared error of probabilities, or the regression deltas
    arch = small_arch(task="classification")
    params = xavier_init(arch, 0)
    data = random_dataset(arch)
    call = ENGINE_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="^data task does not match architecture task$"):
        call(params, arch, Dataset(data.x, data.y, "regression"))
    with pytest.raises(ValueError, match="^data does not match architecture input_dim$"):
        call(params, arch, data.subset_columns([0, 1]))


def test_forward_classification_strictly_inside_unit_interval():
    arch = NetworkArchitecture(1, (1,), "relu", "classification")
    params = NetworkParameters(
        weights=[np.array([[100.0]]), np.array([[100.0]])],
        intercepts=[np.array([0.0]), np.array([0.0])],
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
    params.intercepts[-1][:] = 0.25
    data = random_dataset(arch, n=12, seed=1)
    z = data.x @ params.weights[0] + params.intercepts[0]
    a = np.maximum(z, 0.0)
    expected = -(2.0 / data.n) * a.T @ (data.y - 0.25)
    _, got = backward(params, arch, data)
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
    _, g = backward(params, arch, data)
    np.testing.assert_array_equal(g.weights[0][1], g.weights[0][3])


def test_backward_computes_gradients_for_frozen_rows():
    arch = small_arch()
    params = xavier_init(arch, 0)
    params.weights[0][:] = 0.0
    data = random_dataset(arch, n=10, seed=3)
    _, g = backward(params, arch, data)
    assert np.any(g.weights[0] != 0.0)


@settings(max_examples=80, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    activation=st.sampled_from(["relu", "sigmoid"]),
    task=st.sampled_from(["regression", "classification"]),
    n=st.integers(1, 12),
    p=st.integers(0, 3),
    output_shift=st.sampled_from([0.0, 30.0, -30.0, 45.0]),
    seed=st.integers(0, 2**16),
)
def test_backward_loss_is_the_empirical_loss(hidden, activation, task, n, p, output_shift, seed):
    # shifts of +-30 and 45 push classification outputs past log(1/EPS_CLIP) ~ 27.6, where the loss clips
    arch = NetworkArchitecture(p, tuple(hidden), activation, task)
    params = xavier_init(arch, seed)
    params.intercepts[-1] += output_shift
    data = random_dataset(arch, n=n, seed=seed + 1)
    loss, _ = backward(params, arch, data)
    expected = empirical_loss(params, arch, data)
    assert type(loss) is float and loss == expected


# --- adagrad_step -------------------------------------------------------------


def test_adagrad_zero_gradient_is_noop():
    arch = small_arch()
    theta = flat(xavier_init(arch, 0))
    before = theta.copy()
    grad = np.zeros_like(theta)
    acc = np.zeros_like(theta)
    adagrad_step(theta, grad, acc, lr=0.5)
    assert np.array_equal(theta, before)
    assert np.array_equal(acc, np.zeros_like(theta))


def test_adagrad_first_step_normalizes():
    # layout W_0, W_1, t_0, t_1
    theta = flat(NetworkParameters([np.zeros((1, 1)), np.zeros((1, 1))], [np.zeros(1), np.zeros(1)]))
    grad = flat(NetworkParameters([np.full((1, 1), 2.0), np.zeros((1, 1))], [np.zeros(1), np.zeros(1)]))
    acc = np.zeros_like(theta)
    adagrad_step(theta, grad, acc, lr=1.0)
    assert theta[0] == pytest.approx(-1.0, abs=1e-7)


def test_adagrad_two_identical_steps():
    # accumulators 1 then 2: step sizes 1 and 1/sqrt(2)
    theta = flat(NetworkParameters([np.zeros((1, 1)), np.zeros((1, 1))], [np.zeros(1), np.zeros(1)]))
    grads = NetworkParameters([np.ones((1, 1)), np.zeros((1, 1))], [np.zeros(1), np.zeros(1)])
    acc = np.zeros_like(theta)
    adagrad_step(theta, flat(grads), acc, lr=1.0)
    step1 = -theta[0]
    before = theta[0]
    adagrad_step(theta, flat(grads), acc, lr=1.0)
    step2 = before - theta[0]
    assert step1 == pytest.approx(1.0, abs=1e-6)
    assert step2 == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)


def test_adagrad_updates_t_m_like_every_parameter():
    arch = small_arch()
    params = xavier_init(arch, 0)
    _, grads = backward(params, arch, random_dataset(arch, seed=1))
    theta, g = flat(params), flat(grads)
    new_theta, grad = theta.copy(), g.copy()
    new_acc = np.zeros_like(theta)
    adagrad_step(new_theta, grad, new_acc, lr=0.3)
    np.testing.assert_array_equal(new_acc, g * g)
    np.testing.assert_array_equal(new_theta, theta - 0.3 * g / (np.sqrt(g * g) + 1e-8))
    # t_m is the last entry of the flat layout
    assert grads.intercepts[-1].shape == (1,) and g[-1] == grads.intercepts[-1][0] != 0.0
    assert new_theta[-1] != theta[-1]


def test_adagrad_step_matches_per_layer_update():
    arch = small_arch(hidden=(5, 3))
    rng = np.random.default_rng(4)
    params = xavier_init(arch, 1)
    grads = NetworkParameters([rng.normal(size=w.shape) for w in params.weights],
                              [rng.normal(size=t.shape) for t in params.intercepts])
    acc = NetworkParameters([rng.random(w.shape) for w in params.weights],
                            [rng.random(t.shape) for t in params.intercepts])
    theta, acc_flat = flat(params), flat(acc)
    for _ in range(2):
        params, acc = adagrad_by_layers(params, grads, acc, 0.07)
        adagrad_step(theta, flat(grads), acc_flat, 0.07)
        assert theta.tobytes() == flat(params).tobytes()
        assert acc_flat.tobytes() == flat(acc).tobytes()


@pytest.mark.parametrize("lr", [0.0, -0.1, float("nan")])
def test_adagrad_rejects_nonpositive_learning_rate(lr):
    theta = np.zeros(3)
    with pytest.raises(ValueError):
        adagrad_step(theta, np.ones(3), np.zeros(3), lr)


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
    out = train(params, arch, data, opts, 0)
    for a, b in zip(layers(params), layers(out), strict=True):
        assert np.array_equal(a, b)


def test_train_fits_separable_classification():
    rng = np.random.default_rng(17)
    x = rng.uniform(-1, 1, size=(100, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    data = Dataset(x, y, "classification")
    arch = NetworkArchitecture(2, (4,), "relu", "classification")
    params = xavier_init(arch, 2)
    opts = TrainOptions(learning_rate=0.3, max_epochs=400, patience=0)
    fitted = train(params, arch, data, opts, 1)
    acc = np.mean((forward_batch(fitted, arch, x) > 0.5) == y)
    assert acc >= 0.95


def test_train_deterministic():
    arch = small_arch()
    params = xavier_init(arch, 4)
    data = random_dataset(arch, n=40, seed=6)
    opts = TrainOptions(learning_rate=0.1, max_epochs=30, patience=5, validation_fraction=0.25)
    a = train(params, arch, data, opts, 11)
    b = train(params, arch, data, opts, 11)
    for wa, wb in zip((*a.weights, *a.intercepts), (*b.weights, *b.intercepts)):
        assert np.array_equal(wa, wb)


def test_train_training_loss_non_increasing_checkpoints():
    arch = small_arch()
    params = xavier_init(arch, 4)
    data = random_dataset(arch, n=40, seed=6)
    losses = []
    last = params
    for epochs in [0, 5, 10, 20, 40]:
        opts = TrainOptions(learning_rate=0.1, max_epochs=epochs, patience=0)
        last = train(params, arch, data, opts, 11)
        losses.append(empirical_loss(last, arch, data))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    activation=st.sampled_from(["relu", "sigmoid"]),
    task=st.sampled_from(["regression", "classification"]),
    n=st.integers(4, 16),
    p=st.integers(1, 3),
    batch_size=st.one_of(st.none(), st.integers(1, 6)),
    validation_fraction=st.sampled_from([0.0, 0.25]),
    patience=st.sampled_from([0, 3]),
    max_epochs=st.sampled_from([0, 3, 6]),
    threshold=st.sampled_from([None, 0.02]),
    seed=st.integers(0, 2**16),
)
def test_train_matches_per_layer_reference(
    hidden, activation, task, n, p, batch_size, validation_fraction, patience, max_epochs, threshold, seed
):
    arch = NetworkArchitecture(p, tuple(hidden), activation, task)
    data = random_dataset(arch, n=n, seed=seed)
    params = xavier_init(arch, seed + 1)
    before = params.copy()
    opts = TrainOptions(
        learning_rate=0.1, max_epochs=max_epochs, batch_size=batch_size, patience=patience,
        validation_fraction=validation_fraction,
    )
    hook = reference_hook = None
    if threshold is not None:
        def hook(params, epoch):
            for w in params.weights[1:]:
                w[...] = soft_threshold(w, threshold)

        def reference_hook(params, epoch):
            return NetworkParameters(
                [params.weights[0], *(soft_threshold(w, threshold) for w in params.weights[1:])], params.intercepts
            )

    out = train(params, arch, data, opts, seed + 2, epoch_hook=hook)
    expected = train_reference(params, arch, data, opts, seed + 2, epoch_hook=reference_hook)
    for a, b in zip(layers(out), layers(expected), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    for a, b in zip(layers(params), layers(before), strict=True):
        assert a.tobytes() == b.tobytes()
    assert not any(np.shares_memory(a, b) for a in layers(params) for b in layers(out))


def test_train_aborts_on_non_finite_loss():
    # full batch (the fused path), minibatch, and full batch with a validation split
    arch = small_arch()
    params = xavier_init(arch, 4)
    data = random_dataset(arch, n=20, seed=6)
    huge = NetworkParameters([w * 1e120 for w in params.weights], params.intercepts)
    for extra in ({}, {"batch_size": 5}, {"validation_fraction": 0.25}):
        opts = TrainOptions(learning_rate=1e200, max_epochs=5, patience=0, **extra)
        with pytest.raises(NumericalError, match="epoch 0"):
            train(params, arch, data, opts, 0)
        # a starting point that overflows fails at epoch -1, and numpy does not warn first
        with warnings.catch_warnings(record=True) as seen, pytest.raises(NumericalError, match="epoch -1"):
            warnings.simplefilter("always")
            train(huge, arch, data, opts, 0)
        assert not seen, [str(w.message) for w in seen]


def test_minibatch_loss_stops_a_divergent_run_before_steps_on_non_finite_gradients(monkeypatch):
    # the loss that backward computes for each minibatch is checked, not only
    # returned: after one step at a huge learning rate the second batch's loss
    # overflows and the run stops there, where without the check it would take
    # all four of the epoch's steps
    arch = NetworkArchitecture(3, (4,))
    data = random_dataset(arch, n=20, seed=6)
    steps = []

    def counted_step(*args):
        steps.append(1)
        adagrad_step(*args)

    monkeypatch.setattr(enns.network, "adagrad_step", counted_step)
    opts = TrainOptions(learning_rate=1e200, max_epochs=5, patience=0, batch_size=5)
    with pytest.raises(NumericalError, match="non-finite loss at epoch 0") as raised:
        train(xavier_init(arch, 4), arch, data, opts, 0)
    assert len(steps) == 1
    assert str(raised.value.__cause__) == "non-finite empirical loss"


@pytest.mark.parametrize(
    "extra, passes, losses",
    [
        ({}, 7, 1),  # full batch, no validation split: each backward pass scores a checkpoint
        ({"validation_fraction": 0.25}, 7, 8),
        ({"batch_size": 3}, 7 * 4, 8),
        ({"max_epochs": 0}, 0, 1),
    ],
)
def test_train_forward_pass_counts(monkeypatch, extra, passes, losses):
    calls = {"backward": 0, "empirical_loss": 0}

    def counting(name):
        original = getattr(enns.network, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(enns.network, name, counting(name))
    arch = small_arch()
    data = random_dataset(arch, n=10, seed=3)
    opts = TrainOptions(**{"learning_rate": 0.1, "max_epochs": 7, "patience": 0, **extra})
    train(xavier_init(arch, 2), arch, data, opts, 0)
    assert calls == {"backward": passes, "empirical_loss": losses}


# --- option and container validation -------------------------------------------


def test_train_options_validation():
    for lr in (0.0, float("nan")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainOptions(learning_rate=lr)
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
        Dataset(np.zeros((3, 2)), np.array([0.0, 2.0, 1.0]), "classification")
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            Dataset(np.array([[bad, 0.0]]), np.array([1.0]), "regression")
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 2)), np.array([bad]), "regression")
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4), "regression")


@settings(deadline=None, max_examples=60)
@given(
    scale=st.floats(1.0, 800.0),
    unit=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
)
def test_sigmoid_matches_the_masked_halves_bit_for_bit(scale, unit):
    z = scale * np.array(unit)
    assert sigmoid(z).tobytes() == sigmoid_masked(z).tobytes()


def test_sigmoid_edges_match_the_masked_halves():
    z = np.array([0.0, 1e-320, 745.0, 1000.0, np.inf])
    z = np.concatenate([z, -z]).reshape(2, 5)
    assert sigmoid(z).tobytes() == sigmoid_masked(z).tobytes()
    assert sigmoid(z)[0, 4] == 1.0 and sigmoid(z)[1, 4] == 0.0
    # NaN stays NaN; its bit pattern may differ between the two forms
    assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("cols", [[], range(1, 4), [2, 2, 0], [-1, 0, -4]], ids=["empty", "range", "repeated", "negative"])
def test_subset_columns_is_a_row_major_copy(order, cols):
    x = np.asarray(np.random.default_rng(4).standard_normal((6, 5)), order=order)
    data = Dataset(x, np.zeros(6))
    assert data.x.flags.f_contiguous == (order == "F")
    part = data.subset_columns(cols)
    assert part.x.flags.c_contiguous
    assert part.x.shape == (6, len(cols)) and np.array_equal(part.x, x[:, list(cols)])
    assert not np.shares_memory(part.x, data.x)


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_subsets_match_the_constructor(task):
    data = random_dataset(small_arch(task, p=5), n=12, seed=8)
    rows, cols = np.array([7, 0, 3, 3, 11]), [4, 1, 2]
    pairs = [
        (data.subset_rows(rows), Dataset(data.x[rows], data.y[rows], task)),
        (data.subset_columns(cols), Dataset(np.ascontiguousarray(data.x[:, cols]), data.y, task)),
        (
            data.subset_columns(cols).subset_rows(rows),
            Dataset(np.ascontiguousarray(data.x[rows][:, cols]), data.y[rows], task),
        ),
    ]
    for part, checked in pairs:
        assert part.task == checked.task
        for a, b in ((part.x, checked.x), (part.y, checked.y)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes() and a.dtype == b.dtype == np.float64
            assert a.flags.c_contiguous == b.flags.c_contiguous
    assert data.subset_columns(cols).x.flags.c_contiguous
    with pytest.raises(ValueError):
        data.subset_rows(np.array([], dtype=np.int64))


def test_containers_compare_and_hash_by_identity():
    arch = small_arch()
    pairs = [
        (Dataset(np.zeros((3, 2)), np.zeros(3)), Dataset(np.zeros((3, 2)), np.zeros(3))),
        (xavier_init(arch, 0), xavier_init(arch, 0)),
    ]
    for a, b in pairs:
        assert a == a and not (a == b) and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


def test_parameters_validate_every_intercept():
    arch = small_arch()
    params = xavier_init(arch, 0)
    params.validate_for(arch)
    bad = [
        NetworkParameters(params.weights, params.intercepts[:-1]),  # no output intercept
        NetworkParameters(params.weights, [*params.intercepts[:-1], np.zeros(())]),
        NetworkParameters(params.weights, [*params.intercepts[:-1], np.array([np.nan])]),
    ]
    for candidate in bad:
        with pytest.raises(ValueError):
            candidate.validate_for(arch)


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
    params.intercepts[0][:] = [0.5, -1.0, 2.0]
    params.intercepts[-1][:] = -0.25
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


# --- golden final parameters ------------------------------------------------------
# SHA-256 of the float64 bytes of W_0..W_m, then every intercept t_0..t_m
# (stagewise_fit: the admission order as int64 first). A refactor of the engine
# that claims bit-identity must leave these unchanged.


def _golden_run(name):
    reg, cls = small_arch(), small_arch("classification", hidden=(5, 3), activation="sigmoid")
    l1_arch = NetworkArchitecture(2, (6, 4))
    l1_opts = TrainOptions(learning_rate=0.1, max_epochs=60, batch_size=10, patience=0)
    dnp = DnpConfig(num_dropouts=2, train_opts=TrainOptions(max_epochs=10, patience=0))
    if name == "train_full_batch":
        opts = TrainOptions(learning_rate=0.1, max_epochs=100, patience=0)
        return [], train(xavier_init(reg, 3), reg, random_dataset(reg, n=20, seed=1), opts, 5)
    if name == "train_full_batch_validation":
        opts = TrainOptions(learning_rate=0.1, max_epochs=60, patience=5, validation_fraction=0.25)
        return [], train(xavier_init(reg, 3), reg, random_dataset(reg, n=20, seed=1), opts, 5)
    if name == "train_full_batch_patience":  # fused; patience stops it (see the test below)
        opts = TrainOptions(learning_rate=0.5, max_epochs=100, patience=5)
        return [], train(xavier_init(reg, 3), reg, random_dataset(reg, n=20, seed=1), opts, 5)
    if name == "train_minibatch_validation":
        opts = TrainOptions(
            learning_rate=0.05, max_epochs=80, batch_size=7, patience=10, validation_fraction=0.25
        )
        return [], train(xavier_init(cls, 4), cls, random_dataset(cls, n=40, seed=2), opts, 6)
    if name == "fit_l1_explicit_lambda":
        spec = SparsitySpec("explicit_lambda", (0.3, 0.8))
        return [], fit_l1(random_dataset(l1_arch, n=30, seed=3), l1_arch, spec, l1_opts, 7)
    if name == "fit_l1_percentile":
        spec = SparsitySpec("percentile", (50.0, 30.0))
        return [], fit_l1(random_dataset(l1_arch, n=30, seed=3), l1_arch, spec, l1_opts, 7)
    if name == "fit_stagewise":
        return [], fit_stagewise(random_dataset(reg, n=20, seed=4), reg, dnp, 8)
    wide = NetworkArchitecture(8, (4,))
    order, params = stagewise_fit(random_dataset(wide, n=25, seed=5), wide, 3, dnp, 9)
    return [np.asarray(order, dtype=np.int64)], params


GOLDEN_PARAMETERS = {
    "fit_l1_explicit_lambda": "87116464e92cbb7c046bf4005e0f3e8f37985bc740de21ae60a7875cff875e78",
    "fit_l1_percentile": "aa71be96bf6dfacb5c3defcb19b6d29614ab6d01c2589e842582d59224c6b903",
    "fit_stagewise": "d574b41b56716f0393cb5263de0aed18fd876fcf57876939a3fb7f2cf1fbc6ca",
    "stagewise_fit": "97b470d4a6184d31a5fd373f1bf3afd9da6392fed86cb5a9e7c60b7d18765f81",
    "train_full_batch": "11599839896c83bdfce122c918df868f19c4d6849b75510f92205b13600a22c9",
    "train_full_batch_patience": "0950ed4cb646ecaa78b9bdbac0d53c75da5ba8a108ac20a564ed1d87825e9ce9",
    "train_full_batch_validation": "8e7c637c8b814905b04609e50c184fc0917f80726ffe2ce37e3dfc024f5597f6",
    "train_minibatch_validation": "9a2209c32ab7642aea5e77b16ba2cfaee191a84d2dae0e6c2d171bbf72be7d23",
}


@pytest.mark.golden
@pytest.mark.parametrize("name", sorted(GOLDEN_PARAMETERS))
def test_golden_final_parameters(name):
    prefix, params = _golden_run(name)
    h = hashlib.sha256()
    for arr in (*prefix, *params.weights, *params.intercepts):
        h.update(arr.tobytes())
    assert h.hexdigest() == GOLDEN_PARAMETERS[name]


@pytest.mark.golden
def test_golden_patience_run_stops_early(monkeypatch):
    calls = []
    original = enns.network.backward
    monkeypatch.setattr(enns.network, "backward", lambda *args: calls.append(args) or original(*args))
    _golden_run("train_full_batch_patience")
    assert len(calls) == 57  # checkpoints -1..55 of 100 epochs scored, then patience ran out
