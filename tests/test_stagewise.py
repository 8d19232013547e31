import numpy as np
import pytest
from collections import Counter
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from enns.network import (
    Dataset,
    NetworkArchitecture,
    NetworkParameters,
    TrainOptions,
    backward,
    dropout_mask,
    train,
    xavier_init,
    xavier_row,
)
from enns.seeding import derive_seed
from enns.stagewise import (
    DnpConfig,
    SelectionState,
    candidate_scores,
    dnp_run,
    stagewise_fit,
)


def narrow(params, arch, selected):
    """The input rows of ``selected``, in column order, of a full-width network."""
    rows = sorted(selected)
    weights = [params.weights[0][rows], *params.weights[1:]]
    sub = NetworkParameters(weights, params.intercepts)
    return sub, replace(arch, input_dim=len(rows))


def null_model(p, hidden=(6,), seed=1, task="regression"):
    # no column admitted yet: the narrow network has no input rows
    arch = NetworkArchitecture(p, hidden, "relu", task)
    return narrow(xavier_init(arch, seed), arch, ())


def plain_cfg(**kw):
    opts = TrainOptions(max_epochs=0, patience=0)
    return DnpConfig(num_dropouts=1, dropout_rate=0.0, train_opts=opts, **kw)


# --- SelectionState ---------------------------------------------------------------


def test_state_partition_invariants():
    state = SelectionState.initial(4)
    assert state.selected == ()
    assert state.candidates == frozenset({0, 1, 2, 3})
    nxt = state.admit(2)
    assert nxt.selected == (2,)
    assert 2 not in nxt.candidates


def test_state_rejects_invalid_selected():
    with pytest.raises(ValueError):
        SelectionState((1, 1), 3)  # a feature admitted twice
    with pytest.raises(ValueError):
        SelectionState((0, 3), 3)  # outside 0..p-1
    with pytest.raises(ValueError):
        SelectionState((-1,), 3)


def test_admit_requires_candidate():
    state = SelectionState.initial(3).admit(1)
    with pytest.raises(ValueError):
        state.admit(1)


def test_dnp_config_validation():
    with pytest.raises(ValueError):
        DnpConfig(norm_q=0.5)
    with pytest.raises(ValueError):
        DnpConfig(num_dropouts=0)
    with pytest.raises(ValueError):
        DnpConfig(dropout_rate=1.0)


# --- candidate_scores ---------------------------------------------------------------


def test_scores_duplicate_columns_equal():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(40, 5))
    x[:, 4] = x[:, 2]
    data = Dataset(x, rng.normal(size=40), "regression")
    params, arch = null_model(5)
    scores = candidate_scores(params, arch, data, SelectionState.initial(5), plain_cfg(), seed=3)
    assert scores[4] == scores[2]


def test_scores_null_model_rank_by_correlation():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(60, 12))
    y = rng.normal(size=60)
    y = y - y.mean()
    data = Dataset(x, y, "regression")
    params, arch = null_model(12)
    scores = candidate_scores(params, arch, data, SelectionState.initial(12), plain_cfg(), seed=5)
    oracle = np.abs(x.T @ y)
    got = sorted(range(12), key=lambda j: scores[j])
    want = sorted(range(12), key=lambda j: oracle[j])
    assert got == want
    # the scores are exactly proportional to |x_j' y|
    ratios = np.array([scores[j] for j in range(12)]) / oracle
    assert np.ptp(ratios) < 1e-12 * ratios.mean()


def test_scores_zero_residual_all_zero():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 4))
    data = Dataset(x, np.zeros(20), "regression")
    params, arch = null_model(4)
    params.weights[-1][:] = 0.0  # zero output layer: eta == 0 == y
    scores = candidate_scores(params, arch, data, SelectionState.initial(4), plain_cfg(), seed=1)
    assert np.all(scores == 0.0)


def test_scores_reduce_to_backward_norms():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 6))
    data = Dataset(x, rng.normal(size=30), "regression")
    arch = NetworkArchitecture(6, (5, 3))
    params = xavier_init(arch, 1)
    params.weights[0][:] = 0.0
    state = SelectionState.initial(6)
    scores = candidate_scores(*narrow(params, arch, ()), data, state, plain_cfg(), seed=8)
    _, grads = backward(params, arch, data)
    for j in range(6):
        expected = np.linalg.norm(grads.weights[0][j])
        assert scores[j] == pytest.approx(expected, abs=1e-12)


def test_scores_reject_width_mismatch():
    rng = np.random.default_rng(4)
    data = Dataset(rng.normal(size=(10, 3)), rng.normal(size=10), "regression")
    arch = NetworkArchitecture(3, (2,))
    params = xavier_init(arch, 0)  # full width, but no column is selected
    with pytest.raises(ValueError):
        candidate_scores(params, arch, data, SelectionState.initial(3), plain_cfg(), seed=0)
    sub, sub_arch = narrow(params, arch, (0,))
    with pytest.raises(ValueError):  # one input row, but the state selects two columns
        candidate_scores(sub, sub_arch, data, SelectionState((0, 1), 3), plain_cfg(), seed=0)
    with pytest.raises(ValueError):  # the state covers two of the three columns of data
        candidate_scores(sub, sub_arch, data, SelectionState((0,), 2), plain_cfg(), seed=0)


def test_scores_reject_empty_candidates():
    rng = np.random.default_rng(5)
    data = Dataset(rng.normal(size=(10, 2)), rng.normal(size=10), "regression")
    arch = NetworkArchitecture(2, (6,))
    params, arch = narrow(xavier_init(arch, 1), arch, (0, 1))
    state = SelectionState((0, 1), 2)
    with pytest.raises(ValueError):
        candidate_scores(params, arch, data, state, plain_cfg(), seed=0)


# --- admission: the argmax of the score array -------------------------------------


def test_admitted_columns_score_minus_infinity():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(30, 6))
    data = Dataset(x, rng.normal(size=30), "regression")
    arch = NetworkArchitecture(6, (4,))
    selected = (4, 1)
    state = SelectionState(selected, 6)
    scores = candidate_scores(*narrow(xavier_init(arch, 3), arch, selected), data, state, plain_cfg(), seed=1)
    assert scores.shape == (6,) and scores.dtype == np.float64
    assert np.all(scores[list(selected)] == -np.inf)
    assert np.all(np.isfinite(scores[sorted(state.candidates)]))
    assert int(np.argmax(scores)) in state.candidates


def test_exact_tie_admits_smaller_index_first():
    # the data of test_scores_duplicate_columns_equal: columns 2 and 4 are
    # identical, so their scores tie exactly at every step until one is admitted
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(40, 5))
    x[:, 4] = x[:, 2]
    data = Dataset(x, rng.normal(size=40), "regression")
    order, _ = stagewise_fit(data, NetworkArchitecture(5, (6,)), 5, run_cfg(epochs=10), seed=3)
    assert sorted(order) == list(range(5))
    assert order.index(2) < order.index(4)


def test_argmax_admission_null_model_matches_correlation_argmax():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(80, 10))
    y = rng.normal(size=80)
    y = y - y.mean()
    data = Dataset(x, y, "regression")
    params, arch = null_model(10)
    scores = candidate_scores(params, arch, data, SelectionState.initial(10), plain_cfg(), seed=2)
    assert int(np.argmax(scores)) == int(np.argmax(np.abs(x.T @ y)))


# --- dnp_run ----------------------------------------------------------------------


def run_cfg(epochs=40, dropouts=2):
    return DnpConfig(
        num_dropouts=dropouts,
        dropout_rate=0.5,
        train_opts=TrainOptions(learning_rate=0.1, max_epochs=epochs, patience=0),
    )


def test_dnp_exhaustion_is_permutation():
    rng = np.random.default_rng(7)
    data = Dataset(rng.uniform(-1, 1, size=(50, 6)), rng.normal(size=50), "regression")
    sel = dnp_run(data, NetworkArchitecture(6, (4,)), 6, run_cfg(epochs=15), seed=9)
    assert sorted(sel) == list(range(6))


def test_dnp_strong_predictor_admitted_first():
    hits = 0
    for rep in range(100):
        rng = np.random.default_rng(1000 + rep)
        x = rng.uniform(-1, 1, size=(200, 20))
        y = 5.0 * x[:, 0] + rng.normal(0, 0.1, size=200)
        data = Dataset(x, y, "regression")
        sel = dnp_run(data, NetworkArchitecture(20, (8,)), 1, run_cfg(), seed=rep)
        hits += sel[0] == 0
    assert hits >= 99


def test_dnp_null_response_selects_uniformly():
    counts = Counter()
    for rep in range(200):
        rng = np.random.default_rng(5000 + rep)
        x = rng.uniform(-1, 1, size=(60, 8))
        data = Dataset(x, rng.normal(size=60), "regression")
        sel = dnp_run(data, NetworkArchitecture(8, (6,)), 1, run_cfg(epochs=30), seed=rep)
        counts[sel[0]] += 1
    assert max(counts.values()) <= 3 * 200 / 8


def test_dnp_returns_unique_indices_in_order():
    rng = np.random.default_rng(8)
    data = Dataset(rng.uniform(-1, 1, size=(60, 10)), rng.normal(size=60), "regression")
    sel = dnp_run(data, NetworkArchitecture(10, (5,)), 4, run_cfg(epochs=20), seed=4)
    assert len(sel) == 4
    assert len(set(sel)) == 4


def test_dnp_deterministic():
    rng = np.random.default_rng(9)
    data = Dataset(rng.uniform(-1, 1, size=(50, 8)), rng.normal(size=50), "regression")
    a = dnp_run(data, NetworkArchitecture(8, (5,)), 3, run_cfg(epochs=20), seed=17)
    b = dnp_run(data, NetworkArchitecture(8, (5,)), 3, run_cfg(epochs=20), seed=17)
    assert a == b


def test_engine_returns_admitted_rows_in_column_order():
    # the returned parameters are untrained after the last admission, so the
    # newest row is the fresh Xavier draw, at its column's sorted position
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, size=(40, 7))
    y = 4.0 * x[:, 5] - 2.0 * x[:, 1] + x[:, 3] + rng.normal(0, 0.1, size=40)
    data = Dataset(x, y, "regression")
    arch = NetworkArchitecture(7, (4,))
    order, _ = stagewise_fit(data, arch, 3, run_cfg(epochs=15), seed=2)
    assert order != sorted(order)  # a later admission lands between earlier rows
    for k in range(3):
        got, params = stagewise_fit(data, arch, k + 1, run_cfg(epochs=15), seed=2)
        assert got == order[: k + 1]
        assert params.weights[0].shape == (k + 1, 4)
        newest = params.weights[0][sorted(got).index(got[-1])]
        np.testing.assert_array_equal(newest, xavier_row(arch, derive_seed(2, "admit", k)))


def test_dnp_rejects_bad_target():
    rng = np.random.default_rng(11)
    data = Dataset(rng.uniform(-1, 1, size=(20, 4)), rng.normal(size=20), "regression")
    with pytest.raises(ValueError):
        dnp_run(data, NetworkArchitecture(4, (3,)), 5, run_cfg(epochs=5), seed=0)


# --- narrow network against the full-width zero-row network --------------------------


def random_data(n, p, task, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, p))
    y = rng.normal(size=n) if task == "regression" else (rng.random(n) < 0.5).astype(float)
    return x, y


@st.composite
def network_cases(draw):
    n = draw(st.integers(4, 24))
    p = draw(st.integers(1, 8))
    hidden = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
    activation = draw(st.sampled_from(["relu", "sigmoid"]))
    task = draw(st.sampled_from(["regression", "classification"]))
    return n, p, NetworkArchitecture(p, hidden, activation, task), draw(st.integers(0, 1000))


@st.composite
def selected_training_cases(draw):
    n, p, arch, seed = draw(network_cases())
    selected = draw(st.sets(st.integers(0, p - 1)))
    opts = TrainOptions(
        learning_rate=draw(st.sampled_from([0.05, 0.1, 0.3])),
        max_epochs=draw(st.integers(0, 6)),
        batch_size=draw(st.one_of(st.none(), st.integers(1, n))),
        patience=0,
        validation_fraction=draw(st.sampled_from([0.0, 0.25, 0.5])),
        rng_seed=draw(st.integers(0, 1000)),
    )
    return n, p, arch, selected, opts, seed


@settings(deadline=None, max_examples=60)
@given(case=selected_training_cases())
def test_narrow_training_matches_full_width_training_on_zeroed_columns(case):
    # full-width training with the unselected columns zeroed is what held-at-zero rows compute
    n, p, arch, selected, opts, seed = case
    x, y = random_data(n, p, arch.task, seed)
    params = xavier_init(arch, seed)
    unselected = sorted(set(range(p)) - selected)
    x_zeroed = x.copy()
    x_zeroed[:, unselected] = 0.0
    start = params.copy()
    start.weights[0][unselected] = 0.0

    data_selected = Dataset(x, y, arch.task).subset_columns(sorted(selected))
    got = train(*narrow(params, arch, selected), data_selected, opts)
    want = train(start, arch, Dataset(x_zeroed, y, arch.task), opts)

    assert np.all(want.weights[0][unselected] == 0.0)
    pairs = [
        (got.weights[0], want.weights[0][sorted(selected)]),
        *zip(got.weights[1:], want.weights[1:]),
        *zip(got.intercepts, want.intercepts),
    ]
    for a, b in pairs:
        if not selected or len(selected) == p:
            np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-9)


@st.composite
def scoring_cases(draw):
    n, p, arch, seed = draw(network_cases())
    selected = draw(st.lists(st.integers(0, p - 1), unique=True, max_size=p - 1))  # in admission order
    cfg = DnpConfig(
        norm_q=draw(st.sampled_from([1.0, 2.0, 3.0])),
        num_dropouts=draw(st.integers(1, 3)),
        dropout_rate=draw(st.sampled_from([0.0, 0.5])),
    )
    return n, p, arch, selected, cfg, seed


@settings(deadline=None, max_examples=100)
@given(case=scoring_cases())
def test_scores_match_full_width_backward_on_zero_rows(case):
    # dropout_mask never masks W_0, so both widths draw the same dropout masks
    n, p, arch, selected, cfg, seed = case
    x, y = random_data(n, p, arch.task, seed)
    data = Dataset(x, y, arch.task)
    params = xavier_init(arch, seed)
    cand = sorted(set(range(p)) - set(selected))
    params.weights[0][cand] = 0.0
    state = SelectionState(tuple(selected), p)

    scores = candidate_scores(*narrow(params, arch, selected), data, state, cfg, seed)

    want = np.zeros(len(cand))
    for b in range(cfg.num_dropouts):
        masked = dropout_mask(params, cfg.dropout_rate, derive_seed(seed, "dropout", b))
        rows = backward(masked, arch, data)[1].weights[0][cand]
        want += np.sum(np.abs(rows) ** cfg.norm_q, axis=1) ** (1.0 / cfg.norm_q)
    want /= cfg.num_dropouts
    np.testing.assert_allclose(scores[cand], want, rtol=1e-12, atol=0.0)
    assert np.all(scores[selected] == -np.inf)
