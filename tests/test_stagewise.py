import numpy as np
import pytest
from collections import Counter

from enns.network import (
    Dataset,
    NetworkArchitecture,
    TrainOptions,
    backward,
    xavier_init,
)
from enns.stagewise import (
    DnpConfig,
    SelectionState,
    candidate_scores,
    dnp_run,
    select_next,
    stagewise_fit,
)


def null_model(p, hidden=(6,), seed=1, task="regression"):
    arch = NetworkArchitecture(p, hidden, "relu", task)
    params = xavier_init(arch, seed)
    params.weights[0][:] = 0.0
    return params, arch


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


def test_state_rejects_overlap():
    with pytest.raises(ValueError):
        SelectionState((1,), frozenset({0, 1, 2}))


def test_state_rejects_gaps():
    with pytest.raises(ValueError):
        SelectionState((0,), frozenset({2}))


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
    assert all(v == 0.0 for v in scores.values())


def test_scores_reduce_to_backward_norms():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 6))
    data = Dataset(x, rng.normal(size=30), "regression")
    params, arch = null_model(6, hidden=(5, 3))
    state = SelectionState.initial(6)
    scores = candidate_scores(params, arch, data, state, plain_cfg(), seed=8)
    grads = backward(params, arch, data)
    for j in range(6):
        expected = np.linalg.norm(grads.weights[0][j])
        assert scores[j] == pytest.approx(expected, abs=1e-12)


def test_scores_require_frozen_candidates():
    rng = np.random.default_rng(4)
    data = Dataset(rng.normal(size=(10, 3)), rng.normal(size=10), "regression")
    arch = NetworkArchitecture(3, (2,))
    params = xavier_init(arch, 0)  # candidate rows not zero
    with pytest.raises(ValueError):
        candidate_scores(params, arch, data, SelectionState.initial(3), plain_cfg(), seed=0)


def test_scores_reject_empty_candidates():
    rng = np.random.default_rng(5)
    data = Dataset(rng.normal(size=(10, 2)), rng.normal(size=10), "regression")
    params, arch = null_model(2)
    state = SelectionState((0, 1), frozenset())
    with pytest.raises(ValueError):
        candidate_scores(params, arch, data, state, plain_cfg(), seed=0)


# --- select_next -----------------------------------------------------------------


def test_select_next_argmax():
    assert select_next({3: 0.1, 7: 0.9}) == 7


def test_select_next_tie_prefers_smaller_index():
    assert select_next({5: 0.5, 2: 0.5}) == 2


def test_select_next_empty_errors():
    with pytest.raises(ValueError):
        select_next({})


def test_select_next_null_model_matches_correlation_argmax():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(80, 10))
    y = rng.normal(size=80)
    y = y - y.mean()
    data = Dataset(x, y, "regression")
    params, arch = null_model(10)
    scores = candidate_scores(params, arch, data, SelectionState.initial(10), plain_cfg(), seed=2)
    assert select_next(scores) == int(np.argmax(np.abs(x.T @ y)))


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


def test_engine_keeps_unselected_rows_zero():
    rng = np.random.default_rng(10)
    data = Dataset(rng.uniform(-1, 1, size=(40, 7)), rng.normal(size=40), "regression")
    order, params = stagewise_fit(data, NetworkArchitecture(7, (4,)), 3, run_cfg(epochs=15), seed=2)
    unselected = sorted(set(range(7)) - set(order))
    assert np.all(params.weights[0][unselected] == 0.0)


def test_dnp_rejects_bad_target():
    rng = np.random.default_rng(11)
    data = Dataset(rng.uniform(-1, 1, size=(20, 4)), rng.normal(size=20), "regression")
    with pytest.raises(ValueError):
        dnp_run(data, NetworkArchitecture(4, (3,)), 5, run_cfg(epochs=5), seed=0)
