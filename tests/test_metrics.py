import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from enns.metrics import classification_metrics, regression_metrics, selection_metrics

from _oracles import auc_by_pair_counting


# --- selection metrics -----------------------------------------------------------


def test_selection_perfect():
    m = selection_metrics({1, 2, 3}, {1, 2, 3})
    assert m.false_positive_rate == 0.0
    assert m.true_positives == 3
    assert m.false_positives == 0


def test_selection_total_miss():
    m = selection_metrics({4, 5, 6}, {1, 2, 3})
    assert m.false_positive_rate == 1.0
    assert m.true_positives == 0


def test_selection_counting():
    m = selection_metrics({1, 2, 9}, {1, 2, 3})
    assert m.true_positives == 2
    assert m.false_positives == 1
    assert m.false_positive_rate == pytest.approx(1.0 / 3.0)


def test_selection_empty_selection_has_zero_fpr():
    m = selection_metrics(set(), {1, 2})
    assert m.false_positive_rate == 0.0
    assert m.true_positives == 0


@given(
    sel=st.sets(st.integers(0, 30), max_size=10),
    sup=st.sets(st.integers(0, 30), max_size=10),
    offset=st.integers(1, 1000),
)
def test_selection_relabel_symmetry(sel, sup, offset):
    base = selection_metrics(sel, sup)
    shifted = selection_metrics({j + offset for j in sel}, {j + offset for j in sup})
    assert base == shifted


# --- regression metrics -----------------------------------------------------------


def test_regression_perfect_fit():
    m = regression_metrics(np.array([1.0, -2.0, 3.0]), np.array([1.0, -2.0, 3.0]))
    assert m.rmse == 0.0 and m.mae == 0.0 and m.mape == 0.0


def test_regression_hand_case():
    m = regression_metrics(np.array([1.0, 2.0]), np.array([2.0, 2.0]))
    assert m.rmse == pytest.approx(1.0 / np.sqrt(2.0))
    assert m.mae == pytest.approx(0.5)
    assert m.mape == pytest.approx(0.5)


def test_regression_mape_skips_zero_targets():
    m = regression_metrics(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    assert m.mape == pytest.approx(0.5)


@pytest.mark.filterwarnings("error")
def test_regression_mape_overflow_is_inf_without_warning():
    m = regression_metrics(np.array([1e-310, 2.0]), np.array([1.0, 1.0]))
    assert m.mape == np.inf
    assert m.rmse == pytest.approx(1.0)


def test_regression_against_independent_implementation():
    rng = np.random.default_rng(3)
    y = rng.normal(size=50)
    yhat = rng.normal(size=50)
    m = regression_metrics(y, yhat)
    rmse = sum((a - b) ** 2 for a, b in zip(y, yhat))
    rmse = (rmse / 50) ** 0.5
    mae = sum(abs(a - b) for a, b in zip(y, yhat)) / 50
    mape = sum(abs((a - b) / a) for a, b in zip(y, yhat) if a != 0) / sum(1 for a in y if a != 0)
    assert m.rmse == pytest.approx(rmse, abs=1e-12)
    assert m.mae == pytest.approx(mae, abs=1e-12)
    assert m.mape == pytest.approx(mape, abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False)
        ),
        min_size=1,
        max_size=40,
    )
)
def test_regression_rmse_dominates_mae(pairs):
    y = np.array([a for a, _ in pairs])
    yhat = np.array([b for _, b in pairs])
    m = regression_metrics(y, yhat)
    assert m.rmse >= m.mae - 1e-12


def test_regression_rejects_empty():
    with pytest.raises(ValueError):
        regression_metrics(np.array([]), np.array([]))


# --- classification metrics ---------------------------------------------------------


def test_classification_perfectly_separated_auc():
    y = np.array([0.0, 0.0, 1.0, 1.0])
    p = np.array([0.1, 0.2, 0.8, 0.9])
    assert classification_metrics(y, p).auc == 1.0


def test_classification_constant_scores_auc_half():
    y = np.array([0.0, 1.0, 0.0, 1.0])
    p = np.full(4, 0.3)
    assert classification_metrics(y, p).auc == pytest.approx(0.5)


def test_classification_hand_case_pair_counting():
    y = [1, 1, 1, 0, 0, 0]
    p = [0.9, 0.8, 0.4, 0.7, 0.2, 0.1]
    expected = auc_by_pair_counting(y, p)
    assert expected == pytest.approx(8.0 / 9.0)
    m = classification_metrics(np.array(y, float), np.array(p))
    assert m.auc == pytest.approx(expected, abs=1e-12)


def test_classification_tie_counts_half():
    y = [1, 1, 1, 0, 0, 0]
    p = [0.9, 0.8, 0.4, 0.7, 0.4, 0.1]
    expected = auc_by_pair_counting(y, p)
    assert expected == pytest.approx(7.5 / 9.0)
    m = classification_metrics(np.array(y, float), np.array(p))
    assert m.auc == pytest.approx(expected, abs=1e-12)


def test_classification_accuracy_and_f1():
    y = np.array([1.0, 1.0, 0.0, 0.0])
    p = np.array([0.9, 0.4, 0.6, 0.1])
    m = classification_metrics(y, p)
    assert m.accuracy == pytest.approx(0.5)
    # precision 1/2, recall 1/2
    assert m.f1 == pytest.approx(0.5)


def test_classification_f1_zero_when_undefined():
    y = np.array([1.0, 1.0, 0.0])
    p = np.array([0.1, 0.2, 0.3])
    m = classification_metrics(y, p)
    assert m.f1 == 0.0


def test_classification_single_class_auc_absent():
    y = np.ones(4)
    p = np.array([0.1, 0.5, 0.6, 0.9])
    m = classification_metrics(y, p)
    assert m.auc is None
    assert m.accuracy is not None


def test_classification_threshold_is_strict():
    y = np.array([1.0, 0.0])
    p = np.array([0.5, 0.4])
    m = classification_metrics(y, p)
    # p_hat == 0.5 predicts the negative class
    assert m.accuracy == pytest.approx(0.5)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 1),
            st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False),
        ),
        min_size=4,
        max_size=40,
    ).filter(lambda v: 0 < sum(y for y, _ in v) < len(v))
)
def test_classification_auc_invariant_under_monotone_transform(pairs):
    y = np.array([a for a, _ in pairs], dtype=float)
    p = np.array([b for _, b in pairs])
    a1 = classification_metrics(y, p).auc
    # dividing by a power of two is exact, hence strictly order-preserving
    a2 = classification_metrics(y, p / 4.0).auc
    assert a1 == pytest.approx(a2, abs=1e-12)


@settings(deadline=None, max_examples=300)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 1),
            st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
        ),
        min_size=2,
        max_size=60,
    ).filter(lambda v: 0 < sum(y for y, _ in v) < len(v))
)
def test_classification_auc_matches_rankdata_with_heavy_ties(pairs):
    y = np.array([a for a, _ in pairs], dtype=float)
    p = np.array([b for _, b in pairs])
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    ranks = stats.rankdata(p)
    expected = float((np.sum(ranks[y == 1.0]) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    assert classification_metrics(y, p).auc == expected


def test_classification_rejects_bad_labels():
    with pytest.raises(ValueError):
        classification_metrics(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        classification_metrics(np.array([0.0, 1.0]), np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        classification_metrics(np.array([0.0, 1.0]), np.array([0.5, np.nan]))
