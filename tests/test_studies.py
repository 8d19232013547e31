"""Seeded outputs of the four studies at tiny shapes, pinned by SHA-256 digests
of their float64 bytes: a refactor of ``enns.studies`` must keep them."""

import hashlib

import numpy as np
import pytest

from enns.studies import (
    high_signal_recovery_rate,
    next_selection_hit_rate,
    paired_false_positive_study,
    sparse_versus_plain_rmse,
)


def _hit_rate():
    return next_selection_hit_rate(n=60, p=30, s=3, pre_included=1, reps=3, seed=0, epochs=10)


def _paired_fpr():
    ensemble_fpr, plain_fpr = paired_false_positive_study(
        n=60, p=30, s=3, seeds=2, num_bags=3, proportion=0.4, epochs=10
    )
    return [*ensemble_fpr, *plain_fpr]


def _high_signal():
    return high_signal_recovery_rate(n=60, p=20, s=2, seeds=2, epochs=10)


def _sparse_rmse():
    sparse_rmse, plain_rmse = sparse_versus_plain_rmse(seeds=2, n=120, n_train=40, hidden=(8, 4), epochs=30)
    return [*sparse_rmse, *plain_rmse]


STUDY_DIGESTS = {
    "next_selection_hit_rate": (
        _hit_rate,
        "9327e29fb26cdc73f5247fe463c0a619d7da9fa1a20ad5dbd8f555090f1a21d6",
    ),
    "paired_false_positive_study": (
        _paired_fpr,
        "18d4720ad3c12baaff75cf4f0cbe8212ef00b096185dd06224afa41fc37d59ed",
    ),
    "high_signal_recovery_rate": (
        _high_signal,
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ),
    "sparse_versus_plain_rmse": (
        _sparse_rmse,
        "ed5ea248fe4f6c3e747747ca522620bb1806484023a31c9dad6ca07ae7bd0d6a",
    ),
}


@pytest.mark.golden
@pytest.mark.parametrize("name", STUDY_DIGESTS)
def test_study_output_is_pinned(name):
    study, digest = STUDY_DIGESTS[name]
    values = np.atleast_1d(np.asarray(study(), dtype=np.float64))
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest, values
