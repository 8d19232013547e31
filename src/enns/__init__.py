"""Two-step high-dimensional modeling with feedforward networks: ensemble
stage-wise variable selection followed by l1 soft-threshold estimation, plus
the selection-probability formulas that describe the stage-wise criterion and
a seeded simulation harness."""

from .network import (
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
    train,
    xavier_init,
)
from .stagewise import (
    DnpConfig,
    SelectionState,
    candidate_scores,
    dnp_run,
    stagewise_fit,
)
from .ensemble import (
    EnnsConfig,
    SelectionReport,
    bootstrap_indices,
    enns_round,
    enns_select,
    filter_appearances,
)
from .estimation import (
    BaggedDropoutSpec,
    BaggedPrediction,
    SparsitySpec,
    fit_l1,
    fit_stagewise,
    predict_bagged_dropout,
    soft_threshold,
)
from .simulate import (
    GroundTruth,
    ResponseSpec,
    gen_design_correlated,
    gen_design_uniform,
    gen_response,
)
from .metrics import (
    classification_metrics,
    regression_metrics,
    selection_metrics,
)

__version__ = "0.2.0"
_THEORY_NAMES = ("theory", "SignalProfile", "folded_normal_cdf", "folded_normal_pdf", "mc_first_selection",
                 "mc_select_over", "pair_wins", "prob_first_correct", "prob_select_over")


def __getattr__(name):  # only these names need enns.theory and its imports: load it on first use
    if name not in _THEORY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # "from . import theory" would call this function again
    theory = import_module(".theory", __name__)
    return theory if name == "theory" else getattr(theory, name)


def __dir__():
    return sorted({*globals(), *_THEORY_NAMES})
