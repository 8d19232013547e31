"""Two-step high-dimensional modeling with feedforward networks: ensemble
stage-wise variable selection followed by l1 soft-threshold estimation, plus
the selection-probability formulas that describe the stage-wise criterion and
a seeded simulation harness."""

from .network import (
    Dataset,
    GradientSet,
    NetworkArchitecture,
    NetworkParameters,
    NumericalError,
    TrainOptions,
    adagrad_step,
    backward,
    dropout_mask,
    empirical_loss,
    forward,
    forward_batch,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    train,
    xavier_init,
)
from .stagewise import DnpConfig, SelectionState, candidate_scores, dnp_run, select_next, stagewise_fit
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
from .theory import (
    SignalProfile,
    folded_normal_cdf,
    folded_normal_pdf,
    mc_first_selection,
    mc_select_over,
    orthant_prob,
    prob_first_correct,
    prob_select_over,
)
from .metrics import (
    PredictionMetrics,
    SelectionMetrics,
    classification_metrics,
    regression_metrics,
    selection_metrics,
)

__version__ = "0.1.0"
