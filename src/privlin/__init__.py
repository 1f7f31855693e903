"""Differentially private training and prediction for multi-class linear models."""

from .accounting import (
    BudgetExhaustedError,
    BudgetState,
    CalibrationError,
    DpSgdConfig,
    InfeasibleTargetError,
    PrivacySpec,
    ProblemDims,
    WrongVariantError,
    calibrate_gaussian_sigma,
    dpsgd_epsilon,
    dpsgd_sigma_for_target,
    gaussian_loss_sigma,
    gaussian_mechanism_delta,
    gaussian_model_sigma,
    gaussian_prediction_sigma,
    loss_perturbation_params,
    loss_perturbation_rho,
    minimizer_sensitivity,
    model_sensitivity_beta,
    prediction_sensitivity_beta,
    rdp_subsampled_gaussian,
    subsample_beta,
)
from .bench import (
    SweepConfig,
    SummaryRecord,
    TrialRecord,
    emit_csv,
    emit_summary_csv,
    run_sweep,
    summarize,
)
from .data import (
    IdxFormatError,
    LabeledDataset,
    PcaModel,
    RawDataset,
    Transform,
    filter_classes,
    fit_transform,
    load_csv,
    load_idx,
    one_hot,
    pca_fit,
    preprocess_pair,
    project_to_unit_ball,
    subsample_train,
    synth_blob_pair,
    synth_blobs,
    synth_blobs_raw,
    train_test_split,
)
from .losses import (
    HESSIAN_EIG_BOUND,
    LIPSCHITZ_K,
    erm_objective,
    mc_logistic_hessian,
    perturbed_objective,
)
from .mechanisms import (
    KINDS,
    Calibration,
    MechanismSpec,
    PrivatePredictor,
    answer_queries,
    calibrate,
    ensemble_vote_counts,
    fit_predictor,
    load_predictor,
    save_predictor,
    vote_distribution,
)
from .noise import RngStream, as_generator, sample_gaussian, sample_radial_exponential
from .trainer import (
    ConvergenceError,
    TrainConfig,
    minimize_erm,
    minimize_erm_stack,
    predict_logits,
)

__version__ = "0.1.0"
