"""The five private prediction pipelines, each yielding a budget-guarded predictor.

Training-side mechanisms (model sensitivity, loss perturbation, DP-SGD)
release privatized parameters and answer unlimited queries by
post-processing. Prediction-side mechanisms (prediction sensitivity,
subsample-and-aggregate) keep non-private state and spend one unit of the
inference budget per answered query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .accounting import (
    BudgetState,
    DpSgdConfig,
    PrivacySpec,
    ProblemDims,
    WrongVariantError,
    dpsgd_sigma_for_target,
    gaussian_loss_sigma,
    gaussian_model_sigma,
    gaussian_prediction_sigma,
    loss_perturbation_params,
    loss_perturbation_rho,
    model_sensitivity_beta,
    prediction_sensitivity_beta,
    subsample_beta,
)
from .data import LabeledDataset
from .losses import softmax
from .noise import as_generator, sample_gaussian, sample_radial_exponential
from .trainer import TrainConfig, minimize_erm, minimize_erm_stack, predict_logits

MECHANISM_KINDS = (
    "model_sensitivity",
    "loss_perturbation",
    "dpsgd",
    "prediction_sensitivity",
    "subsample_aggregate",
)
TRAINING_SIDE = ("model_sensitivity", "loss_perturbation", "dpsgd", "nonprivate")
PREDICTION_SIDE = ("prediction_sensitivity", "subsample_aggregate")


@dataclass
class MechanismSpec:
    """Which pipeline to run and every knob it needs."""

    kind: str
    privacy: PrivacySpec
    lam: float = 0.01
    n_models: int = 256
    dpsgd: DpSgdConfig | None = None
    grad_tolerance: float = 1e-8
    max_iterations: int = 500

    def __post_init__(self):
        if self.kind not in MECHANISM_KINDS and self.kind != "nonprivate":
            raise ValueError(f"unknown mechanism kind: {self.kind!r}")
        if self.kind == "dpsgd":
            if self.privacy.delta == 0.0:
                raise WrongVariantError("dpsgd does not support delta = 0")
            if self.dpsgd is None:
                raise ValueError("dpsgd requires a DpSgdConfig")
            if self.lam < 0:
                raise ValueError("lam must be nonnegative")
        elif not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.n_models < 1:
            raise ValueError("n_models must be at least 1")

    def dims(self, data: LabeledDataset) -> ProblemDims:
        return ProblemDims(n_train=data.n_examples, lam=self.lam,
                           n_classes=data.n_classes)

    def train_config(self, **overrides) -> TrainConfig:
        kwargs = dict(lam=self.lam, max_iterations=self.max_iterations,
                      grad_tolerance=self.grad_tolerance)
        kwargs.update(overrides)
        return TrainConfig(**kwargs)


@dataclass
class PrivatePredictor:
    """A prediction engine bound to one mechanism.

    budget is None for model-releasing mechanisms (post-processing answers
    unlimited queries); prediction-side mechanisms consume one unit per query
    and refuse afterwards. rng drives the fresh per-query noise.
    """

    kind: str
    privacy: PrivacySpec
    theta: np.ndarray | None = None
    ensemble: np.ndarray | None = None
    noise_family: str = "none"
    noise_scale: float = 0.0
    vote_beta: float = 0.0
    budget: BudgetState | None = None
    rng: np.random.Generator | None = field(default=None, repr=False)

    @property
    def remaining_budget(self):
        return None if self.budget is None else self.budget.remaining

    def predict(self, x):
        """Dispatch one query: logits for logit-valued kinds, an int label
        for subsample-and-aggregate."""
        if self.kind == "prediction_sensitivity":
            return predict_prediction_sensitivity(self, x)
        if self.kind == "subsample_aggregate":
            return predict_subsample_aggregate(self, x)
        row = _check_query(x, self.theta.shape[0], in_ball=False)
        return predict_logits(self.theta, row[0])


def _check_rows(rows: np.ndarray, in_ball: bool) -> np.ndarray:
    """The one query-row validator: every row finite and, with in_ball, inside
    the unit L2 ball that prediction-side sensitivity bounds assume."""
    # A row with a NaN or infinite entry has a NaN or infinite norm and fails too.
    if in_ball and (rows * rows).sum(axis=1).max(initial=0.0) <= (1.0 + 1e-9) ** 2:
        return rows
    if not np.isfinite(rows).all():
        raise ValueError("query must be finite")
    if in_ball:
        raise ValueError("query must lie in the unit L2 ball")
    return rows


def _check_query(x, n_features: int, in_ball: bool = True) -> np.ndarray:
    """One validated query as a (1, n_features) row."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n_features,):
        raise ValueError(f"query must be a length-{n_features} vector, got shape {x.shape}")
    return _check_rows(x[None, :], in_ball)


def _check_queries(queries, n_features: int, in_ball: bool) -> np.ndarray:
    """A validated (k, n_features) batch of query rows."""
    rows = np.asarray(queries, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != n_features:
        raise ValueError(f"queries must be rows of length {n_features}, got shape {rows.shape}")
    return _check_rows(rows, in_ball)


# ---------------------------------------------------------------------------
# Training-side mechanisms
# ---------------------------------------------------------------------------

def train_nonprivate(data: LabeledDataset, spec: MechanismSpec) -> PrivatePredictor:
    """Plain regularized training; the no-noise baseline for sweeps."""
    theta = minimize_erm(data, spec.train_config())
    return PrivatePredictor(kind="nonprivate", privacy=spec.privacy, theta=theta)


def train_model_sensitivity(data: LabeledDataset, spec: MechanismSpec, rng,
                            unsafe_disable_noise: bool = False) -> PrivatePredictor:
    """Add calibrated noise to the regularized minimizer; release the result."""
    rng = as_generator(rng)
    dims = spec.dims(data)
    theta = minimize_erm(data, spec.train_config())
    shape = (data.n_features, data.n_classes)
    if not unsafe_disable_noise:
        if spec.privacy.delta == 0.0:
            beta = model_sensitivity_beta(dims, spec.privacy)
            theta = theta + sample_radial_exponential(shape, beta, rng)
        else:
            sigma = gaussian_model_sigma(dims, spec.privacy)
            theta = theta + sample_gaussian(shape, sigma, rng)
    return PrivatePredictor(kind="model_sensitivity", privacy=spec.privacy, theta=theta)


def train_loss_perturbation(data: LabeledDataset, spec: MechanismSpec, rng,
                            unsafe_disable_noise: bool = False) -> PrivatePredictor:
    """Minimize the objective with a random linear term plus extra ridge."""
    rng = as_generator(rng)
    dims = spec.dims(data)
    shape = (data.n_features, data.n_classes)
    if unsafe_disable_noise:
        noise_b, rho = np.zeros(shape), 0.0
    elif spec.privacy.delta == 0.0:
        beta, rho = loss_perturbation_params(dims, spec.privacy)
        noise_b = sample_radial_exponential(shape, beta, rng)
    else:
        sigma = gaussian_loss_sigma(dims, spec.privacy)
        rho = loss_perturbation_rho(dims, spec.privacy)
        noise_b = sample_gaussian(shape, sigma, rng)
    theta = minimize_erm(data, spec.train_config(noise_b=noise_b, rho=rho))
    return PrivatePredictor(kind="loss_perturbation", privacy=spec.privacy, theta=theta)


def train_dpsgd(data: LabeledDataset, spec: MechanismSpec, rng,
                unsafe_disable_noise: bool = False) -> PrivatePredictor:
    """Private SGD: per-example clipping, summed batch gradient, Gaussian noise.

    Each step draws a uniform without-replacement batch, clips every
    per-example gradient to norm at most clip, adds N(0, (sigma * clip)^2)
    noise to the sum, divides by the batch size, and applies the step. The
    per-example gradient of the singleton objective is x (p - y)^T + lam * theta.
    """
    if spec.privacy.delta == 0.0:
        raise WrongVariantError("dpsgd does not support delta = 0")
    cfg = spec.dpsgd
    if cfg is None:
        raise ValueError("dpsgd requires a DpSgdConfig")
    n = data.n_examples
    if cfg.batch_size > n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    if abs(cfg.sample_rate - cfg.batch_size / n) > 1e-12:
        raise ValueError(
            f"sample_rate {cfg.sample_rate} must equal batch_size / N = {cfg.batch_size / n}")
    rng = as_generator(rng)
    sigma = 0.0 if unsafe_disable_noise else dpsgd_sigma_for_target(spec.privacy, cfg)

    x, y = data.features, data.labels
    d, c = data.n_features, data.n_classes
    lam = spec.lam
    theta = np.zeros((d, c))
    x_sq = np.einsum("nd,nd->n", x, x)

    for _ in range(cfg.n_steps):
        idx = rng.choice(n, size=cfg.batch_size, replace=False)
        xb, yb = x[idx], y[idx]
        logits = xb @ theta
        residual = softmax(logits) - yb
        # ||x r^T + lam theta||_F^2 without materializing per-example matrices
        sq_norms = x_sq[idx] * np.einsum("nc,nc->n", residual, residual)
        if lam > 0.0:
            sq_norms = (sq_norms
                        + 2.0 * lam * np.einsum("nc,nc->n", logits, residual)
                        + lam * lam * float(np.sum(theta * theta)))
        scales = 1.0 / np.maximum(1.0, np.sqrt(sq_norms) / cfg.clip)
        summed = xb.T @ (scales[:, None] * residual)
        if lam > 0.0:
            summed += lam * float(scales.sum()) * theta
        if not unsafe_disable_noise:
            summed = summed + sigma * cfg.clip * rng.standard_normal((d, c))
        theta = theta - cfg.learning_rate * (summed / cfg.batch_size)

    return PrivatePredictor(kind="dpsgd", privacy=spec.privacy, theta=theta)


# ---------------------------------------------------------------------------
# Prediction-side mechanisms
# ---------------------------------------------------------------------------

def build_prediction_sensitivity(data: LabeledDataset, spec: MechanismSpec, rng,
                                 unsafe_disable_noise: bool = False) -> PrivatePredictor:
    """Non-private parameters plus a per-query noise scale and a budget gate."""
    rng = as_generator(rng)
    dims = spec.dims(data)
    theta = minimize_erm(data, spec.train_config())
    if unsafe_disable_noise:
        family, scale = "none", 0.0
    elif spec.privacy.delta == 0.0:
        family, scale = "radial_exponential", prediction_sensitivity_beta(dims, spec.privacy)
    else:
        family, scale = "gaussian", gaussian_prediction_sigma(dims, spec.privacy)
    return PrivatePredictor(
        kind="prediction_sensitivity", privacy=spec.privacy, theta=theta,
        noise_family=family, noise_scale=scale,
        budget=BudgetState(spec.privacy.budget), rng=rng)


def _noisy_logits(predictor: PrivatePredictor, rows: np.ndarray) -> np.ndarray:
    """(k, C) noisy logits for k validated, paid-for rows.

    Draws the noise in the order k single queries would: one (k, C) Gaussian
    block is k consecutive C-vector draws; the radial sampler draws a radius
    after each direction, so it runs once per row.
    """
    logits = predict_logits(predictor.theta, rows)
    k, c = logits.shape
    if predictor.noise_family == "gaussian":
        logits = logits + sample_gaussian((k, c), predictor.noise_scale, predictor.rng)
    elif predictor.noise_family == "radial_exponential":
        noise = [sample_radial_exponential((1, c), predictor.noise_scale, predictor.rng)
                 for _ in range(k)]
        logits = logits + np.concatenate(noise)
    return logits


def predict_prediction_sensitivity(predictor: PrivatePredictor, x) -> np.ndarray:
    """Answer one query with fresh noisy logits, consuming one budget unit.

    Raw noisy logits are returned (not probabilities); consumers may
    post-process freely. A refusal raises BudgetExhaustedError before any
    computation touches the model.
    """
    row = _check_query(x, predictor.theta.shape[0])
    predictor.budget.consume()
    return _noisy_logits(predictor, row)[0]


def partition_indices(n: int, t: int, rng) -> np.ndarray:
    """Seeded shuffle, then t disjoint index blocks of size floor(n / t).

    The n mod t leftover indices are discarded. Returns a (t, floor(n/t))
    array of row indices.
    """
    if t > n:
        raise ValueError(f"n_models {t} exceeds dataset size {n}")
    if t < 1:
        raise ValueError("n_models must be at least 1")
    rng = as_generator(rng)
    subset_size = n // t
    perm = rng.permutation(n)
    return perm[: t * subset_size].reshape(t, subset_size)


def build_subsample_ensemble(data: LabeledDataset, spec: MechanismSpec,
                             rng) -> PrivatePredictor:
    """Partition, train all sub-models in one stacked solve, and gate the noisy vote.

    A seeded shuffle precedes the split into n_models disjoint subsets of
    size floor(N / n_models); leftover examples are discarded. Changing one
    training example can change at most one sub-model.

    The sub-models are stored in (D, T, C) memory and `ensemble` is that
    buffer's (T, D, C) transposed view, so ensemble_vote_counts can treat
    them as one (D, T*C) matrix without a copy.
    """
    rng = as_generator(rng)
    parts = partition_indices(data.n_examples, spec.n_models, rng)
    thetas = minimize_erm_stack(data.features[parts], data.labels[parts],
                                spec.train_config())
    return PrivatePredictor(
        kind="subsample_aggregate", privacy=spec.privacy,
        ensemble=_feature_major(thetas),
        vote_beta=subsample_beta(spec.privacy),
        budget=BudgetState(spec.privacy.budget), rng=rng)


def _feature_major(ensemble: np.ndarray) -> np.ndarray:
    """The (T, D, C) view of a copy of ensemble stored in (D, T, C) memory."""
    return np.ascontiguousarray(ensemble.transpose(1, 0, 2)).transpose(1, 0, 2)


def ensemble_vote_counts(ensemble: np.ndarray, x) -> np.ndarray:
    """Votes per class: each sub-model casts its argmax (ties to the lowest index).

    Accepts one query vector or a batch of rows; returns (C,) or (n, C)
    integer counts summing to the ensemble size.

    All T sub-models score the rows in one matrix product against the
    (D, T*C) matrix of their parameters; that reshape is free for the
    (D, T, C) memory of build_subsample_ensemble and copies any other layout
    once per call. The product is a stack of (1, D) @ (D, T*C) products, so
    every row, alone or in a batch, goes through the same BLAS matrix-vector
    call and rounds the same way: a sub-model that never saw two classes
    scores them equal up to rounding, and a GEMM would break that near-tie
    differently from a single query's GEMV.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    n = rows.shape[0]
    t, d, c = ensemble.shape
    weights = ensemble.transpose(1, 0, 2).reshape(d, t * c)
    winners = (rows[:, None, :] @ weights).reshape(n, t, c).argmax(axis=2)  # (n, t)
    offsets = winners + c * np.arange(n)[:, None]
    counts = np.bincount(offsets.ravel(), minlength=n * c).reshape(n, c)
    return counts[0] if single else counts


def vote_distribution(counts, beta: float) -> np.ndarray:
    """Exponential-mechanism label distribution: proportional to exp(beta * counts).
    softmax's arithmetic without its finiteness check; vote counts are integers."""
    scores = beta * np.asarray(counts, dtype=np.float64)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _vote_labels(predictor: PrivatePredictor, rows: np.ndarray) -> np.ndarray:
    """One sampled label per validated, paid-for row.

    Inverse-CDF sampling with one uniform per row, in row order: the same
    arithmetic and draws as rng.choice(C, p=probs) called row by row.
    """
    counts = ensemble_vote_counts(predictor.ensemble, rows)
    cdf = np.cumsum(vote_distribution(counts, predictor.vote_beta), axis=1)
    cdf /= cdf[:, -1:]
    uniforms = predictor.rng.random(rows.shape[0])
    return (cdf <= uniforms[:, None]).sum(axis=1)


def predict_subsample_aggregate(predictor: PrivatePredictor, x) -> int:
    """Sample one label from the exponentiated vote histogram; spend one unit."""
    row = _check_query(x, predictor.ensemble.shape[1])
    predictor.budget.consume()
    return int(_vote_labels(predictor, row)[0])


# ---------------------------------------------------------------------------
# Dispatch and batch scoring
# ---------------------------------------------------------------------------

def fit_predictor(data: LabeledDataset, spec: MechanismSpec, rng,
                  unsafe_disable_noise: bool = False) -> PrivatePredictor:
    """Train/build the predictor for spec.kind."""
    if spec.kind == "nonprivate":
        return train_nonprivate(data, spec)
    if spec.kind == "model_sensitivity":
        return train_model_sensitivity(data, spec, rng, unsafe_disable_noise)
    if spec.kind == "loss_perturbation":
        return train_loss_perturbation(data, spec, rng, unsafe_disable_noise)
    if spec.kind == "dpsgd":
        return train_dpsgd(data, spec, rng, unsafe_disable_noise)
    if spec.kind == "prediction_sensitivity":
        return build_prediction_sensitivity(data, spec, rng, unsafe_disable_noise)
    if spec.kind == "subsample_aggregate":
        return build_subsample_ensemble(data, spec, rng)
    raise ValueError(f"unknown mechanism kind: {spec.kind!r}")


def answer_queries(predictor: PrivatePredictor, queries) -> np.ndarray:
    """Predicted labels for a batch of query rows.

    Every row must be finite. Training-side predictors score the batch by
    argmax of their frozen logits. Prediction-side predictors also need every
    row in the unit ball, spend k budget units at once (all or nothing: a
    refused or invalid batch spends none), and answer the batch in one pass
    whose labels and noise-stream position equal those of k single predict
    calls in row order.
    """
    n_features = (predictor.theta.shape[0] if predictor.ensemble is None
                  else predictor.ensemble.shape[1])
    prediction_side = predictor.kind in PREDICTION_SIDE
    rows = _check_queries(queries, n_features, in_ball=prediction_side)
    if not prediction_side:
        return predict_logits(predictor.theta, rows).argmax(axis=1)
    predictor.budget.reserve(rows.shape[0])
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.intp)
    if predictor.kind == "prediction_sensitivity":
        return _noisy_logits(predictor, rows).argmax(axis=1)
    return _vote_labels(predictor, rows)


# ---------------------------------------------------------------------------
# Serialization (kind, parameters, remaining budget, privacy spec, rng state)
# ---------------------------------------------------------------------------

def save_predictor(path, predictor: PrivatePredictor):
    payload = {
        "kind": np.array(predictor.kind),
        "epsilon": np.array(predictor.privacy.epsilon),
        "delta": np.array(predictor.privacy.delta),
        "spec_budget": np.array(predictor.privacy.budget),
        "noise_family": np.array(predictor.noise_family),
        "noise_scale": np.array(predictor.noise_scale),
        "vote_beta": np.array(predictor.vote_beta),
    }
    if predictor.theta is not None:
        payload["theta"] = predictor.theta
    if predictor.ensemble is not None:
        payload["ensemble"] = predictor.ensemble
    if predictor.budget is not None:
        payload["budget_total"] = np.array(predictor.budget.budget)
        payload["budget_used"] = np.array(predictor.budget.used)
    if predictor.rng is not None:
        payload["rng_state"] = np.array(json.dumps(predictor.rng.bit_generator.state))
    np.savez(path, **payload)


def load_predictor(path) -> PrivatePredictor:
    with np.load(path, allow_pickle=False) as archive:
        privacy = PrivacySpec(epsilon=float(archive["epsilon"]),
                              delta=float(archive["delta"]),
                              budget=int(archive["spec_budget"]))
        budget = None
        if "budget_total" in archive:
            budget = BudgetState(int(archive["budget_total"]), int(archive["budget_used"]))
        rng = None
        if "rng_state" in archive:
            rng = np.random.default_rng()
            rng.bit_generator.state = json.loads(str(archive["rng_state"]))
        ensemble = None
        if "ensemble" in archive:
            ensemble = _feature_major(archive["ensemble"])
        return PrivatePredictor(
            kind=str(archive["kind"]),
            privacy=privacy,
            theta=archive["theta"] if "theta" in archive else None,
            ensemble=ensemble,
            noise_family=str(archive["noise_family"]),
            noise_scale=float(archive["noise_scale"]),
            vote_beta=float(archive["vote_beta"]),
            budget=budget,
            rng=rng,
        )
