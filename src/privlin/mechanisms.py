"""The five private prediction pipelines and the non-private baseline.

Training-side mechanisms (model sensitivity, loss perturbation, DP-SGD)
release privatized parameters and answer unlimited queries by
post-processing. Prediction-side mechanisms (prediction sensitivity,
subsample-and-aggregate) keep non-private state and spend one unit of the
inference budget per answered query.

A fit solves (the ERM minimizer, for kinds that privatise it) and calibrates (the one
choice of noise, a Calibration) deterministically. privatise then runs the kind's fit,
which applies exactly that noise with fresh randomness and returns the released
parameters, and builds the predictor, drawing nothing itself. KINDS maps each kind to
its calibration rules for delta = 0 and delta > 0, fit, answer, parameters and flags.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace

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
from .data import LabeledDataset, check_rows
from .noise import as_generator, sample_gaussian, sample_radial_exponential
from .trainer import TrainConfig, minimize_erm, minimize_erm_stack, predict_logits


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
        _calibration_rule(self.kind, self.privacy.delta)
        if self.kind != "dpsgd":  # TrainConfig owns the solver settings' rules
            self.train_config()
        elif self.dpsgd is None:
            raise ValueError("dpsgd requires a DpSgdConfig")
        elif not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam!r}")
        if not isinstance(self.n_models, numbers.Integral) or self.n_models < 1:
            raise ValueError(f"n_models must be an integer at least 1, got {self.n_models!r}")

    def train_config(self, **overrides) -> TrainConfig:
        return TrainConfig(lam=self.lam, max_iterations=self.max_iterations,
                           grad_tolerance=self.grad_tolerance, **overrides)


@dataclass(frozen=True)
class Calibration:
    """The noise a predictor applies, and loss perturbation's extra ridge rho.

    family is "gaussian" (scale is sigma), "radial_exponential" (scale is
    beta of the density exp(-beta ||b||)), "exponential_mechanism" (scale is
    the vote inverse temperature) or "none": a fit given Calibration() adds
    no noise, and its vote answers the plurality label without sampling.
    """

    family: str = "none"
    scale: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        noisy = self.family in ("gaussian", "radial_exponential", "exponential_mechanism")
        if not noisy and self.family != "none":
            raise ValueError(f"unknown noise family {self.family!r}")
        if not (math.isfinite(self.scale) and (self.scale > 0 if noisy else self.scale == 0)
                and self.rho >= 0):
            raise ValueError(f"{self.family} calibration needs a finite "
                             f"{'positive' if noisy else 'zero'} scale and rho >= 0; "
                             f"got scale {self.scale!r}, rho {self.rho!r}")


@dataclass
class PrivatePredictor:
    """A prediction engine bound to one mechanism.

    budget is None for model-releasing mechanisms (post-processing answers
    unlimited queries); prediction-side mechanisms consume one unit per query
    and refuse afterwards. rng drives the fresh per-query noise. ties is the
    ensemble's tie_table, built when a predictor is made with an ensemble and
    no table, and None without an ensemble; dataclasses.replace keeps it, so
    a replace that swaps the ensemble passes ties=None.
    """

    kind: str
    privacy: PrivacySpec
    calibration: Calibration
    theta: np.ndarray | None = None
    ensemble: np.ndarray | None = None
    budget: BudgetState | None = None
    rng: np.random.Generator | None = field(default=None, repr=False)
    ties: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.ensemble is not None and self.ties is None:
            self.ties = tie_table(self.ensemble)

    @property
    def remaining_budget(self):
        return None if self.budget is None else self.budget.remaining

    @property
    def n_features(self) -> int:
        return self.theta.shape[0] if self.ensemble is None else self.ensemble.shape[1]

    def predict(self, x):
        """Answer one (D,) query: (C,) logits, or an integer label for
        subsample-and-aggregate.

        This is the one place a single vector becomes a (1, D) row; everything
        below takes rows. The query passes check_rows as answer_queries' rows do;
        a prediction-side query spends one budget unit, and a refusal raises
        BudgetExhaustedError before any computation touches the model.
        """
        kind = KINDS[self.kind]
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise ValueError(f"query must be a length-{self.n_features} vector, "
                             f"got shape {x.shape}")
        row = check_rows(x[None, :], kind.prediction_side, "query")
        if kind.prediction_side:
            self.budget.consume()
        return kind.answer(self, row)[0]


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibrate(spec: MechanismSpec, data: LabeledDataset) -> Calibration:
    """The noise spec.kind applies at spec.privacy when trained on data, by its KINDS rule."""
    rule = _calibration_rule(spec.kind, spec.privacy.delta)
    return rule(spec, ProblemDims(n_train=data.n_examples, lam=spec.lam, n_classes=data.n_classes)
                if KINDS[spec.kind].needs_dims else None)


def _calibration_rule(kind: str, delta: float) -> Callable:
    """kind's rule at delta; ValueError if kind is unknown, WrongVariantError if it lacks one."""
    if kind not in KINDS:
        raise ValueError(f"unknown mechanism kind: {kind!r}")
    rule = KINDS[kind].calibrations[delta != 0.0]
    if rule is None:
        raise WrongVariantError(f"{kind} does not support delta {'> 0' if delta else '= 0'}")
    return rule


def _noise(calibration: Calibration, count: int, shape, rng) -> np.ndarray:
    """count draws of the calibration's additive noise of shape (rows, cols),
    stacked as (count * rows, cols) in the order single draws make them: one
    Gaussian block, one radial call, or zeros for family "none"."""
    rows, cols = shape
    if calibration.family == "gaussian":
        return sample_gaussian((count * rows, cols), calibration.scale, rng)
    if calibration.family == "radial_exponential":
        return sample_radial_exponential(shape, calibration.scale, rng, count)
    return np.zeros((count * rows, cols))


# ---------------------------------------------------------------------------
# Training-side mechanisms
# ---------------------------------------------------------------------------

def solve(data: LabeledDataset, spec: MechanismSpec) -> np.ndarray:
    """The ERM minimizer at spec's lam and tolerances; read-only, because one
    solve serves every fit of the same data, lam and tolerances."""
    theta = minimize_erm(data, spec.train_config())
    theta.flags.writeable = False
    return theta


def _fit_output_perturbation(data: LabeledDataset, spec: MechanismSpec, minimiser,
                             calibration: Calibration, rng) -> dict:
    """Add calibrated noise to the regularized minimizer; release the result.
    Model sensitivity, and with Calibration() the non-private baseline."""
    return {"theta": minimiser + _noise(calibration, 1, minimiser.shape, rng)}


def _fit_loss_perturbation(data: LabeledDataset, spec: MechanismSpec, _minimiser,
                           calibration: Calibration, rng) -> dict:
    """Minimize the objective with a random linear term plus extra ridge."""
    noise_b = _noise(calibration, 1, (data.n_features, data.n_classes), rng)
    return {"theta": minimize_erm(data, spec.train_config(noise_b=noise_b,
                                                          rho=calibration.rho))}


# Steps whose batches and noise one draw covers: memory stays
# O(block (qN + D C)) however many steps a fit runs.
_BLOCK_STEPS = 256


def poisson_batches(n: int, q: float, n_steps: int, rng):
    """Poisson-subsampled batches of n rows for n_steps steps: each row joins
    each step independently with probability q.

    Yields (rows, bounds) for consecutive blocks of at most _BLOCK_STEPS
    steps; step j of a block uses rows[bounds[j]:bounds[j + 1]], ascending
    and possibly empty. A block is one run of Bernoulli(q) coins over
    steps * n positions, read through the geometric gaps between its
    successes: position p is row p % n of step p // n.
    """
    rng = as_generator(rng)
    for start in range(0, n_steps, _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, n_steps - start)
        total = steps * n
        size = int(q * total + 5.0 * np.sqrt(q * total)) + 16
        positions = np.cumsum(rng.geometric(q, size)) - 1
        while positions[-1] < total:
            more = positions[-1] + np.cumsum(rng.geometric(q, size))
            positions = np.concatenate([positions, more])
        positions = positions[:np.searchsorted(positions, total)]
        yield positions % n, np.searchsorted(positions, n * np.arange(steps + 1))


def _fit_dpsgd(data: LabeledDataset, spec: MechanismSpec, _minimiser,
               calibration: Calibration, rng) -> dict:
    """Private SGD: Poisson batches, per-example clipping, Gaussian noise.

    Each step takes a Poisson batch (every row joins independently with
    probability q = sample_rate; poisson_batches), clips every per-example
    gradient to norm at most clip, adds N(0, (sigma * clip)^2) noise to the
    sum, divides by the expected batch size qN, which does not depend on the
    data, and applies the step; an empty batch applies the noise alone. This
    is the Poisson-subsampled Gaussian that rdp_subsampled_gaussian accounts
    for, with add/remove neighbours: one row more or less moves the clipped
    sum by at most clip. The per-example gradient of the singleton objective
    is x (p - y)^T + lam * theta. sigma is the calibration's scale; family
    "none" adds no noise. Each block's noise is one _noise draw, made after
    its batches. Returns {"theta": ...}; ValueError if theta is not finite.
    """
    cfg = spec.dpsgd
    n = data.n_examples
    step_noise = replace(calibration, scale=calibration.scale * cfg.clip)

    x, y = data.features, data.labels
    d, c = data.n_features, data.n_classes
    lam = spec.lam
    step_size = cfg.learning_rate / (cfg.sample_rate * n)
    theta = np.zeros((d, c))
    x_sq = np.einsum("nd,nd->n", x, x)

    for rows, bounds in poisson_batches(n, cfg.sample_rate, cfg.n_steps, rng):
        steps = len(bounds) - 1
        noise = _noise(step_noise, steps, (d, c), rng).reshape(steps, d, c)
        bounds = bounds.tolist()
        for j in range(steps):
            idx = rows[bounds[j]:bounds[j + 1]]
            xb = x.take(idx, axis=0)
            # Class-major (C, |batch|) arrays, for the reason losses.py gives.
            logits = theta.T @ xb.T
            e = np.exp(logits - np.maximum.reduce(logits))
            residual = e / np.add.reduce(e) - y.take(idx, axis=0).T  # softmax - y, unchecked
            # ||x r^T + lam theta||_F^2 without materializing per-example matrices
            sq_norms = x_sq[idx] * np.add.reduce(residual * residual)
            if lam > 0.0:
                sq_norms += 2.0 * lam * np.add.reduce(logits * residual)
                sq_norms += lam * lam * float(np.vdot(theta, theta))
            scales = cfg.clip / np.maximum(cfg.clip, np.sqrt(sq_norms))
            residual *= scales
            summed = xb.T @ residual.T
            if lam > 0.0:
                summed += lam * float(scales.sum()) * theta
            summed += noise[j]
            theta -= step_size * summed

    if not np.isfinite(theta).all():
        raise ValueError("dpsgd diverged: theta is not finite")
    return {"theta": theta}


def _released_logits(predictor: PrivatePredictor, rows: np.ndarray) -> np.ndarray:
    """(k, C) logits of the released parameters; answering is post-processing."""
    return predict_logits(predictor.theta, rows)


# ---------------------------------------------------------------------------
# Prediction-side mechanisms
# ---------------------------------------------------------------------------

def _fit_prediction_sensitivity(data: LabeledDataset, spec: MechanismSpec, minimiser,
                                calibration: Calibration, rng) -> dict:
    """The minimizer itself; the noise is drawn per query."""
    return {"theta": minimiser}


def _noisy_logits(predictor: PrivatePredictor, rows: np.ndarray) -> np.ndarray:
    """(k, C) noisy logits for k validated, paid-for rows.

    Raw noisy logits (not probabilities); consumers may post-process freely.
    The noise is drawn in the order k single queries would draw it.
    """
    logits = predict_logits(predictor.theta, rows)
    k, c = logits.shape
    return logits + _noise(predictor.calibration, k, (1, c), predictor.rng)


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


def _fit_subsample_ensemble(data: LabeledDataset, spec: MechanismSpec, _minimiser,
                            calibration: Calibration, rng) -> dict:
    """Partition and train all sub-models in one stacked solve.

    A seeded shuffle precedes the split into n_models disjoint subsets of
    size floor(N / n_models); leftover examples are discarded. Changing one
    training example can change at most one sub-model.

    A sub-model's classes that none of its examples carry enter its
    objective symmetrically, so its exact minimiser has their columns equal;
    they are set to their mean, which makes them equal bit for bit, and
    tie_table groups them. The sub-models are stored in (D, T, C) memory and
    `ensemble` is that buffer's (T, D, C) transposed view, so
    ensemble_vote_counts can treat them as one (D, T*C) matrix without a copy.
    """
    parts = partition_indices(data.n_examples, spec.n_models, rng)
    # A row gather, then one transposing copy into the solver's class-major (T, D, n)
    # and (T, C, n) layout: 2-3x cheaper than one two-index gather straight into it.
    xt, yt = (np.ascontiguousarray(a[parts].transpose(0, 2, 1))
              for a in (data.features, data.labels))
    thetas = minimize_erm_stack(xt.transpose(0, 2, 1), yt.transpose(0, 2, 1), spec.train_config())
    absent = ~yt.any(axis=2)  # (T, C): classes a sub-model never saw
    mean = thetas @ (absent / np.maximum(absent.sum(axis=1, keepdims=True), 1))[:, :, None]
    np.copyto(thetas, mean, where=absent[:, None, :])
    return {"ensemble": _feature_major(thetas)}


def _feature_major(ensemble: np.ndarray) -> np.ndarray:
    """The (T, D, C) view of a copy of ensemble stored in (D, T, C) memory."""
    return np.ascontiguousarray(ensemble.transpose(1, 0, 2)).transpose(1, 0, 2)


def tie_table(ensemble: np.ndarray) -> np.ndarray:
    """(T, C) table: for each sub-model and class, the lowest class whose
    parameter column in that sub-model is bitwise equal to the class's own.
    Only column pairs equal in their first entry are compared in full."""
    bits = np.asarray(ensemble, dtype=np.float64).view(np.uint64)  # (T, D, C)
    t, _, c = bits.shape
    first = bits[:, 0, :]
    model, low, high = np.nonzero(np.triu(first[:, :, None] == first[:, None, :], 1))
    same = (bits[model, :, low] == bits[model, :, high]).all(axis=1)
    table = np.tile(np.arange(c), (t, 1))
    np.minimum.at(table, (model[same], high[same]), low[same])
    return table


def ensemble_vote_counts(ensemble: np.ndarray, rows, ties: np.ndarray) -> np.ndarray:
    """(n, C) votes per class for (n, D) rows: each sub-model casts its argmax,
    mapped through ties = tie_table(ensemble), so each row's counts sum to T.

    All T sub-models score the rows in one matrix product against the
    (D, T*C) matrix of their parameters; that reshape is free for the
    (D, T, C) memory of the subsample-and-aggregate fit and copies any other
    layout once per call. BLAS scores one row with a matrix-vector product
    and a batch with a matrix-matrix product, and the two can round a
    sub-model's equal columns apart differently. Each winner is therefore
    mapped to the lowest class of its tie group, so equal columns tie
    exactly and a batch answers as its rows would one by one.
    """
    rows = np.asarray(rows, dtype=np.float64)
    t, d, c = ensemble.shape
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ValueError(f"rows must have shape (n, {d}), got {rows.shape}")
    n = rows.shape[0]
    weights = ensemble.transpose(1, 0, 2).reshape(d, t * c)
    winners = (rows @ weights).reshape(n, t, c).argmax(axis=2)  # (n, t)
    winners += np.arange(0, t * c, c)  # flat indices into ties
    votes = ties.take(winners)
    if n > 1:  # offset each row's votes into its own C bins
        votes += np.arange(0, n * c, c)[:, None]
    return np.bincount(votes.ravel(), minlength=n * c).reshape(n, c)


def vote_distribution(counts, beta: float) -> np.ndarray:
    """Exponential-mechanism label distribution: proportional to exp(beta * counts),
    a max-shifted softmax with no finiteness check, since vote counts are integers."""
    scores = beta * np.asarray(counts, dtype=np.float64)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _vote_labels(predictor: PrivatePredictor, rows: np.ndarray) -> np.ndarray:
    """One sampled label per validated, paid-for row.

    Inverse-CDF sampling with one uniform per row, in row order: the same
    arithmetic and draws as rng.choice(C, p=probs) called row by row. Family
    "none" answers the plurality vote (ties to the lowest class), drawing nothing.
    """
    counts = ensemble_vote_counts(predictor.ensemble, rows, predictor.ties)
    if predictor.calibration.family == "none":
        return counts.argmax(axis=1)
    cdf = np.cumsum(vote_distribution(counts, predictor.calibration.scale), axis=1)
    cdf /= cdf[:, -1:]
    uniforms = predictor.rng.random(rows.shape[0])
    return (cdf <= uniforms[:, None]).sum(axis=1)


# ---------------------------------------------------------------------------
# The kind table, dispatch and batch scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """calibrations: the (delta = 0, delta > 0) rules (spec, dims) -> Calibration, None for a
    regime the kind lacks; dims is the data's ProblemDims if needs_dims, else None. Lambdas
    read the accounting functions off this module when called, where perfbench's tracer
    patches them. fit(data, spec, minimiser, calibration, rng) -> {params: array}, params
    being "theta" or "ensemble", minimiser solve(data, spec) if uses_minimiser, else None;
    answer(predictor, validated paid-for rows) -> (k, C) logits or (k,) labels."""

    fit: Callable
    answer: Callable
    calibrations: tuple[Callable | None, Callable | None]
    params: str = "theta"
    prediction_side: bool = False
    uses_minimiser: bool = False
    needs_dims: bool = True  # False where the noise ignores (N, lam, C): DP-SGD allows lam = 0


KINDS: dict[str, Kind] = {
    "nonprivate": Kind(_fit_output_perturbation, _released_logits,
                       (lambda s, d: Calibration(),) * 2, uses_minimiser=True, needs_dims=False),
    "model_sensitivity": Kind(_fit_output_perturbation, _released_logits, (
        lambda s, d: Calibration("radial_exponential", model_sensitivity_beta(d, s.privacy)),
        lambda s, d: Calibration("gaussian", gaussian_model_sigma(d, s.privacy))),
        uses_minimiser=True),
    "loss_perturbation": Kind(_fit_loss_perturbation, _released_logits, (
        lambda s, d: Calibration("radial_exponential", *loss_perturbation_params(d, s.privacy)),
        lambda s, d: Calibration("gaussian", gaussian_loss_sigma(d, s.privacy),
                                 loss_perturbation_rho(d, s.privacy)))),
    "dpsgd": Kind(_fit_dpsgd, _released_logits, (None, lambda s, d: Calibration(
        "gaussian", dpsgd_sigma_for_target(s.privacy, s.dpsgd))), needs_dims=False),
    "prediction_sensitivity": Kind(_fit_prediction_sensitivity, _noisy_logits, (
        lambda s, d: Calibration("radial_exponential", prediction_sensitivity_beta(d, s.privacy)),
        lambda s, d: Calibration("gaussian", gaussian_prediction_sigma(d, s.privacy))),
        prediction_side=True, uses_minimiser=True),
    "subsample_aggregate": Kind(_fit_subsample_ensemble, _vote_labels, (
        lambda s, d: Calibration("exponential_mechanism", subsample_beta(s.privacy)),) * 2,
        params="ensemble", prediction_side=True, needs_dims=False),
}


def privatise(data: LabeledDataset, spec: MechanismSpec, minimiser,
              calibration: Calibration, rng) -> PrivatePredictor:
    """spec.kind's fit, given rng, wrapped in its predictor; a prediction-side
    predictor also gets a budget of spec.privacy.budget and keeps rng for its
    per-query noise. Only the fit draws from rng."""
    kind, rng = KINDS[spec.kind], as_generator(rng)
    predictor = PrivatePredictor(spec.kind, spec.privacy, calibration,
                                 **kind.fit(data, spec, minimiser, calibration, rng))
    if kind.prediction_side:
        predictor.budget, predictor.rng = BudgetState(spec.privacy.budget), rng
    return predictor


def fit_predictor(data: LabeledDataset, spec: MechanismSpec, rng) -> PrivatePredictor:
    """Calibrate, solve if spec.kind privatises the minimizer, then privatise."""
    kind, calibration = KINDS[spec.kind], calibrate(spec, data)
    minimiser = solve(data, spec) if kind.uses_minimiser else None
    return privatise(data, spec, minimiser, calibration, rng)


def answer_queries(predictor: PrivatePredictor, queries) -> np.ndarray:
    """Predicted labels for a batch of query rows.

    Rows pass check_rows, the unit-ball rule of training rows: all finite, and in
    the ball for prediction-side kinds. Training-side predictors score the batch
    by argmax of their frozen logits. Prediction-side predictors spend k budget
    units at once (all or nothing: a refused or invalid batch spends none), and
    answer in one pass whose labels and noise-stream position equal those of k
    single predict calls in row order.
    """
    kind = KINDS[predictor.kind]
    rows = np.asarray(queries, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != predictor.n_features:
        raise ValueError(f"queries must be rows of length {predictor.n_features}, "
                         f"got shape {rows.shape}")
    rows = check_rows(rows, kind.prediction_side, "query")
    if kind.prediction_side:
        predictor.budget.reserve(rows.shape[0])
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.intp)
    answers = kind.answer(predictor, rows)
    return answers.argmax(axis=1) if answers.ndim == 2 else answers


# ---------------------------------------------------------------------------
# Serialization (kind, calibration, parameters, budget, privacy spec, rng state)
# ---------------------------------------------------------------------------

def save_predictor(path, predictor: PrivatePredictor):
    payload = {
        "kind": np.array(predictor.kind),
        "epsilon": np.array(predictor.privacy.epsilon),
        "delta": np.array(predictor.privacy.delta),
        "spec_budget": np.array(predictor.privacy.budget),
        "calibration": np.array(json.dumps(asdict(predictor.calibration))),
    }
    name = KINDS[predictor.kind].params
    payload[name] = getattr(predictor, name)
    if predictor.budget is not None:
        payload["budget_total"] = np.array(predictor.budget.budget)
        payload["budget_used"] = np.array(predictor.budget.used)
    if predictor.rng is not None:
        payload["rng_state"] = np.array(json.dumps(predictor.rng.bit_generator.state))
    # A handle writes exactly `path`; np.savez would add ".npz" to a bare path.
    with open(path, "wb") as handle:
        np.savez(handle, **payload)


def load_predictor(path) -> PrivatePredictor:
    """The predictor save_predictor wrote; ValueError for a file without its
    kind or privacy records (epsilon, delta, spec_budget), of an unknown kind,
    with a malformed calibration record or none (the older layout of three
    noise fields, whose training-side files did not record their noise),
    without its kind's finite parameters (the 3-D ensemble or the 2-D theta), or
    prediction-side without its budget and rng records.

    An ensemble's tie_table is rebuilt from the stored parameters. Ensembles
    saved before absent-class columns were made equal have those columns
    equal only up to rounding, so they form no tie groups: their near-ties go
    to whichever column rounds higher, and a batch may break one differently
    from a single query."""
    with np.load(path, allow_pickle=False) as archive:
        if not {"kind", "epsilon", "delta", "spec_budget"} <= set(archive):
            raise ValueError(f"{path}: a predictor needs its kind, epsilon, delta and "
                             "spec_budget records")
        kind = str(archive["kind"])
        if kind not in KINDS:
            raise ValueError(f"{path}: unknown mechanism kind {kind!r}")
        if "calibration" not in archive:
            raise ValueError(f"{path}: no calibration record; this layout cannot be "
                             "loaded faithfully, so train the predictor again")
        try:
            calibration = Calibration(**json.loads(str(archive["calibration"])))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed calibration record: {exc}") from exc
        name = KINDS[kind].params
        ndim = 3 if name == "ensemble" else 2
        params = archive.get(name)
        if (params is None or params.dtype.kind != "f" or params.ndim != ndim
                or not np.isfinite(params).all()):
            raise ValueError(f"{path}: a {kind} predictor needs a finite {ndim}-D {name} array")
        prediction_side = KINDS[kind].prediction_side
        if prediction_side and not {"budget_total", "budget_used", "rng_state"} <= set(archive):
            raise ValueError(f"{path}: a {kind} predictor needs its budget and rng records")
        privacy = PrivacySpec(epsilon=float(archive["epsilon"]),
                              delta=float(archive["delta"]),
                              budget=int(archive["spec_budget"]))
        if name == "ensemble":
            params = _feature_major(params)
        predictor = PrivatePredictor(kind, privacy, calibration, **{name: params})
        if prediction_side:
            predictor.budget = BudgetState(int(archive["budget_total"]),
                                           int(archive["budget_used"]))
            predictor.rng = np.random.default_rng()
            predictor.rng.bit_generator.state = json.loads(str(archive["rng_state"]))
        return predictor
