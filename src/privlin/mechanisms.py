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

import bisect
import contextlib
import functools
import itertools
import json
import math
import mmap
import numbers
import os
import secrets
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
from .data import LabeledDataset, check_rows, check_vector, is_number
from .noise import _radial_draw, as_generator, sample_gaussian, sample_radial_exponential
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
        elif not (is_number(self.lam) and 0 <= self.lam < math.inf):
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam!r}")
        if not is_number(self.n_models, numbers.Integral) or self.n_models < 1:
            raise ValueError(f"n_models must be an integer at least 1, got {self.n_models!r}")

    def train_config(self, **overrides) -> TrainConfig:
        return TrainConfig(lam=self.lam, max_iterations=self.max_iterations,
                           grad_tolerance=self.grad_tolerance, **overrides)


# The noise families each parameter array can apply: _noise's and _noisy_logits' for a theta,
# _vote_labels' for an ensemble. "none" adds no noise; every other family is noisy.
_FAMILIES = {"theta": ("gaussian", "radial_exponential", "none"),
             "ensemble": ("exponential_mechanism", "none")}


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
        if not any(self.family in families for families in _FAMILIES.values()):
            raise ValueError(f"unknown noise family {self.family!r}")
        noisy = self.family != "none"
        if not (math.isfinite(self.scale) and (self.scale > 0 if noisy else self.scale == 0)
                and self.rho >= 0):
            raise ValueError(f"{self.family} calibration needs a finite "
                             f"{'positive' if noisy else 'zero'} scale and rho >= 0; "
                             f"got scale {self.scale!r}, rho {self.rho!r}")


def _check_family(params: str, family: str):
    """ValueError unless a params array ("theta" or "ensemble") can apply family's noise."""
    if family not in _FAMILIES[params]:
        raise ValueError(f"a {params} predictor cannot apply {family!r} noise; "
                         f"it takes one of {', '.join(_FAMILIES[params])}")


@dataclass
class PrivatePredictor:
    """A prediction engine bound to one mechanism.

    budget is None for model-releasing mechanisms (post-processing answers
    unlimited queries); prediction-side mechanisms consume one unit per query
    and refuse afterwards. rng drives the fresh per-query noise. ties is the
    ensemble's tie_table, built when a predictor is made with an ensemble and
    no table, and None without an ensemble; dataclasses.replace keeps it, so
    a replace that swaps the ensemble passes ties=None. ValueError if the
    calibration's family is not one that _FAMILIES lists for the parameters,
    or if a prediction-side predictor has no budget or no rng.
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
        _check_family("theta" if self.ensemble is None else "ensemble", self.calibration.family)
        if KINDS[self.kind].prediction_side and (self.budget is None or self.rng is None):
            raise ValueError(f"a {self.kind} predictor spends a budget and draws from an rng; "
                             f"got budget {self.budget!r} and rng {self.rng!r}")
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

        A training-side query is scored as the (1, D) row x[None]. A
        prediction-side query passes check_vector, check_rows' unit-ball rule
        on one vector, spends one budget unit and goes to its kind's answer as
        the vector itself (Kind); a refusal raises BudgetExhaustedError before
        any computation touches the model.
        """
        kind = KINDS[self.kind]
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise ValueError(f"query must be a length-{self.n_features} vector, "
                             f"got shape {x.shape}")
        if not kind.prediction_side:
            return kind.answer(self, check_rows(x[None, :], False, "query"))[0]
        check_vector(x, "query")
        self.budget.consume()
        return kind.answer(self, x)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibrate(spec: MechanismSpec, data: LabeledDataset) -> Calibration:
    """The noise spec.kind applies at spec.privacy when trained on data, by its KINDS rule."""
    rule = _calibration_rule(spec.kind, spec.privacy.delta)
    return rule(spec, ProblemDims(n_train=data.n_examples, lam=spec.lam, n_classes=data.n_classes)
                if spec.lam > 0 else None)


def _calibration_rule(kind: str, delta: float) -> Callable:
    """kind's rule at delta, read off its KINDS pair: the one place that decides the delta
    regime. ValueError if kind is unknown, WrongVariantError if it lacks a rule there."""
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
                             calibration: Calibration, rng) -> np.ndarray:
    """Add calibrated noise to the regularized minimizer; release the result.
    Model sensitivity, and with Calibration() the non-private baseline."""
    return minimiser + _noise(calibration, 1, minimiser.shape, rng)


def _fit_loss_perturbation(data: LabeledDataset, spec: MechanismSpec, _minimiser,
                           calibration: Calibration, rng) -> np.ndarray:
    """Minimize the objective with a random linear term plus extra ridge."""
    noise_b = _noise(calibration, 1, (data.n_features, data.n_classes), rng)
    return minimize_erm(data, spec.train_config(noise_b=noise_b, rho=calibration.rho))


# Steps whose batches and noise one draw covers: memory stays
# O(block (qN + D C)) however many steps a fit runs.
_BLOCK_STEPS = 256

_DIVERGED = "dpsgd diverged: theta is not finite"


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
               calibration: Calibration, rng) -> np.ndarray:
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
    its batches. Returns theta; ValueError if it is not finite.
    """
    cfg = spec.dpsgd
    n = data.n_examples
    step_noise = replace(calibration, scale=calibration.scale * cfg.clip)

    x, y = data.features, data.labels
    d, c = data.n_features, data.n_classes
    step_size = cfg.learning_rate / (cfg.sample_rate * n)
    theta = np.zeros((d, c))
    x_sq = np.einsum("nd,nd->n", x, x)

    for rows, bounds in poisson_batches(n, cfg.sample_rate, cfg.n_steps, rng):
        steps = len(bounds) - 1
        noise = _noise(step_noise, steps, (d, c), rng).reshape(steps, d, c)
        bounds = bounds.tolist()
        for j in range(steps):
            summed = _clipped_sum(theta, x, y, x_sq, rows[bounds[j]:bounds[j + 1]], spec.lam,
                                  cfg.clip)
            summed += noise[j]
            theta -= step_size * summed

    if not np.isfinite(theta).all():
        raise ValueError(_DIVERGED)
    return theta


def _clipped_sum(theta, x, y, x_sq, idx, lam: float, clip: float) -> np.ndarray:
    """(D, C) sum over the batch rows idx of their per-example gradients at theta, each
    clipped to norm at most clip; x_sq holds the rows' squared norms."""
    xb = x.take(idx, axis=0)
    # Class-major (C, |batch|) arrays, for the reason losses.py gives.
    logits = theta.T @ xb.T
    e = np.exp(logits - np.maximum.reduce(logits))
    residual = e / np.add.reduce(e) - y.take(idx, axis=0).T  # softmax - y, unchecked
    # ||x r^T + lam theta||_F^2 without materializing per-example matrices
    sq_norms = x_sq[idx] * np.add.reduce(residual * residual)
    sq_norms += 2.0 * lam * np.add.reduce(logits * residual)
    sq_norms += lam * lam * float(np.vdot(theta, theta))
    scales = clip / np.maximum(clip, np.sqrt(sq_norms))
    residual *= scales
    summed = xb.T @ residual.T
    summed += lam * float(scales.sum()) * theta
    return summed


def fit_dpsgd_lockstep(data: LabeledDataset, spec: MechanismSpec, calibrations, rngs) -> list:
    """One DP-SGD fit of data at spec per (calibration, rng) pair, all advanced by one
    step loop. Entry r is _fit_dpsgd(data, spec, None, calibrations[r], rngs[r]) bit for
    bit, or the ValueError that call raises; one trial's divergence touches no other
    trial, and no floating-point warning is raised. One trial runs through _fit_dpsgd
    itself, which is faster than the lockstep loop at R = 1."""
    with np.errstate(all="ignore"):
        if len(rngs) == 1:
            try:
                return [_fit_dpsgd(data, spec, None, calibrations[0], rngs[0])]
            except ValueError as exc:
                return [exc]
        thetas = _lockstep(data, spec, calibrations, rngs)
    return [theta if np.isfinite(theta).all() else ValueError(_DIVERGED) for theta in thetas]


def _lockstep(data: LabeledDataset, spec: MechanismSpec, calibrations, rngs) -> np.ndarray:
    """The (R, D, C) thetas of fit_dpsgd_lockstep, unchecked.

    A sweep-size fit's cost is its per-step numpy calls, not their arithmetic, so each
    step serves every trial: each trial's batch rows lie side by side (_side_by_side) as
    the columns of one class-major (C, total batch) array, on which every elementwise step
    and class reduction of _clipped_sum runs once. Each trial draws from its own rng in
    _fit_dpsgd's order, a block's batches and then its one _noise block. Kept per trial:
    the two matrix products, each on the trial's own rows, since a BLAS may round a column
    of a product differently in a wider product (OpenBLAS 0.3.31 does at D = 784); the
    np.vdot(theta, theta) and the sum of the clip scales, whose summation orders set the
    bits; and a one-row batch, whose class sums numpy takes pairwise rather than in order,
    so _clipped_sum computes it. Memory grows as R blocks of _fit_dpsgd's.
    """
    cfg, lam, clip = spec.dpsgd, spec.lam, spec.dpsgd.clip
    x, y = data.features, data.labels
    n, d, c = data.n_examples, data.n_features, data.n_classes
    step_size = cfg.learning_rate / (cfg.sample_rate * n)
    y_t = np.ascontiguousarray(y.T)
    x_sq = np.einsum("nd,nd->n", x, x)
    trials = range(len(rngs))
    thetas = np.zeros((len(rngs), d, c))
    summed = np.empty_like(thetas)
    thetas_t = [theta.T for theta in thetas]
    step_noise = [replace(calibration, scale=calibration.scale * clip)
                  for calibration in calibrations]
    samplers = [poisson_batches(n, cfg.sample_rate, cfg.n_steps, rng) for rng in rngs]

    for start in range(0, cfg.n_steps, _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, cfg.n_steps - start)
        blocks, noise = [], np.empty((len(rngs), steps, d, c))
        for r in trials:
            blocks.append(next(samplers[r]))
            noise[r] = _noise(step_noise[r], steps, (d, c), rngs[r]).reshape(steps, d, c)
        columns, starts, sizes, spans = _side_by_side(blocks)
        for j in range(steps):
            idx, size, span = columns[starts[j]:starts[j + 1]], sizes[j], spans[j]
            xb = x.take(idx, axis=0)
            logits = np.empty((c, len(idx)))
            for r in trials:
                np.matmul(thetas_t[r], xb[span[r]].T, out=logits[:, span[r]])
            e = np.exp(logits - np.maximum.reduce(logits))
            residual = e / np.add.reduce(e) - y_t.take(idx, axis=1)
            sq_norms = x_sq.take(idx) * np.add.reduce(residual * residual)
            sq_norms += 2.0 * lam * np.add.reduce(logits * residual)
            sq_norms += np.repeat([lam * lam * float(np.vdot(theta, theta))
                                   for theta in thetas], size)
            scales = clip / np.maximum(clip, np.sqrt(sq_norms))
            residual *= scales
            for r in trials:
                np.matmul(xb[span[r]].T, residual[:, span[r]].T, out=summed[r])
            # np.add.reduce is scales.sum()'s own reduction, without its Python wrapper.
            scale_sums = np.array([np.add.reduce(scales[rows]) for rows in span])
            summed += (lam * scale_sums)[:, None, None] * thetas
            if 1 in size:
                for r in [r for r in trials if size[r] == 1]:
                    summed[r] = _clipped_sum(thetas[r], x, y, x_sq, idx[span[r]], lam, clip)
            summed += noise[:, j]
            thetas -= step_size * summed
    return thetas


def _side_by_side(blocks) -> tuple:
    """R trials' poisson_batches blocks of equal step count, step by step: (columns,
    starts, sizes, spans), where step j's rows of every trial are
    columns[starts[j]:starts[j + 1]], and trial r's are the slice spans[j][r] of those,
    sizes[j][r] rows, in trial order."""
    counts = np.array([np.diff(bounds) for _, bounds in blocks])  # (R, steps)
    before = np.cumsum(counts, axis=0) - counts  # earlier trials' rows in each step
    starts = np.concatenate([[0], np.cumsum(counts.sum(axis=0))])
    columns = np.empty(starts[-1], dtype=np.intp)
    step_ids = np.arange(counts.shape[1])
    for (rows, bounds), count, ahead in zip(blocks, counts, before):
        step = np.repeat(step_ids, count)
        columns[starts[step] + ahead[step] + np.arange(len(rows)) - bounds[step]] = rows
    sizes = counts.T.tolist()
    spans = [[slice(a, a + b) for a, b in zip(ahead, size)]
             for ahead, size in zip(before.T.tolist(), sizes)]
    return columns, starts.tolist(), sizes, spans


def _released_logits(predictor: PrivatePredictor, rows: np.ndarray) -> np.ndarray:
    """(k, C) logits of the released parameters; answering is post-processing."""
    return predict_logits(predictor.theta, rows)


# ---------------------------------------------------------------------------
# Prediction-side mechanisms
# ---------------------------------------------------------------------------

def _fit_prediction_sensitivity(data: LabeledDataset, spec: MechanismSpec, minimiser,
                                calibration: Calibration, rng) -> np.ndarray:
    """The minimizer itself; the noise is drawn per query."""
    return minimiser


def _noisy_logits(predictor: PrivatePredictor, rows: np.ndarray) -> np.ndarray:
    """(k, C) noisy logits for (k, D) rows, or (C,) for a (D,) vector.

    Raw noisy logits (not probabilities); consumers may post-process freely.
    Each row takes one C-vector noise draw, in row order, straight from
    predictor.rng: the draws and arithmetic of _noise's (k * 1, C) block but
    none of its checks, which the predictor's Calibration passed when it was
    made. Family "none" adds zeros, so a -0.0 logit becomes 0.0.
    """
    logits = rows @ predictor.theta
    family, scale = predictor.calibration.family, predictor.calibration.scale
    if family == "gaussian":
        logits += predictor.rng.standard_normal(logits.shape) * scale
    elif family == "radial_exponential":
        noise = np.empty(logits.shape)
        for row in noise.reshape(-1, logits.shape[-1]):
            _radial_draw(row, scale, predictor.rng)
        logits += noise
    else:
        logits += 0.0
    return logits


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
                            calibration: Calibration, rng) -> np.ndarray:
    """Partition and train all sub-models in one stacked solve.

    A seeded shuffle precedes the split into n_models disjoint subsets of
    size floor(N / n_models); leftover examples are discarded. Changing one
    training example can change at most one sub-model.

    A sub-model's classes that none of its examples carry enter its
    objective symmetrically, so its exact minimiser has their columns equal;
    they are set to their mean, which makes them equal bit for bit, and
    tie_table groups them. The sub-models are stored in class-major (D, C, T)
    memory and `ensemble` is that buffer's (T, D, C) transposed view, so
    ensemble_vote_counts can treat them as one (D, C*T) matrix without a copy
    and find each sub-model's winner along a leading class axis.
    """
    parts = partition_indices(data.n_examples, spec.n_models, rng)
    # A row gather, then one transposing copy into the solver's layout, features
    # (T, D, n) and labels class-leading (C, T, n): 2-3x cheaper than one two-index
    # gather straight into it.
    xt = np.ascontiguousarray(data.features[parts].transpose(0, 2, 1))
    yc = np.ascontiguousarray(data.labels[parts].transpose(2, 0, 1))
    thetas = minimize_erm_stack(xt.transpose(0, 2, 1), yc.transpose(1, 2, 0), spec.train_config())
    absent = ~yc.any(axis=2).T  # (T, C): classes a sub-model never saw
    mean = thetas @ (absent / np.maximum(absent.sum(axis=1, keepdims=True), 1))[:, :, None]
    np.copyto(thetas, mean, where=absent[:, None, :])
    return _feature_major(thetas)


_HUGE_PAGE = 2 << 20  # bytes in one transparent huge page on x86-64 and arm64 Linux


def _huge_page_empty(shape, dtype) -> np.ndarray:
    """An uninitialised array of shape and dtype, which Linux is asked to back with
    transparent huge pages if it spans a quarter of one or more; np.empty otherwise.

    A one-vector vote reads the whole ensemble per query. On a 2-core Xeon VM with
    2 MiB of L2 per core, a 1 MB ensemble in 4 KiB pages took 13-15 us per
    matrix-vector product on some allocations and 23-27 us on others; in 2 MiB pages,
    which are physically contiguous, it took 13.7-17.3 us on each of 12."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes < _HUGE_PAGE // 4 or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.empty(shape, dtype)
    region = mmap.mmap(-1, -(-nbytes // _HUGE_PAGE) * _HUGE_PAGE + _HUGE_PAGE,
                       flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    with contextlib.suppress(OSError):  # a kernel without huge pages keeps 4 KiB ones
        region.madvise(mmap.MADV_HUGEPAGE)
    raw = np.frombuffer(region, dtype=np.uint8)
    start = -raw.ctypes.data % _HUGE_PAGE  # the first huge-page boundary
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def _feature_major(ensemble: np.ndarray) -> np.ndarray:
    """The (T, D, C) view of a copy of ensemble stored in class-major (D, C, T) memory,
    from _huge_page_empty."""
    t, d, c = ensemble.shape
    memory = _huge_page_empty((d, c, t), ensemble.dtype)
    np.copyto(memory, ensemble.transpose(1, 2, 0))
    return memory.transpose(2, 0, 1)


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


@functools.lru_cache(maxsize=None)
def _class_ranks(c: int) -> np.ndarray:
    """(C, 1) ranks C, ..., 1 in the smallest unsigned dtype that holds C."""
    ranks = np.arange(c, 0, -1, dtype=np.min_scalar_type(c))[:, None]
    ranks.flags.writeable = False
    return ranks


@functools.lru_cache(maxsize=None)
def _tie_offsets(t: int, c: int) -> np.ndarray:
    """(T,) offsets 0, C, ..., (T - 1) * C that turn T sub-models' winners into flat
    indices into their (T, C) tie table."""
    offsets = np.arange(0, t * c, c)
    offsets.flags.writeable = False
    return offsets


def _class_winners(scores: np.ndarray) -> np.ndarray:
    """(..., T) index of each sub-model's winning class in (..., C, T) scores: the batch
    vote's winner search. It finds the first class of maximum score, or the first NaN,
    as argmax along the class axis would give.

    numpy reduces along a short trailing axis several times slower than along a leading
    one (losses.py), so the classes lead: the maximum, then the highest rank C - c among
    the classes equal to it. A NaN maximum equals no class, so its column takes the
    highest rank among its NaNs."""
    c = scores.shape[-2]
    rank = _class_ranks(c)
    top = np.maximum.reduce(scores, axis=-2, keepdims=True)
    hit = np.maximum.reduce((scores == top) * rank, axis=-2)
    if not hit.all():  # a NaN column has no rank
        hit = np.maximum(hit, np.maximum.reduce(np.isnan(scores) * rank, axis=-2))
    return np.subtract(c, hit, dtype=np.intp)


def ensemble_vote_counts(ensemble: np.ndarray, rows, ties: np.ndarray) -> np.ndarray:
    """(n, C) votes per class for (n, D) rows: each sub-model casts its winning
    class (_class_winners), mapped through ties = tie_table(ensemble), so each
    row's counts sum to T.

    All T sub-models score the rows in one matrix product against the
    (D, C*T) matrix of their parameters, giving (n, C, T) scores; that reshape
    is free for the (D, C, T) memory of the subsample-and-aggregate fit and
    copies any other layout once per call. BLAS scores one row with a
    matrix-vector product and a batch with a matrix-matrix product, and the two
    can round a sub-model's equal columns apart differently. Each winner is
    therefore mapped to the lowest class of its tie group, so equal columns tie
    exactly and a batch answers as its rows would one by one.
    """
    rows = np.asarray(rows, dtype=np.float64)
    t, d, c = ensemble.shape
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ValueError(f"rows must have shape (n, {d}), got {rows.shape}")
    n = rows.shape[0]
    weights = ensemble.transpose(1, 2, 0).reshape(d, c * t)
    winners = _class_winners((rows @ weights).reshape(n, c, t))  # (n, t)
    winners += _tie_offsets(t, c)  # flat indices into ties
    votes = ties.take(winners)
    votes += np.arange(0, n * c, c)[:, None]  # each row's votes into its own C bins
    return np.bincount(votes.ravel(), minlength=n * c).reshape(n, c)


def vote_distribution(counts, beta: float) -> np.ndarray:
    """Exponential-mechanism label distribution: proportional to exp(beta * counts),
    a max-shifted softmax with no finiteness check, since vote counts are integers."""
    scores = beta * np.asarray(counts, dtype=np.float64)
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _vote_labels(predictor: PrivatePredictor, rows: np.ndarray) -> np.ndarray:
    """(k,) sampled labels for (k, D) rows, or one label for a (D,) vector.

    Inverse-CDF sampling with one uniform per row, in row order: the same
    arithmetic and draws as rng.choice(C, p=probs) called row by row. Family
    "none" answers the plurality vote (the first class of maximum count, so ties go
    to the lowest class), drawing nothing.
    Rows are counted by ensemble_vote_counts. A vector's winners come from argmax on
    its matrix-vector product as (C, T) scores: one numpy call, the same first maximum
    or first NaN as the batch's _class_winners. Its counts are the winners mapped
    through ties and bincounted, and its label is a binary search of _vote_cdf.
    """
    ensemble, ties, calibration = predictor.ensemble, predictor.ties, predictor.calibration
    if rows.ndim == 2:
        counts = ensemble_vote_counts(ensemble, rows, ties)
        if calibration.family == "none":
            return _class_winners(counts.T)
        cdf = np.add.accumulate(vote_distribution(counts, calibration.scale), axis=1)
        cdf /= cdf[:, -1:]
        uniforms = predictor.rng.random(rows.shape[0])
        return np.add.reduce(cdf <= uniforms[:, None], axis=1)
    t, d, c = ensemble.shape
    scores = rows @ ensemble.transpose(1, 2, 0).reshape(d, c * t)
    winners = scores.reshape(c, t).argmax(axis=0)
    winners += _tie_offsets(t, c)
    counts = np.bincount(ties.take(winners), minlength=c)
    if calibration.family == "none":
        return counts.argmax()
    # The CDF does not decrease, so the entries <= the uniform are a prefix: counting
    # them is a binary search.
    return bisect.bisect_right(_vote_cdf(counts.tolist(), calibration.scale),
                               predictor.rng.random())


def _vote_cdf(counts: list, beta: float) -> list:
    """The vote CDF of C integer counts at inverse temperature beta, as C floats equal bit
    for bit to np.add.accumulate(vote_distribution(counts, beta)) divided by its last entry.

    At C of ten, numpy's per-call cost outweighs its arithmetic, so this takes one np.exp
    (whose rounding Python's math.exp need not share) and numpy's pairwise sum of the
    exponentials; every other step is one IEEE product, difference or quotient per entry,
    or the sequential running sum that add.accumulate makes. Rounding is monotone and
    beta > 0, so beta times the largest count is the largest score."""
    top = beta * max(counts)
    weights = np.exp([beta * count - top for count in counts])
    total = float(np.add.reduce(weights))
    cdf = list(itertools.accumulate([weight / total for weight in weights.tolist()]))
    last = cdf[-1]
    return [value / last for value in cdf]


# ---------------------------------------------------------------------------
# The kind table, dispatch and batch scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """calibrations: the (delta = 0, delta > 0) rules (spec, dims) -> Calibration, None for a
    regime the kind lacks; dims is the data's ProblemDims, or None at lam = 0. This pair alone
    decides the regime; the accounting formulas do not check it. Lambdas read the accounting
    functions off this module when called, where perfbench's tracer patches them.
    fit(data, spec, minimiser, calibration, rng) -> the predictor's params array ("theta" or
    "ensemble"), minimiser being solve(data, spec) if uses_minimiser, else None.

    answer(predictor, rows) -> (k, C) logits or (k,) labels for validated, paid-for (k, D)
    rows. A prediction-side answer also takes predict's one (D,) vector x, the one-row path
    that skips the (k, D) batch machinery: it returns (C,) logits or a label equal bit for bit
    to the first answer for the row x[None], and leaves rng where the batch leaves it."""

    fit: Callable
    answer: Callable
    calibrations: tuple[Callable | None, Callable | None]
    params: str = "theta"
    prediction_side: bool = False
    uses_minimiser: bool = False


KINDS: dict[str, Kind] = {
    "nonprivate": Kind(_fit_output_perturbation, _released_logits,
                       (lambda s, d: Calibration(),) * 2, uses_minimiser=True),
    "model_sensitivity": Kind(_fit_output_perturbation, _released_logits, (
        lambda s, d: Calibration("radial_exponential", model_sensitivity_beta(d, s.privacy)),
        lambda s, d: Calibration("gaussian", gaussian_model_sigma(d, s.privacy))),
        uses_minimiser=True),
    "loss_perturbation": Kind(_fit_loss_perturbation, _released_logits, (
        lambda s, d: Calibration("radial_exponential", *loss_perturbation_params(d, s.privacy)),
        lambda s, d: Calibration("gaussian", gaussian_loss_sigma(d, s.privacy),
                                 loss_perturbation_rho(d, s.privacy)))),
    "dpsgd": Kind(_fit_dpsgd, _released_logits, (None, lambda s, d: Calibration(
        "gaussian", dpsgd_sigma_for_target(s.privacy, s.dpsgd)))),
    "prediction_sensitivity": Kind(_fit_prediction_sensitivity, _noisy_logits, (
        lambda s, d: Calibration("radial_exponential", prediction_sensitivity_beta(d, s.privacy)),
        lambda s, d: Calibration("gaussian", gaussian_prediction_sigma(d, s.privacy))),
        prediction_side=True, uses_minimiser=True),
    "subsample_aggregate": Kind(_fit_subsample_ensemble, _vote_labels, (
        lambda s, d: Calibration("exponential_mechanism", subsample_beta(s.privacy)),) * 2,
        params="ensemble", prediction_side=True),
}


def privatise(data: LabeledDataset, spec: MechanismSpec, minimiser,
              calibration: Calibration, rng) -> PrivatePredictor:
    """spec.kind's fit, given rng, wrapped in its predictor; a prediction-side predictor
    also gets a budget of spec.privacy.budget and keeps rng for its per-query noise. Only
    the fit draws from rng, and only once the kind's parameters can apply calibration."""
    kind, rng = KINDS[spec.kind], as_generator(rng)
    _check_family(kind.params, calibration.family)
    params = {kind.params: kind.fit(data, spec, minimiser, calibration, rng)}
    if kind.prediction_side:
        params.update(budget=BudgetState(spec.privacy.budget), rng=rng)
    return PrivatePredictor(spec.kind, spec.privacy, calibration, **params)


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
    """Write predictor to path, atomically: the archive goes to a new file
    beside path, which then replaces path. A save that fails (a full disk, an
    interrupt) leaves the file that was there, with its budget and rng
    records, as it was."""
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
    # A handle writes exactly the named file; np.savez would add ".npz" to a bare path.
    temporary = f"{os.fspath(path)}.{secrets.token_hex(8)}.tmp"
    try:
        with open(temporary, "xb") as handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())  # the data is on disk before the name points at it
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise


def load_predictor(path) -> PrivatePredictor:
    """The predictor save_predictor wrote; ValueError for a file without its
    kind or privacy records (epsilon, delta, spec_budget), of an unknown kind,
    with a malformed calibration record (or one its parameters cannot apply) or
    none (the older layout of three noise fields, whose training-side files did
    not record their noise), without its kind's finite parameters (the 3-D
    ensemble or the 2-D theta), prediction-side without its budget and rng
    records, or with a privacy, budget or rng record its owner refuses.

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
        name = KINDS[kind].params
        try:
            calibration = Calibration(**json.loads(str(archive["calibration"])))
            _check_family(name, calibration.family)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed calibration record: {exc}") from exc
        ndim = 3 if name == "ensemble" else 2
        params = archive.get(name)
        if (params is None or params.dtype.kind != "f" or params.ndim != ndim
                or not np.isfinite(params).all()):
            raise ValueError(f"{path}: a {kind} predictor needs a finite {ndim}-D {name} array")
        prediction_side = KINDS[kind].prediction_side
        if prediction_side and not {"budget_total", "budget_used", "rng_state"} <= set(archive):
            raise ValueError(f"{path}: a {kind} predictor needs its budget and rng records")
        try:  # the stored scalars as saved, so a fractional count is refused, not truncated
            privacy = PrivacySpec(epsilon=archive["epsilon"].item(), delta=archive["delta"].item(),
                                  budget=archive["spec_budget"].item())
            budget = rng = None
            if prediction_side:
                budget = BudgetState(archive["budget_total"].item(), archive["budget_used"].item())
                rng = np.random.default_rng()
                rng.bit_generator.state = json.loads(str(archive["rng_state"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed privacy, budget or rng record: {exc}") from exc
        if name == "ensemble":
            params = _feature_major(params)
        return PrivatePredictor(kind, privacy, calibration, budget=budget, rng=rng,
                                **{name: params})
