"""Fast invariant suites behind the `verify` CLI subcommand: loss-constant
bounds, calibration tightness, DP-SGD accountant tightness, the DP-SGD batch
sampler, sampler sanity, budget enforcement, exact ensemble vote ties, and the
empirical minimizer-sensitivity bound."""

from __future__ import annotations

import math

import numpy as np

from .accounting import (
    BudgetExhaustedError,
    BudgetState,
    DpSgdConfig,
    PrivacySpec,
    ProblemDims,
    _gaussian_delta,
    calibrate_gaussian_sigma,
    dpsgd_epsilon,
    dpsgd_sigma_for_target,
    minimizer_sensitivity,
)
from .data import LabeledDataset, synth_blobs
from .losses import HESSIAN_EIG_BOUND, LIPSCHITZ_K, mc_logistic_hessian, regularized_objective
from .mechanisms import MechanismSpec, ensemble_vote_counts, fit_predictor, poisson_batches
from .noise import RngStream, sample_gaussian, sample_radial_exponential
from .trainer import TrainConfig, minimize_erm


def check_loss_bounds(n_samples: int = 20000, seed: int = 0):
    """Gradient norms stay under sqrt(2), Hessian eigenvalues under 1/2."""
    rng = RngStream(seed).generator()
    worst_grad, worst_eig = 0.0, 0.0
    for c in range(2, 11):
        logits = rng.normal(scale=5.0, size=(n_samples // 9, c))
        labels = np.eye(c)[rng.integers(0, c, logits.shape[0])]
        # One feature: the model's parameters are the logits, its gradients p - y.
        _, grads, _ = regularized_objective(logits[:, None, :], np.ones((len(logits), 1, 1)),
                                            labels[:, :, None], 0.0)
        grad_norms = np.linalg.norm(grads[:, 0, :], axis=1)
        eigs = np.linalg.eigvalsh(mc_logistic_hessian(logits))
        worst_grad = max(worst_grad, float(grad_norms.max()))
        worst_eig = max(worst_eig, float(eigs.max()))
    ok = worst_grad <= LIPSCHITZ_K + 1e-9 and worst_eig <= HESSIAN_EIG_BOUND + 1e-9
    return ok, f"max ||grad|| = {worst_grad:.12f}, max eig = {worst_eig:.12f}"


def check_calibration_tightness():
    """Gaussian sigma meets the exact inequality even with the float rounding
    of delta added; at 0.99 sigma it fails even with the rounding taken off.
    The grid adds the per-query corner eps = 1e-3, delta = 1e-8 of a large
    budget."""
    grid = [(eps, delta) for eps in (0.1, 1.0, 5.0) for delta in (1e-6, 1e-3, 0.3)]
    worst_slack = -math.inf
    for eps, delta in grid + [(1e-3, 1e-8)]:
        sigma = calibrate_gaussian_sigma(1.0, eps, delta)
        value, rounding = _gaussian_delta(1.0 / sigma, eps)
        at = value + rounding
        value, rounding = _gaussian_delta(1.0 / (0.99 * sigma), eps)
        if at > delta or value - rounding <= delta:
            return False, f"calibration loose at eps={eps}, delta={delta}"
        worst_slack = max(worst_slack, at - delta)
    return True, f"tight on the 3x3 grid and the corner (max slack {worst_slack:.2e})"


def check_dpsgd_accountant():
    """DP-SGD sigma meets its epsilon by forward accounting; 0.999 sigma breaks it."""
    n_train, n_steps, delta = 1000, 100, 1e-5
    worst_at, least_below = 0.0, math.inf
    for eps in (0.5, 1.0, 4.0):
        for batch in (10, 100, n_train):
            cfg = DpSgdConfig.for_dataset(n_train, batch, n_steps, clip=1.0)
            sigma = dpsgd_sigma_for_target(PrivacySpec(eps, delta), cfg)
            at = dpsgd_epsilon(sigma, cfg, delta)
            below = dpsgd_epsilon(0.999 * sigma, cfg, delta)
            if at > eps or below <= eps:
                return False, f"accountant loose at eps={eps}, q={cfg.sample_rate}"
            worst_at, least_below = max(worst_at, at / eps), min(least_below, below / eps)
    return True, (f"tight on the 3x3 grid (spent/target {worst_at:.12f} at sigma, "
                  f">= {least_below:.6f} at 0.999 sigma)")


def check_dpsgd_sampler(seed: int = 4):
    """Poisson batch sizes have the Binomial(N, q) mean Nq and variance Nq(1 - q)."""
    n, q, steps = 1000, 0.05, 5000
    sizes = np.concatenate([np.diff(bounds) for _, bounds in
                            poisson_batches(n, q, steps, RngStream(seed))])
    var = n * q * (1 - q)
    mu4 = var * (1 + 3 * (n - 2) * q * (1 - q))
    ok = (abs(sizes.mean() - n * q) < 5 * math.sqrt(var / steps)
          and abs(sizes.var(ddof=1) - var) < 5 * math.sqrt((mu4 - var**2) / steps))
    return ok, (f"batch size mean {sizes.mean():.3f} (target {n * q:g}), "
                f"variance {sizes.var(ddof=1):.3f} (target {var:g})")


def check_samplers(seed: int = 1):
    """Radial norms have the Gamma mean n/beta; Gaussian entries have variance sigma^2."""
    rng = RngStream(seed).generator()
    n, beta, draws = 12, 2.0, 4000
    norms = np.array([
        np.linalg.norm(sample_radial_exponential((4, 3), beta, rng)) for _ in range(draws)
    ])
    gamma_mean, gamma_se = n / beta, math.sqrt(n) / beta / math.sqrt(draws)
    ok_radial = abs(norms.mean() - gamma_mean) < 5 * gamma_se

    sigma = 1.7
    entries = np.concatenate([
        sample_gaussian((50, 20), sigma, rng).ravel() for _ in range(20)
    ])
    var = entries.var()
    ok_gauss = abs(var - sigma**2) < 5 * sigma**2 * math.sqrt(2.0 / entries.size)
    ok = ok_radial and ok_gauss
    return ok, f"radial mean {norms.mean():.3f} (target {gamma_mean}), gaussian var {var:.3f}"


def check_budget(seed: int = 2):
    """Exactly B answers, then refusals that leave the counter at B."""
    data = synth_blobs(30, 3, 5, 3.0, RngStream(seed))
    budget = 4
    spec = MechanismSpec(kind="prediction_sensitivity",
                         privacy=PrivacySpec(1.0, 0.0, budget), lam=0.1)
    predictor = fit_predictor(data, spec, RngStream(seed, 1))
    for _ in range(budget):
        predictor.predict(data.features[0])
    refused = 0
    for _ in range(3):
        try:
            predictor.predict(data.features[0])
        except BudgetExhaustedError:
            refused += 1
    ok = refused == 3 and predictor.budget.used == budget
    return ok, f"{budget} answered, {refused}/3 refused, counter at {predictor.budget.used}"


def check_vote_ties(seed: int = 5):
    """A batch votes as its rows do one by one. T = 33 sub-models of ~5 rows
    over C = 10 classes leave several classes unseen, whose equal columns this
    BLAS build's matrix-matrix product may round apart from its matrix-vector
    product; the tie table must keep every such tie exact."""
    t, c = 33, 10
    data = synth_blobs(17, c, 20, 1.0, RngStream(seed))
    spec = MechanismSpec(kind="subsample_aggregate", privacy=PrivacySpec(1.0, 0.0, 1),
                         lam=0.1, n_models=t)
    predictor = fit_predictor(data, spec, RngStream(seed, 1))
    ensemble, ties, rows = predictor.ensemble, predictor.ties, data.features

    def votes(size):
        return np.concatenate([ensemble_vote_counts(ensemble, rows[i:i + size], ties)
                               for i in range(0, len(rows), size)])

    single = votes(1)
    differing = max(int((votes(size) != single).any(axis=1).sum()) for size in (7, len(rows)))
    tied = int((ties != np.arange(c)).any(axis=1).sum())
    ok = tied > 0 and differing == 0
    return ok, (f"{differing} of {len(rows)} rows differ between batch and one by one; "
                f"{tied} of {t} sub-models hold tied classes")


def check_sensitivity(pairs: int = 10, seed: int = 3):
    """Trained minimizers of neighboring datasets move less than 2K/(N lam)."""
    n, d, c, lam = 100, 10, 3, 0.1
    bound = minimizer_sensitivity(ProblemDims(n, lam, c))
    rng = RngStream(seed).generator()
    base = synth_blobs(n // c + 1, c, d, 2.0, RngStream(seed, 1))
    features, labels = base.features[:n].copy(), base.labels[:n].copy()
    cfg = TrainConfig(lam=lam, grad_tolerance=1e-10)
    worst = 0.0
    for _ in range(pairs):
        theta_a = minimize_erm(LabeledDataset(features, labels), cfg)
        swapped_f, swapped_l = features.copy(), labels.copy()
        row = rng.integers(0, n)
        repl = rng.standard_normal(d)
        swapped_f[row] = repl / max(1.0, np.linalg.norm(repl))
        swapped_l[row] = np.eye(c)[rng.integers(0, c)]
        theta_b = minimize_erm(LabeledDataset(swapped_f, swapped_l), cfg)
        worst = max(worst, float(np.linalg.norm(theta_a - theta_b)))
        features, labels = swapped_f, swapped_l
    ok = worst <= bound * (1 + 1e-3)
    return ok, f"worst movement {worst:.6f} vs bound {bound:.6f}"


SUITES = (
    ("loss-constant bounds", check_loss_bounds),
    ("calibration tightness", check_calibration_tightness),
    ("DP-SGD accountant", check_dpsgd_accountant),
    ("DP-SGD sampler", check_dpsgd_sampler),
    ("noise samplers", check_samplers),
    ("budget enforcement", check_budget),
    ("vote ties", check_vote_ties),
    ("empirical sensitivity", check_sensitivity),
)


def run_verification(print_fn=print) -> bool:
    all_ok = True
    for name, suite in SUITES:
        ok, detail = suite()
        all_ok &= ok
        print_fn(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
