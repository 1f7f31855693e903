"""Noise-scale calibrations, composition accounting, and budget tracking.

Every noise-scale formula in the toolkit lives here: the closed-form beta/sigma formulas
for the sensitivity and perturbation mechanisms, the exact Gaussian calibration, the
advanced-composition search for per-query Gaussian noise, the vote inverse temperature
for ensemble aggregation, and the Renyi accountant behind DP-SGD, which evaluates its
whole curve (every order of RDP_ORDERS) in one call. Each row of mechanisms.KINDS picks
its kind's formula for delta = 0 and for delta > 0, and that table alone decides the
regime: a formula checks only the inputs it reads. A pure formula does not read delta; a
Gaussian one refuses delta = 0 with its own domain ValueError. Every searched sigma comes
from one bisection (_bisect) over an exact, monotone condition: the Gaussian delta curve
or the Renyi accountant's epsilon. The advanced-composition search bisects only the
delta' splits that can beat the best sigma found so far, so it returns the full scan's
minimum at a fraction of its cost. The accountant's log-sum-exp repeats scipy 1.17's
arithmetic in plain numpy, so its sigma does not depend on the installed scipy's logsumexp.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .data import is_number
from .losses import HESSIAN_EIG_BOUND, LIPSCHITZ_K


class WrongVariantError(ValueError):
    """A mechanism kind was run at a delta regime its KINDS row has no rule for."""


class CalibrationError(RuntimeError):
    """A calibration search failed to converge."""


class InfeasibleTargetError(CalibrationError):
    """No noise scale in the search range meets the privacy target."""


class BudgetExhaustedError(RuntimeError):
    """The inference budget is spent; the query was refused, not answered."""


@dataclass(frozen=True)
class PrivacySpec:
    """Privacy target (epsilon, delta) and the inference budget it covers."""

    epsilon: float
    delta: float = 0.0
    budget: int = 1

    def __post_init__(self):
        if not (is_number(self.epsilon) and 0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (is_number(self.delta) and 0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        if not is_number(self.budget, numbers.Integral) or self.budget < 1:
            raise ValueError(f"budget must be an integer at least 1, got {self.budget!r}")


@dataclass(frozen=True)
class ProblemDims:
    """Training-problem constants the calibration formulas depend on."""

    n_train: int
    lam: float
    n_classes: int

    def __post_init__(self):
        for name in ("n_train", "lam", "n_classes"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not math.isfinite(minimizer_sensitivity(self)):
            raise ValueError(f"2K / (n_train lam) must be finite; n_train {self.n_train}, "
                             f"lam {self.lam}")


@dataclass(frozen=True)
class DpSgdConfig:
    """Knobs of the private SGD loop. Each row joins each step independently
    with probability sample_rate, so the expected batch size is sample_rate * N;
    for_dataset builds the config from N and that expected batch size."""

    clip: float
    n_steps: int
    sample_rate: float
    learning_rate: float = 1.0

    def __post_init__(self):
        if not (is_number(self.clip) and 0 < self.clip < math.inf):
            raise ValueError(f"clip must be positive and finite, got {self.clip}")
        if not is_number(self.n_steps, numbers.Integral) or self.n_steps < 1:
            raise ValueError(f"n_steps must be an integer at least 1, got {self.n_steps!r}")
        if not (is_number(self.sample_rate) and 0.0 < self.sample_rate <= 1.0):
            raise ValueError(f"sample_rate must lie in (0, 1], got {self.sample_rate}")
        if not (is_number(self.learning_rate) and 0 < self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")

    @classmethod
    def for_dataset(cls, n_train: int, batch_size: int, n_steps: int, clip: float,
                    learning_rate: float = 1.0) -> "DpSgdConfig":
        return cls(clip=clip, n_steps=n_steps, sample_rate=batch_size / n_train,
                   learning_rate=learning_rate)


# Integer Renyi orders the DP-SGD accountant optimizes over.
RDP_ORDERS = tuple(range(2, 65))


# ---------------------------------------------------------------------------
# Bisection and the exact Gaussian calibration
# ---------------------------------------------------------------------------

_SEARCH_ITERATIONS = 80
_SQRT_HALF = math.sqrt(0.5)


def _bisect(meets, lo: float, hi: float) -> float:
    """Smallest float in (lo, hi] where the monotone predicate `meets` holds.

    `hi` always meets and `lo` never does, so once no float lies strictly
    between them neither can move again, and the search stops there."""
    for _ in range(_SEARCH_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _gaussian_delta(ratio: float, epsilon: float) -> tuple[float, float]:
    """delta(ratio) and a bound on its float rounding. The two terms nearly
    cancel at small eps and delta; Phi(x) = erfc(-x / sqrt 2) / 2 is within
    (5 + 3x^2) ulps (measured against mpmath), and rounding x adds as much."""
    b = -0.5 * ratio - epsilon / ratio
    upper = 0.5 * math.erfc((epsilon / ratio - 0.5 * ratio) * _SQRT_HALF)
    lower = 0.5 * math.exp(epsilon) * math.erfc(-b * _SQRT_HALF)
    return upper - lower, (10.0 + 6.0 * b * b) * 2.0**-53 * (upper + lower)


def gaussian_mechanism_delta(sensitivity: float, sigma: float, epsilon: float) -> float:
    """Exact privacy failure probability of the Gaussian mechanism, up to
    float rounding.

    Phi(D/(2s) - eps*s/D) - e^eps * Phi(-D/(2s) - eps*s/D), where D is the L2
    sensitivity. The mechanism is (epsilon, delta)-DP iff this value is <= delta.
    The two terms nearly cancel at small eps and delta, so the float can read
    below the exact value; a check against delta adds _gaussian_delta's
    rounding bound, as calibrate_gaussian_sigma does.
    """
    if not (sensitivity > 0 and sigma > 0 and epsilon > 0):
        raise ValueError("sensitivity, sigma, and epsilon must be positive")
    return _gaussian_delta(sensitivity / sigma, epsilon)[0]


def _gaussian_meets(sensitivity: float, epsilon: float, delta: float):
    """The exact condition "sigma is (epsilon, delta)-DP at this sensitivity",
    float rounding added, as a predicate of sigma; false below its threshold."""

    def meets(sigma):
        value, rounding = _gaussian_delta(sensitivity / sigma, epsilon)
        return value + rounding <= delta

    return meets


def calibrate_gaussian_sigma(sensitivity: float, epsilon: float, delta: float) -> float:
    """Smallest sigma making the Gaussian mechanism (epsilon, delta)-DP.

    Bisects sigma on the exact condition gaussian_mechanism_delta <= delta
    (Balle & Wang 2018), whose left side falls as sigma grows, in a bracket
    that starts at sigma = sensitivity and doubles or halves. The condition
    must hold with its float rounding added, so sigma meets delta exactly too.
    """
    if not (0 < sensitivity < math.inf and epsilon > 0 and 0.0 < delta < 1.0):
        raise ValueError("sensitivity must be positive and finite, epsilon positive and "
                         f"delta in (0, 1); got {sensitivity}, {epsilon}, {delta}")
    meets = _gaussian_meets(sensitivity, epsilon, delta)
    hi = sensitivity
    while not meets(hi):
        hi *= 2.0
    lo = 0.5 * hi
    while meets(lo):
        hi, lo = lo, 0.5 * lo
    return _bisect(meets, lo, hi)


# ---------------------------------------------------------------------------
# Training-side calibrations
# ---------------------------------------------------------------------------

def minimizer_sensitivity(dims: ProblemDims) -> float:
    """Worst-case Frobenius movement of the regularized minimizer: 2K / (N lam)."""
    return 2.0 * LIPSCHITZ_K / (dims.n_train * dims.lam)


def model_sensitivity_beta(dims: ProblemDims, spec: PrivacySpec) -> float:
    """Noise rate for parameter perturbation: N lam eps / (2K). It is (eps, 0)-DP,
    so (eps, delta)-DP for every delta, and does not read delta."""
    return dims.n_train * dims.lam * spec.epsilon / (2.0 * LIPSCHITZ_K)


def gaussian_model_sigma(dims: ProblemDims, spec: PrivacySpec) -> float:
    """Gaussian parameter-perturbation scale, exact at sensitivity 2K / (N lam)."""
    return calibrate_gaussian_sigma(minimizer_sensitivity(dims), spec.epsilon, spec.delta)


def loss_perturbation_rho(dims: ProblemDims, spec: PrivacySpec) -> float:
    """Extra ridge coefficient 2 L C / eps (the minimum the guarantee permits)."""
    return 2.0 * HESSIAN_EIG_BOUND * dims.n_classes / spec.epsilon


def loss_perturbation_params(dims: ProblemDims, spec: PrivacySpec) -> tuple[float, float]:
    """(beta, rho) for objective perturbation: eps/(2K) and 2LC/eps. They are (eps, 0)-DP,
    so (eps, delta)-DP for every delta, and do not read delta."""
    return spec.epsilon / (2.0 * LIPSCHITZ_K), loss_perturbation_rho(dims, spec)


def gaussian_loss_sigma(dims: ProblemDims, spec: PrivacySpec) -> float:
    """Gaussian objective-perturbation scale: (K/eps) sqrt(8 ln(2/delta) + 4 eps)."""
    if not spec.delta > 0.0:
        raise ValueError(f"delta must lie in (0, 1); got {spec.delta}")
    return LIPSCHITZ_K / spec.epsilon * math.sqrt(
        8.0 * math.log(2.0 / spec.delta) + 4.0 * spec.epsilon)


# ---------------------------------------------------------------------------
# Prediction-side calibrations
# ---------------------------------------------------------------------------

def prediction_sensitivity_beta(dims: ProblemDims, spec: PrivacySpec) -> float:
    """Per-query logit-noise rate: N lam eps / (2 K B). B answers at this rate are
    (eps, 0)-DP, so (eps, delta)-DP for every delta; it does not read delta."""
    return dims.n_train * dims.lam * spec.epsilon / (2.0 * LIPSCHITZ_K * spec.budget)


# Resolution of the linear search over the composition split delta'.
_DELTA_SPLIT_GRID = 200


def _advanced_composition_epsilon(epsilon: float, budget: int, delta: float) -> float:
    """The advanced-composition rate sqrt(2/B) (sqrt(ln(1/delta) + eps) - sqrt(ln(1/delta)))."""
    log_term = math.log(1.0 / delta)
    return math.sqrt(2.0 / budget) * (math.sqrt(log_term + epsilon) - math.sqrt(log_term))


def gaussian_prediction_sigma(dims: ProblemDims, spec: PrivacySpec) -> float:
    """Per-query Gaussian logit-noise scale for a budget of B queries.

    Two candidates are calibrated against the minimizer sensitivity 2K/(N lam)
    and the smaller wins:

    * sigma' spends the budget by standard composition, i.e. per-query targets
      (eps/B, delta/B);
    * sigma'' uses advanced composition: for a split delta' in (0, delta), the
      per-query targets are eps* = _advanced_composition_epsilon(eps, B,
      delta') and delta* = (delta - delta')/B, and delta' is linearly
      searched on a geometric grid to minimize sigma''. A split whose eps*
      rounds to 0 (eps tiny against ln(1/delta')) offers no sigma and is skipped.

    The search is pruned, not approximated. A split's sigma is the smallest
    sigma meeting its condition, which holds at every larger sigma, so the split
    beats the best sigma so far only if its condition holds at the float just
    below that best; only such splits are bisected. The walk starts from sigma'
    at the grid's high end, where the minimum lies in practice, so a few
    bisections replace one per split, and the result is the full scan's minimum.

    With B = 1 the advanced-composition interval is empty and sigma' is
    returned unchanged.
    """
    sensitivity = minimizer_sensitivity(dims)
    b = spec.budget

    best = calibrate_gaussian_sigma(sensitivity, spec.epsilon / b, spec.delta / b)

    lo, hi = spec.delta * 1e-6, spec.delta * (1.0 - 1.0 / b)
    if not hi > lo:
        return best

    for delta_split in np.geomspace(lo, hi, _DELTA_SPLIT_GRID)[::-1]:
        eps_star = _advanced_composition_epsilon(spec.epsilon, b, delta_split)
        if not eps_star > 0.0:
            continue
        delta_star = (spec.delta - delta_split) / b
        if _gaussian_meets(sensitivity, eps_star, delta_star)(math.nextafter(best, 0.0)):
            best = min(best, calibrate_gaussian_sigma(sensitivity, eps_star, delta_star))
    return best


def subsample_beta(spec: PrivacySpec) -> float:
    """Vote inverse temperature for the aggregated ensemble.

    delta = 0 composes linearly (eps/B); delta > 0 may instead use the
    advanced-composition rate _advanced_composition_epsilon(eps, B, delta),
    keeping whichever is larger (less noisy).
    """
    beta_linear = spec.epsilon / spec.budget
    if spec.delta == 0.0:
        return beta_linear
    beta_advanced = _advanced_composition_epsilon(spec.epsilon, spec.budget, spec.delta)
    return max(beta_linear, beta_advanced)


# ---------------------------------------------------------------------------
# Renyi accountant for DP-SGD
# ---------------------------------------------------------------------------

# The orders as floats, and the binomial-expansion index k = 0 .. max order.
_ORDERS = np.array(RDP_ORDERS, dtype=np.float64)
_KS = np.arange(RDP_ORDERS[-1] + 1)


def _log_binomial_table() -> np.ndarray:
    """log C(a, k) with row a - 2 for each order a in RDP_ORDERS; -inf where k > a."""
    a = _ORDERS[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        table = gammaln(a + 1) - gammaln(_KS + 1) - gammaln(a - _KS + 1)
    return np.where(_KS <= a, table, -np.inf)


_LOG_BINOMIAL = _log_binomial_table()
_KS_PAIRS = _KS * _KS - _KS  # k^2 - k, the exponent's numerator


@functools.lru_cache(maxsize=64)
def _log_terms_at_rate(q: float) -> np.ndarray:
    """log C(a, k) + (a - k) log(1 - q) + k log q for every order a and index k: the
    sigma-free part of rdp_subsampled_gaussian's log terms, summed in its left-to-right
    order, once per sample rate. Read-only, because every call at q shares it."""
    terms = _LOG_BINOMIAL + (_ORDERS[:, None] - _KS) * math.log1p(-q) + _KS * math.log(q)
    terms.flags.writeable = False
    return terms


def rdp_subsampled_gaussian(q: float, sigma: float) -> np.ndarray:
    """Renyi divergence bound of one subsampled Gaussian step at every order of
    RDP_ORDERS: the whole curve, as a (len(RDP_ORDERS),) array.

    For q = 1 the bound is the exact Gaussian value a / (2 sigma^2). For
    q < 1 it is the binomial-expansion bound

        log( sum_k C(a,k) (1-q)^(a-k) q^k exp((k^2 - k)/(2 sigma^2)) ) / (a-1),

    accumulated in log space for numerical stability, all orders in one pass
    over the precomputed table of log C(a, k). The sigma-free terms come from
    a per-q cache (_log_terms_at_rate), so a bisection over sigma at one
    sample rate builds them once; adding the sigma term last keeps the
    left-to-right sum of the uncached formula. The log-sum-exp repeats the
    real-input arithmetic of scipy 1.17's logsumexp (each row's maxima are
    counted and kept out of the shifted sum), so the curve, and every sigma
    searched on it, does not depend on the installed scipy. The exact sum is
    >= 1, so the bound is >= 0; values that round below zero (tiny q, large
    sigma) are clamped to 0.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if q == 1.0:
        return _ORDERS / (2.0 * sigma * sigma)
    log_terms = _log_terms_at_rate(q) + _KS_PAIRS / (2.0 * sigma * sigma)
    top = log_terms.max(axis=1, keepdims=True)
    tied = log_terms == top
    rest = np.exp(np.where(tied, -np.inf, log_terms) - top).sum(axis=1)
    ties = tied.sum(axis=1)
    log_sum = np.log1p(rest / ties) + np.log(ties) + top[:, 0]
    return np.maximum(log_sum / (_ORDERS - 1), 0.0)


def dpsgd_epsilon(sigma: float, cfg: DpSgdConfig, delta: float) -> float:
    """Forward accounting: epsilon spent by n_steps subsampled Gaussian steps, the
    minimum over the whole Renyi curve of n_steps * rdp(a) + log(1/delta) / (a - 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    rdp = cfg.n_steps * rdp_subsampled_gaussian(cfg.sample_rate, sigma)
    return float((rdp + math.log(1.0 / delta) / (_ORDERS - 1)).min())


_SIGMA_LO = 0.01
_SIGMA_HI = 1e4


def dpsgd_sigma_for_target(spec: PrivacySpec, cfg: DpSgdConfig) -> float:
    """Smallest noise multiplier in [0.01, 1e4] whose accounted epsilon
    (dpsgd_epsilon, decreasing in sigma) meets the target, by bisection."""
    def meets(sigma):
        return dpsgd_epsilon(sigma, cfg, spec.delta) <= spec.epsilon

    if not meets(_SIGMA_HI):
        raise InfeasibleTargetError(
            f"epsilon = {spec.epsilon} unreachable with sigma <= {_SIGMA_HI} "
            f"(accounted epsilon {dpsgd_epsilon(_SIGMA_HI, cfg, spec.delta):.4g})")
    if meets(_SIGMA_LO):
        return _SIGMA_LO
    return _bisect(meets, _SIGMA_LO, _SIGMA_HI)


# ---------------------------------------------------------------------------
# Budget tracking
# ---------------------------------------------------------------------------

class BudgetState:
    """Strict query counter: exactly `budget` units spent, then refusals.

    reserve(k) spends k units at once under the lock, all or nothing: if
    fewer than k remain it raises BudgetExhaustedError and leaves the
    counter untouched, so none of the k queries is answered. consume() is
    reserve(1), the spend of one single query. budget, used and k are integers.
    """

    def __init__(self, budget: int, used: int = 0):
        if not isinstance(budget, numbers.Integral) or budget < 1:
            raise ValueError(f"budget must be an integer at least 1, got {budget!r}")
        if not isinstance(used, numbers.Integral) or not 0 <= used <= budget:
            raise ValueError(f"used must be an integer in [0, {budget}], got {used!r}")
        self.budget = int(budget)
        self.used = int(used)
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int:
        return self.budget - self.used

    def reserve(self, k: int):
        if not isinstance(k, numbers.Integral) or k < 0:
            raise ValueError(f"can reserve only a nonnegative integer count, got {k!r}")
        self._spend(k)

    def consume(self):
        self._spend(1)  # reserve(1) without its check of k, on every single query

    def _spend(self, k: int):
        with self._lock:
            if self.used + k > self.budget:
                raise BudgetExhaustedError(
                    f"inference budget of {self.budget} queries is exhausted: "
                    f"{k} requested, {self.budget - self.used} left")
            self.used += k

    def __repr__(self):
        return f"BudgetState(budget={self.budget}, used={self.used})"
