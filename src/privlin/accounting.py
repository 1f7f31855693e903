"""Noise-scale calibrations, composition accounting, and budget tracking.

Every noise-scale formula in the toolkit lives here: the closed-form
beta/sigma formulas for the sensitivity and perturbation mechanisms, the
analytic Gaussian calibration, the advanced-composition search for per-query
Gaussian noise, the vote inverse temperature for ensemble aggregation, and
the Renyi accountant behind DP-SGD. mechanisms.calibrate picks the formula
each mechanism uses.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp, ndtr

from .losses import HESSIAN_EIG_BOUND, LIPSCHITZ_K


class WrongVariantError(ValueError):
    """A calibration was requested for the wrong delta regime."""


class CalibrationError(RuntimeError):
    """A calibration search failed to converge."""


class InfeasibleTargetError(CalibrationError):
    """No noise scale in the search range meets the privacy target."""


class UnsupportedOrderError(ValueError):
    """The Renyi accountant only supports the integer orders in RDP_ORDERS."""


class BudgetExhaustedError(RuntimeError):
    """The inference budget is spent; the query was refused, not answered."""


@dataclass(frozen=True)
class PrivacySpec:
    """Privacy target (epsilon, delta) and the inference budget it covers."""

    epsilon: float
    delta: float = 0.0
    budget: int = 1

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, got {self.budget}")


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


@dataclass(frozen=True)
class DpSgdConfig:
    """Knobs of the private SGD loop. batch_size is the expected batch size:
    each row joins each step independently with probability sample_rate,
    which must equal batch_size / N."""

    clip: float
    batch_size: int
    n_steps: int
    sample_rate: float
    learning_rate: float = 1.0

    def __post_init__(self):
        if not self.clip > 0:
            raise ValueError(f"clip must be positive, got {self.clip}")
        if self.batch_size < 1 or self.n_steps < 1:
            raise ValueError("batch_size and n_steps must be at least 1")
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError(f"sample_rate must lie in (0, 1], got {self.sample_rate}")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")

    @classmethod
    def for_dataset(cls, n_train: int, batch_size: int, n_steps: int, clip: float,
                    learning_rate: float = 1.0) -> "DpSgdConfig":
        return cls(clip=clip, batch_size=batch_size, n_steps=n_steps,
                   sample_rate=batch_size / n_train, learning_rate=learning_rate)


# Integer Renyi orders the DP-SGD accountant optimizes over.
RDP_ORDERS = tuple(range(2, 65))


@dataclass(frozen=True, eq=False)
class RdpCurve:
    """Renyi divergence bounds of one mechanism at a grid of orders."""

    orders: np.ndarray
    eps_at_order: np.ndarray

    def __post_init__(self):
        orders = np.asarray(self.orders, dtype=np.float64)
        eps_at_order = np.asarray(self.eps_at_order, dtype=np.float64)
        if orders.shape != eps_at_order.shape or orders.ndim != 1:
            raise ValueError("orders and eps_at_order must be 1-D and of equal length")
        if (orders <= 1).any():
            raise ValueError("Renyi orders must exceed 1")
        if (eps_at_order < 0).any():
            raise ValueError("Renyi bounds must be nonnegative")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "eps_at_order", eps_at_order)

    def compose(self, n_steps: int) -> "RdpCurve":
        return RdpCurve(self.orders, n_steps * self.eps_at_order)

    def to_dp(self, delta: float) -> tuple[float, int]:
        """Convert to (epsilon, delta)-DP; returns (epsilon, best order).

        Ties go to the smallest order.
        """
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        candidates = self.eps_at_order + math.log(1.0 / delta) / (self.orders - 1)
        best = candidates.min()
        return float(best), int(self.orders[candidates == best].min())


# ---------------------------------------------------------------------------
# Analytic Gaussian calibration
# ---------------------------------------------------------------------------

_SEARCH_ITERATIONS = 80
_SEARCH_HI = 1e12


def gaussian_mechanism_delta(sensitivity: float, sigma: float, epsilon: float) -> float:
    """Exact privacy failure probability of the Gaussian mechanism.

    Phi(D/(2s) - eps*s/D) - e^eps * Phi(-D/(2s) - eps*s/D), where D is the L2
    sensitivity. The mechanism is (epsilon, delta)-DP iff this value is <= delta.
    """
    if not (sensitivity > 0 and sigma > 0 and epsilon > 0):
        raise ValueError("sensitivity, sigma, and epsilon must be positive")
    ratio = sensitivity / sigma
    return float(ndtr(0.5 * ratio - epsilon / ratio)
                 - math.exp(epsilon) * ndtr(-0.5 * ratio - epsilon / ratio))


def analytic_gaussian_alpha(epsilon: float, delta: float) -> float:
    """Scale factor alpha of the analytic Gaussian mechanism.

    sigma = alpha * sensitivity / sqrt(2 * epsilon) is the smallest standard
    deviation for which the mechanism is (epsilon, delta)-DP. The threshold
    delta_0 = Phi(0) - e^eps Phi(-sqrt(2 eps)) picks between two monotone
    characteristic curves; each is inverted by bisection.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")

    delta0 = float(ndtr(0.0) - math.exp(epsilon) * ndtr(-math.sqrt(2.0 * epsilon)))
    if delta >= delta0:
        # B+(v) climbs from delta0 toward 1; v* is the largest v with B+ <= delta.
        def b_plus(v):
            return float(ndtr(math.sqrt(epsilon * v))
                         - math.exp(epsilon) * ndtr(-math.sqrt(epsilon * (v + 2.0))))

        lo, hi = 0.0, _SEARCH_HI
        if not b_plus(hi) > delta:
            raise CalibrationError("upper characteristic curve never exceeds delta")
        for _ in range(_SEARCH_ITERATIONS):
            mid = 0.5 * (lo + hi)
            if b_plus(mid) <= delta:
                lo = mid
            else:
                hi = mid
        v_star = lo
        # Equivalent to sqrt(1 + v/2) - sqrt(v/2) without cancellation.
        return 1.0 / (math.sqrt(1.0 + 0.5 * v_star) + math.sqrt(0.5 * v_star))

    # B-(u) decays from delta0 toward 0; u* is the smallest u with B- <= delta.
    def b_minus(u):
        return float(ndtr(-math.sqrt(epsilon * u))
                     - math.exp(epsilon) * ndtr(-math.sqrt(epsilon * (u + 2.0))))

    lo, hi = 0.0, _SEARCH_HI
    if not b_minus(hi) <= delta:
        raise CalibrationError("lower characteristic curve never reaches delta")
    for _ in range(_SEARCH_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if b_minus(mid) > delta:
            lo = mid
        else:
            hi = mid
    u_star = hi
    return math.sqrt(1.0 + 0.5 * u_star) + math.sqrt(0.5 * u_star)


def calibrate_gaussian_sigma(sensitivity: float, epsilon: float, delta: float) -> float:
    """Smallest sigma making the Gaussian mechanism (epsilon, delta)-DP."""
    alpha = analytic_gaussian_alpha(epsilon, delta)
    return alpha * sensitivity / math.sqrt(2.0 * epsilon)


# ---------------------------------------------------------------------------
# Training-side calibrations
# ---------------------------------------------------------------------------

def minimizer_sensitivity(dims: ProblemDims) -> float:
    """Worst-case Frobenius movement of the regularized minimizer: 2K / (N lam)."""
    return 2.0 * LIPSCHITZ_K / (dims.n_train * dims.lam)


def _require_pure(spec: PrivacySpec, what: str):
    if spec.delta != 0.0:
        raise WrongVariantError(f"{what} requires delta = 0; got delta = {spec.delta}. "
                                "Use the Gaussian variant for delta > 0.")


def _require_approximate(spec: PrivacySpec, what: str):
    if spec.delta == 0.0:
        raise WrongVariantError(f"{what} requires delta > 0. "
                                "Use the radial-exponential variant for delta = 0.")


def model_sensitivity_beta(dims: ProblemDims, spec: PrivacySpec) -> float:
    """Noise rate for parameter perturbation at delta = 0: N lam eps / (2K)."""
    _require_pure(spec, "model_sensitivity_beta")
    return dims.n_train * dims.lam * spec.epsilon / (2.0 * LIPSCHITZ_K)


def gaussian_model_sigma(dims: ProblemDims, spec: PrivacySpec) -> float:
    """Gaussian parameter-perturbation scale: 2 K alpha / (N lam sqrt(2 eps))."""
    _require_approximate(spec, "gaussian_model_sigma")
    return calibrate_gaussian_sigma(minimizer_sensitivity(dims), spec.epsilon, spec.delta)


def loss_perturbation_rho(dims: ProblemDims, spec: PrivacySpec) -> float:
    """Extra ridge coefficient 2 L C / eps (the minimum the guarantee permits)."""
    return 2.0 * HESSIAN_EIG_BOUND * dims.n_classes / spec.epsilon


def loss_perturbation_params(dims: ProblemDims, spec: PrivacySpec) -> tuple[float, float]:
    """(beta, rho) for objective perturbation at delta = 0: eps/(2K) and 2LC/eps."""
    _require_pure(spec, "loss_perturbation_params")
    return spec.epsilon / (2.0 * LIPSCHITZ_K), loss_perturbation_rho(dims, spec)


def gaussian_loss_sigma(dims: ProblemDims, spec: PrivacySpec) -> float:
    """Gaussian objective-perturbation scale: (K/eps) sqrt(8 ln(2/delta) + 4 eps)."""
    _require_approximate(spec, "gaussian_loss_sigma")
    return LIPSCHITZ_K / spec.epsilon * math.sqrt(
        8.0 * math.log(2.0 / spec.delta) + 4.0 * spec.epsilon)


# ---------------------------------------------------------------------------
# Prediction-side calibrations
# ---------------------------------------------------------------------------

def prediction_sensitivity_beta(dims: ProblemDims, spec: PrivacySpec) -> float:
    """Per-query logit-noise rate at delta = 0: N lam eps / (2 K B)."""
    _require_pure(spec, "prediction_sensitivity_beta")
    return dims.n_train * dims.lam * spec.epsilon / (2.0 * LIPSCHITZ_K * spec.budget)


# Resolution of the linear search over the composition split delta'.
_DELTA_SPLIT_GRID = 200


def gaussian_prediction_sigma(dims: ProblemDims, spec: PrivacySpec) -> float:
    """Per-query Gaussian logit-noise scale for a budget of B queries.

    Two candidates are calibrated against the minimizer sensitivity 2K/(N lam)
    and the smaller wins:

    * sigma' spends the budget by standard composition, i.e. per-query targets
      (eps/B, delta/B);
    * sigma'' uses advanced composition: for a split delta' in (0, delta), the
      per-query targets are eps* = sqrt(2/B) (sqrt(ln(1/delta') + eps)
      - sqrt(ln(1/delta'))) and delta* = (delta - delta')/B, and delta' is
      linearly searched on a geometric grid to minimize sigma''.

    With B = 1 the advanced-composition interval is empty and sigma' is
    returned unchanged.
    """
    _require_approximate(spec, "gaussian_prediction_sigma")
    sensitivity = minimizer_sensitivity(dims)
    b = spec.budget

    sigma_standard = calibrate_gaussian_sigma(
        sensitivity, spec.epsilon / b, spec.delta / b)

    lo, hi = spec.delta * 1e-6, spec.delta * (1.0 - 1.0 / b)
    if not hi > lo:
        return sigma_standard

    sigma_advanced = math.inf
    for delta_split in np.geomspace(lo, hi, _DELTA_SPLIT_GRID):
        log_term = math.log(1.0 / delta_split)
        eps_star = math.sqrt(2.0 / b) * (
            math.sqrt(log_term + spec.epsilon) - math.sqrt(log_term))
        delta_star = (spec.delta - delta_split) / b
        sigma = calibrate_gaussian_sigma(sensitivity, eps_star, delta_star)
        sigma_advanced = min(sigma_advanced, sigma)

    return min(sigma_standard, sigma_advanced)


def subsample_beta(spec: PrivacySpec) -> float:
    """Vote inverse temperature for the aggregated ensemble.

    delta = 0 composes linearly (eps/B); delta > 0 may instead use the
    advanced-composition rate sqrt(2/B)(sqrt(ln(1/delta) + eps)
    - sqrt(ln(1/delta))), keeping whichever is larger (less noisy).
    """
    beta_linear = spec.epsilon / spec.budget
    if spec.delta == 0.0:
        return beta_linear
    log_term = math.log(1.0 / spec.delta)
    beta_advanced = math.sqrt(2.0 / spec.budget) * (
        math.sqrt(log_term + spec.epsilon) - math.sqrt(log_term))
    return max(beta_linear, beta_advanced)


# ---------------------------------------------------------------------------
# Renyi accountant for DP-SGD
# ---------------------------------------------------------------------------

def _log_binomial_table() -> np.ndarray:
    """log C(a, k) with row a - 2 for each order a in RDP_ORDERS; -inf where k > a."""
    a = np.array(RDP_ORDERS)[:, None]
    ks = np.arange(RDP_ORDERS[-1] + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = gammaln(a + 1) - gammaln(ks + 1) - gammaln(a - ks + 1)
    return np.where(ks <= a, table, -np.inf)


_LOG_BINOMIAL = _log_binomial_table()


def rdp_subsampled_gaussian(q: float, sigma: float, order):
    """Renyi divergence bound of one subsampled Gaussian step at integer orders.

    `order` is one integer order (a float is returned) or an array of them (an
    array of the same shape is returned); every order must lie in RDP_ORDERS.
    For q = 1 the bound is the exact Gaussian value order / (2 sigma^2). For
    q < 1 it is the binomial-expansion bound

        log( sum_k C(a,k) (1-q)^(a-k) q^k exp((k^2 - k)/(2 sigma^2)) ) / (a-1),

    accumulated in log space for numerical stability, all orders in one pass
    over a precomputed table of log C(a, k). The exact sum is >= 1, so the
    bound is >= 0; values that round below zero (tiny q, large sigma) are
    clamped to 0.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    orders = np.asarray(order, dtype=np.float64)
    a = orders.astype(np.int64).reshape(-1)
    if (a.size == 0 or a.min() < RDP_ORDERS[0] or a.max() > RDP_ORDERS[-1]
            or not np.array_equal(a, orders.reshape(-1))):
        raise UnsupportedOrderError(
            f"orders must be integers in [{RDP_ORDERS[0]}, {RDP_ORDERS[-1]}], got {order}")
    if q == 1.0:
        values = a / (2.0 * sigma * sigma)
    else:
        ks = np.arange(a.max() + 1)
        a_col = a[:, None]
        log_terms = (
            _LOG_BINOMIAL.take(a - RDP_ORDERS[0], axis=0)[:, :ks.size]
            + (a_col - ks) * math.log1p(-q)
            + ks * math.log(q)
            + (ks * ks - ks) / (2.0 * sigma * sigma)
        )
        values = np.maximum(logsumexp(log_terms, axis=1) / (a - 1), 0.0)
    if orders.ndim == 0:
        return float(values[0])
    return values.reshape(orders.shape)


def rdp_curve(q: float, sigma: float, orders=RDP_ORDERS) -> RdpCurve:
    """Per-step Renyi curve of the subsampled Gaussian over a grid of orders."""
    return RdpCurve(orders, rdp_subsampled_gaussian(q, sigma, orders))


def dpsgd_epsilon(sigma: float, cfg: DpSgdConfig, delta: float,
                  orders=RDP_ORDERS) -> float:
    """Forward accounting: epsilon spent by n_steps subsampled Gaussian steps."""
    curve = rdp_curve(cfg.sample_rate, sigma, orders).compose(cfg.n_steps)
    return curve.to_dp(delta)[0]


_SIGMA_LO = 0.01
_SIGMA_HI = 1e4


def dpsgd_sigma_for_target(spec: PrivacySpec, cfg: DpSgdConfig) -> float:
    """Smallest noise multiplier whose accounted epsilon meets the target.

    Binary search over sigma in [0.01, 1e4] against dpsgd_epsilon; the
    accounted epsilon is continuous and decreasing in sigma, so the returned
    sigma reproduces the target through forward accounting to within the
    search tolerance. `hi` only ever holds a sigma that meets the target and
    `lo` one that misses it, so once the midpoint is no longer strictly
    between them neither bound can move again: the search stops there and
    returns exactly what running all iterations would.
    """
    _require_approximate(spec, "dpsgd_sigma_for_target")

    def accounted(sigma):
        return dpsgd_epsilon(sigma, cfg, spec.delta)

    lo, hi = _SIGMA_LO, _SIGMA_HI
    if accounted(hi) > spec.epsilon:
        raise InfeasibleTargetError(
            f"epsilon = {spec.epsilon} unreachable with sigma <= {hi} "
            f"(accounted epsilon {accounted(hi):.4g})")
    if accounted(lo) <= spec.epsilon:
        return lo
    for _ in range(_SEARCH_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if accounted(mid) <= spec.epsilon:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Budget tracking
# ---------------------------------------------------------------------------

class BudgetState:
    """Strict query counter: exactly `budget` units spent, then refusals.

    reserve(k) spends k units at once under the lock, all or nothing: if
    fewer than k remain it raises BudgetExhaustedError and leaves the
    counter untouched, so none of the k queries is answered. consume() is
    reserve(1), the spend of one single query.
    """

    def __init__(self, budget: int, used: int = 0):
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
        if not 0 <= used <= budget:
            raise ValueError(f"used must lie in [0, {budget}], got {used}")
        self.budget = int(budget)
        self.used = int(used)
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int:
        return self.budget - self.used

    def reserve(self, k: int):
        if k < 0:
            raise ValueError(f"cannot reserve a negative number of queries, got {k}")
        with self._lock:
            if self.used + k > self.budget:
                raise BudgetExhaustedError(
                    f"inference budget of {self.budget} queries is exhausted: "
                    f"{k} requested, {self.budget - self.used} left")
            self.used += k

    def consume(self):
        self.reserve(1)

    def __repr__(self):
        return f"BudgetState(budget={self.budget}, used={self.used})"
