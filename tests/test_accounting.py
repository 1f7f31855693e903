import itertools
import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp, ndtr

from privlin import (
    BudgetExhaustedError,
    BudgetState,
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
    minimizer_sensitivity,
    model_sensitivity_beta,
    prediction_sensitivity_beta,
    rdp_subsampled_gaussian,
    subsample_beta,
)
from privlin import accounting
from privlin.accounting import (
    _KS,
    _LOG_BINOMIAL,
    _ORDERS,
    _SIGMA_LO,
    RDP_ORDERS,
    _advanced_composition_epsilon,
    _gaussian_delta,
)

SQRT2 = math.sqrt(2.0)


def dims(n=1000, lam=0.01, c=10):
    return ProblemDims(n_train=n, lam=lam, n_classes=c)


class TestSpecsValidation:
    def test_privacy_spec_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PrivacySpec(epsilon=0.0)
        with pytest.raises(ValueError, match="finite"):
            PrivacySpec(epsilon=math.inf)
        with pytest.raises(ValueError):
            PrivacySpec(epsilon=1.0, delta=1.0)
        with pytest.raises(ValueError):
            PrivacySpec(epsilon=1.0, delta=2.0)
        with pytest.raises(ValueError):
            PrivacySpec(epsilon=1.0, budget=0)
        with pytest.raises(ValueError, match="integer"):
            PrivacySpec(1.0, 0.0, 2.5)
        assert PrivacySpec(1.0, 0.0, np.int64(3)).budget == 3

    def test_dims_positive(self):
        with pytest.raises(ValueError):
            ProblemDims(n_train=0, lam=0.1, n_classes=2)
        with pytest.raises(ValueError):
            ProblemDims(n_train=10, lam=0.0, n_classes=2)

    def test_dims_reject_an_infinite_minimizer_sensitivity(self):
        # N lam = 6e-319 is subnormal, so 2K / (N lam) overflows to inf and every
        # calibration built on it would search forever or release inf noise.
        with pytest.raises(ValueError, match="must be finite"):
            ProblemDims(n_train=60, lam=1e-320, n_classes=3)
        assert math.isfinite(minimizer_sensitivity(ProblemDims(60, 1e-300, 3)))

    def test_dpsgd_config(self):
        with pytest.raises(ValueError):
            DpSgdConfig(clip=0.0, n_steps=5, sample_rate=0.1)
        with pytest.raises(ValueError):
            DpSgdConfig(clip=0.1, n_steps=5, sample_rate=1.5)
        for bad in (0, 20.5):
            with pytest.raises(ValueError, match="n_steps must be an integer"):
                DpSgdConfig(clip=0.1, n_steps=bad, sample_rate=0.1)
        cfg = DpSgdConfig.for_dataset(n_train=200, batch_size=50, n_steps=5, clip=0.1)
        assert cfg == DpSgdConfig(clip=0.1, n_steps=5, sample_rate=0.25)
        with pytest.raises(ValueError, match="sample_rate"):
            DpSgdConfig.for_dataset(n_train=200, batch_size=0, n_steps=5, clip=0.1)
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            DpSgdConfig(clip=0.1, n_steps=5, sample_rate=0.1, learning_rate=0.0)


class TestModelSensitivityBeta:
    def test_direct_substitution(self):
        beta = model_sensitivity_beta(dims(1000, 0.01), PrivacySpec(1.0))
        assert beta == pytest.approx(3.5355339059327378, rel=1e-12)

    def test_linear_in_epsilon(self):
        one = model_sensitivity_beta(dims(), PrivacySpec(1.0))
        two = model_sensitivity_beta(dims(), PrivacySpec(2.0))
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_large_instance(self):
        # 3000 / (2 sqrt(2)) evaluated at 50 digits.
        beta = model_sensitivity_beta(dims(60000, 0.1), PrivacySpec(0.5))
        assert beta == pytest.approx(1060.6601717798212, rel=1e-12)

    def test_wrong_variant(self):
        with pytest.raises(WrongVariantError):
            model_sensitivity_beta(dims(), PrivacySpec(1.0, delta=1e-5))


# Per-query targets gaussian_prediction_sigma asks calibrate_gaussian_sigma for.
PER_QUERY_EPSILONS = (1e-4, 1e-3, 0.1, 1.0)
PER_QUERY_DELTAS = (1e-12, 1e-8, 1e-5, 0.3)


def mp_gaussian_delta(mpmath, sensitivity, sigma, eps):
    """gaussian_mechanism_delta evaluated in mpmath at the working precision."""
    r, e = mpmath.mpf(sensitivity) / mpmath.mpf(sigma), mpmath.mpf(eps)
    return mpmath.ncdf(r / 2 - e / r) - mpmath.exp(e) * mpmath.ncdf(-r / 2 - e / r)


def delta_bounds(sensitivity, sigma, eps):
    """The exact Gaussian-mechanism delta lies in [low, high]: the float value
    gaussian_mechanism_delta returns, minus and plus its rounding bound."""
    value, rounding = _gaussian_delta(sensitivity / sigma, eps)
    assert value == gaussian_mechanism_delta(sensitivity, sigma, eps)
    return value - rounding, value + rounding


class TestAnalyticGaussianAlpha:
    """The analytic Gaussian mechanism's scale factor
    alpha = sigma sqrt(2 eps) / sensitivity, read through
    calibrate_gaussian_sigma. Balle & Wang's two characteristic curves,
    scanned on a grid, serve as an independent oracle."""

    def test_delta_threshold_value(self):
        # delta_0(eps=1) = Phi(0) - e Phi(-sqrt(2)), 50-digit evaluation; at
        # delta_0 the two curves meet and alpha = 1.
        delta0 = float(ndtr(0.0) - math.e * ndtr(-SQRT2))
        assert delta0 == pytest.approx(0.2862082119220965, rel=1e-12)
        assert calibrate_gaussian_sigma(1.0, 1.0, delta0) * SQRT2 == pytest.approx(
            1.0, rel=1e-9)

    def test_tightness_on_grid(self):
        for eps in (0.1, 1.0, 5.0):
            for delta in (1e-6, 1e-3, 0.3):
                sigma = calibrate_gaussian_sigma(1.0, eps, delta)
                assert delta_bounds(1.0, sigma, eps)[1] <= delta
                assert delta_bounds(1.0, sigma * (1 - 1e-9), eps)[0] > delta

    def test_upper_branch_against_grid_scan(self):
        # eps=1, delta=0.5 lands above delta_0; scan B+ on a fine grid.
        eps, delta = 1.0, 0.5
        vs = np.linspace(0.0, 10.0, 2_000_001)
        values = ndtr(np.sqrt(eps * vs)) - math.exp(eps) * ndtr(-np.sqrt(eps * (vs + 2)))
        v_star = vs[values <= delta].max()
        expected = 1.0 / (math.sqrt(1 + v_star / 2) + math.sqrt(v_star / 2))
        alpha = calibrate_gaussian_sigma(1.0, eps, delta) * math.sqrt(2 * eps)
        assert alpha == pytest.approx(expected, abs=2e-6)

    def test_lower_branch_against_grid_scan(self):
        eps, delta = 1.0, 0.01
        us = np.linspace(0.0, 20.0, 2_000_001)
        values = ndtr(-np.sqrt(eps * us)) - math.exp(eps) * ndtr(-np.sqrt(eps * (us + 2)))
        u_star = us[values <= delta].min()
        expected = math.sqrt(1 + u_star / 2) + math.sqrt(u_star / 2)
        alpha = calibrate_gaussian_sigma(1.0, eps, delta) * math.sqrt(2 * eps)
        assert alpha == pytest.approx(expected, abs=2e-5)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            calibrate_gaussian_sigma(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            calibrate_gaussian_sigma(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)])
    def test_mechanism_delta_needs_positive_arguments(self, args):
        with pytest.raises(ValueError, match="sensitivity, sigma, and epsilon must be positive"):
            gaussian_mechanism_delta(*args)

    def test_infinite_sensitivity_is_rejected(self):
        # Delta / sigma would be NaN, so the doubling bracket would never close.
        with pytest.raises(ValueError, match="finite"):
            calibrate_gaussian_sigma(math.inf, 1.0, 1e-5)
        with pytest.raises(ValueError, match="finite"):
            calibrate_gaussian_sigma(math.nan, 1.0, 1e-5)

    @pytest.mark.parametrize("eps", PER_QUERY_EPSILONS)
    def test_per_query_targets_against_mpmath_oracle(self, eps):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for delta in PER_QUERY_DELTAS:
                sigma = calibrate_gaussian_sigma(1.0, eps, delta)
                assert mp_gaussian_delta(mpmath, 1.0, sigma, eps) <= delta, (eps, delta)
                assert mp_gaussian_delta(mpmath, 1.0, sigma * (1 - 1e-9), eps) > delta

    def test_bracket_grows_and_shrinks_with_the_sensitivity(self):
        unit = calibrate_gaussian_sigma(1.0, 1e-3, 1e-8)
        for sensitivity in (1e-9, 1e9):
            sigma = calibrate_gaussian_sigma(sensitivity, 1e-3, 1e-8)
            assert sigma == pytest.approx(unit * sensitivity, rel=1e-10)
            assert delta_bounds(sensitivity, sigma, 1e-3)[1] <= 1e-8


class TestGaussianModelSigma:
    def test_halves_when_n_doubles(self):
        spec = PrivacySpec(1.0, 1e-5)
        sigma_n = gaussian_model_sigma(dims(1000, 0.01), spec)
        sigma_2n = gaussian_model_sigma(dims(2000, 0.01), spec)
        assert sigma_2n == pytest.approx(sigma_n / 2, rel=1e-12)

    def test_value_composes_alpha_and_sensitivity(self):
        spec = PrivacySpec(1.0, 1e-5)
        d = dims(1000, 0.01)
        expected = minimizer_sensitivity(d) * calibrate_gaussian_sigma(1.0, 1.0, 1e-5)
        assert gaussian_model_sigma(d, spec) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_delta(self):
        values = [gaussian_model_sigma(dims(), PrivacySpec(1.0, d))
                  for d in (1e-8, 1e-5, 1e-2, 0.2, 0.9)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0

    def test_wrong_variant(self):
        with pytest.raises(WrongVariantError):
            gaussian_model_sigma(dims(), PrivacySpec(1.0, 0.0))


class TestLossPerturbation:
    def test_direct_substitution(self):
        beta, rho = loss_perturbation_params(dims(c=10), PrivacySpec(1.0))
        assert beta == pytest.approx(1.0 / (2 * SQRT2), rel=1e-12)
        assert rho == pytest.approx(10.0, rel=1e-12)

    def test_rho_vanishes_as_epsilon_grows(self):
        _, rho = loss_perturbation_params(dims(), PrivacySpec(1e10))
        assert rho < 1e-8

    def test_small_epsilon_two_classes(self):
        beta, rho = loss_perturbation_params(dims(c=2), PrivacySpec(0.1))
        assert beta == pytest.approx(0.035355339059327376, rel=1e-12)
        assert rho == pytest.approx(20.0, rel=1e-12)

    def test_gaussian_sigma_frozen_value(self):
        # sqrt(2) * sqrt(8 ln(2e5) + 4), 50-digit evaluation.
        sigma = gaussian_loss_sigma(dims(), PrivacySpec(1.0, 1e-5))
        assert sigma == pytest.approx(14.258231388516696, rel=1e-12)

    def test_gaussian_sigma_monotone(self):
        base = gaussian_loss_sigma(dims(), PrivacySpec(1.0, 1e-5))
        assert gaussian_loss_sigma(dims(), PrivacySpec(2.0, 1e-5)) < base
        assert gaussian_loss_sigma(dims(), PrivacySpec(1.0, 1e-3)) < base

    def test_out_of_domain_delta(self):
        with pytest.raises(ValueError):
            PrivacySpec(1.0, 2.0)
        with pytest.raises(WrongVariantError):
            gaussian_loss_sigma(dims(), PrivacySpec(1.0, 0.0))
        with pytest.raises(WrongVariantError):
            loss_perturbation_params(dims(), PrivacySpec(1.0, 1e-5))


class TestPredictionSensitivity:
    def test_reduces_to_model_beta_at_budget_one(self):
        spec_b1 = PrivacySpec(1.0, 0.0, budget=1)
        assert prediction_sensitivity_beta(dims(), spec_b1) == pytest.approx(
            model_sensitivity_beta(dims(), spec_b1), rel=1e-12)

    def test_frozen_value(self):
        spec = PrivacySpec(1.0, 0.0, budget=100)
        beta = prediction_sensitivity_beta(dims(60000, 0.01), spec)
        assert beta == pytest.approx(2.1213203435596424, rel=1e-12)

    def test_inverse_in_budget(self):
        b1 = prediction_sensitivity_beta(dims(), PrivacySpec(1.0, 0.0, budget=1))
        b50 = prediction_sensitivity_beta(dims(), PrivacySpec(1.0, 0.0, budget=50))
        assert b50 == pytest.approx(b1 / 50, rel=1e-12)


class TestGaussianPredictionSigma:
    def test_budget_one_reduces_to_model_sigma(self):
        spec = PrivacySpec(1.0, 1e-5, budget=1)
        assert gaussian_prediction_sigma(dims(), spec) == pytest.approx(
            gaussian_model_sigma(dims(), spec), rel=1e-12)

    def test_advanced_composition_wins_at_large_budget(self):
        spec = PrivacySpec(1.0, 1e-5, budget=10000)
        d = dims(60000, 0.01)
        sigma = gaussian_prediction_sigma(d, spec)
        sigma_standard = calibrate_gaussian_sigma(
            minimizer_sensitivity(d), spec.epsilon / spec.budget, spec.delta / spec.budget)
        assert sigma < sigma_standard

    def test_never_exceeds_standard_composition(self):
        for budget in (2, 10, 100, 1000):
            spec = PrivacySpec(0.5, 1e-4, budget=budget)
            d = dims(5000, 0.05)
            sigma = gaussian_prediction_sigma(d, spec)
            sigma_standard = calibrate_gaussian_sigma(
                minimizer_sensitivity(d), spec.epsilon / budget, spec.delta / budget)
            assert sigma <= sigma_standard * (1 + 1e-12)

    def test_wrong_variant(self):
        with pytest.raises(WrongVariantError):
            gaussian_prediction_sigma(dims(), PrivacySpec(1.0, 0.0, budget=5))

    @pytest.mark.parametrize("n, lam", [(5000, 0.01), (50, 0.1)])
    def test_pruned_scan_equals_the_full_scan(self, n, lam):
        for eps, delta, budget in itertools.product(
                (0.1, 1.0, 8.0), (1e-8, 1e-5, 1e-2), (1, 2, 10, 1000, 10_000)):
            d, spec = dims(n, lam), PrivacySpec(eps, delta, budget)
            assert gaussian_prediction_sigma(d, spec) == full_split_scan(d, spec), spec

    def test_bisects_few_splits(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return calibrate_gaussian_sigma(*args)

        monkeypatch.setattr(accounting, "calibrate_gaussian_sigma", counted)
        gaussian_prediction_sigma(dims(5000, 0.01), PrivacySpec(1.0, 1e-5, 1000))
        assert len(calls) <= 20  # the full scan bisects 201 times

    def test_split_whose_epsilon_rounds_to_zero_is_skipped(self):
        d = dims(5000, 0.01)
        assert _advanced_composition_epsilon(1e-15, 10, 1e-5 * 1e-6) == 0.0
        sigma = gaussian_prediction_sigma(d, PrivacySpec(1e-15, 1e-5, 10))
        standard = calibrate_gaussian_sigma(minimizer_sensitivity(d), 1e-16, 1e-6)
        assert math.isfinite(sigma)
        assert gaussian_prediction_sigma(d, PrivacySpec(1e-12, 1e-5, 10)) <= sigma <= standard


def full_split_scan(d, spec):
    """gaussian_prediction_sigma as one bisection per delta' split, the minimum kept."""
    sensitivity, b = minimizer_sensitivity(d), spec.budget
    sigma = calibrate_gaussian_sigma(sensitivity, spec.epsilon / b, spec.delta / b)
    lo, hi = spec.delta * 1e-6, spec.delta * (1.0 - 1.0 / b)
    if not hi > lo:
        return sigma
    for delta_split in np.geomspace(lo, hi, 200):
        eps_star = _advanced_composition_epsilon(spec.epsilon, b, delta_split)
        sigma = min(sigma, calibrate_gaussian_sigma(sensitivity, eps_star,
                                                    (spec.delta - delta_split) / b))
    return sigma


class TestSubsampleBeta:
    def test_pure_composition(self):
        assert subsample_beta(PrivacySpec(1.0, 0.0, budget=100)) == pytest.approx(0.01)

    def test_advanced_composition_value(self):
        # sqrt(2/100) (sqrt(ln 1e5 + 1) - sqrt(ln 1e5)), 50-digit evaluation.
        beta = subsample_beta(PrivacySpec(1.0, 1e-5, budget=100))
        assert beta == pytest.approx(0.020405851288067087, rel=1e-12)

    def test_budget_one_linear_branch_dominates(self):
        spec = PrivacySpec(1.0, 1e-5, budget=1)
        assert subsample_beta(spec) == pytest.approx(1.0)
        log_term = math.log(1e5)
        advanced = math.sqrt(2.0) * (math.sqrt(log_term + 1) - math.sqrt(log_term))
        assert advanced < 1.0

    def test_scaling_ratio(self):
        for b in (100, 400):
            beta_b = subsample_beta(PrivacySpec(1.0, 1e-5, budget=b))
            beta_4b = subsample_beta(PrivacySpec(1.0, 1e-5, budget=4 * b))
            assert beta_b / beta_4b == pytest.approx(2.0, rel=0.05)
            pure_b = subsample_beta(PrivacySpec(1.0, 0.0, budget=b))
            pure_4b = subsample_beta(PrivacySpec(1.0, 0.0, budget=4 * b))
            assert pure_b / pure_4b == pytest.approx(4.0, rel=1e-12)


class TestRdpSubsampledGaussian:
    def test_full_batch_is_exact_gaussian(self):
        curve = rdp_subsampled_gaussian(1.0, 2.0)
        assert curve.shape == (len(RDP_ORDERS),)
        assert curve[RDP_ORDERS.index(8)] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("q, sigma, message", [
        (0.0, 1.0, r"q must lie in \(0, 1\], got 0.0"),
        (1.5, 1.0, r"q must lie in \(0, 1\], got 1.5"),
        (0.5, 0.0, "sigma must be positive, got 0.0"),
    ])
    def test_rejects_bad_arguments(self, q, sigma, message):
        with pytest.raises(ValueError, match=message):
            rdp_subsampled_gaussian(q, sigma)

    def test_vanishes_as_q_shrinks(self):
        assert rdp_subsampled_gaussian(1e-12, 1.0)[RDP_ORDERS.index(16)] < 1e-10

    def test_matches_quadrature_oracle(self):
        q, sigma, order = 0.01, 1.0, 16
        log_2pi = math.log(2 * math.pi)

        def log_density(x, mu):
            return -0.5 * ((x - mu) / sigma) ** 2 - 0.5 * log_2pi - math.log(sigma)

        def integrand(x):
            l0 = log_density(x, 0.0)
            l1 = log_density(x, 1.0)
            mix = np.logaddexp(math.log1p(-q) + l0, math.log(q) + l1)
            return math.exp(order * mix + (1 - order) * l0)

        integral, _ = quad(integrand, -30.0, 60.0, limit=800)
        oracle = math.log(integral) / (order - 1)
        value = rdp_subsampled_gaussian(q, sigma)[RDP_ORDERS.index(order)]
        assert value >= oracle - 1e-9
        assert value == pytest.approx(oracle, rel=1e-6)

    def test_whole_curve_matches_mpmath_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        ks = range(RDP_ORDERS[-1] + 1)
        with mpmath.workdps(50):
            for q in (1e-7, 0.0128, 0.5, 1.0):
                for sigma in (0.5, 1.4, 1e4):
                    mq, ms = mpmath.mpf(q), mpmath.mpf(sigma)
                    pow_q = [mq ** k for k in ks]
                    pow_rest = [(1 - mq) ** k for k in ks]
                    growth = [mpmath.exp((k * k - k) / (2 * ms * ms)) for k in ks]
                    curve = rdp_subsampled_gaussian(q, sigma)
                    assert np.all(curve >= 0.0)
                    for a, value in zip(RDP_ORDERS, curve):
                        total = mpmath.fsum(
                            math.comb(a, k) * pow_rest[a - k] * pow_q[k] * growth[k]
                            for k in range(a + 1))
                        oracle = float(mpmath.log(total) / (a - 1))
                        assert value == pytest.approx(oracle, rel=1e-12, abs=1e-15), (q, sigma, a)

    def test_equals_the_scipy_logsumexp_formula(self):
        for q in (1.0, 0.5, 0.0128, 1e-4, 1e-9, 1e-12):
            for sigma in np.geomspace(0.01, 1e4, 25):
                if q == 1.0:
                    expected = _ORDERS / (2.0 * sigma * sigma)
                else:
                    log_terms = (_LOG_BINOMIAL + (_ORDERS[:, None] - _KS) * math.log1p(-q)
                                 + _KS * math.log(q) + (_KS * _KS - _KS) / (2.0 * sigma * sigma))
                    expected = np.maximum(logsumexp(log_terms, axis=1) / (_ORDERS - 1), 0.0)
                curve = rdp_subsampled_gaussian(q, float(sigma))
                np.testing.assert_array_equal(curve.view(np.uint64), expected.view(np.uint64))
        assert (rdp_subsampled_gaussian(1e-12, 1e4) == 0.0).any()  # the clamp is covered

    def test_tiny_sample_rate_never_rounds_negative(self):
        # The exact bound is >= 0; float rounding at tiny q must not push it below.
        assert np.all(rdp_subsampled_gaussian(1e-9, 1e3) >= 0.0)
        for n_train in (10_000_000, 100_000_000):
            cfg = DpSgdConfig.for_dataset(n_train, 1, 100, 1.0)
            sigma = dpsgd_sigma_for_target(PrivacySpec(1.0, 1e-5), cfg)
            assert dpsgd_epsilon(sigma, cfg, 1e-5) <= 1.0


# dpsgd_sigma_for_target before the accountant was vectorised, keyed by
# ((n_train, batch_size, n_steps), (epsilon, delta)); clip 1.0.
SIGMA_GOLDEN = {
    ((5000, 64, 200), (1.0, 1e-05)): 1.3856870504307517,
    ((5000, 64, 200), (0.5, 1e-05)): 2.092607795515645,
    ((5000, 64, 200), (2.0, 1e-05)): 1.0002146843942283,
    ((5000, 64, 200), (1.0, 1e-06)): 1.4983516994916786,
    ((10000, 64, 2000), (1.0, 1e-05)): 1.6139104752217666,
    ((10000, 64, 2000), (0.5, 1e-05)): 2.9157365726039464,
    ((10000, 64, 2000), (2.0, 1e-05)): 1.049366171332281,
    ((10000, 64, 2000), (1.0, 1e-06)): 1.7364055038978787,
}


class TestDpSgdSigma:
    @pytest.mark.parametrize("loop,target", sorted(SIGMA_GOLDEN))
    def test_golden_values(self, loop, target):
        eps, delta = target
        cfg = DpSgdConfig.for_dataset(*loop, clip=1.0)
        sigma = dpsgd_sigma_for_target(PrivacySpec(eps, delta), cfg)
        assert sigma == pytest.approx(SIGMA_GOLDEN[loop, target], rel=1e-13)
        assert dpsgd_epsilon(sigma, cfg, delta) <= eps
        if sigma > _SIGMA_LO:
            assert dpsgd_epsilon(sigma * (1 - 1e-9), cfg, delta) > eps

    def test_full_batch_matches_closed_form_grid_minimum(self):
        eps, delta = 1.0, 1e-5
        cfg = DpSgdConfig(clip=1.0, n_steps=1, sample_rate=1.0)
        sigma = dpsgd_sigma_for_target(PrivacySpec(eps, delta), cfg)
        # Per integer order a: smallest sigma with a/(2 s^2) + ln(1/delta)/(a-1) <= eps.
        candidates = []
        for a in range(2, 65):
            slack = eps - math.log(1 / delta) / (a - 1)
            if slack > 0:
                candidates.append(math.sqrt(a / (2 * slack)))
        assert sigma == pytest.approx(min(candidates), rel=1e-9)

    def test_close_to_classical_gaussian_formula(self):
        cfg = DpSgdConfig(clip=1.0, n_steps=1, sample_rate=1.0)
        sigma = dpsgd_sigma_for_target(PrivacySpec(1.0, 1e-5), cfg)
        classical = math.sqrt(2 * math.log(1.25 / 1e-5))
        assert sigma <= classical * 1.02

    def test_round_trip(self):
        for eps, q, steps in [(1.0, 1.0, 1), (1.0, 0.01, 1000), (0.3, 0.05, 400)]:
            cfg = DpSgdConfig(clip=0.1, n_steps=steps, sample_rate=q)
            sigma = dpsgd_sigma_for_target(PrivacySpec(eps, 1e-5), cfg)
            assert dpsgd_epsilon(sigma, cfg, 1e-5) == pytest.approx(eps, rel=1e-6)

    def test_monotonicity(self):
        delta = 1e-5

        def sigma_of(eps, q, steps):
            cfg = DpSgdConfig(clip=0.1, n_steps=steps, sample_rate=q)
            return dpsgd_sigma_for_target(PrivacySpec(eps, delta), cfg)

        assert sigma_of(1.0, 0.1, 100) <= sigma_of(1.0, 0.1, 400)
        assert sigma_of(1.0, 0.05, 200) <= sigma_of(1.0, 0.2, 200)
        assert sigma_of(2.0, 0.1, 200) <= sigma_of(0.5, 0.1, 200)

    def test_forward_accounting_monotone_in_sigma(self):
        cfg = DpSgdConfig(clip=0.1, n_steps=300, sample_rate=0.1)
        values = [dpsgd_epsilon(s, cfg, 1e-5) for s in (0.7, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_forward_epsilon_is_the_minimum_over_orders(self):
        # n_steps * rdp(a) + log(1/delta) / (a - 1), minimised order by order.
        for q in (1.0, 0.03):
            cfg = DpSgdConfig(clip=0.1, n_steps=250, sample_rate=q)
            curve = rdp_subsampled_gaussian(q, 1.3)
            expected = min(250 * rdp + math.log(1 / 1e-5) / (a - 1)
                           for a, rdp in zip(RDP_ORDERS, curve))
            assert dpsgd_epsilon(1.3, cfg, 1e-5) == pytest.approx(expected, rel=1e-13)
        for delta in (0.0, 1.0):
            with pytest.raises(ValueError):
                dpsgd_epsilon(1.3, cfg, delta)

    def test_infeasible_target(self):
        cfg = DpSgdConfig(clip=0.1, n_steps=10_000_000, sample_rate=1.0)
        with pytest.raises(InfeasibleTargetError):
            dpsgd_sigma_for_target(PrivacySpec(1e-6, 1e-9), cfg)

    def test_easy_target_returns_the_sigma_floor(self):
        # One step at q = 0.001 spends about 1e4 at the floor, under the 2e4 target.
        cfg = DpSgdConfig(clip=0.1, n_steps=1, sample_rate=1e-3)
        assert dpsgd_epsilon(_SIGMA_LO, cfg, 1e-5) <= 2e4
        assert dpsgd_sigma_for_target(PrivacySpec(2e4, 1e-5), cfg) == _SIGMA_LO

    def test_wrong_variant(self):
        cfg = DpSgdConfig(clip=0.1, n_steps=10, sample_rate=0.1)
        with pytest.raises(WrongVariantError):
            dpsgd_sigma_for_target(PrivacySpec(1.0, 0.0), cfg)


class TestClosedFormMonotonicity:
    def test_noise_shrinks_as_epsilon_grows(self):
        eps_grid = np.logspace(-2, 1, 10)
        d = dims(2000, 0.05, 4)
        beta_model = [model_sensitivity_beta(d, PrivacySpec(e)) for e in eps_grid]
        assert all(a < b for a, b in zip(beta_model, beta_model[1:]))
        sigma_model = [gaussian_model_sigma(d, PrivacySpec(e, 1e-5)) for e in eps_grid]
        assert all(a > b for a, b in zip(sigma_model, sigma_model[1:]))
        sigma_loss = [gaussian_loss_sigma(d, PrivacySpec(e, 1e-5)) for e in eps_grid]
        assert all(a > b for a, b in zip(sigma_loss, sigma_loss[1:]))
        beta_pred = [prediction_sensitivity_beta(d, PrivacySpec(e, 0.0, 10))
                     for e in eps_grid]
        assert all(a < b for a, b in zip(beta_pred, beta_pred[1:]))
        sigma_pred = [gaussian_prediction_sigma(d, PrivacySpec(e, 1e-5, 10))
                      for e in eps_grid]
        assert all(a > b for a, b in zip(sigma_pred, sigma_pred[1:]))


class TestBudgetState:
    def test_two_then_refusal(self):
        state = BudgetState(2)
        state.consume()
        state.consume()
        with pytest.raises(BudgetExhaustedError):
            state.consume()
        assert state.used == 2
        assert state.remaining == 0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="budget must be at least 1, got 0"):
            BudgetState(0)
        with pytest.raises(ValueError, match=r"used must lie in \[0, 5\], got 6"):
            BudgetState(5, used=6)
        with pytest.raises(ValueError, match=r"used must lie in \[0, 5\], got -1"):
            BudgetState(5, used=-1)

    def test_single_budget(self):
        state = BudgetState(1)
        state.consume()
        with pytest.raises(BudgetExhaustedError):
            state.consume()

    def test_refusal_is_idempotent(self):
        state = BudgetState(3)
        for _ in range(3):
            state.consume()
        for _ in range(5):
            with pytest.raises(BudgetExhaustedError):
                state.consume()
        assert state.used == 3

    def test_concurrent_consumption_is_atomic(self):
        state = BudgetState(500)
        successes = []
        lock = threading.Lock()

        def worker():
            granted = 0
            for _ in range(100):
                try:
                    state.consume()
                    granted += 1
                except BudgetExhaustedError:
                    pass
            with lock:
                successes.append(granted)

        threads = [threading.Thread(target=worker) for _ in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(successes) == 500
        assert state.used == 500

    def test_reserve_is_all_or_nothing(self):
        state = BudgetState(5)
        state.reserve(3)
        with pytest.raises(BudgetExhaustedError):
            state.reserve(3)
        assert state.used == 3
        state.reserve(2)
        state.reserve(0)
        with pytest.raises(BudgetExhaustedError):
            state.consume()
        assert state.used == 5

    def test_reserve_rejects_negative(self):
        state = BudgetState(5, used=2)
        with pytest.raises(ValueError):
            state.reserve(-1)
        assert state.used == 2

    def test_concurrent_mixed_reservations_never_overspend(self):
        state = BudgetState(1000)
        granted = []
        lock = threading.Lock()

        def worker(k):
            total = 0
            for _ in range(200):
                try:
                    state.reserve(k)
                    total += k
                except BudgetExhaustedError:
                    pass
            with lock:
                granted.append(total)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in (1, 2, 3, 7) * 3]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sum(granted) == state.used
        assert state.budget - 6 <= state.used <= state.budget  # only k > remaining refused
