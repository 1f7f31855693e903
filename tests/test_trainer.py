import math

import numpy as np
import pytest

from privlin import (
    ConvergenceError,
    LabeledDataset,
    RngStream,
    TrainConfig,
    erm_objective,
    minimize_erm,
    minimize_erm_stack,
    minimizer_sensitivity,
    predict_logits,
    perturbed_objective,
    ProblemDims,
    synth_blobs,
)
from privlin import trainer


def small_data(seed=0, n_per_class=40, c=3, d=6, sep=3.0):
    return synth_blobs(n_per_class, c, d, sep, RngStream(seed))


class TestMinimizeErm:
    def test_huge_lambda_sends_theta_to_zero(self):
        data = small_data()
        theta = minimize_erm(data, TrainConfig(lam=1e6, grad_tolerance=1e-10))
        assert np.linalg.norm(theta) < 1e-5

    def test_stationarity_via_directional_derivatives(self):
        data = small_data(1)
        cfg = TrainConfig(lam=0.05, grad_tolerance=1e-10)
        theta = minimize_erm(data, cfg)
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(5):
            direction = rng.normal(size=theta.shape)
            direction /= np.linalg.norm(direction)
            up = erm_objective(theta + h * direction, data.features, data.labels, 0.05)[0]
            down = erm_objective(theta - h * direction, data.features, data.labels, 0.05)[0]
            assert abs(up - down) / (2 * h) < 1e-6

    def test_matches_independent_solver_oracle(self):
        # theta* below was computed with a derivative-free Nelder-Mead
        # refinement (6 restarts, xatol 1e-12) on the same tiny objective.
        features = np.array([
            [0.6, 0.3], [-0.4, 0.5], [0.2, -0.7],
            [-0.8, -0.1], [0.5, 0.5], [-0.3, -0.6],
        ])
        labels = np.eye(2)[[0, 1, 0, 1, 0, 1]]
        data = LabeledDataset(features, labels)
        oracle = np.array([
            [1.10715988, -1.10715990],
            [-0.01169849, 0.01169845],
        ])
        theta = minimize_erm(data, TrainConfig(lam=0.1, grad_tolerance=1e-10))
        assert np.linalg.norm(theta - oracle) < 1e-4

    def test_deterministic(self):
        data = small_data(2)
        cfg = TrainConfig(lam=0.1, grad_tolerance=1e-9)
        a = minimize_erm(data, cfg)
        b = minimize_erm(data, cfg)
        assert np.array_equal(a, b)

    def test_objective_decreases_from_origin(self):
        data = small_data(3)
        for lam in (1e-3, 0.1, 10.0):
            theta = minimize_erm(data, TrainConfig(lam=lam))
            at_zero = erm_objective(np.zeros_like(theta), data.features, data.labels, lam)[0]
            at_theta = erm_objective(theta, data.features, data.labels, lam)[0]
            assert at_theta <= at_zero

    def test_meets_tight_tolerance(self):
        data = small_data(4, n_per_class=70, c=3, d=20)
        cfg = TrainConfig(lam=0.1, grad_tolerance=1e-10)
        theta = minimize_erm(data, cfg)
        grad = erm_objective(theta, data.features, data.labels, 0.1)[1]
        assert np.linalg.norm(grad) <= 1e-10

    def test_perturbed_objective_route(self):
        data = small_data(5)
        rng = RngStream(9).generator()
        noise = rng.normal(scale=2.0, size=(data.n_features, data.n_classes))
        cfg = TrainConfig(lam=0.5, grad_tolerance=1e-10, noise_b=noise, rho=4.0)
        theta = minimize_erm(data, cfg)
        grad = perturbed_objective(theta, data.features, data.labels, 0.5, noise, 4.0)[1]
        assert np.linalg.norm(grad) <= 1e-10

    def test_convergence_error_carries_grad_norm(self):
        # Wide problem (D * C = 1400) with a one-Newton-iteration cap.
        rng = np.random.default_rng(6)
        features = rng.normal(size=(50, 700))
        features /= np.linalg.norm(features, axis=1, keepdims=True) * 1.01
        labels = np.eye(2)[rng.integers(0, 2, 50)]
        data = LabeledDataset(features, labels)
        with pytest.raises(ConvergenceError) as err:
            minimize_erm(data, TrainConfig(lam=1e-4, max_iterations=1,
                                           grad_tolerance=1e-14))
        assert err.value.grad_norm > 0

    def test_lambda_must_be_positive(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lam must be positive and finite"):
                TrainConfig(lam=bad)

    @pytest.mark.parametrize("settings, message", [
        ({"grad_tolerance": 0.0}, "grad_tolerance must be positive"),
        ({"grad_tolerance": math.nan}, "grad_tolerance must be positive"),
        # A NaN or infinite rho or noise_b used to reach the solver and fail its line search.
        ({"rho": -1.0}, "rho must be nonnegative and finite"),
        ({"rho": math.nan}, "rho must be nonnegative and finite"),
        ({"rho": math.inf}, "rho must be nonnegative and finite"),
        ({"noise_b": np.full((6, 3), math.nan)}, "noise_b must be finite"),
        ({"noise_b": np.full((6, 3), -math.inf)}, "noise_b must be finite"),
    ])
    def test_settings_must_lie_in_range(self, settings, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(lam=0.1, **{"rho": 1.0, "noise_b": np.zeros((6, 3)), **settings})

    def test_max_iterations_must_be_a_whole_number(self):
        for bad in (2.5, 3.0, 0):
            with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
                TrainConfig(lam=0.1, max_iterations=bad)
        assert TrainConfig(lam=0.1, max_iterations=np.int64(3)).max_iterations == 3

    def test_memory_layout_does_not_change_the_result(self):
        data = small_data(6, d=8)
        cfg = TrainConfig(lam=0.05, grad_tolerance=1e-10)
        reference = minimize_erm(data, cfg)
        wide = np.zeros((data.n_examples, 2 * data.n_features))
        wide[:, ::2] = data.features
        for features in (np.asfortranarray(data.features), wide[:, ::2]):
            theta = minimize_erm(LabeledDataset(features, np.asfortranarray(data.labels)), cfg)
            assert np.array_equal(theta, reference)


def mixed_stack(seed=12, n=30, d=20, c=4):
    """Three problems of n rows: one that saw a single class, one with random
    labels, and one of separated blobs; n < D * C for all three."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(3, n, d))
    features /= np.linalg.norm(features, axis=2, keepdims=True) * 1.01
    classes = np.stack([np.zeros(n, dtype=int), rng.integers(0, c, n),
                        np.arange(n) % c])
    features[2] += 0.3 * np.eye(d)[classes[2]]
    features[2] /= np.linalg.norm(features[2], axis=1, keepdims=True) * 1.01
    return features, np.eye(c)[classes]


def stack_configs(d=20, c=4, tol=1e-9):
    """The ERM objective, and loss perturbation with a ridge of 1e-6. The
    rows are separable, so a larger linear term would put the minimizer
    deep where every softmax saturates."""
    noise = np.random.default_rng(13).normal(scale=0.01, size=(d, c))
    return {
        "erm": TrainConfig(lam=0.05, grad_tolerance=tol),
        "loss_perturbation": TrainConfig(lam=1e-5, rho=2e-5, noise_b=noise,
                                         grad_tolerance=tol),
    }


def objective_grad(theta, features, labels, cfg):
    if cfg.noise_b is None:
        return erm_objective(theta, features, labels, cfg.lam)[1]
    return perturbed_objective(theta, features, labels, cfg.lam, cfg.noise_b, cfg.rho)[1]


def ridge_of(cfg, n):
    return cfg.lam if cfg.noise_b is None else (cfg.lam + cfg.rho) / n


class TestMinimizeErmStack:
    @pytest.mark.parametrize("objective", ["erm", "loss_perturbation"])
    def test_every_problem_meets_the_tolerance(self, objective):
        features, labels = mixed_stack()
        cfg = stack_configs()[objective]
        thetas = minimize_erm_stack(features, labels, cfg)
        assert thetas.shape == (3, 20, 4)
        for theta, x, y in zip(thetas, features, labels):
            assert np.linalg.norm(objective_grad(theta, x, y, cfg)) <= cfg.grad_tolerance

    @pytest.mark.parametrize("objective", ["erm", "loss_perturbation"])
    def test_slices_match_single_solves(self, objective):
        features, labels = mixed_stack()
        cfg = stack_configs()[objective]
        bound = 2 * cfg.grad_tolerance / ridge_of(cfg, features.shape[1])
        thetas = minimize_erm_stack(features, labels, cfg)
        for theta, x, y in zip(thetas, features, labels):
            single = minimize_erm(LabeledDataset(x, y), cfg)
            assert np.linalg.norm(theta - single) <= bound

    def test_iteration_cap_reports_the_worst_gradient(self):
        features, labels = mixed_stack()
        cfg = TrainConfig(lam=0.05, max_iterations=1, grad_tolerance=1e-14)
        singles = []
        for x, y in zip(features, labels):
            with pytest.raises(ConvergenceError) as err:
                minimize_erm(LabeledDataset(x, y), cfg)
            singles.append(err.value.grad_norm)
        with pytest.raises(ConvergenceError, match="1 Newton iterations") as err:
            minimize_erm_stack(features, labels, cfg)
        assert err.value.grad_norm > 1e-14
        assert err.value.grad_norm == pytest.approx(max(singles), rel=1e-9)

    def test_line_search_failure_names_its_problems(self, monkeypatch):
        features, labels = mixed_stack()
        cfg = TrainConfig(lam=0.05)
        norms = [np.linalg.norm(objective_grad(np.zeros((20, 4)), x, y, cfg))
                 for x, y in zip(features, labels)]
        stuck = int(np.argmin(norms))
        armijo_steps = trainer._armijo_steps

        def one_search_fails(*args, **kwargs):
            steps = armijo_steps(*args, **kwargs)
            steps[stuck] = 0.0
            return steps

        monkeypatch.setattr(trainer, "_armijo_steps", one_search_fails)
        with pytest.raises(ConvergenceError, match=rf"no decrease on problems \[{stuck}\]") as err:
            minimize_erm_stack(features, labels, cfg)
        # The worst norm of the failing problem, not of the whole stack.
        assert err.value.grad_norm == pytest.approx(norms[stuck], rel=1e-12)
        assert err.value.grad_norm < max(norms)

    @pytest.mark.parametrize("objective", ["erm", "loss_perturbation"])
    def test_memory_layout_does_not_change_the_result(self, objective):
        features, labels = mixed_stack()
        cfg = stack_configs()[objective]
        reference = minimize_erm_stack(features, labels, cfg)
        wide_x, wide_y = np.zeros((3, 30, 40)), np.zeros((3, 30, 8))
        wide_x[:, :, ::2], wide_y[:, :, ::2] = features, labels
        layouts = [
            (np.asfortranarray(features), np.asfortranarray(labels)),
            (wide_x[:, :, ::2], wide_y[:, :, ::2]),
            # row-major views of class-major memory, as the ensemble fit passes
            tuple(np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)
                  for a in (features, labels)),
        ]
        for x, y in layouts:
            assert np.array_equal(minimize_erm_stack(x, y, cfg), reference)

    def test_deterministic(self):
        features, labels = mixed_stack()
        for cfg in stack_configs().values():
            a = minimize_erm_stack(features, labels, cfg)
            b = minimize_erm_stack(features, labels, cfg)
            assert np.array_equal(a, b)

    def test_shape_validation(self):
        features, labels = mixed_stack()
        cfg = TrainConfig(lam=0.1)
        with pytest.raises(ValueError):
            minimize_erm_stack(features[0], labels[0], cfg)
        with pytest.raises(ValueError):
            minimize_erm_stack(features[:2], labels, cfg)
        with pytest.raises(ValueError):
            minimize_erm_stack(features, labels, TrainConfig(lam=0.1, noise_b=np.zeros((4, 20))))


class TestSensitivityBound:
    def test_neighboring_minimizers_stay_within_bound(self):
        # Small version of the load-bearing invariant; the acceptance suite
        # runs the full 100-pair protocol.
        n, d, c, lam = 120, 8, 3, 0.1
        bound = minimizer_sensitivity(ProblemDims(n, lam, c))
        base = synth_blobs(n // c, c, d, 2.0, RngStream(7))
        features, labels = base.features.copy(), base.labels.copy()
        cfg = TrainConfig(lam=lam, grad_tolerance=1e-10)
        rng = np.random.default_rng(8)
        for _ in range(10):
            theta_a = minimize_erm(LabeledDataset(features, labels), cfg)
            row = rng.integers(0, n)
            new_f, new_l = features.copy(), labels.copy()
            vec = rng.standard_normal(d)
            new_f[row] = vec / max(1.0, np.linalg.norm(vec))
            new_l[row] = np.eye(c)[rng.integers(0, c)]
            theta_b = minimize_erm(LabeledDataset(new_f, new_l), cfg)
            assert np.linalg.norm(theta_a - theta_b) <= bound * (1 + 1e-3)
            features, labels = new_f, new_l


class TestPredictLogits:
    def test_zero_cases(self):
        theta = np.zeros((4, 3))
        np.testing.assert_array_equal(predict_logits(theta, np.ones((1, 4)) / 2), np.zeros((1, 3)))
        theta = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(predict_logits(theta, np.zeros((2, 4))), np.zeros((2, 3)))

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(9)
        theta = rng.normal(size=(5, 4))
        x = rng.normal(size=5)
        x /= np.linalg.norm(x) * 1.1
        expected = np.array([
            sum(theta[i, j] * x[i] for i in range(5)) for j in range(4)
        ])
        np.testing.assert_allclose(predict_logits(theta, x[None]), expected[None], atol=1e-12)

    def test_batch_rows(self):
        rng = np.random.default_rng(10)
        theta = rng.normal(size=(5, 3))
        batch = rng.normal(size=(7, 5)) / 5
        out = predict_logits(theta, batch)
        assert out.shape == (7, 3)
        np.testing.assert_allclose(out[2:3], predict_logits(theta, batch[2:3]), atol=1e-14)

    def test_dimension_mismatch(self):
        for rows in (np.zeros(4), np.zeros(5), np.zeros((2, 5)), np.zeros((1, 2, 4))):
            with pytest.raises(ValueError, match=r"shape \(k, 4\)"):
                predict_logits(np.zeros((4, 3)), rows)
