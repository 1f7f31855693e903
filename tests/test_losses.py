import math

import numpy as np
import pytest

from privlin import (
    HESSIAN_EIG_BOUND,
    LIPSCHITZ_K,
    erm_objective,
    mc_logistic_hessian,
    perturbed_objective,
)
from privlin.losses import loss_remainder, objective_hvp, regularized_objective


def per_row(a, y):
    """Losses, gradients and softmax probabilities of logits a (..., C) under
    labels y: the objective on the one-feature model whose parameters are a."""
    a, y = np.asarray(a, dtype=np.float64), np.asarray(y, dtype=np.float64)
    values, grads, probs = regularized_objective(
        a[..., None, :], np.ones(a.shape[:-1] + (1, 1)), y[..., :, None], 0.0)
    return values, grads[..., 0, :], probs[..., 0]


def loss(a, y):
    return per_row(a, y)[0]


def grad(a, y):
    return per_row(a, y)[1]


def probs(a):
    return per_row(a, np.zeros_like(a, dtype=np.float64))[2]


def finite_difference_grad(f, x, h=1e-6):
    grad = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        bump = np.zeros_like(x, dtype=float)
        bump.flat[i] = h
        grad.flat[i] = (f(x + bump) - f(x - bump)) / (2 * h)
    return grad


class TestSoftmax:
    """The probabilities the objective returns, which its Hessian uses."""

    def test_symmetric_pair(self):
        np.testing.assert_allclose(probs([0.0, 0.0]), [0.5, 0.5])

    def test_constant_vector_is_uniform(self):
        for c in (-3.0, 0.0, 17.5):
            np.testing.assert_allclose(probs([c, c, c]), np.full(3, 1 / 3), atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.normal(scale=10, size=rng.integers(2, 10))
            shift = rng.normal(scale=100)
            np.testing.assert_allclose(probs(a + shift), probs(a), atol=1e-12)


class TestLoss:
    def test_uniform_softmax_gives_ln2(self):
        assert loss([0.0, 0.0], [1.0, 0.0]) == pytest.approx(math.log(2), rel=1e-12)

    def test_perfect_confidence_vanishes(self):
        assert loss([40.0, 0.0], [1.0, 0.0]) < 1e-15

    def test_frozen_instance(self):
        # Oracle value computed with a 50-digit evaluation of the closed form.
        a = [0.3, -1.2, 2.7, 0.05, -0.8]
        y = [0.0, 0.0, 1.0, 0.0, 0.0]
        assert loss(a, y) == pytest.approx(0.19211383985952032, rel=1e-12)

    def test_matches_extended_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.normal(scale=4, size=5)
            label = rng.integers(0, 5)
            y = np.eye(5)[label]
            z = sum(mpmath.exp(mpmath.mpf(float(v))) for v in a)
            expected = float(-(mpmath.mpf(float(a[label])) - mpmath.log(z)))
            assert loss(a, y) == pytest.approx(expected, rel=1e-10)

    def test_large_logit_saturates_without_overflow(self):
        for y, expected in (([1.0, 0.0], 0.0), ([0.0, 1.0], 1000.0)):
            value, g, p = per_row([1000.0, 0.0], y)
            assert value == expected
            np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)
            np.testing.assert_allclose(g, np.subtract([1.0, 0.0], y), atol=1e-300)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss([0.0, 0.0], [1.0, 0.0, 0.0])


class TestGrad:
    def test_symmetric_two_class(self):
        g = grad([0.0, 0.0], [1.0, 0.0])
        np.testing.assert_allclose(g, [-0.5, 0.5])
        assert np.linalg.norm(g) == pytest.approx(math.sqrt(0.5))

    def test_stationary_when_label_matches_softmax(self):
        a = np.array([0.7, -0.2, 1.5])
        np.testing.assert_allclose(grad(a, probs(a)), 0.0, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            c = rng.integers(2, 8)
            a = rng.normal(scale=3, size=c)
            y = np.eye(c)[rng.integers(0, c)]
            numeric = finite_difference_grad(lambda v: loss(v, y), a)
            analytic = grad(a, y)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_norm_bound(self):
        rng = np.random.default_rng(2)
        for c in range(2, 11):
            a = rng.normal(scale=8, size=(2000, c))
            y = np.eye(c)[rng.integers(0, c, size=2000)]
            norms = np.linalg.norm(grad(a, y), axis=1)
            assert norms.max() <= LIPSCHITZ_K + 1e-9


class TestHessian:
    def test_uniform_two_class(self):
        h = mc_logistic_hessian([0.0, 0.0])
        np.testing.assert_allclose(h, [[0.25, -0.25], [-0.25, 0.25]])
        eigs = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(sorted(eigs), [0.0, 0.5], atol=1e-12)

    def test_dominant_logit_vanishes(self):
        h = mc_logistic_hessian([100.0, 0.0, 0.0])
        assert np.abs(h).max() < 1e-40

    def test_bound_and_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(scale=3, size=4)
            y = np.eye(4)[rng.integers(0, 4)]
            h = mc_logistic_hessian(a)
            assert np.linalg.eigvalsh(h).max() <= HESSIAN_EIG_BOUND + 1e-9
            numeric = np.stack([
                finite_difference_grad(
                    lambda v, i=i: grad(v, y)[i], a)
                for i in range(4)
            ])
            np.testing.assert_allclose(h, numeric, rtol=1e-5, atol=1e-7)

    def test_rejects_non_finite(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                mc_logistic_hessian([bad, 0.0])

    def test_structure(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(100, 6))
        h = mc_logistic_hessian(a)
        np.testing.assert_allclose(h, np.swapaxes(h, -1, -2), atol=1e-15)
        np.testing.assert_allclose(h.sum(axis=-1), 0.0, atol=1e-15)
        assert np.linalg.eigvalsh(h).min() >= -1e-12


class TestSimplexDiameter:
    def test_one_hot_distance(self):
        for c in range(2, 8):
            basis = np.eye(c)
            for i in range(c):
                for j in range(c):
                    d = np.linalg.norm(basis[i] - basis[j])
                    assert d <= math.sqrt(2) + 1e-12
                    if i != j:
                        assert d == pytest.approx(math.sqrt(2))


def random_dataset(rng, n, d, c):
    x = rng.normal(size=(n, d))
    x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1.0) * 1.01
    y = np.eye(c)[rng.integers(0, c, size=n)]
    return x, y


class TestErmObjective:
    def test_zero_theta_gives_log_classes(self):
        rng = np.random.default_rng(5)
        x, y = random_dataset(rng, 30, 4, 5)
        value, _ = erm_objective(np.zeros((4, 5)), x, y, 0.3)
        assert value == pytest.approx(math.log(5), rel=1e-12)

    def test_huge_lambda_gradient_is_ridge(self):
        rng = np.random.default_rng(6)
        x, y = random_dataset(rng, 30, 4, 3)
        theta = rng.normal(size=(4, 3))
        lam = 1e6
        _, grad = erm_objective(theta, x, y, lam)
        np.testing.assert_allclose(grad, lam * theta, rtol=1e-5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x, y = random_dataset(rng, 25, 3, 4)
        theta = rng.normal(size=(3, 4))

        def value_of(flat):
            return erm_objective(flat.reshape(3, 4), x, y, 0.05)[0]

        numeric = finite_difference_grad(value_of, theta.ravel()).reshape(3, 4)
        analytic = erm_objective(theta, x, y, 0.05)[1]
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_convexity(self):
        rng = np.random.default_rng(8)
        x, y = random_dataset(rng, 40, 5, 3)
        for _ in range(50):
            t1 = rng.normal(size=(5, 3))
            t2 = rng.normal(size=(5, 3))
            w = rng.uniform(0.05, 0.95)
            mixed = erm_objective(w * t1 + (1 - w) * t2, x, y, 0.1)[0]
            bound = (w * erm_objective(t1, x, y, 0.1)[0]
                     + (1 - w) * erm_objective(t2, x, y, 0.1)[0])
            assert mixed <= bound + 1e-9

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            erm_objective(np.zeros((3, 2)), np.zeros((0, 3)), np.zeros((0, 2)), 0.1)

    @pytest.mark.parametrize("theta, x, y, message", [
        (np.zeros((3, 2)), np.zeros(3), np.zeros((1, 2)), "features and labels must be 2-D"),
        (np.zeros((3, 2)), np.zeros((1, 3)), np.zeros(2), "features and labels must be 2-D"),
        (np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((2, 2)), "3 feature rows but 2 label rows"),
        (np.zeros((2, 2)), np.zeros((4, 3)), np.zeros((4, 2)),
         r"theta shape \(2, 2\) does not match data dims \(3, 2\)"),
    ])
    def test_rejects_mismatched_arrays(self, theta, x, y, message):
        for objective in (lambda: erm_objective(theta, x, y, 0.1),
                          lambda: perturbed_objective(theta, x, y, 0.1, theta, 0.0)):
            with pytest.raises(ValueError, match=message):
                objective()

    def test_negative_lambda(self):
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            erm_objective(np.zeros((3, 2)), np.zeros((4, 3)), np.eye(2)[[0, 1, 0, 1]], -0.1)


def naive_objective(theta, x, y, ridge, linear):
    """Values, gradients and probabilities by a loop over problems and rows,
    in the row-major orientation: x (T, n, D), y and probabilities (T, n, C)."""
    values, grads, probs = [], [], []
    for th, xs, ys, lin in zip(theta, x, y, linear):
        value, grad, rows = 0.0, ridge * th + lin, []
        for xi, yi in zip(xs, ys):
            a = xi @ th
            e = np.exp(a - a.max())
            value += (np.log(e.sum()) - (a - a.max()) @ yi) / len(xs)
            grad = grad + np.outer(xi, e / e.sum() - yi) / len(xs)
            rows.append(e / e.sum())
        values.append(value + 0.5 * ridge * np.sum(th * th) + np.sum(lin * th))
        grads.append(grad)
        probs.append(rows)
    return np.array(values), np.array(grads), np.array(probs)


def naive_hvp(x, probs, ridge, delta):
    out = []
    for xs, ps, d in zip(x, probs, delta):
        h = ridge * d
        for xi, p in zip(xs, ps):
            v = xi @ d
            h = h + np.outer(xi, p * v - p * (p @ v)) / len(xs)
        out.append(h)
    return np.array(out)


def naive_remainder(probs, v, step):
    out = []
    for ps, vs in zip(probs, v):
        rows = []
        for p, vi in zip(ps, vs):
            u = step * vi
            rows.append(np.log1p(p @ np.expm1(u - p @ u)))
        out.append(np.mean(rows))
    return np.array(out)


def in_layout(stack, layout):
    """A copy of the (T, C, n) stack in C-order or class-leading (C, T, n) memory."""
    if layout == "c_order":
        return np.ascontiguousarray(stack)
    return np.ascontiguousarray(stack.swapaxes(0, 1)).swapaxes(0, 1)


def class_major_stack(t, c, n, scale=1.0, d=4):
    rng = np.random.default_rng(14)
    x = np.stack([random_dataset(rng, n, d, c)[0] for _ in range(t)])
    y = np.eye(c)[rng.integers(0, c, size=(t, n))]
    theta = rng.normal(scale=scale, size=(t, d, c))
    linear = rng.normal(size=(t, d, c))
    delta = rng.normal(size=(t, d, c))
    return x, y, theta, linear, delta


class TestClassMajorObjective:
    """The class-major objective, its Hessian-vector product and the line
    search's loss remainder against per-row loops in row-major orientation,
    and in C-order against class-leading memory."""

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("c", [2, 10])
    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("scale", [1.0, 50.0])
    def test_matches_per_row_loops(self, t, c, n, scale):
        x, y, theta, linear, delta = class_major_stack(t, c, n, scale)
        ridge = 0.3
        xt, yt = np.swapaxes(x, 1, 2), np.swapaxes(y, 1, 2)

        values, grads, probs = regularized_objective(theta, xt, yt, ridge, linear)
        expected = naive_objective(theta, x, y, ridge, linear)
        np.testing.assert_allclose(values, expected[0], rtol=1e-12)
        np.testing.assert_allclose(grads, expected[1], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(np.swapaxes(probs, 1, 2), expected[2], rtol=1e-12)
        rows = expected[2]
        np.testing.assert_allclose(objective_hvp(xt, probs, ridge, delta),
                                   naive_hvp(x, rows, ridge, delta), rtol=1e-12, atol=1e-15)
        v = np.swapaxes(delta, 1, 2) @ xt
        for step in (1.0, 1e-3):
            # The remainder is second order: its first-order part cancels only
            # to the rounding of p.u, a few eps * step * |v|.
            np.testing.assert_allclose(loss_remainder(probs, v, step),
                                       naive_remainder(rows, np.swapaxes(v, 1, 2), step),
                                       rtol=1e-12, atol=1e-15 * step * np.abs(v).max())

        h = 1e-5
        up = regularized_objective(theta + h * delta, xt, yt, ridge, linear)[1]
        down = regularized_objective(theta - h * delta, xt, yt, ridge, linear)[1]
        np.testing.assert_allclose(objective_hvp(xt, probs, ridge, delta), (up - down) / (2 * h),
                                   rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("c", [2, 10])
    @pytest.mark.parametrize("n", [2, 7, 39])
    def test_layouts_give_identical_bits(self, t, c, n):
        """With n = 1 a C-order stack's class axis is contiguous, and numpy sums
        it pairwise rather than in class order: there the layouts agree to
        rounding only, as test_matches_per_row_loops checks."""
        x, y, theta, linear, delta = class_major_stack(t, c, n)
        xt = np.ascontiguousarray(np.swapaxes(x, 1, 2))
        results = []
        for layout in ("c_order", "class_leading"):
            values, grads, probs = regularized_objective(
                theta, xt, in_layout(np.swapaxes(y, 1, 2), layout), 0.3, linear)
            probs = in_layout(probs, layout)
            v = in_layout(np.swapaxes(delta, 1, 2) @ xt, layout)
            results.append([values, grads, probs, objective_hvp(xt, probs, 0.3, delta),
                            loss_remainder(probs, v, 0.5)])
        for c_order, class_leading in zip(*results):
            assert c_order.tobytes() == np.ascontiguousarray(class_leading).tobytes()


class TestPerturbedObjective:
    def test_reduces_to_erm(self):
        # lam is the same mean-form ridge in both, so zero noise and rho give
        # the regularized empirical risk to the bit.
        assert perturbed_objective is erm_objective
        rng = np.random.default_rng(9)
        x, y = random_dataset(rng, 20, 4, 3)
        theta = rng.normal(size=(4, 3))
        v_pert, g_pert = perturbed_objective(theta, x, y, 0.2, np.zeros((4, 3)), 0.0)
        v_erm, g_erm = erm_objective(theta, x, y, 0.2)
        assert v_pert == v_erm
        assert g_pert.tobytes() == g_erm.tobytes()

    def test_zero_theta_gives_log_classes(self):
        rng = np.random.default_rng(10)
        x, y = random_dataset(rng, 20, 4, 6)
        noise = rng.normal(size=(4, 6))
        value, _ = perturbed_objective(np.zeros((4, 6)), x, y, 0.7, noise, 3.0)
        assert value == pytest.approx(math.log(6), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x, y = random_dataset(rng, 25, 3, 4)
        theta = rng.normal(size=(3, 4))
        noise = rng.normal(scale=5, size=(3, 4))

        def value_of(flat):
            return perturbed_objective(flat.reshape(3, 4), x, y, 0.4, noise, 2.5)[0]

        numeric = finite_difference_grad(value_of, theta.ravel()).reshape(3, 4)
        analytic = perturbed_objective(theta, x, y, 0.4, noise, 2.5)[1]
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("lam, rho", [(-0.1, 0.0), (0.1, -1.0)])
    def test_negative_regularisation(self, lam, rho):
        rng = np.random.default_rng(13)
        x, y = random_dataset(rng, 10, 3, 2)
        with pytest.raises(ValueError, match="lam and rho must be nonnegative"):
            perturbed_objective(np.zeros((3, 2)), x, y, lam, np.zeros((3, 2)), rho)

    def test_noise_shape_mismatch(self):
        rng = np.random.default_rng(12)
        x, y = random_dataset(rng, 10, 3, 2)
        with pytest.raises(ValueError):
            perturbed_objective(np.zeros((3, 2)), x, y, 0.1, np.zeros((2, 3)), 0.0)
