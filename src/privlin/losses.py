"""The multi-class logistic loss has one implementation: the stacked
regularized objective every fit runs. It is class-major, with logits,
probabilities and labels (..., C, n) and features (..., D, n), because numpy
reduces and broadcasts along a short trailing axis several times slower than
along a leading one. Per-row losses of logits a (n, C) are its one-feature
case: regularized_objective(a[:, None, :], ones((n, 1, 1)), y[:, :, None], 0)
gives l(a_i), p_i - y_i in grads[:, 0, :] and p_i in probs[:, :, 0]."""

from __future__ import annotations

import math

import numpy as np

# Worst-case bounds for the multi-class logistic loss: the gradient lives in a
# difference of two probability vectors (L2 diameter sqrt(2)), and the Hessian
# eigenvalues never exceed 1/2. Both bounds are tight.
LIPSCHITZ_K = math.sqrt(2.0)
HESSIAN_EIG_BOUND = 0.5


def _as_finite(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _check_data(theta, features, labels):
    theta = _as_finite(theta, "theta")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("features and labels must be 2-D arrays")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} feature rows but {y.shape[0]} label rows")
    if x.shape[0] == 0:
        raise ValueError("empty dataset")
    if theta.shape != (x.shape[1], y.shape[1]):
        raise ValueError(f"theta shape {theta.shape} does not match data dims "
                         f"({x.shape[1]}, {y.shape[1]})")
    return theta, x, y


def objective_gradient(theta, xt, yt, ridge, linear=0.0):
    """Gradients (..., D, C), softmax probabilities (..., C, n) and logits
    less their class max (..., C, n) of regularized_objective: all but its
    values, which the solver never reads."""
    shifted = np.swapaxes(theta, -1, -2) @ xt
    shifted -= np.maximum.reduce(shifted, axis=-2, keepdims=True)
    probs = np.exp(shifted)
    probs /= np.add.reduce(probs, axis=-2, keepdims=True)
    grads = xt @ np.swapaxes(probs - yt, -1, -2) / xt.shape[-1] + ridge * theta + linear
    return grads, probs, shifted


def regularized_objective(theta, xt, yt, ridge, linear=0.0):
    """Values, gradients and softmax probabilities of mean loss + ridge/2 *
    ||theta||_F^2 + <linear, theta>, on stacks theta (..., D, C), class-major
    features xt (..., D, n) and labels yt (..., C, n). The regularized
    empirical risk is (ridge, linear) = (lam, 0), the loss-perturbation
    objective ((lam + rho) / N, B / N)."""
    grads, probs, shifted = objective_gradient(theta, xt, yt, ridge, linear)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=-2))
    values = ((log_z - np.add.reduce(shifted * yt, axis=-2)).mean(axis=-1)
              + ((0.5 * ridge * theta + linear) * theta).sum(axis=(-2, -1)))
    return values, grads, probs


def mc_logistic_hessian(a):
    """Hessian with respect to the logits: diag(p) - p p^T, p the probabilities
    of regularized_objective on the one-feature model whose parameters are a.

    Symmetric positive semidefinite, rows sum to zero, eigenvalues in [0, 1/2].
    Batched input (..., C) yields (..., C, C).
    """
    a = _as_finite(a, "logits")[..., None, :]
    p = objective_gradient(a, np.ones(a.shape[:-2] + (1, 1)), 0.0, 0.0)[1][..., 0]
    return p[..., :, None] * np.eye(a.shape[-1]) - p[..., :, None] * p[..., None, :]


def objective_hvp(xt, probs, ridge, delta):
    """Hessian-vector product X [P*V - P*colsum(P*V)]^T / n + ridge * delta,
    V = delta^T X, of regularized_objective at class-major X and P."""
    pv = probs * (np.swapaxes(delta, -1, -2) @ xt)
    pv -= probs * np.add.reduce(pv, axis=-2, keepdims=True)
    return xt @ np.swapaxes(pv, -1, -2) / xt.shape[-1] + ridge * delta


def loss_remainder(probs, v, step: float):
    """Mean loss change when the class-major logits move by step * v, less its
    first-order term: the column mean of log sum_j p_j exp(step (v_j - p.v))
    >= 0. log1p and expm1 keep it exact to rounding far below the rounding of
    the loss; an overflowing step gives inf or nan, which a line search
    rejects."""
    u = step * v
    u -= np.add.reduce(probs * u, axis=-2, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.log1p(np.add.reduce(probs * np.expm1(u), axis=-2)).mean(axis=-1)


def erm_objective(theta, features, labels, lam: float):
    """Regularized empirical risk: mean logistic loss + lam/2 * ||theta||_F^2.

    Returns (value, gradient); the gradient has theta's (D, C) shape.
    """
    theta, x, y = _check_data(theta, features, labels)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    value, grad, _ = regularized_objective(theta, x.T, y.T, lam)
    return float(value), grad


def perturbed_objective(theta, features, labels, lam: float, noise_b, rho: float):
    """Randomly perturbed objective used by loss-perturbation training.

    mean loss + (lam/N) * ||theta||_F^2 / 2 + (1/N) tr(B^T theta)
              + (rho / 2N) * ||theta||_F^2

    The regularization terms carry the extra 1/N; with noise_b = 0, rho = 0
    and lam' = N * lam this reduces to erm_objective(theta, ..., lam).
    Returns (value, gradient).
    """
    theta, x, y = _check_data(theta, features, labels)
    noise_b = _as_finite(noise_b, "noise_b")
    if noise_b.shape != theta.shape:
        raise ValueError(f"noise shape {noise_b.shape} does not match theta shape {theta.shape}")
    if lam < 0 or rho < 0:
        raise ValueError("lam and rho must be nonnegative")
    n = x.shape[0]
    value, grad, _ = regularized_objective(theta, x.T, y.T, (lam + rho) / n, noise_b / n)
    return float(value), grad
