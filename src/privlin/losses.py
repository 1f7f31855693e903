"""The multi-class logistic loss has one implementation: the stacked
regularized objective every fit runs. Per-row losses of logits a (n, C) are its
one-feature case, whose parameters are the logits: regularized_objective(a[:,
None, :], ones((n, 1, 1)), y[:, None, :], 0.0) gives l(a_i), p_i - y_i and p_i."""

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


def _row_sums(a):
    """Sums over the short last axis as a matrix-vector product: several times
    faster than numpy's reduction there."""
    return a @ np.ones(a.shape[-1])


def regularized_objective(theta, x, y, ridge, linear=None):
    """Values, gradients and softmax probabilities of mean loss + ridge/2 *
    ||theta||_F^2 + <linear, theta>, on stacks theta (..., D, C), x (..., n, D)
    and y (..., n, C). The regularized empirical risk is (ridge, linear) =
    (lam, None), the loss-perturbation objective ((lam + rho) / N, B / N)."""
    logits = x @ theta
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    z = _row_sums(e)
    probs = e / z[..., None]
    values = ((np.log(z) - _row_sums(shifted * y)).mean(axis=-1)
              + 0.5 * ridge * (theta * theta).sum(axis=(-2, -1)))
    grads = np.swapaxes(x, -1, -2) @ (probs - y) / x.shape[-2] + ridge * theta
    if linear is not None:
        values = values + (linear * theta).sum(axis=(-2, -1))
        grads = grads + linear
    return values, grads, probs


def mc_logistic_hessian(a):
    """Hessian with respect to the logits: diag(p) - p p^T, p the probabilities
    of regularized_objective on the one-feature model whose parameters are a.

    Symmetric positive semidefinite, rows sum to zero, eigenvalues in [0, 1/2].
    Batched input (..., C) yields (..., C, C).
    """
    a = _as_finite(a, "logits")[..., None, :]
    _, _, p = regularized_objective(a, np.ones(a.shape[:-1] + (1,)), np.zeros_like(a), 0.0)
    p = p[..., 0, :]
    return p[..., :, None] * np.eye(a.shape[-1]) - p[..., :, None] * p[..., None, :]


def objective_hvp(x, probs, ridge, delta):
    """Hessian-vector product X^T [P*V - P*rowsum(P*V)] / n + ridge * delta,
    V = X delta, of regularized_objective at softmax probabilities P."""
    pv = probs * (x @ delta)
    pv -= probs * _row_sums(pv)[..., None]
    return np.swapaxes(x, -1, -2) @ pv / x.shape[-2] + ridge * delta


def loss_remainder(probs, v, step: float):
    """Mean loss change when the logits move by step * v, less its first-order
    term: the row mean of log sum_j p_j exp(step (v_j - p.v)) >= 0. log1p and
    expm1 keep it exact to rounding far below the rounding of the loss; an
    overflowing step gives inf or nan, which a line search rejects."""
    u = step * v
    u -= _row_sums(probs * u)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.log1p(_row_sums(probs * np.expm1(u))).mean(axis=-1)


def erm_objective(theta, features, labels, lam: float):
    """Regularized empirical risk: mean logistic loss + lam/2 * ||theta||_F^2.

    Returns (value, gradient); the gradient has theta's (D, C) shape.
    """
    theta, x, y = _check_data(theta, features, labels)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    value, grad, _ = regularized_objective(theta, x, y, lam)
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
    value, grad, _ = regularized_objective(theta, x, y, (lam + rho) / n, noise_b / n)
    return float(value), grad
