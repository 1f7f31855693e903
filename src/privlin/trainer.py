"""Deterministic regularized training for linear multi-class models."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, is_number
# erm_objective, perturbed_objective and mc_logistic_hessian: profilers patch them here.
from .losses import erm_objective, mc_logistic_hessian, perturbed_objective  # noqa: F401
from .losses import class_leading_product, loss_remainder, objective_gradient, objective_hvp


class ConvergenceError(RuntimeError):
    """Training stopped before reaching the requested gradient tolerance."""

    def __init__(self, message: str, grad_norm: float):
        super().__init__(f"{message} (last gradient norm {grad_norm:.3e})")
        self.grad_norm = grad_norm


@dataclass
class TrainConfig:
    """Objective and stopping criteria for one training run.

    With noise_b set, the perturbed objective is minimized (rho adds the
    extra ridge); otherwise the plain regularized empirical risk.
    """

    lam: float
    max_iterations: int = 500
    grad_tolerance: float = 1e-8
    noise_b: np.ndarray | None = None
    rho: float = 0.0

    def __post_init__(self):
        if not (is_number(self.lam) and 0 < self.lam < math.inf):
            raise ValueError("lam must be positive and finite so the minimizer is unique, "
                             f"got {self.lam!r}")
        if not (is_number(self.grad_tolerance) and 0 < self.grad_tolerance < math.inf):
            raise ValueError("grad_tolerance must be positive and finite, "
                             f"got {self.grad_tolerance!r}")
        if not is_number(self.max_iterations, numbers.Integral) or self.max_iterations < 1:
            raise ValueError(f"max_iterations must be an integer >= 1: {self.max_iterations!r}")
        if not (is_number(self.rho) and 0 <= self.rho < math.inf):
            raise ValueError(f"rho must be nonnegative and finite, got {self.rho!r}")
        if self.noise_b is not None and not np.isfinite(self.noise_b).all():
            raise ValueError("noise_b must be finite")


def _compress(keep, stack):
    """The problems keep selects from a (T, C, n) stack of class-leading
    memory, in class-leading memory again."""
    return np.compress(keep, stack.swapaxes(0, 1), axis=1).swapaxes(0, 1)


def _newton_direction(xt, probs, ridge, grad, norms):
    """Conjugate gradient on H d = -g per problem, each stopped at its forcing
    tolerance min(0.5, sqrt||g||) ||g|| or after D*C iterations. A problem
    leaves the working stack when its CG stops, so Hessian-vector products
    are computed for running problems only."""
    forcing_sq = (np.minimum(0.5, np.sqrt(norms)) * norms) ** 2
    solved, live, residual = np.zeros_like(grad), np.arange(len(grad)), -grad
    direction, search, rs = np.zeros_like(grad), residual.copy(), norms * norms
    running = rs > forcing_sq
    for _ in range(grad.shape[1] * grad.shape[2]):
        if not running.all():
            solved[live[~running]] = direction[~running]
            if not running.any():
                return solved
            live, direction, residual, search, rs, forcing_sq, xt = (
                a[running] for a in (live, direction, residual, search, rs, forcing_sq, xt))
            probs = _compress(running, probs)
        h_search = objective_hvp(xt, probs, ridge, search)
        alpha = rs / (search * h_search).sum(axis=(1, 2))
        direction += alpha[:, None, None] * search
        residual -= alpha[:, None, None] * h_search
        rs_new = (residual * residual).sum(axis=(1, 2))
        running = rs_new > forcing_sq
        search = residual + (rs_new / rs)[:, None, None] * search
        rs = rs_new
    solved[live] = direction
    return solved


def _armijo_steps(xt, probs, grad, direction, ridge, fraction=1e-4, halvings=60):
    """Backtrack from the full step until f(theta + s d) - f(theta) <=
    fraction * s <g, d>, per problem; 0 where no halving passes. The change
    is s <g, d> + s^2 ridge ||d||^2 / 2 + loss_remainder, exact to rounding,
    so the test still decides near the minimizer. A problem leaves the
    working stack once its step is found."""
    slope = (1.0 - fraction) * (grad * direction).sum(axis=(1, 2))
    quad = 0.5 * ridge * (direction * direction).sum(axis=(1, 2))
    v = class_leading_product(np.swapaxes(direction, 1, 2), xt)
    steps, pending, step = np.zeros(len(grad)), np.arange(len(grad)), 1.0
    for _ in range(halvings):
        ok = (step * slope + step * step * quad + loss_remainder(probs, v, step)) <= 0.0
        if ok.any():
            steps[pending[ok]] = step
            if ok.all():
                break
            pending, slope, quad = pending[~ok], slope[~ok], quad[~ok]
            probs, v = _compress(~ok, probs), _compress(~ok, v)
        step = 0.5 * step
    return steps


def minimize_erm_stack(features, labels, cfg: TrainConfig) -> np.ndarray:
    """The (T, D, C) minimizers of T problems given as (T, n, D) features and
    (T, n, C) labels. Truncated Newton from theta = 0, per problem: conjugate
    gradient on the closed-form Hessian-vector product and an Armijo line
    search, until ||grad||_F <= grad_tolerance. A problem's iterates depend on
    its own data only, so results are deterministic and a slice does not
    change when the others do. Raises ConvergenceError with the worst gradient
    norm when a problem is above tolerance after max_iterations Newton
    iterations, or with the stack indices and worst norm of the problems whose
    line search finds no decrease. With noise_b set, the loss-perturbation
    objective has ridge (lam + rho) / n and linear term noise_b / n. The solve
    runs on class-major copies, so the caller's memory order cannot change the
    result; features whose (T, D, n) transpose and labels whose (C, T, n)
    transpose are C-contiguous are used without a copy."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 3 or y.ndim != 3 or x.shape[:2] != y.shape[:2] or x.shape[1] == 0:
        raise ValueError(f"features {x.shape} and labels {y.shape} must be nonempty "
                         "(T, n, D) and (T, n, C) stacks")
    t, n, d = x.shape
    ridge, linear = cfg.lam, 0.0
    if cfg.noise_b is not None:
        ridge, linear = (cfg.lam + cfg.rho) / n, np.asarray(cfg.noise_b, dtype=np.float64) / n
        if linear.shape != (d, y.shape[2]):
            raise ValueError(f"noise_b shape {linear.shape} does not match ({d}, {y.shape[2]})")

    solved = np.zeros((t, d, y.shape[2]))
    xs = np.ascontiguousarray(x.transpose(0, 2, 1))
    ys = np.ascontiguousarray(y.transpose(2, 0, 1)).swapaxes(0, 1)
    active, theta = np.arange(t), solved.copy()
    grad, probs, _ = objective_gradient(theta, xs, ys, ridge, linear)
    for iteration in range(cfg.max_iterations + 1):
        norms = np.sqrt((grad * grad).sum(axis=(1, 2)))
        done = norms <= cfg.grad_tolerance
        if done.any():  # drop converged problems from the stack
            solved[active[done]] = theta[done]
            if done.all():
                return solved
            active, theta, grad, norms, xs = (a[~done] for a in (active, theta, grad, norms, xs))
            probs, ys = _compress(~done, probs), _compress(~done, ys)
        if iteration == cfg.max_iterations:
            break
        direction = _newton_direction(xs, probs, ridge, grad, norms)
        steps = _armijo_steps(xs, probs, grad, direction, ridge)
        if not steps.all():
            raise ConvergenceError("line search found no decrease on problems "
                                   f"{active[steps == 0]}", float(norms[steps == 0].max()))
        theta = theta + steps[:, None, None] * direction
        grad, probs, _ = objective_gradient(theta, xs, ys, ridge, linear)
    raise ConvergenceError(f"failed to reach gradient tolerance {cfg.grad_tolerance:g} "
                           f"within {cfg.max_iterations} Newton iterations", float(norms.max()))


def minimize_erm(data: LabeledDataset, cfg: TrainConfig) -> np.ndarray:
    """The T = 1 case of minimize_erm_stack: theta (D, C) for one dataset."""
    return minimize_erm_stack(data.features[None], data.labels[None], cfg)[0]


def predict_logits(theta, rows) -> np.ndarray:
    """(k, C) linear scores rows @ theta for (k, D) rows."""
    theta = np.asarray(theta, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != theta.shape[0]:
        raise ValueError(f"rows must have shape (k, {theta.shape[0]}), got {rows.shape}")
    return rows @ theta
