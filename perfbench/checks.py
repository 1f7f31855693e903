"""Output checks. Each returns a list of failure messages; empty means pass."""

from __future__ import annotations

import math

import numpy as np

# Non-private test accuracy of the tradeoff_sweep data sits at 0.898 on seed 0
# (N = 5000, D = 30, C = 10, separation 3). The floor leaves room for other
# seeds; private mechanisms get no floor.
NONPRIVATE_ACCURACY_FLOOR = 0.85


def check_trials(records, floor: float = NONPRIVATE_ACCURACY_FLOOR) -> list[str]:
    """Every trial succeeded with a finite accuracy; nonprivate stays above floor."""
    failures = []
    for r in records:
        where = f"trial {r.mechanism} delta={r.delta} B={r.budget} #{r.trial}"
        if r.error is not None:
            failures.append(f"{where}: error {r.error}")
        elif not math.isfinite(r.accuracy):
            failures.append(f"{where}: accuracy {r.accuracy}")
        elif r.mechanism == "nonprivate" and r.accuracy < floor:
            failures.append(f"{where}: accuracy {r.accuracy:.4f} below floor {floor}")
    return failures


def check_forward_epsilon(privlin, sigma: float, cfg, privacy) -> list[str]:
    """Forward RDP accounting of the sigma DP-SGD used stays within the target."""
    spent = privlin.dpsgd_epsilon(sigma, cfg, privacy.delta)
    if not spent <= privacy.epsilon:
        return [f"dpsgd sigma {sigma:.6g} spends epsilon {spent:.6g} > {privacy.epsilon}"]
    return []


def check_gradient(privlin, theta, data, lam: float, tolerance: float) -> list[str]:
    """The nonprivate minimiser's gradient, recomputed with erm_objective, is small."""
    _, grad = privlin.erm_objective(theta, data.features, data.labels, lam)
    norm = float(np.linalg.norm(grad))
    if not norm <= tolerance:
        return [f"nonprivate gradient norm {norm:.3e} > tolerance {tolerance:g}"]
    return []


def check_logits(logits, where: str) -> list[str]:
    if not np.all(np.isfinite(logits)):
        return [f"{where}: non-finite logits"]
    return []


def check_labels(labels, n_classes: int, expected: int, where: str) -> list[str]:
    labels = np.asarray(labels)
    if labels.shape != (expected,):
        return [f"{where}: {labels.shape} answers, expected ({expected},)"]
    if labels.size and not (labels.min() >= 0 and labels.max() < n_classes):
        return [f"{where}: label outside [0, {n_classes})"]
    return []


def check_budget_gate(answered: int, refused: int, budget: int, extra: int,
                      remaining, where: str) -> list[str]:
    """Exactly `budget` answers, then `extra` refusals, and nothing left."""
    failures = []
    if answered != budget:
        failures.append(f"{where}: {answered} queries answered, budget is {budget}")
    if refused != extra:
        failures.append(f"{where}: {refused} of {extra} queries past the budget refused")
    if remaining != 0:
        failures.append(f"{where}: remaining_budget {remaining} after the budget was spent")
    return failures
