"""Data-fit losses, their dual prox steps, and the primal objective.

Three residual losses are supported on the residual R = Y mu - X W:

* ``l1``:        sum of absolute entries (robust, nonsmooth);
* ``huber``:     entrywise huber with knee ``delta`` (``delta = 0`` collapses
                 to the l1 loss);
* ``frobenius``: the Frobenius norm itself, not squared.

Each loss induces a closed-form prox on the dual variable: a shrink-and-clip
onto the unit box for huber/l1, and a radial projection onto the Frobenius
unit ball for the Frobenius loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import sparse_rows_product
from .projections import ball_norm, clip_box, proj_frobenius_unit

if TYPE_CHECKING:  # pragma: no cover
    from .model import Problem

__all__ = [
    "LossSpec",
    "ObjectiveBreakdown",
    "huber_value",
    "loss_matrix",
    "dual_prox",
    "primal_objective",
]

LOSS_KINDS = ("huber", "l1", "frobenius")


@dataclass(frozen=True)
class LossSpec:
    """Loss descriptor; ``delta``, the huber knee, is 1.0 if missing and 0.0 for other kinds."""

    kind: str
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}, expected one of {LOSS_KINDS}")
        if self.delta is None:
            object.__setattr__(self, "delta", 1.0 if self.kind == "huber" else 0.0)
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if self.kind != "huber" and self.delta != 0.0:
            raise ValueError(f"delta is only meaningful for the huber loss, got {self.delta}")


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Primal objective split into its terms.

    ``total = data_term + center_penalty + elastic_term``; the constraint
    violation is reported separately and is zero for feasible weights.
    """

    data_term: float
    center_penalty: float
    elastic_term: float
    total: float
    constraint_violation: float


def huber_value(t, delta: float):
    """Huber function: quadratic t^2/(2 delta) up to |t| = delta, linear beyond.

    ``delta = 0`` gives |t| exactly.  Accepts scalars or arrays; scalar in,
    float out.
    """
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    arr = np.asarray(t, dtype=np.float64)
    a = np.abs(arr)
    if delta == 0.0:
        out = a
    else:
        out = np.where(a <= delta, arr * arr / (2.0 * delta), a - delta / 2.0)
    if arr.ndim == 0:
        return float(out)
    return out


def loss_matrix(R, spec: LossSpec) -> float:
    """Evaluate the loss of a residual matrix."""
    R = np.asarray(R, dtype=np.float64)
    if spec.kind == "l1":
        return float(np.abs(R).sum())
    if spec.kind == "huber":
        return float(np.sum(huber_value(R, spec.delta)))
    return float(np.linalg.norm(R))


def dual_prox(Zbar, sigma: float, spec: LossSpec) -> np.ndarray:
    """Prox step on the dual variable induced by the loss.

    huber/l1: shrink by 1/(1 + sigma*delta) then clip entrywise to [-1, 1]
    (pure clipping when delta = 0); frobenius: radial projection onto the
    Frobenius unit ball.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if spec.kind == "frobenius":
        return proj_frobenius_unit(Zbar)
    return clip_box(np.asarray(Zbar, dtype=np.float64) / (1.0 + sigma * spec.delta))


def primal_objective(W, mu, problem: "Problem") -> ObjectiveBreakdown:
    """Evaluate the primal objective at (W, mu) for a training instance.

    X W is formed from the nonzero rows of W alone when at most one in eight
    is nonzero (``linalg.sparse_rows_product``), as a sparse ball's iterates
    and their averages are.
    """
    # C order: ||W||^2 adds in memory order
    W = np.ascontiguousarray(W, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    X, Y = problem.X, problem.Y
    if W.shape != (X.shape[1], Y.shape[1]):
        raise ValueError(f"W has shape {W.shape}, expected {(X.shape[1], Y.shape[1])}")
    k = Y.shape[1]
    if mu.shape != (k, k):
        raise ValueError(f"mu has shape {mu.shape}, expected {(k, k)}")
    R = Y @ mu - sparse_rows_product(X, W)
    data = loss_matrix(R, problem.loss)
    center = 0.5 * problem.rho * float(np.sum((np.eye(k) - mu) ** 2))
    elastic = 0.5 * problem.alpha * float(np.sum(W * W))
    violation = max(0.0, ball_norm(W, problem.ball.kind) - problem.ball.radius)
    return ObjectiveBreakdown(
        data_term=data,
        center_penalty=center,
        elastic_term=elastic,
        total=data + center + elastic,
        constraint_violation=violation,
    )
