"""Shared problem and model types consumed across the solver and classifier."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .linalg import Features, _check_scalar, _features, check_matrix
from .losses import LossSpec
from .projections import BallSpec, ball_norm

__all__ = ["Problem", "ProblemTemplate", "TrainedModel"]

FEASIBILITY_RTOL = 1e-9


@dataclass(frozen=True)
class ProblemTemplate:
    """Problem settings without data, for reuse across folds and sweeps.

    ``rho`` weighs the center-anchoring penalty (rho/2)||I - mu||_F^2 and
    ``alpha`` the optional elastic term (alpha/2)||W||_F^2, which the
    solver minimises with a shrink on W before each projection.
    """

    loss: LossSpec
    ball: BallSpec
    rho: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        _check_scalar(self.rho, "rho", "nonnegative and finite")
        _check_scalar(self.alpha, "alpha", "nonnegative and finite")

    def bind(self, X, Y) -> Problem:
        """Attach data to the template's settings."""
        return Problem(X=X, Y=Y, **{f.name: getattr(self, f.name)
                                    for f in fields(ProblemTemplate)})

    def with_radius(self, radius: float) -> ProblemTemplate:
        """Copy with a different constraint radius (a Problem's copy keeps its features record)."""
        return replace(self, ball=BallSpec(self.ball.kind, radius))


@dataclass(frozen=True, kw_only=True)
class Problem(ProblemTemplate):
    """Immutable training instance: a template's settings with data and one-hot labels.

    ``X`` may be given as a ``linalg.Features`` record; ``X`` then holds
    its matrix.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if isinstance(self.X, Features):
            object.__setattr__(self, "features", self.X)
            object.__setattr__(self, "X", self.X.X)
        X = check_matrix(self.X, "X")
        Y = check_matrix(self.Y, "Y")
        if X.shape[0] != Y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
        if Y.shape[1] < 2:
            raise ValueError("Y must have at least 2 classes")
        if not np.all((Y == 0.0) | (Y == 1.0)) or not np.all(Y.sum(axis=1) == 1.0):
            raise ValueError("Y must be one-hot: binary entries, one 1 per row")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n_classes(self) -> int:
        return self.Y.shape[1]

    def with_radius(self, radius: float) -> Problem:
        return replace(self, X=self.features, ball=BallSpec(self.ball.kind, radius))

    @cached_property
    def features(self) -> Features:
        """The record ``X`` was given as, or one built from ``X`` on first use."""
        return _features(self.X)


@dataclass(frozen=True)
class TrainedModel:
    """Final weights and centers, plus what is needed to score new samples.

    ``feature_scale`` is the divisor applied to the training features;
    queries must be divided by it before projecting through W.
    ``class_names[j]`` is class j's training label, ``"0".."k-1"`` unless given.
    """

    W: np.ndarray
    mu: np.ndarray
    ball: BallSpec
    loss: LossSpec
    feature_scale: float = 1.0
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        W = check_matrix(self.W, "W")
        mu = check_matrix(self.mu, "mu")
        d, k = W.shape
        if d < 1 or k < 2:
            raise ValueError(f"W must have a row and at least 2 classes, got shape {W.shape}")
        if mu.shape != (k, k):
            raise ValueError(f"mu has shape {mu.shape}, expected {(k, k)}")
        _check_scalar(self.feature_scale, "feature_scale", "positive and finite")
        if ball_norm(W, self.ball.kind) > self.ball.radius * (1.0 + FEASIBILITY_RTOL):
            raise ValueError("W violates the model's ball constraint")
        names = tuple(map(str, range(k))) if self.class_names is None else self.class_names
        if not (isinstance(names, (tuple, list)) and all(isinstance(n, str) for n in names)
                and len(set(names)) == len(names) == k):
            raise ValueError(f"class_names must be {k} distinct strings, got {names!r}")
        object.__setattr__(self, "class_names", tuple(names))
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "mu", mu)

    @property
    def n_features(self) -> int:
        return self.W.shape[0]

    @property
    def n_classes(self) -> int:
        return self.W.shape[1]
