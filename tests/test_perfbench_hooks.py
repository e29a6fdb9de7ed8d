"""The benchmark's tracer still finds every call site it patches.

``perfbench/tracing.py`` wraps library functions at the names their callers
look them up by.  A refactor that renames or inlines one of them would only
show in a traced benchmark run; this runs one tiny traced fit per ball, and
one tiny traced radius sweep, so it shows here instead.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import pdsparse
from pdsparse import classify, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


@pytest.mark.parametrize("ball, d", [pytest.param(b, 16, id=b)
                                     for b in ("l1", "l21", "l12", "nuclear")]
                         # d > m: solve projects the nuclear ball in the row space of X
                         + [pytest.param("nuclear", 40, id="nuclear-wide")])
def test_traced_fit_reaches_every_layer(tracing, ball, d):
    ds = pdsparse.generate_synthetic(pdsparse.SyntheticSpec(
        m=24, d=d, k=3, s=4, separation=2.0, noise_sd=0.2, dropout_rate=0.0, seed=5))
    template = pdsparse.ProblemTemplate(loss=pdsparse.LossSpec("huber", 1.0),
                                        ball=pdsparse.BallSpec(ball, 2.0))
    params = pdsparse.SolverParams(max_iter=20, record_every=10)
    original_solve = classify.solve
    tracer = tracing.Tracer()
    with tracer.installed():
        assert classify.solve is not original_solve
        tracer.phase = "pass"
        tracer.start(f"fit.{ball}")
        pdsparse.train_model(ds.X, ds.labels, template, params=params)
        tracer.stop(1.0)
    assert classify.solve is original_solve and solver.spectral_norm is pdsparse.spectral_norm

    metrics = tracer.metrics(1)
    assert metrics["classify.train_model.calls"] == 1
    assert metrics["linalg.normalize_features.s"] > 0
    assert metrics["solver.solve.calls"] == 1
    assert metrics["solver.solve.iters"] == 20
    # one estimate, in normalize_features: solve takes it from the problem
    assert metrics["linalg.spectral_norm.calls"] == 1
    assert metrics["linalg.spectral_norm.iters"] > 0
    assert metrics[f"projections.{ball}.calls"] == 20
    assert metrics["losses.dual_prox.calls"] == 20
    # two objectives per record: the iterate and the ergodic average
    assert metrics["losses.primal_objective.calls"] == 4
    assert 0 < metrics["projections.support_frac"] <= 1
    if ball == "l12":
        assert metrics["projections.l12.newton_iters"] > 0
    assert all(np.isfinite(v) for v in metrics.values())


def test_traced_sweep_binds_each_fold_once(tracing):
    ds = pdsparse.generate_synthetic(pdsparse.SyntheticSpec(
        m=24, d=16, k=3, s=4, separation=2.0, noise_sd=0.2, dropout_rate=0.0, seed=5))
    template = pdsparse.ProblemTemplate(loss=pdsparse.LossSpec("huber", 1.0),
                                        ball=pdsparse.BallSpec("l1", 2.0))
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.phase = "pass"
        tracer.start("sweep")
        pdsparse.eta_sweep(ds.X, ds.labels, [1.0, 2.0], template,
                           params=pdsparse.SolverParams(max_iter=20), folds=3)
        tracer.stop(1.0)

    metrics = tracer.metrics(1)
    assert metrics["classify.eta_sweep.calls"] == 1
    # 2 radii x (3 folds + the full data), from 3 + 1 bindings made once
    assert metrics["solver.solve.calls"] == 2 * 4
    assert metrics["linalg.spectral_norm.calls"] == 4
    assert metrics["classify.cross_validate.calls"] == 0
    assert metrics["classify.train_model.calls"] == 0
