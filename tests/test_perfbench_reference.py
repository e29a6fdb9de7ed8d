"""Fits on benchmark inputs stay on ``perfbench/reference.json``'s trajectories.

The benchmark checks every fit's recorded objectives against the stored
reference to ``TRAJECTORY_RTOL``.  A change that moves them would only show
at the benchmark's gate; this fits one ``paper`` input on every ball and one
``wide`` input through the benchmark's own ``FitWorkload.fit`` and
``fit_problems`` so it shows here, and the l12 fit, whose multiplier search
starts where the previous iteration's ended, on three more ``paper`` inputs.
Nothing under ``perfbench/`` is written.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["paper", "wide"])
def test_fits_match_the_reference(workloads, name):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(0)
    reference = workload.reference(state)
    assert reference, f"no reference recorded for {name} data seed {state['data_seed']}"
    for ball in workload.balls:
        model, history, _ = workload.fit(state, ball, workloads.Untraced())
        assert workloads.fit_problems(model, history, ball, workloads.ETA,
                                      reference.get(ball)) == [], ball


@pytest.mark.parametrize("data_seed", [1, 25, 31])
def test_l12_fits_match_the_reference(workloads, data_seed):
    workload = workloads.WORKLOADS["paper"]
    state = workload.setup(data_seed)
    reference = workload.reference(state)
    assert state["data_seed"] == data_seed and "l12" in reference
    model, history, _ = workload.fit(state, "l12", workloads.Untraced())
    assert workloads.fit_problems(model, history, "l12", workloads.ETA,
                                  reference["l12"]) == []
