"""Span tracer for the benchmark's traced run.

The tracer wraps each public library function at the name its caller looks
it up by (``pdsparse.classify.solve``, ``pdsparse.solver.project_ball``, ...)
and, while an operation is open, records one span per call: name, start,
end, parent span and operation id, plus counts read off the arguments and
the result.  Spans stay in memory; ``write`` puts them in a file when the
run ends, and ``metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

import pdsparse
from pdsparse import classify, linalg, projections, solver

# An operation that is a single library call must have its wall time
# accounted for by the self times of its spans to within this share.
SELF_TIME_GAP = 0.01


def _solve_counts(args, out):
    X = args[0].X
    return {"iters": max(out[1].iterations()), "m": X.shape[0], "d": X.shape[1]}


def _norm_counts(args, out):
    return {"iters": out.iterations, "unconverged": int(not out.converged)}


def _projection_counts(args, out):
    return {"nnz": int(np.count_nonzero(out)), "size": int(out.size)}


def _evaluate_counts(args, out):
    return {"rows": int(np.shape(args[0])[0])}


class Tracer:
    """Records spans of the wrapped functions between ``start`` and ``stop``."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.ops: list[dict] = []  # one per operation: name, phase, wall_s
        self.phase = "setup"
        self._stack: list[int] = []
        self._active = False
        self._saved: list[tuple] = []

    # -- operation boundaries, called by the workloads around timed calls --

    def start(self, name: str) -> None:
        self.ops.append({"name": name, "phase": self.phase, "wall_s": None})
        self._active = True

    def stop(self, seconds: float) -> None:
        self._active = False
        self.ops[-1]["wall_s"] = seconds

    # -- wrapping --

    def _wrap(self, fn, label, counts=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            i = len(tracer.names)
            tracer.names.append(label if isinstance(label, str) else label(args))
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op_ids.append(len(tracer.ops) - 1)
            tracer.ends.append(0.0)
            tracer._stack.append(i)
            tracer.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = time.perf_counter()
                tracer._stack.pop()
            if counts is not None:
                tracer.attrs.setdefault(i, {}).update(counts(args, out))
            return out

        return traced

    def _count_l12_newton(self, fn):
        """``proj_l12`` with its Newton iterations added to the open span."""
        tracer = self

        def counted(*args, **kwargs):
            W, state = fn(*args, **kwargs)
            if tracer._active and tracer._stack:
                span = tracer.attrs.setdefault(tracer._stack[-1], {})
                span["newton_iters"] = span.get("newton_iters", 0) + state.iterations
            return W

        return counted

    def _replacements(self):
        """(span label, counts, call sites) for every traced function."""
        return [
            ("data_io.generate_synthetic", None, [(pdsparse, "generate_synthetic")]),
            ("classify.train_model", None, [(pdsparse, "train_model"),
                                            (classify, "train_model")]),
            ("classify.cross_validate", None, [(pdsparse, "cross_validate"),
                                               (classify, "cross_validate")]),
            ("classify.eta_sweep", None, [(pdsparse, "eta_sweep")]),
            ("classify.evaluate", _evaluate_counts, [(pdsparse, "evaluate"),
                                                     (classify, "evaluate")]),
            ("classify.predict", None, [(pdsparse, "predict")]),
            ("linalg.normalize_features", None, [(classify, "normalize_features")]),
            ("solver.solve", _solve_counts, [(classify, "solve")]),
            ("linalg.spectral_norm", _norm_counts, [(solver, "spectral_norm"),
                                                    (linalg, "spectral_norm")]),
            (lambda args: "projections." + args[1].kind, _projection_counts,
             [(solver, "project_ball")]),
            ("losses.dual_prox", None, [(solver, "dual_prox")]),
            ("losses.primal_objective", None, [(solver, "primal_objective")]),
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for label, counts, sites in self._replacements():
            original = getattr(*sites[0])
            if any(getattr(mod, attr) is not original for mod, attr in sites):
                raise RuntimeError(f"call sites of {sites[0][1]} disagree")
            wrapped = self._wrap(original, label, counts)
            for mod, attr in sites:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapped)
        self._saved.append((projections, "proj_l12", projections.proj_l12))
        projections.proj_l12 = self._count_l12_newton(projections.proj_l12_with_state)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results --

    def _self_times(self):
        start = np.array(self.starts)
        dur = np.array(self.ends) - start
        parent = np.array(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur, dur - child

    def _fit_ops(self) -> list[int]:
        """Pass operations that are a single library call: fits and sweeps."""
        return [i for i, op in enumerate(self.ops)
                if op["phase"] == "pass" and op["name"].startswith(("fit.", "sweep"))]

    def accounting_errors(self) -> list[str]:
        """Fits and sweeps whose span self times do not add up to their wall.

        Such an operation is one call to a wrapped function, so the self
        times of its spans sum to that call's duration, and must match the
        harness's wall time to within ``SELF_TIME_GAP``.  A mismatch means
        the spans are mis-nested or the timed region holds more than the
        call: a fault of the harness, not of the library.
        """
        _, self_t = self._self_times()
        per_op = np.zeros(len(self.ops))
        np.add.at(per_op, np.array(self.op_ids, dtype=np.int64), self_t)
        errors = []
        for i in self._fit_ops():
            wall = self.ops[i]["wall_s"]
            if not 0.0 <= (wall - per_op[i]) / wall <= SELF_TIME_GAP:
                errors.append(f"{self.ops[i]['name']}: self times cover "
                              f"{per_op[i]:.6f} s of {wall:.6f} s")
        return errors

    def unattributed_frac(self) -> float:
        """Share of fit and sweep wall time that no module below classify took.

        It is the self time of the ``classify`` spans (argument checks,
        fold splitting, model assembly) over the operations' wall time; 0
        where the workload runs no fit.
        """
        _, self_t = self._self_times()
        ops = set(self._fit_ops())
        wall = sum(self.ops[i]["wall_s"] for i in ops)
        unattributed = sum(t for t, name, o in zip(self_t, self.names, self.op_ids)
                           if o in ops and name.startswith("classify."))
        return unattributed / wall if wall else 0.0

    def metrics(self, n_passes: int) -> dict[str, float]:
        """Per-layer figures for one set-up plus one pass.

        Spans of pass operations are divided by ``n_passes``; every metric
        is present, and reads 0 where its module did no work.
        """
        dur, self_t = self._self_times()
        weight = np.array([1.0 if self.ops[o]["phase"] == "setup" else 1.0 / n_passes
                           for o in self.op_ids])
        calls, secs, selfs, counts = {}, {}, {}, {}
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0.0) + weight[i]
            secs[name] = secs.get(name, 0.0) + weight[i] * dur[i]
            selfs[name] = selfs.get(name, 0.0) + weight[i] * self_t[i]
            for key, value in self.attrs.get(i, {}).items():
                k = (name, key)
                counts[k] = counts.get(k, 0.0) + weight[i] * value
            if name == "solver.solve":
                a = self.attrs[i]
                k = ("solver.solve", "x_bytes")
                counts[k] = counts.get(k, 0.0) + weight[i] * 2 * a["m"] * a["d"] * 8 * a["iters"]

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        norm = "linalg.spectral_norm"
        out[f"{norm}.calls"] = calls.get(norm, 0.0)
        out[f"{norm}.s"] = secs.get(norm, 0.0)
        out[f"{norm}.iters"] = counts.get((norm, "iters"), 0.0)
        out[f"{norm}.unconverged"] = counts.get((norm, "unconverged"), 0.0)
        out["linalg.normalize_features.s"] = secs.get("linalg.normalize_features", 0.0)

        sol = "solver.solve"
        iters = counts.get((sol, "iters"), 0.0)
        out[f"{sol}.calls"] = calls.get(sol, 0.0)
        out[f"{sol}.s"] = secs.get(sol, 0.0)
        out[f"{sol}.self_s"] = selfs.get(sol, 0.0)
        out[f"{sol}.iters"] = iters
        out["solver.self_ms_per_iter"] = 1e3 * ratio(selfs.get(sol, 0.0), iters)
        out["solver.x_gbps_computed"] = 1e-9 * ratio(counts.get((sol, "x_bytes"), 0.0),
                                                     selfs.get(sol, 0.0))

        nnz = size = 0.0
        for ball in projections.BALL_KINDS:
            p = f"projections.{ball}"
            out[f"{p}.calls"] = calls.get(p, 0.0)
            out[f"{p}.s"] = secs.get(p, 0.0)
            out[f"{p}.us_per_call"] = 1e6 * ratio(secs.get(p, 0.0), calls.get(p, 0.0))
            nnz += counts.get((p, "nnz"), 0.0)
            size += counts.get((p, "size"), 0.0)
        out["projections.support_frac"] = ratio(nnz, size)
        out["projections.l12.newton_iters"] = counts.get(("projections.l12", "newton_iters"), 0.0)

        for fn in ("losses.dual_prox", "losses.primal_objective"):
            out[f"{fn}.calls"] = calls.get(fn, 0.0)
            out[f"{fn}.s"] = secs.get(fn, 0.0)
        for fn in ("train_model", "cross_validate", "eta_sweep", "evaluate", "predict"):
            out[f"classify.{fn}.calls"] = calls.get(f"classify.{fn}", 0.0)
            out[f"classify.{fn}.s"] = secs.get(f"classify.{fn}", 0.0)
        out["classify.evaluate.rows"] = counts.get(("classify.evaluate", "rows"), 0.0)
        out["data_io.generate_synthetic.s"] = secs.get("data_io.generate_synthetic", 0.0)
        out["trace.spans"] = float(sum(weight))
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, run id and counts.

        The run id numbers the operation the span belongs to.
        """
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                op = self.ops[self.op_ids[i]]
                row = {"name": name, "start": self.starts[i], "end": self.ends[i],
                       "parent": self.parents[i], "run": self.op_ids[i],
                       "op_name": op["name"], "phase": op["phase"]}
                row.update(self.attrs.get(i, {}))
                fh.write(json.dumps(row) + "\n")
