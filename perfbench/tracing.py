"""Spans around calls into pireg's public functions, installed from the
benchmark by replacing module attributes, and the per-layer metrics derived
from them.

pireg's modules call each other through module globals (``regress.predict_rows``
calls ``build_design_matrix``, ``intlinalg.nullspace_basis`` calls
``smith_normal_form``), so replacing the attribute on the defining module also
catches the calls the library makes internally.  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import numpy as np

from pireg import cli, intlinalg, pi, regress, sims


def degree_box_size(spec, max_degree: int) -> int:
    """Size of the exponent box that enumeration and decoder search sweep:
    each exponent in [-cap, cap] (or [0, cap] without negative exponents),
    cap = max_degree // degree_weight."""
    n = 1
    for f in spec.features:
        cap = max_degree // f.degree_weight
        n *= 2 * cap + 1 if f.allow_negative_exponent else cap + 1
    return n


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_box(degree_pos):
    """kept monomials and degree-box candidates of a (spec, ..., max_degree)
    call, with max_degree at position degree_pos."""
    def count(out, args, kwargs):
        spec = _arg(args, kwargs, 0, "spec")
        max_degree = _arg(args, kwargs, degree_pos, "max_degree")
        return {"kept": len(out), "candidates": degree_box_size(spec, max_degree)}
    return count


def _count_lasso(out, args, kwargs):
    X = np.asarray(_arg(args, kwargs, 0, "X"), dtype=float)
    live = int(np.count_nonzero(X.std(axis=0) > 0.0))
    return {"sweeps": out.sweeps, "coord_updates": out.sweeps * live,
            "unconverged": int(not out.converged)}


def _count_rietkerk(out, args, kwargs):
    scale = kwargs.get("scale", args[3] if len(args) > 3 else sims.GridScale())
    steps = int(round(scale.total_time / sims.RietkerkParams().dt))
    runs = out.metadata["n_runs"]
    extinct = out.metadata["n_extinct"]
    return {"runs": runs, "extinct": extinct,
            "cell_steps": (runs - extinct) * steps * scale.n_cells ** 2}


def _bytes_at(pos, name):
    def count(out, args, kwargs):
        return {"bytes": os.path.getsize(_arg(args, kwargs, pos, name))}
    return count


# (module, attribute, layer, count function over (result, args, kwargs))
TRACED = [
    (intlinalg, "smith_normal_form", "intlinalg.snf", None),
    (pi, "enumerate_monomials", "pi.enumerate", _count_box(1)),
    (pi, "decoder_solutions", "pi.decoders", _count_box(2)),
    (pi, "dimensionless_basis", "pi.basis", None),
    (regress, "build_design_matrix", "regress.design", lambda out, a, k: {"entries": out.size}),
    (regress, "fit_ols", "regress.ols",
     lambda out, a, k: {"rank_deficient": int(out.rank_deficient)}),
    (regress, "fit_lasso", "regress.lasso", _count_lasso),
    (regress, "equivariance_residual", "regress.equivariance", None),
    (regress, "predict_rows", "regress.predict", None),
    (regress, "save_dataset_csv", "regress.io", _bytes_at(1, "path")),
    (regress, "save_model", "regress.io", _bytes_at(0, "path")),
    (regress, "load_dataset_csv", "regress.io", _bytes_at(0, "path")),
    (regress, "load_model", "regress.io", _bytes_at(0, "path")),
    (sims, "rietkerk_experiment", "sims.rietkerk", _count_rietkerk),
    (sims, "sample_pendulum_dataset", "sims.pendulum", None),
    (cli, "run_springy", "cli", None),
    (cli, "run_rietkerk", "cli", None),
]

ROOT = "op"


class Tracer:
    """Records spans as [name, start, end, parent index, op id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op_id: int | None = None

    def span(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                rec[5] = count(out, args, kwargs)
            return out
        return traced

    def install(self):
        for module, attr, layer, count in TRACED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.span(layer, fn, count))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def run_op(self, op_id, fn, *args):
        self.op_id = op_id
        try:
            return self.span(ROOT, fn)(*args)
        finally:
            self.op_id = None

    def to_json(self):
        keys = ("name", "start", "end", "parent", "op", "counts")
        return [dict(zip(keys, rec)) for rec in self.spans]


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover (calls are
    sequential, so children never overlap)."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


LAYER_METRICS = [
    ("intlinalg.snf.calls", "count"), ("intlinalg.self_s", "s"),
    ("pi.enumerate.self_s", "s"), ("pi.enumerate.candidates", "count"),
    ("pi.enumerate.kept", "count"), ("pi.enumerate.yield", "ratio"),
    ("pi.decoders.self_s", "s"), ("pi.decoders.candidates", "count"),
    ("pi.decoders.kept", "count"), ("pi.decoders.yield", "ratio"),
    ("pi.basis.self_s", "s"),
    ("regress.design.calls", "count"), ("regress.design.self_s", "s"),
    ("regress.design.entries", "count"), ("regress.design.entries_per_s", "1/s"),
    ("regress.design.call_p50_ms", "ms"),
    ("regress.predict.calls", "count"), ("regress.predict.self_s", "s"),
    ("regress.ols.calls", "count"), ("regress.ols.self_s", "s"),
    ("regress.ols.rank_deficient", "count"),
    ("regress.lasso.calls", "count"), ("regress.lasso.self_s", "s"),
    ("regress.lasso.sweeps", "count"), ("regress.lasso.coord_updates", "count"),
    ("regress.lasso.unconverged", "count"),
    ("regress.equivariance.self_s", "s"), ("regress.equivariance.total_s", "s"),
    ("regress.io.self_s", "s"), ("regress.io.bytes", "bytes"),
    ("sims.rietkerk.self_s", "s"), ("sims.rietkerk.runs", "count"),
    ("sims.rietkerk.extinct", "count"), ("sims.rietkerk.survivor_yield", "ratio"),
    ("sims.rietkerk.cell_steps_per_s", "1/s"),
    ("sims.pendulum.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.op_p50_s", "s"), ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
]


def layer_metrics(spans, traced_walls, untraced_walls) -> dict[str, float]:
    """Per-op means of self time and counts over the traced ops, plus the
    ratios and the tracing overhead.  traced_walls and untraced_walls are the
    loop-measured wall times of the same ops with tracing on and off."""
    n_ops = len(traced_walls)
    selfs = self_times(spans)
    by_layer: dict[str, dict] = {}
    design_calls_ms = []
    for rec, self_s in zip(spans, selfs):
        name, start, end, _, _, counts = rec
        acc = by_layer.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        acc["calls"] += 1
        acc["self_s"] += self_s
        acc["total_s"] += end - start
        for key, value in (counts or {}).items():
            acc[key] = acc.get(key, 0) + value
        if name == "regress.design":
            design_calls_ms.append(1000.0 * (end - start))

    def get(layer, key):
        return by_layer.get(layer, {}).get(key, 0)

    def per_op(layer, key):
        return get(layer, key) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "intlinalg.snf.calls": per_op("intlinalg.snf", "calls"),
        "intlinalg.self_s": per_op("intlinalg.snf", "self_s"),
        "pi.basis.self_s": per_op("pi.basis", "self_s"),
        "regress.design.calls": per_op("regress.design", "calls"),
        "regress.design.self_s": per_op("regress.design", "self_s"),
        "regress.design.entries": per_op("regress.design", "entries"),
        "regress.design.entries_per_s": ratio(get("regress.design", "entries"),
                                              get("regress.design", "self_s")),
        "regress.design.call_p50_ms": (statistics.median(design_calls_ms)
                                       if design_calls_ms else 0.0),
        "regress.predict.calls": per_op("regress.predict", "calls"),
        "regress.predict.self_s": per_op("regress.predict", "self_s"),
        "regress.ols.calls": per_op("regress.ols", "calls"),
        "regress.ols.self_s": per_op("regress.ols", "self_s"),
        "regress.ols.rank_deficient": per_op("regress.ols", "rank_deficient"),
        "regress.equivariance.self_s": per_op("regress.equivariance", "self_s"),
        "regress.equivariance.total_s": per_op("regress.equivariance", "total_s"),
        "regress.io.self_s": per_op("regress.io", "self_s"),
        "regress.io.bytes": per_op("regress.io", "bytes"),
        "sims.rietkerk.self_s": per_op("sims.rietkerk", "self_s"),
        "sims.rietkerk.runs": per_op("sims.rietkerk", "runs"),
        "sims.rietkerk.extinct": per_op("sims.rietkerk", "extinct"),
        "sims.rietkerk.survivor_yield": ratio(
            get("sims.rietkerk", "runs") - get("sims.rietkerk", "extinct"),
            get("sims.rietkerk", "runs")),
        # computed, not counted: survivors x steps x n^2 over self time; the
        # partial steps of extinct runs are left out
        "sims.rietkerk.cell_steps_per_s": ratio(get("sims.rietkerk", "cell_steps"),
                                                get("sims.rietkerk", "self_s")),
        "sims.pendulum.self_s": per_op("sims.pendulum", "self_s"),
        "cli.self_s": per_op("cli", "self_s"),
        "trace.op_p50_s": statistics.median(traced_walls),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
        # share of the loop-measured traced op time that layer and cli self
        # times account for; the rest is span bookkeeping and the op's glue
        "trace.coverage": ratio(sum(s for rec, s in zip(spans, selfs) if rec[0] != ROOT),
                                sum(traced_walls)),
    }
    for layer in ("pi.enumerate", "pi.decoders"):
        m[f"{layer}.self_s"] = per_op(layer, "self_s")
        m[f"{layer}.candidates"] = per_op(layer, "candidates")
        m[f"{layer}.kept"] = per_op(layer, "kept")
        m[f"{layer}.yield"] = ratio(get(layer, "kept"), get(layer, "candidates"))
    for key in ("calls", "self_s", "sweeps", "coord_updates", "unconverged"):
        m[f"regress.lasso.{key}"] = per_op("regress.lasso", key)
    return m
