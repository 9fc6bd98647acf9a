"""Datasets, design matrices, and the two regression fits (OLS, LASSO).

A model is trained in dimensionless space: with decoder D(x) carrying the
label units, the target per row is eta_t = y_t / D(x_t) and predictions are
y_hat = D(x) * eta_hat(x).  Because every regression feature is a
dimensionless monomial and the decoder rescales exactly like the label, a
unit change of the inputs rescales predictions by exactly the group factor,
with no retraining.  A model with decoder None is a deliberately
non-equivariant direct fit on the dimensional label; the Rietkerk baseline
uses it.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import glob
import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .pi import (
    DataError,
    FeatureSpec,
    Monomial,
    MonomialSet,
    SCHEMA_VERSION,
    as_monomial_set,
    build_design_matrix,
    finite_number,
    monomials_from_json,
    monomials_to_json,
    read_json_file,
    require_units,
)
from .units import (
    GroupElement,
    Quantity,
    UnitVector,
    UnitMismatch,
    format_unit,
    parse_unit,
    scale_factor,
)


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the scipy-openblas library that
    numpy wheels bundle, or None where numpy links another BLAS; looked up
    on first use."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


def serial_blas_available() -> bool:
    """Whether _serial_blas pins BLAS to one thread; where it cannot, a
    fitted model's metadata records "blas_serial": false."""
    return _openblas_threads() is not None


@contextlib.contextmanager
def _serial_blas():
    """BLAS on one thread inside the block, its thread count restored after.

    A multithreaded BLAS splits a product or factorization into blocks
    whose partial sums it adds in another order, so the last bits of a fit
    or a prediction depend on the thread count.  Every function whose
    results reach an artifact runs under this manager, which makes the
    artifacts those of one thread at any OPENBLAS_NUM_THREADS.  It does
    nothing where the library is not found (serial_blas_available)."""
    blas = _openblas_threads()
    threads = blas[0]() if blas is not None else 1
    if threads == 1:
        yield
        return
    blas[1](1)
    try:
        yield
    finally:
        blas[1](threads)


class RankDeficientWarning(UserWarning):
    pass


class LassoConvergenceWarning(UserWarning):
    pass


class ZeroScale(ZeroDivisionError):
    pass


@dataclass(frozen=True)
class Dataset:
    """N rows of d feature values plus N labels sharing one unit vector."""

    spec: FeatureSpec
    rows: np.ndarray
    label_values: np.ndarray
    label_units: UnitVector

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        labels = np.asarray(self.label_values, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.spec.d:
            raise ValueError(f"rows must be (N, {self.spec.d}), got {rows.shape}")
        if labels.shape != (rows.shape[0],):
            raise ValueError("one label per row required")
        if len(self.label_units) != self.spec.k:
            raise UnitMismatch(self.label_units.exps, self.spec.system.names,
                               "label unit exponents and base units")
        for values, columns in ((rows, self.spec.names()), (labels[:, None], ["label"])):
            bad = ~np.isfinite(values)
            if bad.any():
                t, c = np.argwhere(bad)[0]
                raise DataError(
                    f"non-finite value {values[t, c]} at row {t}, column {columns[c]!r}"
                )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "label_values", labels)

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def save_dataset_csv(data: Dataset, path) -> None:
    """Two-line header: feature names + "label", then one unit expression per
    column; float values below."""
    sys_ = data.spec.system
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(data.spec.names() + ["label"])
        w.writerow(
            [format_unit(f.units, sys_) for f in data.spec.features]
            + [format_unit(data.label_units, sys_)]
        )
        for row, y in zip(data.rows, data.label_values):
            w.writerow([repr(float(v)) for v in row] + [repr(float(y))])


def load_dataset_csv(path, spec: FeatureSpec, label_units: UnitVector | None = None) -> Dataset:
    """Load a two-line-header CSV whose feature names and units match spec,
    and whose label units match label_units when given: ValueError naming
    the columns, or UnitMismatch naming the column (for the label also the
    path) and both unit expressions, where they do not.  DataError for
    missing header lines or data rows, a last column not named `label`, a
    wrong row width, a non-numeric cell (named by file line and column) and
    a non-finite value."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            names = next(r)
            unit_row = next(r)
        except StopIteration:
            raise DataError(f"{path}: missing the two header lines") from None
        if len(unit_row) != len(names):
            raise DataError(f"{path}: header rows disagree in length")
        if not names or names[-1] != "label":
            raise DataError(f"{path}: last column must be named `label`")
        body = [(r.line_num, row) for row in r if row]
    if names[:-1] != spec.names():
        raise ValueError(f"{path}: feature columns {names[:-1]} do not match spec {spec.names()}")
    units = [parse_unit(expr, spec.system) for expr in unit_row]
    for f, u in zip(spec.features, units[:-1]):
        if f.units != u:
            raise UnitMismatch(format_unit(f.units, spec.system), format_unit(u, spec.system),
                               f"the spec and column {f.name!r}")
    if label_units is not None and units[-1] != label_units:
        raise UnitMismatch(format_unit(label_units, spec.system), format_unit(units[-1], spec.system),
                           f"the expected label and {path}'s column 'label'")
    if not body:
        raise DataError(f"{path}: no data rows")
    values = np.empty((len(body), len(names)))
    for t, (line, row) in enumerate(body):
        if len(row) != len(names):
            raise DataError(f"{path}: line {line} has {len(row)} cells, the header {len(names)}")
        for c, text in enumerate(row):
            try:
                values[t, c] = float(text)
            except ValueError:
                raise DataError(
                    f"{path}: line {line}, column {names[c]!r}: {text!r} is not a number"
                ) from None
    return Dataset(spec, values[:, :-1], values[:, -1], units[-1])


# ---------------------------------------------------------------------------
# fits

@dataclass
class OlsFit:
    weights: np.ndarray
    rank: int
    rank_deficient: bool


@_serial_blas()
def fit_ols(X: np.ndarray, y: np.ndarray, ridge: float = 0.0) -> OlsFit:
    """Least squares via orthogonal factorization (SVD), never normal equations.

    ridge > 0 solves the augmented stacked system, which is full rank by
    construction.  At ridge 0 the columns are equilibrated to unit norm
    first (monomial columns span many orders of magnitude); if that solve
    reports rank < p, the unequilibrated problem is re-solved so the
    returned solution is minimum-norm in the original weight scale, and a
    RankDeficientWarning reports the effective rank.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("label vector length mismatch")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    if ridge > 0:
        X_aug = np.vstack([X, np.sqrt(ridge) * np.eye(p)])
        y_aug = np.concatenate([y, np.zeros(p)])
        w, _, rank_, _ = np.linalg.lstsq(X_aug, y_aug, rcond=None)
        return OlsFit(w, int(rank_), False)
    norms = np.sqrt((X * X).sum(axis=0))
    norms[norms == 0.0] = 1.0
    z, _, rank_, _ = np.linalg.lstsq(X / norms, y, rcond=None)
    if rank_ < p:
        w, _, rank_, _ = np.linalg.lstsq(X, y, rcond=None)
        warnings.warn(
            f"design matrix is rank deficient: rank {int(rank_)} < {p} columns; "
            "returning the minimum-norm solution",
            RankDeficientWarning,
        )
        return OlsFit(w, int(rank_), True)
    return OlsFit(z / norms, int(rank_), False)


@dataclass
class LassoFit:
    weights: np.ndarray
    intercept: float
    converged: bool
    sweeps: int
    objectives: list[float]
    gap: float


def soft_threshold(rho: float, lam: float) -> float:
    if rho > lam:
        return rho - lam
    if rho < -lam:
        return rho + lam
    return 0.0


@_serial_blas()
def lasso_lambda_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest lambda at which every penalized weight is exactly zero,
    computed on the internally standardized problem."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    sd = X.std(axis=0)
    live = sd > 0.0
    Xs = (X[:, live] - X[:, live].mean(axis=0)) / sd[live]
    yc = y - y.mean()
    if not np.any(live):
        return 0.0
    return float(np.max(np.abs(Xs.T @ yc)) / len(y))


@_serial_blas()
def fit_lasso(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_sweeps: int = 1000,
    tol: float = 1e-10,
) -> LassoFit:
    """Coordinate descent on (1/2N)||Xw - y||^2 + lam * ||w||_1 in covariance
    form over an active set (Friedman, Hastie & Tibshirani, J. Stat. Softw.
    2010).

    Columns are standardized internally (zero mean, unit variance); constant
    columns are exempt and unpenalized: the fitted intercept is folded into
    the first constant column's weight when one exists, otherwise reported
    in `intercept`.  Weights come back in the original column scale.

    With c = Xs^T yc / N and G = Xs^T Xs / N on the standardized columns Xs
    and centered label yc, an update of coordinate j reads the running
    vector Gw and costs one axpy over column j of G, computed the first time
    j moves; no update touches the N rows.  The active set starts as the
    coordinates violating the KKT conditions at w = 0.  A sweep is one
    cyclic pass over the active set in column order; coordinates left at
    zero then leave it, and one vectorized pass over every other coordinate
    adds those with |c_j - (Gw)_j| > lam.  The fit has converged after a
    sweep whose largest step is <= tol and that adds none, so the stopping
    rule is that of a full cyclic pass in which nothing moves more than tol.
    `sweeps` counts sweeps and max_sweeps (at least 1) caps them.  Each update is the
    closed-form soft threshold, so the objective (standardized scale)
    recorded after every sweep never increases.  `gap` is the duality gap
    of the returned weights on the standardized problem (Fercoq, Gramfort &
    Salmon, ICML 2015), reported as a diagnostic; it does not stop the fit.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("label vector length mismatch")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    live = np.flatnonzero(sd > 0.0)
    const_cols = np.flatnonzero(sd == 0.0)
    Xs = (X[:, live] - mu[live]) / sd[live]
    XsT = np.ascontiguousarray(Xs.T)
    y_mean = float(y.mean())
    yc = y - y_mean
    c = XsT @ yc / n
    w_std = np.zeros(len(live))
    Gw = np.zeros(len(live))
    active = np.flatnonzero(np.abs(c) > lam).tolist()
    gram: dict[int, np.ndarray] = {}
    r = yc
    objectives = []
    converged = False
    sweeps = 0
    for sweep in range(max_sweeps):
        sweeps = sweep + 1
        max_step = 0.0
        for j in active:
            old = w_std[j]
            new = soft_threshold(c[j] - Gw[j] + old, lam)
            if new != old:
                if j not in gram:
                    gram[j] = XsT @ XsT[j] / n
                Gw += (new - old) * gram[j]
                w_std[j] = new
                step = abs(new - old)
                if step > max_step:
                    max_step = step
        active = [j for j in active if w_std[j] != 0.0]
        r = yc - w_std[active] @ XsT[active]
        objectives.append(float(r @ r) / (2 * n) + lam * float(np.abs(w_std).sum()))
        violated = np.abs(c - Gw) > lam
        violated[active] = False
        entering = np.flatnonzero(violated).tolist()
        if not entering and max_step <= tol:
            converged = True
            break
        active = sorted(active + entering)
    # primal minus dual objective at the dual point s * r / N, with s <= 1
    # scaling r into the dual feasible set |Xs^T theta|_inf <= lam
    dual_norm = float(np.max(np.abs(XsT @ r), initial=0.0)) / n
    s = min(1.0, lam / dual_norm) if dual_norm > 0.0 else 1.0
    gap = ((1 + s * s) * float(r @ r) / 2 - s * float(r @ yc)) / n + lam * float(
        np.abs(w_std).sum()
    )
    if not converged:
        warnings.warn(
            f"coordinate descent did not converge within {max_sweeps} sweeps "
            f"(last objective {objectives[-1]:.3e})",
            LassoConvergenceWarning,
        )
    weights = np.zeros(p)
    weights[live] = w_std / sd[live]
    intercept = y_mean - float((w_std * (mu[live] / sd[live])).sum())
    folded = 0.0
    for j in const_cols:
        cval = mu[j]
        if cval != 0.0:
            weights[j] = intercept / cval
            folded = intercept
            break
    return LassoFit(weights, intercept - folded, converged, sweeps, objectives, gap)


# ---------------------------------------------------------------------------
# models

@dataclass(frozen=True)
class RegressionModel:
    """Monomial features, their weights, and the unit-restoring decoder.

    decoder None means the model was fit directly on the dimensional label
    (no unit restoration; not equivariant).  Otherwise the decoder's units
    must equal the label units.  A sequence of Monomial is stored as a set.
    """

    spec: FeatureSpec
    monomials: MonomialSet
    weights: tuple[float, ...]
    decoder: Monomial | None
    label_units: UnitVector
    intercept: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "monomials", as_monomial_set(self.monomials, self.spec.d))
        if len(self.monomials) != len(self.weights):
            raise ValueError("one weight per monomial required")
        if self.decoder is not None:
            require_units([self.decoder], self.spec, self.label_units, "the label and decoder")


def _label_unit_columns(data: Dataset, monomials: Sequence[Monomial], what: str) -> np.ndarray:
    """(N, m) values on data's rows of monomials that must carry its label
    units: pi.require_units' UnitMismatch, naming the label and `what`, or
    ZeroScale where one evaluates to zero."""
    require_units(monomials, data.spec, data.label_units, f"the label and {what}")
    values = build_design_matrix(data.rows, monomials)
    if np.any(values == 0.0):
        raise ZeroScale(f"{what} evaluated to zero on a row")
    return values


# entries of the stacked design matrix plus one prediction column per model
# that one equivariance_residuals stack builds
_STACK_ENTRIES = 2**22


@_serial_blas()
def _predict_blocks(
    models: Sequence[RegressionModel], rows: np.ndarray, blocks: int
) -> np.ndarray:
    """(len(models), blocks * N) predictions of models sharing one monomial
    set, spec and label units, for `blocks` equal row blocks stacked in one
    (blocks * N, d) array, from one design matrix and one matrix of decoder
    columns.  The stacked matmul applies a model's weights to each block's
    contiguous (N, p) slice, the product a one-block call forms, and a
    design entry does not depend on the other rows or monomials, so each
    model's predictions on each block equal predict_rows on it bit for bit.
    ValueError when the models differ in monomials, spec or label units."""
    first = models[0]
    if any(m.monomials != first.monomials or (m.spec, m.label_units)
           != (first.spec, first.label_units) for m in models[1:]):
        raise ValueError("models must share one monomial set, spec and label units")
    X = build_design_matrix(rows, first.monomials)
    X = X.reshape(blocks, len(X) // blocks, X.shape[1])
    decoders = [m.decoder for m in models if m.decoder is not None]
    dcols = iter(build_design_matrix(rows, decoders).T if decoders else ())
    preds = np.empty((len(models), len(rows)))
    for model, out in zip(models, preds):
        out[:] = (X @ np.asarray(model.weights, dtype=float)).ravel() + model.intercept
        if model.decoder is not None:
            out *= next(dcols)
    return preds


def predict_rows(model: RegressionModel, rows) -> np.ndarray:
    """Predicted label values for an (N, d) array of feature rows."""
    return _predict_blocks([model], np.asarray(rows, dtype=float), 1)[0]


def predict(model: RegressionModel, x) -> Quantity:
    value = predict_rows(model, np.asarray(x, dtype=float)[None, :])[0]
    return Quantity(float(value), model.label_units)


# ---------------------------------------------------------------------------
# training driver

def fit_monomial_models(
    data: Dataset,
    monomials: MonomialSet | Sequence[Monomial],
    decoders: Sequence[Monomial | None],
    method: str = "ols",
    ridge: float = 0.0,
    lam: float = 0.0,
    loss_scale: Monomial | None = None,
    max_sweeps: int = 1000,
    metadata: dict | None = None,
) -> list[RegressionModel]:
    """One model per decoder over one monomial set, each trained in
    dimensionless space.

    With a decoder D the target is eta_t = y_t / D(x_t); a loss_scale
    monomial S (same units as the label, default S = D) turns the objective
    into sum_t ((y_hat_t - y_t)/S(x_t))^2 via row weights D_t/S_t.  A
    decoder None fits directly on the dimensional label (loss_scale, when
    given, again weights rows).  The feature design, the decoder columns and
    the loss-scale column are each evaluated once; since a design entry does
    not depend on the other monomials, each model equals its own
    fit_monomial_model call bit for bit.
    """
    if method not in ("ols", "lasso"):
        raise ValueError(f"unknown method {method!r}")
    monomials, decoders = as_monomial_set(monomials, data.spec.d), list(decoders)
    live = [dec for dec in decoders if dec is not None]
    dcols = iter(_label_unit_columns(data, live, "decoder").T if live else ())
    if loss_scale is not None:
        svals = _label_unit_columns(data, [loss_scale], "loss scale")[:, 0]
    X = build_design_matrix(data.rows, monomials)
    models = []
    for decoder in decoders:
        dvals = np.ones(data.n) if decoder is None else next(dcols)
        eta = data.label_values / dvals
        Xw = X
        if loss_scale is not None:
            rw = dvals / svals
            Xw = X * rw[:, None]
            eta = eta * rw
        meta = dict(metadata or {})
        meta.update({"method": method, "n_train": data.n})
        if not serial_blas_available():
            meta["blas_serial"] = False
        intercept = 0.0
        if method == "ols":
            fit = fit_ols(Xw, eta, ridge=ridge)
            meta.update({"ridge": ridge, "rank": fit.rank, "rank_deficient": fit.rank_deficient})
        else:
            fit = fit_lasso(Xw, eta, lam, max_sweeps=max_sweeps)
            intercept = fit.intercept
            meta.update({"lambda": lam, "converged": fit.converged, "sweeps": fit.sweeps,
                         "duality_gap": fit.gap})
        models.append(RegressionModel(data.spec, monomials, tuple(float(w) for w in fit.weights),
                                      decoder, data.label_units, intercept, meta))
    return models


def fit_monomial_model(data: Dataset, monomials, decoder: Monomial | None,
                       **options) -> RegressionModel:
    """fit_monomial_models for one decoder, with the same options."""
    return fit_monomial_models(data, monomials, [decoder], **options)[0]


def prediction_errors(
    models: Sequence[RegressionModel], data: Dataset, scale: Monomial | None = None
) -> tuple[list[float], list[float] | None]:
    """Each model's mean squared error on data and, given a scale monomial S
    with the label units, its mean of ((pred - label)/S(x))^2 (else None),
    from one design matrix for all models."""
    resid = _predict_blocks(models, data.rows, 1) - data.label_values
    errors = [float(np.mean(r * r)) for r in resid]
    if scale is None:
        return errors, None
    resid /= _label_unit_columns(data, [scale], "loss scale")[:, 0]
    return errors, [float(np.mean(r * r)) for r in resid]


def mse(model: RegressionModel, data: Dataset) -> float:
    return prediction_errors([model], data)[0][0]


def dimensionless_mse(model: RegressionModel, data: Dataset, scale: Monomial) -> float:
    """Mean of ((pred - label)/S(x))^2 over the dataset."""
    return prediction_errors([model], data, scale)[1][0]


@_serial_blas()
def pearson(model: RegressionModel, data: Dataset) -> float | None:
    """Correlation of predictions and labels over data's rows; None, where
    it is undefined: fewer than 2 rows, or a constant prediction or label."""
    pred = predict_rows(model, data.rows)
    truth = data.label_values
    if data.n < 2 or np.ptp(pred) == 0.0 or np.ptp(truth) == 0.0:
        return None
    return float(np.corrcoef(pred, truth)[0, 1])


def equivariance_residuals(
    models: Sequence[RegressionModel],
    rows,
    n_group: int = 100,
    seed: int = 0,
    low: float = 0.1,
    high: float = 10.0,
) -> list[float]:
    """Each model's max relative deviation of predict(g.x) vs g.predict(x)
    over random group elements; 0 up to float roundoff for any
    decoder-backed model.

    The rows and their n_group rescaled copies are stacked and predicted
    for every model with one design matrix and one matrix of decoder
    columns per call of _predict_blocks, each call covering at most
    _STACK_ENTRIES entries; every copy's predictions equal predict_rows on
    it bit for bit, so each residual is that of one predict_rows call per
    copy."""
    rows = np.asarray(rows, dtype=float)
    first = models[0]
    rng = np.random.default_rng(seed)
    U = np.array([f.units.exps for f in first.spec.features], dtype=float)
    v = np.array(first.label_units.exps, dtype=float)
    copies = [rows]
    label_scales = []
    for _ in range(n_group):
        g = rng.uniform(low, high, size=first.spec.k)
        feat_scale = np.prod(g[None, :] ** (-U), axis=1)
        label_scales.append(float(np.prod(g ** (-v))))
        copies.append(rows * feat_scale[None, :])
    width = len(first.monomials) + len(models)
    per_call = max(1, _STACK_ENTRIES // max(1, rows.shape[0] * width))
    preds = []
    for start in range(0, len(copies), per_call):
        chunk = copies[start:start + per_call]
        preds.append(_predict_blocks(models, np.concatenate(chunk), len(chunk))
                     .reshape(len(models), len(chunk), len(rows)))
    label_scales = np.array(label_scales)[:, None]
    residuals = []
    for pred in np.concatenate(preds, axis=1):
        lhs, rhs = pred[1:], pred[0] * label_scales
        denom = np.maximum(np.abs(lhs) + np.abs(rhs), 1e-300)
        # worst copy, skipping a copy whose deviation is NaN
        dev = np.max(np.abs(lhs - rhs) / denom, axis=1)
        residuals.append(float(np.fmax.reduce(dev, initial=0.0)))
    return residuals


def equivariance_residual(model: RegressionModel, rows, n_group: int = 100, seed: int = 0,
                          low: float = 0.1, high: float = 10.0) -> float:
    """equivariance_residuals for one model."""
    return equivariance_residuals([model], rows, n_group, seed, low, high)[0]


def rescale_rows(g: GroupElement, rows, spec: FeatureSpec) -> np.ndarray:
    """Apply a group element to every feature column of an (N, d) array."""
    rows = np.asarray(rows, dtype=float)
    factors = np.array([scale_factor(g, f.units) for f in spec.features])
    return rows * factors[None, :]


# ---------------------------------------------------------------------------
# model serialization

def model_to_json_dict(model: RegressionModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "feature_spec": model.spec.to_json_dict(),
        "label_units": list(model.label_units.exps),
        "monomials": monomials_to_json(model.monomials, model.spec),
        "weights": list(model.weights),
        "decoder": (
            monomials_to_json(as_monomial_set([model.decoder], model.spec.d), model.spec)[0]
            if model.decoder is not None
            else None
        ),
        "intercept": model.intercept,
        "metadata": model.metadata,
    }


def model_from_json_dict(data: dict) -> RegressionModel:
    """The model model_to_json_dict wrote.  DataError as monomials_from_json,
    and unless there is one finite weight per monomial and a finite intercept."""
    spec = FeatureSpec.from_json_dict(data["feature_spec"])
    monomials = monomials_from_json(data["monomials"], spec, "monomial")
    weights = data["weights"]
    if not isinstance(weights, list) or len(weights) != len(monomials):
        raise DataError(f"expected a list of {len(monomials)} weights, one per monomial")
    decoder = (
        monomials_from_json([data["decoder"]], spec, "decoder")[0]
        if data.get("decoder") is not None
        else None
    )
    return RegressionModel(
        spec,
        monomials,
        tuple(finite_number(w, f"weight {j}") for j, w in enumerate(weights)),
        decoder,
        UnitVector(tuple(int(u) for u in data["label_units"])),
        finite_number(data.get("intercept", 0.0), "intercept"),
        dict(data.get("metadata", {})),
    )


def save_model(path, model: RegressionModel) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json_dict(model), fh, indent=1)


def load_model(path) -> RegressionModel:
    """The model save_model wrote; DataError as pi.read_json_file and
    model_from_json_dict."""
    return read_json_file(path, model_from_json_dict)
