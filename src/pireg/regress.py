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

from . import pi
from .pi import (
    DataError,
    FeatureSpec,
    MonomialSet,
    NonFinite,
    PoleAtZero,
    SCHEMA_VERSION,
    build_design_matrix,
    finite_number,
    monomials_from_json,
    monomials_to_json,
    read_json_file,
    require_set,
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

    def __getitem__(self, rows: slice) -> Dataset:
        """The rows in the slice and their labels."""
        return Dataset(self.spec, self.rows[rows], self.label_values[rows], self.label_units)

    def rescaled(self, g: GroupElement) -> Dataset:
        """The same data in the unit system g moves to: each feature column
        and the labels times their units' scale_factor."""
        scales = scale_factor(g, np.vstack([self.spec.units_array, self.label_units.exps]))
        return Dataset(self.spec, self.rows * scales[:-1], self.label_values * scales[-1],
                       self.label_units)


def save_dataset_csv(data: Dataset, path) -> None:
    """Two-line header: feature names + "label", then one unit expression per
    column; float values below, each its shortest round-tripping repr.  A
    repr holds no comma, quote or line break, so a row is its values joined
    by commas, the line csv.writer would write."""
    sys_ = data.spec.system
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(data.spec.names() + ["label"])
        w.writerow(
            [format_unit(f.units, sys_) for f in data.spec.features]
            + [format_unit(data.label_units, sys_)]
        )
        table = np.column_stack([data.rows, data.label_values]).tolist()
        fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in table))


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


def _triu_inverse(R: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular upper-triangular matrix by the block
    recursion inv([[A, B], [0, C]]) = [[inv(A), -inv(A) B inv(C)], [0, inv(C)]],
    matrix products in place of a general inverse's LU of all p columns."""
    p = len(R)
    if p <= 64:
        return np.linalg.inv(R)
    h = p // 2
    A, C = _triu_inverse(R[:h, :h]), _triu_inverse(R[h:, h:])
    out = np.zeros_like(R)
    out[:h, :h], out[h:, h:] = A, C
    out[:h, h:] = -(A @ R[:h, h:]) @ C
    return out


def _qr_solve(X: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray | None:
    """The least-squares solution z of (X / norms) z = y by Householder QR,
    or None unless the triangle certifies full column rank.

    The rows of [X / norms | y] are folded block by block into a running
    (p + 1) x (p + 1) triangle R, each block one QR of R stacked on it
    (TSQR) in one reused buffer, so no equilibrated copy of X is ever
    whole.  A block holds max(2 (p + 1), 2^17 // (p + 1)) rows, a function
    of the shape alone, so R does not depend on pi._BLOCK_ENTRIES.  With
    R11 = R[:p, :p], 1 / ||inv(R11)||_F <= sigma_min and ||R11||_F >=
    sigma_max, so 1 / ||inv(R11)||_F > eps max(n, p) ||R11||_F proves the
    rank that lstsq (gelsd, cutoff eps max(n, p) sigma_max) would report is
    p; then z = inv(R11) R[:p, p], from the inverse the certificate formed,
    refined once: a product with an explicit inverse is not backward stable,
    and one step brings the residual back to the level back substitution
    reaches."""
    n, p = X.shape
    step = max(2 * (p + 1), 2**17 // (p + 1))
    # the running triangle's rows, then the next block's
    stack = np.empty((p + 1 + step, p + 1))
    top = 0
    for start in range(0, n, step):
        block = stack[top:top + min(step, n - start)]
        np.divide(X[start:start + step], norms, out=block[:, :p])
        block[:, p] = y[start:start + step]
        R = np.linalg.qr(stack[:top + len(block)], mode="r")
        top = len(R)
        stack[:top] = R
    R11, r = R[:p, :p], R[:p, p]
    if not np.diag(R11).all():
        return None
    with np.errstate(all="ignore"):
        inverse = _triu_inverse(R11)
        cutoff = np.finfo(float).eps * max(n, p) * np.linalg.norm(R11)
        if not 1.0 / np.linalg.norm(inverse) > cutoff:
            return None
    z = inverse @ r
    return z + inverse @ (r - R11 @ z)


def _finite_norms(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The column norms of X, each summed in row order with no n x p
    squares; NonFinite where a norm is not finite (a NaN or +-inf entry, or
    a finite column whose norm overflows) or a label is not finite."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->j", X, X))
    if not np.isfinite(norms).all():
        raise NonFinite(f"design column {np.argmin(np.isfinite(norms))} is not finite "
                        "or its norm overflows")
    if not np.isfinite(y).all():
        raise NonFinite(f"label {np.argmin(np.isfinite(y))} is not finite")
    return norms


@_serial_blas()
def fit_ols(X: np.ndarray, y: np.ndarray, ridge: float = 0.0) -> OlsFit:
    """Least squares via orthogonal factorization, never normal equations.

    One sequence serves every input.  ridge > 0 appends the rows
    sqrt(ridge) I to X and zeros to y; the stacked system, full rank in
    exact arithmetic, then takes the same steps as any other.  The columns
    are equilibrated to unit norm (monomial columns span many orders of
    magnitude).  A column norm or a label that is not finite raises
    NonFinite before any factorization: a NaN or +-inf entry, or a finite
    column whose norm overflows.  With more rows than columns, a streamed
    Householder QR of the equilibrated [X | y] (_qr_solve) solves it when
    its triangle certifies full column rank.  Otherwise (n <= p, or no
    certificate) lstsq (SVD, gelsd) solves the equilibrated problem; if
    that reports rank < p, the unequilibrated problem is re-solved so the
    returned solution is minimum-norm in the original weight scale, and a
    RankDeficientWarning reports the effective rank.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("label vector length mismatch")
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be a finite number >= 0, got {ridge}")
    if ridge > 0:
        X = np.vstack([X, np.sqrt(ridge) * np.eye(p)])
        y = np.concatenate([y, np.zeros(p)])
        n += p
    norms = _finite_norms(X, y)
    norms[norms == 0.0] = 1.0
    if n > p > 0:
        z = _qr_solve(X, y, norms)
        if z is not None:
            return OlsFit(z / norms, p, False)
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


def _standardized(X: np.ndarray, y: np.ndarray):
    """The standardized problem that fit_lasso solves: (mu, sd, live, XsT,
    yc, c) with mu and sd the column means and standard deviations, live the
    indices of the nonconstant columns, XsT their standardized values as
    contiguous rows, yc the centered label and c = XsT yc / N.  NonFinite
    on the inputs fit_ols rejects (_finite_norms)."""
    _finite_norms(X, y)
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    live = np.flatnonzero(sd > 0.0)
    XsT = np.ascontiguousarray(((X[:, live] - mu[live]) / sd[live]).T)
    yc = y - y.mean()
    return mu, sd, live, XsT, yc, XsT @ yc / len(y)


@_serial_blas()
def lasso_lambda_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest lambda at which fit_lasso leaves every penalized weight
    exactly zero: max |c| of the standardized problem that fit_lasso
    forms, bit for bit (0 without a nonconstant column)."""
    c = _standardized(np.asarray(X, dtype=float), np.asarray(y, dtype=float))[-1]
    return float(np.max(np.abs(c), initial=0.0))


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
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be a finite number >= 0, got {lam}")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    mu, sd, live, XsT, yc, c = _standardized(X, y)
    const_cols = np.flatnonzero(sd == 0.0)
    y_mean = float(y.mean())
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

    The decoder is a one-row set with the label units, or None: a model fit
    directly on the dimensional label (no unit restoration; not equivariant).
    """

    spec: FeatureSpec
    monomials: MonomialSet
    weights: tuple[float, ...]
    decoder: MonomialSet | None
    label_units: UnitVector
    intercept: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        require_set(self.monomials, self.spec.d)
        if len(self.monomials) != len(self.weights):
            raise ValueError("one weight per monomial required")
        if self.decoder is not None:
            require_set(self.decoder, self.spec.d, rows=1)
            require_units(self.decoder, self.spec, self.label_units, "the label and decoder")


def _label_unit_columns(data: Dataset, monomials: MonomialSet, what: str) -> np.ndarray:
    """(N, m) values on data's rows of monomials that must carry its label
    units: pi.require_units' UnitMismatch, naming the label and `what`, or
    ZeroScale, naming the monomial and the row, where one evaluates to zero."""
    require_units(monomials, data.spec, data.label_units, f"the label and {what}")
    values = build_design_matrix(data.rows, monomials)
    zero = values == 0.0
    if zero.any():
        t, j = np.argwhere(zero)[0]
        raise ZeroScale(f"{what} {pi.format_monomial(monomials[j], data.spec)!r} "
                        f"evaluated to zero at row {t}")
    return values


def _scale_column(data: Dataset, scale: MonomialSet) -> np.ndarray:
    """_label_unit_columns of a one-row loss or error scale, as an (N,) array."""
    require_set(scale, data.spec.d, rows=1)
    return _label_unit_columns(data, scale, "loss scale")[:, 0]


def _require_shared(models: Sequence[RegressionModel]) -> None:
    """ValueError unless the models share one monomial set, spec and label units."""
    first = models[0]
    if any(m.monomials != first.monomials or (m.spec, m.label_units)
           != (first.spec, first.label_units) for m in models[1:]):
        raise ValueError("models must share one monomial set, spec and label units")


@_serial_blas()
def _predict_blocks(
    models: Sequence[RegressionModel], rows: np.ndarray, blocks: int
) -> np.ndarray:
    """(len(models), blocks * N) predictions of models sharing one monomial
    set, spec and label units (_require_shared), for `blocks` equal row
    blocks stacked in one (blocks * N, d) array, from one design matrix and
    one matrix of decoder columns.  The stacked matmul applies a model's
    weights to each block's contiguous (N, p) slice, the product a
    one-block call forms, and a design entry does not depend on the other
    rows or monomials, so each model's predictions on each block equal
    predict_rows on it bit for bit.  NonFinite, naming the model's index and
    the stacked row, where a prediction is not finite."""
    X = build_design_matrix(rows, models[0].monomials)
    X = X.reshape(blocks, len(X) // blocks, X.shape[1])
    decoders = [m.decoder for m in models if m.decoder is not None]
    if len(decoders) > 1:
        decoders = [MonomialSet(np.concatenate([dec.exps for dec in decoders]),
                                np.concatenate([dec.coeffs for dec in decoders]))]
    dcols = iter(build_design_matrix(rows, decoders[0]).T if decoders else ())
    preds = np.empty((len(models), len(rows)))
    # an overflow is reported once, as NonFinite below
    with np.errstate(over="ignore", invalid="ignore"):
        for model, out in zip(models, preds):
            out[:] = (X @ np.asarray(model.weights, dtype=float)).ravel() + model.intercept
            if model.decoder is not None:
                out *= next(dcols)
    if not np.isfinite(preds).all():
        i, row = np.argwhere(~np.isfinite(preds))[0]
        raise NonFinite(f"model {i}'s prediction at row {row} is not finite")
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
    monomials: MonomialSet,
    decoders: MonomialSet | None,
    method: str = "ols",
    ridge: float = 0.0,
    lam: float = 0.0,
    loss_scale: MonomialSet | None = None,
    max_sweeps: int = 1000,
    metadata: dict | None = None,
) -> list[RegressionModel]:
    """One model per row of decoders over one monomial set, each trained in
    dimensionless space; decoders None gives one direct fit on the
    dimensional label.

    With a decoder D the target is eta_t = y_t / D(x_t); a one-row
    loss_scale S (same units as the label, default S = D) turns the
    objective into sum_t ((y_hat_t - y_t)/S(x_t))^2 via row weights D_t/S_t
    (of a direct fit too).  The feature design, the decoder columns and the
    loss-scale column are each evaluated once; since a design entry does not
    depend on the other monomials, each model equals its own
    fit_monomial_model call bit for bit.
    """
    if method not in ("ols", "lasso"):
        raise ValueError(f"unknown method {method!r}")
    require_set(monomials, data.spec.d)
    dcols = (np.ones((data.n, 1)) if decoders is None
             else _label_unit_columns(data, decoders, "decoder"))
    if loss_scale is not None:
        svals = _scale_column(data, loss_scale)
    X = build_design_matrix(data.rows, monomials)
    models = []
    for j, dvals in enumerate(dcols.T):
        decoder = None if decoders is None else decoders[j:j + 1]
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


def fit_monomial_model(data: Dataset, monomials: MonomialSet, decoder: MonomialSet | None,
                       **options) -> RegressionModel:
    """fit_monomial_models for a one-row decoder or None, with the same
    options."""
    if decoder is not None:
        require_set(decoder, data.spec.d, rows=1)
    return fit_monomial_models(data, monomials, decoder, **options)[0]


def prediction_errors(
    models: Sequence[RegressionModel], data: Dataset, scale: MonomialSet | None = None
) -> tuple[list[float], list[float] | None, np.ndarray]:
    """Each model's mean squared error on data, given a one-row scale S with
    the label units its mean of ((pred - label)/S(x))^2 (else None), and the
    (len(models), N) predictions they score, all from one design matrix;
    ValueError as _require_shared."""
    _require_shared(models)
    preds = _predict_blocks(models, data.rows, 1)
    resid = preds - data.label_values
    errors = [float(np.mean(r * r)) for r in resid]
    if scale is None:
        return errors, None, preds
    resid /= _scale_column(data, scale)
    return errors, [float(np.mean(r * r)) for r in resid], preds


def dimensionless_mse(model: RegressionModel, data: Dataset, scale: MonomialSet) -> float:
    """Mean of ((pred - label)/S(x))^2 over the dataset."""
    return prediction_errors([model], data, scale)[1][0]


@_serial_blas()
def pearson(pred: np.ndarray, truth: np.ndarray) -> float | None:
    """Correlation of predictions and labels; None, where it is undefined:
    fewer than 2 rows, or a constant prediction or label."""
    if len(pred) < 2 or np.ptp(pred) == 0.0 or np.ptp(truth) == 0.0:
        return None
    return float(np.corrcoef(pred, truth)[0, 1])


def equivariance_residuals(
    models: Sequence[RegressionModel], rows, n_group: int = 100, seed: int = 0
) -> list[float]:
    """Each model's max relative deviation of predict(g.x) vs g.predict(x)
    over n_group random power-of-two group elements, each base unit's factor
    2^k with k drawn from the integers -20..20, one rng.integers call per
    element.  Scaling by 2^k is exact in binary floating point, so every
    dimensionless design entry of g.x equals that of x and a decoder column
    is scaled by exactly the label's factor: the residual of any
    decoder-backed model is exactly 0, unless a scaled value overflows
    (NonFinite, below) or becomes subnormal.  A model without a decoder
    misses the label's factor and reads > 0.

    Group copy 0 is the rows themselves and copy c the rows rescaled by the
    c-th element, a units.GroupElement whose one scale_factor call gives the
    multiplier of every feature column and of the label.  The copies are
    predicted for every model in stacks of consecutive copies, one design
    matrix and one matrix of decoder columns per call of _predict_blocks,
    each stack holding at most pi._BLOCK_ENTRIES design entries plus one
    prediction column per model (one copy where a copy alone holds more); a
    stack's copies are built when it is, and its deviations folded into the
    running maxima.  Every
    copy's predictions equal predict_rows on it bit for bit, so each
    residual is that of one predict_rows call per copy at any budget.
    Where a copy fails to evaluate, the first failing copy raises what
    predicting it alone would: PoleAtZero, or NonFinite naming the group
    copy and the row of rows; ValueError as _require_shared, or for
    n_group < 1."""
    if n_group < 1:
        raise ValueError(f"n_group must be >= 1, got {n_group}")
    _require_shared(models)
    rows = np.asarray(rows, dtype=float)
    first = models[0]
    rng = np.random.default_rng(seed)
    # one unit row per feature, then the label's
    U = np.vstack([first.spec.units_array, first.label_units.exps])
    width = len(first.monomials) + len(models)
    per_stack = max(1, pi._BLOCK_ENTRIES // max(1, rows.shape[0] * width))
    worst = np.zeros(len(models))
    for start in range(0, n_group + 1, per_stack):
        copies = [rows] if start == 0 else []
        label_scales = []
        for _ in range(max(start, 1), min(start + per_stack, n_group + 1)):
            g = GroupElement(tuple(np.ldexp(1.0, rng.integers(-20, 21, size=first.spec.k))))
            scales = scale_factor(g, U)
            label_scales.append(scales[-1])
            copies.append(rows * scales[None, :-1])
        try:
            pred = _predict_blocks(models, np.concatenate(copies), len(copies))
        except (PoleAtZero, NonFinite):
            # the first failing copy alone names the error, at any budget
            for c, copy in enumerate(copies, start):
                try:
                    _predict_blocks(models, copy, 1)
                except NonFinite as err:
                    raise NonFinite(f"group copy {c}: {err}") from None
            raise
        pred = pred.reshape(len(models), len(copies), len(rows))
        if start == 0:
            base, pred = pred[:, 0], pred[:, 1:]
        rhs = base[:, None, :] * np.array(label_scales)[:, None]
        denom = np.maximum(np.abs(pred) + np.abs(rhs), 1e-300)
        dev = np.max(np.abs(pred - rhs) / denom, axis=2)
        worst = np.maximum(worst, np.max(dev, axis=1, initial=0.0))
    return [float(w) for w in worst]


def equivariance_residual(model: RegressionModel, rows, n_group: int = 100,
                          seed: int = 0) -> float:
    """equivariance_residuals for one model."""
    return equivariance_residuals([model], rows, n_group, seed)[0]


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
            monomials_to_json(model.decoder, model.spec)[0] if model.decoder is not None else None
        ),
        "intercept": model.intercept,
        "metadata": model.metadata,
    }


def model_from_json_dict(data: dict) -> RegressionModel:
    """The model model_to_json_dict wrote.  DataError as monomials_from_json,
    and unless there is one finite weight per monomial, a finite intercept,
    label_units of k integer exponents and an object for metadata."""
    spec = FeatureSpec.from_json_dict(data["feature_spec"])
    monomials = monomials_from_json(data["monomials"], spec, "monomial")
    weights = data["weights"]
    if not isinstance(weights, list) or len(weights) != len(monomials):
        raise DataError(f"expected a list of {len(monomials)} weights, one per monomial")
    label_units = data["label_units"]
    if not (isinstance(label_units, list) and len(label_units) == spec.k
            and all(isinstance(e, int) and not isinstance(e, bool) for e in label_units)):
        raise DataError(f"label_units {label_units!r} is not a list of {spec.k} integers")
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataError(f"metadata: expected an object, got {type(metadata).__name__}")
    decoder = data.get("decoder")
    if decoder is not None:
        decoder = monomials_from_json([decoder], spec, "decoder")
    return RegressionModel(
        spec,
        monomials,
        tuple(finite_number(w, f"weight {j}") for j, w in enumerate(weights)),
        decoder,
        UnitVector(tuple(label_units)),
        finite_number(data.get("intercept", 0.0), "intercept"),
        dict(metadata),
    )


def save_model(path, model: RegressionModel) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json_dict(model), fh, indent=1)


def load_model(path) -> RegressionModel:
    """The model save_model wrote; DataError as pi.read_json_file and
    model_from_json_dict."""
    return read_json_file(path, model_from_json_dict)
