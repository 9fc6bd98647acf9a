import csv
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pireg.pi import (
    FeatureDef,
    FeatureSpec,
    MonomialSet,
    NonFinite,
    PoleAtZero,
    decoder_solutions,
    enumerate_monomials,
    monomial_units,
    parse_monomial,
    sample_dimensional_monomials,
)
from pireg import pi, regress
from pireg.regress import (
    DataError,
    Dataset,
    LassoConvergenceWarning,
    RankDeficientWarning,
    RegressionModel,
    build_design_matrix,
    dimensionless_mse,
    equivariance_residual,
    equivariance_residuals,
    fit_lasso,
    fit_monomial_model,
    fit_monomial_models,
    fit_ols,
    lasso_lambda_max,
    load_dataset_csv,
    load_model,
    pearson,
    predict,
    predict_rows,
    prediction_errors,
    save_dataset_csv,
    save_model,
    soft_threshold,
)
from pireg.sims import (
    GridScale,
    _rietkerk_draw,
    hamiltonian,
    pendulum_spec,
    rietkerk_spec,
    rietkerk_table_features,
    sample_pendulum_dataset,
)
from pireg.units import (
    GroupElement,
    Quantity,
    UnitMismatch,
    UnitVector,
    format_unit,
    parse_unit,
    scale_factor,
    si_system,
)

MECH = si_system(("kg", "m", "s"))
JOULE = parse_unit("J", MECH)

MKLP = FeatureSpec(
    (
        FeatureDef("m", parse_unit("kg", MECH)),
        FeatureDef("k_s", parse_unit("kg s^-2", MECH)),
        FeatureDef("L", parse_unit("m", MECH)),
        FeatureDef("|p|", parse_unit("kg m s^-1", MECH)),
    ),
    MECH,
)

TRUTH_EXPRS = [
    ("1", 0.5),
    ("m^-1 k_s^-1 L^-2 |p|^2", 0.5),
    ("L^-2 |q|^2", 0.5),
    ("L^-1 |q|", -1.0),
    ("m k_s^-1 L^-2 g.q", -1.0),
]


def mset(*rows, coeffs=None):
    """The MonomialSet of the exponent rows given."""
    return MonomialSet(np.array(rows, dtype=np.int64), coeffs)


def truth_model(spec):
    monos = MonomialSet(np.concatenate([parse_monomial(e, spec).exps for e, _ in TRUTH_EXPRS]))
    weights = tuple(w for _, w in TRUTH_EXPRS)
    decoder = parse_monomial("k_s L^2", spec)
    return RegressionModel(spec, monos, weights, decoder, JOULE)


# ---------------------------------------------------------------------------
# design matrices

def test_design_matrix_constant_column():
    rows = np.ones((7, 4))
    X = build_design_matrix(rows, mset((0, 0, 0, 0)))
    assert X.shape == (7, 1)
    assert np.all(X == 1.0)


def test_design_matrix_worked_entry():
    rows = np.array([[2.0, 3.0, 2.0, 4.0]])
    X = build_design_matrix(rows, parse_monomial("m k_s L^2 |p|^-2", MKLP))
    assert X[0, 0] == 1.5


def test_design_matrix_empty_monomial_list():
    X = build_design_matrix(np.ones((5, 4)), MonomialSet(np.zeros((0, 4), dtype=np.int64)))
    assert X.shape == (5, 0)


def oracle_int_pow(base, n):
    if n < 0:
        base = 1.0 / base
        n = -n
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def column_loop_oracle(rows, monomials):
    """The per-column evaluator build_design_matrix replaced, frozen: one
    column per monomial, a pole check per feature, then the product over the
    features it uses in feature order, then a finiteness check."""
    rows = np.asarray(rows, dtype=float)
    cols = []
    for m in monomials:
        for i, e in enumerate(m.exps):
            if e < 0 and np.any(rows[:, i] == 0.0):
                raise PoleAtZero(i, int(np.argmax(rows[:, i] == 0.0)))
        result = np.full(rows.shape[0], m.coeff, dtype=float)
        for i, e in enumerate(m.exps):
            if e:
                result = result * oracle_int_pow(rows[:, i], e)
        bad = ~np.isfinite(result)
        if np.any(bad):
            raise NonFinite(
                f"monomial evaluation overflowed at row {int(np.argmax(bad))}: exps={m.exps}"
            )
        cols.append(result)
    if not cols:
        return np.empty((rows.shape[0], 0))
    return np.column_stack(cols)


def assert_matches_oracle(rows, monomials):
    X = build_design_matrix(rows, monomials)
    assert X.flags.c_contiguous
    assert X.tobytes() == column_loop_oracle(rows, monomials).tobytes()


@pytest.fixture(scope="module")
def springy_sets():
    data = sample_pendulum_dataset(2048, seed=4)
    features = enumerate_monomials(data.spec, 2, dimensionless_only=True)
    polluted = features + sample_dimensional_monomials(data.spec, 2, 500, seed=19)
    assert (len(features), len(polluted)) == (286, 786)
    return data.rows, features, polluted


@pytest.mark.parametrize("n", [1, 100, 2048])
def test_design_matrix_matches_column_loop_on_springy_sets(springy_sets, n):
    rows, features, polluted = springy_sets
    assert_matches_oracle(rows[:n], features)
    assert_matches_oracle(rows[:n], polluted)


def test_design_matrix_matches_column_loop_on_rietkerk_table():
    spec = rietkerk_spec()
    rows = np.array([_rietkerk_draw(7, i, GridScale.desk())[0].feature_row()
                     for i in range(64)])
    table = rietkerk_table_features()
    feats = parse_monomial("1", spec) + table + MonomialSet(-table.exps)
    assert_matches_oracle(rows, feats)


def test_design_matrix_matches_column_loop_on_negative_values(springy_sets):
    rows, features, polluted = springy_sets
    signs = np.random.default_rng(2).choice([-1.0, 1.0], size=(100, rows.shape[1]))
    assert_matches_oracle(rows[:100] * signs, polluted)
    assert_matches_oracle(-rows[:100], features)


def test_design_matrix_matches_column_loop_with_coefficients(springy_sets):
    rows, features, _ = springy_sets
    coeffs = [-2.5, 0.1, 3.0, 0.0, 1e-300, -7.0]
    monos = MonomialSet(features.exps, [coeffs[j % len(coeffs)] for j in range(len(features))])
    assert_matches_oracle(rows[:100], monos)


def test_design_matrix_ignores_inf_in_a_column_raised_to_zero(springy_sets):
    rows, features, polluted = springy_sets
    rows = rows[:100].copy()
    rows[:, 0] = np.inf
    # x^0 contributes an exact 1.0 and inf^-n is 0, so none of these fail
    monos = MonomialSet(polluted.exps[polluted.exps[:, 0] <= 0])
    assert any(m.exps[0] == 0 for m in monos) and any(m.exps[0] < 0 for m in monos)
    assert_matches_oracle(rows, monos)
    with pytest.raises(NonFinite):
        build_design_matrix(rows, MonomialSet(features.exps[features.exps[:, 0] > 0][:1]))


def test_design_matrix_error_order_follows_monomials():
    rows = np.array([[2.0, 1.0, 1.0, 1.0], [1e300, 0.0, 1.0, 1.0]])
    overflow = mset((3, 0, 0, 0))
    pole = mset((0, -1, 0, 0))
    for monos, kind in [
        (overflow + pole, NonFinite),
        (pole + overflow, PoleAtZero),
        (mset((1, 0, 0, 0), (3, -2, 0, 0)), PoleAtZero),
    ]:
        with pytest.raises(kind) as old, np.errstate(over="ignore"):
            column_loop_oracle(rows, monos)
        # the error is all a caller sees: no RuntimeWarning comes ahead of it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(kind) as new:
                build_design_matrix(rows, monos)
        assert str(new.value) == str(old.value)
        if kind is PoleAtZero:
            assert new.value.feature_index == old.value.feature_index == 1
        else:
            assert "at row 1: exps=(3, 0, 0, 0)" in str(new.value)
    # within one monomial the pole is reported ahead of the overflow
    rows[1, 3] = 0.0
    with pytest.raises(PoleAtZero) as err:
        build_design_matrix(rows, mset((3, 0, 0, -1)))
    assert err.value.feature_index == 3


def test_design_matrix_errors_in_a_later_block_name_the_global_row(monkeypatch):
    # blocks of 600 rows for 4 monomials: 2048 rows span 4 blocks, and the
    # pole and both overflows sit in the third and fourth
    monkeypatch.setattr(pi, "_BLOCK_ENTRIES", 4 * 600)
    rows = np.ones((2048, 4))
    rows[[1500, 2000], 0] = 1e300
    rows[1900, 1] = 0.0
    overflow = mset((3, 0, 0, 0))
    pole = mset((0, -1, 0, 0))
    plain = mset((1, 1, 0, 0), (0, 0, 2, -1))
    for monos, kind in [(plain + overflow + pole, NonFinite),
                        (plain + pole + overflow, PoleAtZero)]:
        with pytest.raises(kind) as old, np.errstate(over="ignore"):
            column_loop_oracle(rows, monos)
        with pytest.raises(kind) as new:
            build_design_matrix(rows, monos)
        assert str(new.value) == str(old.value)
        if kind is PoleAtZero:
            assert new.value.feature_index == old.value.feature_index == 1
        else:
            assert "at row 1500: exps=(3, 0, 0, 0)" in str(new.value)


def test_design_matrix_rejects_wrong_exponent_length():
    rows = np.ones((3, 4))
    for exps in [(1, 0, 0), (1, 0, 0, 0, 2)]:
        with pytest.raises(ValueError, match="exponents"):
            build_design_matrix(rows, mset(exps))
        with pytest.raises(ValueError, match="exponents"):
            build_design_matrix(rows, mset(exps, exps))


# each function that takes monomials, called with a set m in one position
ENTRY_CHECKS = {
    "build_design_matrix": lambda data, m, path: build_design_matrix(data.rows, m),
    "require_units": lambda data, m, path: pi.require_units(m, data.spec, JOULE, "the label"),
    "save_monomials": lambda data, m, path: pi.save_monomials(path, m, data.spec),
    "RegressionModel-monomials":
        lambda data, m, path: RegressionModel(data.spec, m, (0.0,) * len(m), None, JOULE),
    "RegressionModel-decoder":
        lambda data, m, path: RegressionModel(data.spec, parse_monomial("1", data.spec), (0.0,),
                                              m, JOULE),
    "fit_monomial_models-monomials": lambda data, m, path: fit_monomial_models(data, m, None),
    "fit_monomial_models-decoders":
        lambda data, m, path: fit_monomial_models(data, parse_monomial("1", data.spec), m),
    "fit_monomial_models-loss_scale":
        lambda data, m, path: fit_monomial_models(data, parse_monomial("1", data.spec), None,
                                                  loss_scale=m),
}


@pytest.mark.parametrize("call", ENTRY_CHECKS.values(), ids=ENTRY_CHECKS.keys())
def test_monomials_are_a_monomial_set_over_the_spec(call, tmp_path):
    data = small_dataset(8, seed=0)
    good = parse_monomial("k_s L^2", data.spec)
    call(data, good, tmp_path / "monomials.json")
    with pytest.raises(TypeError, match="MonomialSet"):
        call(data, list(good), tmp_path / "monomials.json")
    wide = MonomialSet(np.hstack([good.exps, [[0]]]))
    with pytest.raises(ValueError, match=f"monomials have {data.spec.d + 1} exponents"):
        call(data, wide, tmp_path / "monomials.json")


def test_decoders_and_scales_are_one_row():
    data = small_dataset(8, seed=0)
    features = parse_monomial("1", data.spec)
    two = decoder_solutions(data.spec, JOULE, 2)[:2]
    model = fit_monomial_model(data, features, two[:1])
    for call in (lambda: fit_monomial_model(data, features, two),
                 lambda: fit_monomial_models(data, features, None, loss_scale=two),
                 lambda: RegressionModel(data.spec, features, (0.0,), two, JOULE),
                 lambda: dimensionless_mse(model, data, two)):
        with pytest.raises(ValueError, match="expected 1 monomial"):
            call()


# ---------------------------------------------------------------------------
# ordinary least squares

def test_ols_identity_design():
    y = np.array([3.0, -1.0, 2.0])
    fit = fit_ols(np.eye(3), y)
    assert np.allclose(fit.weights, y)
    assert fit.rank == 3 and not fit.rank_deficient


def test_ols_recovers_planted_weights():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 5))
    w_star = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
    fit = fit_ols(X, X @ w_star)
    assert np.max(np.abs(fit.weights - w_star)) <= 1e-8 * max(1.0, np.max(np.abs(w_star)))


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(1)
    for _ in range(10):
        X = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        fit = fit_ols(X, y)
        grad = X.T @ (X @ fit.weights - y)
        bound = np.linalg.norm(X, 2) * np.linalg.norm(y) * 1e-10
        assert np.linalg.norm(grad) <= bound


def test_ols_ridge_shrinks_norm():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    norms = [
        np.linalg.norm(fit_ols(X, y, ridge=r).weights) for r in (0.0, 1.0, 1e3, 1e6)
    ]
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-3 * norms[0]


@pytest.mark.parametrize("ridge", [1e-3, 1.0, 1e3])
def test_ols_ridge_takes_the_qr_path(ridge):
    # ridge > 0 is the fit of X with the rows sqrt(ridge) I appended and y
    # with zeros, bit for bit, certified full rank by the QR even where X
    # itself repeats a column
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 6)) * 10.0 ** rng.integers(-2, 3, size=6)
    X[:, 5] = 2.0 * X[:, 0]
    y = rng.normal(size=50)
    X_aug, y_aug = np.vstack([X, np.sqrt(ridge) * np.eye(6)]), np.concatenate([y, np.zeros(6)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_ols(X, y, ridge=ridge)
    assert outcome(fit_ols, X_aug, y_aug) == (fit.weights.tobytes(), 6, False, [])
    assert_qr_solution(X_aug, y_aug, fit)


def test_ols_rank_deficient_minimum_norm():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([2.0, 4.0, 6.0])
    with pytest.warns(RankDeficientWarning):
        fit = fit_ols(X, y)
    assert fit.rank == 1 and fit.rank_deficient
    # minimum-norm solution splits the weight evenly
    assert np.allclose(fit.weights, [1.0, 1.0])


def test_ols_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fit_ols(np.eye(3), np.ones(4))
    for ridge in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="ridge must be a finite number >= 0"):
            fit_ols(np.eye(3), np.ones(3), ridge=ridge)


def equilibrated(X):
    """fit_ols's column norms: each column's squares summed in row order at
    any p (sum(axis=0) would sum a lone column pairwise)."""
    norms = np.sqrt(np.einsum("ij,ij->j", X, X))
    norms[norms == 0.0] = 1.0
    return norms


def gelsd_oracle(X, y):
    """fit_ols at ridge 0 before its QR path, frozen: lstsq (gelsd) of the
    equilibrated design, then the unequilibrated minimum-norm re-solve and
    the warning on rank deficiency."""
    p = X.shape[1]
    norms = equilibrated(X)
    z, _, rank_, _ = np.linalg.lstsq(X / norms, y, rcond=None)
    if rank_ < p:
        w, _, rank_, _ = np.linalg.lstsq(X, y, rcond=None)
        warnings.warn(f"design matrix is rank deficient: rank {int(rank_)} < {p} columns; "
                      "returning the minimum-norm solution", RankDeficientWarning)
        return regress.OlsFit(w, int(rank_), True)
    return regress.OlsFit(z / norms, int(rank_), False)


def outcome(fit, X, y):
    """(weight bytes, rank, rank_deficient, warning messages) of fit(X, y),
    or the exception it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            r = fit(X, y)
        except Exception as err:
            return type(err), str(err)
    return r.weights.tobytes(), r.rank, r.rank_deficient, [str(w.message) for w in caught]


def check_qr_against_lstsq(n, p, seed, noisy):
    """fit_ols on a random (n, p) design with columns of scales 1e-8 .. 1e8,
    which equilibration removes: the QR path's weights, within the
    least-squares perturbation bound of lstsq's, and its full rank."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-8, 9, size=p)
    y = X @ rng.normal(size=p) + (rng.normal(size=n) if noisy else 0.0)
    assert_qr_solution(X, y, fit_ols(X, y))


def assert_qr_solution(X, y, fit):
    """fit is the QR path's solution of (X, y) bit for bit, of full rank,
    and within the least-squares perturbation bound of lstsq's in the
    equilibrated coordinates."""
    n, p = X.shape
    norms = equilibrated(X)
    with regress._serial_blas():
        z = regress._qr_solve(X, y, norms)
    assert z is not None
    assert fit.weights.tobytes() == (z / norms).tobytes()
    w, _, rank_, sv = np.linalg.lstsq(X / norms, y, rcond=None)
    assert fit.rank == rank_ == p and not fit.rank_deficient
    kappa = sv[0] / sv[-1]
    resid = np.linalg.norm(X / norms @ w - y)
    bound = 10 * n * np.finfo(float).eps * (kappa * np.linalg.norm(w)
                                            + kappa**2 * resid / sv[0])
    assert np.linalg.norm(fit.weights * norms - w) <= bound


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 60), st.integers(0, 2**32 - 1), st.booleans())
def test_ols_qr_matches_lstsq_on_well_conditioned_designs(p, extra, seed, noisy):
    check_qr_against_lstsq(p + extra, p, seed, noisy)


@pytest.mark.parametrize("noisy", [False, True])
def test_ols_qr_over_several_row_blocks_matches_lstsq(noisy):
    # 3000 x 200: blocks of 652 rows, the last of 392
    check_qr_against_lstsq(3000, 200, 5, noisy)


def hadamard_design(ratio, n=64, p=16, seed=0):
    """An (n, p) design whose columns have one norm, so equilibration only
    scales it, with singular values p - 1 ones and ratio: Q diag(s) H, Q
    with orthonormal columns and H a Hadamard matrix over sqrt(p)."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n, p)))[0]
    H = np.ones((1, 1))
    while len(H) < p:
        H = np.kron(H, [[1.0, 1.0], [1.0, -1.0]])
    s = np.ones(p)
    s[-1] = ratio
    return Q @ (s[:, None] * H / np.sqrt(p)), rng.normal(size=n)


@pytest.mark.parametrize("factor,full_rank", [(2.0, True), (0.5, False)])
def test_ols_near_the_rank_cutoff_falls_back_to_gelsd(factor, full_rank):
    # sigma_min / sigma_max just above and just below lstsq's cutoff
    # eps max(n, p): with p - 1 unit singular values ||R11||_F is sqrt(p)
    # sigma_max, so the certificate fails on both, and the fit is the gelsd
    # path's bit for bit
    n, p = 64, 16
    X, y = hadamard_design(factor * np.finfo(float).eps * n, n, p)
    sv = np.linalg.svd(X / equilibrated(X), compute_uv=False)
    assert (sv[-1] / sv[0] > np.finfo(float).eps * n) == full_rank
    assert regress._qr_solve(X, y, equilibrated(X)) is None
    result = outcome(fit_ols, X, y)
    assert result == outcome(gelsd_oracle, X, y)
    assert (result[1] == p) == full_rank


def test_ols_without_more_rows_than_columns_is_unchanged():
    rng = np.random.default_rng(8)
    cases = [(rng.normal(size=(n, p)), rng.normal(size=n)) for n, p in [(5, 5), (3, 7), (1, 1)]]
    X, y = rng.normal(size=(20, 4)), rng.normal(size=20)
    cases += [(np.zeros((6, 3)), y[:6]), (X[:, :0], y)]
    for X_, y_ in cases:
        assert outcome(fit_ols, X_, y_) == outcome(gelsd_oracle, X_, y_)


def test_ols_rejects_non_finite_and_overflowing_designs(capfd):
    # NaN, +-inf, and a finite column whose norm overflows (the 50 x 4
    # design with a column scaled by 1e160 is full rank) raise NonFinite
    # before LAPACK sees them, which would print to the terminal and
    # misreport the rank; a non-finite label likewise, at any ridge
    rng = np.random.default_rng(8)
    X, y = rng.normal(size=(50, 4)), rng.normal(size=50)
    cases = []
    for i, j, value in [(3, 1, np.nan), (0, 0, np.inf), (5, 2, -np.inf)]:
        Xbad = X.copy()
        Xbad[i, j] = value
        cases += [(Xbad, y, 0.0, f"design column {j} "), (Xbad, y, 1.0, f"design column {j} ")]
    for j in (2, 0):
        huge = X.copy()
        huge[:, j] *= 1e160
        cases += [(huge, y, 0.0, f"design column {j} "), (huge[:, j:j + 1], y, 0.0, "column 0 ")]
    for value, ridge in [(np.nan, 0.0), (np.inf, 1e-3)]:
        ybad = y.copy()
        ybad[7] = value
        cases.append((X, ybad, ridge, "label 7 "))
    for X_, y_, ridge, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=message):
                fit_ols(X_, y_, ridge=ridge)
    assert capfd.readouterr() == ("", "")


def test_ols_does_not_depend_on_the_block_budget(springy_desk, monkeypatch):
    # the springy fit (blocks of 2 (p + 1) rows) and a 10000 x 30 one
    # (blocks of 2^17 // (p + 1) = 4228 rows)
    data, features, decoder, ols = springy_desk[:4]
    train = Dataset(data.spec, data.rows[:2048], data.label_values[:2048], data.label_units)
    assert ols.metadata["rank"] == 286 and not ols.metadata["rank_deficient"]
    rng = np.random.default_rng(6)
    X, y = rng.normal(size=(10000, 30)), rng.normal(size=10000)
    narrow = fit_ols(X, y)
    monkeypatch.setattr(pi, "_BLOCK_ENTRIES", 1)
    again = fit_monomial_model(train, features, decoder)
    assert np.array(again.weights).tobytes() == np.array(ols.weights).tobytes()
    assert fit_ols(X, y).weights.tobytes() == narrow.weights.tobytes()


def test_ols_streams_its_qr_in_blocks(springy_desk):
    # 2048 x 286: four blocks of at most 574 rows, each stacked under the
    # 287 x 287 triangle; a one-shot QR would hold the equilibrated [X | y]
    # and numpy's copy of it, twice the design, where the blocks need
    # little more than one design
    data, features, decoder = springy_desk[:3]
    X = build_design_matrix(data.rows[:2048], features)
    y = data.label_values[:2048] / build_design_matrix(data.rows[:2048], decoder)[:, 0]
    expected = fit_ols(X, y)
    tracemalloc.start()
    try:
        fit = fit_ols(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.weights.tobytes() == expected.weights.tobytes() and fit.rank == 286
    assert peak <= 1.25 * X.nbytes


# ---------------------------------------------------------------------------
# lasso

def test_soft_threshold():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0


def test_lasso_zero_lambda_matches_ols():
    rng = np.random.default_rng(3)
    X = np.hstack([np.ones((80, 1)), rng.normal(size=(80, 6))])
    y = rng.normal(size=80)
    ols = fit_ols(X, y)
    lasso = fit_lasso(X, y, 0.0, max_sweeps=5000, tol=1e-13)
    assert np.max(np.abs(lasso.weights - ols.weights)) <= 1e-6


def test_lasso_lambda_max_zeroes_everything():
    rng = np.random.default_rng(4)
    X = np.hstack([np.ones((60, 1)), rng.normal(size=(60, 5))])
    y = rng.normal(size=60)
    lmax = lasso_lambda_max(X, y)
    fit = fit_lasso(X, y, lmax * 1.0001)
    assert np.all(fit.weights[1:] == 0.0)
    # the unpenalized constant column soaks up the mean
    assert math.isclose(fit.weights[0], y.mean(), rel_tol=1e-12)


def test_lasso_is_all_zero_at_lambda_max_itself():
    # lasso_lambda_max reads the standardized problem that fit_lasso forms,
    # so at lambda_max, not only above it, every live weight stays 0; the
    # springy design of seed 38, columns [:50], is a case where a separately
    # formed X^T y left one weight live
    for seed in (38, 0, 1, 2, 3):
        data = sample_pendulum_dataset(128, seed=seed)
        X = build_design_matrix(data.rows, enumerate_monomials(data.spec, 2, True))
        y = data.label_values / build_design_matrix(
            data.rows, parse_monomial("k_s L^2", data.spec))[:, 0]
        for cols in (slice(0, 50), slice(50, 120), slice(100, 286), slice(0, 286)):
            fit = fit_lasso(X[:, cols], y, lasso_lambda_max(X[:, cols], y))
            live = X[:, cols].std(axis=0) > 0.0
            assert not np.any(fit.weights[live]), (seed, cols)
    assert lasso_lambda_max(np.ones((4, 2)), np.arange(4.0)) == 0.0


def test_lasso_objective_never_increases():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 20))
    y = rng.normal(size=50)
    fit = fit_lasso(X, y, 0.01, max_sweeps=200)
    for a, b in zip(fit.objectives, fit.objectives[1:]):
        assert b <= a + 1e-15


def test_lasso_support_recovery_interval():
    # 3 active of 50 iid gaussian columns at N = 128: irrepresentability holds,
    # so the noiseless path recovers the support exactly over a lambda range
    rng = np.random.default_rng(6)
    X = rng.normal(size=(128, 50))
    w_star = np.zeros(50)
    w_star[[4, 17, 33]] = (2.0, -3.0, 1.5)
    y = X @ w_star
    lmax = lasso_lambda_max(X, y)
    for frac in (0.1, 0.03, 0.01):
        fit = fit_lasso(X, y, frac * lmax, max_sweeps=5000)
        support = set(np.flatnonzero(fit.weights))
        assert support == {4, 17, 33}
        assert fit.converged


def test_lasso_nonconvergence_warns_but_returns():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 30))
    y = rng.normal(size=40)
    for max_sweeps in (2, 40):
        with pytest.warns(LassoConvergenceWarning):
            fit = fit_lasso(X, y, 1e-8, max_sweeps=max_sweeps)
        assert not fit.converged
        assert fit.sweeps == max_sweeps
        assert len(fit.objectives) == max_sweeps
        assert fit.gap > 0.0


@pytest.mark.parametrize("max_sweeps", [0, -1])
def test_lasso_rejects_max_sweeps_below_one(max_sweeps):
    with pytest.raises(ValueError, match="max_sweeps"):
        fit_lasso(np.eye(3), np.ones(3), 0.1, max_sweeps=max_sweeps)


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf, -np.inf])
def test_lasso_rejects_a_negative_or_non_finite_lambda(lam):
    # a NaN lambda would leave every weight at zero, reported as converged
    with pytest.raises(ValueError, match="lambda must be a finite number >= 0"):
        fit_lasso(np.eye(3), np.ones(3), lam)


def test_lasso_rejects_non_finite_input_as_ols_does():
    # a NaN or +-inf design entry (or a column whose norm overflows) used to
    # drop its column and a non-finite label to zero every weight, each fit
    # reported as converged, and lasso_lambda_max to return NaN
    rng = np.random.default_rng(4)
    X, y = rng.normal(size=(20, 3)), rng.normal(size=20)
    cases = []
    for value in (np.nan, np.inf, -np.inf):
        Xbad, ybad = X.copy(), y.copy()
        Xbad[5, 1] = ybad[7] = value
        cases += [(Xbad, y, "design column 1 "), (X, ybad, "label 7 ")]
    huge = X.copy()
    huge[:, 2] *= 1e160
    cases.append((huge, y, "design column 2 "))
    for X_, y_, message in cases:
        for fit in (fit_ols, lambda X, y: fit_lasso(X, y, 0.1), lasso_lambda_max):
            with pytest.raises(NonFinite, match=message):
                fit(X_, y_)


def test_lasso_intercept_without_constant_column():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([1.0, 2.0, 0.0]) + 5.0
    fit = fit_lasso(X, y, 1e-6, max_sweeps=5000)
    assert math.isclose(fit.intercept, 5.0, rel_tol=1e-4)


def cyclic_lasso_oracle(X, y, lam, max_sweeps=1000, tol=1e-10):
    """The cyclic coordinate descent fit_lasso replaced, frozen: every sweep
    updates every live column through the N-row residual.  Returns the
    weights with the intercept folded as fit_lasso folds it, and whether the
    fit converged."""
    n, p = X.shape
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    live = np.flatnonzero(sd > 0.0)
    const_cols = np.flatnonzero(sd == 0.0)
    Xs = (X[:, live] - mu[live]) / sd[live]
    y_mean = float(y.mean())
    r = y - y_mean
    w_std = np.zeros(len(live))
    converged = False
    for _ in range(max_sweeps):
        max_step = 0.0
        for idx in range(len(live)):
            old = w_std[idx]
            new = soft_threshold(float(Xs[:, idx] @ r) / n + old, lam)
            if new != old:
                r -= (new - old) * Xs[:, idx]
                w_std[idx] = new
                max_step = max(max_step, abs(new - old))
        if max_step <= tol:
            converged = True
            break
    weights = np.zeros(p)
    weights[live] = w_std / sd[live]
    intercept = y_mean - float((w_std * (mu[live] / sd[live])).sum())
    for j in const_cols:
        if mu[j] != 0.0:
            weights[j] = intercept / mu[j]
            break
    return weights, converged


def springy_lasso_problems():
    """(name, X, eta, lambda) of the two LASSO fits of the springy desk
    experiment at seed 0 and of criterion 03's six lambda fractions."""
    spec = pendulum_spec()
    features = enumerate_monomials(spec, 2, dimensionless_only=True)
    polluted = features + sample_dimensional_monomials(spec, 2, 500, seed=19)
    decoder = parse_monomial("k_s L^2", spec)

    def first_128(n_rows):
        data = sample_pendulum_dataset(n_rows, 0)
        rows = data.rows[:128]
        return rows, data.label_values[:128] / build_design_matrix(rows, decoder)[:, 0]

    rows, eta = first_128(2048 + 512)
    out = [(f"springy-{len(m)}", build_design_matrix(rows, m), eta, 1e-2)
           for m in (features, polluted)]
    rows, eta = first_128(8192 + 1024)
    X = build_design_matrix(rows, features)
    lmax = lasso_lambda_max(X, eta)
    out += [(f"criterion-03@{f}", X, eta, f * lmax) for f in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)]
    return out


def test_lasso_matches_cyclic_oracle_on_springy_fits():
    for name, X, eta, lam in springy_lasso_problems():
        fit = fit_lasso(X, eta, lam, max_sweeps=20000)
        weights, converged = cyclic_lasso_oracle(X, eta, lam, max_sweeps=20000)
        assert fit.converged and converged, name
        assert set(np.flatnonzero(fit.weights)) == set(np.flatnonzero(weights)), name
        assert np.max(np.abs(fit.weights - weights)) <= 1e-6 * np.max(np.abs(weights)), name


@given(
    n=st.integers(4, 40),
    p=st.integers(1, 12),
    frac=st.floats(0.02, 1.2),
    seed=st.integers(0, 2**32 - 1),
    constant=st.booleans(),
)
@settings(max_examples=60)
def test_lasso_kkt_certificate(n, p, frac, seed, constant):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
    if constant:
        X[:, 0] = 2.0
    y = rng.normal(size=n) + 3.0
    lam = frac * lasso_lambda_max(X, y)
    fit = fit_lasso(X, y, lam, max_sweeps=100_000, tol=1e-12)
    assert fit.converged
    sd = X.std(axis=0)
    live = sd > 0.0
    Xs = (X[:, live] - X[:, live].mean(axis=0)) / sd[live]
    w_std = fit.weights[live] * sd[live]
    grad = Xs.T @ (y - y.mean() - Xs @ w_std) / n
    on = w_std != 0.0
    assert np.all(np.abs(grad[~on]) <= lam * (1 + 1e-9))
    assert np.all(np.abs(grad[on] - lam * np.sign(w_std[on])) <= 1e-9 * max(lam, 1e-3))
    assert fit.gap >= -1e-15 and fit.gap <= 1e-9 * max(fit.objectives[-1], 1e-6)


# ---------------------------------------------------------------------------
# datasets and serialization

def small_dataset(n=32, seed=9):
    return sample_pendulum_dataset(n, seed)


def test_dataset_csv_round_trip(tmp_path):
    data = small_dataset()
    path = tmp_path / "data.csv"
    save_dataset_csv(data, path)
    back = load_dataset_csv(path, spec=data.spec)
    assert back.spec == data.spec
    assert back.label_units == data.label_units
    assert np.array_equal(back.rows, data.rows)
    assert np.array_equal(back.label_values, data.label_values)


def csv_writer_oracle(data, path):
    """The csv.writer loop save_dataset_csv replaced, frozen."""
    sys_ = data.spec.system
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(data.spec.names() + ["label"])
        w.writerow([format_unit(f.units, sys_) for f in data.spec.features]
                   + [format_unit(data.label_units, sys_)])
        for row, y in zip(data.rows, data.label_values):
            w.writerow([repr(float(v)) for v in row] + [repr(float(y))])


def test_dataset_csv_rows_are_the_csv_writer_lines(tmp_path):
    rng = np.random.default_rng(7)
    rows = np.array([[-1.5, 5e-324, 1.7976931348623157e308, -0.0],
                     [2.2250738585072014e-308, -1e300, 0.1, 1e16],
                     [0.0, -5e-324, 123456789.0, 1.0 / 3.0]])
    rows = np.vstack([rows, rng.normal(size=(20, 4)) * 10.0 ** rng.integers(-30, 30, (20, 4))])
    data = Dataset(MKLP, rows, np.concatenate([[-0.0, -2.5e-310, 7e200], rng.normal(size=20)]),
                   JOULE)
    save_dataset_csv(data, tmp_path / "joined.csv")
    csv_writer_oracle(data, tmp_path / "writer.csv")
    assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "writer.csv").read_bytes()
    assert b"-0.0," in (tmp_path / "joined.csv").read_bytes()


def test_dataset_csv_rejects_wrong_units(tmp_path):
    data = small_dataset()
    path = tmp_path / "data.csv"
    save_dataset_csv(data, path)
    text = path.read_text().splitlines()
    assert "kg s^-2," in text[1]  # the spring-constant column
    text[1] = text[1].replace("kg s^-2,", "kg s^-3,")
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(UnitMismatch, match=re.escape(
            "the spec and column 'k_s' carry different units: kg s^-2 vs kg s^-3")):
        load_dataset_csv(path, spec=data.spec)


def test_dataset_rejects_label_units_of_another_system():
    data = small_dataset()
    with pytest.raises(UnitMismatch, match=re.escape(
            "label unit exponents and base units carry different units: "
            "(1, 2, -2, 0) vs ('kg', 'm', 's')")):
        Dataset(data.spec, data.rows, data.label_values, UnitVector((1, 2, -2, 0)))


def test_dataset_rejects_non_finite_values():
    data = small_dataset()
    rows, labels = data.rows.copy(), data.label_values.copy()
    rows[3, 2] = np.nan
    with pytest.raises(DataError, match="non-finite value nan at row 3, column 'L'"):
        Dataset(data.spec, rows, data.label_values, data.label_units)
    labels[5] = -np.inf
    with pytest.raises(DataError, match="non-finite value -inf at row 5, column 'label'"):
        Dataset(data.spec, data.rows, labels, data.label_units)
    assert issubclass(DataError, ValueError)


def test_dataset_rejects_zero_rows():
    # a zero-row dataset used to reach the fits and the error metrics, where
    # OLS returned zero weights at rank 0 and numpy warned of empty means
    data = small_dataset()
    with pytest.raises(DataError, match="^a dataset needs at least one row$"):
        Dataset(data.spec, data.rows[:0], data.label_values[:0], data.label_units)
    with pytest.raises(DataError, match="^a dataset needs at least one row$"):
        data[5:5]


def test_model_json_round_trip(tmp_path):
    data = small_dataset()
    model = truth_model(data.spec)
    path = tmp_path / "model.json"
    save_model(path, model)
    back = load_model(path)
    assert back.weights == model.weights
    assert back.monomials == model.monomials
    assert back.decoder == model.decoder
    assert back.label_units == model.label_units
    x = data.rows[0]
    assert predict(back, x).value == predict(model, x).value


def test_load_model_file_errors(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, truth_model(small_dataset().spec))
    payload = json.loads(path.read_text())
    del payload["weights"]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=r"model.json: missing key 'weights'"):
        load_model(path)
    path.write_text('{"weights": [1.0],')
    with pytest.raises(DataError, match=r"model.json: not valid JSON: .* line 1 column 19"):
        load_model(path)


# ---------------------------------------------------------------------------
# prediction and equivariance

def test_predict_zero_weights_gives_zero_quantity():
    data = small_dataset()
    model = RegressionModel(
        data.spec,
        parse_monomial("1", data.spec),
        (0.0,),
        parse_monomial("k_s L^2", data.spec),
        JOULE,
    )
    out = predict(model, data.rows[0])
    assert out == Quantity(0.0, JOULE)


def test_truth_model_matches_hamiltonian():
    data = small_dataset(64, seed=10)
    model = truth_model(data.spec)
    preds = predict_rows(model, data.rows)
    for value, label in zip(preds, data.label_values):
        assert math.isclose(value, label, rel_tol=1e-10)


def test_predict_is_equivariant():
    data = small_dataset(16, seed=11)
    model = truth_model(data.spec)
    U = np.array([f.units.exps for f in data.spec.features])
    rng = np.random.default_rng(12)
    for _ in range(100):
        g = GroupElement(tuple(rng.uniform(0.1, 10.0, size=3)))
        x = data.rows[int(rng.integers(data.n))]
        gx = x * scale_factor(g, U)
        lhs = predict(model, gx).value
        rhs = scale_factor(g, JOULE) * predict(model, x).value
        assert math.isclose(lhs, rhs, rel_tol=1e-10)


def test_equivariance_residual_is_tiny_for_decoder_models():
    data = small_dataset(32, seed=13)
    model = truth_model(data.spec)
    assert equivariance_residual(model, data.rows, n_group=50, seed=1) == 0.0


def test_pearson_is_none_where_undefined():
    data = small_dataset(16, seed=19)
    pred = predict_rows(truth_model(data.spec), data.rows)
    truth = data.label_values
    flat_model = RegressionModel(data.spec, parse_monomial("1", data.spec), (3.0,), None, JOULE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pearson(pred[:1], truth[:1]) is None
        assert pearson(pred, np.full(data.n, 2.0)) is None
        assert pearson(predict_rows(flat_model, data.rows), truth) is None
        assert pearson(pred, truth) == pytest.approx(1.0, abs=1e-12)


def per_group_equivariance_oracle(model, rows, n_group=100, seed=0):
    """The per-group loop equivariance_residual replaced, frozen: one
    predict_rows call on the rows and one on each copy rescaled by a
    power-of-two element, 2^k per base unit with k drawn from -20..20."""
    rows = np.asarray(rows, dtype=float)
    rng = np.random.default_rng(seed)
    U = np.array([f.units.exps for f in model.spec.features], dtype=float)
    v = np.array(model.label_units.exps, dtype=float)
    base = predict_rows(model, rows)
    worst = 0.0
    for _ in range(n_group):
        g = np.ldexp(1.0, rng.integers(-20, 21, size=model.spec.k))
        feat_scale = np.prod(g[None, :] ** (-U), axis=1)
        label_scale = float(np.prod(g ** (-v)))
        lhs = predict_rows(model, rows * feat_scale[None, :])
        rhs = base * label_scale
        denom = np.maximum(np.abs(lhs) + np.abs(rhs), 1e-300)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / denom)))
    return worst


@pytest.fixture(scope="module")
def springy_desk():
    """The springy desk split at seed 0 (2048 training rows), its 286
    features, the decoder k_s L^2, their OLS model and the first 100 test
    rows."""
    data = sample_pendulum_dataset(2048 + 512, 0)
    train = Dataset(data.spec, data.rows[:2048], data.label_values[:2048], data.label_units)
    features = enumerate_monomials(data.spec, 2, dimensionless_only=True)
    decoder = parse_monomial("k_s L^2", data.spec)
    ols = fit_monomial_model(train, features, decoder)
    return data, features, decoder, ols, data.rows[2048:2148]


def test_equivariance_residual_matches_per_group_oracle(springy_desk, monkeypatch):
    data, features, decoder, ols, points = springy_desk
    spec = data.spec
    small = Dataset(spec, data.rows[:128], data.label_values[:128], data.label_units)
    no_constant = MonomialSet(features.exps[features.exps.any(axis=1)])
    assert len(no_constant) == 285
    lasso = fit_monomial_model(small, no_constant, decoder, method="lasso", lam=1e-2,
                               max_sweeps=20000)
    assert lasso.intercept != 0.0

    rspec = rietkerk_spec()
    rrows = np.array([_rietkerk_draw(5, i, GridScale.desk())[0].feature_row() for i in range(2)])
    table = rietkerk_table_features()
    dimless = parse_monomial("1", rspec) + table + MonomialSet(-table.exps)
    raw = MonomialSet(np.eye(rspec.d, dtype=np.int64))
    rng = np.random.default_rng(3)
    k2 = parse_monomial("k2", rspec)
    rietkerk = RegressionModel(rspec, dimless, tuple(rng.normal(size=len(dimless))),
                               k2, monomial_units(k2[0], rspec))
    baseline = RegressionModel(rspec, raw, tuple(rng.normal(size=len(raw))), None,
                               monomial_units(k2[0], rspec), intercept=0.5)
    for model, rows, seed in [(ols, points, 0), (lasso, points, 1), (rietkerk, rrows, 2),
                              (baseline, rrows, 3)]:
        assert equivariance_residual(model, rows, seed=seed) == per_group_equivariance_oracle(
            model, rows, seed=seed)
    assert per_group_equivariance_oracle(baseline, rrows, seed=3) > 1e-3
    # models sharing the OLS monomial set, one without a decoder: one stack
    # for all gives each model's own residual
    rng = np.random.default_rng(4)
    decs = decoder_solutions(spec, JOULE, 2)
    shared = [ols] + [RegressionModel(spec, features, tuple(rng.normal(size=286)), dec, JOULE,
                                      intercept=0.25)
                      for dec in (decs[:1], decs[1:2], None)]
    oracle = [per_group_equivariance_oracle(m, points, seed=5) for m in shared]
    assert equivariance_residuals(shared, points, seed=5) == oracle
    assert oracle[-1] > 1e-3
    # stacks of at most 7 copies of one model: 15 stacks, the last of 3
    # copies; the four models share stacks of at most 6
    monkeypatch.setattr(pi, "_BLOCK_ENTRIES", 7 * 100 * (286 + 1))
    assert equivariance_residual(ols, points) == per_group_equivariance_oracle(ols, points)
    assert equivariance_residuals(shared, points, seed=5) == oracle
    with pytest.raises(ValueError, match="share one monomial set"):
        equivariance_residuals([ols, lasso], points)


def test_power_of_two_unit_changes_scale_predictions_exactly(springy_desk):
    # scaling by 2^k is exact in binary floating point, so on g.x every
    # dimensionless design column is bit-identical and the decoder column is
    # scaled by exactly 2^(-v.k): a decoder-backed model's predictions scale
    # bit for bit.  A fit without a decoder predicts the same numbers on g.x
    # as on x, so it misses the label's factor wherever v.k != 0
    data, features, decoder, ols, points = springy_desk
    train = Dataset(data.spec, data.rows[:2048], data.label_values[:2048], data.label_units)
    direct = fit_monomial_model(train, features, None)
    U = np.array([f.units.exps for f in data.spec.features])
    rng = np.random.default_rng(0)
    unequal, unit_free = [0, 0], 0
    for _ in range(20):
        k = rng.integers(-20, 21, size=3)
        g = GroupElement(tuple(np.ldexp(1.0, k)))
        gx = points * scale_factor(g, U)
        for i, model in enumerate([ols, direct]):
            expected = scale_factor(g, JOULE) * predict_rows(model, points)
            unequal[i] += int(np.sum(predict_rows(model, gx) != expected))
        unit_free += int(k @ JOULE.exps == 0)
    assert unit_free == 0
    assert unequal == [0, 20 * len(points)]
    # equivariance_residual draws the same kind of element
    assert equivariance_residual(ols, points) == 0.0
    assert equivariance_residual(direct, points) > 0


def test_equivariance_residual_memory_is_bounded_by_the_block_budget(springy_desk):
    # a stack's design, the fold's block product and its gathered factor
    # each hold at most one budget of float64 entries, and the stack's
    # copies, power tables and predictions less: four budgets bound the
    # traced peak, where one stack of all 101 copies took 26 MB
    ols, points = springy_desk[3:]
    expected = equivariance_residual(ols, points)
    tracemalloc.start()
    try:
        assert equivariance_residual(ols, points) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * pi._BLOCK_ENTRIES * 8


def test_equivariance_overflow_names_the_same_copy_and_row_at_any_budget(monkeypatch):
    # (k_s L^2)^4 is 1e300 on row 3 and overflows on some rescaled copies
    decoder = mset((0, 4, 8, 0))
    model = RegressionModel(MKLP, mset((0, 0, 0, 0)), (1.0,), decoder,
                            monomial_units(decoder[0], MKLP))
    rows = np.ones((5, 4))
    rows[3, 1] = 1e75
    rng = np.random.default_rng(2)
    U = np.array([f.units.exps for f in MKLP.features], dtype=float)
    for copy in range(1, 101):
        scaled = rows * np.prod(np.ldexp(1.0, rng.integers(-20, 21, size=3))[None, :] ** (-U),
                                axis=1)
        try:
            predict_rows(model, scaled)
        except NonFinite as err:
            expected = f"group copy {copy}: {err}"
            break
    assert expected == "group copy 2: monomial evaluation overflowed at row 3: exps=(0, 4, 8, 0)"
    messages = []
    # one stack of all 101 copies, stacks of 4 (copy 2 the third of the
    # first), then one copy per stack (copy 2 alone in the third)
    for budget in [pi._BLOCK_ENTRIES, 4 * 5 * 2, 1]:
        monkeypatch.setattr(pi, "_BLOCK_ENTRIES", budget)
        with pytest.raises(NonFinite) as err:
            equivariance_residual(model, rows, seed=2)
        messages.append(str(err.value))
    assert messages == [expected] * 3


def test_overflowing_predictions_raise_non_finite():
    # weights of 1e308 overflow the predictions of a springy degree-1 model;
    # the equivariance check used to skip the NaN of inf - inf and read 0
    data = small_dataset(50, seed=0)
    features = enumerate_monomials(data.spec, 1, dimensionless_only=True)
    decoder = parse_monomial("k_s L^2", data.spec)
    fine = RegressionModel(data.spec, features, (1.0,) * len(features), decoder, JOULE)
    huge = RegressionModel(data.spec, features, (1e308,) * len(features), decoder, JOULE)
    message = "model 1's prediction at row 0 is not finite"
    with pytest.raises(NonFinite, match=message):
        prediction_errors([fine, huge], data)
    with pytest.raises(NonFinite, match=f"^group copy 0: {message}"):
        equivariance_residuals([fine, huge], data.rows)
    with pytest.raises(NonFinite, match="model 0's prediction at row 0 "):
        predict_rows(huge, data.rows)


def test_zero_decoder_or_loss_scale_names_the_monomial_and_row():
    data = small_dataset(20, seed=0)
    rows = data.rows.copy()
    rows[[5, 7], data.spec.index("g.q")] = 0.0
    data = Dataset(data.spec, rows, data.label_values, data.label_units)
    features = enumerate_monomials(data.spec, 1, dimensionless_only=True)
    zero, decoder = parse_monomial("m g.q", data.spec), parse_monomial("k_s L^2", data.spec)
    with pytest.raises(regress.ZeroScale, match=r"^decoder 'm g\.q' evaluated to zero at row 5$"):
        fit_monomial_models(data, features, decoder + zero)
    with pytest.raises(regress.ZeroScale, match=r"^loss scale 'm g\.q' evaluated to zero at row 5$"):
        fit_monomial_model(data, features, decoder, loss_scale=zero)
    model = truth_model(data.spec)
    with pytest.raises(regress.ZeroScale, match=r"^loss scale 'm g\.q' evaluated to zero at row 5$"):
        dimensionless_mse(model, data, zero)


def test_pole_at_zero_reaches_every_prediction():
    # m, feature 0, at zero on row 4: the degree-1 features take it to a
    # negative power, and every prediction path reports the feature and row
    # that build_design_matrix does
    data = small_dataset(20, seed=0)
    rows = data.rows.copy()
    rows[4, 0] = 0.0
    data = Dataset(data.spec, rows, data.label_values, data.label_units)
    features = enumerate_monomials(data.spec, 1, dimensionless_only=True)
    model = RegressionModel(data.spec, features, (1.0,) * len(features),
                            parse_monomial("k_s L^2", data.spec), JOULE)
    with pytest.raises(PoleAtZero, match="at feature 0, row 4$") as err:
        build_design_matrix(rows, features)
    assert (err.value.feature_index, err.value.row) == (0, 4)
    for predict_all in (lambda: predict_rows(model, rows),
                        lambda: prediction_errors([model], data),
                        lambda: equivariance_residuals([model], rows)):
        with pytest.raises(PoleAtZero) as err:
            predict_all()
        assert (err.value.feature_index, err.value.row) == (0, 4)


@pytest.mark.parametrize("n_group", [0, -5])
def test_equivariance_residuals_need_a_group_element(n_group):
    # with no group element a model without a decoder used to read 0
    data = small_dataset(16, seed=11)
    model = truth_model(data.spec)
    direct = RegressionModel(data.spec, model.monomials, model.weights, None, JOULE)
    assert equivariance_residual(direct, data.rows, n_group=1) > 0
    with pytest.raises(ValueError, match=f"n_group must be >= 1, got {n_group}"):
        equivariance_residual(direct, data.rows, n_group=n_group)


def test_equivariance_stacks_decode_with_one_decoder_set(monkeypatch):
    # three decoder-backed models and one without a decoder, one group copy
    # per stack: every stack's decoder columns come from the one set the
    # model list stacked once, and the residuals are those of one stack
    data, decoders, _ = shared_fit_cases()
    monos = enumerate_monomials(data.spec, 1, dimensionless_only=True)
    models = fit_monomial_models(data, monos, decoders) + fit_monomial_models(data, monos, None)
    rows = data.rows[:10]
    expected = equivariance_residuals(models, rows)
    calls = []

    def recording_design(rows, monomials):
        calls.append(monomials)
        return build_design_matrix(rows, monomials)

    monkeypatch.setattr(regress, "build_design_matrix", recording_design)
    monkeypatch.setattr(pi, "_BLOCK_ENTRIES", 1)
    assert equivariance_residuals(models, rows) == expected
    assert calls[::2] == [monos] * 101
    assert calls[1] == decoders
    assert all(dec is calls[1] for dec in calls[1::2])


def test_empty_model_lists_are_rejected():
    data = small_dataset()
    for check in (lambda: prediction_errors([], data),
                  lambda: equivariance_residuals([], data.rows)):
        with pytest.raises(ValueError, match="^no models to predict from$"):
            check()


def test_equivariance_residuals_need_a_row():
    # zero rows used to fail inside numpy, in a reduction of a zero-size array
    data = small_dataset()
    model = truth_model(data.spec)
    with pytest.raises(ValueError, match=r"^rows must be \(N >= 1, 9\), got \(0, 9\)$"):
        equivariance_residual(model, data.rows[:0])


def test_decoder_units_checked_at_construction():
    data = small_dataset()
    with pytest.raises(UnitMismatch):
        RegressionModel(
            data.spec,
            parse_monomial("1", data.spec),
            (1.0,),
            parse_monomial("L", data.spec),
            JOULE,
        )


# ---------------------------------------------------------------------------
# end-to-end fits

def test_fit_monomial_model_recovers_hamiltonian_weights():
    data = sample_pendulum_dataset(900, seed=16)
    monos = enumerate_monomials(data.spec, 2, dimensionless_only=True)
    decoder = parse_monomial("k_s L^2", data.spec)
    model = fit_monomial_model(data, monos, decoder, method="ols")
    named = {e: w for e, w in TRUTH_EXPRS}
    for mono, w in zip(model.monomials, model.weights):
        from pireg.pi import format_monomial

        expr = format_monomial(mono, data.spec)
        target = named.get(expr, 0.0)
        assert abs(w - target) < 1e-6
    assert dimensionless_mse(model, data, decoder) < 1e-20
    assert prediction_errors([model], data)[0][0] < 1e-18


def test_fit_monomial_model_loss_scale_weighting():
    data = small_dataset(64, seed=17)
    monos = enumerate_monomials(data.spec, 1, dimensionless_only=True)
    decoder = parse_monomial("k_s L^2", data.spec)
    # a loss scale equal to the decoder weights every row by 1: same fit
    plain = fit_monomial_model(data, monos, decoder, method="ols")
    same = fit_monomial_model(data, monos, decoder, method="ols", loss_scale=decoder)
    assert np.allclose(plain.weights, same.weights)
    # a different energy-unit scale reweights rows and moves the solution
    scale = parse_monomial("m |g| L", data.spec)
    assert monomial_units(scale[0], data.spec) == JOULE
    other = fit_monomial_model(data, monos, decoder, method="ols", loss_scale=scale)
    assert not np.allclose(plain.weights, other.weights)


def shared_fit_cases():
    data = small_dataset(64, seed=19)
    spec = data.spec
    monos = enumerate_monomials(spec, 1, dimensionless_only=True)
    decoders = decoder_solutions(spec, JOULE, 2)[:3]
    scale = parse_monomial("m |g| L", spec)
    return data, decoders, {
        "ols": (monos, {}),
        "lasso": (monos, {"method": "lasso", "lam": 1e-3, "max_sweeps": 50}),
        "loss-scale": (monos, {"loss_scale": scale}),
        "lasso-loss-scale": (monos, {"method": "lasso", "lam": 1e-3, "loss_scale": scale}),
        "ridge": (monos, {"ridge": 1e-3}),
        # every monomial twice: a rank-deficient design
        "rank-deficient": (monos + monos, {"metadata": {"seed": 4}}),
    }


def fit_with_direct(data, monos, decoders, **options):
    """fit_monomial_models on the decoders, then the decoder-less fit as its
    own call."""
    return (fit_monomial_models(data, monos, decoders, **options)
            + fit_monomial_models(data, monos, None, **options))


@pytest.mark.parametrize("case", ["ols", "lasso", "loss-scale", "lasso-loss-scale", "ridge",
                                  "rank-deficient"])
def test_fit_monomial_models_equal_one_decoder_fits(case):
    data, decoders, cases = shared_fit_cases()
    monos, options = cases[case]
    one_rows = [decoders[j:j + 1] for j in range(len(decoders))] + [None]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", (RankDeficientWarning, LassoConvergenceWarning))
        models = fit_with_direct(data, monos, decoders, **options)
        singles = [fit_monomial_model(data, monos, dec, **options) for dec in one_rows]
    assert len(models) == len(one_rows)
    for model, single, dec in zip(models, singles, one_rows):
        assert model.decoder == dec
        assert np.array(model.weights).tobytes() == np.array(single.weights).tobytes()
        assert model.intercept == single.intercept
        assert model.metadata == single.metadata
    if case == "rank-deficient":
        assert all(m.metadata["rank_deficient"] and m.metadata["seed"] == 4 for m in models)
    assert len({np.array(m.weights).tobytes() for m in models}) == len(models)


def test_list_forms_equal_the_one_model_calls():
    data, decoders, cases = shared_fit_cases()
    models = fit_with_direct(data, cases["ols"][0], decoders)
    scale = parse_monomial("k_s L^2", data.spec)
    errors, scaled, preds = prediction_errors(models, data, scale)
    assert errors == [prediction_errors([m], data)[0][0] for m in models]
    assert scaled == [dimensionless_mse(m, data, scale) for m in models]
    assert preds.tobytes() == np.array([predict_rows(m, data.rows) for m in models]).tobytes()
    unscaled = prediction_errors(models, data)
    assert unscaled[:2] == (errors, None) and unscaled[2].tobytes() == preds.tobytes()
    residuals = equivariance_residuals(models, data.rows[:20], n_group=30, seed=2)
    assert residuals == [equivariance_residual(m, data.rows[:20], n_group=30, seed=2)
                         for m in models]
    assert max(residuals[:-1]) == 0.0 < residuals[-1]
    other = fit_monomial_model(data, cases["ols"][0][1:], decoders[:1])
    for scoring in (lambda ms: prediction_errors(ms, data),
                    lambda ms: equivariance_residuals(ms, data.rows[:20])):
        with pytest.raises(ValueError, match="share one monomial set"):
            scoring(models + [other])


def test_fit_monomial_model_decoder_unit_mismatch():
    data = small_dataset()
    with pytest.raises(UnitMismatch):
        fit_monomial_model(
            data,
            parse_monomial("1", data.spec),
            parse_monomial("L", data.spec),
        )


def test_fit_monomial_model_lasso_metadata():
    data = small_dataset(64, seed=18)
    monos = enumerate_monomials(data.spec, 1, dimensionless_only=True)
    decoder = parse_monomial("k_s L^2", data.spec)
    model = fit_monomial_model(
        data, monos, decoder, method="lasso", lam=0.05, max_sweeps=4000
    )
    assert model.metadata["lambda"] == 0.05
    assert model.metadata["converged"]
    assert model.metadata["sweeps"] >= 1
    assert 0.0 <= model.metadata["duality_gap"] <= 1e-9


# ---------------------------------------------------------------------------
# BLAS threads


@pytest.mark.skipif(not regress.serial_blas_available(),
                    reason="numpy's BLAS is not a scipy-openblas library")
def test_serial_blas_pins_one_thread_and_restores_the_count():
    get, set_ = regress._openblas_threads()
    saved = get()
    try:
        set_(2)
        threads = get()
        with regress._serial_blas():
            assert get() == 1
            with regress._serial_blas():
                assert get() == 1
            assert get() == 1
        assert get() == threads
        # a decorated function restores the count when it raises
        with pytest.raises(ValueError, match="length mismatch"):
            fit_ols(np.eye(3), np.ones(2))
        assert get() == threads
    finally:
        set_(saved)


def test_models_record_an_unpinned_blas(monkeypatch):
    data = small_dataset(64, seed=20)
    monos = enumerate_monomials(data.spec, 1, dimensionless_only=True)
    decoder = parse_monomial("k_s L^2", data.spec)
    # where the pin works the metadata, and so the model file, are unchanged
    pinned = fit_monomial_model(data, monos, decoder)
    assert ("blas_serial" in pinned.metadata) is not regress.serial_blas_available()
    monkeypatch.setattr(regress, "_openblas_threads", lambda: None)
    for method in ("ols", "lasso"):
        model = fit_monomial_model(data, monos, decoder, method=method, lam=0.05)
        assert model.metadata["blas_serial"] is False
