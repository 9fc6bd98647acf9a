import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pireg.pi import (
    FeatureDef,
    FeatureSpec,
    Monomial,
    NonFinite,
    PoleAtZero,
    decoder_solutions,
    enumerate_monomials,
    monomial_units,
    parse_monomial,
    sample_dimensional_monomials,
)
from pireg import regress
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
    mse,
    pearson,
    predict,
    predict_rows,
    prediction_errors,
    rescale_rows,
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


def truth_model(spec):
    monos = tuple(parse_monomial(e, spec) for e, _ in TRUTH_EXPRS)
    weights = tuple(w for _, w in TRUTH_EXPRS)
    decoder = parse_monomial("k_s L^2", spec)
    return RegressionModel(spec, monos, weights, decoder, JOULE)


# ---------------------------------------------------------------------------
# design matrices

def test_design_matrix_constant_column():
    rows = np.ones((7, 4))
    X = build_design_matrix(rows, [Monomial((0, 0, 0, 0))])
    assert X.shape == (7, 1)
    assert np.all(X == 1.0)


def test_design_matrix_worked_entry():
    rows = np.array([[2.0, 3.0, 2.0, 4.0]])
    X = build_design_matrix(rows, [parse_monomial("m k_s L^2 |p|^-2", MKLP)])
    assert X[0, 0] == 1.5


def test_design_matrix_empty_monomial_list():
    X = build_design_matrix(np.ones((5, 4)), [])
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
                raise PoleAtZero(i)
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
    feats = [Monomial.constant(spec.d)] + table + [
        Monomial(tuple(-e for e in m.exps)) for m in table]
    assert_matches_oracle(rows, feats)


def test_design_matrix_matches_column_loop_on_negative_values(springy_sets):
    rows, features, polluted = springy_sets
    signs = np.random.default_rng(2).choice([-1.0, 1.0], size=(100, rows.shape[1]))
    assert_matches_oracle(rows[:100] * signs, polluted)
    assert_matches_oracle(-rows[:100], features)


def test_design_matrix_matches_column_loop_with_coefficients(springy_sets):
    rows, features, _ = springy_sets
    coeffs = [-2.5, 0.1, 3.0, 0.0, 1e-300, -7.0]
    monos = [Monomial(m.exps, coeffs[j % len(coeffs)]) for j, m in enumerate(features)]
    assert_matches_oracle(rows[:100], monos)


def test_design_matrix_ignores_inf_in_a_column_raised_to_zero(springy_sets):
    rows, features, polluted = springy_sets
    rows = rows[:100].copy()
    rows[:, 0] = np.inf
    # x^0 contributes an exact 1.0 and inf^-n is 0, so none of these fail
    monos = [m for m in polluted if m.exps[0] <= 0]
    assert any(m.exps[0] == 0 for m in monos) and any(m.exps[0] < 0 for m in monos)
    assert_matches_oracle(rows, monos)
    with pytest.raises(NonFinite):
        build_design_matrix(rows, [m for m in features if m.exps[0] > 0][:1])


def test_design_matrix_error_order_follows_monomials():
    rows = np.array([[2.0, 1.0, 1.0, 1.0], [1e300, 0.0, 1.0, 1.0]])
    overflow = Monomial((3, 0, 0, 0))
    pole = Monomial((0, -1, 0, 0))
    for monos, kind in [
        ([overflow, pole], NonFinite),
        ([pole, overflow], PoleAtZero),
        ([Monomial((1, 0, 0, 0)), Monomial((3, -2, 0, 0))], PoleAtZero),
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
        build_design_matrix(rows, [Monomial((3, 0, 0, -1))])
    assert err.value.feature_index == 3


def test_design_matrix_rejects_wrong_exponent_length():
    rows = np.ones((3, 4))
    for exps in [(1, 0, 0), (1, 0, 0, 0, 2)]:
        with pytest.raises(ValueError, match="exponents"):
            build_design_matrix(rows, [Monomial(exps)])
        with pytest.raises(ValueError):
            build_design_matrix(rows, [Monomial((0, 0, 0, 0)), Monomial(exps)])


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
    with pytest.raises(ValueError):
        fit_ols(np.eye(3), np.ones(3), ridge=-1.0)


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
        return rows, data.label_values[:128] / build_design_matrix(rows, [decoder])[:, 0]

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
        (Monomial.constant(data.spec.d),),
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
    rng = np.random.default_rng(12)
    for _ in range(100):
        g = GroupElement(tuple(rng.uniform(0.1, 10.0, size=3)))
        x = data.rows[int(rng.integers(data.n))]
        gx = rescale_rows(g, x[None, :], data.spec)[0]
        lhs = predict(model, gx).value
        rhs = scale_factor(g, JOULE) * predict(model, x).value
        assert math.isclose(lhs, rhs, rel_tol=1e-10)


def test_equivariance_residual_is_tiny_for_decoder_models():
    data = small_dataset(32, seed=13)
    model = truth_model(data.spec)
    assert equivariance_residual(model, data.rows, n_group=50, seed=1) <= 1e-10


def test_pearson_is_none_where_undefined():
    data = small_dataset(16, seed=19)
    model = truth_model(data.spec)
    one_row = Dataset(data.spec, data.rows[:1], data.label_values[:1], JOULE)
    flat_labels = Dataset(data.spec, data.rows, np.full(data.n, 2.0), JOULE)
    flat_model = RegressionModel(data.spec, (Monomial.constant(data.spec.d),), (3.0,), None, JOULE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pearson(model, one_row) is None
        assert pearson(model, flat_labels) is None
        assert pearson(flat_model, data) is None
        assert pearson(model, data) == pytest.approx(1.0, abs=1e-12)


def per_group_equivariance_oracle(model, rows, n_group=100, seed=0, low=0.1, high=10.0):
    """The per-group loop equivariance_residual replaced, frozen: one
    predict_rows call on the rows and one on each rescaled copy."""
    rows = np.asarray(rows, dtype=float)
    rng = np.random.default_rng(seed)
    U = np.array([f.units.exps for f in model.spec.features], dtype=float)
    v = np.array(model.label_units.exps, dtype=float)
    base = predict_rows(model, rows)
    worst = 0.0
    for _ in range(n_group):
        g = rng.uniform(low, high, size=model.spec.k)
        feat_scale = np.prod(g[None, :] ** (-U), axis=1)
        label_scale = float(np.prod(g ** (-v)))
        lhs = predict_rows(model, rows * feat_scale[None, :])
        rhs = base * label_scale
        denom = np.maximum(np.abs(lhs) + np.abs(rhs), 1e-300)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / denom)))
    return worst


def test_equivariance_residual_matches_per_group_oracle(monkeypatch):
    data = sample_pendulum_dataset(2048 + 512, 0)
    spec = data.spec
    train = Dataset(spec, data.rows[:2048], data.label_values[:2048], data.label_units)
    small = Dataset(spec, data.rows[:128], data.label_values[:128], data.label_units)
    points = data.rows[2048:2148]
    features = enumerate_monomials(spec, 2, dimensionless_only=True)
    no_constant = [m for m in features if m != Monomial.constant(spec.d)]
    assert len(no_constant) == 285
    decoder = parse_monomial("k_s L^2", spec)
    ols = fit_monomial_model(train, features, decoder)
    lasso = fit_monomial_model(small, no_constant, decoder, method="lasso", lam=1e-2,
                               max_sweeps=20000)
    assert lasso.intercept != 0.0

    rspec = rietkerk_spec()
    rrows = np.array([_rietkerk_draw(5, i, GridScale.desk())[0].feature_row() for i in range(2)])
    table = rietkerk_table_features()
    dimless = [Monomial.constant(rspec.d)] + table + [Monomial(tuple(-e for e in m.exps))
                                                      for m in table]
    raw = [Monomial(tuple(int(i == j) for j in range(rspec.d))) for i in range(rspec.d)]
    rng = np.random.default_rng(3)
    k2 = parse_monomial("k2", rspec)
    rietkerk = RegressionModel(rspec, tuple(dimless), tuple(rng.normal(size=len(dimless))),
                               k2, monomial_units(k2, rspec))
    baseline = RegressionModel(rspec, tuple(raw), tuple(rng.normal(size=len(raw))), None,
                               monomial_units(k2, rspec), intercept=0.5)
    for model, rows, seed in [(ols, points, 0), (lasso, points, 1), (rietkerk, rrows, 2),
                              (baseline, rrows, 3)]:
        assert equivariance_residual(model, rows, seed=seed) == per_group_equivariance_oracle(
            model, rows, seed=seed)
    assert per_group_equivariance_oracle(baseline, rrows, seed=3) > 1e-3
    # models sharing the OLS monomial set, one without a decoder: one stack
    # for all gives each model's own residual
    rng = np.random.default_rng(4)
    shared = [ols] + [RegressionModel(spec, features, tuple(rng.normal(size=286)), dec, JOULE,
                                      intercept=0.25)
                      for dec in list(decoder_solutions(spec, JOULE, 2)[:2]) + [None]]
    oracle = [per_group_equivariance_oracle(m, points, seed=5) for m in shared]
    assert equivariance_residuals(shared, points, seed=5) == oracle
    assert oracle[-1] > 1e-3
    # stacks of at most 7 copies of one model: 15 stacks, the last of 3
    # copies; the four models share stacks of at most 6
    monkeypatch.setattr(regress, "_STACK_ENTRIES", 7 * 100 * (286 + 1))
    assert equivariance_residual(ols, points) == per_group_equivariance_oracle(ols, points)
    assert equivariance_residuals(shared, points, seed=5) == oracle
    with pytest.raises(ValueError, match="share one monomial set"):
        equivariance_residuals([ols, lasso], points)


def test_decoder_units_checked_at_construction():
    data = small_dataset()
    with pytest.raises(UnitMismatch):
        RegressionModel(
            data.spec,
            (Monomial.constant(data.spec.d),),
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
    assert mse(model, data) < 1e-18


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
    assert monomial_units(scale, data.spec) == JOULE
    other = fit_monomial_model(data, monos, decoder, method="ols", loss_scale=scale)
    assert not np.allclose(plain.weights, other.weights)


def shared_fit_cases():
    data = small_dataset(64, seed=19)
    spec = data.spec
    monos = enumerate_monomials(spec, 1, dimensionless_only=True)
    decoders = list(decoder_solutions(spec, JOULE, 2)[:3]) + [None]
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


@pytest.mark.parametrize("case", ["ols", "lasso", "loss-scale", "lasso-loss-scale", "ridge",
                                  "rank-deficient"])
def test_fit_monomial_models_equal_one_decoder_fits(case):
    data, decoders, cases = shared_fit_cases()
    monos, options = cases[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", (RankDeficientWarning, LassoConvergenceWarning))
        models = fit_monomial_models(data, monos, decoders, **options)
        singles = [fit_monomial_model(data, monos, dec, **options) for dec in decoders]
    assert len(models) == len(decoders)
    for model, single, dec in zip(models, singles, decoders):
        assert model.decoder == dec
        assert np.array(model.weights).tobytes() == np.array(single.weights).tobytes()
        assert model.intercept == single.intercept
        assert model.metadata == single.metadata
    if case == "rank-deficient":
        assert all(m.metadata["rank_deficient"] and m.metadata["seed"] == 4 for m in models)
    assert len({np.array(m.weights).tobytes() for m in models}) == len(models)


def test_list_forms_equal_the_one_model_calls():
    data, decoders, cases = shared_fit_cases()
    models = fit_monomial_models(data, cases["ols"][0], decoders)
    scale = parse_monomial("k_s L^2", data.spec)
    errors, scaled = prediction_errors(models, data, scale)
    assert errors == [mse(m, data) for m in models]
    assert scaled == [dimensionless_mse(m, data, scale) for m in models]
    assert prediction_errors(models, data) == (errors, None)
    residuals = equivariance_residuals(models, data.rows[:20], n_group=30, seed=2)
    assert residuals == [equivariance_residual(m, data.rows[:20], n_group=30, seed=2)
                         for m in models]
    assert max(residuals[:-1]) <= 1e-10 < residuals[-1]
    other = fit_monomial_model(data, cases["ols"][0][1:], decoders[0])
    with pytest.raises(ValueError, match="share one monomial set"):
        prediction_errors(models + [other], data)


def test_fit_monomial_model_decoder_unit_mismatch():
    data = small_dataset()
    with pytest.raises(UnitMismatch):
        fit_monomial_model(
            data,
            [Monomial.constant(data.spec.d)],
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
