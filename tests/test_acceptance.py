"""One test per numbered shipping criterion.

Each test prints the quantities it gates on (shown by pytest on failure, or
with -s) and asserts both the stated tolerance and its wall-clock budget, so
the -v run gives one PASS/FAIL line per criterion.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pireg import cli, pi, regress, sims
from pireg.intlinalg import (
    nullspace_basis,
    rank,
    smith_normal_form,
    solve_diophantine,
)
from pireg.pi import FeatureDef, FeatureSpec, Monomial, MonomialSet
from pireg.units import BaseUnitSystem, GroupElement, Quantity, UnitVector, parse_unit, rescale

TRUTH_WEIGHTS = {
    "1": 0.5,
    "m^-1 k_s^-1 L^-2 |p|^2": 0.5,
    "L^-2 |q|^2": 0.5,
    "L^-1 |q|": -1.0,
    "m k_s^-1 L^-2 g.q": -1.0,
}
LASSO_LAMBDA_FRACTIONS = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
CONTAMINATION_SEED = 19  # matches the canned springy experiment
SEED = 0

_cache = {}


def pendulum_runs():
    """Shared artifacts for criteria 3-5: the 8192/1024 OLS fit and the
    128-row LASSO fits along a fixed lambda grid, timed once."""
    if _cache:
        return _cache
    t0 = time.perf_counter()
    spec = sims.pendulum_spec()
    data = sims.sample_pendulum_dataset(8192 + 1024, seed=SEED)
    train = regress.Dataset(spec, data.rows[:8192], data.label_values[:8192], data.label_units)
    test = regress.Dataset(spec, data.rows[8192:], data.label_values[8192:], data.label_units)
    small = regress.Dataset(spec, train.rows[:128], train.label_values[:128], data.label_units)
    features = pi.enumerate_monomials(spec, 2, dimensionless_only=True)
    names = [pi.format_monomial(m, spec) for m in features]
    decoder = pi.parse_monomial("k_s L^2", spec)

    ols = regress.fit_monomial_model(train, features, decoder, method="ols")

    X_small = regress.build_design_matrix(small.rows, features)
    eta_small = small.label_values / regress.build_design_matrix(small.rows, decoder)[:, 0]
    lam_max = regress.lasso_lambda_max(X_small, eta_small)
    lassos = {}
    for frac in LASSO_LAMBDA_FRACTIONS:
        lassos[frac] = regress.fit_monomial_model(
            small, features, decoder, method="lasso",
            lam=frac * lam_max, max_sweeps=20000,
        )
    _cache.update(
        spec=spec, train=train, test=test, small=small, features=features,
        names=names, decoder=decoder, ols=ols, lassos=lassos,
        lam_max=lam_max, elapsed=time.perf_counter() - t0,
    )
    return _cache


def rational_rank(entries):
    m = [[Fraction(x) for x in row] for row in entries]
    rows, cols = len(m), len(m[0]) if m else 0
    rk, col = 0, 0
    while rk < rows and col < cols:
        piv = next((r for r in range(rk, rows) if m[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for r in range(rows):
            if r != rk and m[r][col] != 0:
                f = m[r][col] / m[rk][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rk])]
        rk += 1
        col += 1
    return rk


def exact_det(A):
    """Determinant by Gaussian elimination over exact rationals."""
    m = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def matmul(A, B):
    """Exact product of two integer row matrices."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def test_criterion_01_feature_count_law():
    t0 = time.perf_counter()
    planck = sims.planck_spec()
    assert len(pi.dimensionless_basis(planck)) == 0
    decoders = pi.decoder_solutions(planck, sims.INTENSITY_UNITS, 4)
    assert [m.exps for m in decoders] == [(-4, 1, 1, 1)]

    rspec = sims.rietkerk_spec()
    basis = pi.dimensionless_basis(rspec)
    assert len(basis) == 12
    lattice = [list(b.exps) for b in basis]
    table = sims.rietkerk_table_features()
    assert len(table) == 12
    for mono in table:
        assert pi.monomial_units(mono, rspec).is_zero()
        combo = solve_diophantine(lattice, list(mono.exps))
        assert combo is not None, f"{pi.format_monomial(mono, rspec)} outside lattice"
    elapsed = time.perf_counter() - t0
    print(f"criterion 01: PASS (unique intensity decoder, 12/12 table features "
          f"in lattice, {elapsed:.3f}s)")
    assert elapsed < 1.0


def test_criterion_02_monomial_counts():
    t0 = time.perf_counter()
    spec = sims.pendulum_spec()
    n_dimless = len(pi.enumerate_monomials(spec, 2, dimensionless_only=True))
    n_total = len(pi.enumerate_monomials(spec, 2))
    elapsed = time.perf_counter() - t0
    print(f"criterion 02: dimensionless={n_dimless} total={n_total} ({elapsed:.1f}s)")
    assert n_dimless == 286
    assert n_total == 187_500
    assert elapsed < 30.0


def _lasso_support_certificate(runs):
    """Exact support+sign recovery at some lambda on a standardized design
    exists iff gamma = max_{j not in S} |x_j^T X_S (X_S^T X_S)^-1 sign(w_S)|
    is below 1; gamma depends only on the design and the truth signs, so
    gamma > 1 certifies that no lambda anywhere can recover the support."""
    names = runs["names"]
    const_j = names.index("1")
    support_idx = sorted(
        names.index(k) for k in TRUTH_WEIGHTS if k != "1"
    )
    signs = np.array([np.sign(TRUTH_WEIGHTS[names[j]]) for j in support_idx])
    X = regress.build_design_matrix(runs["small"].rows, runs["features"])
    keep = [j for j in range(X.shape[1]) if j != const_j]
    Xc = X[:, keep] - X[:, keep].mean(axis=0)
    Xs = Xc / Xc.std(axis=0)
    pos = {j: i for i, j in enumerate(keep)}
    S = [pos[j] for j in support_idx]
    N = [i for i in range(len(keep)) if i not in set(S)]
    XS = Xs[:, S]
    v = np.linalg.solve(XS.T @ XS, signs)
    return float(np.max(np.abs(Xs[:, N].T @ (XS @ v))))


def test_criterion_03_hamiltonian_recovery():
    runs = pendulum_runs()
    ols = runs["ols"]
    dmse = regress.dimensionless_mse(ols, runs["test"], runs["decoder"])
    weights = dict(zip(runs["names"], ols.weights))
    truth_err = max(abs(weights[k] - v) for k, v in TRUTH_WEIGHTS.items())
    other = max(
        abs(w) for name, w in weights.items() if name not in TRUTH_WEIGHTS
    )
    target_support = set(TRUTH_WEIGHTS)
    matched = [
        frac for frac, model in runs["lassos"].items()
        if {n for n, w in zip(runs["names"], model.weights) if w != 0.0} == target_support
    ]
    gamma = None if matched else _lasso_support_certificate(runs)
    elapsed = runs["elapsed"]

    lasso_note = (
        f"lasso support recovered at fractions {matched}" if matched else
        f"lasso support unrecoverable at any lambda (irrepresentability "
        f"gamma={gamma:.2f} > 1)"
    )
    print(f"criterion 03: dmse={dmse:.3e} truth_err={truth_err:.2e} "
          f"other_max={other:.2e} rank={ols.metadata['rank']}; {lasso_note} "
          f"({elapsed:.1f}s)")
    assert dmse <= 1e-10
    assert truth_err <= 1e-6
    assert other <= 1e-6
    assert ols.metadata["rank"] == 286
    if not matched:
        # the design itself forbids exact support recovery; that is the
        # rank-deficiency-permitting escape hatch, certified, not assumed
        assert gamma > 1.0
    assert elapsed < 60.0


def moved_control_bound(test, decoder):
    """The floor criterion 04 sets under the control's error in the moved
    units: the variance of the dimensionless test label, the error of
    predicting its mean.  Dimensionless, so the same in both unit systems."""
    eta = test.label_values / regress.build_design_matrix(test.rows, decoder)[:, 0]
    return float(np.var(eta))


def polluted_features(spec, features):
    return features + pi.sample_dimensional_monomials(spec, 2, 500, seed=CONTAMINATION_SEED)


def test_criterion_04_contamination_degradation():
    # both test errors are at roundoff in the training units, where their
    # ratio measures the solver; so the control is scored on the test split
    # moved into a second unit system by a power-of-two element, where the
    # clean model's error is unchanged bit for bit and only the 500
    # dimensional monomials can move the control's
    runs = pendulum_runs()
    spec, train, test, decoder = runs["spec"], runs["train"], runs["test"], runs["decoder"]
    t0 = time.perf_counter()
    polluted = polluted_features(spec, runs["features"])
    bad_dmse, bad_moved = cli._control_mse(train, test, polluted, decoder)
    clean_dmse = regress.dimensionless_mse(runs["ols"], test, decoder)
    clean_moved = regress.dimensionless_mse(runs["ols"], test.rescaled(cli.CONTROL_UNIT_CHANGE),
                                            decoder)
    bound = moved_control_bound(test, decoder)
    # the negative control: 786 dimensionless columns, the 286 of degree 2
    # and 500 more of degree 3, stay exact in the moved units
    degree2 = set(runs["features"])
    degree3 = pi.enumerate_monomials(spec, 3, dimensionless_only=True)
    new = [j for j, m in enumerate(degree3) if m not in degree2]
    dimensionless = runs["features"] + MonomialSet(degree3.exps[new[:500]])
    _, dimensionless_moved = cli._control_mse(train, test, dimensionless, decoder)
    elapsed = time.perf_counter() - t0
    print(f"criterion 04: in units clean={clean_dmse:.3e} contaminated={bad_dmse:.3e} "
          f"ratio={bad_dmse / clean_dmse:.1f}; moved clean={clean_moved:.3e} "
          f"contaminated={bad_moved:.3e} floor={bound:.3e}; "
          f"786 dimensionless moved={dimensionless_moved:.3e} ({elapsed:.1f}s)")
    assert len(polluted) == len(dimensionless) == 786
    assert clean_moved == clean_dmse
    assert bad_moved >= bound
    assert not dimensionless_moved >= bound
    assert elapsed < 60.0


@pytest.mark.parametrize("n_train,n_test", [(8192, 1024), (2048, 512)])
def test_criterion_04_holds_at_seeds_0_to_5(n_train, n_test):
    spec = sims.pendulum_spec()
    features = pi.enumerate_monomials(spec, 2, dimensionless_only=True)
    polluted = polluted_features(spec, features)
    decoder = pi.parse_monomial("k_s L^2", spec)
    for seed in range(6):
        data = sims.sample_pendulum_dataset(n_train + n_test, seed)
        train = regress.Dataset(spec, data.rows[:n_train], data.label_values[:n_train],
                                data.label_units)
        test = regress.Dataset(spec, data.rows[n_train:], data.label_values[n_train:],
                               data.label_units)
        _, bad_moved = cli._control_mse(train, test, polluted, decoder)
        clean = regress.fit_monomial_model(train, features, decoder)
        moved = test.rescaled(cli.CONTROL_UNIT_CHANGE)
        assert (regress.dimensionless_mse(clean, moved, decoder)
                == regress.dimensionless_mse(clean, test, decoder)), seed
        assert bad_moved >= moved_control_bound(test, decoder), seed


def test_criterion_05_equivariance_suite():
    runs = pendulum_runs()
    points = runs["test"].rows[:100]
    models = {"ols": runs["ols"]}
    models.update({f"lasso@{frac}": m for frac, m in runs["lassos"].items()})
    worst = {}
    for name, model in models.items():
        worst[name] = regress.equivariance_residual(
            model, points, n_group=100, seed=SEED
        )
    print("criterion 05: " + " ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    for name, dev in worst.items():
        assert dev == 0.0, name


def test_criterion_06_integer_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    boxes = {
        n: np.array(list(product(range(-3, 4), repeat=n)), dtype=float)
        for n in range(1, 7)
    }
    for trial in range(1000):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        A = rng.integers(-5, 6, size=(r, c)).tolist()
        snf = smith_normal_form(A)
        assert matmul(matmul(snf.S, A), snf.T) == snf.D
        assert abs(exact_det(snf.S)) == 1 and abs(exact_det(snf.T)) == 1
        diag = snf.diagonal()
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and (b == 0 or b % a == 0))
        assert rank(A) == rational_rank(A)

        basis = nullspace_basis(A)
        Af = np.array(A, dtype=float)
        V = boxes[r]
        kernel = V[np.all(V @ Af == 0.0, axis=1)].astype(np.int64)
        if basis:
            B = np.array(basis, dtype=np.int64)
            assert not np.any(B @ np.array(A, dtype=np.int64))
            coeffs = np.linalg.lstsq(B.T.astype(float), kernel.T.astype(float), rcond=None)[0]
            combo = np.rint(coeffs).astype(np.int64).T @ B
            assert np.array_equal(combo, kernel), f"trial {trial}: lattice misses kernel vectors"
        else:
            assert kernel.shape[0] <= 1  # only the zero vector
    elapsed = time.perf_counter() - t0
    print(f"criterion 06: 1000 matrices verified ({elapsed:.1f}s)")
    assert elapsed < 30.0


def test_criterion_07_reynolds_projection():
    rng = np.random.default_rng(SEED)
    n_fixed = 0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(1, 7))
        system = BaseUnitSystem(tuple(f"u{i}" for i in range(k)))
        feats = tuple(
            FeatureDef(f"x{i}", UnitVector(tuple(int(e) for e in rng.integers(-3, 4, k))))
            for i in range(d)
        )
        spec = FeatureSpec(feats, system)
        mono = Monomial(tuple(int(e) for e in rng.integers(-3, 4, d)))
        proj = pi.reynolds_project(mono, spec)
        if pi.monomial_units(mono, spec).is_zero():
            assert proj == mono
            n_fixed += 1
        else:
            assert proj == Monomial((0,) * d, 0.0)
        assert pi.reynolds_project(proj, spec) == proj  # idempotent either way
    print(f"criterion 07: 1000 monomials projected ({n_fixed} fixed points)")


def test_criterion_08_rietkerk_direction(tmp_path):
    from pireg.cli import run_rietkerk

    t0 = time.perf_counter()
    results = run_rietkerk(SEED, "desk", tmp_path / "rietkerk")
    elapsed = time.perf_counter() - t0
    dim = results["dimensionless"]
    base = results["baseline"]
    print(f"criterion 08: mse {dim['test_mse']:.3f} vs baseline {base['test_mse']:.3f}, "
          f"pearson {dim['test_pearson']:.5f} vs {base['test_pearson']:.5f} "
          f"({elapsed:.0f}s, {results['metadata']['n_extinct']} extinct)")
    assert results["n_features_dimensionless"] == 25
    assert results["n_features_baseline"] == 33
    assert dim["test_mse"] <= base["test_mse"]
    assert dim["test_pearson"] >= base["test_pearson"]
    assert dim["equivariance_residual"] == 0.0
    assert elapsed < 15 * 60


def test_criterion_09_double_pendulum_fixtures():
    t0 = time.perf_counter()
    spec = sims.double_pendulum_spec()
    dimensionless, scaling = sims.double_pendulum_feature_fixtures()
    assert len(dimensionless) == 32 and len(scaling) == 26
    for f in scaling:
        assert pi.monomial_units(f.monomial[0], spec) == sims.ENERGY_UNITS, f.name
    integer_representable = [f for f in dimensionless if not f.sqrt_flagged]
    assert len(integer_representable) == 30
    for f in dimensionless:  # the squared square-root stand-ins included
        assert pi.monomial_units(f.monomial[0], spec).is_zero(), f.name
    elapsed = time.perf_counter() - t0
    print(f"criterion 09: 26 energy + 32 dimensionless fixtures exact ({elapsed:.3f}s)")
    assert elapsed < 1.0


def test_criterion_10_rescale_arithmetic():
    system = sims.MECH_SYSTEM
    q = Quantity(2.9, parse_unit("J", system))
    g = GroupElement((1e-3, 1e-2, 1.0))  # kg -> g, m -> cm
    got = rescale(g, q)
    print(f"criterion 10: 2.9 J -> {got.value:.6e} g cm^2 s^-2")
    assert got.value == pytest.approx(2.9e7, rel=1e-12)
    assert got.units == q.units
