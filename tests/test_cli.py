import json
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pireg import cli, pi, regress, sims
from pireg.cli import load_spec_file, main, parse_args, run_rietkerk, run_springy
from pireg.pi import FeatureDef, FeatureSpec
from pireg.units import Quantity, parse_unit, si_system


def write_spec(tmp_path, spec, label_units=None, name="spec.json"):
    data = spec.to_json_dict()
    if label_units is not None:
        data["label_units"] = label_units
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


SPECS = Path(__file__).resolve().parent.parent / "specs"
SRC = Path(__file__).resolve().parent.parent / "src"


def artifacts(out) -> dict:
    """Every file in out, name to bytes."""
    return {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}


def two_mass_spec():
    system = si_system(("kg",))
    kg = parse_unit("kg", system)
    return FeatureSpec((FeatureDef("m1", kg), FeatureDef("m2", kg)), system)


# --- units-check --------------------------------------------------------------


def test_units_check_planck(tmp_path, capsys):
    path = write_spec(tmp_path, sims.planck_spec())
    assert main(["units-check", path]) == 0
    assert "d=4 k=4 rank=4 s=0" in capsys.readouterr().out


def test_units_check_rietkerk(tmp_path, capsys):
    path = write_spec(tmp_path, sims.rietkerk_spec())
    assert main(["units-check", path]) == 0
    assert "d=16 k=4 rank=4 s=12" in capsys.readouterr().out


def test_units_check_label_reachability(tmp_path, capsys):
    path = write_spec(tmp_path, two_mass_spec(), label_units="kg")
    assert main(["units-check", path]) == 0
    assert "label units reachable: yes" in capsys.readouterr().out

    system = si_system(("m",))
    area = FeatureSpec((FeatureDef("a", parse_unit("m^2", system)),), system)
    path = write_spec(tmp_path, area, label_units="m", name="area.json")
    assert main(["units-check", path]) == 0
    assert "label units reachable: no" in capsys.readouterr().out


def test_units_check_empty_spec_is_spec_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"base_units": ["kg"], "features": []}))
    assert main(["units-check", str(path)]) == 2


def test_units_check_malformed_spec_is_spec_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"features": [{"name": "x"}]}))  # no base_units
    assert main(["units-check", str(path)]) == 2
    assert "bad.json: malformed spec file: 'base_units'" in capsys.readouterr().err
    path.write_text(json.dumps({"base_units": ["kg"], "features": [{"name": "x", "units": "m"}]}))
    assert main(["units-check", str(path)]) == 2  # a unit outside the system
    # an exponent past 2^31 - 1, the largest a UnitVector takes
    path.write_text(json.dumps({"base_units": ["kg"],
                                "features": [{"name": "x", "units": "kg^2147483648"}]}))
    assert main(["units-check", str(path)]) == 2
    assert "unit exponent out of range: 2147483648" in capsys.readouterr().err


# a spec file that is not JSON, or not an object, is a data error naming the file
@pytest.mark.parametrize("text, message", [
    ("{not json", "bad.json: not valid JSON: Expecting property name"),
    ("[1, 2]", "bad.json: not a JSON object"),
], ids=["not-json", "not-object"])
def test_units_check_spec_file_not_an_object_exits_3(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["units-check", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_units_check_missing_file_is_data_error(tmp_path):
    assert main(["units-check", str(tmp_path / "nope.json")]) == 3


# --- basis and enumerate --------------------------------------------------------


def test_basis_counts_and_roundtrip(tmp_path, capsys):
    cases = [
        (sims.planck_spec(), 0),
        (sims.rietkerk_spec(), 12),
        (two_mass_spec(), 1),
    ]
    for i, (spec, expect) in enumerate(cases):
        path = write_spec(tmp_path, spec, name=f"s{i}.json")
        out_path = tmp_path / f"basis{i}.json"
        assert main(["basis", path, "--out", str(out_path)]) == 0
        assert f"# {expect} basis monomials" in capsys.readouterr().out
        loaded = pi.load_monomials(out_path, spec)
        assert len(loaded) == expect
        for mono in loaded:
            assert pi.monomial_units(mono, spec).is_zero()


def test_enumerate_two_mass(tmp_path, capsys):
    path = write_spec(tmp_path, two_mass_spec())
    assert main(["enumerate", path, "--max-degree", "1", "--dimensionless-only"]) == 0
    assert "3 dimensionless monomials at max degree 1" in capsys.readouterr().out
    assert main(["enumerate", path, "--max-degree", "0", "--dimensionless-only"]) == 0
    assert "1 dimensionless monomials at max degree 0" in capsys.readouterr().out


def test_enumerate_pendulum_dimensionless_count(tmp_path, capsys):
    path = write_spec(tmp_path, sims.pendulum_spec())
    out_path = tmp_path / "monos.json"
    rc = main(["enumerate", path, "--max-degree", "2", "--dimensionless-only",
               "--out", str(out_path)])
    assert rc == 0
    assert "286 dimensionless monomials at max degree 2" in capsys.readouterr().out
    spec = sims.pendulum_spec()
    assert len(pi.load_monomials(out_path, spec)) == 286


def test_enumerate_too_large_is_spec_error(tmp_path, capsys):
    path = write_spec(tmp_path, sims.pendulum_spec())
    assert main(["enumerate", path, "--max-degree", "6"]) == 2
    # 13^6 * 4 * 7 * 4 points of 9 exponents
    assert f"{13**6 * 4 * 7 * 4 * 9} exponent entries" in capsys.readouterr().err
    for flags in ([], ["--dimensionless-only"]):
        assert main(["enumerate", path, "--max-degree", str(2**63)] + flags) == 2


def test_enumerate_rietkerk_full_box_is_spec_error(monkeypatch, capsys):
    # 3^16 = 43 M points of 16 exponents: an int64 sweep of it would take
    # 5.5 GB, so it stops before np.indices
    monkeypatch.setattr(np, "indices", None)
    assert main(["enumerate", str(SPECS / "rietkerk.json"), "--max-degree", "1"]) == 2
    assert f"{3**16 * 16} exponent entries" in capsys.readouterr().err


def test_enumerate_springy_degree_four(capsys):
    # the free box of the lattice solve is 32,805 points; the full degree
    # box, 9^6 * 3 * 5 * 3, would be 23.9 M
    assert main(["enumerate", str(SPECS / "springy.json"), "--max-degree", "4",
                 "--dimensionless-only"]) == 0
    assert "6082 dimensionless monomials at max degree 4" in capsys.readouterr().out


# --- regress --------------------------------------------------------------------

TRUTH_WEIGHTS = {
    "1": 0.5,
    "m^-1 k_s^-1 L^-2 |p|^2": 0.5,
    "L^-2 |q|^2": 0.5,
    "L^-1 |q|": -1.0,
    "m k_s^-1 L^-2 g.q": -1.0,
}


@pytest.fixture(scope="module")
def pendulum_csvs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pendulum")
    data = sims.sample_pendulum_dataset(800, seed=0)
    spec = data.spec
    train = regress.Dataset(spec, data.rows[:600], data.label_values[:600], data.label_units)
    test = regress.Dataset(spec, data.rows[600:], data.label_values[600:], data.label_units)
    regress.save_dataset_csv(train, tmp / "train.csv")
    regress.save_dataset_csv(test, tmp / "test.csv")
    spec_path = write_spec(tmp, spec, label_units="J")
    return {"train": str(tmp / "train.csv"), "test": str(tmp / "test.csv"),
            "spec": spec_path, "dir": tmp}


def test_regress_exact_recovery(pendulum_csvs, tmp_path, capsys):
    report = tmp_path / "report.json"
    model_out = tmp_path / "model.json"
    rc = main([
        "regress", pendulum_csvs["train"], "--spec", pendulum_csvs["spec"],
        "--test", pendulum_csvs["test"], "--features", "enumerate:2",
        "--decoder", "expr:k_s L^2", "--report", str(report),
        "--model-out", str(model_out),
    ])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["command"] == "regress"
    assert payload["config"]["features"] == "enumerate:2"
    entry = payload["results"]["models"][0]
    assert entry["decoder"] == "k_s L^2"
    assert entry["test_dimensionless_mse"] <= 1e-10
    assert entry["equivariance_residual"] == 0.0
    top5 = {e["monomial"]: e["weight"] for e in entry["top_weights"][:5]}
    assert set(top5) == set(TRUTH_WEIGHTS)
    for name, w in TRUTH_WEIGHTS.items():
        assert top5[name] == pytest.approx(w, abs=1e-6)

    model = regress.load_model(model_out)
    test = regress.load_dataset_csv(pendulum_csvs["test"], spec=model.spec)
    got = regress.predict(model, test.rows[0])
    assert got.value == pytest.approx(test.label_values[0], rel=1e-8)
    assert got.units == test.label_units


def test_regress_decoder_index_also_exact(pendulum_csvs, tmp_path):
    report = tmp_path / "report.json"
    rc = main([
        "regress", pendulum_csvs["train"], "--spec", pendulum_csvs["spec"],
        "--test", pendulum_csvs["test"], "--features", "enumerate:2",
        "--decoder", "index:0", "--report", str(report),
    ])
    assert rc == 0
    entry = json.loads(report.read_text())["results"]["models"][0]
    assert entry["test_dimensionless_mse"] <= 1e-10


def test_regress_decoder_errors(pendulum_csvs, capsys):
    args = ["regress", pendulum_csvs["train"], "--spec", pendulum_csvs["spec"],
            "--features", "basis"]
    # not energy units: a unit error, as for --loss-scale
    assert main(args + ["--decoder", "expr:m L"]) == 2
    assert ("the label and decoder 'm L' carry different units: kg m^2 s^-2 vs kg m"
            in capsys.readouterr().err)
    assert main(args + ["--decoder", "index:999"]) == 3
    assert main(args + ["--decoder", "bogus"]) == 3


def zero_cell_csv(path, out, column, row=3):
    """The dataset CSV at path written to out with one cell set to 0.0."""
    spec, _ = load_spec_file(SPECS / "springy.json")
    data = regress.load_dataset_csv(path, spec)
    rows = data.rows.copy()
    rows[row, spec.index(column)] = 0.0
    regress.save_dataset_csv(regress.Dataset(spec, rows, data.label_values, data.label_units), out)
    return str(out)


def test_regress_zero_decoder_or_loss_scale_exits_3(pendulum_csvs, tmp_path, capsys):
    train = zero_cell_csv(pendulum_csvs["train"], tmp_path / "train.csv", "g.q")
    args = ["regress", train, "--spec", pendulum_csvs["spec"], "--features", "basis"]
    assert main(args + ["--decoder", "expr:m g.q"]) == 3
    assert "error: decoder 'm g.q' evaluated to zero at row 3" in capsys.readouterr().err
    assert main(args + ["--loss-scale", "m g.q"]) == 3
    assert "error: loss scale 'm g.q' evaluated to zero at row 3" in capsys.readouterr().err


def test_regress_pole_in_a_test_row_exits_3(pendulum_csvs, tmp_path, capsys):
    # m, feature 0, at zero: a test row whose features take m to a negative power
    test = zero_cell_csv(pendulum_csvs["test"], tmp_path / "test.csv", "m")
    assert main(["regress", pendulum_csvs["train"], "--spec", pendulum_csvs["spec"],
                 "--test", test, "--features", "enumerate:1",
                 "--report", str(tmp_path / "report.json")]) == 3
    assert "error: negative power of a zero value at feature 0, row 3" in capsys.readouterr().err


def test_regress_decoder_expr_skips_the_decoder_search(tmp_path, capsys):
    # sweeping the Rietkerk decoder box is refused as too large, but an
    # expr: decoder is used without searching
    spec, label_units = load_spec_file(SPECS / "rietkerk.json")
    rows = np.random.default_rng(5).uniform(0.5, 2.0, (30, spec.d))
    labels = 0.7 * rows[:, spec.index("k2")]
    regress.save_dataset_csv(regress.Dataset(spec, rows, labels, label_units), tmp_path / "rk.csv")
    args = ["regress", str(tmp_path / "rk.csv"), "--spec", str(SPECS / "rietkerk.json"),
            "--features", "basis", "--report", str(tmp_path / "report.json")]
    assert main(args + ["--decoder", "expr:k2"]) == 0
    entry = json.loads((tmp_path / "report.json").read_text())["results"]["models"][0]
    assert entry["decoder"] == "k2"
    assert entry["train_dimensionless_mse"] <= 1e-20
    for decoder in ("auto", "index:0"):
        assert main(args + ["--decoder", decoder]) == 2
        assert "enumeration would sweep" in capsys.readouterr().err


def test_regress_planck_constant_fit(tmp_path, capsys):
    data = sims.blackbody_dataset(64, seed=1)
    regress.save_dataset_csv(data, tmp_path / "bb.csv")
    spec_path = write_spec(tmp_path, data.spec, label_units="kg m^-1 s^-3")
    report = tmp_path / "report.json"
    rc = main([
        "regress", str(tmp_path / "bb.csv"), "--spec", spec_path,
        "--features", "basis", "--decoder", "auto",
        "--decoder-max-degree", "4", "--report", str(report),
    ])
    assert rc == 0
    entry = json.loads(report.read_text())["results"]["models"][0]
    assert entry["decoder"] == "lam^-4 T c k_B"
    assert entry["top_weights"] == [
        {"monomial": "1", "weight": pytest.approx(2.0, rel=1e-9)}
    ]
    assert entry["train_dimensionless_mse"] <= 1e-20


def test_regress_decoder_beyond_max_degree(tmp_path, capsys):
    # the Planck decoder lam^-4 T c k_B has degree 4, past the default 2
    data = sims.blackbody_dataset(64, seed=1)
    regress.save_dataset_csv(data, tmp_path / "bb.csv")
    args = ["regress", str(tmp_path / "bb.csv"), "--spec", str(SPECS / "planck.json"),
            "--features", "basis"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "degree <= 2" in err and "raise --decoder-max-degree" in err
    assert main(args + ["--decoder-max-degree", "4"]) == 0


def test_regress_decoder_infeasible_units(tmp_path, capsys):
    system = si_system(("m",))
    spec = FeatureSpec((FeatureDef("area", parse_unit("m^2", system)),), system)
    rows = np.linspace(1.0, 2.0, 8).reshape(-1, 1)
    data = regress.Dataset(spec, rows, np.sqrt(rows[:, 0]), parse_unit("m", system))
    regress.save_dataset_csv(data, tmp_path / "area.csv")
    spec_path = write_spec(tmp_path, spec, label_units="m")
    for decoder in ("auto", "ensemble"):
        assert main(["regress", str(tmp_path / "area.csv"), "--spec", spec_path,
                     "--features", "basis", "--decoder", decoder,
                     "--decoder-max-degree", "6"]) == 3
        assert "no decoder monomial exists" in capsys.readouterr().err


def test_regress_decoder_ensemble(tmp_path):
    spec = two_mass_spec()
    rng = np.random.default_rng(3)
    rows = rng.uniform(1.0, 2.0, (40, 2))
    labels = 0.5 * rows.sum(axis=1)
    data = regress.Dataset(spec, rows, labels, parse_unit("kg", spec.system))
    regress.save_dataset_csv(data, tmp_path / "mass.csv")
    spec_path = write_spec(tmp_path, spec, label_units="kg")
    report = tmp_path / "report.json"
    rc = main([
        "regress", str(tmp_path / "mass.csv"), "--spec", spec_path,
        "--features", "enumerate:2", "--decoder", "ensemble", "--report", str(report),
    ])
    assert rc == 0
    payload = json.loads(report.read_text())
    models = payload["results"]["models"]
    assert payload["results"]["n_models"] == len(models) == 4
    for entry in models:
        assert entry["train_dimensionless_mse"] <= 1e-20


def test_regress_nonconvergence_exit_code(pendulum_csvs, tmp_path, capsys):
    small = tmp_path / "small.csv"
    data = sims.sample_pendulum_dataset(64, seed=0)
    regress.save_dataset_csv(data, small)
    report = tmp_path / "report.json"
    rc = main([
        "regress", str(small), "--spec", pendulum_csvs["spec"],
        "--features", "enumerate:2", "--decoder", "expr:k_s L^2",
        "--method", "lasso", "--lambda", "1e-12", "--report", str(report),
    ])
    assert rc == 4
    assert report.exists()  # report written despite the warning exit
    entry = json.loads(report.read_text())["results"]["models"][0]
    assert entry["metadata"]["converged"] is False


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_regress_non_finite_lambda_is_spec_error(pendulum_csvs, capsys, lam):
    rc = main([
        "regress", pendulum_csvs["train"], "--spec", pendulum_csvs["spec"],
        "--features", "enumerate:2", "--decoder", "expr:k_s L^2",
        "--method", "lasso", "--lambda", lam,
    ])
    assert rc == 2
    assert f"lambda must be a finite number >= 0, got {lam}" in capsys.readouterr().err


def test_regress_data_errors(pendulum_csvs, tmp_path):
    assert main(["regress", str(tmp_path / "nope.csv"),
                 "--spec", pendulum_csvs["spec"]]) == 3
    assert main(["regress", pendulum_csvs["train"], "--spec", pendulum_csvs["spec"],
                 "--features", "garbage"]) == 3


def edit_cell(line, col, text):
    cells = line.split(",")
    cells[col] = text
    return ",".join(cells)


# each edit of the training CSV's lines (two header lines, then rows) and the
# error it must give: format errors name the file and its line, non-finite
# values the data row and column
@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:2], "train.csv: no data rows"),
    (lambda lines: lines[:4] + [edit_cell(lines[4], 0, "two")] + lines[5:],
     "train.csv: line 5, column 'm': 'two' is not a number"),
    (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
     "train.csv: line 4 has 9 cells, the header 10"),
    (lambda lines: lines[:2] + [edit_cell(lines[2], 2, "nan")] + lines[3:],
     "non-finite value nan at row 0, column 'L'"),
    (lambda lines: lines[:3] + [edit_cell(lines[3], -1, "inf")] + lines[4:],
     "non-finite value inf at row 1, column 'label'"),
    (lambda lines: [edit_cell(lines[0], -1, "y")] + lines[1:],
     "train.csv: last column must be named `label`"),
], ids=["no-rows", "non-numeric", "width", "nan-feature", "inf-label", "no-label"])
def test_regress_data_file_errors_exit_3(pendulum_csvs, tmp_path, capsys, edit, message):
    lines = Path(pendulum_csvs["train"]).read_text().splitlines()
    assert lines[0].split(",")[:3] == ["m", "k_s", "L"] and len(lines[0].split(",")) == 10
    bad = tmp_path / "train.csv"
    bad.write_text("\n".join(edit(lines)) + "\n")
    rc = main(["regress", str(bad), "--spec", pendulum_csvs["spec"],
               "--features", "enumerate:2", "--decoder", "expr:k_s L^2"])
    assert rc == 3
    assert message in capsys.readouterr().err


def test_regress_design_column_norm_overflow_exits_3(tmp_path, capsys):
    # every value is finite, but the column a / b reaches 1e160 on one row,
    # so its norm overflows: a data error, not a misreported rank
    system = si_system(("m",))
    spec = FeatureSpec((FeatureDef("a", parse_unit("m", system)),
                        FeatureDef("b", parse_unit("m", system))), system)
    rows = np.random.default_rng(3).uniform(1.0, 2.0, (20, 2))
    rows[4, 0] = 1e160
    data = regress.Dataset(spec, rows, rows[:, 0], parse_unit("m", system))
    regress.save_dataset_csv(data, tmp_path / "huge.csv")
    rc = main(["regress", str(tmp_path / "huge.csv"), "--spec", write_spec(tmp_path, spec, "m"),
               "--features", "enumerate:1", "--decoder", "expr:b"])
    assert rc == 3
    assert "is not finite or its norm overflows" in capsys.readouterr().err


# a --features file: that is not JSON, and JSON without the "monomials" key
@pytest.mark.parametrize("text, message", [
    ("monomials: none\n", "features.json: not valid JSON: Expecting value: line 1 column 1"),
    ('{"feature_names": ["m"]}', "features.json: missing key 'monomials'"),
], ids=["not-json", "missing-key"])
def test_regress_features_file_errors_exit_3(pendulum_csvs, tmp_path, capsys, text, message):
    bad = tmp_path / "features.json"
    bad.write_text(text)
    rc = main(["regress", pendulum_csvs["train"], "--spec", pendulum_csvs["spec"],
               "--features", f"file:{bad}", "--decoder", "expr:k_s L^2"])
    assert rc == 3
    assert message in capsys.readouterr().err


def _set(key, value, index=3):
    def edit(payload):
        payload["monomials"][index][key] = value
    return edit


def _exps_entry(index, value):
    def edit(payload):
        payload["monomials"][3]["exps"][index] = value
    return edit


# each edit of a saved --features file or model file and the data error it
# must give, naming the file and the entry
@pytest.mark.parametrize("name, edit, message", [
    ("features.json", _exps_entry(1, 1.5),
     "features.json: monomial 3: exps [-2, 1.5, -2, "),
    ("features.json", _exps_entry(slice(0, 1), []),
     "features.json: monomial 3: exps ["),
    ("features.json", _exps_entry(1, 10**20),
     "features.json: monomial 3: exps [-2, 100000000000000000000, -2, "),
    ("features.json", _set("units", [1, 0, 0]),
     "features.json: monomial 3: stored units [1, 0, 0] disagree with computed units [0, 0, 0]"),
    ("features.json", lambda payload: payload.update(monomials=5),
     "features.json: expected a list of monomials, got int"),
    ("features.json", lambda payload: payload.update(monomials=[[0] * 9]),
     "features.json: monomial 0: expected an object, got list"),
    ("features.json", _set("coeff", float("nan")),
     "features.json: monomial 3: coeff: nan is not a finite number"),
    ("model.json", _set("coeff", float("inf")),
     "model.json: monomial 3: coeff: inf is not a finite number"),
    ("model.json", lambda payload: payload["weights"].__setitem__(2, float("nan")),
     "model.json: weight 2: nan is not a finite number"),
    ("model.json", lambda payload: payload.update(weights=payload["weights"][1:]),
     "model.json: expected a list of 6 weights, one per monomial"),
    ("model.json", lambda payload: payload.update(intercept=float("-inf")),
     "model.json: intercept: -inf is not a finite number"),
    ("model.json", lambda payload: payload["decoder"]["exps"].__setitem__(1, 1.0),
     "model.json: decoder 0: exps [0, 1.0, "),
    ("model.json", lambda payload: payload.update(label_units=[1.5, 2, -2]),
     "model.json: label_units [1.5, 2, -2] is not a list of 3 integers"),
    ("model.json", lambda payload: payload.update(label_units=[True, 2, -2]),
     "model.json: label_units [True, 2, -2] is not a list of 3 integers"),
    ("model.json", lambda payload: payload.update(label_units="J"),
     "model.json: label_units 'J' is not a list of 3 integers"),
    ("model.json", lambda payload: payload.update(label_units=[1, 2], decoder=None),
     "model.json: label_units [1, 2] is not a list of 3 integers"),
    ("model.json", lambda payload: payload.update(metadata=[1, 2]),
     "model.json: metadata: expected an object, got list"),
], ids=["fractional-exponent", "exps-length", "int64-overflow", "units", "not-a-list",
        "not-objects", "nan-coeff", "model-inf-coeff", "model-nan-weight", "model-weight-count",
        "model-inf-intercept", "model-float-decoder-exponent", "model-fractional-label-unit",
        "model-boolean-label-unit", "model-label-units-string",
        "model-label-units-length-without-decoder", "model-metadata-list"])
def test_monomial_and_model_file_errors_exit_3(pendulum_csvs, tmp_path, capsys, name, edit,
                                               message):
    spec = sims.pendulum_spec()
    features = pi.enumerate_monomials(spec, 2, dimensionless_only=True)[:6]
    path = tmp_path / name
    if name == "features.json":
        pi.save_monomials(path, features, spec)
    else:
        decoder = pi.parse_monomial("k_s L^2", spec)
        model = regress.RegressionModel(spec, features, (0.5,) * 6, decoder,
                                        pi.monomial_units(decoder[0], spec))
        regress.save_model(path, model)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    if name == "features.json":
        rc = main(["regress", pendulum_csvs["train"], "--spec", pendulum_csvs["spec"],
                   "--features", f"file:{path}", "--decoder", "expr:k_s L^2"])
        assert rc == 3
        assert message in capsys.readouterr().err
    else:
        with pytest.raises(regress.DataError) as err:
            regress.load_model(path)
        assert message in str(err.value)


def test_model_and_monomial_files_round_trip_byte_for_byte(tmp_path, capsys):
    out = tmp_path / "springy"
    assert main(["experiment", "springy", "--scale", "desk", "--out", str(out)]) == 0
    model_path, copy = out / "model_ols.json", tmp_path / "model_copy.json"
    regress.save_model(copy, regress.load_model(model_path))
    assert copy.read_bytes() == model_path.read_bytes()

    monos, monos_copy = tmp_path / "monos.json", tmp_path / "monos_copy.json"
    assert main(["enumerate", str(SPECS / "springy.json"), "--max-degree", "2",
                 "--dimensionless-only", "--out", str(monos)]) == 0
    spec, _ = load_spec_file(SPECS / "springy.json")
    loaded = pi.load_monomials(monos, spec)
    assert len(loaded) == 286
    pi.save_monomials(monos_copy, loaded, spec)
    assert monos_copy.read_bytes() == monos.read_bytes()


def test_regress_units_mismatch_is_spec_error(pendulum_csvs, tmp_path):
    text = Path(pendulum_csvs["train"]).read_text()
    bad = tmp_path / "bad.csv"
    bad.write_text(text.replace("kg s^-2", "kg s^-3", 1))
    rc = main(["regress", str(bad), "--spec", pendulum_csvs["spec"]])
    assert rc == 2


@pytest.mark.parametrize("csv", ["train", "test"])
def test_regress_label_units_mismatch_names_the_csv(pendulum_csvs, tmp_path, capsys, csv):
    # a training label against the spec file's label_units, a --test label
    # against the training label: one check, exit 2, naming the file and both
    # units (the --test case used to fail in the loss scale, with no
    # --loss-scale given)
    lines = Path(pendulum_csvs[csv]).read_text().splitlines()
    assert lines[1].split(",")[-1] == "kg m^2 s^-2"
    bad = tmp_path / f"{csv}.csv"
    bad.write_text("\n".join([lines[0], edit_cell(lines[1], -1, "kg m")] + lines[2:]) + "\n")
    paths = {"train": pendulum_csvs["train"], "test": pendulum_csvs["test"], csv: str(bad)}
    rc = main(["regress", paths["train"], "--spec", pendulum_csvs["spec"], "--test", paths["test"],
               "--features", "basis", "--decoder", "expr:k_s L^2"])
    assert rc == 2
    assert (f"the expected label and {bad}'s column 'label' carry different units: "
            "kg m^2 s^-2 vs kg m") in capsys.readouterr().err


# --- experiments -----------------------------------------------------------------


def test_experiment_blackbody_report_and_determinism(tmp_path, capsys):
    out = tmp_path / "bb"
    argv = ["experiment", "blackbody", "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    report = out / "report.json"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    payload = json.loads(report.read_text())
    results = payload["results"]
    assert results["s"] == 0
    assert results["n_decoders"] == 1
    assert results["decoders"] == ["lam^-4 T c k_B"]
    model = results["models"][0]
    assert model["constant"] == pytest.approx(2.0, rel=1e-9)
    assert model["equivariance_residual"] == 0.0
    for name in ("train.csv", "test.csv", "model.json"):
        assert (out / name).exists()

    # rerunning the same config must byte-identically reproduce every artifact
    assert main(argv) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_experiment_rietkerk_route(tmp_path, monkeypatch, capsys):
    # a stub in place of run_rietkerk: the route passes the seed, scale and
    # output directory, and the report is written, with nothing integrated
    calls = []

    def stub(seed, scale, out_dir):
        calls.append((seed, scale, out_dir))
        return {"metadata": {"seed": seed}}

    monkeypatch.setattr(cli, "run_rietkerk", stub)
    out = tmp_path / "rietkerk"
    argv = ["experiment", "rietkerk", "--scale", "paper", "--seed", "7", "--out", str(out)]
    assert main(argv) == 0
    assert calls == [(7, "paper", str(out))]
    payload = json.loads((out / "report.json").read_text())
    assert payload["command"] == "experiment rietkerk"
    assert payload["results"] == {"metadata": {"seed": 7}}


def test_experiment_springy_desk(tmp_path, capsys):
    out = tmp_path / "springy"
    rc = main(["experiment", "springy", "--scale", "desk", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["n_features"] == 286
    assert results["decoder"] == "k_s L^2"
    ols = results["ols"]
    assert ols["test_dimensionless_mse"] <= 1e-10
    assert ols["equivariance_residual"] == 0.0
    top5 = {e["monomial"]: e["weight"] for e in ols["top_weights"][:5]}
    for name, w in TRUTH_WEIGHTS.items():
        assert top5[name] == pytest.approx(w, abs=1e-6)
    assert results["lasso"]["converged"] is True
    control = results["dimensional_control"]
    assert control["n_features"] == 286 + 500
    # in kg -> 2^-10 kg, m -> 2^-7 m the clean model's error is unchanged
    # and the control's far above the dimensionless label's variance (~0.15)
    assert control["unit_change"] == [2.0**-10, 2.0**-7, 1.0]
    assert control["ols_moved_test_dimensionless_mse"] > 1.0
    assert control["ols_moved_degradation"] == (control["ols_moved_test_dimensionless_mse"]
                                                / ols["test_dimensionless_mse"])
    for name in ("train.csv", "test.csv", "model_ols.json", "model_lasso.json"):
        assert (out / name).exists()


def test_springy_control_worker_matches_the_calling_process(tmp_path, monkeypatch):
    """With two usable CPUs the 786-column OLS control runs in a forked
    worker, with one in this process: the same results and artifacts, and
    the same error where the control fit raises."""
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(sims, "_usable_cores", lambda n=cores: n)
        results = run_springy(0, "desk", tmp_path / f"springy-{cores}")
        runs.append((json.dumps(results, sort_keys=True), artifacts(tmp_path / f"springy-{cores}")))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 4

    # patched before the fork, so a worker inherits it; each failing fit
    # records the process it ran in
    fit_ols = regress.fit_ols
    pids = tmp_path / "pids"

    def failing_control(X, y, ridge=0.0):
        if X.shape[1] > 286:
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise np.linalg.LinAlgError("SVD did not converge in the control fit")
        return fit_ols(X, y, ridge)

    monkeypatch.setattr(regress, "fit_ols", failing_control)
    uses_worker = ("fork" in multiprocessing.get_all_start_methods()
                   and regress.serial_blas_available())
    errors = []
    for cores, pinned in ((1, True), (2, True), (2, False)):
        monkeypatch.setattr(sims, "_usable_cores", lambda n=cores: n)
        if not pinned:  # no worker without the BLAS pin
            monkeypatch.setattr(regress, "_openblas_threads", lambda: None)
        with pytest.raises(np.linalg.LinAlgError) as err:
            run_springy(0, "desk", tmp_path / "failing")
        errors.append((type(err.value), str(err.value)))
    assert errors == [(np.linalg.LinAlgError, "SVD did not converge in the control fit")] * 3
    in_worker = [int(pid) != os.getpid() for pid in pids.read_text().split()]
    assert in_worker == [False, uses_worker, False]


def test_experiment_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": {"scale": "paper", "seed": 3}}))
    out = tmp_path / "bb"
    rc = main(["--config", str(cfg), "experiment", "blackbody",
               "--seed", "9", "--out", str(out)])
    assert rc == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["scale"] == "paper"  # file value beats the parser's default
    assert config["seed"] == 9  # explicit flag beats the file
    assert config["out"] == str(out)


def test_experiment_unknown_config_file_is_data_error(tmp_path):
    rc = main(["--config", str(tmp_path / "nope.json"), "experiment", "blackbody",
               "--out", str(tmp_path / "x")])
    assert rc == 3


# a config file that is not an object, or whose section is not one, is a data
# error naming the file
@pytest.mark.parametrize("payload, message", [
    ([1], "cfg.json: not a JSON object"),
    ({"experiment": 5}, "cfg.json: section 'experiment' is not a JSON object"),
], ids=["file", "section"])
def test_config_file_not_an_object_exits_3(tmp_path, capsys, payload, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    rc = main(["--config", str(cfg), "experiment", "blackbody", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def exit_code(argv) -> int:
    """main's return code, or the code of the SystemExit an argparse error raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# a file value is checked against its flag's choices and type, exactly as the
# same value on the command line; the number in an enumerate:<deg> or
# index:<i> value must be an integer
@pytest.mark.parametrize("command, section, message", [
    ("experiment", {"scale": "huge"}, "argument --scale: invalid choice: 'huge'"),
    ("experiment", {"seed": "x"}, "argument --seed: invalid int value: 'x'"),
    ("regress", {"features": "enumerate:x"},
     "--features 'enumerate:x': expected enumerate:<deg> with an integer"),
    ("regress", {"decoder": "index:1.5"},
     "--decoder 'index:1.5': expected index:<i> with an integer"),
], ids=["choice", "type", "features-degree", "decoder-index"])
def test_config_value_failing_its_flag_exits_2(pendulum_csvs, tmp_path, capsys, command,
                                               section, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({command: section}))
    out = tmp_path / "x"
    argv = {"experiment": ["experiment", "blackbody", "--out", str(out)],
            "regress": ["regress", pendulum_csvs["train"], "--spec", pendulum_csvs["spec"],
                        "--report", str(out)]}[command]
    assert exit_code(["--config", str(cfg)] + argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    flag, value = next(iter(section.items()))
    assert exit_code(argv + [f"--{flag}", value]) == 2
    assert message in capsys.readouterr().err


def test_config_store_true_flag_takes_only_a_boolean(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"enumerate": {"dimensionless-only": "yes"}}))
    assert exit_code(["--config", str(cfg), "enumerate", str(SPECS / "springy.json")]) == 2
    assert "argument --dimensionless-only: expected true or false, got 'yes'" in capsys.readouterr().err


def test_regress_report_config_resolved(pendulum_csvs, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"regress": {
        "decoder-max-degree": 3, "method": "ols", "seed": 5, "no-such-flag": 1,
    }}))
    report = tmp_path / "report.json"
    rc = main(["--config", str(cfg), "regress", pendulum_csvs["train"],
               "--spec", pendulum_csvs["spec"], "--test", pendulum_csvs["test"],
               "--decoder", "expr:k_s L^2", "--seed", "7", "--report", str(report)])
    assert rc == 0
    config = json.loads(report.read_text())["config"]
    # flags first in build_parser's order, then the spec and the positional
    assert list(config.items()) == [
        ("test", pendulum_csvs["test"]),
        ("features", "basis"),
        ("method", "ols"),
        ("ridge", 0.0),
        ("lam", 0.0),
        ("decoder", "expr:k_s L^2"),
        ("decoder_max_degree", 3),
        ("loss_scale", None),
        ("seed", 7),
        ("report", str(report)),
        ("model_out", None),
        ("spec", pendulum_csvs["spec"]),
        ("train", pendulum_csvs["train"]),
    ]


@pytest.mark.parametrize("key", ["max-degree", "max_degree"])
def test_enumerate_config_key_spellings(tmp_path, capsys, key):
    spec = write_spec(tmp_path, two_mass_spec())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"enumerate": {key: 1, "dimensionless-only": True}}))
    args = parse_args(["--config", str(cfg), "enumerate", spec])
    assert vars(args) == {"config": str(cfg), "command": "enumerate", "max_degree": 1,
                          "dimensionless_only": True, "out": None, "spec": spec}
    assert parse_args(["--config", str(cfg), "enumerate", spec, "--max-degree", "0"]).max_degree == 0
    assert main(["--config", str(cfg), "enumerate", spec]) == 0
    assert "3 dimensionless monomials at max degree 1" in capsys.readouterr().out


# --lambda stores to lam: a config key may name either
@pytest.mark.parametrize("key", ["lambda", "lam"])
def test_experiment_config_lambda_spellings(tmp_path, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": {key: 0.5}}))
    assert parse_args(["--config", str(cfg), "experiment", "springy"]).lam == 0.5


def test_committed_spec_files_in_sync():
    root = Path(__file__).resolve().parent.parent / "specs"
    expected = {
        "springy.json": (sims.pendulum_spec(), "J"),
        "planck.json": (sims.planck_spec(), "kg m^-1 s^-3"),
        "rietkerk.json": (sims.rietkerk_spec(), "g m^-2"),
    }
    for name, (spec, label) in expected.items():
        data = json.loads((root / name).read_text())
        want = spec.to_json_dict()
        want["label_units"] = label
        assert data == want, f"specs/{name} drifted from the library definition"


def test_run_rietkerk_small(tmp_path):
    results = run_rietkerk(0, "desk", tmp_path / "rk", n_train=4, n_test=2)
    assert results["n_features_dimensionless"] == 25
    assert results["n_features_baseline"] == 33
    assert results["decoder"] == "k2"
    assert np.isfinite(results["dimensionless"]["test_mse"])
    assert np.isfinite(results["baseline"]["test_pearson"])
    assert results["dimensionless"]["equivariance_residual"] == 0.0
    assert results["metadata"]["n_cells"] == 50
    for name in ("train.csv", "test.csv", "model_dimensionless.json",
                 "model_baseline.json"):
        assert (tmp_path / "rk" / name).exists()


def test_run_rietkerk_one_test_row_has_no_pearson(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Python 3.12 and later warn at a fork taken while BLAS keeps threads
        warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                DeprecationWarning)
        results = run_rietkerk(0, "desk", tmp_path / "rk", n_train=2, n_test=1)
    assert results["dimensionless"]["test_pearson"] is None
    assert results["baseline"]["test_pearson"] is None
    assert '"test_pearson": null' in json.dumps(results)


# every artifact is that of one BLAS thread at any OPENBLAS_NUM_THREADS:
# each command runs in a fresh process per thread count, into one --out
@pytest.mark.skipif(not regress.serial_blas_available(),
                    reason="numpy's BLAS is not a scipy-openblas library")
@pytest.mark.parametrize("argv", [
    ["-m", "pireg", "experiment", "springy", "--scale", "desk", "--seed", "0", "--out"],
    ["-m", "pireg", "experiment", "blackbody", "--seed", "0", "--out"],
    ["-c", "import sys; from pireg import cli; "
           "cli.run_rietkerk(0, 'desk', sys.argv[1], n_train=2, n_test=2)"],
], ids=["springy", "blackbody", "rietkerk"])
def test_artifacts_do_not_depend_on_blas_threads(tmp_path, argv):
    out = tmp_path / "out"
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                            os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, *argv, str(out)], env=env, check=True,
                       capture_output=True)
        written.append(artifacts(out))
        for path in out.iterdir():
            path.unlink()
    assert written[0] == written[1]
    assert len(written[0]) >= 4
