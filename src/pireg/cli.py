"""Command-line front end: spec checking, basis/enumeration dumps,
regressions from CSV, and the three canned experiments.

Exit codes: 0 success, 2 spec or unit errors, 3 data errors, 4 fit did not
converge (the report is still written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import pi, regress, sims
from .intlinalg import solve_diophantine
from .pi import FeatureSpec, MonomialSet, SCHEMA_VERSION
from .regress import DataError
from .units import GroupElement, UnitError, parse_unit

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_DATA = 3
EXIT_NOCONV = 4


def load_spec_file(path):
    """(spec, label_units or None) from a spec JSON file.  DataError as
    pi.read_json_file for a file that is not a JSON object; ValueError or
    UnitError for a malformed spec in one."""
    def parse(data):
        try:
            spec = FeatureSpec.from_json_dict(data)
        except (KeyError, TypeError) as e:
            raise ValueError(f"{path}: malformed spec file: {e}") from None
        units = data.get("label_units")
        return spec, None if units is None else parse_unit(units, spec.system)
    return pi.read_json_file(path, parse)


def write_report(path, command: str, config: dict, results: dict) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


# ---------------------------------------------------------------------------
# subcommands

def cmd_units_check(args, config) -> int:
    spec, label_units = load_spec_file(args.spec)
    from .intlinalg import rank as int_rank

    rk = int_rank(spec.units_array)
    s = spec.d - rk
    print(f"d={spec.d} k={spec.k} rank={rk} s={s}")
    if label_units is not None:
        sol = solve_diophantine(spec.units_array, label_units.exps)
        print(f"label units reachable: {'yes' if sol is not None else 'no'}")
    return EXIT_OK


def cmd_basis(args, config) -> int:
    spec, _ = load_spec_file(args.spec)
    basis = pi.dimensionless_basis(spec)
    for m in basis:
        print(pi.format_monomial(m, spec))
    print(f"# {len(basis)} basis monomials")
    if args.out:
        pi.save_monomials(args.out, basis, spec)
    return EXIT_OK


def cmd_enumerate(args, config) -> int:
    spec, _ = load_spec_file(args.spec)
    monos = pi.enumerate_monomials(
        spec, args.max_degree, dimensionless_only=args.dimensionless_only
    )
    kind = "dimensionless" if args.dimensionless_only else "total"
    print(f"{len(monos)} {kind} monomials at max degree {args.max_degree}")
    if args.out:
        pi.save_monomials(args.out, monos, spec)
    return EXIT_OK


def _int_suffix(arg: str, flag: str, form: str) -> int:
    """The integer after arg's colon; ValueError naming flag and form if none."""
    try:
        return int(arg.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"{flag} {arg!r}: expected {form} with an integer") from None


def _resolve_features(arg: str, spec: FeatureSpec) -> MonomialSet:
    if arg == "basis":
        # constant first so a full-rank spec (empty basis) still fits C * D(x)
        return pi.parse_monomial("1", spec) + pi.dimensionless_basis(spec)
    if arg.startswith("enumerate:"):
        deg = _int_suffix(arg, "--features", "enumerate:<deg>")
        return pi.enumerate_monomials(spec, deg, dimensionless_only=True)
    if arg.startswith("file:"):
        return pi.load_monomials(arg.split(":", 1)[1], spec)
    raise DataError(f"unknown --features value {arg!r}")


def _resolve_decoders(arg: str, spec, label_units, max_degree) -> MonomialSet:
    """The --decoder value's decoders; only auto, ensemble and index:<i>
    search the decoder solutions.  An expr: decoder's units are checked
    where it is fit, by pi.require_units."""
    if arg.startswith("expr:"):
        return pi.parse_monomial(arg.split(":", 1)[1], spec)
    if arg.startswith("index:"):
        i = _int_suffix(arg, "--decoder", "index:<i>")
    elif arg not in ("auto", "ensemble"):
        raise DataError(f"unknown --decoder value {arg!r}")
    sols = pi.decoder_solutions(spec, label_units, max_degree)
    if not sols:
        if solve_diophantine(spec.units_array, label_units.exps) is None:
            raise DataError("no decoder monomial exists for the label units")
        raise DataError(
            f"no decoder monomial for the label units has degree <= {max_degree}; "
            "raise --decoder-max-degree"
        )
    if arg == "auto":
        return sols[:1]
    if arg == "ensemble":
        return sols
    if not 0 <= i < len(sols):
        raise DataError(f"decoder index {i} out of range ({len(sols)} solutions)")
    return sols[i:i + 1]


def _model_summary(model, spec, top=8) -> list:
    order = np.argsort(-np.abs(model.weights))[:top]
    return [
        {"monomial": pi.format_monomial(model.monomials[i], spec), "weight": model.weights[i]}
        for i in order
        if model.weights[i] != 0.0
    ]


def cmd_regress(args, config) -> int:
    spec, label_units = load_spec_file(args.spec)
    # the spec file's label units, if it has them, else the training CSV's,
    # bind the label of both CSVs
    train = regress.load_dataset_csv(args.train, spec, label_units)
    test = regress.load_dataset_csv(args.test, spec, train.label_units) if args.test else None
    features = _resolve_features(args.features, spec)
    decoders = _resolve_decoders(args.decoder, spec, train.label_units, args.decoder_max_degree)
    loss_scale = pi.parse_monomial(args.loss_scale, spec) if args.loss_scale else None

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        models = regress.fit_monomial_models(
            train, features, decoders, method=args.method, ridge=args.ridge, lam=args.lam,
            loss_scale=loss_scale, metadata={"seed": args.seed, "train_csv": str(args.train)},
        )
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    noconv = any(issubclass(w.category, regress.LassoConvergenceWarning) for w in caught)

    # the whole ensemble scored from one train, one test and one stacked design
    scale = models[0].decoder if loss_scale is None else loss_scale
    train_mse, train_dmse, _ = regress.prediction_errors(models, train, scale)
    if test is not None:
        test_mse, test_dmse, _ = regress.prediction_errors(models, test, scale)
        residuals = regress.equivariance_residuals(models, test.rows[:100], n_group=100,
                                                   seed=args.seed)
    results = {"n_features": len(features), "n_models": len(models), "models": []}
    for i, model in enumerate(models):
        entry = {
            "decoder": pi.format_monomial(model.decoder[0], spec),
            "train_mse": train_mse[i],
            "train_dimensionless_mse": train_dmse[i],
            "top_weights": _model_summary(model, spec),
            "metadata": model.metadata,
        }
        if test is not None:
            entry["test_mse"] = test_mse[i]
            entry["test_dimensionless_mse"] = test_dmse[i]
            entry["equivariance_residual"] = residuals[i]
        results["models"].append(entry)
        print(
            f"decoder {entry['decoder']}: "
            + ", ".join(f"{k}={v:.3e}" for k, v in entry.items() if k.endswith("mse"))
        )
    if args.model_out:
        regress.save_model(args.model_out, models[0])
    if args.report:
        write_report(args.report, "regress", config, results)
    return EXIT_NOCONV if noconv else EXIT_OK


# ---------------------------------------------------------------------------
# experiments

def _springy_sizes(scale: str):
    if scale == "desk":
        return 2048, 512, 128
    return 8192, 1024, 128


# One fixed draw of dimensional monomials serves as the negative control; the
# degradation it causes is what makes the dimensionless restriction earn its keep.
CONTAMINATION_SEED = 19
N_CONTAMINATION = 500
# The second unit system the control is scored in: kg -> 2^-10 kg, m -> 2^-7 m.
# Powers of two scale every value exactly, so a dimensionless model's error
# there equals its in-units error bit for bit, and only dimensional features
# can move it.
CONTROL_UNIT_CHANGE = GroupElement((2.0**-10, 2.0**-7, 1.0))


def _control_mse(train, test, polluted, decoder) -> tuple[float, float]:
    """Test dimensionless MSE of the OLS fit over the polluted feature set,
    in the data's units and with the test split in CONTROL_UNIT_CHANGE's."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", regress.RankDeficientWarning)
        model = regress.fit_monomial_model(train, polluted, decoder, method="ols")
    return (regress.dimensionless_mse(model, test, decoder),
            regress.dimensionless_mse(model, test.rescaled(CONTROL_UNIT_CHANGE), decoder))


def run_springy(seed: int, scale: str, out_dir, lam: float = 1e-2) -> dict:
    """Recover the pendulum Hamiltonian from dimensionless monomials: an OLS
    fit on the full training set, a LASSO fit on a small one, and the same
    fits over a feature set polluted with dimensional monomials.

    The polluted OLS fit, the largest by far, runs in a forked worker from
    sims._worker_pool while this process does the rest, and its test
    errors, in the data's units and in CONTROL_UNIT_CHANGE's, are collected
    last; where the pool falls back to this process, the results are the
    same."""
    n_train, n_test, n_lasso = _springy_sizes(scale)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = sims.sample_pendulum_dataset(n_train + n_test, seed)
    spec = data.spec
    train, test = data[:n_train], data[n_train:]
    small = train[:n_lasso]

    features = pi.enumerate_monomials(spec, 2, dimensionless_only=True)
    decoder = pi.parse_monomial("k_s L^2", spec)
    polluted = features + pi.sample_dimensional_monomials(
        spec, 2, N_CONTAMINATION, seed=CONTAMINATION_SEED
    )
    _, pool = sims._worker_pool(1, blas=True)
    try:
        control = pool.submit(_control_mse, train, test, polluted, decoder)
        meta = {"seed": seed, "scale": scale}
        ols = regress.fit_monomial_model(train, features, decoder, method="ols", metadata=meta)
        lasso = regress.fit_monomial_model(small, features, decoder, method="lasso", lam=lam,
                                           max_sweeps=20000, metadata=meta)
        lasso_bad = regress.fit_monomial_model(small, polluted, decoder, method="lasso", lam=lam,
                                               max_sweeps=20000, metadata=meta)
        # one test design scores both fits
        test_mse, test_dmse, _ = regress.prediction_errors([ols, lasso], test, decoder)
        ols_mse = test_dmse[0]
        results = {
            "n_features": len(features),
            "decoder": pi.format_monomial(decoder[0], spec),
            "ols": {
                "n_train": train.n,
                "test_dimensionless_mse": ols_mse,
                "test_mse": test_mse[0],
                "top_weights": _model_summary(ols, spec),
                "equivariance_residual": regress.equivariance_residual(
                    ols, test.rows[:100], n_group=100, seed=seed
                ),
            },
            "lasso": {
                "n_train": small.n,
                "lambda": lam,
                "support_size": int(sum(1 for w in lasso.weights if w != 0.0)),
                "test_dimensionless_mse": test_dmse[1],
                "top_weights": _model_summary(lasso, spec),
                "converged": lasso.metadata["converged"],
            },
        }
        lasso_bad_mse = regress.dimensionless_mse(lasso_bad, test, decoder)
        regress.save_dataset_csv(train, out_dir / "train.csv")
        regress.save_dataset_csv(test, out_dir / "test.csv")
        regress.save_model(out_dir / "model_ols.json", ols)
        regress.save_model(out_dir / "model_lasso.json", lasso)
        ols_bad_mse, ols_bad_moved_mse = control.result()
    finally:
        pool.shutdown(cancel_futures=True)
    # the clean model's error in the moved units is ols_mse bit for bit
    results["dimensional_control"] = {
        "n_features": len(polluted),
        "ols_test_dimensionless_mse": ols_bad_mse,
        "ols_degradation": ols_bad_mse / ols_mse,
        "unit_change": list(CONTROL_UNIT_CHANGE.factors),
        "ols_moved_test_dimensionless_mse": ols_bad_moved_mse,
        "ols_moved_degradation": ols_bad_moved_mse / ols_mse,
        "lasso_test_dimensionless_mse": lasso_bad_mse,
        "lasso_support_size": int(sum(1 for w in lasso_bad.weights if w != 0.0)),
    }
    return results


def run_blackbody(seed: int, scale: str, out_dir) -> dict:
    """Long-wavelength radiance: no dimensionless monomials exist, the
    decoder is unique, and the fit is a single constant."""
    n = 256 if scale == "desk" else 1024
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = sims.blackbody_dataset(n, seed)
    spec = data.spec
    n_train = int(0.8 * n)
    train, test = data[:n_train], data[n_train:]

    basis = pi.dimensionless_basis(spec)
    decoders = pi.decoder_solutions(spec, data.label_units, 4)
    features = pi.parse_monomial("1", spec) + basis
    models = regress.fit_monomial_models(train, features, decoders, method="ols",
                                         metadata={"seed": seed})
    results = {
        "s": len(basis),
        "n_decoders": len(decoders),
        "decoders": [pi.format_monomial(d, spec) for d in decoders],
        "models": [],
    }
    for m in models:
        test_mse, test_dmse, _ = regress.prediction_errors([m], test, m.decoder)
        results["models"].append({
            "decoder": pi.format_monomial(m.decoder[0], spec),
            "constant": m.weights[0],
            "test_mse": test_mse[0],
            "test_dimensionless_mse": test_dmse[0],
            "equivariance_residual": regress.equivariance_residual(
                m, test.rows, n_group=100, seed=seed
            ),
        })
    regress.save_dataset_csv(train, out_dir / "train.csv")
    regress.save_dataset_csv(test, out_dir / "test.csv")
    regress.save_model(out_dir / "model.json", models[0])
    return results


def _with_inverses(monomials: MonomialSet) -> MonomialSet:
    """Each monomial followed by its inverse, all with coefficient 1."""
    E = monomials.exps
    return MonomialSet(np.stack([E, -E], axis=1).reshape(-1, monomials.d))


def run_rietkerk(seed: int, scale: str, out_dir,
                 n_train: int | None = None, n_test: int | None = None) -> dict:
    """Emulate mean vegetation at the horizon from the model parameters:
    a dimensionless-feature regression against a raw-parameter baseline."""
    grid = sims.GridScale.desk() if scale == "desk" else sims.GridScale.paper()
    if n_train is None:
        n_train = 200 if scale == "desk" else 1000
    if n_test is None:
        n_test = 50 if scale == "desk" else 100
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    exp = sims.rietkerk_experiment(n_train, n_test, seed, grid)
    spec = exp.train.spec
    const = pi.parse_monomial("1", spec)

    table = sims.rietkerk_table_features()
    dimless_feats = const + _with_inverses(table)
    decoder = pi.parse_monomial("k2", spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", regress.RankDeficientWarning)
        dimless = regress.fit_monomial_model(
            exp.train, dimless_feats, decoder, method="ols",
            metadata={"seed": seed, "scale": scale},
        )
        raw = MonomialSet(np.eye(spec.d, dtype=np.int64))
        baseline_feats = const + _with_inverses(raw)
        baseline = regress.fit_monomial_model(
            exp.train, baseline_feats, None, method="ols",
            metadata={"seed": seed, "scale": scale},
        )

    def scores(model):
        # one test design gives the error and the correlation
        errors, _, preds = regress.prediction_errors([model], exp.test)
        return {"test_mse": errors[0],
                "test_pearson": regress.pearson(preds[0], exp.test.label_values),
                "rank": model.metadata["rank"]}

    results = {
        "metadata": exp.metadata,
        "n_features_dimensionless": len(dimless_feats),
        "n_features_baseline": len(baseline_feats),
        "decoder": pi.format_monomial(decoder[0], spec),
        "dimensionless": {
            **scores(dimless),
            "equivariance_residual": regress.equivariance_residual(
                dimless, exp.test.rows, n_group=100, seed=seed
            ),
        },
        "baseline": scores(baseline),
    }
    regress.save_dataset_csv(exp.train, out_dir / "train.csv")
    regress.save_dataset_csv(exp.test, out_dir / "test.csv")
    regress.save_model(out_dir / "model_dimensionless.json", dimless)
    regress.save_model(out_dir / "model_baseline.json", baseline)
    return results


def cmd_experiment(args, config) -> int:
    out_dir = args.out or f"runs/{args.name}"
    t0 = time.perf_counter()
    if args.name == "springy":
        results = run_springy(args.seed, args.scale, out_dir, lam=args.lam)
    elif args.name == "blackbody":
        results = run_blackbody(args.seed, args.scale, out_dir)
    else:  # argparse's choices admit no other name
        results = run_rietkerk(args.seed, args.scale, out_dir)
    # report files stay byte-reproducible, so wall time goes to stdout only
    write_report(Path(out_dir) / "report.json", f"experiment {args.name}", config, results)
    print(json.dumps(results, indent=1, default=float))
    print(f"artifacts in {out_dir} ({time.perf_counter() - t0:.1f}s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser() -> argparse.ArgumentParser:
    """Every flag and its default.  Each subcommand adds its positionals after
    its options: a report's config lists the parsed namespace in this order."""
    ap = argparse.ArgumentParser(
        prog="pireg",
        description="dimensionless monomial features and units-equivariant regression",
    )
    ap.add_argument("--config", default=None, help="JSON file of per-command flag defaults")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("units-check", help="validate a spec file, print d/k/rank/s")
    p.add_argument("spec")

    p = sub.add_parser("basis", help="print (and save) a dimensionless lattice basis")
    p.add_argument("--out", default=None)
    p.add_argument("spec")

    p = sub.add_parser("enumerate", help="sweep all monomials up to a degree")
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--dimensionless-only", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("spec")

    p = sub.add_parser("regress", help="fit a monomial regression from CSV data")
    p.add_argument("--test", default=None)
    p.add_argument("--features", default="basis", help="basis | enumerate:<deg> | file:<path>")
    p.add_argument("--method", choices=["ols", "lasso"], default="ols")
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--decoder", default="auto", help="auto | index:<i> | expr:<monomial> | ensemble")
    p.add_argument("--decoder-max-degree", type=int, default=2)
    p.add_argument("--loss-scale", default=None, help="monomial with label units")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.add_argument("--model-out", default=None)
    p.add_argument("--spec", required=True)
    p.add_argument("train")

    p = sub.add_parser("experiment", help="run a canned experiment end to end")
    p.add_argument("--scale", choices=["desk", "paper"], default="desk")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=1e-2)
    p.add_argument("name", choices=["springy", "blackbody", "rietkerk"])

    return ap


def parse_args(argv=None) -> argparse.Namespace:
    """argv parsed with the --config file's section for the command as its
    defaults: explicit flags beat file values, which beat build_parser's.
    Keys name a flag in either spelling (max-degree or max_degree, lambda or
    lam), other keys are ignored; values are checked as on the command line."""
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.config is None:
        return args
    section = pi.read_json_file(args.config, lambda payload: payload).get(args.command, {})
    if not isinstance(section, dict):
        raise DataError(f"{args.config}: section {args.command!r} is not a JSON object")
    p = next(a for a in ap._actions if a.dest == "command").choices[args.command]
    for action in p._actions:
        names = [action.dest] + [o.lstrip("-") for o in action.option_strings]
        value = next((section[k] for k in names if k in section), None)
        if value is None or action.required or action.dest == "help":
            continue
        # a command-line value's type conversion and choices check; a
        # store_true flag takes a JSON boolean
        try:
            if action.nargs != 0:
                value = p._get_values(action, [str(value)])
            elif not isinstance(value, bool):
                raise argparse.ArgumentError(action, f"expected true or false, got {value!r}")
        except argparse.ArgumentError as e:
            p.error(f"{args.config}: {e}")
        p.set_defaults(**{action.dest: value})
    return ap.parse_args(argv)


_COMMANDS = {
    "units-check": cmd_units_check,
    "basis": cmd_basis,
    "enumerate": cmd_enumerate,
    "regress": cmd_regress,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        config = {k: v for k, v in vars(args).items() if k not in ("config", "command")}
        return _COMMANDS[args.command](args, config)
    except (UnitError, pi.EnumerationTooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SPEC
    # ahead of ValueError, which DataError subclasses
    except (DataError, OSError, ArithmeticError, sims.InsufficientSurvivors) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
