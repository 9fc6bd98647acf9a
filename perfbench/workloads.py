"""The four benchmark workloads.  Each one builds its inputs from the workload
seed, runs one op per call, and checks every op's outputs.

- springy: ``cli.run_springy`` at desk scale, the paper's headline experiment
  (enumeration, OLS on 2048 rows, LASSO on 128, the 786-column control, the
  equivariance check, artifact writes).  Exercises ``regress``.
- rietkerk: ``cli.run_rietkerk`` at desk grid and horizon with one training
  and two test survivors.  The integrator in ``sims`` is above 95% of the op;
  runs go extinct, so run consumption is exercised, and the one-row OLS is
  rank deficient, so the re-solve path is too.
- predict: one ``regress.predict_rows`` call on one held-out row of a loaded
  springy OLS model, the serving use of ``regress``; per-call overhead
  dominates.  Bypasses fitting, enumeration and ``sims``.
- explore: the spec exploration behind ``pireg enumerate``/``basis``: the
  ``pi`` degree-box sweeps and the integer algebra.  Bypasses ``regress`` and
  ``sims``.

The cost of a springy or rietkerk op depends strongly on its experiment seed
(LASSO sweeps range from about 160 to 1900; an op consumes 0 to 5 extinct
runs), and a run has room for only a few ops.  With timed ops drawn from the
workload seed, the op time spread by more than 25% across workload seeds.  So
their warm-up and timed ops all run one fixed experiment, TIMED_SEED (its
rietkerk op consumes one extinct run), and in a traced run the workload seed
picks the experiment of one untimed held-out op after the others, which is
checked and recorded like every other op: a new workload seed is new data for
the checks, not for the timing.
"""

from __future__ import annotations

import json
import random

import numpy as np

from pireg import cli, pi, regress, sims
from pireg.units import parse_unit

TOL = 1e-10

# Expected structural counts; the self-test corrupts one to show that a
# wrong count fails the op.
EXPECTED = {
    "springy": {"n_features": 286, "n_polluted": 786},
    "rietkerk": {"n_features_dimensionless": 25, "n_features_baseline": 33},
    "predict": {"n_monomials": 286},
    "explore": {"pendulum_deg3": 919, "decoders_deg3": 984, "double_pendulum_deg1": 1097,
                "basis_sizes": [6, 12, 18, 0]},
}


def op_seeds(seed, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(n)]


TIMED_SEED = op_seeds("timed panel", 1)[0]


def canonical(results) -> str:
    """Exact text form of a results dict; NaN compares equal to itself."""
    return json.dumps(results, sort_keys=True, default=float)


class Workload:
    """min_ops: least timed ops per untraced run.  trace_pairs: untraced/traced
    pairs of the same op per traced run.  fastest_op: op_s reports the fastest
    timed op instead of the median one (see run.py).  The untimed warm-up op
    and timed op 0 share an input."""

    name = ""
    min_ops = 1
    trace_pairs = 1
    fastest_op = False

    def __init__(self, seed: int, workdir, expected: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.expected = dict(EXPECTED[self.name] if expected is None else expected)

    def fixture(self) -> None:
        """Once per process, before the repeated set-up."""

    def prepare(self) -> None:
        """Set-up that the benchmark repeats to take its median."""

    def op_input(self, i: int):
        raise NotImplementedError

    def heldout_input(self):
        """Input of an untimed op that ends a traced run, or None."""
        return None

    def op(self, x):
        raise NotImplementedError

    def check(self, x, out) -> tuple[list[str], dict]:
        """(problems, op structure) for one op's output."""
        raise NotImplementedError


class _SeededPipeline(Workload):
    """Warm-up and timed ops run experiment TIMED_SEED; the held-out op's
    experiment seed comes from the workload seed.  An op's results must equal
    those of the first op with the same experiment seed."""

    def __init__(self, seed, workdir, expected=None):
        super().__init__(seed, workdir, expected)
        self.first: dict[int, str] = {}
        self.out_dir = workdir / self.name

    def op_input(self, i):
        return TIMED_SEED

    def heldout_input(self):
        return op_seeds(self.seed, 1)[0]

    def same_as_first(self, s, results) -> list[str]:
        text = canonical(results)
        if self.first.setdefault(s, text) != text:
            return [f"results differ from the first op with seed {s}"]
        return []


class Springy(_SeededPipeline):
    name = "springy"
    min_ops = 3
    trace_pairs = 2

    def op(self, s):
        return cli.run_springy(s, "desk", self.out_dir)

    def check(self, s, res):
        problems = []
        if res["n_features"] != self.expected["n_features"]:
            problems.append(f"n_features {res['n_features']}")
        if res["dimensional_control"]["n_features"] != self.expected["n_polluted"]:
            problems.append(f"polluted n_features {res['dimensional_control']['n_features']}")
        if not res["ols"]["test_dimensionless_mse"] <= TOL:
            problems.append(f"OLS test dimensionless MSE {res['ols']['test_dimensionless_mse']}")
        if not res["ols"]["equivariance_residual"] <= TOL:
            problems.append(f"equivariance residual {res['ols']['equivariance_residual']}")
        if res["lasso"]["converged"] is not True:
            problems.append("LASSO did not converge")
        problems += self.same_as_first(s, res)
        with open(self.out_dir / "model_lasso.json") as fh:
            sweeps = json.load(fh)["metadata"]["sweeps"]
        return problems, {"seed": s, "lasso_sweeps": sweeps,
                          "lasso_support": res["lasso"]["support_size"]}


class Rietkerk(_SeededPipeline):
    name = "rietkerk"
    min_ops = 3
    trace_pairs = 1
    n_train = 1
    n_test = 2

    def op(self, s):
        return cli.run_rietkerk(s, "desk", self.out_dir, n_train=self.n_train,
                                n_test=self.n_test)

    def check(self, s, res):
        problems = []
        for key in ("n_features_dimensionless", "n_features_baseline"):
            if res[key] != self.expected[key]:
                problems.append(f"{key} {res[key]}")
        if not res["dimensionless"]["equivariance_residual"] <= TOL:
            problems.append(
                f"equivariance residual {res['dimensionless']['equivariance_residual']}")
        problems += self.same_as_first(s, res)
        meta = res["metadata"]
        return problems, {"seed": s, "runs": meta["n_runs"], "extinct": meta["n_extinct"],
                          "rank": res["dimensionless"]["rank"]}


class Predict(Workload):
    """One fitted springy OLS model, written by run_springy for TIMED_SEED
    and loaded back; each op predicts one of n_rows held-out rows drawn with
    the workload seed."""

    name = "predict"
    min_ops = 1000
    trace_pairs = 500
    fastest_op = True
    n_rows = 64

    def fixture(self):
        self.model_dir = self.workdir / self.name
        cli.run_springy(TIMED_SEED, "desk", self.model_dir)

    def prepare(self):
        self.model = regress.load_model(self.model_dir / "model_ols.json")
        test = regress.load_dataset_csv(self.model_dir / "test.csv", spec=self.model.spec)
        pick = np.random.default_rng(self.seed).choice(test.n, self.n_rows, replace=False)
        self.rows = test.rows[pick]
        self.labels = test.label_values[pick]
        # single-row references: batched predict_rows differs from the
        # single-row call in the last bits
        self.refs = [regress.predict_rows(self.model, self.rows[j:j + 1])
                     for j in range(self.n_rows)]

    def op_input(self, i):
        return i % self.n_rows

    def op(self, j):
        return regress.predict_rows(self.model, self.rows[j:j + 1])

    def check(self, j, out):
        problems = []
        if len(self.model.monomials) != self.expected["n_monomials"]:
            problems.append(f"model has {len(self.model.monomials)} monomials")
        if out.shape != (1,) or out.tobytes() != self.refs[j].tobytes():
            problems.append(f"row {j}: {out!r} is not the single-row reference {self.refs[j]!r}")
        elif not abs(out[0] - self.labels[j]) <= TOL * abs(self.labels[j]):
            problems.append(f"row {j}: {out[0]!r} vs exact label {self.labels[j]!r}")
        return problems, {"row": j}


class Explore(Workload):
    """Fixed specs, so the seed does not change the work."""

    name = "explore"
    min_ops = 3
    trace_pairs = 2

    def prepare(self):
        self.pendulum = sims.pendulum_spec()
        self.double = sims.double_pendulum_spec()
        self.specs = [self.pendulum, sims.rietkerk_spec(), self.double, sims.planck_spec()]
        self.energy = parse_unit("J", self.pendulum.system)

    def op_input(self, i):
        return None

    def op(self, _):
        return {
            "pendulum_deg3": pi.enumerate_monomials(self.pendulum, 3, dimensionless_only=True),
            "decoders_deg3": pi.decoder_solutions(self.pendulum, self.energy, 3),
            "double_pendulum_deg1": pi.enumerate_monomials(self.double, 1,
                                                           dimensionless_only=True),
            "basis_sizes": [len(pi.dimensionless_basis(s)) for s in self.specs],
        }

    def check(self, _, out):
        problems = []
        counts = {key: len(out[key]) for key in ("pendulum_deg3", "decoders_deg3",
                                                 "double_pendulum_deg1")}
        counts["basis_sizes"] = out["basis_sizes"]
        for key, value in counts.items():
            if value != self.expected[key]:
                problems.append(f"{key}: {value}, expected {self.expected[key]}")
        for key in ("pendulum_deg3", "double_pendulum_deg1"):
            exps = [m.exps for m in out[key]]
            if any(a >= b for a, b in zip(exps, exps[1:])):
                problems.append(f"{key} is not in strict lexicographic order")
        keys = [(pi.degree(m, self.pendulum), pi.total_degree(m), m.exps)
                for m in out["decoders_deg3"]]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            problems.append("decoders are not ordered by (degree, total degree, exponents)")
        return problems, counts


WORKLOADS = {w.name: w for w in (Springy, Rietkerk, Predict, Explore)}
