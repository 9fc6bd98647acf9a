"""pireg benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; pireg is imported from ``src/`` beside this
directory.  The run builds the workload's inputs from the seed, repeats the
set-up three times, runs one untimed warm-up op (the first ``lstsq`` in a
process is cold), then times ops one after another until the workload's op
count is reached and the next op would end further past ``--seconds`` than
short of it.  Every op's outputs are checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each op once
untraced and once with spans around the calls into pireg, ends with the
workload's untimed held-out op, if it has one, and reports the per-layer
metrics.  The last line of stdout is the JSON result; a fuller
record (environment, every op, the spans) goes to ``perfbench/out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS threads are pinned before numpy loads; 1 is within any nproc and keeps
# the other core free for the rest of the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3

_src = ROOT / "src"
if not (_src / "pireg" / "__init__.py").is_file():
    raise SystemExit(f"pireg sources not found under {_src}")
sys.path.insert(0, str(_src))

import numpy as np  # noqa: E402

import pireg  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if not Path(pireg.__file__).resolve().is_relative_to(_src.resolve()):
    raise SystemExit(f"imported pireg from {pireg.__file__}, not from {_src}")

END_TO_END = [("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB")]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
    }


class Loop:
    """Runs and checks ops, keeping a record of each."""

    def __init__(self, workload):
        self.workload = workload
        self.ops: list[dict] = []

    def attempt(self, i: int, phase: str, call=None) -> float:
        wl = self.workload
        x = wl.heldout_input() if phase == "heldout" else wl.op_input(i)
        t0 = time.perf_counter()
        try:
            out = (call or wl.op)(x)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            wall = time.perf_counter() - t0
            problems, info = [f"op raised {exc!r}"], {}
        else:
            wall = time.perf_counter() - t0
            try:
                problems, info = wl.check(x, out)
            except Exception as exc:
                problems, info = [f"check raised {exc!r}"], {}
        self.ops.append({"i": i, "phase": phase, "wall_s": wall, "problems": problems, **info})
        return wall

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["problems"])


def run(name: str, seed: int, seconds: float, trace: bool, expected: dict | None = None,
        min_ops: int | None = None) -> dict:
    """One benchmark run; returns the full record, with the printed result
    under "result".  expected and min_ops exist for the self-test."""
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    try:
        return _run(name, seed, seconds, trace, expected, min_ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, expected, min_ops, workdir):
    import_s = time.perf_counter() - T_START
    wl = WORKLOADS[name](seed, workdir, expected)
    if min_ops is None:
        min_ops = wl.trace_pairs if trace else wl.min_ops
    t0 = time.perf_counter()
    wl.fixture()
    fixture_s = time.perf_counter() - t0
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.prepare()
        prepare_s.append(time.perf_counter() - t0)
    loop = Loop(wl)
    warmup_s = loop.attempt(0, "warmup")
    # time to the first timed op, with the repeated set-up counted once at
    # its median
    setup_s = time.perf_counter() - T_START - sum(prepare_s) + statistics.median(prepare_s)

    walls, traced_walls = [], []
    tracer = Tracer()
    t_loop = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - t_loop + 0.5 * walls[-1] < seconds:
        if not trace:
            walls.append(loop.attempt(i, "timed"))
        else:
            # same input untraced and traced, alternating which goes first
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if not traced:
                    walls.append(loop.attempt(i, "untraced"))
                    continue
                tracer.install()
                try:
                    traced_walls.append(loop.attempt(
                        i, "traced", lambda x, i=i: tracer.run_op(i, wl.op, x)))
                finally:
                    tracer.uninstall()
        i += 1
    if trace and wl.heldout_input() is not None:
        loop.attempt(i, "heldout")

    if trace:
        values = layer_metrics(tracer.spans, traced_walls, walls)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in LAYER_METRICS}
    else:
        values = {
            "setup_s": setup_s,
            # Neighbours on a shared host slow this machine by up to 1.9x in
            # bursts that last from a fraction of a second to minutes.  An op
            # of seconds averages over the short bursts, so the median op
            # moves only with the long ones.  Ops of a few milliseconds
            # (predict) split into a fast and a slow mode and their median
            # jumps between the two from run to run; their fastest op stays
            # with the fast mode.
            "op_s": min(walls) if wl.fastest_op else statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    extra = {"n_timed_ops": len(walls), "fail_ratio": loop.failed / len(loop.ops),
             "pipeline_p50_s": statistics.median(walls), "op_min_s": min(walls),
             "op_mean_s": statistics.mean(walls)}
    if len(walls) >= 1000:  # p99 then has at least ten samples beyond it
        extra["op_p99_ms"] = 1000.0 * statistics.quantiles(walls, n=100)[98]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "setup": {"import_s": import_s, "fixture_s": fixture_s, "prepare_s": prepare_s,
                  "warmup_s": warmup_s},
        "extra": extra,
        "ops": loop.ops,
        "spans": tracer.to_json(),
        "result": {
            "correct": loop.failed == 0,
            "attempted": len(loop.ops),
            "failed": loop.failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
