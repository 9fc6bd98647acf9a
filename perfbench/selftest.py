"""Fast self-test of the benchmark: a handful of ops per workload.

    python3 perfbench/selftest.py

Checks that every workload emits every metric of BENCHMARK.json with its
unit, with tracing off and on, that every op passes its checks, and that a
deliberately wrong expected count marks the op failed.  Exits 1 on the first
failed check.  Takes about a minute and a half on a 2-core machine.
"""

import json
import sys

import run
from workloads import EXPECTED, WORKLOADS

FAST_OPS = {"predict": 20}


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAILED ") + what, flush=True)
    if not cond:
        sys.exit(1)


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expect(sorted(WORKLOADS) == sorted(w["name"] for w in bench["workloads"]),
           "BENCHMARK.json lists the workloads the benchmark defines")
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            result = run.run(name, 0, 0.0, bool(trace), min_ops=FAST_OPS.get(name, 1))["result"]
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == declared[trace],
                   f"{name} trace={trace}: every declared metric is emitted with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 1,
                   f"{name} trace={trace}: {result['attempted']} ops, all checks pass")
    wrong = dict(EXPECTED["explore"])
    wrong["pendulum_deg3"] += 1
    result = run.run("explore", 0, 0.0, False, expected=wrong, min_ops=1)["result"]
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "explore with a wrong expected monomial count: every op failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
