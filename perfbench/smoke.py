"""Smoke test of the benchmark itself, on tiny inputs (about half a minute).

    python3 perfbench/smoke.py

Runs each workload on one or two operations, untraced and traced, and checks
that every metric BENCHMARK.json names is emitted with its unit, that every
per-layer metric is printed in the report, and that a deliberately altered
pin is reported as a failed operation.  Exits non-zero on the first problem.
"""

import copy
import json
import sys

import run
import tracing

TINY = {
    "enumerate": ["A(1,4)u"],
    "verify": [("C1", {"q": 4}), ("C8", {"n": 2, "q": 2})],
    "cache-cli": ["C(2,3)u"],
}


def check(cond, what):
    if not cond:
        sys.exit(f"smoke: FAIL {what}")
    print(f"smoke: ok   {what}")


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    pins = json.loads(run.PINS.read_text())
    env = run.environment(0)
    printed = [name for name, _, _ in tracing.PER_LAYER]
    for name, ops in TINY.items():
        out = run.HERE / "out" / f"smoke-{name}"
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            r = run.measure(name, 1, 0, trace, out, pins, ops=ops, setups=2, min_calls=4)
            lines, result = run.report(name, r, env)
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={int(trace)}: {result['attempted']} ops, none failed")
            got = result["metrics"]
            missing = [m["name"] for m in declared
                       if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
            check(not missing, f"{name} trace={int(trace)}: every declared metric with its unit {missing}")
            if trace:
                text = "\n".join(lines)
                absent = [m for m in printed if f"metric {m} " not in text]
                check(not absent, f"{name}: every per-layer metric printed {absent}")
        bad = copy.deepcopy(pins)
        key = run.op_key(name, ops[0])
        bad[name][key] = "0" * 64
        r = run.measure(name, 1, 0, False, out, bad, ops=ops, setups=1, min_calls=4)
        _, result = run.report(name, r, env)
        check(not result["correct"] and result["failed"] >= 1,
              f"{name}: an altered pin for {key} fails the run")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
