"""Child processes of the benchmark; each one is a fresh interpreter.

    python3 perfbench/worker.py pass CONFIG_JSON
        Import omega and print {"ready": true}; then read one op per line
        from stdin (an enumerate spec or a claim point, as JSON), run it and
        print one JSON line with its time and whether it matched its pin in
        CONFIG_JSON.  At the end of stdin print a last line with the pass
        time, the sum of the op times.  A fresh process per pass keeps
        omega's module-level memos from turning repeats into lookups; taking
        ops one at a time lets the benchmark alternate two such processes.

    python3 perfbench/worker.py cli SPANS_PATH RUN_ID PHASE -- OMEGA_ARGS...
        Install the span wrappers, then run omega.cli.main(OMEGA_ARGS) exactly
        as the `omega` entry point would; spans go to SPANS_PATH at exit.
"""

import hashlib
import json
import sys
import time


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def compact(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def enumerate_payload(table):
    return compact({
        "size": table.size,
        "spectrum": [int(m) for m in table.spectrum],
        "order_histogram": [[int(k), int(v)] for k, v in sorted(table.order_histogram.items())],
    })


def op_key(kind, op):
    if kind == "verify":
        cid, params = op
        return cid if params is None else f"{cid} {compact(params)}"
    return op


def run_enumerate_op(spec_str):
    from omega import groups, oracle

    spec = groups.parse_group_spec(spec_str)
    table = oracle.enumerate_group(oracle.classical_generators(spec))
    want = groups.group_order(spec).n
    if table.size != want:
        raise RuntimeError(f"enumerated {table.size} elements, closed form says {want}")
    return enumerate_payload(table)


def run_verify_op(op):
    from omega import claims

    cid, params = op
    return compact(claims.run_claim(cid, params).as_dict())


def _import_omega():
    t0 = time.perf_counter()
    import omega.cli  # noqa: F401  (loads every layer)

    return time.perf_counter() - t0


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main_pass(config):
    import_s = _import_omega()
    rec = None
    if config.get("spans"):
        import tracing

        rec = tracing.Recorder(config["run"], "pass")
        rec.import_s = import_s
        tracing.install(rec)
    _emit({"ready": True})
    kind, pins = config["kind"], config["pins"]
    run_op = run_enumerate_op if kind == "enumerate" else run_verify_op
    pass_s = 0.0
    for line in sys.stdin:
        op = json.loads(line)
        key = op_key(kind, op)
        t0 = time.perf_counter()
        try:
            ok = digest(run_op(op)) == pins.get(key)
            err = None if ok else "answer differs from the pin"
        except Exception as exc:  # every failure of one op is counted, none retried
            ok, err = False, f"{type(exc).__name__}: {exc}"
        s = time.perf_counter() - t0
        pass_s += s
        _emit({"op": key, "s": s, "ok": ok, "error": err})
    if rec is not None:
        rec.write(config["spans"])
    _emit({"pass_s": pass_s})
    return 0


def main_cli(spans_path, run_id, phase, argv):
    import tracing

    import_s = _import_omega()
    import omega.cli

    rec = tracing.Recorder(run_id, phase)
    rec.import_s = import_s
    tracing.install(rec)
    try:
        return omega.cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.write(spans_path)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "pass":
        sys.exit(main_pass(json.loads(sys.argv[2])))
    if mode == "cli":
        spans_path, run_id, phase, sep = sys.argv[2:6]
        if sep != "--":
            sys.exit("usage: worker.py cli SPANS_PATH RUN_ID PHASE -- OMEGA_ARGS...")
        sys.exit(main_cli(spans_path, run_id, phase, sys.argv[6:]))
    sys.exit(f"unknown mode {mode!r}")
