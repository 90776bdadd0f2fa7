"""Benchmark of omega's exhaustive oracle, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (the directory that holds src/omega).  The
last line of stdout is one JSON object {correct, attempted, failed, metrics};
the lines above it name every metric with its unit, and
perfbench/out/<workload>/result.json keeps the same report.

Workloads (see BENCHMARK.json for why each one exists):

  enumerate  one fresh interpreter per pass; a pass runs
             enumerate_group(classical_generators(s)) for each spec of
             ENUMERATE_SPECS in seed-shuffled order, checks |G| against the
             closed form and the (size, spectrum, histogram) against its pin.
  verify     one fresh interpreter per pass; a pass runs run_claim at each
             point of VERIFY_POINTS in catalog order (the seed is unused:
             claims share the memo in that order) and checks each
             ClaimResult.as_dict() against its pin.
  cache-cli  set-up writes a cache directory through cache misses
             (`omega enumerate --json --cache DIR`); the timed part is a
             closed loop of one client sending seed-ordered requests, each a
             fresh `python -m omega.cli` process that hits the cache, and
             checks its stdout byte for byte against the pin.

A pass in a fresh process matters because _TABLE_MEMO, _SEMI_MEMO and
_FIELD_MEMO are module-level: in a reused process every repeat is a lookup.
An untraced run measures perfbench/ref/omega, a fixed copy of the program,
beside src/omega, one operation after the other, and divides setup_s and
wall_s by how much slower than usual the machine ran that copy (see "Machine
speed" below).  With --trace 1 every other pass runs with the span wrappers of tracing.py and
the per-layer metrics come from those passes; the untraced passes in between
give the tracing overhead.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PINS = HERE / "pins.json"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from worker import compact, digest, op_key  # noqa: E402

# The universal specs of the criterion-02 enumeration list that finish in under
# two seconds each.  C(2,4)u and C(3,2)u (24-37 s each, cold) do not fit in a
# run of this benchmark; they are left out.
ENUMERATE_SPECS = (
    "A(1,2)u", "A(1,3)u", "A(1,4)u", "A(1,5)u", "A(1,7)u", "A(1,9)u",
    "A(2,2)u", "A(2,3)u", "A(2,4)u",
    "C(2,2)u", "C(2,3)u",
    "2A(2,3)u", "2A(3,2)u",
)

# Every claim of the catalog at the points whose groups stay at or below
# 52 000 elements, in catalog order.  C4 (q = 4 only) and C5 (Sp6(2)) have no
# such point; C6 runs at (n, q) = (2, 2), off its catalog grid.
VERIFY_POINTS = (
    ("C1", {"q": 4}), ("C1", {"q": 8}), ("C1", {"q": 16}), ("C1", {"q": 32}),
    ("C2", {"q_lo": 2, "q_hi": 1000}),
    ("C3", {"q_lo": 3, "q_hi": 1000}),
    ("C6", {"n": 2, "q": 2}),
    ("C7", {"q": 2}), ("C7", {"q": 3}), ("C7", {"q": 4}),
    ("C7", {"q": 5}), ("C7", {"q": 8}), ("C7", {"q": 9}),
    ("C8", {"n": 2, "q": 2}), ("C8", {"n": 2, "q": 3}),
    ("C9", {"q": 2}), ("C9", {"q": 3}),
    ("C10", None), ("C11", None),
    ("C12", {"q_max": 10, "n_max": 20}),
    ("C13", {"group": "C(2,3)s", "zorder": 4}),
    ("C13", {"group": "2A(3,2)u", "zorder": 4}),
    ("C14", {"model": "sym6-mod3"}),
    ("C15", {"kind": "sl-hyperplane", "args": [3, 2]}),
    ("C15", {"kind": "sl-hyperplane", "args": [3, 3]}),
    ("C15", {"kind": "sl-hyperplane", "args": [3, 4]}),
    ("C15", {"kind": "sl-hyperplane", "args": [4, 2]}),
    ("C15", {"kind": "gl-affine", "args": [4, 1]}),
    ("C15", {"kind": "gl-affine", "args": [2, 2]}),
    ("C15", {"kind": "gl-affine", "args": [3, 2]}),
    ("C16", None),
)

# Requests of the cache workload, and the universal tables set-up writes for
# them.  C(2,4)u and C(3,2)u are left out: their misses alone take about a
# minute, and set-up runs several times per run.
CACHE_SPECS = ("A(2,4)u", "2A(3,2)u", "C(2,3)u", "A(2,4)s", "C(2,3)s")
CACHE_SETUP_SPECS = ("A(2,4)u", "2A(3,2)u", "C(2,3)u")
CACHE_SETUPS = 2

# Timing percentiles come from at least MIN_CALLS operations; the tail is the
# 66th percentile, the highest with ten samples beyond it at that count.  It is
# fixed, so a faster program (more calls per run) still reports the same one.
MIN_CALLS = 30
TAIL_PCT = 66
# Extra set-ups (start an interpreter, import omega, exit) before each pass of
# the pass-based workloads; each pass is a set-up too, and setup_s is the
# median.  Spreading them over the run samples the same machine load as the
# passes do.
SETUP_PROBES = 1
# Passes of a traced run, each of the traced and the untraced kind.
MIN_TRACE_PASSES = 3
# Every child is killed at this many seconds after the start of the run.
HARD_LIMIT_S = 170.0

# Machine speed.  Other tenants of a shared machine slow every operation down,
# by 20-50%, in bands that last from a second to several minutes, so raw times
# of the same code spread by 10-30% over ten runs, and a quantile below the
# median (the fastest pass, its lower quartile) spreads as much.  An untraced
# run therefore measures a reference beside the program: perfbench/ref/omega
# is a copy of src/omega as it was when the benchmark was added, and it never
# changes.  Each pass starts a fresh worker of each and sends every operation
# to both, one right after the other, the program and the reference going
# first in turn; cache-cli requests and set-ups alternate the same way.  So
# both see the same bands.  The reference's mean pass against REF_PASS_S, its
# pass on a quiet machine, is the machine's slowdown during the run, and
# wall_s is the program's mean pass divided by it; that is REF_PASS_S times the
# ratio of the program's total time to the reference's over the same
# operations.  Over ten runs that ratio spread half as much as one made of
# per-operation medians, because each pair of times shares its band.  setup_s
# is the program's median set-up divided by the reference's against
# REF_SETUP_S.  Both read as seconds on the quiet machine; the raw times and
# both slowdowns are in the report and in result.json.
REF = HERE / "ref"
REF_PASS_S = {"enumerate": 3.2, "verify": 2.5, "cache-cli": 1.65}
REF_SETUP_S = {"enumerate": 0.2, "verify": 0.2, "cache-cli": 2.5}
# Each of the program and the reference runs at least MIN_PASSES passes.
MIN_PASSES = 3
#
# End-to-end metrics of the final JSON line.  The per-operation percentiles
# call_s_p50 and call_s_tail and the fail ratio are printed in the report only:
# the operations of a pass differ in size by up to 1000x, so a percentile
# lands where the op sizes change fastest and moves by 15-20% between runs,
# and the fail ratio is 0 on a correct program (`failed` carries it).
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
# Per-layer metrics of the final JSON line: those that are measured on every
# workload.  Times of layers that a workload bypasses (cache, claims, action,
# frobenius, cli.main, center, quotient) read 0 there, so they are printed in
# the report above the JSON line and kept in result.json instead.
JSON_PER_LAYER = (
    "cli.import_s", "arith.s", "groups.s", "oracle.field.build_s",
    "oracle.matgroup.generators_s", "oracle.matgroup.enumerate_s",
    "oracle.matgroup.enumerate_s.C_2_3_u", "oracle.matgroup.enumerate_s.2A_3_2_u",
    "oracle.matgroup.elements_per_s", "oracle.matgroup.elements",
    "oracle.matgroup.closure_products", "oracle.matgroup.generators",
    "oracle.matgroup.stack_bytes", "oracle.matgroup.memo_hit_ratio",
    "oracle.matgroup.enumerate_peak_mb", "oracle.action.semidirect_elements",
    "oracle.cache.hits", "oracle.cache.misses", "oracle.cache.rejects",
    "oracle.cache.bytes_read", "oracle.cache.bytes_written",
    "trace.overhead_s", "trace.coverage", "trace.spans",
)

PY = sys.executable
ENV = {k: v for k, v in os.environ.items() if k != "OMEGA_CACHE"}
ENV.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
           OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
REF_ENV = dict(ENV, PYTHONPATH=str(REF))


class Run:
    """What one invocation measured: operations, passes and set-ups."""

    def __init__(self, name, out_dir, seconds, trace, min_calls):
        self.name = name
        self.out = out_dir
        self.seconds = seconds
        self.min_calls = min_calls
        self.trace = trace
        self.spans = str(out_dir / "spans.jsonl") if trace else None
        self.t0 = time.monotonic()
        self.deadline = self.t0 + HARD_LIMIT_S
        self.last, self.longest = None, 0.0   # the longest time between more() calls
        self.attempted = 0
        self.errors = []
        self.calls = []        # seconds per operation, untraced passes only
        self.op_s = {}         # operation -> its seconds in each untraced pass
        self.ref_op_s = {}     # the same for the passes of the reference
        self.passes = []       # (seconds, traced, top-level span seconds or None)
        self.ref_passes = []   # seconds
        self.setups = []
        self.ref_setups = []
        self.rss_mb = []

    def record(self, key, ok, error):
        self.attempted += 1
        if not ok:
            self.errors.append(f"{key}: {error}")

    def more(self):
        """Whether another pass is due: until --seconds is spent and enough
        samples exist, and never past the hard limit."""
        now = time.monotonic()
        if self.last is not None:
            self.longest = max(self.longest, now - self.last)
        self.last = now
        if now + 2 * self.longest > self.deadline or (self.errors and now - self.t0 >= self.seconds):
            return False
        if self.trace:
            kinds = [traced for _, traced, _ in self.passes]
            enough = min(kinds.count(True), kinds.count(False)) >= MIN_TRACE_PASSES
        else:
            enough = (min(len(self.passes), len(self.ref_passes)) >= MIN_PASSES
                      and len(self.calls) >= self.min_calls)
        return not (enough and now - self.t0 >= self.seconds)

    def traced_pass(self):
        return self.trace and len(self.passes) % 2 == 1


class Child:
    """One child process, with its own peak RSS from wait4.

    By default it runs to its end on an empty stdin.  With feed=True it stays
    open: `ask` sends it one line and reads one back, and `finish` closes its
    stdin and waits for its end."""

    def __init__(self, argv, deadline, first_line=False, ref=False, feed=False):
        self.t0 = time.perf_counter()
        self.first_line_s = None
        self.err = tempfile.TemporaryFile(dir=HERE / "out")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE if feed else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self.err, env=REF_ENV if ref else ENV, cwd=ROOT)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.start()
        self.lines = []
        if first_line:
            self.lines.append(self.proc.stdout.readline())
            self.first_line_s = time.perf_counter() - self.t0
        if not feed:
            self.finish()

    def ask(self, line):
        """Send one line; return the line the child answers, b"" if it has died."""
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return b""
        answer = self.proc.stdout.readline()
        self.lines.append(answer)
        return answer

    def finish(self):
        try:
            if self.proc.stdin:
                try:
                    self.proc.stdin.close()
                except BrokenPipeError:
                    pass
            self.lines.extend(self.proc.stdout)
            self.proc.stdout.close()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            self.timer.cancel()
        self.proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - self.t0
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout = b"".join(self.lines)
        self.err.seek(0)
        self.stderr = self.err.read().decode(errors="replace").strip()[-400:]
        self.err.close()

    def failure(self):
        if self.code == 0:
            return None
        return f"exit code {self.code}: {self.stderr.splitlines()[-1] if self.stderr else ''}"


def sides(run, i):
    """Who runs the i-th operation of a pass, in order: the program (False)
    alone in a traced run, else the program and the reference, each going
    first in turn."""
    if run.trace:
        return (False,)
    return (False, True) if i % 2 == 0 else (True, False)


# -- enumerate and verify: one fresh interpreter per pass ----------------------


def run_pass(run, kind, ops, pins, label):
    """One pass: a fresh worker of the program and, in an untraced run, one of
    the reference, sent the ops one at a time, each op to both in turn."""
    traced = run.traced_pass()
    config = {"kind": kind, "run": label,
              "pins": {op_key(kind, op): pins.get(op_key(kind, op)) for op in ops},
              "spans": run.spans if traced else None}
    argv = [PY, str(WORKER), "pass", json.dumps(config)]
    workers = {ref: Child(argv, run.deadline, first_line=True, ref=ref, feed=True)
               for ref in sides(run, len(run.passes))}
    for i, op in enumerate(ops):
        for ref in sides(run, i):
            workers[ref].ask(json.dumps(op))
    for ref, child in workers.items():
        child.finish()
        settle_pass(run, kind, ops, label, child, traced, ref)


def settle_pass(run, kind, ops, label, child, traced, ref):
    lines = [json.loads(x) for x in child.stdout.decode().splitlines() if x.startswith("{")]
    done = [x for x in lines if "op" in x]
    who = "reference " if ref else ""
    for x in done:
        run.record(who + x["op"], x["ok"], x["error"])
        if ref:
            run.ref_op_s.setdefault(x["op"], []).append(x["s"])
        elif not traced:
            run.calls.append(x["s"])
            run.op_s.setdefault(x["op"], []).append(x["s"])
    for op in ops[len(done):]:
        run.record(who + op_key(kind, op), False, child.failure() or "no answer")
    end = [x for x in lines if "pass_s" in x]
    if not end or child.code != 0:
        return
    if ref:
        run.ref_passes.append(end[0]["pass_s"])
        run.ref_setups.append(child.first_line_s)
    elif traced:
        recs = [r for r in tracing.read_records(run.spans) if r["run"] == label]
        run.passes.append((end[0]["pass_s"], True, sum(tracing.top_level_s(r["spans"]) for r in recs)))
    else:
        run.passes.append((end[0]["pass_s"], False, None))
        run.setups.append(child.first_line_s)
        run.rss_mb.append(child.rss_mb)


def run_passes(run, kind, ops, pins, seed, shuffle):
    rng = random.Random(seed)
    idle = [PY, str(WORKER), "pass", json.dumps({"kind": kind, "pins": {}})]
    # untimed warm-up: the interpreter, numpy and omega files enter the page cache
    Child(idle, run.deadline)
    Child(idle, run.deadline, ref=True)
    while run.more():
        if not run.trace:
            for _ in range(SETUP_PROBES):
                for ref in sides(run, len(run.passes)):
                    probe = Child(idle, run.deadline, first_line=True, ref=ref)
                    (run.ref_setups if ref else run.setups).append(probe.first_line_s)
        order = list(ops)
        if shuffle:
            rng.shuffle(order)
        run_pass(run, kind, order, pins, f"pass-{len(run.passes)}-{run.attempted}")


# -- cache-cli: one fresh `omega` process per request --------------------------


def request(run, spec, cache_dir, pins, phase, label, traced, ref=False):
    args = ["enumerate", "--json", "--cache", str(cache_dir), "--group", spec]
    if traced:
        argv = [PY, str(WORKER), "cli", run.spans, label, phase, "--", *args]
    else:
        argv = [PY, "-m", "omega.cli", *args]
    child = Child(argv, run.deadline, ref=ref)
    fail = child.failure()
    if fail is None and digest(child.stdout.decode()) != pins.get(spec):
        fail = "stdout differs from the pin"
    run.record(("reference " if ref else "") + spec, fail is None, fail)
    return child


def run_cache(run, specs, setup_specs, pins, seed, setups=CACHE_SETUPS):
    Child([PY, "-c", "import omega.cli"], run.deadline)  # untimed warm-up
    Child([PY, "-c", "import omega.cli"], run.deadline, ref=True)
    # Each set-up writes a cache of its own; the reference reads its own
    # caches only, since the program's format may change.
    dirs = {}
    for i in range(setups):
        for ref in sides(run, i):
            dirs[ref] = run.out / f"cache-{i}{'-ref' if ref else ''}"
            t0 = time.perf_counter()
            for spec in setup_specs:
                request(run, spec, dirs[ref], pins, "setup", "setup", run.trace, ref)
            (run.ref_setups if ref else run.setups).append(time.perf_counter() - t0)
        if run.trace:
            break
    rng = random.Random(seed)
    while run.more():
        traced = run.traced_pass()
        label = f"pass-{len(run.passes)}"
        order = list(specs)
        rng.shuffle(order)
        walls = {False: [], True: []}
        for i, spec in enumerate(order):
            for ref in sides(run, len(run.calls) + i):
                child = request(run, spec, dirs[ref], pins, "pass", label, traced, ref)
                walls[ref].append(child.wall_s)
                if ref:
                    run.ref_op_s.setdefault(spec, []).append(child.wall_s)
                elif not traced:
                    run.op_s.setdefault(spec, []).append(child.wall_s)
                    run.rss_mb.append(child.rss_mb)
        if not traced:
            run.calls.extend(walls[False])
        if walls[True]:
            run.ref_passes.append(sum(walls[True]))
        covered = None
        if traced:
            recs = [r for r in tracing.read_records(run.spans) if r["run"] == label]
            covered = sum(tracing.top_level_s(r["spans"]) for r in recs)
        run.passes.append((sum(walls[False]), traced, covered))


# -- metrics and report --------------------------------------------------------


def end_to_end(run):
    setup_s = statistics.median(run.setups)
    setup_slowdown = statistics.median(run.ref_setups) / REF_SETUP_S[run.name]
    wall_s = sum(map(sum, run.op_s.values())) / len(run.passes)
    slowdown = sum(map(sum, run.ref_op_s.values())) / len(run.ref_passes) / REF_PASS_S[run.name]
    return {
        "setup_s": (setup_s / setup_slowdown, "s"),
        "wall_s": (wall_s / slowdown, "s"),
        "setup_s.raw": (setup_s, "s"),
        "wall_s.raw": (wall_s, "s"),
        "machine.setup_slowdown": (setup_slowdown, "x"),
        "machine.slowdown": (slowdown, "x"),
        "peak_rss_mb": (max(run.rss_mb), "MB"),
        "call_s_p50": (statistics.median(run.calls), "s"),
        "call_s_tail": (statistics.quantiles(run.calls, n=100)[TAIL_PCT - 1], "s"),
        "fail_ratio": (len(run.errors) / max(run.attempted, 1), "ratio"),
    }


def per_layer(run):
    out = tracing.layer_metrics(tracing.read_records(run.spans))
    traced = [(s, c) for s, t, c in run.passes if t]
    plain = [s for s, t, _ in run.passes if not t]
    out["trace.overhead_s"] = (
        statistics.median(s for s, _ in traced) - statistics.median(plain), "s")
    out["trace.coverage"] = (
        100 * sum(c for _, c in traced) / sum(s for s, _ in traced), "%")
    return out


def _git_head():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed):
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_per_child": 1,
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "commit": _git_head(),
        "src_sha256": src.hexdigest(),
    }


def measure(name, seed, seconds, trace, out_dir, pins, ops=None, setups=CACHE_SETUPS,
            min_calls=MIN_CALLS):
    """Run one workload; `ops`, `setups` and `min_calls` shrink it for the smoke test."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    run = Run(name, out_dir, seconds, trace, min_calls)
    if name == "enumerate":
        run_passes(run, "enumerate", ops or ENUMERATE_SPECS, pins["enumerate"], seed, True)
    elif name == "verify":
        run_passes(run, "verify", ops or VERIFY_POINTS, pins["verify"], seed, False)
    else:
        specs = ops or CACHE_SPECS
        setup_specs = [s for s in CACHE_SETUP_SPECS if s in specs] if ops else CACHE_SETUP_SPECS
        run_cache(run, specs, setup_specs, pins["cache-cli"], seed, setups)
    return run


def report(name, run, env):
    complete = run.passes and (run.trace or run.ref_passes) and not run.errors
    metrics = {}
    if complete:
        metrics = per_layer(run) if run.trace else end_to_end(run)
    lines = [f"workload {name}  trace={int(run.trace)}  passes={len(run.passes)}  "
             f"reference passes={len(run.ref_passes)}  "
             f"set-ups={len(run.setups)}"]
    lines += [f"env {k}={v}" for k, v in env.items()]
    if not run.trace and run.calls:
        beyond = sum(1 for c in run.calls if c > metrics.get("call_s_tail", (0,))[0])
        lines.append(f"calls n={len(run.calls)}  tail=p{TAIL_PCT} with {beyond} samples beyond it")
    lines.append(f"failed {len(run.errors)} of {run.attempted} operations")
    lines += [f"error {e}" for e in run.errors[:20]]
    lines += [f"metric {k} {v:.6g} {u}" for k, (v, u) in sorted(metrics.items())]
    keep = JSON_PER_LAYER if run.trace else END_TO_END
    result = {
        "correct": bool(complete),
        "attempted": max(run.attempted, 1),
        "failed": len(run.errors) if run.attempted else 1,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in keep if k in metrics},
    }
    with open(run.out / "result.json", "w") as fh:
        json.dump({"env": env, "report": lines, "result": result, "passes": run.passes,
                   "ref_passes": run.ref_passes, "setups": run.setups,
                   "ref_setups": run.ref_setups, "rss_mb": run.rss_mb,
                   "op_s": run.op_s, "ref_op_s": run.ref_op_s,
                   "all_metrics": {k: list(v) for k, v in metrics.items()}}, fh, indent=1)
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["enumerate", "verify", "cache-cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "omega" / "__init__.py").is_file() or not PINS.is_file():
        print(f"error: {ROOT} holds no src/omega package or no pins; run from a checkout",
              file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text())
    env = environment(args.seed)
    out_dir = HERE / "out" / args.workload
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir, pins)
    env["loadavg_end"] = os.getloadavg()
    lines, result = report(args.workload, run, env)
    print("\n".join(lines))
    print(compact(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
