"""Spans around omega's public functions, installed from outside the package.

`install()` replaces every public function of every loaded `omega.*` module,
wherever an `omega.*` module binds it (`enumerate_group` is bound in
`matgroup`, `action`, `frobenius`, `claims` and the `oracle` package), by a
wrapper that records one span per call: name, start, end, parent span and a
few attributes.  Spans stay in memory and `Recorder.write` appends them to a
JSON-lines file when the process ends.  No file under `src/` is touched.

`layer_metrics()` runs in the benchmark's parent process and turns span
records into per-layer numbers; a span's self time is its duration minus the
durations of its direct children.
"""

import json
import os
import sys
import time
import tracemalloc
import types
from collections import defaultdict

# A span is [name, start_ns, end_ns, parent_index, attrs].
NAME, START, END, PARENT, ATTRS = range(5)


class Recorder:
    def __init__(self, run_id, phase):
        self.run_id = run_id
        self.phase = phase
        self.spans = []
        self.stack = []
        self.seen_groups = set()
        self.seen_semidirect = set()
        self.import_s = None

    def write(self, path):
        rec = {"run": self.run_id, "phase": self.phase, "import_s": self.import_s,
               "spans": self.spans}
        with open(path, "a") as fh:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# -- per-function attributes ------------------------------------------------


def _enumerate_before(rec, args, kwargs):
    # A memo hit is a group.key() seen before in this process, or one whose
    # table the cache layer has already put into matgroup's memo.
    key = args[0].key()
    memo = getattr(sys.modules.get("omega.oracle.matgroup"), "_TABLE_MEMO", {})
    hit = key in rec.seen_groups or key in memo
    # Allocation tracing runs only inside enumerations that are not memo hits:
    # left on everywhere it slows integer-heavy layers such as arith several-fold.
    if not hit:
        tracemalloc.start()
    return key, hit


def _enumerate_after(rec, state, args, kwargs, table):
    key, hit = state
    peak = 0
    if not hit:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    rec.seen_groups.add(key)
    group = args[0]
    item = group.field.code_dtype().itemsize
    return {
        "hit": hit,
        "size": table.size,
        "gens": len(group.generators),
        "bytes": table.size * group.dim * group.dim * item,
        "peak": peak,
        "spec": None if group.name is None else str(group.name),
    }


def _semidirect_after(rec, state, args, kwargs, table):
    action = args[0]
    key = (action.image_group.key(), action.dim_V)
    hit = key in rec.seen_semidirect
    rec.seen_semidirect.add(key)
    return {"hit": hit, "size": table.size}


def _file_bytes(cache_dir, spec_str, cap):
    from omega.oracle.cache import cache_paths

    paths = getattr(cache_paths, "__wrapped__", cache_paths)(cache_dir, spec_str, cap)
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _load_after(rec, state, args, kwargs, table):
    if table is None:
        return {"outcome": "miss"}
    return {"outcome": "hit", "bytes": _file_bytes(*args[:3])}


def _save_after(rec, state, args, kwargs, path):
    return {"bytes": _file_bytes(*args[1:4])}


def _claim_after(rec, state, args, kwargs, result):
    return {"claim": args[0]}


# qualified name -> (before, after); before runs outside the span.
_ANNOTATE = {
    "oracle.matgroup.enumerate_group": (_enumerate_before, _enumerate_after),
    "oracle.action.semidirect_spectrum": (None, _semidirect_after),
    "oracle.cache.load_table": (None, _load_after),
    "oracle.cache.save_table": (None, _save_after),
    "claims.run_claim": (None, _claim_after),
}


def _wrap(rec, fn, name):
    before, after = _ANNOTATE.get(name, (None, None))
    spans, stack = rec.spans, rec.stack
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        state = before(rec, args, kwargs) if before else None
        span = [name, 0, 0, stack[-1] if stack else -1, None]
        stack.append(len(spans))
        spans.append(span)
        span[START] = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[END] = clock()
            stack.pop()
            if tracemalloc.is_tracing():  # started by _enumerate_before
                tracemalloc.stop()
            span[ATTRS] = {"error": type(exc).__name__}
            raise
        span[END] = clock()
        stack.pop()
        if after:
            span[ATTRS] = after(rec, state, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__module__ = fn.__module__
    return wrapper


def install(rec):
    """Wrap every public omega function in every omega module that binds it."""
    wrapped = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "omega" and not modname.startswith("omega."):
            continue
        for attr, val in list(vars(mod).items()):
            if attr.startswith("_") or not isinstance(val, types.FunctionType):
                continue
            home = val.__module__ or ""
            if not home.startswith("omega.") or val.__name__.startswith("_"):
                continue
            if val not in wrapped:
                name = f"{home[len('omega.'):]}.{val.__name__}"
                wrapped[val] = _wrap(rec, val, name)
            setattr(mod, attr, wrapped[val])


# -- aggregation in the parent process ---------------------------------------


def read_records(path):
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans):
    """Self time in seconds of each span: duration minus direct children."""
    own = [(s[END] - s[START]) for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return [ns / 1e9 for ns in own]


def top_level_s(spans):
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0) / 1e9


def _label(spec):
    return "".join(ch if ch.isalnum() else "_" for ch in spec).strip("_")


def _record_totals(rec):
    """Raw per-layer sums of one record (one process)."""
    t = defaultdict(float)
    spans = rec["spans"]
    for span, own in zip(spans, self_times(spans)):
        name, attrs = span[NAME], span[ATTRS] or {}
        layer, func = name.rsplit(".", 1)
        t[f"{layer}.self_s"] += own
        t[f"{name}.self_s"] += own
        t["trace.spans"] += 1
        if func == "enumerate_group" and not attrs.get("error"):
            if attrs["hit"]:
                t["enumerate.hits"] += 1
                continue
            t["enumerate.calls"] += 1
            t["enumerate.miss_self_s"] += own
            t["enumerate.elements"] += attrs["size"]
            t["enumerate.closure_products"] += attrs["size"] * attrs["gens"]
            t["enumerate.generators"] += attrs["gens"]
            t["enumerate.stack_bytes"] += attrs["bytes"]
            t["enumerate.peak_bytes"] = max(t["enumerate.peak_bytes"], attrs["peak"])
            if attrs["spec"]:
                t[f"enumerate.spec.{_label(attrs['spec'])}"] += own
        elif func == "semidirect_spectrum" and not attrs.get("hit", True):
            t["semidirect.elements"] += attrs["size"]
        elif func == "load_table":
            outcome = "reject" if attrs.get("error") else attrs["outcome"]
            t[f"cache.{outcome}"] += 1
            t["cache.bytes_read"] += attrs.get("bytes", 0)
        elif func == "save_table" and not attrs.get("error"):
            t["cache.bytes_written"] += attrs["bytes"]
        elif func == "run_claim" and not attrs.get("error"):
            t[f"claims.{attrs['claim']}_s"] += own
    if rec.get("import_s") is not None:
        t["cli.import_s"] += rec["import_s"]
    return t


# (metric name, unit, source key); every metric is reported per pass, that is
# the records of each phase are summed and divided by that phase's pass count.
PER_LAYER = [
    ("cli.import_s", "s", "cli.import_s"),
    ("cli.main_s", "s", "cli.main.self_s"),
    ("arith.s", "s", "arith.self_s"),
    ("groups.s", "s", "groups.self_s"),
    ("spectra.s", "s", "spectra.self_s"),
    ("oracle.field.build_s", "s", "oracle.field.build_field.self_s"),
    ("oracle.matgroup.generators_s", "s", "oracle.matgroup.classical_generators.self_s"),
    ("oracle.matgroup.enumerate_s", "s", "enumerate.miss_self_s"),
    ("oracle.matgroup.center_s", "s", "oracle.matgroup.center_of.self_s"),
    ("oracle.matgroup.quotient_s", "s", "oracle.matgroup.quotient_spectrum.self_s"),
    ("oracle.matgroup.elements", "count", "enumerate.elements"),
    ("oracle.matgroup.closure_products", "count", "enumerate.closure_products"),
    ("oracle.matgroup.generators", "count", "enumerate.generators"),
    ("oracle.matgroup.stack_bytes", "B", "enumerate.stack_bytes"),
    ("oracle.action.semidirect_s", "s", "oracle.action.semidirect_spectrum.self_s"),
    ("oracle.action.semidirect_elements", "count", "semidirect.elements"),
    ("oracle.frobenius.witness_s", "s", "oracle.frobenius.frobenius_witness.self_s"),
    ("oracle.frobenius.verify_s", "s", "oracle.frobenius.verify_frobenius.self_s"),
    ("oracle.cache.load_s", "s", "oracle.cache.load_table.self_s"),
    ("oracle.cache.save_s", "s", "oracle.cache.save_table.self_s"),
    ("oracle.cache.hits", "count", "cache.hit"),
    ("oracle.cache.misses", "count", "cache.miss"),
    ("oracle.cache.rejects", "count", "cache.reject"),
    ("oracle.cache.bytes_read", "B", "cache.bytes_read"),
    ("oracle.cache.bytes_written", "B", "cache.bytes_written"),
    ("trace.spans", "count", "trace.spans"),
]
ENUMERATE_ROWS = ("A_2_4_u", "C_2_3_u", "2A_3_2_u", "2A_2_3_u")
CLAIM_IDS = tuple(f"C{i}" for i in range(1, 17))


def layer_metrics(records):
    """Per-pass per-layer metrics from span records: {name: (value, unit)}."""
    totals, passes = defaultdict(lambda: defaultdict(float)), defaultdict(set)
    peak = 0
    for rec in records:
        passes[rec["phase"]].add(rec["run"])
        for key, val in _record_totals(rec).items():
            if key == "enumerate.peak_bytes":
                peak = max(peak, val)
            else:
                totals[rec["phase"]][key] += val

    def get(key):
        return sum(t.get(key, 0.0) / len(passes[ph]) for ph, t in totals.items())

    out = {name: (get(src), unit) for name, unit, src in PER_LAYER}
    enum_s = get("enumerate.miss_self_s")
    calls, hits = get("enumerate.calls"), get("enumerate.hits")
    out["oracle.matgroup.elements_per_s"] = (
        get("enumerate.elements") / enum_s if enum_s else 0.0, "1/s")
    out["oracle.matgroup.memo_hit_ratio"] = (
        hits / (hits + calls) if hits + calls else 0.0, "ratio")
    out["oracle.matgroup.enumerate_peak_mb"] = (peak / 2**20, "MB")
    for row in ENUMERATE_ROWS:
        out[f"oracle.matgroup.enumerate_s.{row}"] = (get(f"enumerate.spec.{row}"), "s")
    for cid in CLAIM_IDS:
        out[f"claims.{cid}_s"] = (get(f"claims.{cid}_s"), "s")
    return out
