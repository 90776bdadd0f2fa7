"""Stage timings of the oracle, one row per run appended to BENCH_stages.json.

    python tools/bench_stages.py [--src DIR]
    python tools/bench_stages.py --compare

Each group is enumerated in fresh interpreters that import omega from DIR/src
(default: the checkout holding this script), with MALLOC_MMAP_THRESHOLD_
fixed (see ENV).  Stages are timed from outside src/ by wrapping
matgroup._closure, _classes and _least_powers: "classes" is _classes less the
class orders (_least_powers), which it calls.  Per group the row holds
generator build, closure, classes, class orders and total seconds, the
generators adopted of those supplied, and max RSS, each the median of three
processes (one for 2A(3,3)u, about 3 minutes); then `omega verify --suite all
--json` per claim, the median of three.  The row names the code by its commit
("+" if src/ differs from it) and a sha256 over src/omega.

--compare prints the ratios of the last two rows (later / earlier), with no
bound: a record, not a gate.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_stages.json"
# glibc's dynamic mmap threshold rises to at most 32 MiB as the program frees
# large blocks, so max RSS depends on the order of those frees; fixing it at
# that ceiling keeps the layout alike between runs, and the times near the
# default's (128 KiB, the starting value, made the cap groups about 2x slower
# by mapping every temporary afresh)
ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20)}
# the five groups the claims read most, the eight at the cap, and SU2(64),
# whose 48-bit keys do not fit a word with their index
GROUPS = ("C(3,2)u", "C(2,4)u", "A(2,4)u", "C(2,3)u", "2A(3,2)u",
          "A(4,2)u", "A(3,3)u", "A(2,8)u", "C(2,5)u", "2A(4,2)u", "2A(2,7)u", "2A(2,8)u",
          "2A(3,3)u", "2A(1,64)u")
ONCE = {"2A(3,3)u"}
REPEATS = 3


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(module, seconds):
    """Wrap each function of module named in seconds, adding its time there."""
    for name in seconds:
        def wrapper(*args, _fn=getattr(module, name), _name=name):
            t0 = time.perf_counter()
            try:
                return _fn(*args)
            finally:
                seconds[_name] += time.perf_counter() - t0
        setattr(module, name, wrapper)


def _child_group(spec):
    from omega.oracle import classical_generators, enumerate_group, matgroup
    seconds = dict.fromkeys(("_closure", "_classes", "_least_powers"), 0.0)
    _timed(matgroup, seconds)
    t0 = time.perf_counter()
    group = classical_generators(spec)
    t1 = time.perf_counter()
    table = enumerate_group(group)
    t2 = time.perf_counter()
    return {"size": table.size, "generators_s": t1 - t0, "closure_s": seconds["_closure"],
            "classes_s": seconds["_classes"] - seconds["_least_powers"],
            "class_orders_s": seconds["_least_powers"], "total_s": t2 - t0,
            "adopted": len(table.payload.generators), "supplied": len(group.generators),
            "max_rss_mb": _max_rss_mb()}


def _child_verify():
    import contextlib
    import io
    from omega import claims, cli
    per_claim = {}
    run_claim = claims.run_claim

    def timed(claim_id, params=None):
        t0 = time.perf_counter()
        try:
            return run_claim(claim_id, params)
        finally:
            per_claim[claim_id] = per_claim.get(claim_id, 0.0) + time.perf_counter() - t0

    claims.run_claim = timed
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--suite", "all", "--json"])
    return {"exit": code, "total_s": time.perf_counter() - t0, "claims_s": per_claim,
            "max_rss_mb": _max_rss_mb()}


def _child(what, src):
    import omega
    if not Path(omega.__file__).resolve().is_relative_to(src):
        sys.exit(f"omega imported from {omega.__file__}, not {src}")
    print(json.dumps(_child_verify() if what == "verify" else _child_group(what)))


def _run(what, src, n):
    env = dict(os.environ, PYTHONPATH=str(src), **ENV)
    rows = []
    for _ in range(n):
        out = subprocess.run([sys.executable, __file__, "--child", what, "--src", str(src.parent)],
                             env=env, check=True, capture_output=True, text=True).stdout
        rows.append(json.loads(out))
    return rows


def _median(rows):
    """Field-wise median of the rows; nested dicts (per claim) too."""
    out = {}
    for key, value in rows[0].items():
        if isinstance(value, dict):
            out[key] = _median([r[key] for r in rows])
        elif isinstance(value, float):
            out[key] = round(statistics.median(r[key] for r in rows), 4)
        else:
            if any(r[key] != value for r in rows):
                raise RuntimeError(f"{key} differs between runs: {[r[key] for r in rows]}")
            out[key] = value
    return out


def _git(src, *args):
    try:
        return subprocess.run(["git", "-C", str(src), *args], check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _source(root):
    """The commit of the checkout ("+" if src/ differs from it) and a sha256
    over src/omega's files, which names the code measured either way."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "omega").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = _git(root, "rev-parse", "--short", "HEAD") or "unknown"
    if _git(root, "status", "--porcelain", "--", "src"):
        commit += "+"
    return commit, digest.hexdigest()


def _machine():
    import numpy
    cpu, info = platform.processor(), Path("/proc/cpuinfo")
    if info.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in info.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return (f"{cpu}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}")


def _measure(root):
    src = root / "src"
    commit, digest = _source(root)
    row = {"commit": commit, "src_sha256": digest, "date": time.strftime("%Y-%m-%d %H:%M:%S"),
           "machine": _machine(), "env": ENV, "groups": {}}
    for spec in GROUPS:
        n = 1 if spec in ONCE else REPEATS
        row["groups"][spec] = dict(_median(_run(spec, src, n)), runs=n)
        print(f"{spec}: {row['groups'][spec]}", flush=True)
    row["verify"] = dict(_median(_run("verify", src, REPEATS)), runs=REPEATS)
    print(f"verify --suite all: {row['verify']['total_s']} s", flush=True)
    rows = json.loads(OUT.read_text()) if OUT.exists() else []
    OUT.write_text(json.dumps(rows + [row], indent=1) + "\n")


def _compare():
    rows = json.loads(OUT.read_text())
    if len(rows) < 2:
        sys.exit(f"{OUT} has {len(rows)} row(s); --compare needs two")
    old, new = rows[-2:]
    print(f"{new['commit']} / {old['commit']}")

    def ratios(a, b):
        return "  ".join(f"{k} {b[k] / a[k]:.2f}" for k, v in a.items()
                         if isinstance(v, float) and v and k in b)

    for spec in new["groups"]:
        if spec in old["groups"]:
            print(f"{spec}: {ratios(old['groups'][spec], new['groups'][spec])}")
    print(f"verify: {ratios(old['verify'], new['verify'])}")
    print(f"verify claims: {ratios(old['verify']['claims_s'], new['verify']['claims_s'])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--compare", action="store_true",
                        help="print the ratios of the last two rows")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.child, (args.src / "src").resolve())
    elif args.compare:
        _compare()
    else:
        _measure(args.src.resolve())


if __name__ == "__main__":
    main()
